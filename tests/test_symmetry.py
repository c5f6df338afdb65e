"""Orbits of root edges under verified automorphisms, checked against an independent test."""

import random
from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from rainbowbench import oracle, symmetry
from rainbowbench.core import make_instance
from rainbowbench.gen import gen_no_transversal, gen_random_instance
from rainbowbench.latin import gen_random_latin, latin_to_instance
from rainbowbench.oracle import max_rainbow
from rainbowbench.symmetry import root_orbits


def bundles_of(inst):
    """Identical classes grouped as max_rainbow groups them: (pairs, colours) per bundle."""
    groups = {}
    for c, cls in enumerate(inst.classes):
        if cls.pairs:
            groups.setdefault(cls.pairs, []).append(c)
    return list(groups.items())


def relabel(inst, seed):
    """inst under seeded vertex permutations on both sides and a shuffled colour order."""
    rng = random.Random(seed)
    a_map = list(range(inst.a_size))
    b_map = list(range(inst.b_size))
    rng.shuffle(a_map)
    rng.shuffle(b_map)
    classes = [sorted((a_map[a], b_map[b]) for a, b in cls.pairs) for cls in inst.classes]
    rng.shuffle(classes)
    return make_instance(classes, a_size=inst.a_size, b_size=inst.b_size), a_map, b_map


def orbit_sizes(reps):
    return sorted(Counter(reps).values())


def is_automorphism(bundles, root, perm, amap, bmap):
    """Written apart from symmetry: the maps permute what they act on, and every class follows."""
    a_side = {a for pairs, _ in bundles for a, _ in pairs}
    b_side = {b for pairs, _ in bundles for _, b in pairs}
    if set(amap) != a_side or set(amap.values()) != a_side:
        return False
    if set(bmap) != b_side or set(bmap.values()) != b_side:
        return False
    if perm[root] != root or sorted(perm) != list(range(len(bundles))):
        return False
    for u, (pairs, colours) in enumerate(bundles):
        image_pairs, image_colours = bundles[perm[u]]
        if len(colours) != len(image_colours):
            return False
        if sorted((amap[a], bmap[b]) for a, b in pairs) != list(image_pairs):
            return False
    return True


def closure(pairs, generators):
    """For each root edge, the least index in its class of the generators' union-find closure."""
    index = {pair: j for j, pair in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for _, amap, bmap in generators:
        for j, (a, b) in enumerate(pairs):
            x, y = sorted((find(j), find(index[amap[a], bmap[b]])))
            parent[y] = x
    return [find(j) for j in range(len(pairs))]


def recorded_orbits(bundles, root):
    """root_orbits(bundles, root) and every (perm, amap, bmap) it accepted as a generator."""
    accepted = []
    check = symmetry._is_automorphism

    def recording(*args):
        ok = check(*args)
        if ok:
            accepted.append(args[2:])
        return ok

    with mock.patch.object(symmetry, "_is_automorphism", recording):
        return root_orbits(bundles, root), accepted


def test_the_check_accepts_automorphisms_only():
    # swapping b0 and b1 swaps bundles 0 and 1 and fixes bundle 2
    same = [(((0, 0), (1, 1)), [0]), (((0, 1), (1, 0)), [1]), (((2, 2),), [2, 3])]
    more = [(((0, 0), (1, 1)), [0]), (((0, 1), (1, 0)), [1, 4]), (((2, 2),), [2, 3])]
    ident = {0: 0, 1: 1, 2: 2}
    swap = {0: 1, 1: 0, 2: 2}
    check = symmetry._is_automorphism
    assert check(same, 0, [0, 1, 2], ident, ident)
    assert check(same, 2, [1, 0, 2], ident, swap)
    assert not check(same, 0, [1, 0, 2], ident, swap)  # moves the root
    assert not check(more, 2, [1, 0, 2], ident, swap)  # one colour onto two
    assert not check(same, 2, [0, 1, 2], ident, swap)  # pairs leave their bundle
    assert not check(same, 2, [0, 1, 2], {0: 0, 1: 0, 2: 2}, ident)  # merges a0 and a1


def test_relabelled_cyclic_root_colour_is_one_orbit():
    for n in range(4, 13, 2):
        for seed in (1, 2, 3):
            bundles = bundles_of(relabel(gen_no_transversal(n), seed)[0])
            for root in range(len(bundles)):
                assert root_orbits(bundles, root) == [0] * n


@st.composite
def families(draw):
    """1-5 classes, each a matching of 1-4 edges in a universe of at most 5 x 5, repeats allowed."""
    a_size = draw(st.integers(1, 5))
    b_size = draw(st.integers(1, 5))
    classes = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, min(a_size, b_size, 4)))
        a_idx = draw(st.lists(st.integers(0, a_size - 1), min_size=size, max_size=size, unique=True))
        b_idx = draw(st.lists(st.integers(0, b_size - 1), min_size=size, max_size=size, unique=True))
        classes += [list(zip(a_idx, b_idx))] * draw(st.integers(1, 2))
    return make_instance(classes, a_size=a_size, b_size=b_size)


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(0, 2**32 - 1))
def test_relabelling_keeps_orbit_sizes(inst, seed):
    # the multiset of orbit sizes is a property of the instance only when the
    # search runs to the end, so the work cap is lifted here
    other, a_map, b_map = relabel(inst, seed)
    bundles, other_bundles = bundles_of(inst), bundles_of(other)
    position = {pairs: t for t, (pairs, _) in enumerate(other_bundles)}
    with mock.patch.object(symmetry, "_MAX_WORK", 10**6):
        for root, (pairs, _) in enumerate(bundles):
            image = tuple(sorted((a_map[a], b_map[b]) for a, b in pairs))
            reps = root_orbits(bundles, root)
            assert orbit_sizes(reps) == orbit_sizes(root_orbits(other_bundles, position[image]))


def test_every_merge_is_backed_by_a_checked_generator():
    cases = [gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed) for seed in range(20)]
    cases += [latin_to_instance(gen_random_latin(n, seed)) for n in range(6, 11) for seed in (1, 2)]
    cases += [relabel(gen_no_transversal(n), n)[0] for n in (6, 8)]
    merged = 0
    for inst in cases:
        bundles = bundles_of(inst)
        for root, (pairs, _) in enumerate(bundles):
            reps, generators = recorded_orbits(bundles, root)
            assert all(is_automorphism(bundles, root, *g) for g in generators)
            assert reps == closure(pairs, generators)
            merged += len(pairs) - len(set(reps))
    assert merged > 0


def test_forced_trigger_on_a_random_square_stops_at_the_work_cap(monkeypatch):
    # refinement stalls on a random Latin square: without the cap one
    # root_orbits call here runs hundreds of refinements
    calls = []
    refine = symmetry._refine
    monkeypatch.setattr(symmetry, "_refine", lambda *args: calls.append(args) or refine(*args))
    inst = latin_to_instance(gen_random_latin(10, 1))
    plain = max_rainbow(inst)
    assert calls == []
    monkeypatch.setattr(oracle, "_ORBIT_NODES", 0)
    forced = max_rainbow(inst)
    assert len(calls) == symmetry._MAX_WORK // 100  # refinements allowed with 100 pairs
    assert (forced.best, forced.optimal) == (plain.best, plain.optimal)
