"""Automorphisms that fix the oracle's root bundle, for orbital branching.

root_orbits finds permutations of the A-vertices, the B-vertices and the
bundles that fix the root bundle and map each bundle onto one with the same
pairs and colour count, by individualization-refinement (McKay and Piperno,
J. Symb. Comput. 2014) over the three kinds of node, each pair of a bundle
joining all three. The first path below one root edge's A-end is matched
against the paths below another's, down to discrete leaves, pruning any
partition whose cell sizes differ. A map read off two leaves becomes a
generator only once _is_automorphism accepts it, so the orbits are sound
however refinement behaves; pruning or the work cap only merges fewer edges.
"""

from __future__ import annotations

from collections import Counter

# (pairs ascending, colours ascending): identical classes, which the oracle searches as one
Bundle = tuple[tuple[tuple[int, int], ...], list[int]]

# Work per root_orbits call, in refinements times pairs (a refinement's cost
# grows with the pairs): 4-7 ms where refinement stalls, on random Latin squares
# of order 8 to 20, whose searches are never still undecided after 256 nodes.
_MAX_WORK = 2_400


class _Capped(Exception):
    """The refinement budget is spent."""


def _refine(cell: list[int], inc: list[list[tuple[int, int, int]]]) -> list[int]:
    """The coarsest equitable refinement of cell, its cells ranked by (old cell, signature).

    inc[v] holds, for each pair at node v, the other two nodes it joins and
    the number of bundles holding the pair. Ranks depend on cell numbers
    only, never on node numbers, so isomorphic inputs give isomorphic outputs.
    """
    while True:
        size = Counter(cell)
        # (cell[x], cell[y], m) as base-n digits, ordered as the triples: m <= bundles < n
        n = max(len(cell), max(cell) + 1)
        keys = [
            (c, tuple(sorted([(cell[x] * n + cell[y]) * n + m for x, y, m in inc[v]])))
            if size[c] > 1 else (c, ())
            for v, c in enumerate(cell)
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        cell = [rank[k] for k in keys]
        if len(rank) == len(size):
            return cell


def _target(shape: tuple) -> int | None:
    """Of a partition's (cell, size) pairs, the smallest cell of two nodes or more, else None."""
    return min(((n, c) for c, n in shape if n > 1), default=(0, None))[1]


def _is_automorphism(
    bundles: list[Bundle], root: int, perm: list[int], amap: dict[int, int], bmap: dict[int, int]
) -> bool:
    """perm permutes the bundles fixing root, amap and bmap the vertices, and every pair follows."""
    return (
        perm[root] == root
        and sorted(perm) == list(range(len(bundles)))
        and sorted(amap.values()) == sorted(amap)
        and sorted(bmap.values()) == sorted(bmap)
        and all(
            len(colours) == len(bundles[perm[u]][1])
            and {(amap[a], bmap[b]) for a, b in pairs} == set(bundles[perm[u]][0])
            for u, (pairs, colours) in enumerate(bundles)
        )
    )


def root_orbits(bundles: list[Bundle], root: int) -> list[int]:
    """For each edge of bundles[root], the least index of an edge in its orbit.

    The orbits are those of the group generated by the verified automorphisms
    found (see the module docstring), all of which fix the root bundle. At
    most _MAX_WORK // (number of pairs) refinements run, at least one; edges
    they leave unmerged stay apart.
    """
    avs = sorted({a for pairs, _ in bundles for a, _ in pairs})
    bvs = sorted({b for pairs, _ in bundles for _, b in pairs})
    # nodes: bundles, then A-vertices from nu, then B-vertices from nb
    nu, nb = len(bundles), len(bundles) + len(avs)
    labels = list(range(nu)) + avs + bvs
    node_a = {a: nu + i for i, a in enumerate(avs)}
    node_b = {b: nb + i for i, b in enumerate(bvs)}
    mult = Counter(pair for pairs, _ in bundles for pair in pairs)
    inc: list[list[tuple[int, int, int]]] = [[] for _ in labels]
    for u, (pairs, _) in enumerate(bundles):
        for a, b in pairs:
            x, y, m = node_a[a], node_b[b], mult[a, b]
            inc[u].append((x, y, m))
            inc[x].append((y, u, m))
            inc[y].append((x, u, m))
    # cells in order: the root alone, the other bundles by colour count, A, B
    big = 1 + max(len(c) for _, c in bundles)
    start = [0 if u == root else len(c) for u, (_, c) in enumerate(bundles)]
    start += [big] * len(avs) + [big + 1] * len(bvs)
    budget = max(1, _MAX_WORK // sum(mult.values()))  # refinements

    def refine(cell: list[int], v: int | None) -> tuple[list[int], tuple]:
        """cell with node v individualized (alone just before the rest of its cell), refined."""
        nonlocal budget
        if budget == 0:
            raise _Capped
        budget -= 1
        cell = _refine([2 * c + (w != v) for w, c in enumerate(cell)], inc)
        return cell, tuple(sorted(Counter(cell).items()))

    def first_path(cell: list[int], v: int) -> tuple[list[int], list[tuple]]:
        """The leaf reached from cell by v, then each target's first node, and the shapes met."""
        shapes = []
        while True:
            cell, shape = refine(cell, v)
            shapes.append(shape)
            if (c := _target(shape)) is None:
                return cell, shapes
            v = cell.index(c)

    def match(cell: list[int], v: int, leaf: list[int], shapes: list[tuple], depth: int):
        """A verified (perm, amap, bmap) that takes leaf to a leaf below cell and v, or None."""
        cell, shape = refine(cell, v)
        if shape != shapes[depth]:
            return None
        if (c := _target(shape)) is not None:
            for w, k in enumerate(cell):
                if k == c and (found := match(cell, w, leaf, shapes, depth + 1)):
                    return found
            return None
        at = {k: labels[w] for w, k in enumerate(cell)}
        image = [at[k] for k in leaf]
        perm, amap, bmap = image[:nu], dict(zip(avs, image[nu:nb])), dict(zip(bvs, image[nb:]))
        return (perm, amap, bmap) if _is_automorphism(bundles, root, perm, amap, bmap) else None

    pairs = bundles[root][0]
    index = {pair: j for j, pair in enumerate(pairs)}
    rep = list(range(len(pairs)))
    ends = [node_a[a] for a, _ in pairs]
    try:
        top, _ = refine(start, None)
        for i, end in enumerate(ends):
            others = [j for j in range(i + 1, len(pairs)) if top[ends[j]] == top[end]]
            if rep[i] != i or not others:
                continue
            leaf, shapes = first_path(top, end)
            for j in others:
                if rep[j] == j and (g := match(top, ends[j], leaf, shapes, 0)):
                    _, amap, bmap = g
                    for e, (a, b) in enumerate(pairs):
                        low, high = sorted((rep[e], rep[index[amap[a], bmap[b]]]))
                        rep = [low if r == high else r for r in rep]
    except _Capped:
        pass
    return rep
