import ast
import hashlib
import inspect
import math
import random
import textwrap

import pytest
from hypothesis import given, strategies as st

from bruteforce import naive_max_rainbow
from rainbowbench import gen
from rainbowbench.core import instance_to_json, make_instance, validate_instance
from rainbowbench.gen import gen_drisko, gen_no_transversal, gen_random_instance
from rainbowbench.oracle import max_rainbow


def pinned_shapes() -> list[tuple]:
    """gen_random_instance arguments (n, m, a_size, b_size, seed) that the draw-stream pin covers."""
    shapes = [
        (n, math.ceil(3 * n / 2) + 1, None, None, seed)
        for n in (3, 4, 5)
        for seed in range(100)
    ]
    shapes += [(8, 9, 9, 9, seed) for seed in range(100)]
    shapes += [(4, m, 200, 200, seed) for m in range(1, 7) for seed in range(10)]
    shapes += [(3, 3, 10**6, 10**6, seed) for seed in range(5)]
    for k, small in ((5, 21), (6, 85)):
        for seed in range(10):
            shapes += [
                (3, k, small, small, seed),
                (3, k, small + 1, small + 1, seed),
                (3, k, small, small + 1, seed),
            ]
    shapes += [(4, m, m, m, seed) for m in (1, 5, 6, 9) for seed in range(5)]
    shapes += [(3, 4, None, None, seed) for seed in (-5, -1, 2.5, -2.5, "rainbow")]
    return shapes


def assert_built_canonical(inst) -> None:
    pairs = [inst.class_pairs(c) for c in range(inst.n_colours)]
    assert inst == make_instance(pairs, inst.a_size, inst.b_size)
    assert validate_instance(inst) == []


class TestDrisko:
    def test_n2_is_the_crossing_pair(self):
        inst = gen_drisko(2)
        assert inst.n_colours == 2
        assert inst.class_pairs(0) == [(0, 0), (1, 1)]
        assert inst.class_pairs(1) == [(0, 1), (1, 0)]
        assert len(naive_max_rainbow(inst).best) == 1

    def test_n3_optimum_two(self):
        inst = gen_drisko(3)
        assert inst.n_colours == 4
        assert len(max_rainbow(inst).best) == 2

    def test_n5_optimum_four(self):
        inst = gen_drisko(5)
        assert inst.n_colours == 8
        assert len(max_rainbow(inst).best) == 4

    def test_union_is_the_two_n_cycle(self):
        for n in (2, 3, 4, 5, 6):
            inst = gen_drisko(n)
            union = set()
            for cls in inst.classes:
                union.update(cls.pairs)
            expected = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
            assert union == expected
            assert len(union) == 2 * n

    def test_guard(self):
        with pytest.raises(ValueError):
            gen_drisko(1)


class TestNoTransversal:
    def test_n2(self):
        assert len(naive_max_rainbow(gen_no_transversal(2)).best) == 1

    def test_n4(self):
        assert len(max_rainbow(gen_no_transversal(4)).best) == 3

    def test_n6_below_six(self):
        # hard criterion is optimum < 6; the measured value is 5
        size = len(max_rainbow(gen_no_transversal(6)).best)
        assert size < 6
        assert size == 5

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            gen_no_transversal(3)
        with pytest.raises(ValueError):
            gen_no_transversal(1)


class TestRandomInstance:
    def test_single_edge(self):
        inst = gen_random_instance(1, 1, seed=0)
        assert validate_instance(inst) == []
        assert len(inst.classes[0]) == 1

    def test_every_class_has_size_m(self):
        rng = random.Random(0)
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            inst = gen_random_instance(n, m, seed=rng.getrandbits(32))
            assert validate_instance(inst) == []
            assert all(len(cls) == m for cls in inst.classes)
            assert inst.a_size == inst.b_size == n + m

    def test_deterministic(self):
        a = gen_random_instance(4, 5, seed=99)
        b = gen_random_instance(4, 5, seed=99)
        assert a == b

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError):
            gen_random_instance(2, 5, a_size=3, b_size=9, seed=0)

    def test_draw_stream_is_pinned(self):
        # sha256 over instance_to_json of gen_random_instance, recorded while each
        # class was drawn by random.Random.sample: the sweep-heavy and tight shapes,
        # sample's set branch (a universe much larger than the class), both sides of
        # its pool/set boundary at k = 5 (21 | 22) and k = 6 (85 | 86), k equal to
        # the universe, and negative, float and str seeds
        digest = hashlib.sha256()
        for shape in pinned_shapes():
            digest.update(instance_to_json(gen_random_instance(*shape)).encode())
        assert digest.hexdigest() == (
            "5469f7d3c8b6850c68da2b79255ec99a7eaa520bd3cba739574be29f81ac2cf9"
        )

    def test_direct_build_is_what_make_instance_builds(self):
        for shape in pinned_shapes():
            assert_built_canonical(gen_random_instance(*shape))

    @given(
        st.integers(1, 5),
        st.integers(1, 30),
        st.integers(1, 30),
        st.data(),
        st.one_of(st.integers(-(2**40), 2**40), st.floats(allow_nan=False), st.text(max_size=4)),
    )
    def test_direct_build_is_what_make_instance_builds_for_any_shape(
        self, n, a_size, b_size, data, seed
    ):
        m = data.draw(st.integers(1, min(a_size, b_size)))
        assert_built_canonical(gen_random_instance(n, m, a_size, b_size, seed))


class TestSample:
    def test_draws_what_random_sample_draws(self):
        # same result and same words consumed, in both of sample's branches: the
        # set branch is taken at k <= 5 from n = 22 and at k = 6 from n = 86
        for n in range(1, 121):
            for k in sorted({0, 1, 5, 6, n // 2, n}):
                if k > n:
                    continue
                for seed in range(20):
                    ours, stdlib = random.Random(seed), random.Random(seed)
                    assert gen._sample(ours.getrandbits, n, k) == stdlib.sample(range(n), k)
                    assert ours.getstate() == stdlib.getstate()

    @given(
        st.lists(
            st.integers(1, 40).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, 2**32))
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_cached_plan_draws_what_random_sample_draws(self, calls):
        # shapes in any order and repeated, through both branches (the set
        # branch from n = 22 at k <= 5): a plan changed by one call changes the next
        for n, k, seed in calls + calls:
            ours, stdlib = random.Random(seed), random.Random(seed)
            assert gen._sample(ours.getrandbits, n, k) == stdlib.sample(range(n), k)
            assert ours.getstate() == stdlib.getstate()
            plan = gen._pool_plan(n, k)
            assert [type(part) for part in plan] == [tuple, tuple]
            assert gen._pool_plan(n, k) is plan

    def test_branch_test_is_cpythons(self):
        # the pool/set test in _sample, read from its source, against the one in
        # random.Random.sample: setsize = 21, plus 4 ** ceil(log(3k, 4)) when k > 5
        tree = ast.parse(textwrap.dedent(inspect.getsource(gen._sample)))
        test = next(node.test for node in ast.walk(tree) if isinstance(node, ast.If))
        ours = eval(f"lambda n, k: {ast.unparse(test)}", {"ceil": math.ceil, "log": math.log})
        for n in range(1, 2001):
            for k in range(n + 1):
                setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
                assert ours(n, k) == (n <= setsize), (n, k)
