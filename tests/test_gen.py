import random

import pytest

from rainbowbench.core import validate_instance
from rainbowbench.gen import gen_drisko, gen_no_transversal, gen_random_instance
from rainbowbench.oracle import max_rainbow, naive_max_rainbow


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
