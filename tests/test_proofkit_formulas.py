import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bruteforce import threshold_by_iteration
from rainbowbench.proofkit import (
    Epsilon,
    contradiction_threshold,
    s_k,
    size_xy_prime,
    smallest_t,
)


def eps(text):
    return Epsilon.parse(text)


rationals = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(10))


class TestEpsilon:
    def test_parse_forms(self):
        assert Epsilon.parse("1/4").value == Fraction(1, 4)
        assert Epsilon.parse("2").value == 2

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Epsilon.parse("0")
        with pytest.raises(ValueError):
            Epsilon.parse("-1/2")

    def test_exponent_is_never_evaluated(self):
        # Fraction("1e10000000") computes 10**10000000, seconds of CPU
        start = time.perf_counter()
        with pytest.raises(ValueError, match="eps must be a fraction string"):
            Epsilon.parse("1e10000000")
        assert time.perf_counter() - start < 2

    def test_zero_denominator_raises_value_error(self):
        with pytest.raises(ValueError, match="eps must be a fraction string"):
            Epsilon.parse("1/0")


class TestSmallestT:
    def test_known_values(self):
        assert smallest_t(eps("1")) == 1
        assert smallest_t(eps("1/4")) == 3
        assert smallest_t(eps("1/9")) == 5

    @given(rationals)
    def test_minimality(self, value):
        t = smallest_t(Epsilon(value))
        assert t >= 1
        assert Fraction(1, 2 * t - 1) <= value
        if t >= 2:
            assert value < Fraction(1, 2 * t - 3)


class TestPoolFormulas:
    def test_s_k_values(self):
        assert s_k(0, eps("1/4"), 40) == 0
        assert s_k(1, eps("1/4"), 40) == 22  # 2*eps*n + 2
        assert s_k(2, eps("1/4"), 40) == 41

    def test_size_xy_prime_values(self):
        assert size_xy_prime(0, eps("1/4"), 40) == Fraction(31)  # (1/2 + eps)*n + 1
        assert size_xy_prime(1, eps("1/4"), 40) == Fraction(51)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            s_k(-1, eps("1"), 5)
        with pytest.raises(ValueError):
            size_xy_prime(-1, eps("1"), 5)

    @given(st.integers(0, 10), rationals, st.integers(1, 10**6))
    def test_pool_identity(self, k, value, n):
        e = Epsilon(value)
        assert size_xy_prime(k, e, n) == s_k(k, e, n) + (Fraction(1, 2) + value) * n + 1 - 2 * k

    @given(st.integers(0, 10), rationals, st.integers(1, 10**6))
    def test_next_pool_recurrence(self, k, value, n):
        e = Epsilon(value)
        shrink = Fraction(n, 2) - (2 * k + 1) * value * n + Fraction(3 * k * k - k - 2, 2)
        assert s_k(k + 1, e, n) == (Fraction(1, 2) + value) * n + 1 - shrink


class TestContradictionThreshold:
    def test_known_values(self):
        assert contradiction_threshold(eps("1")) == 1
        assert contradiction_threshold(eps("1/3")) == 1
        assert contradiction_threshold(eps("1/9")) == 181

    def test_matches_iteration(self):
        rng = random.Random(11)
        for _ in range(30):
            value = Fraction(rng.randint(1, 12), rng.randint(1, 24))
            e = Epsilon(value)
            assert contradiction_threshold(e) == threshold_by_iteration(value, smallest_t(e))

    @given(rationals)
    def test_inequality_holds_at_threshold_only(self, value):
        e = Epsilon(value)
        t = smallest_t(e)
        n = contradiction_threshold(e)

        def lhs(m):
            return 2 * t * value * m + Fraction(t * (7 - 3 * t), 2)

        assert lhs(n) > n
        if n > 1:
            assert lhs(n - 1) <= n - 1
