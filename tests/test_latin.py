import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import max_partial_transversal
from rainbowbench.core import make_instance, make_matching, validate_instance
from rainbowbench.latin import (
    LatinSquare,
    PartialTransversal,
    format_latin_text,
    gen_cyclic,
    gen_random_latin,
    instance_to_latin,
    is_partial_transversal,
    latin_to_instance,
    parse_latin_text,
    rainbow_to_transversal,
    transversal_to_rainbow,
    validate_latin,
)
from rainbowbench.oracle import max_rainbow


class TestValidateLatin:
    def test_singleton(self):
        assert validate_latin(LatinSquare.from_rows([[0]])) == []

    def test_order_two_cyclic(self):
        assert validate_latin(LatinSquare.from_rows([[0, 1], [1, 0]])) == []

    def test_repeated_column_symbol(self):
        violations = validate_latin(LatinSquare.from_rows([[0, 1], [0, 1]]))
        assert any(v.code == "col_repeat" and v.index == 0 for v in violations)

    def test_out_of_range_symbol(self):
        violations = validate_latin(LatinSquare.from_rows([[0, 1], [1, 2]]))
        assert any(v.code == "range" for v in violations)


class TestRejections:
    # one case per rejection branch of the module
    @pytest.mark.parametrize(
        "square, code, message",
        [
            (LatinSquare(order=0, cells=()), "shape", "order must be >= 1, got 0"),
            (LatinSquare.from_rows([[0, 1], [1]]), "shape", "cells are not an n x n matrix"),
            (LatinSquare.from_rows([[0, 0], [1, 1]]), "row_repeat",
             "row 0 repeats symbol 0 (cols 0 and 1)"),
        ],
        ids=["order-zero", "ragged", "row-repeat"],
    )
    def test_violation(self, square, code, message):
        first = validate_latin(square)[0]
        assert (first.code, first.message) == (code, message)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: instance_to_latin(make_instance([[(0, 0)]], a_size=2, b_size=1)),
             "not a Latin-type instance: n_colours=1, universe 2x1"),
            (lambda: instance_to_latin(make_instance([[(0, 0), (1, 1)], [(0, 0), (1, 0)]])),
             "cell row 0 col 0 covered by colours 0 and 1"),
            (lambda: instance_to_latin(make_instance([[(0, 0)], [(1, 1)]])),
             "cell row 0 col 1 not covered by any colour"),
            (lambda: instance_to_latin(make_instance([[(0, 0), (1, 0)], [(0, 1), (1, 1)]])),
             "instance does not encode a Latin square: row 0 repeats symbol 0 (cols 0 and 1)"),
            (lambda: rainbow_to_transversal(gen_cyclic(2), make_matching([(0, 2, 0)])),
             "edge a2b0@0 outside the order-2 square"),
            (lambda: transversal_to_rainbow(gen_cyclic(2), PartialTransversal(frozenset({(2, 0)}))),
             "entries do not form a partial transversal"),
            (lambda: parse_latin_text("x\n0\n"), "first line must be the order, got 'x'"),
            (lambda: parse_latin_text("2\n0 1\n1\n"), "row '1' has 1 symbols, expected 2"),
            (lambda: parse_latin_text("+2\n0 1\n1 0\n"), "first line must be the order, got '+2'"),
            (lambda: parse_latin_text("2\n0 +1\n\u0661 0\n"), "non-integer symbol in row '0 +1'"),
            (lambda: parse_latin_text("2\n0 1\n\u0661 0\n"),
             "non-integer symbol in row '\u0661 0'"),
            (lambda: parse_latin_text("2\n0 1\n1 0_0\n"), "non-integer symbol in row '1 0_0'"),
            (lambda: LatinSquare.from_rows([[0.9, 1.2], [1, 0]]), "expected an integer, got 0.9"),
            (lambda: LatinSquare.from_rows([[True, 0], [0, 1]]), "expected an integer, got True"),
        ],
        ids=["universe", "cell-covered-twice", "cell-uncovered", "not-latin", "edge-outside",
             "entry-outside", "order-line", "short-row", "order-plus", "symbol-plus",
             "symbol-non-ascii-digit", "symbol-underscore", "cell-float", "cell-bool"],
    )
    def test_value_error(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestLatinToInstance:
    def test_order_one(self):
        inst = latin_to_instance(LatinSquare.from_rows([[0]]))
        assert inst.n_colours == 1
        assert inst.classes[0].pairs == ((0, 0),)

    def test_order_two_reads_cells(self):
        # a = column, b = row
        inst = latin_to_instance(LatinSquare.from_rows([[0, 1], [1, 0]]))
        assert inst.classes[0].pairs == ((0, 0), (1, 1))
        assert inst.classes[1].pairs == ((0, 1), (1, 0))

    def test_cyclic_four_is_valid_with_perfect_classes(self):
        inst = latin_to_instance(gen_cyclic(4))
        assert validate_instance(inst) == []
        assert all(len(cls) == 4 for cls in inst.classes)

    def test_invalid_square_rejected(self):
        with pytest.raises(ValueError):
            latin_to_instance(LatinSquare.from_rows([[0, 1], [0, 1]]))

    def test_instance_to_latin_round_trip(self):
        for n, seed in [(1, 0), (4, 1), (6, 2)]:
            ls = gen_random_latin(n, seed)
            assert instance_to_latin(latin_to_instance(ls)) == ls


class TestTransversalConversion:
    def test_empty(self):
        ls = LatinSquare.from_rows([[0, 1], [1, 0]])
        t = rainbow_to_transversal(ls, make_matching([]))
        assert len(t) == 0

    def test_shared_vertex_rejected(self):
        ls = LatinSquare.from_rows([[0, 1], [1, 0]])
        # a0b0 and a1b0 share row 0; also a0b0/a0b1 share column 0
        with pytest.raises(ValueError):
            rainbow_to_transversal(ls, make_matching([(0, 0, 0), (1, 1, 0)]))
        with pytest.raises(ValueError):
            rainbow_to_transversal(ls, make_matching([(0, 0, 0), (1, 0, 1)]))

    def test_single_entry(self):
        ls = LatinSquare.from_rows([[0, 1], [1, 0]])
        t = rainbow_to_transversal(ls, make_matching([(0, 0, 0)]))
        assert sorted(t.entries) == [(0, 0)]

    def test_wrong_colour_rejected(self):
        ls = LatinSquare.from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            rainbow_to_transversal(ls, make_matching([(1, 0, 0)]))

    def test_round_trip_both_ways(self):
        rng = random.Random(3)
        for n in (2, 3, 4, 5):
            ls = gen_random_latin(n, rng.randrange(1 << 30))
            inst = latin_to_instance(ls)
            r = max_rainbow(inst).best
            t = rainbow_to_transversal(ls, r)
            assert len(t) == len(r)
            assert transversal_to_rainbow(ls, t) == r
            assert rainbow_to_transversal(ls, transversal_to_rainbow(ls, t)) == t

    def test_invalid_transversal_rejected(self):
        ls = gen_cyclic(3)
        # rows distinct, columns distinct, but symbols repeat: (0,0)=0, (1,2)=0
        bad = PartialTransversal(frozenset({(0, 0), (1, 2)}))
        assert not is_partial_transversal(ls, bad)
        with pytest.raises(ValueError):
            transversal_to_rainbow(ls, bad)


class TestGenerators:
    def test_cyclic_small(self):
        assert gen_cyclic(1).cells == ((0,),)
        assert gen_cyclic(2).cells == ((0, 1), (1, 0))

    def test_cyclic_four_has_no_transversal(self):
        # frozen via the direct transversal backtracker; oracle must agree
        ls = gen_cyclic(4)
        assert max_partial_transversal(ls) == 3
        assert len(max_rainbow(latin_to_instance(ls)).best) == 3

    def test_random_latin_valid_for_all_small_orders(self):
        for n in range(1, 8):
            assert validate_latin(gen_random_latin(n, seed=n * 11)) == []

    def test_random_latin_deterministic(self):
        assert gen_random_latin(5, 9) == gen_random_latin(5, 9)

    @settings(max_examples=60, deadline=500)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @example(30, 1)  # a draw that stalls a within-row backtracking search
    def test_random_latin_is_fast_valid_and_seeded(self, n, seed):
        ls = gen_random_latin(n, seed)
        assert validate_latin(ls) == []
        assert gen_random_latin(n, seed) == ls

    def test_random_latin_order_one(self):
        assert gen_random_latin(1, 123).cells == ((0,),)

    def test_oracle_matches_direct_transversal_search(self):
        # the oracle optimum equals the maximum partial transversal at n <= 6
        rng = random.Random(17)
        squares = [gen_cyclic(2), gen_cyclic(4), gen_cyclic(5), gen_cyclic(6)]
        squares += [gen_random_latin(n, rng.randrange(1 << 30)) for n in (3, 4, 5, 6)]
        for ls in squares:
            inst = latin_to_instance(ls)
            assert len(max_rainbow(inst).best) == max_partial_transversal(ls)


class TestTextFormat:
    def test_round_trip(self):
        ls = gen_random_latin(5, 4)
        assert parse_latin_text(format_latin_text(ls)) == ls

    def test_format_shape(self):
        text = format_latin_text(gen_cyclic(2))
        assert text == "2\n0 1\n1 0\n"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_latin_text("")
        with pytest.raises(ValueError):
            parse_latin_text("2\n0 1\n")
        with pytest.raises(ValueError):
            parse_latin_text("2\n0 x\n1 0\n")
