import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from rainbowbench.core import (
    ColourClass,
    ColouredEdge,
    Edge,
    Instance,
    RainbowMatching,
    Side,
    Vertex,
    free_colour_zero,
    instance_from_json,
    instance_to_json,
    is_rainbow,
    make_instance,
    make_matching,
    matching_from_json,
    matching_to_json,
    neighbourhood_along,
    saturated_sets,
    swap_colours,
    validate_instance,
    va,
    vb,
)
from rainbowbench.gen import gen_random_instance


def ce(colour, a, b):
    return ColouredEdge.of(colour, a, b)


class TestTypes:
    def test_vertex_equality_is_side_and_index(self):
        assert va(3) == Vertex(Side.A, 3)
        assert va(3) != vb(3)

    def test_edge_rejects_wrong_sides(self):
        with pytest.raises(ValueError):
            Edge(vb(0), vb(1))
        with pytest.raises(ValueError):
            Edge(va(0), va(1))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            va(-1)


class TestValidateInstance:
    def test_shared_vertex_in_class(self):
        inst = make_instance([[(0, 0), (0, 1)]])
        violations = validate_instance(inst)
        assert violations
        assert violations[0].code == "not_a_matching"
        assert violations[0].colour == 0

    def test_single_valid_edge(self):
        inst = make_instance([[(0, 0)]])
        assert validate_instance(inst) == []

    def test_out_of_universe_vertex(self):
        inst = make_instance([[(0, 5)]], a_size=1, b_size=3)
        violations = validate_instance(inst)
        assert [v.code for v in violations] == ["vertex_out_of_range"]

    def test_parallel_edges_across_classes_allowed(self):
        inst = make_instance([[(0, 0)], [(0, 0)]])
        assert validate_instance(inst) == []

    def test_negative_index_rejected_on_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_instance([[(0, 0), (1, -1)]])
        with pytest.raises(ValueError, match="non-negative"):
            instance_from_json('{"n_colours": 1, "a_size": 2, "b_size": 2, "classes": [[[-1, 0]]]}')

    def test_negative_index_in_hand_built_class_is_flagged(self):
        inst = Instance((ColourClass(((-1, 0),)), ColourClass(((0, -2),))), 2, 2)
        violations = validate_instance(inst)
        assert [(v.code, v.colour) for v in violations] == [
            ("vertex_out_of_range", 0),
            ("vertex_out_of_range", 1),
        ]
        assert violations[0].message == "colour 0 edge a-1b0: a-1 outside universe of size 2"

    def test_hand_built_class_must_be_sorted_and_distinct(self):
        for pairs in (((1, 1), (0, 0)), ((0, 0), (0, 0))):
            inst = Instance((ColourClass(((2, 2),)), ColourClass(pairs)), 3, 3)
            assert ("unsorted_pairs", 1) in [(v.code, v.colour) for v in validate_instance(inst)]


class TestIsRainbow:
    def test_disjoint_distinct_colours(self):
        assert is_rainbow({ce(0, 0, 0), ce(1, 1, 1)})

    def test_shared_a_vertex(self):
        assert not is_rainbow({ce(0, 0, 0), ce(1, 0, 1)})

    def test_repeated_colour(self):
        assert not is_rainbow({ce(0, 0, 0), ce(0, 1, 1)})


class TestSaturatedSets:
    def test_empty(self):
        assert saturated_sets(RainbowMatching.empty()) == (frozenset(), frozenset())

    def test_single_edge(self):
        x, y = saturated_sets(make_matching([(0, 0, 1)]))
        assert x == {va(0)} and y == {vb(1)}

    def test_projection(self):
        x, y = saturated_sets(make_matching([(0, 0, 0), (1, 2, 3)]))
        assert x == {va(0), va(2)}
        assert y == {vb(0), vb(3)}


class TestNeighbourhoodAlong:
    def test_matched_pair(self):
        r = make_matching([(0, 0, 5)])
        assert neighbourhood_along(r, {va(0)}) == {vb(5)}

    def test_unmatched_query(self):
        r = make_matching([(0, 0, 5)])
        assert neighbourhood_along(r, {va(1)}) == frozenset()

    def test_projection_through_matching(self):
        r = make_matching([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        assert neighbourhood_along(r, {va(0), va(2)}) == {vb(0), vb(2)}

    def test_b_side_query_gives_partners(self):
        r = make_matching([(0, 0, 5)])
        assert neighbourhood_along(r, {vb(5)}) == {va(0)}


@st.composite
def matchings(draw):
    size = draw(st.integers(0, 6))
    a_idx = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size, unique=True))
    b_idx = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size, unique=True))
    colours = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size, unique=True))
    return make_matching(zip(colours, a_idx, b_idx))


class TestMatchingProperties:
    @given(matchings())
    def test_saturated_sets_sizes_match(self, r):
        assert is_rainbow(r)
        x, y = saturated_sets(r)
        assert len(x) == len(r) == len(y)

    @given(matchings(), st.sets(st.integers(0, 15)), st.sets(st.integers(0, 15)))
    def test_neighbourhood_distributes_over_union(self, r, s1, s2):
        q1 = {va(i) for i in s1}
        q2 = {va(i) for i in s2}
        assert neighbourhood_along(r, q1 | q2) == (
            neighbourhood_along(r, q1) | neighbourhood_along(r, q2)
        )

    @given(matchings(), st.sets(st.integers(0, 15)))
    def test_neighbourhood_is_bijective_on_saturated(self, r, s):
        q = {va(i) for i in s}
        x, _ = saturated_sets(r)
        assert len(neighbourhood_along(r, q)) == len(q & x)


class TestColourRelabelling:
    def test_swap_colours_round_trip(self):
        inst = make_instance([[(0, 0)], [(1, 1)], [(2, 2)]])
        swapped = swap_colours(inst, 0, 2)
        assert swapped.class_pairs(0) == [(2, 2)]
        assert swap_colours(swapped, 0, 2) == inst

    def test_free_colour_zero(self):
        inst = make_instance([[(0, 0)], [(1, 1)], [(2, 2)]])
        r = make_matching([(0, 0, 0), (1, 1, 1)])
        inst2, r2, c = free_colour_zero(inst, r)
        assert c == 2
        assert 0 not in r2.colours()
        assert is_rainbow(r2)
        for edge in r2:
            assert edge.edge in inst2.class_edges(edge.colour)


class TestJsonFormats:
    def test_instance_round_trip_bit_exact(self):
        inst = make_instance([[(1, 0), (0, 1)], [(2, 2)]], a_size=5, b_size=5)
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again == inst
        assert instance_to_json(again) == text

    def test_classes_serialized_sorted(self):
        inst = make_instance([[(3, 3), (0, 0), (1, 2)]])
        payload = json.loads(instance_to_json(inst))
        assert payload["classes"][0] == [[0, 0], [1, 2], [3, 3]]
        assert list(payload) == ["n_colours", "a_size", "b_size", "classes"]

    def test_matching_round_trip_sorted_by_colour(self):
        r = make_matching([(2, 5, 5), (0, 1, 1), (1, 3, 2)])
        text = matching_to_json(r)
        assert json.loads(text) == [[0, 1, 1], [1, 3, 2], [2, 5, 5]]
        assert matching_from_json(text) == r

    def test_malformed_instance_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json("not json")
        with pytest.raises(ValueError):
            instance_from_json('{"n_colours": 2, "a_size": 1, "b_size": 1, "classes": [[]]}')

    def test_matching_rows_must_be_integer_arrays(self):
        # a string row must not be unpacked character by character ("045" as a4b5@0)
        for text in ('["045"]', "[[0, 1, 2.5]]", "[[true, 1, 2]]", '[["0", 1, 2]]', "[[0, 1]]", "7"):
            with pytest.raises(ValueError, match="malformed matching JSON"):
                matching_from_json(text)

    def test_repeated_matching_row_rejected(self):
        # a repeated row is malformed, not a smaller matching
        with pytest.raises(ValueError, match=r"malformed matching JSON: repeated row \[0, 1, 1\]"):
            matching_from_json("[[0, 1, 1], [0, 1, 1]]")

    def test_instance_rows_must_be_integer_arrays(self):
        # ["01", [1.9, true]] must not be read as the edges a0b1 and a1b1
        for classes in ('[["01", [1.9, true]]]', "[[[0, 1.0]]]", "[[[0, 1, 2]]]", '{"0": []}'):
            text = f'{{"n_colours": 1, "a_size": 2, "b_size": 2, "classes": {classes}}}'
            with pytest.raises(ValueError, match="malformed instance JSON"):
                instance_from_json(text)

    @pytest.mark.parametrize(
        "field, value", [("n_colours", True), ("a_size", 2.9), ("b_size", "2")],
        ids=["n_colours", "a_size", "b_size"],
    )
    def test_instance_sizes_must_be_integers(self, field, value):
        # int() would read each value as a size of 1 or 2, and the instance would load
        payload = {"n_colours": 1, "a_size": 2, "b_size": 2, "classes": [[[0, 0]]]}
        payload[field] = value
        with pytest.raises(ValueError, match="malformed instance JSON: expected an integer"):
            instance_from_json(json.dumps(payload))

    def test_random_instances_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            classes = []
            for _ in range(n):
                size = rng.randint(0, 4)
                a_part = rng.sample(range(10), size)
                b_part = rng.sample(range(10), size)
                classes.append(list(zip(a_part, b_part)))
            inst = make_instance(classes, a_size=10, b_size=10)
            assert instance_from_json(instance_to_json(inst)) == inst


class TestRepresentationPin:
    def test_instances_and_violations_are_pinned(self):
        # sha256 over canonical instance JSON and the (code, colour, message)
        # of every violation, for each instance, its swap_colours image and
        # its free_colour_zero image; recorded while classes were stored as
        # frozensets of Edge objects, so a change of class storage that
        # changes any output fails here
        digest = hashlib.sha256()

        def record(inst):
            digest.update(instance_to_json(inst).encode())
            for v in validate_instance(inst):
                digest.update(f"{v.code}|{v.colour}|{v.message};".encode())

        rng = random.Random(2016)
        instances = [
            gen_random_instance(rng.randint(1, 7), rng.randint(1, 6), seed=rng.getrandbits(32))
            for _ in range(300)
        ]
        instances += [
            make_instance([[(0, 0), (0, 1)], [(1, 1), (2, 1)]]),  # shared vertices
            make_instance([[(0, 5), (7, 1)], [(2, 2)]], a_size=3, b_size=3),  # out of range
            make_instance([[(1, 1), (1, 1), (0, 2)], [(2, 0), (2, 0)]]),  # duplicate pairs
            make_instance([[(3, 0), (0, 3), (1, 1)], [(2, 2), (0, 1)]]),  # unsorted input
        ]
        for _ in range(100):  # raw random pairs: shared vertices, small universes
            instances.append(
                make_instance(
                    [
                        [(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 4))]
                        for _ in range(rng.randint(1, 5))
                    ],
                    a_size=rng.choice([None, 3, 6]),
                    b_size=rng.choice([None, 4, 6]),
                )
            )
        for inst in instances:
            record(inst)
            n = inst.n_colours
            record(swap_colours(inst, rng.randrange(n), rng.randrange(n)))
            pairs = inst.class_pairs(0)
            if not pairs:
                continue
            try:
                inst2, r2, c = free_colour_zero(inst, make_matching([(0, *pairs[0])]))
            except ValueError:
                digest.update(b"full;")
                continue
            record(inst2)
            digest.update(f"{c}|{matching_to_json(r2)};".encode())
        assert digest.hexdigest() == (
            "631d4f23b3596567b918d746aaf93bfb651a87074b2ee24620fcbf69ef143a5d"
        )
