import json
import random

import pytest
from hypothesis import given, strategies as st

from rainbowbench.core import (
    ColouredEdge,
    Edge,
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
