import hashlib
import json
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from rainbowbench.core import (
    ColourClass,
    ColouredEdge,
    Edge,
    Instance,
    Side,
    Vertex,
    canonical_json,
    free_colour_zero,
    instance_from_json,
    instance_to_json,
    is_rainbow,
    make_instance,
    make_matching,
    matching_from_json,
    matching_rows,
    matching_to_json,
    neighbourhood_along,
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

    def test_negative_universe_size_rejected_on_construction(self):
        for a_size, b_size in ((-3, -3), (1, -1), (-1, None)):
            with pytest.raises(ValueError, match="universe size must be non-negative"):
                make_instance([[(0, 0)]], a_size=a_size, b_size=b_size)
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            instance_from_json('{"n_colours": 1, "a_size": -3, "b_size": -3, "classes": [[]]}')

    def test_negative_index_in_hand_built_class_is_flagged(self):
        inst = Instance((ColourClass(((-1, 0),)), ColourClass(((0, -2),))), 2, 2)
        violations = validate_instance(inst)
        assert [(v.code, v.colour) for v in violations] == [
            ("vertex_out_of_range", 0),
            ("vertex_out_of_range", 1),
        ]
        assert violations[0].message == "colour 0 edge a-1b0: a-1 outside universe of size 2"

    def test_violation_messages_are_pinned(self):
        # a vertex met three times: both later edges are named against the first
        cases = [
            ([(0, 0), (0, 1), (0, 2)], "colour 0 is not a matching: a0b0 and a0b{} share a0"),
            ([(0, 1), (1, 1), (2, 1)], "colour 0 is not a matching: a0b1 and a{}b1 share b1"),
        ]
        for pairs, template in cases:
            messages = [v.message for v in validate_instance(make_instance([pairs]))]
            assert messages == [template.format(1), template.format(2)]
        inst = make_instance([[(0, 5), (7, 1)]], a_size=3, b_size=3)
        assert [(v.code, v.message) for v in validate_instance(inst)] == [
            ("vertex_out_of_range", "colour 0 edge a0b5: b5 outside universe of size 3"),
            ("vertex_out_of_range", "colour 0 edge a7b1: a7 outside universe of size 3"),
        ]
        inst = Instance((ColourClass(((2, 2),)), ColourClass(((1, 1), (0, 0)))), 3, 3)
        assert [(v.code, v.colour, v.message) for v in validate_instance(inst)] == [
            ("unsorted_pairs", 1, "colour 1 pairs are not sorted and distinct"),
        ]

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
        x = {va(a) for _, a, _ in r.triples}
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
        # a string or object is not an empty array of classes
        for classes in ('""', "{}"):
            text = f'{{"n_colours": 0, "a_size": 1, "b_size": 1, "classes": {classes}}}'
            with pytest.raises(ValueError, match="expected an array"):
                instance_from_json(text)

    def test_matching_rows_must_be_integer_arrays(self):
        # a string row must not be unpacked character by character ("045" as a4b5@0)
        for text in ('["045"]', "[[0, 1, 2.5]]", "[[true, 1, 2]]", '[["0", 1, 2]]', "[[0, 1]]", "7"):
            with pytest.raises(ValueError, match="malformed matching JSON"):
                matching_from_json(text)

    @pytest.mark.parametrize(
        "bad", [[1, 2], [1, 2, 3, 4], [1, True, 2], [1, 2.0, 3], "123", 7, None],
        ids=["short", "long", "bool", "float", "str", "int", "null"],
    )
    def test_first_row_at_fault_is_named(self, bad):
        # the whole-array checks fail together; the message names the first bad row
        rows = [[0, 0, 0], bad, [1, 1, "1"]]
        with pytest.raises(ValueError) as info:
            matching_rows(rows)
        assert str(info.value) == f"expected an array of 3 integers, got {bad!r}"

    def test_repeated_matching_row_rejected(self):
        # a repeated row is malformed, not a smaller matching
        with pytest.raises(ValueError, match=r"malformed matching JSON: repeated row \[0, 1, 1\]"):
            matching_from_json("[[0, 1, 1], [0, 1, 1]]")

    def test_late_repeat_among_many_rows_is_rejected_in_linear_time(self):
        # a scan of every row's predecessors takes minutes on 10**5 rows
        rows = [[i, i, i] for i in range(199_999)] + [[7, 7, 7]]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^repeated row \[7, 7, 7\]$"):
            matching_rows(rows)
        assert time.perf_counter() - start < 1

    def test_first_repeat_is_named(self):
        with pytest.raises(ValueError, match=r"^repeated row \[2, 2, 2\]$"):
            matching_rows([[1, 1, 1], [2, 2, 2], [3, 3, 3], [2, 2, 2], [1, 1, 1]])

    def test_repeated_instance_pair_rejected(self):
        # a repeated pair is malformed, not a smaller class
        text = '{"n_colours": 1, "a_size": 1, "b_size": 1, "classes": [[[0, 0], [0, 0]]]}'
        with pytest.raises(
            ValueError, match=r"malformed instance JSON: colour 0: repeated pair \[0, 0\]"
        ):
            instance_from_json(text)
        # library callers still get the distinct pairs
        assert make_instance([[(0, 0), (0, 0)]]).classes[0].pairs == ((0, 0),)

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


JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/[]{},: \n\t\r\x00\x1f\x7f\u00e9\u2603\U0001f600\ud800'),
        st.characters(),
    ),
    max_size=12,
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | JSON_TEXT
)
JSON_ROWS = st.lists(
    st.one_of(st.integers(), st.lists(st.integers(), max_size=4)), max_size=5
) | st.lists(st.lists(st.integers(min_value=-9, max_value=99), min_size=3, max_size=3), max_size=5)
# lists of int rows, as an instance's classes: equal or ragged widths, empty
# blocks and rows, and bool leaves, which the integer layout must not print as ints
JSON_BLOCKS = st.lists(
    st.integers(0, 3).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(), min_size=width, max_size=width), max_size=4
        )
    )
    | st.lists(st.lists(st.integers() | st.booleans(), max_size=3), max_size=4),
    max_size=4,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | JSON_ROWS | JSON_BLOCKS,
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(JSON_TEXT, children, max_size=4)
    ),
    max_leaves=25,
)


class TestCanonicalJson:
    @given(JSON_VALUES)
    @example([])
    @example({})
    @example([[]])
    @example([[], [1]])
    @example([[1, 2], [3]])
    @example([[1, 2], 3])
    @example([[True, 1], [0, 1]])
    @example({"a": [[0, 1, 2], [3, 4, 5]], "b": {"c": [], "d": [{}]}, "e": [None, False]})
    @example([[[0, 1]], []])
    @example([[[0, 1]], [[2, 3], [4, 5]]])
    @example([[[True, 1]]])
    @example([[[0, 1]], [[2]]])
    def test_matches_json_dumps_indent_2(self, obj):
        assert canonical_json(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [1.5, (1, 2), {1, 2}, [[1, 2.0]], [[0, 1], (2, 3)], {"a": {0}}, {1: "a"}],
        ids=["float", "tuple", "set", "float-in-row", "tuple-row", "set-in-dict", "int-key"],
    )
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            canonical_json(obj)


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
