import copy
import hashlib
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import reference_readers as ref
from rainbowbench import core, proofkit
from rainbowbench.core import ColourClass, Instance, free_colour_zero
from rainbowbench.gen import gen_random_instance
from rainbowbench.proofkit import Augmented, Epsilon, run_switch_trace, trace_to_json
from rainbowbench.solver import greedy_rainbow

EPS1 = Epsilon.parse("1")


@lru_cache(maxsize=None)
def tight_traces(count: int) -> tuple[str, ...]:
    """trace_to_json of the first `count` engine runs from greedy starts that fall
    short on tight 8 x 9 instances in a 9 x 9 universe (the trace pin's draws)."""
    out, seed = [], 0
    while len(out) < count:
        inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
        seed += 1
        r = greedy_rainbow(inst, 0)
        if len(r) == 8:
            continue
        inst0, r0, _ = free_colour_zero(inst, r)
        out.append(trace_to_json(run_switch_trace(inst0, r0, EPS1, max_steps=8)))
    return tuple(out)


def outcome(fn, *args):
    """("ok", value) or (exception type name, message); the comparison unit of these tests."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any type: a changed type must show as a difference
        return type(exc).__name__, str(exc)


# --- instance payloads ----------------------------------------------------------

INDEX = st.integers(0, 7)
# a class: distinct pairs, half the time also a matching, so that whole instances
# often pass validation and one fault is the only one to find
MATCHING = st.lists(
    st.tuples(INDEX, INDEX), max_size=6, unique_by=(lambda p: p[0], lambda p: p[1])
)
CLASS_PAIRS = st.one_of(MATCHING, st.lists(st.tuples(INDEX, INDEX), max_size=6, unique=True))


def universe(draw, ends: list[int]) -> int:
    """Mostly the smallest universe size holding every end; sometimes one more or one less."""
    fit = max(ends, default=-1) + 1
    return draw(st.sampled_from([fit, fit, fit + 1, max(fit - 1, 0)]))


@st.composite
def instance_payloads(draw) -> dict:
    """A well-formed Instance JSON object: unsorted distinct pairs per class, possibly
    empty classes, no classes at all, pairs outside the universe and non-matchings."""
    classes = draw(st.lists(CLASS_PAIRS, max_size=5))
    return {
        "n_colours": len(classes),
        "a_size": universe(draw, [a for pairs in classes for a, _ in pairs]),
        "b_size": universe(draw, [b for pairs in classes for _, b in pairs]),
        "classes": [[list(p) for p in pairs] for pairs in classes],
    }


BAD_CELLS = [True, False, 1.0, 2.5, "1", None, [0], {}]
BAD_CLASSES = ["", "01", {}, 0, None, True]


def corrupt_instance(draw, payload: dict, how: str) -> None:
    """Make one malformation of `how` kind in payload, in place."""
    classes = payload["classes"]
    rows = [(c, i) for c, pairs in enumerate(classes) if type(pairs) is list
            for i, row in enumerate(pairs) if type(row) is list and len(row) == 2]
    if how in ("cell", "row_length", "row_not_a_list", "negative", "repeat") and not rows:
        how = "count"
    if how == "cell":
        c, i = draw(st.sampled_from(rows))
        classes[c][i][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_CELLS))
    elif how == "row_length":
        c, i = draw(st.sampled_from(rows))
        row = classes[c][i]
        classes[c][i] = row[:1] if draw(st.booleans()) else row + [0]
    elif how == "row_not_a_list":
        c, i = draw(st.sampled_from(rows))
        classes[c][i] = draw(st.sampled_from(BAD_CLASSES))
    elif how == "negative":
        c, i = draw(st.sampled_from(rows))
        classes[c][i][draw(st.integers(0, 1))] = draw(st.integers(-3, -1))
    elif how == "repeat":
        c, i = draw(st.sampled_from(rows))
        classes[c].insert(draw(st.integers(0, len(classes[c]))), list(classes[c][i]))
    elif how == "class_not_a_list" and classes:
        classes[draw(st.integers(0, len(classes) - 1))] = draw(st.sampled_from(BAD_CLASSES))
    elif how == "negative_size":
        payload[draw(st.sampled_from(["a_size", "b_size"]))] = draw(st.integers(-3, -1))
    elif how == "size_type":
        field = draw(st.sampled_from(["n_colours", "a_size", "b_size"]))
        payload[field] = draw(st.sampled_from(BAD_CELLS))
    elif how == "classes_not_a_list":
        payload["classes"] = draw(st.sampled_from(BAD_CLASSES))
    elif how == "missing_key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif type(payload["n_colours"]) is int:  # count, or a class to replace when there is none
        payload["n_colours"] += draw(st.sampled_from([-1, 1]))


INSTANCE_FAULTS = [
    "cell", "row_length", "row_not_a_list", "negative", "repeat", "class_not_a_list",
    "negative_size", "size_type", "classes_not_a_list", "missing_key", "count",
]


@st.composite
def malformed_instance_payloads(draw) -> dict:
    payload = draw(instance_payloads())
    for how in draw(st.lists(st.sampled_from(INSTANCE_FAULTS), min_size=1, max_size=3)):
        if type(payload.get("classes")) is not list or "n_colours" not in payload:
            break
        corrupt_instance(draw, payload, how)
    return payload


@st.composite
def hand_built_instances(draw) -> Instance:
    """Instances built past make_instance: sorted matchings of which up to two are then
    reversed, given a repeated pair, a shared end or a negative index."""
    classes = [sorted(pairs) for pairs in draw(st.lists(MATCHING, max_size=5))]
    for _ in range(draw(st.integers(0, 2)) if classes else 0):
        pairs = classes[draw(st.integers(0, len(classes) - 1))]
        how = draw(st.sampled_from(["reverse", "repeat", "share", "negative"]))
        if how == "reverse":
            pairs.reverse()
        elif pairs:
            i = draw(st.integers(0, len(pairs) - 1))
            a, b = pairs[i]
            if how == "repeat":
                pairs.insert(i, (a, b))
            elif how == "share":  # one end of a new pair at the end of pair i
                other = draw(INDEX)
                pairs.append((a, other) if draw(st.booleans()) else (other, b))
                pairs.sort()
            elif draw(st.booleans()):
                pairs[i] = (a, -1 - b)
            else:  # on the lowest A-end, so that the class stays sorted
                pairs[0] = (-1 - pairs[0][0], pairs[0][1])
    return Instance(
        tuple(ColourClass(tuple(pairs)) for pairs in classes),
        universe(draw, [a for pairs in classes for a, _ in pairs]),
        universe(draw, [b for pairs in classes for _, b in pairs]),
    )


class TestInstanceReader:
    @given(instance_payloads())
    def test_valid_payload_reads_as_the_reference(self, payload):
        inst = core.instance_from_payload(copy.deepcopy(payload))
        assert inst == ref.instance_from_payload(payload)
        assert core.validate_instance(inst) == ref.validate_instance(inst)

    @given(malformed_instance_payloads())
    def test_malformed_payload_fails_as_the_reference(self, payload):
        got = outcome(core.instance_from_payload, copy.deepcopy(payload))
        assert got == outcome(ref.instance_from_payload, payload)
        if got[0] == "ok":
            assert core.validate_instance(got[1]) == ref.validate_instance(got[1])

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n_colours": 1, "a_size": 2, "b_size": 2, "classes": [[[0, -2], [-1, 0]]]},
             "vertex index must be non-negative, got -2"),
            ({"n_colours": 1, "a_size": -1, "b_size": 2, "classes": [[[0, 0]]]},
             "universe size must be non-negative, got -1 x 2"),
            ({"n_colours": 1, "a_size": 2, "b_size": 2, "classes": [[[0, 0]], [[1, 1]]]},
             "instance JSON declares 1 colours but lists 2 classes"),
            ({"n_colours": 2, "a_size": 2, "b_size": 2, "classes": [[[0, 0], [0, 0]], "x"]},
             "malformed instance JSON: expected an array, got 'x'"),
            ({"n_colours": 2, "a_size": 2, "b_size": 2, "classes": [[[0, 0], [0, 0]], [[1]]]},
             "malformed instance JSON: expected an array of 2 integers, got [1]"),
            ({"n_colours": 2, "a_size": 2, "b_size": 2, "classes": [[[0, 0]], [[1, 1], [1, 1]]]},
             "malformed instance JSON: colour 1: repeated pair [1, 1]"),
            ({"n_colours": 2, "a_size": 2, "b_size": 2, "classes": [[[0, 0]], [[1, 1], 7]]},
             "malformed instance JSON: expected an array of 2 integers, got 7"),
            ({"n_colours": 2, "a_size": 2, "b_size": 2, "classes": [[[0, 0]], [None, [1]]]},
             "malformed instance JSON: expected an array of 2 integers, got None"),
        ],
        ids=["negative-index", "negative-size", "count", "class-not-a-list", "short-row",
             "repeated-pair", "int-row", "null-row"],
    )
    def test_message_of_each_fault(self, payload, message):
        # the first fault in reading order is named, as the per-row reader named it
        assert outcome(core.instance_from_payload, payload) == ("ValueError", message)
        assert outcome(ref.instance_from_payload, payload) == ("ValueError", message)

    @settings(max_examples=400)
    @given(hand_built_instances())
    def test_violations_are_the_reference_list(self, inst):
        assert core.validate_instance(inst) == ref.validate_instance(inst)

    def test_violations_of_a_failing_class_keep_their_order(self):
        # a valid class, then one that is unsorted, repeats a pair, shares
        # both ends and leaves the universe: every pair is named, in order
        inst = Instance(
            (ColourClass(((0, 0), (1, 1))), ColourClass(((2, 5), (0, 0), (0, 5), (0, 5)))), 2, 2
        )
        assert [str(v) for v in core.validate_instance(inst)] == [
            "colour 1 pairs are not sorted and distinct",
            "colour 1 edge a2b5: a2 outside universe of size 2",
            "colour 1 edge a2b5: b5 outside universe of size 2",
            "colour 1 is not a matching: a0b0 and a0b5 share a0",
            "colour 1 is not a matching: a2b5 and a0b5 share b5",
            "colour 1 edge a0b5: b5 outside universe of size 2",
            "colour 1 is not a matching: a0b0 and a0b5 share a0",
            "colour 1 is not a matching: a2b5 and a0b5 share b5",
            "colour 1 edge a0b5: b5 outside universe of size 2",
        ]
        assert core.validate_instance(inst) == ref.validate_instance(inst)


def ref_valid_instance(payload: object) -> Instance:
    """The reference reader, then the reference validation, as a trace's instance was read."""
    inst = ref.instance_from_payload(payload)
    violations = ref.validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(map(str, violations)))
    return inst


def assert_valid_read_as_the_reference(payload) -> None:
    got = outcome(core.valid_instance_from_payload, copy.deepcopy(payload))
    assert got == outcome(ref_valid_instance, payload)


def well_typed(classes: list, a_size: int = 3, b_size: int = 3) -> dict:
    return {"n_colours": len(classes), "a_size": a_size, "b_size": b_size, "classes": classes}


class TestValidInstanceReader:
    @given(instance_payloads())
    def test_payload_reads_as_the_reference(self, payload):
        assert_valid_read_as_the_reference(payload)

    @given(malformed_instance_payloads())
    def test_malformed_payload_fails_as_the_reference(self, payload):
        assert_valid_read_as_the_reference(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            well_typed([[[0, 1], [1, 2]], [], [[2, 0]]]),
            well_typed([]),
            well_typed([], a_size=0, b_size=0),
            well_typed([[[1, 2], [0, 1]]]),
            well_typed([[[0, 1], [0, 1]]]),
            well_typed([[[0, 1], [1, 1], [1, 1]]]),
            well_typed([[[0, 1], [0, 2]]]),
            well_typed([[[0, 1], [2, 1]]]),
            well_typed([[[0, 1], [3, 2]]]),
            well_typed([[[0, 3]], [[0, 0]]]),
            well_typed([[[0, 1]]], a_size=0),
            well_typed([], a_size=-1),
            well_typed([[[0, 0]], [[1, 1]]]) | {"n_colours": 1},
            well_typed([[[2**64, 0]]], a_size=2**65),
        ],
        ids=["valid", "no-classes", "empty-universe", "unsorted", "repeated-pair",
             "repeated-unsorted", "shared-a", "shared-b", "outside-a", "outside-b-later",
             "outside-empty-universe", "negative-size", "count", "huge"],
    )
    def test_well_typed_payload_reads_as_the_reference(self, payload):
        assert_valid_read_as_the_reference(payload)

    def test_writer_output_takes_the_whole_array_path(self):
        # instances the writer emits, valid ones, need no second read
        for text in tight_traces(10):
            payload = json.loads(text)["instance"]
            inst = core._read_valid_instance(payload)
            assert inst is not None and inst == ref_valid_instance(payload)


# --- state payloads -------------------------------------------------------------


@lru_cache(maxsize=None)
def state_payloads() -> tuple[tuple[str, str], ...]:
    """(instance JSON, state JSON) for every state of the first tight traces that extend
    their base, so that most states have pools to corrupt."""
    out = []
    for text in tight_traces(40):
        payload = json.loads(text)
        extended = [step["state"] for step in payload["steps"] if step["kind"] == "extended"]
        if extended:
            instance = json.dumps(payload["instance"])
            out += [(instance, json.dumps(state)) for state in [payload["base_state"], *extended]]
    return tuple(out)


STATE_ARRAYS = ["r", "e_seq", "g_seq", "x_sets", "y_sets"]
STATE_FAULTS = ["cell", "row_length", "negative", "repeat", "not_a_list", "value"]


def corrupt_state(draw, state: dict, name: str, how: str) -> None:
    """Make one malformation of `how` kind in the array `name` of a state payload, in place."""
    pools = name in ("x_sets", "y_sets")
    if how == "not_a_list" or type(state[name]) is not list:
        state[name] = draw(st.sampled_from(BAD_CLASSES))
        return
    rows = state[name]
    if not rows:  # the base state's sequences and pools are empty
        rows.append([] if pools else [0, 0, 0])
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if type(row) is not list:
        rows[i] = draw(st.sampled_from(BAD_CLASSES))
    elif how == "repeat":
        if row and pools:
            row.insert(draw(st.integers(0, len(row))), row[draw(st.integers(0, len(row) - 1))])
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(row))
    elif how == "row_length":
        if pools:
            rows[i] = draw(st.sampled_from(BAD_CLASSES))
        else:
            rows[i] = row[:draw(st.integers(0, 2))] if draw(st.booleans()) else row + [0]
    else:
        if how == "negative":
            value = draw(st.integers(-3, -1))
        elif how == "cell":
            value = draw(st.sampled_from(BAD_CELLS))
        else:  # a value that keeps the types: the engine checks judge it
            value = draw(st.integers(0, 9))
        if not row:
            row.append(value)
        else:
            row[draw(st.integers(0, len(row) - 1))] = value


@st.composite
def read_states(draw, faults) -> tuple[Instance, dict]:
    """A state of a tight trace and its instance, with the faults made in turn."""
    instance, state = draw(st.sampled_from(state_payloads()))
    state = json.loads(state)
    for name, how in faults:
        corrupt_state(draw, state, name, how)
    if draw(st.booleans()) and faults:
        del state[draw(st.sampled_from(sorted(state)))]
    return core.instance_from_payload(json.loads(instance)), state


FAULT_LISTS = st.lists(
    st.tuples(st.sampled_from(STATE_ARRAYS), st.sampled_from(STATE_FAULTS)), max_size=3
)


def assert_state_reads_as_the_reference(inst: Instance, state: dict) -> None:
    got = outcome(proofkit._state_from_payload, inst, copy.deepcopy(state))
    assert got == outcome(ref.state_from_payload, inst, state)


class TestStateReader:
    @pytest.mark.parametrize("how", STATE_FAULTS)
    @pytest.mark.parametrize("name", STATE_ARRAYS)
    @settings(max_examples=25)  # 30 cases, each aimed at one check
    @given(data=st.data())
    def test_each_fault_reads_as_the_reference(self, name, how, data):
        assert_state_reads_as_the_reference(*data.draw(read_states([(name, how)])))

    @given(data=st.data())
    def test_faults_together_read_as_the_reference(self, data):
        # the first fault in reading order is the one named
        assert_state_reads_as_the_reference(*data.draw(read_states(data.draw(FAULT_LISTS))))

    def test_unchanged_states_read_as_the_reference(self):
        for instance, state in state_payloads():
            inst = core.instance_from_payload(json.loads(instance))
            got = proofkit._state_from_payload(inst, json.loads(state))
            assert got == ref.state_from_payload(inst, json.loads(state))

    def test_a_step_with_the_bases_r_reads_as_the_reference(self):
        shared = 0
        for text in tight_traces(40):
            payload = json.loads(text)
            inst = core.instance_from_payload(payload["instance"])
            base = proofkit._state_from_payload(inst, payload["base_state"])
            for step in payload["steps"]:
                if step["kind"] == "extended":
                    state = proofkit._state_from_payload(inst, copy.deepcopy(step["state"]))
                    assert state == ref.state_from_payload(inst, step["state"])
                    assert state.r == base.r
                    shared += 1
        assert shared >= 10

    def test_a_negative_colour_in_pi_is_read(self):
        # no reader tests a colour's sign: the engine's checks judge it (corrupt_state
        # draws negative colours in r, e_seq and g_seq, but never touches pi)
        read = 0
        for instance, text in state_payloads():
            state = json.loads(text)
            if state["k"]:
                inst = core.instance_from_payload(json.loads(instance))
                state["pi"][-1] = -1
                got = proofkit._state_from_payload(inst, copy.deepcopy(state))
                assert got == ref.state_from_payload(inst, state)
                read += 1
        assert read >= 10

    def test_a_step_r_with_one_row_changed_breaks_the_chain(self):
        payload, state = first_extended_step()
        # a row outside e_seq takes another row's colour: r stays structurally sound
        i = next(i for i, row in enumerate(state["r"]) if row not in state["e_seq"])
        state["r"][i][0] = state["r"][i - 1][0]
        failures = proofkit.verify_trace_json(json.dumps(payload))
        assert "step 0: chain broken: r differs from the base state's" in failures

    @pytest.mark.parametrize("convert", [float, bool])
    def test_a_step_r_equal_to_the_bases_but_for_json_types_is_malformed(self, convert):
        # [1.0] == [1] and [True] == [1]: the integer test must come before the comparison
        payload, state = first_extended_step()
        row = next(row for row in state["r"] if {0, 1} & set(row))
        j = next(j for j, v in enumerate(row) if v in (0, 1))
        row[j] = convert(row[j])
        with pytest.raises(ValueError, match=r"malformed trace JSON: step 0: expected an array "
                                             r"of 3 integers, got \["):
            proofkit.verify_trace_json(json.dumps(payload))

    @given(
        st.lists(
            st.one_of(
                st.lists(st.integers(-2, 4), min_size=3, max_size=3),
                st.sampled_from([[0, 1], [0, 1, 2, 3], [0, True, 1], [0, 1, 1.0], "012", None]),
            ),
            max_size=5,
        )
    )
    def test_augmented_matching_reads_as_the_reference(self, rows):
        step = {"kind": "augmented", "matching": rows}
        got = outcome(proofkit._step_from_payload, None, copy.deepcopy(step))
        want = outcome(ref.matching_from_rows, rows)
        if want[0] == "ok":
            assert got == ("ok", (Augmented(want[1]), None))
        else:
            assert got == want


def first_extended_step() -> tuple[dict, dict]:
    """The first tight trace whose step 0 is extended, and that step's state, decoded."""
    for text in tight_traces(40):
        payload = json.loads(text)
        if payload["steps"] and payload["steps"][0]["kind"] == "extended":
            assert payload["steps"][0]["state"]["r"] == payload["base_state"]["r"]
            return payload, payload["steps"][0]["state"]
    raise AssertionError("no tight trace extends its base")


# --- outcome pin ----------------------------------------------------------------


def nodes(value, out: list) -> list:
    """(container, key) of every node below value, depth first."""
    items = enumerate(value) if type(value) is list else value.items()
    for key, child in list(items):
        out.append((value, key))
        if type(child) in (list, dict):
            nodes(child, out)
    return out


def new_value(rng: random.Random, old, payload: dict):
    pool = [-1, 0, 1, 2, 8, 9, 10, True, False, 1.0, 2.5, "1", "", None, [], {}, [0, 0], [0, 0, 0]]
    if type(old) is int:
        pool += [old - 1, old + 1]
    pool.append(copy.deepcopy(old))
    container, key = rng.choice(nodes(payload, []))
    pool.append(copy.deepcopy(container[key]))
    return rng.choice(pool)


def mutate(rng: random.Random, payload: dict) -> str:
    """Replace, insert or delete one node of payload, in place; the operation's name.

    The node is drawn from one part chosen first (the instance, the base state,
    a step or a top-level field), so the instance's many cells do not crowd out
    the states'.
    """
    part = rng.choice([payload["instance"], payload["base_state"], *payload["steps"], None])
    targets = [(payload, key) for key in payload] if part is None else nodes(part, [])
    container, key = rng.choice(targets)
    op = rng.choice(["replace", "insert", "delete"])
    if op == "replace":
        container[key] = new_value(rng, container[key], payload)
    elif op == "insert" and type(container) is list:
        container.insert(rng.randint(0, len(container)), new_value(rng, container[key], payload))
    elif op == "insert":
        container[rng.choice(["extra", "kind", "P1", "state", "matching"])] = new_value(
            rng, container[key], payload
        )
    else:
        del container[key]
    return op


class TestCheckerOutcomePin:
    def test_outcomes_of_mutated_traces_are_pinned(self):
        # sha256 over verify_trace_json's outcome (its failure list, or the
        # ValueError text) for 2,000 seeded one-node mutations of tight traces;
        # recorded before the readers tested whole arrays first, and again when
        # the report check took JSON types into account, which changed mutation
        # 537 alone (P2's "ok": true replaced by 1, from [] to a report failure).
        # Nothing but ValueError may escape the checker.
        rng = random.Random(2014)
        traces = tight_traces(40)
        digest = hashlib.sha256()
        kinds = {"failures": 0, "error": 0, "ok": 0}
        for i in range(2000):
            payload = json.loads(traces[i % len(traces)])
            op = mutate(rng, payload)
            try:
                failures = proofkit.verify_trace_json(json.dumps(payload))
                line = json.dumps(failures)
                kinds["failures" if failures else "ok"] += 1
            except ValueError as exc:
                line = f"ValueError: {exc}"
                kinds["error"] += 1
            digest.update(f"{op} {line}\n".encode())
        assert min(kinds.values()) >= 100, kinds
        assert digest.hexdigest() == (
            "95f2d5d162e2abad5c2cf498c946eac1a433c3ab19bb69f72d2d358b2982d20f"
        )
