import json
import random
from dataclasses import replace

import pytest

from stateforge import StateForge, random_forge
from rainbowbench.core import (
    ColouredEdge,
    free_colour_zero,
    instance_from_json,
    is_rainbow,
    make_instance,
    make_matching,
    saturated_sets,
    va,
    vb,
)
from rainbowbench.proofkit import (
    Augmented,
    ChainError,
    Epsilon,
    Extended,
    Mode,
    PigeonholeFailure,
    SwitchState,
    ThresholdInfeasible,
    Trace,
    claim1_switch,
    claim2_switch,
    claim3_switch,
    colour_chain,
    construct_N0,
    construct_Nk,
    extend_state,
    initial_state,
    pigeonhole_select,
    run_switch_trace,
    smallest_t,
    state_violations,
    step_outcomes,
    trace_to_json,
    verify_properties,
    verify_trace_json,
)
from rainbowbench import proofkit
from rainbowbench.gen import gen_random_instance
from rainbowbench.oracle import max_rainbow
from rainbowbench.solver import greedy_rainbow

EPS1 = Epsilon.parse("1")


def worked_claim1_state() -> SwitchState:
    """k=1 on two colours: r = {a1b1@1}, e_1 = a1b1, g_1 = a2b1 in class 0."""
    inst = make_instance([[(2, 1)], [(1, 1), (3, 2)]], a_size=4, b_size=3)
    return SwitchState(
        inst=inst,
        r=make_matching([(1, 1, 1)]),
        eps=EPS1,
        t=1,
        k=1,
        e_seq=(ColouredEdge.of(1, 1, 1),),
        g_seq=(ColouredEdge.of(0, 2, 1),),
        x_sets=(frozenset(),),
        y_sets=(frozenset(),),
        pi=(0, 1),
    )


class TestVerifyProperties:
    def test_worked_state_passes_all_seven(self):
        report = verify_properties(worked_claim1_state())
        assert report.all_ok

    def test_recoloured_g_fails_p2(self):
        st = worked_claim1_state()
        bad = replace(st, g_seq=(ColouredEdge.of(1, 2, 1),))
        report = verify_properties(bad)
        assert report.failed() == ("P2",)
        assert "g_1" in report["P2"].witness

    def test_y1_containing_y1_fails_p3(self):
        st = worked_claim1_state()
        bad = replace(st, y_sets=(frozenset({vb(1)}),))
        report = verify_properties(bad)
        assert "P3" in report.failed()
        assert "b1" in report["P3"].witness

    def test_structural_violations_detected(self):
        st = worked_claim1_state()
        bad = replace(st, pi=(0, 0))
        assert state_violations(bad)
        with pytest.raises(ValueError):
            verify_properties(bad)

    def test_strict_p4_enforces_formula(self):
        st = worked_claim1_state()
        report = verify_properties(st, Mode.STRICT)
        assert "P4" in report.failed()  # s_1 = 2*eps*n + 2 = 6 but X_1 is empty

    def test_random_forged_states_pass(self):
        rng = random.Random(2024)
        for _ in range(200):
            forge = random_forge(rng)
            forge.add_distractors(rng.randint(0, 5))
            assert verify_properties(forge.freeze()).all_ok


class TestColourChain:
    def test_single_step_chain(self):
        assert colour_chain(worked_claim1_state(), 1) == [0]

    def test_two_step_chain(self):
        rng = random.Random(1)
        forge = StateForge(rng, 9, 3, [0, 0, 0], chain_src=[0, 0, 2])
        st = forge.freeze()
        assert colour_chain(st, 3) == [2, 0]

    def test_maximal_chain(self):
        rng = random.Random(1)
        forge = StateForge(rng, 9, 3, [0, 0, 0], chain_src=[0, 1, 2])
        st = forge.freeze()
        assert colour_chain(st, 3) == [2, 1, 0]

    def test_chain_strictly_decreasing_and_bounded(self):
        rng = random.Random(31)
        for _ in range(200):
            forge = random_forge(rng, k_range=(1, 4))
            st = forge.freeze()
            for i in range(1, st.k + 1):
                chain = colour_chain(st, i)
                assert chain[-1] == 0
                assert all(a > b for a, b in zip(chain, chain[1:]))
                assert len(chain) <= i

    def test_broken_chain_raises(self):
        st = worked_claim1_state()
        bad = replace(st, g_seq=(ColouredEdge.of(1, 2, 1),))
        with pytest.raises(ChainError):
            colour_chain(bad, 1)


class TestClaim1Switch:
    def test_worked_example(self):
        st = worked_claim1_state()
        out = claim1_switch(st, ColouredEdge.of(1, 3, 2))
        assert {ce.triple for ce in out} == {(0, 2, 1), (1, 3, 2)}

    def test_two_step_chain_exchange(self):
        rng = random.Random(5)
        forge = StateForge(rng, 8, 2, [0, 0], chain_src=[0, 1])
        g = forge.plant_claim1()
        st = forge.freeze()
        out = claim1_switch(st, g)
        assert is_rainbow(out) and len(out) == len(st.r) + 1
        # chain [1, 0]: e_2 and e_1 leave, g_2, g_1 and g enter
        assert st.e_seq[0] not in out and st.e_seq[1] not in out
        assert st.g_seq[0] in out and st.g_seq[1] in out and g in out

    def test_precondition_violations(self):
        st = worked_claim1_state()
        with pytest.raises(ValueError):
            claim1_switch(st, ColouredEdge.of(0, 3, 2))  # wrong class
        with pytest.raises(ValueError):
            claim1_switch(st, ColouredEdge.of(1, 1, 2))  # starts inside X


class TestClaim2Switch:
    def test_worked_example(self):
        inst = make_instance(
            [[(4, 1)], [(1, 1), (5, 2)], [(2, 2), (1, 3)]], a_size=6, b_size=4
        )
        st = SwitchState(
            inst=inst,
            r=make_matching([(1, 1, 1), (2, 2, 2)]),
            eps=EPS1,
            t=1,
            k=1,
            e_seq=(ColouredEdge.of(1, 1, 1),),
            g_seq=(ColouredEdge.of(0, 4, 1),),
            x_sets=(frozenset({va(2)}),),
            y_sets=(frozenset({vb(2)}),),
            pi=(0, 1),
        )
        out = claim2_switch(
            st, ColouredEdge.of(1, 5, 2), ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 1, 3)
        )
        assert {ce.triple for ce in out} == {(0, 4, 1), (1, 5, 2), (2, 1, 3)}

    def test_e_bar_conflicting_with_g_rejected(self):
        inst = make_instance(
            [[(4, 1)], [(1, 1), (5, 2)], [(2, 2), (1, 2)]], a_size=6, b_size=4
        )
        st = SwitchState(
            inst=inst,
            r=make_matching([(1, 1, 1), (2, 2, 2)]),
            eps=EPS1,
            t=1,
            k=1,
            e_seq=(ColouredEdge.of(1, 1, 1),),
            g_seq=(ColouredEdge.of(0, 4, 1),),
            x_sets=(frozenset({va(2)}),),
            y_sets=(frozenset({vb(2)}),),
            pi=(0, 1),
        )
        with pytest.raises(ValueError):
            claim2_switch(
                st, ColouredEdge.of(1, 5, 2), ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 1, 2)
            )

    def test_colour_mismatch_flagged(self):
        rng = random.Random(8)
        forge = random_forge(rng, min_pool=1)
        g, e, e_bar = forge.plant_claim2()
        st = forge.freeze()
        with pytest.raises(ValueError, match="colour"):
            claim2_switch(st, g, e, replace(e_bar, colour=st.pi[0]))


class TestClaim3Switch:
    def test_degenerate_worked_example(self):
        inst = make_instance(
            [[(5, 1), (3, 2)], [(1, 1)], [(2, 2), (4, 3)]], a_size=6, b_size=4
        )
        st = SwitchState(
            inst=inst,
            r=make_matching([(1, 1, 1), (2, 2, 2)]),
            eps=EPS1,
            t=1,
            k=1,
            e_seq=(ColouredEdge.of(1, 1, 1),),
            g_seq=(ColouredEdge.of(0, 5, 1),),
            x_sets=(frozenset({va(2)}),),
            y_sets=(frozenset({vb(2)}),),
            pi=(0, 1),
        )
        out = claim3_switch(
            st, ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 4, 3), ColouredEdge.of(0, 3, 2)
        )
        assert {ce.triple for ce in out} == {(1, 1, 1), (0, 3, 2), (2, 4, 3)}

    def test_pool_subcase_chain_of_one(self):
        inst = make_instance(
            [[(5, 1)], [(1, 1), (3, 2)], [(2, 2), (4, 3)]], a_size=6, b_size=4
        )
        st = SwitchState(
            inst=inst,
            r=make_matching([(1, 1, 1), (2, 2, 2)]),
            eps=EPS1,
            t=1,
            k=1,
            e_seq=(ColouredEdge.of(1, 1, 1),),
            g_seq=(ColouredEdge.of(0, 5, 1),),
            x_sets=(frozenset(),),
            y_sets=(frozenset(),),
            pi=(0, 1),
        )
        out = claim3_switch(
            st, ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 4, 3), ColouredEdge.of(1, 3, 2)
        )
        # removes {e_1, f}, adds {g_1, f_bar, zw}
        assert {ce.triple for ce in out} == {(0, 5, 1), (1, 3, 2), (2, 4, 3)}

    def test_subcase_undeterminable(self):
        rng = random.Random(3)
        forge = random_forge(rng, min_pool=1)
        f, f_bar, zw = forge.plant_claim3("pool")
        # a genuine partner edge whose class lies outside the pi image
        outside = [c for c in forge.spare_colours if c != f.colour][0]
        zw_bad = forge.add_edge(outside, forge.fresh_a(), f.b.index)
        st = forge.freeze()
        with pytest.raises(ValueError, match="subcase"):
            claim3_switch(st, f, f_bar, zw_bad)


class TestPoolConstruction:
    def base_state(self, f0_pairs, n=4):
        classes = [f0_pairs] + [[(c, c)] for c in range(1, n)]
        inst = make_instance(classes, a_size=12, b_size=12)
        r = make_matching([(c, c, c) for c in range(1, n)])
        return initial_state(inst, r, EPS1)

    def test_n0_reads_off_class_zero(self):
        st = self.base_state([(4, 1), (5, 2)])
        assert construct_N0(st) == {vb(1), vb(2)}

    def test_n0_empty_class(self):
        st = self.base_state([])
        assert construct_N0(st) == frozenset()

    def test_n0_requires_k_zero(self):
        rng = random.Random(0)
        st = random_forge(rng, k_range=(1, 1)).freeze()
        with pytest.raises(ValueError):
            construct_N0(st)
        with pytest.raises(ValueError):
            construct_Nk(self.base_state([]))

    def test_unmatched_class_zero_edge_triggers_augment_instead(self):
        st = self.base_state([(9, 9)])
        out = extend_state(st)
        assert isinstance(out, Augmented)
        assert len(out.matching) == len(st.r) + 1

    def test_nk_excludes_current_pool_and_used_y(self):
        rng = random.Random(6)
        forge = random_forge(rng, k_range=(1, 2), min_pool=1)
        zw = forge.add_pool_witness()
        st = forge.freeze()
        pool = construct_Nk(st)
        assert zw.b in pool
        assert not pool & st.y_sets[st.k - 1]
        assert all(st.y_of(i) not in pool for i in range(1, st.k + 1))

    def test_strict_truncation_count(self):
        # eps = 1/12, n = 12, k = 1: pool threshold = (1/2 + 1/12)*12 + 1 - 2 = 6
        rng = random.Random(9)
        forge = StateForge(rng, 12, 1, [0], eps="1/12")
        for _ in range(8):
            forge.add_pool_witness()
        st = forge.freeze()
        relaxed = construct_Nk(st, Mode.RELAXED)
        strict = construct_Nk(st, Mode.STRICT)
        assert len(relaxed) == 8
        assert len(strict) == 6
        assert strict == frozenset(sorted(relaxed, key=lambda v: v.index)[:6])

    def test_n0_strict_truncation(self):
        # eps = 1/8, n = 8, k = 0: threshold = (1/2 + 1/8)*8 + 1 = 6
        rng = random.Random(10)
        forge = StateForge(rng, 8, 0, [], eps="1/8")
        for _ in range(7):
            forge.add_pool_witness()
        st = forge.freeze()
        assert len(construct_N0(st, Mode.RELAXED)) == 7
        strict = construct_N0(st, Mode.STRICT)
        assert len(strict) == 6
        assert strict == frozenset(sorted(construct_N0(st), key=lambda v: v.index)[:6])


class TestPigeonholeSelect:
    def test_unanimity_case(self):
        rng = random.Random(13)
        forge = random_forge(rng, k_range=(1, 2), min_pool=1)
        c_star = forge.plant_extension()
        st = forge.freeze()
        pool = construct_Nk(st)
        y_prime = st.y_sets[st.k - 1] | pool
        x_prime = frozenset(va(v.index) for v in y_prime)
        x_next, X_next, Y_next = pigeonhole_select(st, x_prime, y_prime)
        assert x_next == va(c_star)
        assert x_next not in X_next
        assert X_next == x_prime - {x_next}
        assert Y_next == frozenset(vb(v.index) for v in X_next)

    def test_no_candidate_raises(self):
        st = TestPoolConstruction().base_state([(4, 1), (5, 2)])
        y_prime = construct_N0(st)
        x_prime = frozenset(va(v.index) for v in y_prime)
        # no class has any escape edge into B minus Y
        with pytest.raises(PigeonholeFailure):
            pigeonhole_select(st, x_prime, y_prime)

    def test_two_colour_pigeonhole(self):
        # class 1 escapes only via a2, class 2 only via a1: each candidate
        # covers exactly the other vertex; smallest A-index breaks the tie
        classes = [
            [(4, 1), (5, 2)],  # class 0: pool witnesses for b1, b2
            [(1, 1), (2, 8)],  # class 1 escapes via a2
            [(2, 2), (1, 9)],  # class 2 escapes via a1
        ]
        inst = make_instance(classes, a_size=12, b_size=12)
        r = make_matching([(1, 1, 1), (2, 2, 2)])
        st = initial_state(inst, r, EPS1)
        y_prime = construct_N0(st)
        x_prime = frozenset({va(1), va(2)})
        x_next, X_next, _ = pigeonhole_select(st, x_prime, y_prime)
        assert x_next == va(1)
        assert X_next == {va(2)}
        # disjoint supports cannot reach a strict threshold above 1
        strict_st = initial_state(inst, r, Epsilon.parse("1/100"))
        with pytest.raises(PigeonholeFailure):
            pigeonhole_select(strict_st, x_prime, y_prime, Mode.STRICT)

    def test_strict_mode_fixture_meets_pool_size(self):
        # eps = 1/12, n = 12, k = 1: s_2 = 4 + 1 = 5. Seven candidate vertices,
        # every box colour escaping through every other candidate, forces a
        # selection of exactly ceil(s_2) vertices with the escape property.
        rng = random.Random(55)
        forge = StateForge(rng, 12, 1, [3], eps="1/12")
        for _ in range(4):
            forge.add_pool_witness()
        box = sorted(forge.y_sets[0]) + sorted(forge.pool_edge)
        for c in box:
            for other in box:
                if other != c:
                    forge.add_edge(c, other, forge.fresh_b())
        st = forge.freeze()
        pool = construct_Nk(st)
        y_prime = st.y_sets[0] | pool
        x_prime = frozenset(va(v.index) for v in y_prime)
        x_next, X_next, Y_next = pigeonhole_select(st, x_prime, y_prime, Mode.STRICT)
        assert len(X_next) == 5  # ceil(s_2) exactly, in strict mode
        assert x_next not in X_next
        _, Y = st.saturated()
        y_idx = {v.index for v in Y}
        for ce in st.r.sorted_edges():
            if ce.a in X_next and ce.b in Y_next:
                assert any(
                    a == x_next.index and b not in y_idx
                    for a, b in st.inst.class_pairs(ce.colour)
                )


class TestExtendState:
    def test_base_case_augments_when_class_zero_escapes(self):
        inst = make_instance(
            [[(4, 1), (9, 9)], [(1, 1)], [(2, 2)], [(3, 3)]], a_size=12, b_size=12
        )
        r = make_matching([(c, c, c) for c in range(1, 4)])
        out = extend_state(initial_state(inst, r, EPS1))
        assert isinstance(out, Augmented)
        assert is_rainbow(out.matching) and len(out.matching) == 4

    def test_base_case_extends_and_properties_hold(self):
        rng = random.Random(77)
        forge = StateForge(rng, 5, 0, [])
        forge.add_pool_witness()
        forge.add_pool_witness()
        forge.plant_extension()
        st = forge.freeze()
        out = extend_state(st)
        assert isinstance(out, Extended)
        assert out.state.k == 1
        assert verify_properties(out.state).all_ok

    def test_strict_mode_threshold_infeasible_at_desk_scale(self):
        # eps = 1/4, n = 10: the strict pool threshold exceeds anything a
        # desk-scale fixture can offer
        rng = random.Random(15)
        forge = StateForge(rng, 10, 0, [], eps="1/4")
        forge.add_pool_witness()
        st = forge.freeze()
        with pytest.raises(ThresholdInfeasible) as exc:
            extend_state(st, Mode.STRICT)
        assert exc.value.required > exc.value.available

    def test_pi_k_plus_one_is_fresh(self):
        rng = random.Random(21)
        for _ in range(100):
            forge = random_forge(rng, k_range=(0, 3))
            forge.plant_extension()
            st = forge.freeze()
            out = extend_state(st)
            if isinstance(out, Extended):
                assert len(set(out.state.pi)) == len(out.state.pi)
                assert out.state.pi[:-1] == st.pi


def branching_states(seed: int, count: int):
    """Forged states whose extension step has several viable pigeonhole choices."""
    rng = random.Random(seed)
    for _ in range(count):
        forge = random_forge(rng, k_range=(0, 3))
        forge.plant_extension()
        forge.add_escapes(rng.randint(0, 4))
        forge.add_distractors(rng.randint(0, 4))
        yield forge.freeze()


SEQUENCES = ("e_seq", "g_seq", "x_sets", "y_sets", "pi")


class TestStepOutcomes:
    def test_every_extended_outcome_preserves_properties(self):
        branched = 0
        for st in branching_states(880, 300):
            children = [out.state for out in step_outcomes(st)]
            branched += len(children) >= 2
            for child in children:
                assert verify_properties(child).all_ok, verify_properties(child).failed()
                assert child.k == st.k + 1
                for name in SEQUENCES:
                    assert getattr(child, name)[:-1] == getattr(st, name)
                assert (child.r, child.eps, child.t) == (st.r, st.eps, st.t)
        assert branched >= 200  # the augment search really has siblings to visit

    def test_children_are_distinct_and_ranked_by_cover(self):
        for st in branching_states(881, 100):
            children = [out.state for out in step_outcomes(st)]
            assert len({child.e_seq[-1] for child in children}) == len(children)
            covers = [len(child.x_sets[-1]) for child in children]
            assert covers == sorted(covers, reverse=True)

    def test_augmentation_is_the_only_outcome(self):
        rng = random.Random(882)
        for _ in range(100):
            forge = random_forge(rng)
            forge.plant_claim1()
            forge.plant_extension()
            outs = list(step_outcomes(forge.freeze()))
            assert len(outs) == 1 and isinstance(outs[0], Augmented)

    def test_extend_state_is_the_first_outcome(self):
        rng = random.Random(883)
        seen = set()
        for _ in range(400):
            forge = random_forge(rng, k_range=(0, 3), min_pool=rng.randint(0, 1))
            planter = rng.choice(
                (forge.plant_extension, forge.plant_claim1, forge.add_pool_witness, None)
            )
            if planter is not None:
                planter()
            forge.add_escapes(rng.randint(0, 2))
            st = forge.freeze()
            for mode in Mode:
                try:
                    first = next(step_outcomes(st, mode), None)
                except ThresholdInfeasible:
                    with pytest.raises(ThresholdInfeasible):
                        extend_state(st, mode)
                    seen.add("threshold")
                    continue
                if first is None:
                    with pytest.raises(PigeonholeFailure):
                        extend_state(st, mode)
                    seen.add("pigeonhole")
                else:
                    assert extend_state(st, mode) == first
                    seen.add(type(first).__name__)
        assert seen == {"threshold", "pigeonhole", "Augmented", "Extended"}


class TestTraces:
    def test_trace_verifies(self):
        rng = random.Random(50)
        forge = StateForge(rng, 6, 0, [])
        forge.add_pool_witness()
        forge.add_pool_witness()
        forge.plant_extension()
        st = forge.freeze()
        trace = run_switch_trace(st.inst, st.r, EPS1, max_steps=4)
        assert trace.steps
        assert verify_trace_json(trace_to_json(trace)) == []

    def test_tampered_trace_names_property_and_step(self):
        rng = random.Random(51)
        forge = StateForge(rng, 6, 0, [])
        forge.add_pool_witness()
        forge.add_pool_witness()
        forge.plant_extension()
        st = forge.freeze()
        trace = run_switch_trace(st.inst, st.r, EPS1, max_steps=4)
        payload = json.loads(trace_to_json(trace))
        for step in payload["steps"]:
            if step["kind"] == "extended":
                step["state"]["g_seq"][0][0] = step["state"]["pi"][1]
                break
        failures = verify_trace_json(json.dumps(payload))
        assert failures
        assert any("P2" in f and "step 0" in f for f in failures)

    def test_empty_trace_is_vacuously_ok(self):
        inst = make_instance([[], [(1, 1)]], a_size=3, b_size=3)
        trace = run_switch_trace(inst, make_matching([(1, 1, 1)]), EPS1)
        assert trace.steps == ()
        assert verify_trace_json(trace_to_json(trace)) == []

    def test_trace_ending_in_augmentation_verifies(self):
        inst = make_instance(
            [[(4, 1), (9, 9)], [(1, 1)], [(2, 2)], [(3, 3)]], a_size=12, b_size=12
        )
        r = make_matching([(c, c, c) for c in range(1, 4)])
        trace = run_switch_trace(inst, r, EPS1, max_steps=4)
        assert isinstance(trace.steps[-1], Augmented)
        assert verify_trace_json(trace_to_json(trace)) == []

    def test_initial_state_requires_free_colour_zero(self):
        inst = make_instance([[(0, 0)], [(1, 1)]])
        with pytest.raises(ValueError):
            initial_state(inst, make_matching([(0, 0, 0)]), EPS1)


def two_step_trace() -> dict:
    """A serialized engine run with two extended steps (k = 1, 2) and no augmentation."""
    inst = gen_random_instance(5, 6, a_size=6, b_size=6, seed=6)
    inst0, r0, _ = free_colour_zero(inst, greedy_rainbow(inst, 0))
    trace = run_switch_trace(inst0, r0, EPS1)
    assert [type(out) for out in trace.steps] == [Extended, Extended]
    return json.loads(trace_to_json(trace))


def augmented_trace() -> dict:
    inst = make_instance([[(4, 1), (9, 9)], [(1, 1)], [(2, 2)], [(3, 3)]], a_size=12, b_size=12)
    trace = run_switch_trace(inst, make_matching([(c, c, c) for c in range(1, 4)]), EPS1)
    return json.loads(trace_to_json(trace))


def verify(payload: dict) -> list[str]:
    return verify_trace_json(json.dumps(payload))


class TestTraceChain:
    def test_two_step_run_verifies(self):
        assert verify(two_step_trace()) == []

    def test_step_equal_to_the_base_is_rejected(self):
        payload = two_step_trace()
        payload["steps"] = [{"kind": "extended", "state": payload["base_state"]}]
        assert "step 0: chain broken: k = 0, expected 1" in verify(payload)

    def test_repeated_step_is_rejected(self):
        payload = two_step_trace()
        payload["steps"] = [payload["steps"][0]] * 2
        failures = verify(payload)
        assert "step 1: chain broken: k = 1, expected 2" in failures
        assert not any(f.startswith("step 0") for f in failures)

    def test_skipped_step_is_rejected(self):
        payload = two_step_trace()
        del payload["steps"][0]
        assert "step 0: chain broken: k = 2, expected 1" in verify(payload)

    def test_step_must_extend_the_previous_pools(self):
        payload = two_step_trace()
        state = payload["steps"][1]["state"]
        state["x_sets"][0] = state["y_sets"][0] = []
        failures = verify(payload)
        assert "step 1: chain broken: x_sets does not extend the previous state's by one entry" in failures
        assert "step 1: chain broken: y_sets does not extend the previous state's by one entry" in failures

    def test_eps_must_stay_the_base_value(self):
        payload = two_step_trace()
        payload["steps"][0]["state"]["eps"] = "1/2"
        assert "step 0: chain broken: eps differs from the base state's" in verify(payload)

    def test_base_must_be_a_k0_state(self):
        payload = two_step_trace()
        payload["base_state"] = payload["steps"][0]["state"]
        del payload["steps"][0]
        assert verify(payload) == ["base state: k = 1, expected 0"]

    def test_base_r_must_be_rainbow(self):
        # an r-edge copied with a shifted B-endpoint repeats a colour and an A-vertex
        payload = two_step_trace()
        payload["steps"] = []
        rows = payload["base_state"]["r"]
        c, a, b = rows[0]
        rows.append([c, a, (b + 1) % payload["instance"]["b_size"]])
        assert verify(payload) == ["base state: r is not a rainbow matching"]

    def test_base_r_edges_must_lie_in_their_classes(self):
        payload = two_step_trace()
        payload["steps"] = []
        rows = payload["base_state"]["r"]
        free_b = min(set(range(payload["instance"]["b_size"])) - {b for _, _, b in rows})
        c, a, _ = rows[0]
        rows[0] = [c, a, free_b]
        assert verify(payload) == [
            f"base state: edge a{a}b{free_b}@{c} does not belong to its colour class"
        ]

    def test_base_r_must_leave_colour_zero_unused(self):
        payload = augmented_trace()
        payload["steps"] = []
        payload["base_state"]["r"].append([0, 9, 9])  # an edge of class 0, disjoint from r
        assert verify(payload) == ["base state: colour 0 must be unused by r; relabel first"]

    def test_base_t_must_be_the_smallest_t_of_eps(self):
        payload = two_step_trace()
        payload["steps"] = []
        payload["base_state"]["t"] = 7
        assert verify(payload) == ["base state: t = 7, expected 1"]

    @pytest.mark.parametrize("where", ["base", "step", "augmented"])
    def test_repeated_matching_row_raises_value_error(self, where):
        # a repeated row is malformed, not a smaller matching
        payload = augmented_trace() if where == "augmented" else two_step_trace()
        if where == "base":
            rows = payload["base_state"]["r"]
        elif where == "step":
            rows = payload["steps"][0]["state"]["r"]
        else:
            rows = payload["steps"][0]["matching"]
        rows.append(list(rows[0]))
        prefix = "" if where == "base" else "step 0: "
        with pytest.raises(ValueError, match=f"malformed trace JSON: {prefix}.*repeated row"):
            verify(payload)

    def test_step_after_an_augmentation_is_rejected(self):
        payload = augmented_trace()
        assert [step["kind"] for step in payload["steps"]] == ["augmented"]
        payload["steps"] *= 2
        assert verify(payload) == ["step 1: follows an augmentation, which ends a run"]

    def test_augmented_matching_must_be_the_engines_step(self):
        # a valid rainbow matching one larger than r is not enough: the
        # engine's claim switch from the base puts colour 0 on a9b9, not a10b10
        inst = make_instance(
            [[(4, 1), (9, 9), (10, 10)], [(1, 1)], [(2, 2)], [(3, 3)]], a_size=12, b_size=12
        )
        trace = run_switch_trace(inst, make_matching([(c, c, c) for c in range(1, 4)]), EPS1)
        payload = json.loads(trace_to_json(trace))
        assert verify(payload) == []
        rows = payload["steps"][-1]["matching"]
        rows[rows.index([0, 9, 9])] = [0, 10, 10]
        assert verify(payload) == ["step 0: augmented matching differs from the engine's step"]

    def test_extended_state_must_be_the_engines_step(self):
        # the second pigeonhole choice passes P1-P7 and extends the base, but
        # it is not the step the engine takes
        rng = random.Random(70)
        for _ in range(50):
            forge = StateForge(rng, 7, 0, [])
            forge.plant_extension()
            forge.add_escapes(4)
            base = forge.freeze()
            children = list(step_outcomes(base))
            if len(children) >= 2 and all(isinstance(c, Extended) for c in children):
                break
        else:
            pytest.fail("no forged state with two viable extensions")
        trace = run_switch_trace(base.inst, base.r, EPS1, max_steps=1)
        assert trace.steps == (children[0],)
        forged = Trace(trace.inst, trace.mode, trace.base, (children[1],))
        assert verify_properties(children[1].state).all_ok
        assert verify(json.loads(trace_to_json(forged))) == [
            "step 0: extended state differs from the engine's step"
        ]

    def test_state_rows_must_be_integer_arrays(self):
        payload = two_step_trace()
        row = payload["steps"][0]["state"]["e_seq"][0]
        row[2] = float(row[2])  # a float equal to an integer is still not an integer
        with pytest.raises(ValueError, match="step 0: expected an array of 3 integers"):
            verify(payload)
        payload = two_step_trace()
        payload["base_state"]["r"][0] = "".join(map(str, payload["base_state"]["r"][0]))
        with pytest.raises(ValueError, match="malformed trace JSON: expected an array"):
            verify(payload)

    @pytest.mark.parametrize("field", ["t", "k", "pi", "x_sets", "y_sets"])
    def test_state_scalars_must_be_integers(self, field):
        # 1.0 for 1 would be coerced or hashed as the integer, and the trace would verify
        payload = two_step_trace()
        state = payload["steps"][0]["state"]
        if field in ("t", "k"):
            state[field] = float(state[field])
        elif field == "pi":
            state["pi"][0] = float(state["pi"][0])
        else:
            state[field][0][0] = float(state[field][0][0])
        with pytest.raises(ValueError, match="step 0: expected an integer, got"):
            verify(payload)

    def test_augmentation_after_a_dead_end_is_rejected(self):
        # the run stopped at k = 2 because the fresh pool is empty; a valid
        # optimum appended as its augmentation is still not an engine step
        payload = two_step_trace()
        best = max_rainbow(instance_from_json(json.dumps(payload["instance"]))).best
        assert len(best) == len(payload["base_state"]["r"]) + 1
        payload["steps"].append(
            {"kind": "augmented", "matching": [list(ce.triple) for ce in best.sorted_edges()]}
        )
        assert verify(payload) == [
            "step 2: the engine cannot step from the previous state "
            "(pool size (1/2 + eps)*n + 1 - 2k = 9/2: need 1, have 0)"
        ]

    def test_invalid_instance_raises_value_error(self):
        payload = augmented_trace()
        payload["instance"]["classes"][1].append([1, 5])  # colour 1 no longer a matching
        payload["instance"]["classes"][2].append([20, 20])  # outside the 12 x 12 universe
        with pytest.raises(ValueError, match="invalid instance: colour 1 is not a matching"):
            verify(payload)

    @pytest.mark.parametrize(
        "step",
        [
            {"kind": "extended"},
            {"kind": "augmented"},
            "extended",
            {"kind": "bogus"},
            {"kind": "extended", "state": {"k": 1}},
            {"kind": "augmented", "matching": [[0, 1]]},
        ],
        ids=[
            "extended-without-state",
            "augmented-without-matching",
            "non-object-step",
            "unknown-kind",
            "partial-state",
            "short-matching-row",
        ],
    )
    def test_malformed_step_raises_value_error(self, step):
        payload = two_step_trace()
        payload["steps"].append(step)
        with pytest.raises(ValueError, match="step 2"):
            verify(payload)

    def test_structurally_invalid_step_raises_value_error(self):
        payload = two_step_trace()
        payload["steps"][1]["state"]["k"] = 3
        with pytest.raises(ValueError, match="step 1: structurally invalid state"):
            verify(payload)

    def test_colour_outside_the_instance_raises_value_error(self):
        payload = two_step_trace()
        payload["steps"][0]["state"]["pi"][1] = 99
        with pytest.raises(ValueError, match="step 0: .*colour outside the instance"):
            verify(payload)

    def test_steps_must_be_a_list(self):
        payload = two_step_trace()
        payload["steps"] = {"kind": "extended"}
        with pytest.raises(ValueError, match="steps must be a list"):
            verify(payload)


class TestStateImmutability:
    def test_switches_leave_state_unmodified(self):
        rng = random.Random(60)
        forge = random_forge(rng, min_pool=1)
        g, e, e_bar = forge.plant_claim2()
        st = forge.freeze()
        before = (st.e_seq, st.g_seq, st.x_sets, st.y_sets, st.pi, st.r)
        claim2_switch(st, g, e, e_bar)
        assert (st.e_seq, st.g_seq, st.x_sets, st.y_sets, st.pi, st.r) == before

    def test_saturation_is_computed_once_per_state(self, monkeypatch):
        real = saturated_sets
        calls = []
        monkeypatch.setattr(proofkit, "saturated_sets", lambda r: calls.append(r) or real(r))
        states = [random_forge(random.Random(seed)).freeze() for seed in range(20)]
        for st in states:
            verify_properties(st)
            try:
                next(step_outcomes(st), None)
            except ThresholdInfeasible:
                pass
        assert len(calls) == len(states)

    def test_smallest_t_stored(self):
        rng = random.Random(61)
        st = random_forge(rng).freeze()
        assert st.t == smallest_t(st.eps)
