import hashlib
import json
import random
import time
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as hs

from stateforge import StateForge, random_forge
from rainbowbench.core import (
    ColouredEdge,
    free_colour_zero,
    instance_from_json,
    is_rainbow,
    make_instance,
    make_matching,
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
    SwitchIntegrityError,
    SwitchState,
    ThresholdInfeasible,
    Trace,
    claim1_switch,
    claim2_switch,
    claim3_switch,
    colour_chain,
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
from rainbowbench import core, proofkit
from rainbowbench.gen import gen_random_instance
from rainbowbench.oracle import SearchBudget, max_rainbow
from rainbowbench.solver import greedy_rainbow, solve

EPS1 = Epsilon.parse("1")
# the property report trace_to_json records for a state that passes P1-P7
ALL_OK = {name: {"ok": True, "witness": None} for name in proofkit.PROPERTY_NAMES}


def worked_claim1_state() -> SwitchState:
    """k=1 on two colours: r = {a1b1@1}, e_1 = a1b1, g_1 = a2b1 in class 0."""
    inst = make_instance([[(2, 1)], [(1, 1), (3, 2)]], a_size=4, b_size=3)
    return SwitchState(
        inst=inst,
        r=make_matching([(1, 1, 1)]),
        eps=EPS1,
        t=1,
        k=1,
        e_seq=((1, 1, 1),),
        g_seq=((0, 2, 1),),
        x_sets=(frozenset(),),
        y_sets=(frozenset(),),
        pi=(0, 1),
    )


class TestVerifyProperties:
    def test_worked_state_passes_all_seven(self):
        report = verify_properties(worked_claim1_state())
        assert not report.failed()

    def test_unknown_property_name_raises_key_error(self):
        report = verify_properties(worked_claim1_state())
        assert report["P7"].name == "P7"
        with pytest.raises(KeyError):
            report["P9"]

    def test_recoloured_g_fails_p2(self):
        st = worked_claim1_state()
        bad = replace(st, g_seq=((1, 2, 1),))
        report = verify_properties(bad)
        assert report.failed() == ("P2",)
        assert "g_1" in report["P2"].witness

    def test_y1_containing_y1_fails_p3(self):
        st = worked_claim1_state()
        bad = replace(st, y_sets=(frozenset({1}),))
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
            assert not verify_properties(forge.freeze()).failed()


def two_step_state() -> SwitchState:
    return StateForge(random.Random(1), 9, 2, [1, 1], chain_src=[0, 1]).freeze()


class TestStateViolations:
    # one mutation per structural rule; the state is otherwise the valid worked one
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda st: replace(st, pi=(1, 0)), "pi must map 0..k with pi(0)=0, got (1, 0)"),
            (lambda st: replace(st, pi=(0, 0)), "pi is not injective: (0, 0)"),
            (lambda st: replace(st, pi=(0, 5)), "pi or r uses a colour outside the instance's 0..1"),
            (lambda st: replace(st, e_seq=((1, 3, 1),)), "e_1=a3b1@1 is not an edge of r"),
            (lambda st: replace(st, g_seq=((0, 2, 0),)),
             "g_1=a2b0@0 does not share its B-endpoint with e_1=a1b1@1"),
            (lambda st: replace(st, g_seq=((0, 1, 1),)), "z_1=a1 is saturated by r"),
            (lambda st: replace(st, x_sets=(frozenset({3}),)),
             "X_1 is not a subset of the saturated A-side"),
            (lambda st: replace(st, y_sets=(frozenset({2}),)),
             "Y_1 is not a subset of the saturated B-side"),
        ],
        ids=["pi-zero", "pi-injective", "colour-range", "e-in-r", "g-shares-b",
             "z-saturated", "x-subset", "y-subset"],
    )
    def test_each_rule_names_its_violation(self, mutate, message):
        st = worked_claim1_state()
        assert state_violations(st) == []
        assert message in state_violations(mutate(st))

    @pytest.mark.parametrize("name, message", [
        ("e_seq", "e_i are not pairwise distinct"),
        ("g_seq", "g_i are not pairwise distinct"),
    ])
    def test_repeated_sequence_entry(self, name, message):
        st = two_step_state()
        assert state_violations(st) == []
        first = getattr(st, name)[0]
        assert message in state_violations(replace(st, **{name: (first, first)}))


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

    def test_index_outside_one_to_k_raises(self):
        st = worked_claim1_state()
        for i in (0, st.k + 1):
            with pytest.raises(ValueError, match=f"need 1 <= i <= k=1, got {i}"):
                colour_chain(st, i)

    def test_broken_chain_raises(self):
        st = worked_claim1_state()
        bad = replace(st, g_seq=((1, 2, 1),))
        with pytest.raises(ChainError):
            colour_chain(bad, 1)


class TestClaim1Switch:
    def test_worked_example(self):
        st = worked_claim1_state()
        out = claim1_switch(st, ColouredEdge.of(1, 3, 2))
        assert set(out.triples) == {(0, 2, 1), (1, 3, 2)}

    def test_two_step_chain_exchange(self):
        rng = random.Random(5)
        forge = StateForge(rng, 8, 2, [0, 0], chain_src=[0, 1])
        g = forge.plant_claim1()
        st = forge.freeze()
        out = claim1_switch(st, g)
        assert is_rainbow(out) and len(out) == len(st.r) + 1
        # chain [1, 0]: e_2 and e_1 leave, g_2, g_1 and g enter
        assert st.e_seq[0] not in out.triples and st.e_seq[1] not in out.triples
        assert st.g_seq[0] in out.triples and st.g_seq[1] in out.triples and g.triple in out.triples

    def test_e_k_outside_r_is_an_integrity_error(self):
        # a forged state: e_1 = a1b1@1 is not in r, so the exchange cannot remove it
        st = replace(worked_claim1_state(), r=make_matching([(1, 0, 0)]))
        with pytest.raises(SwitchIntegrityError, match=r"cannot remove a1b1@1: not an edge of r"):
            claim1_switch(st, ColouredEdge.of(1, 3, 2))

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
            e_seq=((1, 1, 1),),
            g_seq=((0, 4, 1),),
            x_sets=(frozenset({2}),),
            y_sets=(frozenset({2}),),
            pi=(0, 1),
        )
        out = claim2_switch(
            st, ColouredEdge.of(1, 5, 2), ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 1, 3)
        )
        assert set(out.triples) == {(0, 4, 1), (1, 5, 2), (2, 1, 3)}

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
            e_seq=((1, 1, 1),),
            g_seq=((0, 4, 1),),
            x_sets=(frozenset({2}),),
            y_sets=(frozenset({2}),),
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
            e_seq=((1, 1, 1),),
            g_seq=((0, 5, 1),),
            x_sets=(frozenset({2}),),
            y_sets=(frozenset({2}),),
            pi=(0, 1),
        )
        out = claim3_switch(
            st, ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 4, 3), ColouredEdge.of(0, 3, 2)
        )
        assert set(out.triples) == {(1, 1, 1), (0, 3, 2), (2, 4, 3)}

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
            e_seq=((1, 1, 1),),
            g_seq=((0, 5, 1),),
            x_sets=(frozenset(),),
            y_sets=(frozenset(),),
            pi=(0, 1),
        )
        out = claim3_switch(
            st, ColouredEdge.of(2, 2, 2), ColouredEdge.of(2, 4, 3), ColouredEdge.of(1, 3, 2)
        )
        # removes {e_1, f}, adds {g_1, f_bar, zw}
        assert set(out.triples) == {(0, 5, 1), (1, 3, 2), (2, 4, 3)}

    def test_colour_chain_is_walked_once(self, monkeypatch):
        calls = []
        chain = proofkit.colour_chain
        monkeypatch.setattr(proofkit, "colour_chain", lambda *args: calls.append(args) or chain(*args))
        st, f, f_bar, zw = increment_claim3_case()
        assert len(claim3_switch(st, f, f_bar, zw)) == len(st.r) + 1
        assert len(calls) == 1

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

    @pytest.mark.parametrize("offset", [0, 5, None], ids=["n", "n+5", "minus-1"])
    def test_zw_colour_outside_the_instance_rejected(self, offset):
        # checked before the colour indexes a class; -1 would read the last one
        forge = random_forge(random.Random(4), min_pool=1)
        f, f_bar, zw = forge.plant_claim3("pool")
        st = forge.freeze()
        colour = -1 if offset is None else st.inst.n_colours + offset
        with pytest.raises(ValueError, match="colour outside the instance"):
            claim3_switch(st, f, f_bar, replace(zw, colour=colour))


def worked_claim2_state() -> SwitchState:
    """TestClaim2Switch's worked state: claim2_switch(st, a5b2@1, a2b2@2, a1b3@2) grows r."""
    inst = make_instance([[(4, 1)], [(1, 1), (5, 2)], [(2, 2), (1, 3)]], a_size=6, b_size=4)
    return SwitchState(
        inst=inst,
        r=make_matching([(1, 1, 1), (2, 2, 2)]),
        eps=EPS1,
        t=1,
        k=1,
        e_seq=((1, 1, 1),),
        g_seq=((0, 4, 1),),
        x_sets=(frozenset({2}),),
        y_sets=(frozenset({2}),),
        pi=(0, 1),
    )


def worked_claim3_state(pool: bool) -> SwitchState:
    """TestClaim3Switch's worked states: claim3_switch(st, a2b2@2, a4b3@2, zw) grows r,
    with zw = a3b2@1 from the fresh pool (pool) or a3b2@0, the degenerate subcase."""
    zw_colour = 1 if pool else 0
    classes = [[(5, 1)], [(1, 1)], [(2, 2), (4, 3)]]
    classes[zw_colour].append((3, 2))
    x = frozenset() if pool else frozenset({2})
    return SwitchState(
        inst=make_instance(classes, a_size=6, b_size=4),
        r=make_matching([(1, 1, 1), (2, 2, 2)]),
        eps=EPS1,
        t=1,
        k=1,
        e_seq=((1, 1, 1),),
        g_seq=((0, 5, 1),),
        x_sets=(x,),
        y_sets=(x,),
        pi=(0, 1),
    )


def increment_claim3_case() -> tuple[SwitchState, ColouredEdge, ColouredEdge, ColouredEdge]:
    """A k = 2 state whose only pool increment is Y_2 minus Y_1, with its claim 3 witness."""
    forge = StateForge(random.Random(3), 8, 2, [0, 1])
    f, f_bar, zw = forge.plant_claim3("increment")
    return forge.freeze(), f, f_bar, zw


def b3_saturated(st: SwitchState) -> SwitchState:
    """st with a fourth class whose r-edge a0b3 saturates b3."""
    classes = [cls.pairs for cls in st.inst.classes] + [[(0, 3)]]
    return replace(
        st,
        inst=make_instance(classes, a_size=st.inst.a_size, b_size=st.inst.b_size),
        r=make_matching([*st.r.triples, (3, 0, 3)]),
    )


E = ColouredEdge.of
K0 = dict(k=0, e_seq=(), g_seq=(), x_sets=(), y_sets=(), pi=(0,))
CLAIM2 = (E(1, 5, 2), E(2, 2, 2), E(2, 1, 3))  # g, e, e_bar of the worked claim 2 state
CLAIM3 = (E(2, 2, 2), E(2, 4, 3))  # f, f_bar of both worked claim 3 states


def _claim3_increment(mutate):
    st, f, f_bar, zw = increment_claim3_case()
    return claim3_switch(mutate(st, zw.b.index), f, f_bar, zw)


PREMISES = {
    "k-at-least-1": (
        lambda: claim1_switch(replace(worked_claim1_state(), **K0), E(1, 3, 2)),
        "claim1_switch needs k >= 1",
    ),
    "g-outside-X": (
        lambda: claim1_switch(worked_claim1_state(), E(1, 1, 1)),
        "g=a1b1@1 must start outside X and z_1..z_k",
    ),
    "claim1-g-outside-Y": (
        lambda: claim1_switch(worked_claim2_state(), E(1, 5, 2)),
        "g=a5b2@1 must end outside Y",
    ),
    "claim2-g-in-Yk": (
        lambda: claim2_switch(replace(worked_claim2_state(), y_sets=(frozenset(),)), *CLAIM2),
        "g=a5b2@1 must end in Y_1",
    ),
    "e-adjacent-to-g": (
        lambda: claim2_switch(worked_claim2_state(), CLAIM2[0], E(1, 1, 1), CLAIM2[2]),
        "e=a1b1@1 must be the r-edge adjacent to g",
    ),
    "e-in-Xk-x-Yk": (
        lambda: claim2_switch(replace(worked_claim2_state(), x_sets=(frozenset(),)), *CLAIM2),
        "e=a2b2@2 must lie between X_1 and Y_1",
    ),
    "e-colour-outside-pi": (
        lambda: claim2_switch(
            replace(worked_claim2_state(), r=make_matching([(1, 1, 1), (0, 2, 2)])),
            CLAIM2[0], E(0, 2, 2), E(0, 1, 3),
        ),
        "e's colour 0 must avoid the pi image",
    ),
    "f-in-r": (
        lambda: claim3_switch(worked_claim3_state(False), E(2, 4, 3), E(2, 4, 3), E(0, 3, 2)),
        "f=a4b3@2 must be an edge of r",
    ),
    "f-colour-outside-pi": (
        lambda: claim3_switch(worked_claim3_state(False), E(1, 1, 1), E(2, 4, 3), E(0, 5, 1)),
        "f's colour 1 must avoid the pi image",
    ),
    "zw-shares-w": (
        lambda: claim3_switch(worked_claim3_state(False), *CLAIM3, E(0, 5, 1)),
        "zw=a5b1@0 must share f's B-endpoint b2",
    ),
    "pool-w-outside-Yk": (
        lambda: claim3_switch(
            replace(worked_claim3_state(True), y_sets=(frozenset({2}),)), *CLAIM3, E(1, 3, 2)
        ),
        "subcase undeterminable: w=b2 not in the fresh pool shape",
    ),
    "increment-w-in-Yp+1": (
        lambda: _claim3_increment(
            lambda st, w: replace(st, y_sets=(st.y_sets[0], st.y_sets[1] - {w}))
        ),
        "not in Y_2",
    ),
    "increment-w-outside-Yp": (
        lambda: _claim3_increment(
            lambda st, w: replace(st, y_sets=(st.y_sets[0] | {w}, st.y_sets[1]))
        ),
        "already in Y_1; zw names the wrong increment",
    ),
    "zw-outside-z": (
        lambda: claim3_switch(
            replace(worked_claim3_state(True), g_seq=((0, 3, 1),)), *CLAIM3, E(1, 3, 2)
        ),
        "zw=a3b2@1 must start outside X and z_1..z_1",
    ),
    "f-bar-colour": (
        lambda: claim3_switch(worked_claim3_state(False), CLAIM3[0], E(0, 5, 1), E(0, 3, 2)),
        "f_bar colour 0 does not match f's colour 2",
    ),
    "f-bar-outside-X": (
        lambda: claim3_switch(worked_claim3_state(False), CLAIM3[0], E(2, 2, 2), E(0, 3, 2)),
        "f_bar=a2b2@2 must start outside X, z_1..z_k and zw's endpoint",
    ),
    "f-bar-outside-Y": (
        lambda: claim3_switch(b3_saturated(worked_claim3_state(False)), *CLAIM3, E(0, 3, 2)),
        "f_bar=a4b3@2 must end outside Y",
    ),
}


class TestClaimPremises:
    def test_worked_calls_succeed(self):
        # each mutation below breaks exactly one premise of these calls
        assert len(claim1_switch(worked_claim1_state(), E(1, 3, 2))) == 2
        assert len(claim2_switch(worked_claim2_state(), *CLAIM2)) == 3
        for pool, zw in ((True, E(1, 3, 2)), (False, E(0, 3, 2))):
            assert len(claim3_switch(worked_claim3_state(pool), *CLAIM3, zw)) == 3
        st, f, f_bar, zw = increment_claim3_case()
        assert len(claim3_switch(st, f, f_bar, zw)) == len(st.r) + 1

    @pytest.mark.parametrize("premise", sorted(PREMISES))
    def test_each_premise_is_rejected(self, premise):
        call, message = PREMISES[premise]
        with pytest.raises(ValueError) as info:
            call()
        assert message in str(info.value)


class TestColourOutsideTheInstance:
    # each of these indexed inst.classes by the colour before any range check
    def test_claim1_g(self):
        st = replace(worked_claim1_state(), pi=(0, 7))
        with pytest.raises(ValueError, match="colour outside the instance"):
            claim1_switch(st, ColouredEdge.of(7, 3, 2))

    def test_claim2_e_bar(self):
        inst = make_instance([[(6, 2)], [(0, 2), (3, 1)]], a_size=7, b_size=4)
        st = SwitchState(
            inst=inst,
            r=make_matching([(1, 0, 2), (5, 2, 1)]),
            eps=EPS1,
            t=1,
            k=1,
            e_seq=((1, 0, 2),),
            g_seq=((0, 6, 2),),
            x_sets=(frozenset({2}),),
            y_sets=(frozenset({1}),),
            pi=(0, 1),
        )
        g, e, e_bar = ColouredEdge.of(1, 3, 1), ColouredEdge.of(5, 2, 1), ColouredEdge.of(5, 0, 3)
        with pytest.raises(ValueError, match="colour outside the instance"):
            claim2_switch(st, g, e, e_bar)

    def test_claim3_f_bar(self):
        inst = make_instance([[(4, 1)], []], a_size=5, b_size=4)
        st = SwitchState(
            inst=inst,
            r=make_matching([(5, 2, 1)]),
            eps=EPS1,
            t=1,
            k=0,
            e_seq=(),
            g_seq=(),
            x_sets=(),
            y_sets=(),
            pi=(0,),
        )
        f, f_bar, zw = ColouredEdge.of(5, 2, 1), ColouredEdge.of(5, 3, 3), ColouredEdge.of(0, 4, 1)
        with pytest.raises(ValueError, match="colour outside the instance"):
            claim3_switch(st, f, f_bar, zw)


class TestPoolConstruction:
    def base_state(self, f0_pairs, n=4):
        classes = [f0_pairs] + [[(c, c)] for c in range(1, n)]
        inst = make_instance(classes, a_size=12, b_size=12)
        r = make_matching([(c, c, c) for c in range(1, n)])
        return initial_state(inst, r, EPS1)

    def test_n0_reads_off_class_zero(self):
        st = self.base_state([(4, 1), (5, 2)])
        assert construct_Nk(st) == {vb(1), vb(2)}

    def test_n0_empty_class(self):
        st = self.base_state([])
        assert construct_Nk(st) == frozenset()

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
        pool_idx = {v.index for v in pool}
        assert not pool_idx & st.y_sets[st.k - 1]
        assert all(b not in pool_idx for _, _, b in st.e_seq)

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
        assert len(construct_Nk(st, Mode.RELAXED)) == 7
        strict = construct_Nk(st, Mode.STRICT)
        assert len(strict) == 6
        assert strict == frozenset(sorted(construct_Nk(st), key=lambda v: v.index)[:6])


class TestPigeonholeSelect:
    def test_unanimity_case(self):
        rng = random.Random(13)
        forge = random_forge(rng, k_range=(1, 2), min_pool=1)
        c_star = forge.plant_extension()
        st = forge.freeze()
        pool = construct_Nk(st)
        y_prime = frozenset(vb(b) for b in st.y_sets[st.k - 1]) | pool
        x_prime = frozenset(va(v.index) for v in y_prime)
        x_next, X_next, Y_next = pigeonhole_select(st, x_prime, y_prime)
        assert x_next == va(c_star)
        assert x_next not in X_next
        assert X_next == x_prime - {x_next}
        assert Y_next == frozenset(vb(v.index) for v in X_next)

    def test_no_candidate_raises(self):
        st = TestPoolConstruction().base_state([(4, 1), (5, 2)])
        y_prime = construct_Nk(st)
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
        y_prime = construct_Nk(st)
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
        y_prime = frozenset(vb(b) for b in st.y_sets[0]) | pool
        x_prime = frozenset(va(v.index) for v in y_prime)
        x_next, X_next, Y_next = pigeonhole_select(st, x_prime, y_prime, Mode.STRICT)
        assert len(X_next) == 5  # ceil(s_2) exactly, in strict mode
        assert x_next not in X_next
        y_idx = {b for _, _, b in st.r.triples}
        for ce in st.r.edges:
            if ce.a in X_next and ce.b in Y_next:
                assert any(
                    a == x_next.index and b not in y_idx
                    for a, b in st.inst.classes[ce.colour].pairs
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
        assert not verify_properties(out.state).failed()

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
                assert not verify_properties(child).failed(), verify_properties(child).failed()
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

    def test_a_child_shares_its_parents_view_of_r_and_it_never_goes_stale(self):
        # every Extended outcome, at every depth, of greedy starts on tight draws
        children = deepest = 0
        for seed in range(200):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            r = greedy_rainbow(inst, 0)
            if len(r) == 8:
                continue
            frontier = [initial_state(*free_colour_zero(inst, r)[:2], EPS1)]
            while frontier:
                st = frontier.pop()
                try:
                    outcomes = list(step_outcomes(st))
                except ThresholdInfeasible:
                    continue
                for child in (out.state for out in outcomes if isinstance(out, Extended)):
                    children += 1
                    built = SwitchState(**{f.name: getattr(child, f.name) for f in fields(child)})
                    assert child._ints == built._ints
                    assert child._ints.r_at_a is st._ints.r_at_a
                    frontier.append(child)
                    deepest = max(deepest, child.k)
        assert children >= 50 and deepest >= 2  # grandchildren borrow a borrowed view

    def test_a_hand_built_state_builds_its_own_view(self):
        st = worked_claim1_state()
        fresh = replace(st)
        assert fresh._ints == st._ints and fresh._ints.r_at_a is not st._ints.r_at_a
        # a parent with another r lends nothing
        other = make_matching([(1, 3, 2)])
        child = replace(st, r=other, e_seq=((1, 3, 2),), g_seq=((0, 2, 2),))
        lent = SwitchState(**{f.name: getattr(child, f.name) for f in fields(child)}, parent=st)
        assert lent._ints == child._ints and lent._ints.x == frozenset({3})


def _with_entry(st: SwitchState, name: str, i: int, value) -> SwitchState:
    seq = getattr(st, name)
    return replace(st, **{name: seq[: i - 1] + (value,) + seq[i:]})


def checker_states(seed: int, count: int):
    """Forged states, each followed by single-field mutations of one step i.

    The mutations: g_i recoloured (possibly outside the instance), Y_i enlarged
    by a saturated B-index, X_i and Y_i both enlarged by the ends of one r-edge,
    pi(i) moved to a colour outside the pi image, z_i moved onto an X_i vertex
    or onto an earlier z, and X_k shrunk by its smallest index.
    """
    rng = random.Random(seed)
    for _ in range(count):
        forge = random_forge(rng, k_range=(0, 3), min_pool=rng.randint(0, 1))
        planter = rng.choice(
            (forge.plant_extension, forge.plant_claim1, forge.add_pool_witness, None)
        )
        if planter is not None:
            planter()
        forge.add_escapes(rng.randint(0, 2))
        forge.add_distractors(rng.randint(0, 3))
        st = forge.freeze()
        yield st
        if st.k == 0:
            continue
        i = rng.randint(1, st.k)
        c, z, y = st.g_seq[i - 1]
        yield _with_entry(st, "g_seq", i, (rng.randrange(st.inst.n_colours + 2), z, y))
        saturated_b = sorted({b for _, _, b in st.r.triples} - st.y_sets[i - 1])
        if saturated_b:
            b = rng.choice(saturated_b)
            yield _with_entry(st, "y_sets", i, st.y_sets[i - 1] | {b})
            a = next(a for _, a, rb in st.r.triples if rb == b)
            grown = _with_entry(st, "x_sets", i, st.x_sets[i - 1] | {a})
            yield _with_entry(grown, "y_sets", i, st.y_sets[i - 1] | {b})
        outside = sorted(set(range(1, st.inst.n_colours)) - set(st.pi))
        if outside:
            yield _with_entry(st, "pi", i + 1, rng.choice(outside))
        if st.x_sets[i - 1]:
            yield _with_entry(st, "g_seq", i, (c, min(st.x_sets[i - 1]), y))
        if i >= 2:
            yield _with_entry(st, "g_seq", i, (c, st.g_seq[rng.randrange(i - 1)][1], y))
        if st.x_sets[-1]:
            shrunk = st.x_sets[-1] - {min(st.x_sets[-1])}
            yield _with_entry(st, "x_sets", st.k, shrunk)


def _first_outcome(st: SwitchState, mode: Mode):
    try:
        out = next(step_outcomes(st, mode), None)
    except (ValueError, ChainError, PigeonholeFailure, SwitchIntegrityError,
            ThresholdInfeasible) as exc:
        return [type(exc).__name__, str(exc)]
    if out is None:
        return None
    if isinstance(out, Augmented):
        return ["augmented", list(out.matching.triples)]
    child = out.state
    return ["extended", child.e_seq[-1], child.g_seq[-1], sorted(child.x_sets[-1]),
            sorted(child.y_sets[-1]), child.pi[-1]]


def _property_rows(st: SwitchState, mode: Mode):
    try:
        report = verify_properties(st, mode)
    except ValueError as exc:
        return ["ValueError", str(exc)]
    return [[c.name, c.ok, c.witness] for c in report.checks]


class TestCheckerPin:
    def test_reports_and_first_outcomes_are_pinned(self):
        # sha256 over, per forged or mutated state and per mode: the
        # verify_properties report (name, ok, witness) or its error, and the
        # first step_outcomes result or its error; recorded before P1-P7 and
        # the fresh pool were restated, so any change in a witness string,
        # a verdict or a step fails
        digest = hashlib.sha256()
        states, failed = 0, set()
        for st in checker_states(890, 300):
            states += 1
            for mode in Mode:
                rows = _property_rows(st, mode)
                if rows[0] != "ValueError":
                    failed.update((mode, name) for name, ok, _ in rows if not ok)
                line = [mode.value, rows, _first_outcome(st, mode)]
                digest.update((json.dumps(line) + "\n").encode())
        assert states == 1681
        assert failed == {(mode, name) for mode in Mode for name in proofkit.PROPERTY_NAMES}
        assert digest.hexdigest() == (
            "198172c342a13d41f540c3c19c3aedc127b58f9a0c6e8aaef7c78c977b508a3d"
        )


def misshapen_changes(st: SwitchState) -> list[dict]:
    """Field changes giving st k one too large, then each sequence one entry short."""
    return [{"k": st.k + 1}] + [{name: getattr(st, name)[:-1]} for name in SEQUENCES]


ANY_EDGE = ColouredEdge.of(0, 0, 0)
SHAPED_ENTRY_POINTS = {
    "step_outcomes": lambda st: next(step_outcomes(st)),
    "colour_chain": lambda st: colour_chain(st, st.k),
    "construct_Nk": construct_Nk,
    "claim1_switch": lambda st: claim1_switch(st, ANY_EDGE),
    "claim2_switch": lambda st: claim2_switch(st, ANY_EDGE, ANY_EDGE, ANY_EDGE),
    "claim3_switch": lambda st: claim3_switch(st, ANY_EDGE, ANY_EDGE, ANY_EDGE),
}


class TestStateShape:
    # SwitchState checks its shape when it is built, so every entry point that
    # indexes by k or pi meets only states that fit, never an IndexError
    @pytest.mark.parametrize("entry", sorted(SHAPED_ENTRY_POINTS))
    def test_shape_that_does_not_fit_k_raises_value_error(self, entry):
        # the ValueError comes from building the state, before the entry point runs
        call = SHAPED_ENTRY_POINTS[entry]
        rng = random.Random(884)
        for _ in range(20):
            forge = StateForge(rng, 8, 2, [1, 1])
            forge.plant_extension()
            st = forge.freeze()
            for change in misshapen_changes(st):
                with pytest.raises(ValueError, match="state shape does not fit k="):
                    call(replace(st, **change))

    def test_shape_that_does_not_fit_k_cannot_be_built(self):
        rng = random.Random(884)
        for _ in range(20):
            forge = StateForge(rng, 8, 2, [1, 1])
            forge.plant_extension()
            st = forge.freeze()
            values = {f.name: getattr(st, f.name) for f in fields(SwitchState)}
            for change in misshapen_changes(st):
                with pytest.raises(ValueError, match="state shape does not fit k=") as built:
                    SwitchState(**{**values, **change})
                with pytest.raises(ValueError) as replaced:
                    replace(st, **change)
                assert str(replaced.value) == str(built.value)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k": 2}, "k=2: e_seq, g_seq, x_sets, y_sets and pi have 1, 1, 1, 1, 2 entries"),
            ({"y_sets": ()}, "k=1: e_seq, g_seq, x_sets, y_sets and pi have 1, 1, 1, 0, 2 entries"),
        ],
        ids=["k-too-large", "y-sets-short"],
    )
    def test_shape_error_text(self, change, message):
        with pytest.raises(ValueError) as info:
            replace(worked_claim1_state(), **change)
        assert str(info.value) == "state shape does not fit " + message

    def test_k0_state_without_pi_cannot_be_built(self):
        st = StateForge(random.Random(885), 6, 0, []).freeze()
        with pytest.raises(ValueError, match="state shape does not fit k=0: .* have 0, 0, 0, 0, 0"):
            replace(st, pi=())


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

    def test_trace_json_with_failing_witnesses_is_json_dumps(self):
        # witness strings are the only free text in a trace
        forge = StateForge(random.Random(52), 7, 2, [1, 1])
        st = forge.freeze()
        _, a, b = st.g_seq[0]
        bad = replace(st, g_seq=((st.pi[1], a, b), *st.g_seq[1:]))
        base = initial_state(st.inst, st.r, st.eps)
        text = trace_to_json(Trace(Mode.RELAXED, base, (Extended(bad),)))
        payload = json.loads(text)
        witnesses = [p["witness"] for p in payload["steps"][0]["properties"].values()]
        assert any(isinstance(w, str) for w in witnesses)
        assert text == json.dumps(payload, indent=2) + "\n"

    def test_initial_state_requires_free_colour_zero(self):
        inst = make_instance([[(0, 0)], [(1, 1)]])
        with pytest.raises(ValueError):
            initial_state(inst, make_matching([(0, 0, 0)]), EPS1)


class TestTracePin:
    def test_trace_json_is_pinned_and_verifies(self):
        # sha256 over trace_to_json of 400 engine runs from greedy starts that
        # fall short on tight 8 x 9 instances in a 9 x 9 universe; recorded
        # before the integer layout and the decoders were restated, so any
        # change in a byte of trace JSON fails here
        digest = hashlib.sha256()
        traces, seed = 0, 0
        while traces < 400:
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            seed += 1
            r = greedy_rainbow(inst, 0)
            if len(r) == 8:
                continue
            inst0, r0, _ = free_colour_zero(inst, r)
            text = trace_to_json(run_switch_trace(inst0, r0, EPS1, max_steps=8))
            assert verify_trace_json(text) == []
            digest.update(text.encode())
            traces += 1
        assert digest.hexdigest() == (
            "c56dace3cbc2fff6aa3c28957b3e975ded96ebb7e2429bad0db018801b00005d"
        )


def payload_dict(trace: Trace) -> dict:
    """The payload dict trace_to_json laid out value by value before states had layouts."""

    def state(st: SwitchState) -> dict:
        return {
            "r": list(map(list, st.r.triples)),
            "eps": str(st.eps.value),
            "t": st.t,
            "k": st.k,
            "e_seq": list(map(list, st.e_seq)),
            "g_seq": list(map(list, st.g_seq)),
            "x_sets": list(map(sorted, st.x_sets)),
            "y_sets": list(map(sorted, st.y_sets)),
            "pi": list(st.pi),
        }

    def step(out) -> dict:
        if isinstance(out, Augmented):
            return {"kind": "augmented", "matching": list(map(list, out.matching.triples))}
        checks = verify_properties(out.state, trace.mode).checks
        report = {c.name: {"ok": c.ok, "witness": c.witness} for c in checks}
        return {"kind": "extended", "state": state(out.state), "properties": report}

    inst = trace.base.inst
    return {
        "mode": trace.mode.value,
        "instance": {
            "n_colours": inst.n_colours,
            "a_size": inst.a_size,
            "b_size": inst.b_size,
            "classes": [list(map(list, cls.pairs)) for cls in inst.classes],
        },
        "base_state": state(trace.base),
        "steps": list(map(step, trace.steps)),
    }


@hs.composite
def forged_traces(draw) -> Trace:
    """Hand-built traces: a StateForge state at k = 0..3 with eps 1, 1/3 or 2/5 and its
    prefixes as the base and extended steps, in relaxed or strict mode (where P4 fails
    with a witness), sometimes with g_1 moved into class pi(1) (P2 fails too) or an
    augmented last step."""
    rng = random.Random(draw(hs.integers(0, 2**32 - 1)))
    k = draw(hs.integers(0, 3))
    pools = [rng.randint(0, 2) for _ in range(k)]
    eps = draw(hs.sampled_from(["1", "1/3", "2/5"]))
    full = StateForge(rng, k + sum(pools) + rng.randint(4, 6), k, pools, eps=eps).freeze()
    if k and draw(hs.booleans()):
        _, a, b = full.g_seq[0]
        full = replace(full, g_seq=((full.pi[1], a, b), *full.g_seq[1:]))
    states = [
        replace(full, k=i, e_seq=full.e_seq[:i], g_seq=full.g_seq[:i],
                x_sets=full.x_sets[:i], y_sets=full.y_sets[:i], pi=full.pi[:i + 1])
        for i in range(k + 1)
    ]
    steps = [Extended(state) for state in states[1:]]
    if draw(hs.booleans()):
        steps.append(Augmented(full.r))
    return Trace(draw(hs.sampled_from(list(Mode))), states[0], tuple(steps))


class TestTraceLayout:
    @given(forged_traces())
    def test_trace_is_laid_out_as_its_payload_dict(self, trace):
        # states fill a layout of their shape and passing reports are one layout; a
        # failing report must still print as the dict did
        assert trace_to_json(trace) == json.dumps(payload_dict(trace), indent=2) + "\n"

    @given(forged_traces(), hs.data())
    def test_trace_reads_back_or_raises_type_error(self, trace, data):
        states = [trace.base] + [out.state for out in trace.steps if isinstance(out, Extended)]
        if data.draw(hs.booleans()):  # a bool t, which "%d" would print as 1
            i = data.draw(hs.integers(0, len(states) - 1))
            states[i] = replace(states[i], t=data.draw(hs.booleans()))
        steps = [Extended(st) for st in states[1:]] + [
            out for out in trace.steps if isinstance(out, Augmented)
        ]
        trace = Trace(trace.mode, states[0], tuple(steps))
        try:
            text = trace_to_json(trace)
        except TypeError:
            return
        verify_trace_json(text)  # a state it cannot read raises "malformed trace JSON"


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


def string_pool_step() -> dict:
    """two_step_trace's last step with its X_1 written as the string "" instead of an array."""
    step = two_step_trace()["steps"][-1]
    step["state"]["x_sets"][0] = ""
    return step


def verify(payload: dict) -> list[str]:
    return verify_trace_json(json.dumps(payload))


class TestTraceChain:
    def test_two_step_run_verifies(self):
        assert verify(two_step_trace()) == []

    def test_step_equal_to_the_base_is_rejected(self):
        payload = two_step_trace()
        payload["steps"] = [
            {"kind": "extended", "state": payload["base_state"], "properties": ALL_OK}
        ]
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

    @pytest.mark.parametrize(
        "eps",
        [1, 1.0, True, "1.0", " 1 ", "2/2", "01", "1/0", "1e0", None],
        ids=["int", "float", "bool", "decimal", "padded", "unreduced", "leading-zero",
             "zero-denominator", "exponent", "null"],
    )
    def test_eps_must_be_a_canonical_fraction_string(self, eps):
        # what _state_payload writes is str(eps.value); "1" would verify
        payload = two_step_trace()
        for state in [payload["base_state"]] + [step["state"] for step in payload["steps"]]:
            assert state["eps"] == "1"
            state["eps"] = eps
        with pytest.raises(ValueError, match="eps must be a canonical fraction string"):
            verify(payload)

    @pytest.mark.parametrize(
        "eps",
        [1, 1.0, True, "1.0", " 1 ", "2/2", "01", "1/0", "1e0", None],
        ids=["int", "float", "bool", "decimal", "padded", "unreduced", "leading-zero",
             "zero-denominator", "exponent", "null"],
    )
    def test_eps_parse_cache_keeps_the_check(self, eps):
        # parses are cached by string: a rejected eps stays rejected on a second
        # call, and a value that is not a str is rejected before the cache
        payload = two_step_trace()
        payload["base_state"]["eps"] = eps
        lookups = proofkit._canonical_eps.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="eps must be a canonical fraction string"):
                verify(payload)
        after = proofkit._canonical_eps.cache_info()
        looked_up = after.hits + after.misses - lookups.hits - lookups.misses
        assert looked_up == (2 if isinstance(eps, str) else 0)

    def test_cached_eps_equals_a_fresh_parse(self):
        for _ in range(2):
            assert proofkit._eps_from_json("1/2") == Epsilon.parse("1/2")

    def test_eps_exponent_is_never_evaluated(self):
        # Fraction("1e10000000") computes 10**10000000, seconds of CPU, before any check
        payload = two_step_trace()
        payload["base_state"]["eps"] = "1e10000000"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="eps must be a canonical fraction string"):
            verify(payload)
        assert time.perf_counter() - start < 2

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

    @pytest.mark.parametrize("field", ["x_sets", "y_sets"])
    def test_repeated_pool_index_raises_value_error(self, field):
        # a repeated index is malformed, not a smaller set
        payload = two_step_trace()
        for step in payload["steps"]:
            pool = step["state"][field][0]
            pool.append(pool[0])
        with pytest.raises(ValueError, match=rf"step 0: {field}\[0\]: repeated index"):
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
        forged = Trace(trace.mode, trace.base, (children[1],))
        assert not verify_properties(children[1].state).failed()
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

    @pytest.mark.parametrize("field", ["e_seq", "g_seq", "x_sets", "y_sets"])
    def test_state_vertex_indices_must_be_non_negative(self, field):
        payload = two_step_trace()
        state = payload["steps"][0]["state"]
        if field in ("e_seq", "g_seq"):
            state[field][0][1] = -1
        else:
            state[field][0][0] = -1
        with pytest.raises(ValueError, match="step 0: vertex index must be non-negative, got -1"):
            verify(payload)

    def test_augmentation_after_a_dead_end_is_rejected(self):
        # the run stopped at k = 2 because the fresh pool is empty; a valid
        # optimum appended as its augmentation is still not an engine step
        payload = two_step_trace()
        best = max_rainbow(instance_from_json(json.dumps(payload["instance"]))).best
        assert len(best) == len(payload["base_state"]["r"]) + 1
        payload["steps"].append(
            {"kind": "augmented", "matching": [list(t) for t in best.triples]}
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
            string_pool_step(),
        ],
        ids=[
            "extended-without-state",
            "augmented-without-matching",
            "non-object-step",
            "unknown-kind",
            "partial-state",
            "short-matching-row",
            "string-pool",
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
        with pytest.raises(ValueError, match="step 1: state shape does not fit k=3"):
            verify(payload)

    @pytest.mark.parametrize(
        "tamper, failure",
        [
            (lambda rows: rows.__setitem__(-1, [0, 5, 5]), "augmented matching is not rainbow"),
            (lambda rows: rows.pop(), "augmented matching has size 3, expected 4"),
            (lambda rows: rows.__setitem__(0, [0, 9, 7]), "augmented edge a9b7@0 not in its class"),
        ],
        ids=["repeated-colour", "dropped-row", "edge-outside-its-class"],
    )
    def test_augmented_step_defects(self, tamper, failure):
        payload = augmented_trace()
        tamper(payload["steps"][0]["matching"])
        assert verify(payload) == [
            "step 0: augmented matching differs from the engine's step",
            f"step 0: {failure}",
        ]

    def test_colour_outside_the_instance_raises_value_error(self):
        payload = two_step_trace()
        payload["steps"][0]["state"]["pi"][1] = 99
        with pytest.raises(ValueError, match="step 0: .*colour outside the instance"):
            verify(payload)

    def test_steps_must_be_a_list(self):
        payload = two_step_trace()
        payload["steps"] = {"kind": "extended"}
        with pytest.raises(ValueError, match="malformed trace JSON: steps: expected an array"):
            verify(payload)


class TestRecordedReports:
    # trace_to_json records each extended step's P1-P7 report; verify-trace
    # recomputes it and the two must agree
    @pytest.mark.parametrize(
        "forge",
        [
            lambda report: report.update(P3={"ok": False, "witness": "forged"}),
            lambda report: report.update(P9={"ok": True, "witness": None}),
            lambda report: report.pop("P7"),
        ],
        ids=["forged-P3", "extra-key", "missing-key"],
    )
    def test_recorded_report_must_be_the_checked_one(self, forge):
        payload = two_step_trace()
        forge(payload["steps"][1]["properties"])
        assert verify(payload) == [
            "step 1: recorded property report differs from the checked one"
        ]

    @pytest.mark.parametrize("value", [1, 1.0], ids=["int", "float"])
    def test_a_recorded_true_must_be_json_true(self, value):
        # 1 == 1.0 == True in Python, but not in JSON
        payload = two_step_trace()
        payload["steps"][0]["properties"]["P1"]["ok"] = value
        assert verify(payload) == [
            "step 0: recorded property report differs from the checked one"
        ]

    @pytest.mark.parametrize("value", [0, 0.0], ids=["int", "float"])
    def test_a_recorded_false_must_be_json_false(self, value):
        forge = StateForge(random.Random(52), 7, 2, [1, 1])
        st = forge.freeze()
        _, a, b = st.g_seq[0]
        bad = replace(st, g_seq=((st.pi[1], a, b), *st.g_seq[1:]))
        base = initial_state(st.inst, st.r, st.eps)
        payload = json.loads(trace_to_json(Trace(Mode.RELAXED, base, (Extended(bad),))))
        report = payload["steps"][0]["properties"]
        failed = next(name for name, check in report.items() if check["ok"] is False)
        before = verify(payload)
        report[failed]["ok"] = value
        assert verify(payload) == before + [
            "step 0: recorded property report differs from the checked one"
        ]

    def test_missing_properties_object_is_malformed(self):
        payload = two_step_trace()
        del payload["steps"][0]["properties"]
        with pytest.raises(ValueError, match="malformed trace JSON: step 0: 'properties'"):
            verify(payload)

    @pytest.mark.parametrize("properties", [[], None, "ok"])
    def test_properties_that_are_not_an_object_are_malformed(self, properties):
        payload = two_step_trace()
        payload["steps"][0]["properties"] = properties
        with pytest.raises(ValueError, match="step 0: properties must be an object"):
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
        # the saturated index sets live in the one integer view of a state
        real = proofkit._Ints
        calls = []
        monkeypatch.setattr(proofkit, "_Ints", lambda **view: calls.append(view) or real(**view))
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


class TestIntegerEngine:
    def test_switch_engine_builds_no_boundary_values(self, monkeypatch):
        # the engine and its claim switches stay on (colour, a, b) triples, so
        # tight solves and trace round trips build no Vertex (hence no Edge or
        # ColouredEdge): those values are made at the public boundary only
        built = []
        real = core.Vertex.__post_init__
        monkeypatch.setattr(core.Vertex, "__post_init__", lambda v: built.append(v) or real(v))
        methods = set()
        for seed in range(200):  # the oracle's tight-draw pin
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            res = solve(inst, target=8, budget=SearchBudget.nodes(100_000))
            methods.add(res.method)
        kinds = set()
        for seed in range(60):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            r = greedy_rainbow(inst, 0)
            if len(r) == 8:
                continue
            inst0, r0, _ = free_colour_zero(inst, r)
            trace = run_switch_trace(inst0, r0, EPS1)
            kinds.update(type(out) for out in trace.steps)
            assert verify_trace_json(trace_to_json(trace)) == []
        assert methods == {"greedy", "augmented", "oracle"}
        assert kinds == {Extended, Augmented}
        assert built == []
        va(0)  # the wrapper counts what it sees
        assert len(built) == 1
