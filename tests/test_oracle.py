import hashlib
import json
import math
import random
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from bruteforce import naive_max_rainbow
from rainbowbench.core import is_rainbow, make_instance, validate_instance
from rainbowbench.gen import gen_drisko, gen_no_transversal, gen_random_instance
from rainbowbench.latin import gen_cyclic, gen_random_latin, latin_to_instance
from rainbowbench import oracle
from rainbowbench.cli import main
from rainbowbench.oracle import (
    CSV_COLUMNS,
    SearchBudget,
    estimate_mu,
    max_rainbow,
    reports_to_csv,
)


def _pin_draws():
    """The 300 seeded random instances behind the oracle's sha256 pins."""
    rng = random.Random(2015)
    for _ in range(300):
        yield gen_random_instance(rng.randint(1, 7), rng.randint(1, 6), seed=rng.getrandbits(32))


def _relabelled(inst, seed):
    """The instance under a seeded colour permutation and vertex relabelling on both sides."""
    rng = random.Random(seed)
    a_map = list(range(inst.a_size))
    b_map = list(range(inst.b_size))
    rng.shuffle(a_map)
    rng.shuffle(b_map)
    classes = [sorted((a_map[a], b_map[b]) for a, b in cls.pairs) for cls in inst.classes]
    rng.shuffle(classes)
    return make_instance(classes, a_size=inst.a_size, b_size=inst.b_size)


@st.composite
def duplicated_families(draw):
    """1-4 base matchings, the first repeated, the colour order shuffled; n <= 7, sizes <= 4."""
    a_size = draw(st.integers(1, 5))
    b_size = draw(st.integers(1, 5))
    classes = []
    for i in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, min(a_size, b_size, 4)))
        a_idx = draw(st.lists(st.integers(0, a_size - 1), min_size=size, max_size=size, unique=True))
        b_idx = draw(st.lists(st.integers(0, b_size - 1), min_size=size, max_size=size, unique=True))
        copies = draw(st.integers(2 if i == 0 else 1, 3))
        classes += [list(zip(a_idx, b_idx))] * copies
    classes = draw(st.permutations(classes[:7]))
    return make_instance(classes, a_size=a_size, b_size=b_size)


def _pin_line(inst, limit, nodes):
    rep = max_rainbow(inst, SearchBudget(limit))
    line = f"{list(rep.best.triples)}|{rep.optimal}"
    return (f"{line}|{rep.nodes_explored};" if nodes else f"{line};").encode()


class TestMaxRainbow:
    def test_single_edge_instance(self):
        rep = max_rainbow(make_instance([[(0, 0)]]))
        assert len(rep.best) == 1 and rep.optimal

    def test_drisko3_optimum_two(self):
        # frozen from the exhaustive one-edge-per-class enumeration (naive oracle)
        inst = gen_drisko(3)
        assert len(naive_max_rainbow(inst).best) == 2
        assert len(max_rainbow(inst).best) == 2

    def test_cyclic4_optimum_three(self):
        rep = max_rainbow(latin_to_instance(gen_cyclic(4)))
        assert len(rep.best) == 3 and rep.optimal

    def test_best_is_always_rainbow(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = gen_random_instance(
                rng.randint(1, 4), rng.randint(1, 4), seed=rng.getrandbits(32)
            )
            rep = max_rainbow(inst)
            assert is_rainbow(rep.best)

    def test_empty_instance(self):
        rep = max_rainbow(make_instance([[], []], a_size=1, b_size=1))
        assert len(rep.best) == 0 and rep.optimal

    @pytest.mark.parametrize("shift", [0, 1], ids=["identical", "distinct"])
    def test_classes_wider_than_a_machine_word(self, shift):
        # two 70-edge perfect matchings of a 70 x 70 universe: candidate masks past bit 63
        diagonal = [(i, i) for i in range(70)]
        shifted = [(i, (i + shift) % 70) for i in range(70)]
        rep = max_rainbow(make_instance([diagonal, shifted], a_size=70, b_size=70))
        assert len(rep.best) == 2 and rep.optimal and is_rainbow(rep.best)

    @pytest.mark.parametrize(
        "classes, optimum",
        [
            ([[(0, 0), (999_999, 999_998)], [(0, 0), (999_998, 999_999)], [(0, 0), (7, 7)]], 3),
            ([[(0, 0), (999_999, 999_999)]] * 3, 2),
        ],
        ids=["distinct", "identical"],
    )
    def test_sparse_instance_in_a_huge_universe(self, classes, optimum):
        # set-up must scale with the edges, not with a_size and b_size: one
        # list entry per vertex of the universe would take 8 MB
        inst = make_instance(classes, a_size=10**6, b_size=10**6)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = max_rainbow(inst)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 1_000_000
        assert len(rep.best) == optimum == len(naive_max_rainbow(inst).best)
        assert rep.optimal and is_rainbow(rep.best)

    @pytest.mark.parametrize(
        ("classes", "optimum"),
        [
            ([[(i, 0)] for i in range(3000)], 1),
            ([[(i, 0), (i + 1, 1)] for i in range(3000)], 2),
        ],
        ids=["star", "ladder"],
    )
    def test_set_up_grows_with_the_pairs_not_bundles_times_vertices(self, classes, optimum):
        # 3,000 classes, one bundle each: the star's share one B-vertex, and
        # each ladder rung shares its A-vertices with its neighbours, 2,999
        # shared vertices. A list over the bundles per shared vertex would be
        # 3,000 entries for the star but 9M (72 MB) for the ladder
        inst = make_instance(classes)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = max_rainbow(inst)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 6_000_000
        assert len(rep.best) == optimum and rep.optimal

    @pytest.mark.parametrize(
        "inst",
        [gen_no_transversal(8)]
        + [gen_random_instance(8, 9, a_size=9, b_size=9, seed=s) for s in range(20)],
        ids=["cyclic8"] + [f"tight{s}" for s in range(20)],
    )
    def test_sparse_vertex_indices_do_not_change_the_search(self, inst):
        # v -> 1000 v + 7 is monotone, so every bundle keeps its pair order,
        # and n_colours <= side on both sides, so the larger universe binds nothing
        spread = make_instance(
            [[(1000 * a + 7, 1000 * b + 7) for a, b in cls.pairs] for cls in inst.classes],
            a_size=10**6,
            b_size=10**6,
        )
        dense, sparse = max_rainbow(inst), max_rainbow(spread)
        back = [(c, (a - 7) // 1000, (b - 7) // 1000) for c, a, b in sparse.best.triples]
        assert (sparse.nodes_explored, sparse.optimal) == (dense.nodes_explored, dense.optimal)
        assert back == list(dense.best.triples)

    def test_a_path_deeper_than_the_recursion_limit_is_a_value_error(self):
        # each class meets the next, and a search nests one call per move
        k = sys.getrecursionlimit() + 200
        inst = make_instance([[(i, i), (i + 1, i + 1)] for i in range(k)])
        with pytest.raises(ValueError, match="recursion limit"):
            max_rainbow(inst)

    def test_node_budget_reported_via_optimal_flag(self):
        inst = gen_drisko(5)  # certified in 34 nodes (test_witness_node_counts_are_pinned)
        rep = max_rainbow(inst, SearchBudget.nodes(20))
        assert not rep.optimal
        assert rep.nodes_explored <= 20
        assert is_rainbow(rep.best)

    def test_zero_node_budget_stops_at_the_root(self):
        # the budget runs out at the root's own entry, before any node is counted
        rep = max_rainbow(gen_drisko(4), SearchBudget(max_nodes=0))
        assert (len(rep.best), rep.optimal, rep.nodes_explored) == (0, False, 0)

    def test_time_budget_stops_at_the_first_clock_check(self):
        # the clock is read every 1024 nodes, so a spent time budget stops there
        rep = max_rainbow(gen_no_transversal(10), SearchBudget(max_time=1e-9))
        assert rep.nodes_explored == 1024
        assert not rep.optimal
        assert is_rainbow(rep.best)

    def test_nan_time_budget_is_rejected(self):
        # no clock reading is past a nan deadline, so it would mean "no limit";
        # inf says that, and zero or negative node budgets keep their meaning
        message = "max_time must be a number of seconds or None, got nan"
        with pytest.raises(ValueError, match=message):
            SearchBudget(max_time=math.nan)
        with pytest.raises(ValueError, match="got nan"):
            SearchBudget(max_nodes=5, max_time=float("nan"))
        assert max_rainbow(gen_drisko(4), SearchBudget(max_time=math.inf)).optimal
        for max_nodes in (0, -1):
            rep = max_rainbow(gen_drisko(4), SearchBudget(max_nodes=max_nodes))
            assert (rep.optimal, rep.nodes_explored) == (False, 0)

    @staticmethod
    def _assert_budget_boundary(inst):
        # N = the nodes of an unlimited search: a budget of N still certifies
        # it and N - 1 stops at the last node, also where that node is
        # counted and pruned in its parent without a call
        full = max_rainbow(inst)
        n = full.nodes_explored
        at = max_rainbow(inst, SearchBudget.nodes(n))
        assert (at.best, at.optimal, at.nodes_explored) == (full.best, True, n)
        assert not max_rainbow(inst, SearchBudget.nodes(n - 1)).optimal

    def test_node_budget_boundary(self):
        for inst in [*_pin_draws(), gen_drisko(5), gen_drisko(6), gen_no_transversal(8)]:
            self._assert_budget_boundary(inst)

    @settings(max_examples=60, deadline=None)
    @given(duplicated_families())
    def test_node_budget_boundary_on_duplicate_classes(self, inst):
        self._assert_budget_boundary(inst)

    @pytest.mark.parametrize("n", [8, 10])
    def test_pruned_children_cost_no_call(self, monkeypatch, n):
        # 154 calls for 369 nodes (n = 8) and 2,579 for 6,292 (n = 10)
        calls = []
        dfs = oracle._Searcher.dfs
        monkeypatch.setattr(
            oracle._Searcher, "dfs", lambda self, *args: calls.append(1) or dfs(self, *args)
        )
        rep = max_rainbow(gen_no_transversal(n))
        assert 2 * len(calls) <= rep.nodes_explored

    def test_deterministic_counters(self):
        inst = gen_drisko(4)
        a = max_rainbow(inst)
        b = max_rainbow(inst)
        assert a.nodes_explored == b.nodes_explored
        assert a.best == b.best

    def test_sequential_results_are_pinned(self):
        # sha256 over (sorted matching triples, optimal, nodes_explored) of
        # workers=1 searches on 300 seeded random instances, unlimited and
        # under node budgets, so a change to the search order or to budget
        # accounting fails here
        digest = hashlib.sha256()
        for inst in _pin_draws():
            for limit in (None, 1, 2, 10, 40):
                digest.update(_pin_line(inst, limit, nodes=True))
        assert digest.hexdigest() == (
            "4aef300b3c62fe484350cd464a58b4c17203e302111b31545228b421f9953b93"
        )

    def test_unlimited_results_are_pinned(self):
        # the same draws at an unlimited budget, without node counts: the
        # optimum, the matching and the certificate, however the search runs
        digest = hashlib.sha256()
        for inst in _pin_draws():
            digest.update(_pin_line(inst, None, nodes=False))
        assert digest.hexdigest() == (
            "1ca725f512a0dd54e808ea4b7198f1558386deca91671f29e327cffe1391cb20"
        )

    def test_distinct_class_results_are_pinned(self):
        # the same draws and budgets, node counts included, on the draws whose
        # classes are all distinct: there the search order is fixed
        digest = hashlib.sha256()
        for inst in _pin_draws():
            if len({cls.pairs for cls in inst.classes}) < inst.n_colours:
                continue
            for limit in (None, 1, 2, 10, 40):
                digest.update(_pin_line(inst, limit, nodes=True))
        assert digest.hexdigest() == (
            "0b10fa2e65250223a036f1b11d722cf80fb2ff1b6fcb456b68aeeeab8205b04e"
        )

    def test_tight_draw_results_are_pinned(self):
        # sweep-tight's shape, 8 classes of 9 edges in a 9 x 9 universe, with
        # node counts: larger than the draws above (n <= 7, m <= 6 in the
        # default universe), and every one of these searches meets its root
        # bound of 8 in mid-search
        digest = hashlib.sha256()
        for seed in range(200):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            for limit in (None, 1, 13, 20, 40):
                digest.update(_pin_line(inst, limit, nodes=True))
        assert digest.hexdigest() == (
            "5afb44d1ec5d30ddd4a412aaf6ca6ffea844afbed290f95195a52d605dcac846"
        )

    @pytest.mark.parametrize(
        "inst, nodes",
        [(gen_drisko(5), 34), (gen_drisko(6), 64), (gen_no_transversal(8), 369)],
        ids=["drisko5", "drisko6", "cyclic8"],
    )
    def test_witness_node_counts_are_pinned(self, inst, nodes):
        rep = max_rainbow(inst, workers=1)
        assert rep.optimal
        assert len(rep.best) == inst.a_size - 1
        assert rep.nodes_explored == nodes

    def test_no_transversal_10_node_count_is_pinned(self):
        # root move 0 takes 6,290 nodes; its orbit holds every other edge move
        rep = max_rainbow(gen_no_transversal(10), workers=1)
        assert rep.optimal and len(rep.best) == 9
        assert rep.nodes_explored == 6_292

    def test_no_transversal_12_certifies_under_a_node_budget(self):
        # about 1.57M nodes without orbital branching
        rep = max_rainbow(gen_no_transversal(12), SearchBudget.nodes(200_000))
        assert rep.optimal and len(rep.best) == 11 and is_rainbow(rep.best)

    @pytest.mark.parametrize(
        "inst", [gen_drisko(8), _relabelled(gen_drisko(7), 7)], ids=["drisko8", "drisko7-relabelled"]
    )
    def test_duplicate_class_witnesses_certify_quickly(self, inst):
        rep = max_rainbow(inst, SearchBudget.nodes(5_000))
        assert rep.optimal
        assert len(rep.best) == inst.a_size - 1
        assert is_rainbow(rep.best)

    @settings(max_examples=60, deadline=None)
    @given(duplicated_families())
    def test_duplicate_classes_keep_the_optimum(self, inst):
        assert len({cls.pairs for cls in inst.classes}) < inst.n_colours
        rep = max_rainbow(inst)
        assert rep.optimal and is_rainbow(rep.best)
        assert all((a, b) in inst.classes[c].pairs for c, a, b in rep.best.triples)
        assert len(rep.best) == len(naive_max_rainbow(inst).best)

    @pytest.mark.parametrize("workers", [2, 0, -1])
    def test_workers_other_than_one_are_rejected(self, workers):
        # one search in this process: workers=1 is the only value accepted
        with pytest.raises(ValueError, match=f"workers must be 1, got {workers}"):
            max_rainbow(gen_drisko(3), workers=workers)


def _forced_trigger_cases():
    """(instance, known optimum or None): the pin draws, relabelled witnesses and random squares."""
    for inst in _pin_draws():
        yield inst, None
    for n in (4, 6, 8):
        yield _relabelled(gen_no_transversal(n), n), n - 1
    for n in range(3, 8):
        yield _relabelled(gen_drisko(n), n), n - 1
    for n in range(2, 9):
        for seed in (1, 2):
            yield latin_to_instance(gen_random_latin(n, seed)), None


def _naive_is_small(inst):
    # naive_max_rainbow's guard admits latin8, whose 9**8 selections take
    # minutes to enumerate; this keeps 260 of the 314 cases at under 1 s
    return inst.n_colours <= 8 and math.prod(len(cls) + 1 for cls in inst.classes) <= 20_000


class TestOrbitalBranching:
    def test_forced_trigger_keeps_best_and_optimal(self, monkeypatch):
        # orbits computed at the first root move of every search: best and
        # optimal equal those of the search that never asks for orbits
        pruned = 0
        for inst, optimum in _forced_trigger_cases():
            with monkeypatch.context() as m:
                m.setattr(oracle, "_ORBIT_NODES", math.inf)
                plain = max_rainbow(inst)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_ORBIT_NODES", 0)
                forced = max_rainbow(inst)
            assert (forced.best, forced.optimal) == (plain.best, plain.optimal)
            assert plain.optimal and is_rainbow(plain.best)
            if optimum is not None:
                assert len(plain.best) == optimum
            elif _naive_is_small(inst):
                assert len(plain.best) == len(naive_max_rainbow(inst).best)
            pruned += forced.nodes_explored < plain.nodes_explored
        assert pruned >= 3  # the relabelled cyclic witnesses at least

    def test_orbits_are_asked_for_once_and_only_for_a_one_colour_root(self, monkeypatch):
        calls = []
        orbits = oracle.root_orbits
        monkeypatch.setattr(oracle, "root_orbits", lambda *args: calls.append(args) or orbits(*args))
        monkeypatch.setattr(oracle, "_ORBIT_NODES", 0)
        max_rainbow(gen_drisko(6))  # each bundle holds five identical colours
        assert calls == []
        max_rainbow(gen_no_transversal(6))
        assert len(calls) == 1

    @staticmethod
    def _counting_orbit_calls(monkeypatch):
        calls = []
        orbits = oracle.root_orbits
        monkeypatch.setattr(oracle, "root_orbits", lambda *args: calls.append(args) or orbits(*args))
        return calls

    def test_a_search_that_met_its_bound_asks_for_no_orbits(self, monkeypatch):
        # this square's root is still being searched after _ORBIT_NODES, but
        # it has met its bound of 12 by then: asking for orbits there would
        # cost a capped root_orbits call, several times the search itself
        calls = self._counting_orbit_calls(monkeypatch)
        rep = max_rainbow(latin_to_instance(gen_random_latin(12, 4)))
        assert rep.nodes_explored == 444 > oracle._ORBIT_NODES
        assert rep.optimal and len(rep.best) == 12
        assert calls == []

    def test_tight_draws_ask_for_no_orbits(self, monkeypatch):
        # the draws of test_tight_draw_results_are_pinned, sweep-tight's shape
        calls = self._counting_orbit_calls(monkeypatch)
        for seed in range(200):
            max_rainbow(gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed))
        assert calls == []


class TestNaiveMaxRainbow:
    def test_single_class_caps_at_one(self):
        rep = naive_max_rainbow(make_instance([[(0, 0), (1, 1)]]))
        assert len(rep.best) == 1

    def test_two_identical_classes(self):
        rep = naive_max_rainbow(make_instance([[(0, 0), (1, 1)], [(0, 0), (1, 1)]]))
        assert len(rep.best) == 2

    def test_crossing_pair_counterexample(self):
        inst = make_instance([[(0, 0), (1, 1)], [(0, 1), (1, 0)]])
        assert len(naive_max_rainbow(inst).best) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            naive_max_rainbow(gen_random_instance(9, 2, seed=0))
        with pytest.raises(ValueError):
            naive_max_rainbow(gen_random_instance(2, 9, a_size=12, b_size=12, seed=0))


class TestOracleInvariants:
    def test_equivalence_with_naive_on_small_instances(self):
        rng = random.Random(99)
        for _ in range(300):
            inst = gen_random_instance(
                rng.randint(1, 3), rng.randint(1, 3), seed=rng.getrandbits(32)
            )
            assert len(max_rainbow(inst).best) == len(naive_max_rainbow(inst).best)

    def test_upper_bound_sanity(self):
        rng = random.Random(4)
        for _ in range(100):
            inst = gen_random_instance(
                rng.randint(1, 5), rng.randint(1, 5), seed=rng.getrandbits(32)
            )
            size = len(max_rainbow(inst).best)
            assert size <= min(inst.n_colours, max(inst.a_size, inst.b_size))
            assert size <= min(inst.a_size, inst.b_size)

    def test_monotone_under_edge_insertion(self):
        rng = random.Random(123)
        for _ in range(60):
            inst = gen_random_instance(
                rng.randint(1, 4), rng.randint(1, 3), seed=rng.getrandbits(32)
            )
            before = len(max_rainbow(inst).best)
            colour = rng.randrange(inst.n_colours)
            pairs = [list(cls.pairs) for cls in inst.classes]
            used_a = {a for a, _ in pairs[colour]}
            used_b = {b for _, b in pairs[colour]}
            free_a = [a for a in range(inst.a_size) if a not in used_a]
            free_b = [b for b in range(inst.b_size) if b not in used_b]
            if not free_a or not free_b:
                continue
            pairs[colour].append((rng.choice(free_a), rng.choice(free_b)))
            bigger = make_instance(pairs, a_size=inst.a_size, b_size=inst.b_size)
            assert validate_instance(bigger) == []
            assert len(max_rainbow(bigger).best) >= before


class TestEstimates:
    def test_f2_m2_finds_counterexample(self):
        report = estimate_mu(2, 0, 2, "exhaustive")
        assert report.counterexample_found
        inst = report.counterexample
        assert all(len(cls) >= 2 for cls in inst.classes)
        assert len(max_rainbow(inst).best) < 2

    def test_f2_m3_proves_upper_bound(self):
        report = estimate_mu(2, 0, 3, "exhaustive")
        assert not report.counterexample_found
        assert report.instances_checked == 2400  # C(6,3)^2 * 3! candidates

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError):
            estimate_mu(3, 0, 3, "exhaustive")
        with pytest.raises(ValueError):
            estimate_mu(7, 0, 8, "randomized", trials=1)

    def test_trial_count_must_check_something(self):
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials"):
                estimate_mu(3, 0, 3, "randomized", trials=trials)
        with pytest.raises(ValueError, match="trials"):
            estimate_mu(2, 0, 2, "exhaustive", trials=-1)
        assert estimate_mu(2, 0, 2, "exhaustive", trials=0).counterexample_found

    def test_f2_m1_randomized_sweep_finds_counterexample(self):
        report = estimate_mu(2, 0, 1, "randomized", trials=50, seed=0)
        assert report.counterexample_found
        assert report.instances_checked == 4
        inst = report.counterexample
        assert [len(cls) for cls in inst.classes] == [1, 1]
        assert validate_instance(inst) == []
        assert len(max_rainbow(inst).best) < 2

    def test_f3_m4_randomized_sweep_finds_nothing(self):
        report = estimate_mu(3, 0, 4, "randomized", trials=100_000, seed=20240816)
        assert not report.counterexample_found
        assert report.instances_checked == 100_000

    def test_mu_with_ell_zero_is_f(self, tmp_path):
        # `experiment f` is the program's f sweep: the mu sweep at ell = 0
        def record(m, *args):
            result = CliRunner().invoke(main, [
                "experiment", *args, "--n", "2", "--m", str(m), "--mode", "exhaustive",
                "--format", "json", "--witness-dir", str(tmp_path),
            ])
            assert result.exit_code == 0
            return {k: v for k, v in json.loads(result.stdout).items() if k != "elapsed_ms"}

        for m in (2, 3):
            assert record(m, "f") == record(m, "mu", "--ell", "0")

    def test_mu_2_1_1_never_fails(self):
        report = estimate_mu(2, 1, 1, "exhaustive")
        assert not report.counterexample_found

    def test_mu_4_1_6_randomized(self):
        report = estimate_mu(4, 1, 6, "randomized", trials=2000, seed=7)
        assert not report.counterexample_found

    def test_ell_bounds(self):
        with pytest.raises(ValueError):
            estimate_mu(2, 2, 2, "exhaustive")
        with pytest.raises(ValueError):
            estimate_mu(2, -1, 2, "exhaustive")


class TestCsv:
    def test_column_order_and_values(self):
        report = estimate_mu(2, 0, 2, "exhaustive")
        text = reports_to_csv([report])
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        assert row[:7] == ["2", "2", "0", "exhaustive", "0", "0", "true"]
        assert row[7] == str(report.instances_checked)
