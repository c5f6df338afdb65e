import hashlib
import random

import pytest

from rainbowbench.core import free_colour_zero, is_rainbow, make_instance, matching_to_json
from rainbowbench.gen import gen_drisko, gen_no_transversal, gen_random_instance
from rainbowbench.oracle import SearchBudget, max_rainbow
from rainbowbench.proofkit import Epsilon, run_switch_trace, trace_to_json
from rainbowbench import solver
from rainbowbench.solver import augment, greedy_rainbow, solve

BUDGET = SearchBudget.nodes(100_000)


class TestGreedy:
    def test_single_class(self):
        assert len(greedy_rainbow(make_instance([[(0, 0)]]), 0)) == 1

    def test_two_identical_classes(self):
        inst = make_instance([[(0, 0), (1, 1)], [(0, 0), (1, 1)]])
        assert len(greedy_rainbow(inst, 0)) == 2

    def test_drisko3_stalls_at_optimum(self):
        inst = gen_drisko(3)
        g = greedy_rainbow(inst, 0)
        assert len(g) == 2
        assert len(max_rainbow(inst).best) == 2

    def test_maximal_by_inclusion(self):
        rng = random.Random(1)
        for _ in range(60):
            inst = gen_random_instance(
                rng.randint(1, 5), rng.randint(1, 5), seed=rng.getrandbits(32)
            )
            r = greedy_rainbow(inst, rng.randrange(100))
            assert is_rainbow(r)
            used_a = {ce.a.index for ce in r}
            used_b = {ce.b.index for ce in r}
            used_c = r.colours()
            for c in range(inst.n_colours):
                if c in used_c:
                    continue
                for a, b in inst.class_pairs(c):
                    assert a in used_a or b in used_b

    def test_deterministic_per_seed(self):
        inst = gen_random_instance(5, 5, seed=11)
        assert greedy_rainbow(inst, 3) == greedy_rainbow(inst, 3)

    def test_order_over_mixed_class_sizes_is_pinned(self):
        # sha256 over greedy's triples for 200 families of up to 8 matchings of
        # sizes 1-6 in a 10 x 10 universe, at three tie seeds; gen_random_instance
        # draws equal sizes, so only these pin the ascending-size sort key
        digest = hashlib.sha256()
        mixed = 0
        for family in range(200):
            rng = random.Random(family)
            classes = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, 6)
                classes.append(zip(rng.sample(range(10), size), rng.sample(range(10), size)))
            inst = make_instance(classes, a_size=10, b_size=10)
            mixed += len({len(cls.pairs) for cls in inst.classes}) > 1
            for seed in (0, 1, -3):
                digest.update(f"{greedy_rainbow(inst, seed).triples}|".encode())
        assert mixed > 150
        assert digest.hexdigest() == (
            "5ca63cb61c91b10fd1f9abe2ad37e4b6f5da7fef2ed6db2914435ae11b8e165d"
        )


class TestTieOrder:
    @staticmethod
    def shuffled(seed, n):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        return tuple(order)

    def test_is_a_fresh_seeded_shuffle(self):
        for seed in (0, 1, 3, 7, -7, 2**40, 37 * 2**32 + 5):
            for n in (0, 1, 2, 5, 8, 9, 30):
                assert solver._tie_order(seed, n) == self.shuffled(seed, n)

    def test_same_seed_at_different_n(self):
        for n in (9, 5, 9, 30, 5):
            assert solver._tie_order(11, n) == self.shuffled(11, n)

    def test_cached_value_is_a_tuple(self):
        first = solver._tie_order(4, 12)
        assert isinstance(first, tuple)
        assert solver._tie_order(4, 12) is first

    def test_negative_float_seed_is_not_read_as_its_int(self):
        # Random seeds -5 by its absolute value and -5.0 by its hash
        assert solver._tie_order(-5, 12) == self.shuffled(5, 12)
        assert solver._tie_order(-5.0, 12) == self.shuffled(-5.0, 12)
        assert self.shuffled(-5.0, 12) != self.shuffled(5, 12)

    def test_greedy_reads_the_cached_order(self):
        inst = gen_random_instance(6, 4, seed=3)
        greedy_rainbow(inst, 123_456)
        hits = solver._tie_order.cache_info().hits
        assert greedy_rainbow(inst, 123_456) == greedy_rainbow(inst, 123_456)
        assert solver._tie_order.cache_info().hits == hits + 2


class TestAugment:
    def test_immediate_unused_colour_edge(self):
        # an unused colour with an edge between unsaturated vertices gives an
        # instant one-step augmentation (degenerate, empty chain)
        from rainbowbench.core import make_matching

        inst = make_instance([[(3, 3)], [(5, 5), (0, 1)]], a_size=7, b_size=7)
        r = make_matching([(1, 0, 1)])  # colour 0's edge (3, 3) is fully unsaturated
        out = augment(inst, r, BUDGET)
        assert out is not None and len(out) == 2

    def test_drisko3_cannot_augment_and_oracle_agrees(self):
        inst = gen_drisko(3)
        r = greedy_rainbow(inst, 0)
        assert augment(inst, r, BUDGET) is None
        rep = max_rainbow(inst)
        assert rep.optimal and len(rep.best) == 2

    def test_output_is_one_larger_and_rainbow(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(300):
            inst = gen_random_instance(4, 5, 6, 6, seed=rng.getrandbits(32))
            r = greedy_rainbow(inst, 0)
            out = augment(inst, r, BUDGET)
            if out is not None:
                hits += 1
                assert is_rainbow(out)
                assert len(out) == len(r) + 1
        assert hits > 0  # the distribution produces augmentable instances

    def test_gap_regression_floor(self):
        # measured on first build: augment resolves >= 95% of greedy-vs-oracle
        # gaps on moderately slack instances (m = n + 1, universe n + 2)
        rng = random.Random(424242)
        gaps = resolved = 0
        for _ in range(1500):
            n = rng.choice((4, 5))
            inst = gen_random_instance(n, n + 1, n + 2, n + 2, seed=rng.getrandbits(48))
            r = greedy_rainbow(inst, 0)
            opt = len(max_rainbow(inst).best)
            if opt > len(r):
                gaps += 1
                if augment(inst, r, BUDGET) is not None:
                    resolved += 1
        assert gaps > 50  # the regime really produces gaps
        assert resolved >= 0.95 * gaps

    def test_spec_distribution_sweep(self):
        # m = 2n leaves so much slack that greedy already matches the oracle;
        # any gap that does appear must be closed within the node budget
        rng = random.Random(7)
        gaps = resolved = 0
        for _ in range(10_000):
            n = rng.randint(2, 5)
            inst = gen_random_instance(n, 2 * n, seed=rng.getrandbits(48))
            r = greedy_rainbow(inst, 0)
            opt = len(max_rainbow(inst).best)
            if opt > len(r):
                gaps += 1
                if augment(inst, r, BUDGET) is not None:
                    resolved += 1
        assert resolved >= 0.95 * gaps

    def test_failing_search_builds_one_state_per_unused_colour(self, monkeypatch):
        # one DFS per unused colour, so one root state each
        inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=1)
        r = greedy_rainbow(inst)
        assert len(r) < inst.n_colours
        roots = []
        real = solver.initial_state
        monkeypatch.setattr(solver, "initial_state", lambda *a: roots.append(a) or real(*a))
        assert augment(inst, r, SearchBudget.unlimited()) is None
        assert len(roots) == inst.n_colours - len(r)

    def test_found_or_not_found_is_pinned(self):
        # sha256 over (seed, size of the augmented matching or "-") for 200
        # tight-universe greedy starts, recorded under iterative deepening;
        # any order of search over the same state space must agree
        digest = hashlib.sha256()
        found = 0
        for seed in range(200):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            out = augment(inst, greedy_rainbow(inst), SearchBudget.unlimited())
            found += out is not None
            digest.update(f"{seed}|{'-' if out is None else len(out)};".encode())
        assert found == 65
        assert digest.hexdigest() == (
            "5323599552857f8043d106ea04a907a75a92444e55fa9961b4c87d23ad755eb4"
        )

    def test_node_budget_cuts_the_search_off(self):
        # the augmenting matching lies one state below the root
        inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=2)
        r = greedy_rainbow(inst, 0)
        assert len(r) == 7
        assert augment(inst, r, SearchBudget.nodes(1)) is None
        found = augment(inst, r, SearchBudget.nodes(2))
        assert len(found) == 8 and is_rainbow(found)

    def test_zero_node_budget_stops_at_the_first_state(self):
        # the augmenting matching lies one state below the root
        inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=2)
        r = greedy_rainbow(inst, 0)
        assert augment(inst, r, SearchBudget(max_nodes=0)) is None
        res = solve(inst, 8, SearchBudget(max_nodes=0))
        assert (res.matching, res.method, res.certified_optimal) == (r, "oracle", False)

    def test_node_budget_spans_the_searches_of_all_unused_colours(self):
        # colour 3's search fails after 3 states and colour 5's root augments,
        # so a count restarted per colour would find the matching within 3
        inst = gen_random_instance(6, 6, a_size=6, b_size=6, seed=36)
        r = greedy_rainbow(inst, 0)
        assert len(r) == 4 and sorted(set(range(6)) - set(r.colours())) == [3, 5]
        assert augment(inst, r, SearchBudget.nodes(3)) is None
        found = augment(inst, r, SearchBudget.nodes(4))
        assert len(found) == 5 and is_rainbow(found)

    def test_time_budget_is_checked_at_every_state(self):
        # the augmenting matching lies one state below the root, so only a
        # deadline checked at the first state stops this search
        inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=2)
        r = greedy_rainbow(inst, 0)
        assert augment(inst, r, SearchBudget(max_time=1e-9)) is None
        res = solve(inst, 8, SearchBudget(max_time=1e-9), oracle_fallback=False)
        assert res.method == "greedy" and res.matching == r

    def test_full_matching_cannot_grow(self):
        inst = make_instance([[(0, 0)], [(1, 1)]])
        from rainbowbench.core import make_matching

        assert augment(inst, make_matching([(0, 0, 0), (1, 1, 1)]), BUDGET) is None


class TestSolve:
    def test_target_one(self):
        res = solve(make_instance([[(0, 0)]]), target=1, budget=BUDGET)
        assert len(res.matching) >= 1 and res.method == "greedy"

    def test_drisko4_target_misses_and_oracle_certifies(self):
        inst = gen_drisko(4)
        res = solve(inst, target=4, budget=BUDGET, oracle_fallback=True)
        assert len(res.matching) == 3
        assert res.method == "oracle"
        assert res.certified_optimal

    def test_never_below_greedy(self):
        rng = random.Random(14)
        for _ in range(100):
            inst = gen_random_instance(4, 4, 6, 6, seed=rng.getrandbits(32))
            g = greedy_rainbow(inst, 5)
            res = solve(inst, target=4, budget=BUDGET, seed=5, oracle_fallback=False)
            assert len(res.matching) >= len(g)
            assert is_rainbow(res.matching)

    def test_deterministic(self):
        inst = gen_random_instance(5, 6, 8, 8, seed=3)
        a = solve(inst, target=5, budget=BUDGET, seed=2)
        b = solve(inst, target=5, budget=BUDGET, seed=2)
        assert a == b

    def test_spot_sweep_at_heavy_sizes(self):
        # spot check of the full acceptance sweep: m = ceil(3n/2) + 1
        rng = random.Random(100)
        for _ in range(2000):
            n = rng.choice((3, 4, 5))
            m = -(-3 * n // 2) + 1
            inst = gen_random_instance(n, m, seed=rng.getrandbits(48))
            res = solve(inst, target=n, budget=SearchBudget.nodes(20_000))
            assert len(res.matching) == n

    def test_stall_costs_one_augment_call(self, monkeypatch):
        calls = []
        real = solver.augment
        monkeypatch.setattr(solver, "augment", lambda *a: calls.append(a) or real(*a))
        res = solve(gen_drisko(3), target=3, budget=BUDGET)
        assert len(calls) == res.augment_steps + 1

    def test_oracle_cut_short_keeps_the_constructive_matching(self):
        # one node finds nothing, so the greedy 9 of the no-transversal square stays
        res = solve(gen_no_transversal(10), 10, SearchBudget.nodes(1))
        assert res.method == "oracle"
        assert len(res.matching) == 9 and is_rainbow(res.matching)
        assert not res.certified_optimal

    def test_certified_only_by_oracle(self):
        inst = gen_random_instance(3, 5, seed=0)
        res = solve(inst, target=3, budget=BUDGET, oracle_fallback=False)
        assert not res.certified_optimal

    def test_target_above_n_colours_rejected(self):
        with pytest.raises(ValueError):
            solve(make_instance([[(0, 0)]]), target=2, budget=BUDGET)

    def test_tight_universe_results_are_pinned(self):
        # sha256 over (method, augment_steps, canonical matching JSON) of 50
        # tight-universe solves, where greedy, augment and the oracle each
        # settle a share; recorded before augment became a search over
        # proofkit.step_outcomes, so any change in which matching is found fails
        digest = hashlib.sha256()
        methods = set()
        for seed in range(50):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            res = solve(inst, target=8, budget=BUDGET)
            methods.add(res.method)
            digest.update(
                f"{res.method}|{res.augment_steps}|{matching_to_json(res.matching)}".encode()
            )
        assert methods == {"greedy", "augmented", "oracle"}
        assert digest.hexdigest() == (
            "ec54e08304711bdb5a20f0c6585cc1d9c710985a84fec39f2d91ba8ab65895a5"
        )

    def test_switch_engine_outputs_are_pinned(self):
        # sha256 over, per tight-universe draw: the greedy triples, the solve
        # result (method, augment_steps, canonical matching JSON) and, when
        # greedy falls short, the trace JSON of the switch engine run from the
        # greedy start with colour 0 freed; recorded before the engine moved
        # to integer state, so any change in what the engine derives fails
        eps = Epsilon.parse("1")
        digest = hashlib.sha256()
        traces = 0
        for seed in range(300):
            inst = gen_random_instance(8, 9, a_size=9, b_size=9, seed=seed)
            r = greedy_rainbow(inst)
            res = solve(inst, target=8, budget=BUDGET)
            digest.update(f"{[ce.triple for ce in r.sorted_edges()]}|".encode())
            digest.update(
                f"{res.method}|{res.augment_steps}|{matching_to_json(res.matching)}".encode()
            )
            if len(r) < inst.n_colours:
                inst0, r0, _ = free_colour_zero(inst, r)
                digest.update(trace_to_json(run_switch_trace(inst0, r0, eps)).encode())
                traces += 1
        assert traces == 213
        assert digest.hexdigest() == (
            "dc26da382265cddbf4780f70917f9168dff75b5c0cc67e5d477c2337170d2d64"
        )
