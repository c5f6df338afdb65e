"""Constructive pipeline: greedy start, switch-based augmentation, oracle fallback."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .core import (
    Instance,
    RainbowMatching,
    make_matching,
    neighbourhood_along,  # unused here, but perfbench's tracer patches solver.neighbourhood_along
    swap_colours,
    swap_matching_colours,
)
from .oracle import SearchBudget, max_rainbow
from .proofkit import (
    Augmented,
    Epsilon,
    SwitchState,
    ThresholdInfeasible,
    initial_state,
    step_outcomes,
)

MAX_AUGMENT_DEPTH = 8
AUGMENT_EPS = Epsilon.parse("1")  # relaxed mode: eps sets only the state's t


@dataclass(frozen=True)
class SolveResult:
    matching: RainbowMatching
    method: str  # "greedy" | "augmented" | "oracle"
    augment_steps: int
    certified_optimal: bool


def greedy_rainbow(inst: Instance, seed: int = 0) -> RainbowMatching:
    """Maximal-by-inclusion rainbow matching; deterministic per seed.

    Colours are processed in ascending class-size order (seeded shuffle breaks
    ties), edges inside a colour in lexicographic order; each colour takes its
    first conflict-free edge, if any.
    """
    rng = random.Random(seed)
    order = list(range(inst.n_colours))
    rng.shuffle(order)
    order.sort(key=lambda c: len(inst.classes[c]))  # stable: seeded tie-break survives
    used_a: set[int] = set()
    used_b: set[int] = set()
    chosen: list[tuple[int, int, int]] = []
    for c in order:
        for a, b in inst.classes[c].pairs:
            if a not in used_a and b not in used_b:
                used_a.add(a)
                used_b.add(b)
                chosen.append((c, a, b))
                break
    return make_matching(chosen)


class _BudgetExhausted(Exception):
    pass


class _AugmentSearch:
    """Depth-capped DFS over relaxed switch states.

    One node = one visited state. Unlike extend_state, which takes only the
    first outcome of step_outcomes, the search branches over every Extended
    outcome. Sibling outcomes extend by distinct r-edges, so no state is
    reached twice. The time budget is checked every 256 nodes.
    """

    def __init__(self, budget: SearchBudget) -> None:
        self.max_nodes = budget.max_nodes
        self.deadline = (
            None if budget.max_time is None else time.perf_counter() + budget.max_time
        )
        self.nodes = 0

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExhausted
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.perf_counter() > self.deadline:
                raise _BudgetExhausted

    def dfs(self, st: SwitchState, depth: int) -> RainbowMatching | None:
        self._tick()
        try:
            for outcome in step_outcomes(st):
                if isinstance(outcome, Augmented):
                    return outcome.matching
                if depth == 0:
                    return None
                found = self.dfs(outcome.state, depth - 1)
                if found is not None:
                    return found
        except ThresholdInfeasible:
            # raised by this node's step before its first outcome (children catch
            # their own): an empty fresh pool is a dead end here only
            return None
        return None


def augment(
    inst: Instance, r: RainbowMatching, budget: SearchBudget = SearchBudget.unlimited()
) -> RainbowMatching | None:
    """Search for a rainbow matching of size |r| + 1 via switch exchanges.

    Each unused colour in ascending order is relabelled to colour 0, and the
    relaxed-mode state space rooted at r is searched once, depth first, with
    sequences capped at min(n - 1, 8) steps. Exploration order is
    deterministic; the node budget counts the distinct states visited over the
    whole call. None means not found within budget, never a proof of
    optimality.
    """
    if not 0 <= len(r) < inst.n_colours:
        return None
    unused = sorted(set(range(inst.n_colours)) - set(r.colours()))
    max_depth = min(inst.n_colours - 1, MAX_AUGMENT_DEPTH)
    search = _AugmentSearch(budget)
    try:
        for c0 in unused:
            inst0 = swap_colours(inst, 0, c0)
            r0 = swap_matching_colours(r, 0, c0)
            found = search.dfs(initial_state(inst0, r0, AUGMENT_EPS), max_depth)
            if found is not None:
                return swap_matching_colours(found, 0, c0)
    except _BudgetExhausted:
        return None
    return None


def solve(
    inst: Instance,
    target: int,
    budget: SearchBudget = SearchBudget.unlimited(),
    seed: int = 0,
    oracle_fallback: bool = True,
    workers: int = 1,
) -> SolveResult:
    """Greedy start, repeated augmentation, then optional exact-oracle fallback.

    Augmentation runs until it stalls or reaches the target; a stall goes to
    the oracle (when enabled) with the same budget. certified_optimal is set
    only when the oracle exhausted its search space. The result never falls
    below the greedy matching.
    """
    if target < 1:
        raise ValueError(f"need target >= 1, got {target}")
    if target > inst.n_colours:
        raise ValueError(f"target {target} exceeds n_colours {inst.n_colours}")
    r = greedy_rainbow(inst, seed)
    method = "greedy"
    steps = 0
    while len(r) < target:
        improved = augment(inst, r, budget)
        if improved is None:
            break
        r = improved
        method = "augmented"
        steps += 1
    if len(r) >= target or not oracle_fallback:
        return SolveResult(r, method, steps, False)
    report = max_rainbow(inst, budget, workers=workers)
    if len(report.best) >= len(r):
        return SolveResult(report.best, "oracle", steps, report.optimal)
    # budget cut the oracle short of even the constructive result
    return SolveResult(r, "oracle", steps, False)
