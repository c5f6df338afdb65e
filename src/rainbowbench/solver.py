"""Constructive pipeline: greedy start, switch-based augmentation, oracle fallback."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache

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
    first conflict-free edge, if any. The shuffle depends only on (seed,
    n_colours), so _tie_order caches it, and it is sorted by a list of the
    class sizes.
    """
    sizes = [len(cls.pairs) for cls in inst.classes]
    # sorted is stable: the seeded tie-break survives
    order = sorted(_tie_order(seed, inst.n_colours), key=sizes.__getitem__)
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


@lru_cache(maxsize=64, typed=True)
def _tie_order(seed: int, n: int) -> tuple[int, ...]:
    """random.Random(seed).shuffle of range(n), as a tuple: the cached value cannot change.

    Typed, since -5 == -5.0 as keys but Random seeds an int by its absolute
    value and a float by its hash.
    """
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return tuple(order)


def augment(
    inst: Instance, r: RainbowMatching, budget: SearchBudget = SearchBudget.unlimited()
) -> RainbowMatching | None:
    """Search for a rainbow matching of size |r| + 1 via switch exchanges.

    Each unused colour in ascending order is relabelled to colour 0, and the
    relaxed-mode state space rooted at r is searched depth first. Unlike
    extend_state, which takes only the first outcome of step_outcomes, the
    search branches over every Extended outcome; sibling outcomes extend pi by
    distinct colours of r outside it, so no state is reached twice and every
    path ends within n - 1 steps. Exploration order is deterministic; the node
    budget counts the distinct states visited over the whole call, and both
    budgets are checked at every state. None means not found within budget,
    never a proof of optimality.
    """
    if not 0 <= len(r) < inst.n_colours:
        return None
    deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
    nodes = 0

    def dfs(st: SwitchState) -> RainbowMatching | None:
        nonlocal nodes
        nodes += 1
        if budget.max_nodes is not None and nodes > budget.max_nodes:
            raise SearchBudget.Spent
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchBudget.Spent
        try:
            for outcome in step_outcomes(st):
                if isinstance(outcome, Augmented):
                    return outcome.matching
                found = dfs(outcome.state)
                if found is not None:
                    return found
        except ThresholdInfeasible:
            # raised by this node's step before its first outcome (children catch
            # their own): an empty fresh pool is a dead end here only
            return None
        return None

    unused = sorted(set(range(inst.n_colours)) - set(r.colours()))
    try:
        for c0 in unused:
            inst0 = swap_colours(inst, 0, c0)
            r0 = swap_matching_colours(r, 0, c0)
            found = dfs(initial_state(inst0, r0, AUGMENT_EPS))
            if found is not None:
                return swap_matching_colours(found, 0, c0)
    except SearchBudget.Spent:
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
    below the greedy matching. workers must be 1, as in max_rainbow, whether
    or not the oracle runs.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
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
    report = max_rainbow(inst, budget)
    if len(report.best) >= len(r):
        return SolveResult(report.best, "oracle", steps, report.optimal)
    # budget cut the oracle short of even the constructive result
    return SolveResult(r, "oracle", steps, False)
