"""Exact maximum rainbow matching search and empirical threshold sweeps.

max_rainbow is the ground-truth engine: depth-first branch and bound over
bundles of identical colour classes, each taking its edges in ascending order
so that no permutation of identical colours is searched twice. A bundle's
candidates are one integer bitmask over its own sorted pairs. Each vertex has
a row, a dict from each bundle with pairs at the vertex to their mask; a move
reads the rows ka and kb of its edge's two ends once, and a child keeps
u_mask & ~(ka.get(u, 0) | kb.get(u, 0)) of each bundle u. The branch is the
bundle with the fewest candidate edges, "skip this bundle" is tried last, and
the admissible bound is size + min(sum of min(capacity, candidates), a_size -
size, b_size - size). A node is counted and bounded by its parent before any
call; the parent, which builds the node's bundles, hands it its branch too,
and only a node that beats the bound is searched by a recursive call, one per
move on the path. Node counts are those of a search that calls every child.
Once a search is expensive it also prunes symmetric root moves (orbital
branching, Ostrowski, Linderoth, Rossi and Smriglio, Math. Prog. 2011) with
automorphisms that symmetry.root_orbits has verified; see max_rainbow.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, field
from io import StringIO
from typing import Iterable, Literal

from .core import Instance, RainbowMatching, make_instance, make_matching
from .gen import gen_random_instance
from .symmetry import Bundle, root_orbits

SweepMode = Literal["exhaustive", "randomized"]

CSV_COLUMNS = (
    "n",
    "m",
    "ell",
    "mode",
    "trials",
    "seed",
    "counterexample_found",
    "instances_checked",
    "elapsed_ms",
)


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits; None means unbounded, as an inf max_time does.

    The node budget is checked at every search node, so node counts are
    reproducible for a fixed budget. The time budget is checked every 1024
    nodes by max_rainbow, a hot loop, and at every state by solver.augment,
    whose states cost far more than a clock read. A search raises Spent
    where a budget runs out; neither search lets it escape.
    """

    class Spent(Exception):
        """A search's node or time budget ran out."""

    max_nodes: int | None = None
    max_time: float | None = None

    def __post_init__(self) -> None:
        # no clock reading is past a nan deadline, so nan would silently mean "no limit"
        if self.max_time is not None and math.isnan(self.max_time):
            raise ValueError(f"max_time must be a number of seconds or None, got {self.max_time}")

    @classmethod
    def unlimited(cls) -> "SearchBudget":
        return cls(None, None)

    @classmethod
    def nodes(cls, max_nodes: int) -> "SearchBudget":
        return cls(max_nodes=max_nodes)


@dataclass(frozen=True)
class SearchReport:
    best: RainbowMatching
    optimal: bool
    nodes_explored: int


# nodes the search spends before it looks for symmetric root moves, see _Searcher.dfs
_ORBIT_NODES = 256


def _rows(bundles: list[Bundle]) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
    """The rows of the A-vertices and of the B-vertices of the pairs, in one pass.

    A vertex's row maps each bundle t with a pair at the vertex to the mask
    of those pairs, bit j for bundles[t]'s pairs[j]. A row holds only the
    bundles that meet its vertex, so set-up grows with the pairs, never with
    the bundles times the vertices nor with the universe.
    """
    row_a: dict[int, dict[int, int]] = {}
    row_b: dict[int, dict[int, int]] = {}
    for t, (pairs, _) in enumerate(bundles):
        bit = 1
        for a, b in pairs:
            ka = row_a.get(a)
            if ka is None:
                row_a[a] = {t: bit}
            else:
                ka[t] = ka.get(t, 0) | bit
            kb = row_b.get(b)
            if kb is None:
                row_b[b] = {t: bit}
            else:
                kb[t] = kb.get(t, 0) | bit
            bit <<= 1
    return row_a, row_b


@dataclass(slots=True)
class _Searcher:
    """Branch-and-bound state of the search.

    Bundle t is bundles[t], numbered by its lowest colour. row_a and row_b are
    the _rows of the A-ends and the B-ends; side is min(a_size, b_size). The
    parent enters a node before any call: the node-budget check, the count,
    the clock read and the best update, then the bound. dfs is called only for
    a node that beats the bound, so the counts, the stops and best are those
    of a search that calls every child. Once best_size meets a node's own
    bound, size + min(room, side - size), the node enters each remaining move
    as before but builds no child: taking an edge lowers room by at least one,
    so no child can beat best. max_rainbow enters the root and catches
    SearchBudget.Spent.
    """

    bundles: list[Bundle]
    row_a: dict[int, dict[int, int]]
    row_b: dict[int, dict[int, int]]
    side: int
    max_nodes: int | None
    deadline: float | None
    nodes: int = 0
    best_size: int = 0
    best_sel: list[tuple[int, int, int]] = field(default_factory=list)

    def dfs(
        self,
        branch: tuple[int, int, int, int, int],
        rest: list[tuple[int, int, int, int, int]],
        chosen: list[tuple[int, int, int]],
        room: int,
        root: bool = False,
    ) -> None:
        """Branch at one entered node on branch, which its parent chose; root marks the root.

        A node's bundles are branch and rest, a (count, t, mask, cap, weight)
        per bundle t with a candidate left: mask is its edges disjoint from
        chosen, count their number, cap how many more it may take, weight
        min(cap, count); room is the sum of the weights. branch is the least
        tuple (fewest candidates, ties to the lowest colour); the parent sets
        it aside while it builds the node's bundles, and max_rainbow does so
        for the root. Its moves are its set bits upward, then "skip", which
        drops it and hands the least of rest on. Taking bit j leaves it the
        bits above j and cap - 1, gives the edge (a, b) its next colour, reads
        the rows ka and kb of a and b once, and keeps
        u_mask & ~(ka.get(u, 0) | kb.get(u, 0)) of each other bundle u. A
        child's bound is its size + min(room, side - size). A one-colour root
        bundle's edge moves are pruned by their orbits once _ORBIT_NODES are
        spent, see max_rainbow.
        """
        count, t, left, cap, weight = branch
        pairs, colours = self.bundles[t]
        colour = colours[-cap]
        row_a, row_b = self.row_a, self.row_b
        size = len(chosen)
        # side - size of a child that takes an edge
        head = self.side - (size + 1)
        # this node's own bound, size + min(room, side - size): it beats
        # best_size when dfs is called, and once best_size meets it no child
        # can beat best, so the remaining moves are entered but build nothing
        bound = size + (room if room <= head else head + 1)
        done = False
        reps = None
        for i in range(count + 1):
            low = left & -left
            left ^= low
            if root and low and cap == 1:
                if reps is None and not done and self.nodes >= _ORBIT_NODES:
                    reps = root_orbits(self.bundles, t)
                if reps is not None and reps[i] < i:
                    continue
            if self.max_nodes is not None and self.nodes >= self.max_nodes:
                raise SearchBudget.Spent
            self.nodes += 1
            if self.deadline is not None and self.nodes % 1024 == 0:
                if time.perf_counter() > self.deadline:
                    raise SearchBudget.Spent
            if done:
                continue
            if not low:
                # best_size >= size already: skipping adds no edge, and a
                # child with room left has a bundle in rest
                if size + min(room - weight, head + 1) > self.best_size:
                    least = min(rest)
                    self.dfs(least, [u for u in rest if u is not least], chosen, room - weight)
                return
            a, b = pairs[low.bit_length() - 1]
            ka = row_a[a]
            kb = row_b[b]
            kept = rest + [(0, t, left, cap - 1, 0)] if cap > 1 else rest
            child = []
            child_room = 0
            least = None
            for _, u, u_mask, u_cap, _ in kept:
                m = u_mask & ~(ka.get(u, 0) | kb.get(u, 0))
                if m:
                    n = m.bit_count()
                    w = n if n < u_cap else u_cap
                    child_room += w
                    c = (n, u, m, u_cap, w)
                    # c < least, by ints: bundle numbers are distinct
                    if least is None:
                        least, ln, lu = c, n, u
                    elif n < ln or n == ln and u < lu:
                        child.append(least)
                        least, ln, lu = c, n, u
                    else:
                        child.append(c)
            chosen.append((colour, a, b))
            if size >= self.best_size:
                self.best_size = size + 1
                self.best_sel = list(chosen)
                done = size + 1 >= bound
            if size + 1 + (child_room if child_room < head else head) > self.best_size:
                self.dfs(least, child, chosen, child_room)
                done = self.best_size >= bound
            chosen.pop()


def max_rainbow(
    inst: Instance,
    budget: SearchBudget = SearchBudget.unlimited(),
    workers: int = 1,
) -> SearchReport:
    """Exact maximum rainbow matching search, in this process.

    Classes with equal pairs form one bundle, which gives at most one edge
    per colour, in ascending edge order, so no two orders of identical
    colours are both searched; with distinct classes each bundle is one
    colour. The branch is the bundle with the fewest candidates, and a node's
    bound is size + min(sum over bundles of min(capacity, candidates),
    a_size - size, b_size - size). A node is counted and bounded by its
    parent before any call, and only a node that beats the bound is
    expanded, so nodes_explored counts every node visited, pruned ones
    included, as a search that calls every child would. Once the best size
    meets a node's own bound, its remaining moves are still entered (budget
    check, count, clock and root orbits) but build no children, none of
    which could beat it; so counts, stops and best are unchanged. optimal
    means the search was exhausted within the budget.

    Orbital branching: when the root bundle is one colour and the search has
    spent _ORBIT_NODES (256) nodes by one of its root edge moves before the
    root meets its bound, it gets the root edges' orbits from
    symmetry.root_orbits, once, and skips from then on every edge move i
    whose orbit holds a lower index ("skip this bundle" is never pruned). An
    automorphism g fixing the root colour maps the subtree "the root colour
    takes e" onto "it takes g(e)", so the first optimum-sized selection in
    search order lies under a move never skipped: best is the unpruned
    search's and only nodes_explored changes. A search whose root has met its
    bound, or that is under 256 nodes, counts every move as without the
    trigger. optimal means exhausted up to verified automorphisms.

    Each move on the search path nests one call, so a path deeper than
    sys.getrecursionlimit() (1,000 by default) less the caller's own frames
    raises ValueError, as a JSON value nested too deeply does in
    core.json_value.

    workers must be 1; it is accepted only for callers that still pass it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    groups: dict[tuple[tuple[int, int], ...], list[int]] = {}
    for c, cls in enumerate(inst.classes):
        if cls.pairs:
            groups.setdefault(cls.pairs, []).append(c)
    bundles = list(groups.items())
    deadline = None if budget.max_time is None else time.perf_counter() + budget.max_time
    side = min(inst.a_size, inst.b_size)
    s = _Searcher(bundles, *_rows(bundles), side, budget.max_nodes, deadline)
    root = [
        (len(p), t, (1 << len(p)) - 1, len(c), min(len(p), len(c)))
        for t, (p, c) in enumerate(bundles)
    ]
    try:
        # the root's own entry: the empty selection, bounded above 0 by any bundle
        if budget.max_nodes is not None and budget.max_nodes <= 0:
            raise SearchBudget.Spent
        s.nodes = 1
        if root:
            branch = min(root)
            s.dfs(branch, [u for u in root if u is not branch], [], sum(u[4] for u in root), True)
        optimal = True
    except SearchBudget.Spent:
        optimal = False
    except RecursionError as exc:
        limit = sys.getrecursionlimit()
        raise ValueError(f"search path deeper than the recursion limit of {limit} calls") from exc
    return SearchReport(make_matching(s.best_sel), optimal, s.nodes)


# --- empirical threshold sweeps -------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one f(n)/mu(n, ell) sweep; maps 1:1 onto a CSV row."""

    n: int
    m: int
    ell: int
    mode: str
    trials: int
    seed: int
    counterexample: Instance | None
    instances_checked: int
    elapsed_ms: int

    @property
    def counterexample_found(self) -> bool:
        return self.counterexample is not None


def estimate_mu(
    n: int,
    ell: int,
    m: int,
    mode: SweepMode,
    trials: int = 0,
    seed: int = 0,
) -> SweepReport:
    """Search for a family of n size-m matchings with no rainbow matching of size n - ell.

    Exhaustive mode is complete for n = 2: the first class is canonicalized to
    {a_i b_i : i < m} (vertex relabelling preserves rainbow matchings) and the
    second ranges over every size-m matching in the 2m x 2m universe, so the
    absence of a counterexample proves mu(2, ell) <= m; it ignores trials.
    Randomized mode (n <= 6, trials >= 1) samples trials gen_random_instance
    families; absence there is evidence, not proof.
    """
    if not 0 <= ell < n:
        raise ValueError(f"need 0 <= ell < n, got ell={ell}, n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    target = n - ell
    start = time.perf_counter()

    def report(counterexample: Instance | None, checked: int) -> SweepReport:
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        return SweepReport(n, m, ell, mode, trials, seed, counterexample, checked, elapsed_ms)

    if mode == "exhaustive":
        if n != 2:
            raise ValueError(f"exhaustive mode is canonicalized for n = 2 only, got n={n}")
        f0 = [(i, i) for i in range(m)]
        universe = 2 * m
        checked = 0
        for sa in itertools.combinations(range(universe), m):
            for sb in itertools.combinations(range(universe), m):
                for perm in itertools.permutations(sb):
                    checked += 1
                    inst = make_instance([f0, list(zip(sa, perm))], universe, universe)
                    if len(max_rainbow(inst).best) < target:
                        return report(inst, checked)
        return report(None, checked)

    if mode == "randomized":
        if n > 6:
            raise ValueError(f"randomized mode guard: n={n} > 6")
        if trials < 1:
            raise ValueError("randomized mode needs trials >= 1")
        rng = random.Random(seed)
        for t in range(trials):
            inst = gen_random_instance(n, m, seed=rng.getrandbits(48))
            if len(max_rainbow(inst).best) < target:
                return report(inst, t + 1)
        return report(None, trials)

    raise ValueError(f"unknown mode {mode!r}")


def report_record(report: SweepReport) -> dict[str, object]:
    """A sweep report as its CSV_COLUMNS fields, in column order: one CSV row or JSON object."""
    return {name: getattr(report, name) for name in CSV_COLUMNS}


def reports_to_csv(reports: Iterable[SweepReport]) -> str:
    """Render sweep reports in the fixed experiment CSV column order."""
    import csv

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        # a flag is written as in the JSON record: true / false
        writer.writerow(str(v).lower() if type(v) is bool else v for v in report_record(r).values())
    return buf.getvalue()
