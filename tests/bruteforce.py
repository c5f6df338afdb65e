"""Independent brute-force oracles; deliberately unrelated to the library's search."""

from __future__ import annotations

import itertools
from fractions import Fraction

from rainbowbench.core import Instance, make_matching
from rainbowbench.latin import LatinSquare
from rainbowbench.oracle import SearchReport


def max_partial_transversal(ls: LatinSquare) -> int:
    """Largest partial transversal by direct row-by-row backtracking (n <= 6 scale)."""
    n = ls.order
    best = 0

    def rec(row: int, cols: frozenset[int], syms: frozenset[int], size: int) -> None:
        nonlocal best
        best = max(best, size)
        if row == n or size + (n - row) <= best:
            return
        for col in range(n):
            if col in cols:
                continue
            s = ls.cells[row][col]
            if s in syms:
                continue
            rec(row + 1, cols | {col}, syms | {s}, size + 1)
        rec(row + 1, cols, syms, size)

    rec(0, frozenset(), frozenset(), 0)
    return best


def max_matching_size(adjacency: list[list[int]]) -> int:
    """Size of a largest bipartite matching, trying every partner or none for each left vertex."""

    def rec(u: int, used: frozenset[int]) -> int:
        if u == len(adjacency):
            return 0
        best = rec(u + 1, used)
        for v in adjacency[u]:
            if v not in used:
                best = max(best, 1 + rec(u + 1, used | {v}))
        return best

    return rec(0, frozenset())


def threshold_by_iteration(eps: Fraction, t: int, limit: int = 10**6) -> int:
    """Smallest n >= 1 with 2*t*eps*n + t*(7 - 3t)/2 > n, by linear scan."""
    for n in range(1, limit + 1):
        if 2 * t * eps * n + Fraction(t * (7 - 3 * t), 2) > n:
            return n
    raise AssertionError(f"no threshold below {limit}")


def naive_max_rainbow(inst: Instance) -> SearchReport:
    """Exhaustive enumeration over all ways to pick at most one edge per class.

    No pruning; independent of max_rainbow by construction. Hard guard:
    n_colours <= 8 and every class size <= 8.
    """
    if inst.n_colours > 8:
        raise ValueError(f"naive oracle guard: n_colours={inst.n_colours} > 8")
    if any(len(cls) > 8 for cls in inst.classes):
        raise ValueError("naive oracle guard: some class has more than 8 edges")
    options: list[list[tuple[int, int] | None]] = []
    for c in range(inst.n_colours):
        opts: list[tuple[int, int] | None] = [None]
        opts.extend(inst.classes[c].pairs)
        options.append(opts)
    best_sel: list[tuple[int, int, int]] = []
    combos = 0
    for combo in itertools.product(*options):
        combos += 1
        a_mask = 0
        b_mask = 0
        sel: list[tuple[int, int, int]] = []
        ok = True
        for c, choice in enumerate(combo):
            if choice is None:
                continue
            a, b = choice
            if (a_mask >> a) & 1 or (b_mask >> b) & 1:
                ok = False
                break
            a_mask |= 1 << a
            b_mask |= 1 << b
            sel.append((c, a, b))
        if ok and len(sel) > len(best_sel):
            best_sel = sel
    best = make_matching(best_sel)
    return SearchReport(best, True, combos)
