"""Output checks, written against plain data so they share no code with the program.

Each check returns a description of the first problem it finds, or None.
Instances are read only through their data fields (classes, edges, vertex
indices); no program function is called.
"""

from __future__ import annotations


def class_pairs(inst) -> list[set[tuple[int, int]]]:
    """Endpoint pairs of every colour class, read from the instance's data."""
    return [{(e.a.index, e.b.index) for e in cls.edges} for cls in inst.classes]


def triples(matching) -> list[tuple[int, int, int]]:
    return [(ce.colour, ce.edge.a.index, ce.edge.b.index) for ce in matching.edges]


def matching_problem(pairs: list[set[tuple[int, int]]], matching) -> str | None:
    """The matching must be rainbow and take every edge from its own class."""
    rows = triples(matching)
    colours = [c for c, _, _ in rows]
    if len(set(colours)) != len(rows):
        return f"colour repeated in {sorted(rows)}"
    if len({a for _, a, _ in rows}) != len(rows) or len({b for _, _, b in rows}) != len(rows):
        return f"vertex shared in {sorted(rows)}"
    for c, a, b in rows:
        if not 0 <= c < len(pairs) or (a, b) not in pairs[c]:
            return f"edge a{a}b{b} is not in class {c}"
    return None


def sweep_problem(inst, result, target: int) -> str | None:
    """A sweep item must return a valid rainbow matching of the target size."""
    problem = matching_problem(class_pairs(inst), result.matching)
    if problem is not None:
        return problem
    if len(result.matching) != target:
        return f"size {len(result.matching)} (method {result.method}), expected {target}"
    return None


def certify_problem(pairs, report, optimum: int) -> str | None:
    """An oracle report must be a certified optimum of the known size."""
    if not report.optimal:
        return "search not exhausted"
    if len(report.best) != optimum:
        return f"size {len(report.best)}, expected {optimum}"
    return matching_problem(pairs, report.best)


def trace_problem(pairs, base, trace, failures: list[str]) -> str | None:
    """A trace must verify cleanly and every augmentation must add exactly one edge."""
    if failures:
        return f"trace verification failed: {failures[0]}"
    for step in trace.steps:
        matching = getattr(step, "matching", None)
        if matching is None:
            continue
        if len(matching) != len(base) + 1:
            return f"augmented step has size {len(matching)}, base has {len(base)}"
        problem = matching_problem(pairs, matching)
        if problem is not None:
            return problem
    return None
