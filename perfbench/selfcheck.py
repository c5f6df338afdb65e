"""Fast self-check of the benchmark harness.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, untraced and twice traced at one seed. It
asserts that every run is correct, that each run emits exactly the metrics
BENCHMARK.json declares with their units, that every count repeats exactly
across the two traced runs, and that each workload stresses the layers it
claims to. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
from workloads import WORKLOADS

SEED = 1
SECONDS = 0.3


def declared(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def stress_problem(name: str, metrics: dict) -> str | None:
    """The acceptance conditions on what each workload exercises."""
    value = {k: m["value"] for k, m in metrics.items()}
    if name == "sweep-heavy" and (value["solver.augment.calls"] or value["oracle.max_rainbow.calls"]):
        return "sweep-heavy reached augment or the oracle"
    if name == "sweep-tight":
        solves = value["solver.solve.calls"]
        for method in run.METHODS:
            if value[f"solver.solve.method.{method}"] < 0.2 * solves:
                return f"sweep-tight: method {method} below 20% of items"
    if name == "certify" and value["oracle.certified_ratio"] != 1:
        return "certify: a witness was not certified"
    if name == "trace" and not value["proofkit.trace.steps"]:
        return "trace: no engine steps"
    return None


def main() -> int:
    start = perf_counter()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from the runner's",
    )
    end_to_end, per_layer = declared(spec, "end_to_end"), declared(spec, "per_layer")
    for name in WORKLOADS:
        plain = run.run_workload(name, SEED, SECONDS, trace=False, tiny=True)["result"]
        expect(plain["correct"], f"{name}: untraced run has failed items")
        expect(units(plain) == end_to_end, f"{name}: end-to-end metrics differ from BENCHMARK.json")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: a metric is 0")
        first, second = (
            run.run_workload(name, SEED, SECONDS, trace=True, tiny=True)["result"]
            for _ in range(2)
        )
        expect(first["correct"] and second["correct"], f"{name}: traced run has failed items")
        expect(units(first) == per_layer, f"{name}: per-layer metrics differ from BENCHMARK.json")
        expect(counts(first) == counts(second), f"{name}: counts differ across runs at one seed")
        problem = stress_problem(name, first["metrics"])
        expect(problem is None, str(problem))
        print(f"{name}: ok ({plain['attempted']} items untraced, {first['attempted']} traced)")
    print(f"selfcheck ok in {perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
