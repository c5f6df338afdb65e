"""rainbowbench benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-tight --seed 1 --seconds 25 --trace 0

One client drives the program in a closed loop: each item starts after the
previous one has finished, in this single process, with no threads or worker
processes. --trace 0 measures the end-to-end metrics; --trace 1 runs a fixed
number of items, each once untraced and once traced, and reports per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The program is imported from
src/ of the checkout; without it the runner exits with an error.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns

from calibrate import HostSpeed
from tracer import SETUP_ITEM, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "rainbowbench"
SETUP_REPEATS = 5
# End-to-end timings are medians over windows of consecutive items: one certify
# pass, or about WINDOW_S of program time. Each item and set-up is scaled by
# the host speed measured while it ran (calibrate.py).
WINDOW_S = 1.0
# A traced run does rate * seconds / TRACED_SPLIT items, each once untraced and
# once traced, alternating in TRACED_BLOCKS blocks so that drift in host speed
# falls on both sides of trace_overhead alike.
TRACED_SPLIT = 3
TRACED_BLOCKS = 10

LAYERS = [
    "gen.gen_random_instance",
    "core.make_instance",
    "solver.solve",
    "solver.greedy_rainbow",
    "solver.augment",
    "proofkit.initial_state",
    "core.swap_colours",
    "core.neighbourhood_along",
    "oracle.max_rainbow",
    "proofkit.run_switch_trace",
    "proofkit.trace_to_json",
    "proofkit.verify_trace_json",
    "proofkit.verify_properties",
    "latin.latin_to_instance",
]
METHODS = ["greedy", "augmented", "oracle"]
FAMILIES = ["drisko", "cyclic"]


def import_program():
    """A fresh import of the package from the checkout's src/, never an installed copy."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / PACKAGE} not found; run from the root of a checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    rb = importlib.import_module(PACKAGE)
    if not Path(rb.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {rb.__file__}, not the checkout's copy")
    return rb


def git_sha() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def install_spans(tracer: Tracer, rb) -> None:
    """Wrap each public function in every namespace the program or benchmark calls it from."""
    gen, core, latin, solver, oracle, pk = (
        rb.gen, rb.core, rb.latin, rb.solver, rb.oracle, rb.proofkit,
    )

    def on_solve(t: Tracer, result) -> None:
        t.counts[f"solver.solve.method.{result.method}"] += 1

    def on_augment(t: Tracer, found) -> None:
        t.counts["solver.augment.found"] += found is not None

    def on_oracle(t: Tracer, report) -> None:
        t.counts["oracle.nodes"] += report.nodes_explored
        t.counts["oracle.certified"] += report.optimal
        if t.label is not None:
            t.counts[f"oracle.nodes.{t.label}"] += report.nodes_explored

    def on_trace(t: Tracer, trace) -> None:
        t.counts["proofkit.trace.steps"] += len(trace.steps)

    patch = tracer.patch
    patch(gen, "gen_random_instance", "gen.gen_random_instance")
    for module in (gen, latin, core):
        patch(module, "make_instance", "core.make_instance")
    patch(gen, "latin_to_instance", "latin.latin_to_instance")
    patch(solver, "solve", "solver.solve", on_solve)
    patch(solver, "greedy_rainbow", "solver.greedy_rainbow")
    patch(solver, "augment", "solver.augment", on_augment)
    for module in (solver, oracle):
        patch(module, "max_rainbow", "oracle.max_rainbow", on_oracle)
    for module in (solver, pk):
        patch(module, "initial_state", "proofkit.initial_state")
        patch(module, "neighbourhood_along", "core.neighbourhood_along")
    for module in (solver, core):
        patch(module, "swap_colours", "core.swap_colours")
    patch(pk, "run_switch_trace", "proofkit.run_switch_trace", on_trace)
    for name in ("trace_to_json", "verify_trace_json", "verify_properties"):
        patch(pk, name, f"proofkit.{name}")


def run_items(
    wl,
    items: range | None,
    seconds: float = 0.0,
    tracer: Tracer | None = None,
    host: HostSpeed | None = None,
):
    """Closed loop over `items`, or over 0, 1, ... until `seconds` have passed.

    Returns per-item start times and latencies in ns (the program call only,
    less any host-speed sampling that interrupted it) and the (index,
    problem) pairs of failed items.
    """
    starts, latencies = array("q"), array("q")
    problems: list[tuple[int, str]] = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    indices = iter(items) if items is not None else itertools.count()
    for i in indices:
        if items is None and perf_counter_ns() >= deadline:
            break
        if tracer is not None:
            tracer.item_id = i
            tracer.label = wl.label(i)
        stolen = host.stolen_ns if host is not None else 0
        start = perf_counter_ns()
        try:
            out = wl.run(i)
            end = perf_counter_ns()
            problem = None
        except Exception:  # one failed item must not end the run; it is counted
            end = perf_counter_ns()
            out, problem = None, traceback.format_exc(limit=-3)
        if host is not None:
            end -= host.stolen_ns - stolen
        starts.append(start)
        latencies.append(end - start)
        if problem is None:
            problem = wl.check(i, out)
        if problem is not None:
            problems.append((i, problem))
    if tracer is not None:
        tracer.item_id, tracer.label = SETUP_ITEM, None
    return starts, latencies, problems


def percentile_ms(latencies, q: float) -> float:
    """Nearest-rank percentile in ms."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] / 1e6


def tail(latencies) -> tuple[str, float]:
    """p99, or the highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return "item_max_ms", max(latencies) / 1e6
    q = 99 if n >= 1000 else math.floor(100 * (n - 10) / n)
    return f"item_p{q}_ms", percentile_ms(latencies, q)


def windows(wl, latencies) -> list[range]:
    """Consecutive items grouped into windows; a trailing partial window is dropped."""
    if wl.pass_items:
        size = wl.pass_items
        return [range(i, i + size) for i in range(0, len(latencies) - size + 1, size)]
    out, first, busy = [], 0, 0
    for i, ns in enumerate(latencies):
        busy += ns
        if busy >= WINDOW_S * 1e9:
            out.append(range(first, i + 1))
            first, busy = i + 1, 0
    return out or [range(len(latencies))]


def family_seconds(wl, latencies) -> dict[str, float]:
    """Certify only: median over passes of the time to certify each witness family."""
    out = {}
    for family in FAMILIES:
        totals = [
            sum(latencies[i] for i in w if wl.family(i) == family)
            for w in windows(wl, latencies)
        ]
        out[f"cert_s.{family}"] = statistics.median(totals) / 1e9
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(cls, seed: int, seconds: float, tiny: bool) -> dict:
    n_items = max(1, round(cls.rate * seconds)) if cls.fixed_count else None
    setup_raw, setup_scaled = [], []
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            host.sample()
            stolen = host.stolen_ns
            start = perf_counter_ns()
            rb = import_program()
            wl = cls(rb, seed, n_items, tiny)
            end = perf_counter_ns()
            host.sample()
            took = (end - start - (host.stolen_ns - stolen)) / 1e9
            setup_raw.append(took)
            setup_scaled.append(took / host.slowdown(start, end))
        items = None if wl.n_items is None else range(wl.n_items)
        starts, latencies, problems = run_items(wl, items, seconds, host=host)
    scaled = array(
        "d", (ns / host.slowdown(t, t + ns) for t, ns in zip(starts, latencies))
    )
    spans = windows(wl, latencies)
    rates = [len(w) * 1e9 / sum(scaled[w.start:w.stop]) for w in spans]
    p50s = [statistics.median(scaled[w.start:w.stop]) / 1e6 for w in spans]
    raw_rates = [len(w) * 1e9 / sum(latencies[w.start:w.stop]) for w in spans]
    raw_p50s = [statistics.median(latencies[w.start:w.stop]) / 1e6 for w in spans]
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "items_per_s": metric(statistics.median(rates), "1/s"),
        "item_p50_ms": metric(statistics.median(p50s), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    tail_name, tail_ms = tail(scaled)
    extras = {
        "setup_s.raw": metric(statistics.median(setup_raw), "s"),
        "items_per_s.raw": metric(statistics.median(raw_rates), "1/s"),
        "item_p50_ms.raw": metric(statistics.median(raw_p50s), "ms"),
        "host_slowdown": metric(host.slowdown(), "ratio"),
        "samples": metric(len(latencies), "count"),
        "windows": metric(len(rates), "count"),
        tail_name: metric(tail_ms, "ms"),
        f"{tail_name}.raw": metric(tail(latencies)[1], "ms"),
        "failed_share": metric(len(problems) / len(latencies), "ratio"),
    }
    if cls is WORKLOADS["certify"]:
        for name, value in family_seconds(wl, scaled).items():
            extras[name] = metric(value, "s")
        for name, value in family_seconds(wl, latencies).items():
            extras[f"{name}.raw"] = metric(value, "s")
    return {"latencies": latencies, "problems": problems, "metrics": metrics, "extras": extras}


def traced_run(cls, seed: int, seconds: float, tiny: bool) -> dict:
    n_items = max(1, math.ceil(cls.rate * seconds / TRACED_SPLIT))
    rb = import_program()
    tracer = Tracer()
    install_spans(tracer, rb)
    try:
        wl = cls(rb, seed, n_items, tiny)  # set-up spans carry item id SETUP_ITEM
    finally:
        tracer.restore()
    latencies, problems = array("q"), []
    ref_latencies, ref_problems = array("q"), []
    block = math.ceil(wl.n_items / TRACED_BLOCKS)
    for first in range(0, wl.n_items, block):
        items = range(first, min(first + block, wl.n_items))
        _, lat, prob = run_items(wl, items)
        ref_latencies.extend(lat)
        ref_problems.extend(prob)
        install_spans(tracer, rb)
        try:
            _, lat, prob = run_items(wl, items, tracer=tracer)
        finally:
            tracer.restore()
        latencies.extend(lat)
        problems.extend(prob)
    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = metric(sum(latencies) / sum(ref_latencies), "ratio")
    cert = family_seconds(wl, ref_latencies) if cls is WORKLOADS["certify"] else {}
    for family in FAMILIES:
        name = f"cert_s.{family}"
        metrics[name] = metric(cert.get(name, 0.0), "s")
    return {
        "latencies": latencies + ref_latencies,
        "problems": problems + ref_problems,
        "metrics": metrics,
        "extras": {"samples": metric(len(latencies), "count")},
        "tracer": tracer,
    }


def layer_metrics(tracer: Tracer) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        calls, busy, own = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.busy_s"] = metric(busy, "s")
        metrics[f"{layer}.self_s"] = metric(own, "s")
    for method in METHODS:
        name = f"solver.solve.method.{method}"
        metrics[name] = metric(counts[name], "count")
    augments = totals.get("solver.augment", (0, 0.0, 0.0))[0]
    metrics["solver.augment.hit_ratio"] = metric(
        counts["solver.augment.found"] / augments if augments else 0.0, "ratio"
    )
    oracle_calls, oracle_busy, _ = totals.get("oracle.max_rainbow", (0, 0.0, 0.0))
    metrics["oracle.nodes"] = metric(counts["oracle.nodes"], "count")
    metrics["oracle.nodes_per_s"] = metric(
        counts["oracle.nodes"] / oracle_busy if oracle_busy else 0.0, "1/s"
    )
    metrics["oracle.certified_ratio"] = metric(
        counts["oracle.certified"] / oracle_calls if oracle_calls else 0.0, "ratio"
    )
    for label, _, _ in WORKLOADS["certify"].WITNESSES:
        name = f"oracle.nodes.{label}"
        metrics[name] = metric(counts[name], "count")
    metrics["proofkit.trace.steps"] = metric(counts["proofkit.trace.steps"], "count")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; `tiny` shrinks the set-up inputs for the harness self-check."""
    cls = WORKLOADS[name]
    run = (traced_run if trace else untraced_run)(cls, seed, seconds, tiny)
    attempted = len(run["latencies"])
    failed = len(run["problems"])
    run["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": run["metrics"],
    }
    run["record"] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "items": attempted,
        "failed": failed,
    }
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if "tracer" in run:
        run["tracer"].write_spans(OUT / f"{stem}.spans.jsonl.gz")
    for i, problem in run["problems"][:5]:
        print(f"item {i} failed: {problem}", file=sys.stderr)
    (OUT / f"{stem}.json").write_text(
        json.dumps({"record": run["record"], "result": run["result"], "extras": run["extras"]},
                   indent=1) + "\n"
    )
    print("run " + json.dumps(run["record"]))
    for name, m in {**run["metrics"], **run["extras"]}.items():
        print(f"{name:36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
