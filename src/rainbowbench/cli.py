"""Command-line entry point tying generators, solvers, conversions and traces together.

Exit codes: 0 success (solve: target met), 1 target not met / verification
failed, 2 usage or data errors. All subcommands are deterministic for
identical arguments including --seed.
"""

from __future__ import annotations

import json
import sys
import typing
from pathlib import Path

import click

from . import core, gen, latin, oracle, proofkit, solver


class DataError(click.ClickException):
    exit_code = 2


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write text to path, creating its missing parent directories; None or - is stdout."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _checked(fn, *args, where: str = ""):
    """fn(*args), with a ValueError (arguments or data fn rejects) exiting 2 after where."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise DataError(f"{where}{exc}") from exc


def _load(path: str, parse, validate=None, what: str = ""):
    """parse(text of path); a file that cannot be read or parsed, or a value with
    violations from validate (if given), exits 2 naming the file."""
    value = _checked(parse, _read_text(path), where=f"{path}: ")
    violations = validate(value) if validate else []
    if violations:
        raise DataError(f"invalid {what} in {path}: " + "; ".join(map(str, violations)))
    return value


def _load_instance(path: str) -> core.Instance:
    return _load(path, core.instance_from_json, core.validate_instance, "instance")


def _load_square(path: str) -> latin.LatinSquare:
    return _load(path, latin.parse_latin_text, latin.validate_latin, "Latin square")


@click.group()
def main() -> None:
    """Rainbow matching workbench for edge-coloured bipartite multigraphs."""


# --- gen -------------------------------------------------------------------------


@main.group("gen")
def gen_group() -> None:
    """Emit generated instances as Instance JSON."""


@gen_group.command("drisko")
@click.option("--n", "n", type=int, required=True, help="Matching size n (needs n >= 2).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def gen_drisko_cmd(n: int, out: str | None) -> None:
    """Two bundles of n-1 size-n matchings on a 2n-cycle; optimum n-1."""
    inst = _checked(gen.gen_drisko, n)
    _write_text(out, core.instance_to_json(inst))


@gen_group.command("cyclic")
@click.option("--n", "n", type=int, required=True, help="Order of the cyclic square.")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def gen_cyclic_cmd(n: int, out: str | None) -> None:
    """Coloured-graph form of the cyclic Latin square of order n."""
    inst = latin.latin_to_instance(_checked(latin.gen_cyclic, n))
    _write_text(out, core.instance_to_json(inst))


@gen_group.command("random")
@click.option("--n", "n", type=int, required=True, help="Number of colour classes.")
@click.option("--m", "m", type=int, required=True, help="Size of every class.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the draws; -s draws what s draws.")
@click.option("--a-size", type=int, default=None, help="A-universe size (default n + m).")
@click.option("--b-size", type=int, default=None, help="B-universe size (default n + m).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def gen_random_cmd(
    n: int, m: int, seed: int, a_size: int | None, b_size: int | None, out: str | None
) -> None:
    """n independent uniform random matchings of size m."""
    inst = _checked(gen.gen_random_instance, n, m, a_size, b_size, seed)
    _write_text(out, core.instance_to_json(inst))


# --- solve -----------------------------------------------------------------------


@main.command("solve")
@click.option("--in", "in_path", required=True, help="Instance JSON file (- for stdin).")
@click.option(
    "--target", type=click.IntRange(min=1), required=True, help="Rainbow matching size to reach."
)
@click.option("--budget-nodes", type=click.IntRange(min=1), default=100000, show_default=True)
@click.option("--budget-seconds", type=click.FloatRange(min=0, min_open=True))
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of greedy's tie order; -s orders as s does.")
@click.option("--oracle-fallback/--no-oracle-fallback", default=False, show_default=True)
@click.pass_context
def solve_cmd(
    ctx: click.Context,
    in_path: str,
    target: int,
    budget_nodes: int,
    budget_seconds: float | None,
    seed: int,
    oracle_fallback: bool,
) -> None:
    """Greedy + augmentation (+ optional exact oracle); exit 0 iff target met."""
    inst = _load_instance(in_path)
    # FloatRange lets nan through; SearchBudget rejects it
    budget = _checked(oracle.SearchBudget, budget_nodes, budget_seconds, where="--budget-seconds: ")
    result = _checked(solver.solve, inst, target, budget, seed, oracle_fallback)
    payload = {
        "size": len(result.matching),
        "method": result.method,
        "augment_steps": result.augment_steps,
        "certified_optimal": result.certified_optimal,
        "matching": [list(t) for t in result.matching.triples],
    }
    click.echo(core.canonical_json(payload), nl=False)
    ctx.exit(0 if len(result.matching) >= target else 1)


# --- experiment ------------------------------------------------------------------


@main.group("experiment")
def experiment_group() -> None:
    """Empirical threshold sweeps; exit 0 on any completed run."""


_SWEEP_OPTIONS = (
    click.option("--m", "m", type=int, required=True),
    click.option("--mode", type=click.Choice(typing.get_args(oracle.SweepMode)), required=True),
    click.option("--trials", type=click.IntRange(min=0), default=0, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True,
                 help="Seed of the instance draws; -s draws what s draws."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                 show_default=True),
    click.option("-o", "--out", "out", default=None, help="Output file (default stdout)."),
    click.option("--witness-dir", default=".", show_default=True,
                 help="Where counterexamples are dumped."),
)


def _sweep_options(command):
    """The options every sweep takes, listed after --n (and mu's --ell)."""
    for option in reversed(_SWEEP_OPTIONS):
        command = option(command)
    return command


def _run_sweep(n, ell, m, mode, trials, seed, fmt, out, witness_dir) -> None:
    report = _checked(oracle.estimate_mu, n, ell, m, mode, trials, seed)
    if report.counterexample is not None:
        name = (
            f"counterexample_n{report.n}_m{report.m}_ell{report.ell}"
            f"_{report.mode}_seed{report.seed}.json"
        )
        path = Path(witness_dir) / name
        _write_text(str(path), core.instance_to_json(report.counterexample))
        click.echo(f"counterexample written to {path}", err=True)
    if fmt == "csv":
        _write_text(out, oracle.reports_to_csv([report]))
    else:
        _write_text(out, core.canonical_json(oracle.report_record(report)))


@experiment_group.command("f")
@click.option("--n", "n", type=int, required=True)
@_sweep_options
def experiment_f_cmd(**args) -> None:
    """Probe whether n classes of size m force a rainbow matching of size n."""
    _run_sweep(ell=0, **args)


@experiment_group.command("mu")
@click.option("--n", "n", type=int, required=True)
@click.option("--ell", type=int, required=True)
@_sweep_options
def experiment_mu_cmd(**args) -> None:
    """Probe whether n classes of size m force a rainbow matching of size n - ell."""
    _run_sweep(**args)


# --- verify-trace ----------------------------------------------------------------


@main.command("verify-trace")
@click.option("--in", "in_path", required=True, help="Trace JSON file (- for stdin).")
@click.pass_context
def verify_trace_cmd(ctx: click.Context, in_path: str) -> None:
    """Re-check every state snapshot and augmented matching of a recorded trace."""
    failures = _load(in_path, proofkit.verify_trace_json)
    if failures:
        for line in failures:
            click.echo(line, err=True)
        ctx.exit(1)
    click.echo("trace ok")


# --- convert ---------------------------------------------------------------------


@main.group("convert")
def convert_group() -> None:
    """Conversions between Latin square text, Instance JSON and matchings."""


@convert_group.command("latin-to-instance")
@click.option("--in", "in_path", required=True, help="Latin square text file (- for stdin).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def latin_to_instance_cmd(in_path: str, out: str | None) -> None:
    ls = _load_square(in_path)
    _write_text(out, core.instance_to_json(latin.latin_to_instance(ls)))


@convert_group.command("instance-to-latin")
@click.option("--in", "in_path", required=True, help="Instance JSON file (- for stdin).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def instance_to_latin_cmd(in_path: str, out: str | None) -> None:
    inst = _load_instance(in_path)
    ls = _checked(latin.instance_to_latin, inst)
    _write_text(out, latin.format_latin_text(ls))


@convert_group.command("rainbow-to-transversal")
@click.option("--square", "square_path", required=True, help="Latin square text file.")
@click.option("--in", "in_path", required=True, help="Rainbow matching JSON (- for stdin).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def rainbow_to_transversal_cmd(square_path: str, in_path: str, out: str | None) -> None:
    ls = _load_square(square_path)
    t = _load(in_path, lambda text: latin.rainbow_to_transversal(ls, core.matching_from_json(text)))
    _write_text(out, json.dumps([list(e) for e in sorted(t.entries)]) + "\n")


@convert_group.command("transversal-to-rainbow")
@click.option("--square", "square_path", required=True, help="Latin square text file.")
@click.option("--in", "in_path", required=True, help="Transversal JSON (- for stdin).")
@click.option("-o", "--out", "out", default=None, help="Output file (default stdout).")
def transversal_to_rainbow_cmd(square_path: str, in_path: str, out: str | None) -> None:
    ls = _load_square(square_path)
    matching = _load(
        in_path, lambda text: latin.transversal_to_rainbow(ls, latin.transversal_from_json(text))
    )
    _write_text(out, core.matching_to_json(matching))


if __name__ == "__main__":
    main()
