"""Command-line front end: batch experiments, bound tables, acceptance suite.

Every stochastic subcommand, ``prove`` included, takes --seed, runs through
``run_experiment`` and writes its record of reproducible rows; see the
experiments module for the per-trial PRNG stream convention.  The
simulator refuses states above GSIP_QUBIT_CAP qubits (default 24).
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

from . import bounds
from .experiments import ExperimentConfig, run_experiment, write_csv, write_json_lines
from .graphs import (Graph, checked_size, complete_graph, triangle_strip,
                     triangular_lattice)
from .mbqc import MeasurementPattern
from .statevec import qubit_cap


class InputError(click.ClickException):
    """Bad input data: a single ``Error:`` line on stderr and exit code 2."""

    exit_code = 2


def _parse_json(text: str, name: str):
    """``json.loads(text)``, refused with one ``Error:`` line naming ``name``
    when a value lies more than 32 levels below the top.  No input needs more
    than 4 (a pattern step's x_deps), and a value the parser reads can still
    be too deep for a later ``json.dumps`` of the config."""
    try:
        obj = json.loads(text)
        level = [obj]
        for _ in range(32):
            level = [v for o in level if isinstance(o, (list, dict))
                     for v in (o.values() if isinstance(o, dict) else o)]
        if not level:
            return obj
    except RecursionError:  # too deep for the parser's own stack
        pass
    raise InputError(f"{name}: JSON nested too deeply")


def _load_json_arg(value: str, flag: str):
    """Accept either a path to a JSON file or an inline JSON value."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        with open(value) as fh:
            text = fh.read()
    return _parse_json(text, flag)


def _parse_labels(value: str | None) -> tuple | None:
    if value is None:
        return None
    obj = _load_json_arg(value, "--labels")
    if not isinstance(obj, list):
        raise ValueError("labels must be a JSON list")
    return tuple(tuple(l) if isinstance(l, list) else l for l in obj)


def _experiment_config(kind: str, graph_src: str, strategy_src: str | None = None,
                       pattern_src: str | None = None, labels_src: str | None = None,
                       **fields) -> ExperimentConfig:
    """Parse every JSON input of a run into its config, in one place."""
    try:
        return ExperimentConfig(
            kind=kind, graph=Graph.from_json(_load_json_arg(graph_src, "--graph")),
            strategy=None if strategy_src is None else _load_json_arg(strategy_src, "--strategy"),
            pattern=None if pattern_src is None
            else MeasurementPattern.from_json(_load_json_arg(pattern_src, "--pattern")),
            labels=_parse_labels(labels_src), **fields)
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from exc
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _parse_options(pairs: tuple[str, ...], flag: str) -> dict:
    opts = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.BadParameter(f"option {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            opts[key] = _parse_json(raw, f"{flag} {key}")
        except json.JSONDecodeError:
            opts[key] = raw
    return opts


def _write(out: str | None, write) -> None:
    """``write(stream)`` to stdout, or to the file ``out`` with a note on stderr."""
    if out is None or out == "-":
        write(sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            write(fh)
        click.echo(f"wrote {out}", err=True)


def _emit(record, out: str | None, as_csv: bool) -> None:
    writer = write_csv if as_csv else write_json_lines
    _write(out, lambda stream: writer(record, stream))


def _run_and_emit(cfg: ExperimentConfig, jobs: int, out: str | None, as_csv: bool):
    try:
        record = run_experiment(cfg, jobs=jobs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(record, out, as_csv)
    return record


_INPUTS = [
    click.option("--graph", "graph_src", required=True,
                 help="graph JSON file or inline JSON"),
    click.option("--strategy", "strategy_src", default=None,
                 help="prover strategy JSON (file or inline); default honest"),
    click.option("--theta", type=float, default=math.pi / 4, show_default=True,
                 help="test angle at every vertex the pattern does not measure"),
]
_PATTERN = click.option("--pattern", "pattern_src", required=True,
                        help="measurement pattern JSON (file or inline)")
_SEED = click.option("--seed", type=int, required=True)
_BATCH = [
    click.option("--trials", type=int, required=True),
    _SEED,
    click.option("--jobs", type=int, default=1, show_default=True),
    click.option("--out", default=None, help="output path (default stdout)"),
    click.option("--csv", "as_csv", is_flag=True, help="emit CSV rows"),
]


def _with(*options):
    """One decorator for the click options given, listed in that order."""
    return lambda fn: functools.reduce(lambda f, opt: opt(f), reversed(options), fn)


@click.group()
def main():
    """Graph-state interactive-proof simulator."""
    # read the cap here, so a bad value is one Error: line for every
    # subcommand, `accept` included
    try:
        qubit_cap()
    except ValueError as exc:
        raise InputError(str(exc)) from exc


@main.command("gen-graph")
@click.option("--family", type=click.Choice(
    ["k3", "complete", "triangle-strip", "triangular-lattice"]), required=True)
@click.option("--n", type=int, default=None, help="vertex count (complete)")
@click.option("-k", type=int, default=None, help="strip length")
@click.option("--rows", type=int, default=None)
@click.option("--cols", type=int, default=None)
@click.option("--out", default=None)
def gen_graph(family, n, k, rows, cols, out):
    """Write a graph from a named family as JSON."""
    try:
        if family == "k3":
            g = complete_graph(checked_size(3))
        elif family == "complete":
            if n is None:
                raise click.BadParameter("complete needs --n")
            g = complete_graph(checked_size(n))
        elif family == "triangle-strip":
            if k is None:
                raise click.BadParameter("triangle-strip needs -k")
            g = triangle_strip(checked_size(k))
        else:
            if rows is None or cols is None:
                raise click.BadParameter("triangular-lattice needs --rows/--cols")
            checked_size(rows * cols)
            g = triangular_lattice(rows, cols)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    text = json.dumps(g.to_json())
    _write(out, lambda stream: stream.write(text + "\n"))


@main.command()
@_with(*_INPUTS, *_BATCH)
def selftest(graph_src, strategy_src, theta, trials, seed, jobs, out, as_csv):
    """Run the one-shot honesty test repeatedly and report the accept rate."""
    cfg = _experiment_config("selftest", graph_src, strategy_src, theta=theta,
                             trials=trials, seed=seed)
    _run_and_emit(cfg, jobs, out, as_csv)


@main.command()
@_with(*_INPUTS, _PATTERN, *_BATCH)
def mbqc(graph_src, strategy_src, theta, trials, seed, jobs, out, as_csv,
         pattern_src):
    """Drive an adaptive measurement pattern and tally the output bit."""
    cfg = _experiment_config("mbqc", graph_src, strategy_src, pattern_src,
                             theta=theta, trials=trials, seed=seed)
    _run_and_emit(cfg, jobs, out, as_csv)


@main.command("isometry-check")
@_with(*_INPUTS, *_BATCH)
@click.option("--labels", "labels_src", default=None,
              help='JSON list of operator labels, e.g. \'["I",["X",0]]\'')
def isometry_check(graph_src, strategy_src, theta, trials, seed, jobs, out,
                   as_csv, labels_src):
    """Measure swap-isometry distances against their closed-form bounds."""
    cfg = _experiment_config("isometry", graph_src, strategy_src,
                             labels_src=labels_src, theta=theta, trials=trials,
                             seed=seed)
    _run_and_emit(cfg, jobs, out, as_csv)


@main.command("bounds")
@click.option("--kind", default=None,
              help="bound name (thm2, lemma1, ..., thm1_n); omit for a table")
@click.option("--param", "params", multiple=True,
              help="key=value, repeatable (eps=1e-4 n=3 edges=3 ...)")
@click.option("--out", default=None)
def bounds_cmd(kind, params, out):
    """Evaluate closed-form error bounds."""
    opts = _parse_options(params, "--param")
    try:
        if kind is None:
            record = run_experiment(ExperimentConfig(kind="bounds", options=opts))
        else:
            key = bounds.kind_key(kind)
            value = bounds.evaluate(key, **opts)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if kind is None:
        _emit(record, out, False)
        return
    text = json.dumps({"kind": kind, "value": value, "formula": bounds.FORMULAS[key],
                       "inputs": opts}, sort_keys=True)
    _write(out, lambda stream: stream.write(text + "\n"))


@main.command()
@_with(*_INPUTS, _PATTERN, _SEED)
@click.option("--option", "extra", multiple=True,
              help="key=value, repeatable; the one way to set a protocol constant: "
                   "delta (default 0.1), q (default Lemma 6's optimal coin), "
                   "n_rounds (default the Hoeffding count), accept_output (default 0), "
                   "s_calc (default 1/3), s_test_gap (default 0.1), "
                   "c_ip (default q c_calc + (1 - q) c_test) and "
                   "s_ip (default c_ip less the composed gap, at least 0)")
def prove(graph_src, pattern_src, strategy_src, theta, seed, extra):
    """One amplified protocol run; exit 0 on accept, 1 on reject.

    The run is a one-trial protocol experiment: its JSON lines are those of
    ``run_experiment`` on the same config, the decision's row and then the
    summary footer, and the exit code follows the row's ``accepted``.
    """
    cfg = _experiment_config("protocol", graph_src, strategy_src, pattern_src,
                             theta=theta, trials=1, seed=seed,
                             options=_parse_options(extra, "--option"))
    record = _run_and_emit(cfg, 1, None, False)
    sys.exit(0 if record.rows[0]["accepted"] else 1)


@main.command()
@click.option("--only", default=None,
              help="comma-separated criterion numbers, e.g. 1,3,10")
def accept(only):
    """Run the acceptance suite; one pass/fail line per criterion."""
    from .acceptance import run_suite, suite_numbers

    selected = None
    if only is not None:
        try:
            selected = suite_numbers([int(tok) for tok in only.split(",") if tok.strip()])
        except ValueError as exc:
            raise InputError(f"--only {only!r}: {exc}") from exc
    ok = run_suite(selected=selected, stream=sys.stdout)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
