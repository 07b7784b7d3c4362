"""Batch experiment runner: seeded trials, JSON-lines rows, summaries.

Every stochastic experiment draws trial ``i`` from its own PRNG stream
``numpy.random.default_rng([seed, i])``, so results are reproducible for a
given seed and independent of execution order or worker count.  Rows stream
as JSON lines; a single summary object closes the file.  The summary pins
the PRNG family so other implementations can replay the streams.

Every trial takes one path: ``prepare`` builds a run's ``TrialSetup`` once
(test parameters, themselves kept once per process, the prover set of a
deterministic strategy, and for protocol runs the ProtocolConfig with its
meta), and ``TrialSetup.trial(i)`` returns trial ``i``'s row, a dict: a
trial is its row.  Serial runs and ``jobs > 1`` worker chunks (which
receive the built setup) both call it, and every ``gsip`` subcommand that
runs trials, ``gsip prove`` (a one-trial protocol run) included, goes
through ``run_experiment``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds
from .graphs import Graph, as_int, as_real
from .isometry import equivalence_distance
from .mbqc import (MeasurementPattern, pattern_angles, reference_run, run_pattern,
                   total_variation)
from .protocol import ProtocolConfig, choose_q, gap_case_lines, require_bit, run_amplified
from .provers import ProverSet, strategy_from_json
from .selftest import TestParameters, c_test, default_parameters, run_oneshot

KINDS = ("selftest", "mbqc", "isometry", "protocol", "bounds")

# strategy kinds that consume randomness when they are built
STOCHASTIC_STRATEGIES = {"perturbed"}

DEFAULT_LABELS = ("I",)

# the option keys of the two kinds that read options
OPTION_KEYS = {
    "protocol": ("accept_output", "delta", "s_calc", "s_test_gap", "q", "c_ip",
                 "s_ip", "n_rounds"),
    "bounds": ("n", "edges", "eps", "m", "delta"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run: what to execute, on which graph, how many times."""

    kind: str
    graph: Graph | None = None
    theta: float | dict[int, float] | None = None
    strategy: dict | None = None
    pattern: MeasurementPattern | None = None
    labels: tuple | None = None
    trials: int = 0
    seed: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        known = OPTION_KEYS.get(self.kind)
        if known is not None and not set(self.options) <= set(known):
            raise ValueError(f"unknown {self.kind} options "
                             f"{sorted(set(self.options) - set(known))}; "
                             f"expected any of {list(known)}")
        if self.pattern is not None and self.kind not in ("mbqc", "protocol"):
            raise ValueError(f"{self.kind} experiments take no pattern")
        if self.labels is not None and self.kind != "isometry":
            raise ValueError(f"{self.kind} experiments take no labels")
        if self.kind == "bounds":
            if self.trials:
                raise ValueError("bounds experiments take no trials")
            return
        if self.graph is None:
            raise ValueError(f"{self.kind} experiments need a graph")
        if self.strategy is not None and not isinstance(self.strategy, dict):
            raise ValueError("a strategy must be a JSON object")
        if self.kind == "isometry" and (self.strategy or {}).get("kind") == "classical":
            raise ValueError("the swap isometry is defined for quantum provers only, "
                             "not a classical strategy")
        if self.labels is not None and not self.labels:
            raise ValueError("labels must name at least one label")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed is None or self.seed < 0:
            raise ValueError(f"the seed must be at least 0, got {self.seed}")
        if self.kind in ("mbqc", "protocol") and self.pattern is None:
            raise ValueError(f"{self.kind} experiments need a pattern")

    def to_json(self) -> dict:
        theta = self.theta
        if isinstance(theta, dict):
            theta = {str(v): a for v, a in theta.items()}
        return {
            "kind": self.kind,
            "graph": None if self.graph is None else self.graph.to_json(),
            "theta": theta,
            "strategy": self.strategy,
            "pattern": None if self.pattern is None else self.pattern.to_json(),
            "labels": None if self.labels is None else list(self.labels),
            "trials": self.trials,
            "seed": self.seed,
            "options": self.options,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class ResultRecord:
    """Digest of the config, one row per trial, and summary statistics."""

    config_digest: str
    kind: str
    rows: tuple[dict, ...]
    summary: dict

    def to_json(self) -> dict:
        return {"config_digest": self.config_digest, "kind": self.kind,
                "rows": list(self.rows), "summary": self.summary}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial stream: default_rng([seed, trial])."""
    return np.random.default_rng([seed, trial])


def _prng_stamp(cfg: ExperimentConfig) -> dict:
    return {"family": "PCG64", "numpy": np.__version__,
            "stream": "numpy.random.default_rng([seed, trial])",
            "seed": cfg.seed}


def _protocol_setup(cfg: ExperimentConfig,
                    params: TestParameters) -> tuple[ProtocolConfig, dict]:
    """Assemble a ProtocolConfig from options plus desk-scale defaults.

    The true dishonest-test ceiling sits within 1e-30 of the honest rate
    for any graph this package can simulate, which makes the optimal coin
    bias formula degenerate in floats.  Desk runs therefore take the test
    gap from options["s_test_gap"] (default 0.1) unless an explicit q or
    c_ip/s_ip pair overrides it; a q, explicit or chosen, whose composed
    gap (the lower of ``gap_case_lines``) is not positive is refused, since
    no accept threshold is sound there.  The calculation branch's honest
    rate is the pattern's exact reference law at the accept output.
    ``ProtocolConfig`` checks the options before ``hoeffding_n`` reads
    their gap, and sets the midpoint threshold.
    """
    opts = cfg.options

    def option(key: str, default, parse=as_real):
        return parse(opts[key], key) if key in opts else default

    accept_output = require_bit(option("accept_output", 0, as_int))
    delta = option("delta", 0.1)
    s_calc = option("s_calc", 1 / 3)
    if not 0 <= s_calc <= 1:
        raise ValueError("s_calc must lie in [0, 1]")
    c_calc = reference_run(cfg.graph, cfg.pattern).get(accept_output, 0.0)
    ct = c_test(params)
    test_gap = option("s_test_gap", 0.1)
    if test_gap <= 0:
        raise ValueError("s_test_gap must be above 0")
    st = ct - test_gap
    if st == ct:  # a gap below the float spacing at c_test rounds away
        raise ValueError(f"s_test_gap = {test_gap:g} leaves s_test = c_test = {ct:.6g}")
    if st < 0:
        raise ValueError(f"s_test_gap must be at most c_test = {ct:.6g}")
    if "q" in opts:
        q = option("q", None)
        gap = min(gap_case_lines(q, c_calc, s_calc, ct, st, delta))
    else:
        q, gap = choose_q(ct, st, s_calc, delta, c_calc)
    if gap <= 0:
        raise ValueError(f"q = {q:g} gives a composed gap of {gap:.4g} <= 0: "
                         "no accept threshold separates honest provers "
                         "from cheaters at this coin weight")
    c_ip = option("c_ip", q * c_calc + (1 - q) * ct)
    s_ip = option("s_ip", max(c_ip - gap, 0.0))
    proto_cfg = ProtocolConfig(
        q=q, params=params, pattern=cfg.pattern, n_rounds=option("n_rounds", 1, as_int),
        c_ip=c_ip, s_ip=s_ip, accept_output=accept_output)
    if "n_rounds" not in opts:  # 1 stood in until ProtocolConfig checked the gap
        proto_cfg = replace(proto_cfg, n_rounds=bounds.hoeffding_n(c_ip - s_ip))
    meta = {"q": q, "gap": gap, "delta": delta, "c_test": ct, "s_test": st,
            "c_calc": c_calc, "s_calc": s_calc,
            "c_ip": c_ip, "s_ip": s_ip, "n_rounds": proto_cfg.n_rounds,
            "threshold": proto_cfg.threshold}
    return proto_cfg, meta


@dataclass(frozen=True)
class TrialSetup:
    """Everything the trials of one run share, built by ``prepare``.

    ``params`` comes from ``default_parameters``, built once per process
    and shared with every run on the same graph object and angles.
    ``provers`` is the prover set of a deterministic strategy, built once
    per run and cloned for every trial; a clone shares the set's outcome
    tree, so each trial samples from the Born probabilities earlier trials
    of the run cached (in this process: a ``--jobs`` worker fills its own
    copy).  An honest set's strategy is shared by the whole process, its
    state and tree by the run.  ``provers`` is None for a stochastic
    strategy, which is rebuilt from ``cfg.strategy`` on each trial's
    stream.  ``protocol`` and ``meta`` are set for protocol runs only;
    ``meta`` goes into the summary, and a trial returns its row alone.
    """

    cfg: ExperimentConfig
    params: TestParameters
    provers: ProverSet | None
    protocol: ProtocolConfig | None
    meta: dict

    def trial(self, i: int) -> dict:
        """Trial ``i``'s row, run on the stream ``trial_rng(seed, i)``."""
        cfg = self.cfg
        rng = trial_rng(cfg.seed, i)
        if self.provers is None:
            p = strategy_from_json(cfg.strategy, cfg.graph, self.params.theta, rng)
        else:
            p = self.provers.clone()
        if cfg.kind == "selftest":
            outcome = run_oneshot(p, self.params, rng)
            return {"trial": i, "subtest": outcome.subtest.kind,
                    "accepted": bool(outcome.accepted)}
        if cfg.kind == "mbqc":
            return {"trial": i, "output": int(run_pattern(p, cfg.pattern, rng)[0])}
        if cfg.kind == "isometry":
            report = equivalence_distance(p, self.params,
                                          cfg.labels or DEFAULT_LABELS)
            return {"trial": i, **report.to_json()}
        accepted, count = run_amplified(p, self.protocol, rng)
        return {"trial": i, "accepted": bool(accepted), "accept_count": int(count)}

    def rows(self, trials: range) -> list[dict]:
        """The rows of a range of trials: a whole serial run or one --jobs chunk."""
        return [self.trial(i) for i in trials]


def prepare(cfg: ExperimentConfig) -> TrialSetup:
    """Build the shared setup of a trial run (any kind but bounds).

    A run with a pattern tests each measured vertex at its step's angle and
    the rest at ``cfg.theta`` (``mbqc.pattern_angles``).  The test parameters
    and an honest strategy come from their once-per-process memos
    (``default_parameters``, which refuses what ``graphs.vertex_angles``
    refuses, and ``provers.honest_provers``, which takes ``params.theta`` as
    it is); the prover set, with its state and outcome tree, is built here
    for each run.  For a protocol run this computes the ProtocolConfig, and
    with it the pattern's reference law (kept for the last few graph and
    pattern pairs); a stochastic strategy is built per trial.
    """
    theta = cfg.theta if cfg.pattern is None else pattern_angles(
        cfg.graph, cfg.pattern, cfg.theta)
    params = default_parameters(cfg.graph, theta=theta)
    protocol, meta = (_protocol_setup(cfg, params) if cfg.kind == "protocol"
                      else (None, {}))
    spec = cfg.strategy or {"kind": "honest"}
    provers = None
    if spec.get("kind") not in STOCHASTIC_STRATEGIES:
        provers = strategy_from_json(spec, cfg.graph, params.theta, None)
    return TrialSetup(cfg, params, provers, protocol, meta)


def _bounds_record(cfg: ExperimentConfig) -> ResultRecord:
    opts = dict(cfg.options)
    if cfg.graph is not None:
        opts.setdefault("n", cfg.graph.n)
        opts.setdefault("edges", cfg.graph.edge_count)
    n = as_int(opts.get("n", 3), "n")
    edges = as_int(opts.get("edges", 3 * n), "edges")
    eps = as_real(opts.get("eps", 1e-6), "eps")
    m = as_int(opts.get("m", 4), "m")
    delta = as_real(opts.get("delta", 0.1), "delta")
    table = [{"kind": kind, "formula": bounds.FORMULAS[kind],
              "value": bounds.evaluate(kind, **params), "inputs": params}
             for kind, params in (
                 ("thm2", {"eps": eps, "n": n, "edges": edges, "p": 1}),
                 ("lemma1", {"eps": eps}),
                 ("cor3gap", {"delta": delta, "n": n}),
                 ("lemma6gapfloor", {"delta": delta, "n": n}),
                 ("hoeffdingn", {"gap": 0.2}),
                 ("thm1n", {"n": n, "delta": delta}))]
    summary = {"table": table,
               "chain": bounds.bound_chain_report(n, edges, eps, m=m),
               "inputs": {"n": n, "edges": edges, "eps": eps, "m": m,
                          "delta": delta}}
    return ResultRecord(cfg.digest(), cfg.kind, (), summary)


def _summarize(setup: TrialSetup, rows: list[dict]) -> dict:
    cfg = setup.cfg
    summary = {"kind": cfg.kind, "trials": cfg.trials, "prng": _prng_stamp(cfg)}
    if cfg.kind == "selftest":
        accepted = sum(r["accepted"] for r in rows)
        rate = accepted / len(rows)
        summary.update({
            "accept_rate": rate,
            "stderr": math.sqrt(rate * (1 - rate) / len(rows)),
            "c_test": c_test(setup.params)})
    elif cfg.kind == "mbqc":
        counts = {0: 0, 1: 0}
        for r in rows:
            counts[r["output"]] += 1
        empirical = {b: c / len(rows) for b, c in counts.items()}
        reference = reference_run(cfg.graph, cfg.pattern)
        summary.update({
            "distribution": {str(b): p for b, p in empirical.items()},
            "reference": {str(b): p for b, p in reference.items()},
            "total_variation": total_variation(empirical, reference)})
    elif cfg.kind == "isometry":
        violations = sum(not r["all_satisfied"] for r in rows)
        summary.update({
            "violations": violations,
            "all_satisfied": violations == 0,
            "max_worst_excess": max(r["worst_excess"] for r in rows),
            "max_epsilon": max(r["epsilon"] for r in rows)})
    elif cfg.kind == "protocol":
        summary.update(setup.meta)
        summary["accept_fraction"] = sum(r["accepted"] for r in rows) / len(rows)
    return summary


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ResultRecord:
    """Execute the configured trials and summarize them.

    With ``jobs > 1`` the trials split into min(jobs, trials) contiguous
    chunks, run on the setup built here by at most one worker process per
    chunk and per CPU; the per-trial PRNG streams make the merged rows
    identical to a serial run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if cfg.kind == "bounds":
        return _bounds_record(cfg)
    setup = prepare(cfg)
    if jobs > 1 and cfg.trials > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import
        n_chunks = min(jobs, cfg.trials)
        edges = np.linspace(0, cfg.trials, n_chunks + 1, dtype=int)
        rows: list[dict] = []
        with ProcessPoolExecutor(max_workers=min(n_chunks, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(setup.rows, range(int(a), int(b)))
                       for a, b in zip(edges[:-1], edges[1:]) if a < b]
            for fut in futures:
                rows.extend(fut.result())
    else:
        rows = setup.rows(range(cfg.trials))
    return ResultRecord(cfg.digest(), cfg.kind, tuple(rows),
                        _summarize(setup, rows))


def write_json_lines(record: ResultRecord, stream) -> None:
    """Rows as JSON lines, then one summary footer line."""
    for row in record.rows:
        stream.write(json.dumps(row, sort_keys=True) + "\n")
    footer = {"summary": record.summary, "config_digest": record.config_digest,
              "kind": record.kind}
    stream.write(json.dumps(footer, sort_keys=True) + "\n")


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return value


def write_csv(record: ResultRecord, stream) -> None:
    """Rows flattened to CSV; nested values are JSON-encoded."""
    if not record.rows:
        return
    headers: list[str] = []
    for row in record.rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    writer = csv.DictWriter(stream, fieldnames=headers)
    writer.writeheader()
    for row in record.rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
