"""Batch experiment runner: seeded trials, JSON-lines rows, summaries.

Every stochastic experiment draws trial ``i`` from its own PRNG stream
``numpy.random.default_rng([seed, i])``, so results are reproducible for a
given seed and independent of execution order or worker count.  Rows stream
as JSON lines; a single summary object closes the file.  The summary pins
the PRNG family so other implementations can replay the streams.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bounds
from .graphs import Graph
from .isometry import equivalence_distance
from .mbqc import MeasurementPattern, reference_run, run_distribution, run_pattern, total_variation
from .protocol import ProtocolConfig, choose_q, gap_case_lines, run_amplified
from .provers import ProverSet, strategy_from_json
from .selftest import TestParameters, c_test, default_parameters, run_oneshot

KINDS = ("selftest", "mbqc", "isometry", "protocol", "bounds")

# strategy kinds that consume randomness when they are built
STOCHASTIC_STRATEGIES = {"perturbed"}

DEFAULT_LABELS = ("I",)


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
        if self.kind == "bounds":
            if self.trials:
                raise ValueError("bounds experiments take no trials")
            return
        if self.graph is None:
            raise ValueError(f"{self.kind} experiments need a graph")
        if self.strategy is not None and not isinstance(self.strategy, dict):
            raise ValueError("a strategy must be a JSON object")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed is None:
            raise ValueError("stochastic experiments need a seed")
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

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        theta = obj.get("theta")
        if isinstance(theta, dict):
            theta = {int(v): float(a) for v, a in theta.items()}
        graph = obj.get("graph")
        pattern = obj.get("pattern")
        labels = obj.get("labels")
        return cls(
            kind=obj["kind"],
            graph=None if graph is None else Graph.from_json(graph),
            theta=theta,
            strategy=obj.get("strategy"),
            pattern=None if pattern is None else MeasurementPattern.from_json(pattern),
            labels=None if labels is None else tuple(
                tuple(l) if isinstance(l, list) else l for l in labels),
            trials=obj.get("trials", 0),
            seed=obj.get("seed"),
            options=obj.get("options", {}),
        )

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

    @classmethod
    def from_json(cls, obj: dict) -> "ResultRecord":
        return cls(obj["config_digest"], obj["kind"],
                   tuple(obj["rows"]), obj["summary"])


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial stream: default_rng([seed, trial])."""
    return np.random.default_rng([seed, trial])


def _prng_stamp(cfg: ExperimentConfig) -> dict:
    return {"family": "PCG64", "numpy": np.__version__,
            "stream": "numpy.random.default_rng([seed, trial])",
            "seed": cfg.seed}


def _params_for(cfg: ExperimentConfig) -> TestParameters:
    return default_parameters(cfg.graph, theta=cfg.theta)


def _strategy_spec(cfg: ExperimentConfig) -> dict:
    return cfg.strategy or {"kind": "honest"}


def _theta_map(params: TestParameters) -> dict[int, float]:
    return {v: params.theta[v] for v in range(len(params.theta))}


class _ProverFactory:
    """Builds the prover set for a trial, caching deterministic strategies."""

    def __init__(self, cfg: ExperimentConfig, params: TestParameters):
        self.spec = _strategy_spec(cfg)
        self.graph = cfg.graph
        self.theta = _theta_map(params)
        self.stochastic = self.spec.get("kind") in STOCHASTIC_STRATEGIES
        self._cached: ProverSet | None = None

    def provers(self, rng: np.random.Generator) -> ProverSet:
        if self.stochastic:
            return strategy_from_json(self.spec, self.graph, self.theta, rng)
        if self._cached is None:
            self._cached = strategy_from_json(self.spec, self.graph,
                                              self.theta, rng)
        return self._cached.clone()


def _selftest_rows(cfg: ExperimentConfig, trials: range) -> list[dict]:
    params = _params_for(cfg)
    factory = _ProverFactory(cfg, params)
    rows = []
    for i in trials:
        rng = trial_rng(cfg.seed, i)
        outcome = run_oneshot(factory.provers(rng), params, rng)
        rows.append({"trial": i, "subtest": outcome.subtest.kind,
                     "accepted": bool(outcome.accepted)})
    return rows


def _mbqc_rows(cfg: ExperimentConfig, trials: range) -> list[dict]:
    params = _params_for(cfg)
    factory = _ProverFactory(cfg, params)
    rows = []
    for i in trials:
        rng = trial_rng(cfg.seed, i)
        bit, _ = run_pattern(factory.provers(rng), cfg.pattern, rng)
        rows.append({"trial": i, "output": int(bit)})
    return rows


def _isometry_rows(cfg: ExperimentConfig, trials: range) -> list[dict]:
    params = _params_for(cfg)
    factory = _ProverFactory(cfg, params)
    labels = cfg.labels or DEFAULT_LABELS
    rows = []
    for i in trials:
        rng = trial_rng(cfg.seed, i)
        report = equivalence_distance(factory.provers(rng), params, labels)
        rows.append({"trial": i, "epsilon": report.epsilon,
                     "junk_norm": report.junk_norm,
                     "junk_source": report.junk_source,
                     "all_satisfied": report.all_satisfied,
                     "worst_excess": report.worst_excess,
                     "labels": [r.to_json() for r in report.labels]})
    return rows


def _protocol_setup(cfg: ExperimentConfig) -> tuple[TestParameters, ProtocolConfig, dict]:
    """Assemble a ProtocolConfig from options plus desk-scale defaults.

    The true dishonest-test ceiling sits within 1e-30 of the honest rate
    for any graph this package can simulate, which makes the optimal coin
    bias formula degenerate in floats.  Desk runs therefore take the test
    gap from options["s_test_gap"] (default 0.1) unless an explicit
    s_test, q, or c_ip/s_ip pair overrides it.  The calculation branch's
    honest rate comes from the pattern's exact reference distribution.
    """
    params = _params_for(cfg)
    opts = cfg.options
    accept_output = int(opts.get("accept_output", 0))
    delta = float(opts.get("delta", 0.1))
    s_calc = float(opts.get("s_calc", 1 / 3))
    if "c_calc" in opts:
        c_calc = float(opts["c_calc"])
    else:
        c_calc = reference_run(cfg.graph, cfg.pattern).get(accept_output, 0.0)
    ct = c_test(params)
    if "s_test" in opts:
        st = float(opts["s_test"])
    else:
        st = ct - float(opts.get("s_test_gap", 0.1))
    if "q" in opts:
        q = float(opts["q"])
        gap = min(gap_case_lines(q, c_calc, s_calc, ct, st, delta))
    else:
        q, gap = choose_q(ct, st, s_calc, delta, c_calc)
    c_ip = float(opts.get("c_ip", q * c_calc + (1 - q) * ct))
    s_ip = float(opts.get("s_ip", max(c_ip - gap, 0.0)))
    if "n_rounds" in opts:
        n_rounds = int(opts["n_rounds"])
    else:
        n_rounds = bounds.hoeffding_n(c_ip - s_ip)
    proto_cfg = ProtocolConfig(
        q=q, params=params, pattern=cfg.pattern, n_rounds=n_rounds,
        c_ip=c_ip, s_ip=s_ip,
        threshold=opts.get("threshold"),
        accept_output=accept_output)
    meta = {"q": q, "gap": gap, "delta": delta, "c_test": ct, "s_test": st,
            "c_calc": c_calc, "s_calc": s_calc,
            "c_ip": c_ip, "s_ip": s_ip, "n_rounds": n_rounds,
            "threshold": proto_cfg.threshold}
    return params, proto_cfg, meta


def _protocol_rows(cfg: ExperimentConfig, trials: range,
                   setup: tuple | None = None) -> list[dict]:
    params, proto_cfg, _ = setup or _protocol_setup(cfg)
    factory = _ProverFactory(cfg, params)
    rows = []
    for i in trials:
        rng = trial_rng(cfg.seed, i)
        result = run_amplified(factory.provers(rng), proto_cfg, rng)
        rows.append({"trial": i, "accepted": bool(result.accepted),
                     "accept_count": int(result.accept_count)})
    return rows


_ROW_FNS = {"selftest": _selftest_rows, "mbqc": _mbqc_rows,
            "isometry": _isometry_rows, "protocol": _protocol_rows}


def _chunk_worker(cfg_json: str, start: int, stop: int) -> list[dict]:
    cfg = ExperimentConfig.from_json(json.loads(cfg_json))
    return _ROW_FNS[cfg.kind](cfg, range(start, stop))


def _bounds_record(cfg: ExperimentConfig) -> ResultRecord:
    opts = dict(cfg.options)
    if cfg.graph is not None:
        opts.setdefault("n", cfg.graph.n)
        opts.setdefault("edges", cfg.graph.edge_count)
    n = int(opts.get("n", 3))
    edges = int(opts.get("edges", 3 * n))
    eps = float(opts.get("eps", 1e-6))
    m = int(opts.get("m", 4))
    delta = float(opts.get("delta", 0.1))
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


def _summarize(cfg: ExperimentConfig, rows: list[dict], meta: dict) -> dict:
    summary = {"kind": cfg.kind, "trials": cfg.trials, "prng": _prng_stamp(cfg)}
    if cfg.kind == "selftest":
        params = _params_for(cfg)
        accepted = sum(r["accepted"] for r in rows)
        rate = accepted / len(rows)
        summary.update({
            "accept_rate": rate,
            "stderr": math.sqrt(rate * (1 - rate) / len(rows)),
            "c_test": c_test(params)})
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
        summary.update(meta)
        summary["accept_fraction"] = sum(r["accepted"] for r in rows) / len(rows)
    return summary


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ResultRecord:
    """Execute the configured trials and summarize them.

    With ``jobs > 1`` contiguous trial chunks run in worker processes; the
    per-trial PRNG streams make the merged rows identical to a serial run.
    """
    if cfg.kind == "bounds":
        return _bounds_record(cfg)
    rows_for, meta = _ROW_FNS[cfg.kind], {}
    if cfg.kind == "protocol":
        # the setup runs reference_run; build it once for rows and summary
        setup = _protocol_setup(cfg)
        rows_for, meta = partial(_protocol_rows, setup=setup), setup[2]
    if jobs > 1 and cfg.trials > 1:
        cfg_json = json.dumps(cfg.to_json())
        n_chunks = min(jobs, cfg.trials)
        edges = np.linspace(0, cfg.trials, n_chunks + 1, dtype=int)
        rows: list[dict] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_chunk_worker, cfg_json, int(a), int(b))
                       for a, b in zip(edges[:-1], edges[1:]) if a < b]
            for fut in futures:
                rows.extend(fut.result())
    else:
        rows = rows_for(cfg, range(cfg.trials))
    return ResultRecord(cfg.digest(), cfg.kind, tuple(rows),
                        _summarize(cfg, rows, meta))


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
