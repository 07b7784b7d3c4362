"""Tests for experiment configs, deterministic runs, and writers."""

import concurrent.futures
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import types

import pytest

from artifact import experiments, provers, selftest
from artifact.experiments import (
    ExperimentConfig,
    run_experiment,
    trial_rng,
    write_csv,
    write_json_lines,
)
from artifact.graphs import complete_graph, triangle_strip
from artifact.mbqc import MeasurementPattern, PatternStep, reference_run, run_distribution
from artifact.provers import OutcomeTree, ProverSet, honest_provers, strategy_from_json
from artifact.statevec import StateVector

THETA = math.pi / 4
K3 = complete_graph(3)
PATTERN = MeasurementPattern(
    (PatternStep(0, THETA), PatternStep(1, THETA, x_deps=(0,))),
    output_bits=(1,))


def _cfg(kind="selftest", **overrides):
    base = dict(kind=kind, graph=K3, theta=THETA, strategy=None,
                pattern=None, labels=None, trials=6, seed=11, options={})
    if kind in ("mbqc", "protocol"):
        base["pattern"] = PATTERN
    if kind == "bounds":
        base = dict(kind="bounds", graph=K3, theta=None, strategy=None,
                    pattern=None, labels=None, trials=None, seed=None,
                    options={"eps": 1e-3, "delta": 0.1})
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_and_digest_stability(self):
        cfg = _cfg("isometry", labels=("I", ("X", 0)),
                   strategy={"kind": "perturbed", "eta": 0.05})
        again = _cfg("isometry", labels=("I", ("X", 0)),
                     strategy={"kind": "perturbed", "eta": 0.05})
        assert again.to_json() == cfg.to_json()
        assert again.digest() == cfg.digest()
        assert len(cfg.digest()) == 12

    def test_digest_changes_with_the_config(self):
        assert _cfg(seed=11).digest() != _cfg(seed=12).digest()
        assert _cfg(trials=6).digest() != _cfg(trials=7).digest()

    def test_json_survives_a_real_serializer(self):
        cfg = _cfg("protocol", options={"delta": 0.1})
        assert json.loads(json.dumps(cfg.to_json())) == cfg.to_json()

    @pytest.mark.parametrize("kwargs", [
        {"kind": "unknown"},
        {"trials": 0},
        {"seed": None},
        {"graph": None},
    ])
    def test_invalid_stochastic_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _cfg(**kwargs)

    def test_isometry_refuses_an_empty_label_list(self):
        # an empty list used to fall back to the default label "I"
        with pytest.raises(ValueError, match="at least one label"):
            _cfg("isometry", labels=())

    def test_mbqc_requires_a_pattern(self):
        with pytest.raises(ValueError):
            _cfg("mbqc", pattern=None)

    @pytest.mark.parametrize("kind,field,value", [
        ("selftest", "pattern", PATTERN),
        ("isometry", "pattern", PATTERN),
        ("bounds", "pattern", PATTERN),
        ("selftest", "labels", ("I",)),
        ("mbqc", "labels", ("I",)),
        ("protocol", "labels", ("I",)),
        ("bounds", "labels", ("I",)),
    ])
    def test_a_field_the_kind_does_not_read_is_refused(self, kind, field, value):
        # such a field used to be ignored, though it changed the digest
        with pytest.raises(ValueError, match=f"^{kind} experiments take no {field}$"):
            _cfg(kind, **{field: value})

    def test_bounds_rejects_trials(self):
        with pytest.raises(ValueError):
            _cfg("bounds", trials=5)

    @pytest.mark.parametrize("kind", ["selftest", "mbqc", "isometry", "protocol"])
    @pytest.mark.parametrize("theta,message", [
        ({0: 0.5, 1: 0.5}, "theta has no angle for vertex 2"),
        ({0: 0.5, 1: 0.5, 2: 0.5, 7: 0.5}, "theta given for vertex 7, outside the graph"),
        (True, r"theta\[0\] = True outside \[0, pi/2\]"),
    ], ids=["misses-a-vertex", "names-an-extra-vertex", "a-bool-angle"])
    def test_a_theta_map_must_name_each_vertex_once(self, kind, theta, message):
        # a missing vertex ended in a bare KeyError; an extra one was
        # ignored, though it changed the digest; True ran the test at 1 rad
        with pytest.raises(ValueError, match=message):
            run_experiment(_cfg(kind, theta=theta))

    @pytest.mark.parametrize("kind", ["mbqc", "protocol"])
    def test_a_theta_map_that_conflicts_with_the_pattern_is_refused(self, kind):
        theta = {0: THETA, 1: 0.5, 2: THETA}
        with pytest.raises(ValueError, match=r"^theta\[1\] = 0\.5 differs from "
                                             r"the pattern's angle 0\.785398 at vertex 1$"):
            run_experiment(_cfg(kind, theta=theta))

    def test_trial_rng_streams_are_distinct(self):
        a = trial_rng(5, 0).random(4).tolist()
        b = trial_rng(5, 1).random(4).tolist()
        c = trial_rng(5, 0).random(4).tolist()
        assert a == c
        assert a != b


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["selftest", "mbqc", "protocol"])
    def test_same_config_same_record(self, kind):
        first = run_experiment(_cfg(kind))
        second = run_experiment(_cfg(kind))
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("kind,options", [
        ("selftest", {}),
        ("mbqc", {}),
        ("protocol", {"delta": 0.1, "n_rounds": 12}),
    ], ids=["selftest", "mbqc", "protocol"])
    def test_parallel_matches_serial(self, kind, options):
        cfg = _cfg(kind, trials=8, options=options)
        assert run_experiment(cfg, jobs=2).to_json() == \
            run_experiment(cfg, jobs=1).to_json()

    def test_parallel_matches_serial_for_stochastic_strategies(self):
        cfg = _cfg("isometry", trials=4,
                   strategy={"kind": "perturbed", "eta": 0.04},
                   labels=("I", ("X", 0)))
        assert run_experiment(cfg, jobs=2).to_json() == \
            run_experiment(cfg, jobs=1).to_json()

    @pytest.mark.parametrize("trials,cpus,workers", [(2, 4, 2), (8, 4, 4), (8, None, 1)])
    def test_pool_has_at_most_one_worker_per_chunk_and_cpu(self, monkeypatch, trials,
                                                            cpus, workers):
        sizes = []

        class InlinePool:
            """Records its size and runs each submitted chunk at once, in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        # run_experiment imports the pool class from its module on each pooled run
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        cfg = _cfg("selftest", trials=trials)
        assert run_experiment(cfg, jobs=64).rows == run_experiment(cfg).rows
        assert sizes == [workers]

    def test_importing_the_package_leaves_the_process_pool_out(self):
        # only a pooled run imports concurrent.futures.process
        code = ("import sys, artifact; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_record_round_trip(self):
        record = run_experiment(_cfg("selftest"))
        assert json.loads(json.dumps(record.to_json())) == record.to_json()


# one strategy of each kind
STRATEGY_SPECS = {
    "honest": None,
    "perturbed": {"kind": "perturbed", "eta": 0.05},
    "xz": {"kind": "xz", "angles": {"0": {"X": 0.2, "Z": 1.4}, "2": {"R+": 0.6}}},
    "classical": {"kind": "classical", "value": -1},
}


def _empty_memos():
    selftest._default_parameters.cache_clear()
    provers._honest_strategy.cache_clear()


class TestMemos:
    """Test parameters and honest strategies are built once per process;
    a run's records must not tell whether they were."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["selftest", "mbqc", "isometry", "protocol"])
    def test_records_are_the_same_with_cold_and_warm_memos(self, kind, jobs):
        cfgs = [_cfg(kind, strategy=spec, trials=4, options=(
                    {"n_rounds": 12} if kind == "protocol" else {}))
                for name, spec in STRATEGY_SPECS.items()
                if not (kind == "isometry" and name == "classical")]
        cold = []
        for cfg in cfgs:
            _empty_memos()
            cold.append(json.dumps(run_experiment(cfg, jobs=jobs).to_json(), sort_keys=True))
        # every memo entry is now warm, filled by another run
        warm = [json.dumps(run_experiment(cfg, jobs=jobs).to_json(), sort_keys=True)
                for cfg in reversed(cfgs)]
        assert warm[::-1] == cold

    def test_no_memo_holds_a_state_or_a_tree(self):
        for kind in ("selftest", "mbqc", "protocol"):
            run_experiment(_cfg(kind, trials=4, options=(
                {"n_rounds": 12} if kind == "protocol" else {})))
        memos = (selftest._default_parameters, provers._honest_strategy)
        assert all(memo.cache_info().currsize for memo in memos)
        seen = {id(memo) for memo in memos}
        todo = list(memos)
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, (StateVector, OutcomeTree, ProverSet)), obj
            for ref in gc.get_referents(obj):
                # classes, modules and functions lead to every global
                if id(ref) not in seen and not isinstance(
                        ref, (type, types.ModuleType, types.FunctionType)):
                    seen.add(id(ref))
                    todo.append(ref)
        assert len(seen) > 100  # the walk reached the cached objects


class TestRowsAndSummaries:
    def test_selftest_rows_and_summary(self):
        cfg = _cfg("selftest", trials=40)
        record = run_experiment(cfg)
        assert record.kind == "selftest"
        assert record.config_digest == cfg.digest()
        assert len(record.rows) == 40
        for i, row in enumerate(record.rows):
            assert row["trial"] == i
            assert isinstance(row["accepted"], bool)
            assert isinstance(row["subtest"], str)
        rate = sum(r["accepted"] for r in record.rows) / 40
        assert math.isclose(record.summary["accept_rate"], rate,
                            abs_tol=1e-12)
        assert 0.8 < record.summary["c_test"] < 1.0

    def test_mbqc_summary_recomputable_from_rows(self):
        cfg = _cfg("mbqc", trials=30)
        record = run_experiment(cfg)
        counts = {0: 0, 1: 0}
        for row in record.rows:
            counts[row["output"]] += 1
        for bit in (0, 1):
            assert math.isclose(record.summary["distribution"][str(bit)],
                                counts[bit] / 30, abs_tol=1e-12)
        ref = reference_run(K3, PATTERN)
        for bit in (0, 1):
            assert math.isclose(record.summary["reference"][str(bit)],
                                ref.get(bit, 0.0), abs_tol=1e-12)
        assert record.summary["total_variation"] >= 0

    def test_isometry_rows_carry_label_reports(self):
        cfg = _cfg("isometry", trials=2, labels=("I", ("Z", 1)))
        record = run_experiment(cfg)
        for row in record.rows:
            assert row["all_satisfied"] is True
            assert len(row["labels"]) == 2
            assert {r["label"] for r in row["labels"]} == {"I", "Z(1)"}
        assert record.summary["violations"] == 0
        assert record.summary["all_satisfied"] is True

    def test_protocol_summary_records_the_setup(self):
        cfg = _cfg("protocol", trials=2,
                   options={"delta": 0.1, "n_rounds": 12})
        record = run_experiment(cfg)
        meta = record.summary
        assert meta["n_rounds"] == 12
        assert 0 < meta["q"] <= 1
        assert meta["c_test"] > meta["s_test"]
        assert meta["c_ip"] > meta["s_ip"]
        for row in record.rows:
            assert 0 <= row["accept_count"] <= 12
        assert math.isclose(
            meta["accept_fraction"],
            sum(r["accepted"] for r in record.rows) / 2, abs_tol=1e-12)

    def test_protocol_run_computes_the_reference_law_once(self, monkeypatch,
                                                          tmp_path):
        # calls go to a file so that calls in worker processes count too
        log = tmp_path / "calls"
        log.write_text("")

        def counted(*args):
            with open(log, "a") as fh:
                fh.write("x")
            return reference_run(*args)

        monkeypatch.setattr(experiments, "reference_run", counted)
        run_experiment(_cfg("protocol", trials=4,
                            options={"delta": 0.1, "n_rounds": 12}), jobs=2)
        assert log.read_text() == "x"

    def test_protocol_c_calc_is_a_fresh_law_of_the_pattern(self):
        # the reference law is kept between runs; c_calc must still be the
        # honest law at the pattern's angles, computed from scratch
        for _ in range(2):
            meta = run_experiment(_cfg("protocol", trials=1,
                                       options={"n_rounds": 4})).summary
            theta = dict.fromkeys(range(K3.n), 0.0)
            theta.update((s.vertex, s.theta) for s in PATTERN.steps)
            law = run_distribution(honest_provers(K3, theta), PATTERN)
            assert meta["c_calc"] == law.get(0, 0.0)

    def test_each_trial_draws_its_stream_through_trial_rng(self, monkeypatch):
        # a per-trial hook on the module global sees every trial exactly once
        seen = []

        def counted(seed, trial):
            seen.append(trial)
            return trial_rng(seed, trial)

        monkeypatch.setattr(experiments, "trial_rng", counted)
        run_experiment(_cfg("selftest", trials=5))
        assert seen == [0, 1, 2, 3, 4]

    def test_bounds_record_lists_formulas(self):
        record = run_experiment(_cfg("bounds"))
        assert record.kind == "bounds"
        assert record.rows == ()
        table = record.summary["table"]
        kinds = [entry["kind"] for entry in table]
        assert "thm2" in kinds and "hoeffdingn" in kinds
        for entry in table:
            assert set(entry) >= {"kind", "value", "formula"}
        assert record.summary["chain"][0]["stage"] == "thm2"
        assert record.summary["inputs"]["n"] == 3


class TestPatternAngles:
    # K3: v1 at 0.5, v2 at pi/4, then v0 with x_deps [1, 2] and z_deps [1];
    # its honest runs used to test v1 at the run's theta, not at 0.5
    PATTERN = MeasurementPattern(
        (PatternStep(1, 0.5), PatternStep(2, THETA),
         PatternStep(0, THETA, x_deps=(1, 2), z_deps=(1,))),
        output_bits=(1, 0))

    @pytest.mark.parametrize("theta", [None, THETA, 0.2])
    def test_the_honest_run_law_is_the_reference_law(self, theta):
        setup = experiments.prepare(_cfg("mbqc", theta=theta, pattern=self.PATTERN))
        assert setup.params.theta == (THETA, 0.5, THETA)
        law = run_distribution(setup.provers, self.PATTERN)
        reference = reference_run(K3, self.PATTERN)
        for bit in (0, 1):
            assert math.isclose(law[bit], reference[bit], rel_tol=0.0, abs_tol=1e-12)

    def test_a_perturbed_run_is_built_at_the_pattern_angles(self, monkeypatch):
        seen = []

        def recorded(spec, graph, theta, rng):
            seen.append(theta)
            return strategy_from_json(spec, graph, theta, rng)

        monkeypatch.setattr(experiments, "strategy_from_json", recorded)
        run_experiment(_cfg("mbqc", theta=None, pattern=self.PATTERN, trials=2,
                            strategy={"kind": "perturbed", "eta": 0.05}))
        assert seen == [(THETA, 0.5, THETA)] * 2


class TestWriters:
    def test_json_lines_layout(self):
        record = run_experiment(_cfg("selftest", trials=5))
        buf = io.StringIO()
        write_json_lines(record, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 6
        for i, line in enumerate(lines[:-1]):
            assert json.loads(line)["trial"] == i
        footer = json.loads(lines[-1])
        assert footer["config_digest"] == record.config_digest
        assert footer["kind"] == "selftest"
        assert footer["summary"] == json.loads(
            json.dumps(record.summary, sort_keys=True))

    def test_csv_layout(self):
        record = run_experiment(_cfg("selftest", trials=5))
        buf = io.StringIO()
        write_csv(record, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 5
        assert set(rows[0]) == {"trial", "subtest", "accepted"}
        assert rows[0]["accepted"] in ("true", "false")

    def test_csv_nested_values_are_json(self):
        record = run_experiment(_cfg("isometry", trials=1, labels=("I",)))
        buf = io.StringIO()
        write_csv(record, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        nested = json.loads(rows[0]["labels"])
        assert nested[0]["label"] == "I"
