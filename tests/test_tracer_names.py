"""The benchmark tracer's dotted names must resolve to package callables.

``perfbench/tracer.py`` patches functions by dotted name; a rename in the
package would otherwise surface only in a traced benchmark run.  Each
workload in ``perfbench/workloads.py`` also names the layers a traced run
must see called (its ``required`` tuple, else the run reads
``correct: false``); those names must be traced, a short K3 protocol run
must call every one that ``protocol-k3`` requires, and a short K3
isometry report every one that ``isometry-n7`` requires.  Every package
module attribute the workloads read must resolve, so that a deletion in
the package cannot break the benchmark only at run time.  Both files are
parsed, not imported or installed.
"""

import ast
import importlib
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

from artifact import experiments
from artifact.graphs import complete_graph
from artifact.mbqc import MeasurementPattern, PatternStep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracer_names() -> list[str]:
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            name = node.targets[0].id
            if name in ("TRACED", "TRIAL_STREAM", "PACKAGE"):
                values[name] = ast.literal_eval(node.value)
    assert values["PACKAGE"] == "artifact"
    return [*values["TRACED"], values["TRIAL_STREAM"]]


@pytest.mark.parametrize("dotted", _tracer_names())
def test_traced_name_is_a_package_callable(dotted):
    mod_name, *path = dotted.split(".")
    owner = importlib.import_module(f"artifact.{mod_name}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)


def _workload_package_reads() -> list[str]:
    """Every ``<module>.<attr>`` the workloads read on a package module
    they import with ``from artifact import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "artifact"
               for alias in node.names}
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_the_parser_finds_the_workloads_package_reads():
    reads = set(_workload_package_reads())
    assert {"provers.xz_plane_provers", "selftest.c_test", "mbqc.PatternStep"} <= reads


@pytest.mark.parametrize("dotted", _workload_package_reads())
def test_workload_package_read_resolves(dotted):
    mod_name, attr = dotted.split(".")
    assert hasattr(importlib.import_module(f"artifact.{mod_name}"), attr)


def _required_layers() -> dict[str, tuple[str, ...]]:
    """Workload name -> the ``required`` tuple of its class."""
    out = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        values = {}
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in ("name", "required")):
                values[stmt.targets[0].id] = ast.literal_eval(stmt.value)
        if "required" in values:
            out[values["name"]] = values["required"]
    return out


def test_every_required_layer_is_traced():
    required = _required_layers()
    assert set(required) == {"protocol-k3", "lattice-12", "isometry-n7"}
    traced = set(_tracer_names())
    for workload, names in required.items():
        assert set(names) <= traced, workload


def _count_calls(monkeypatch, workload: str) -> Counter:
    """Count calls to every layer ``workload`` requires the way the tracer
    sees them: on every package module attribute that binds the original
    function, or on the class."""
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "artifact" or name.startswith("artifact."))]
    for dotted in _required_layers()[workload]:
        mod_name, *path = dotted.split(".")
        owner = importlib.import_module(f"artifact.{mod_name}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])

        def counted(*args, _name=dotted, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        owners = [owner] if len(path) > 1 else [
            m for m in modules if getattr(m, path[-1], None) is original]
        for target in owners:
            monkeypatch.setattr(target, path[-1], counted)
    return calls


def _uncalled(calls: Counter, workload: str) -> list[str]:
    return [name for name in _required_layers()[workload] if not calls[name]]


def test_a_short_k3_protocol_run_calls_every_protocol_layer(monkeypatch):
    calls = _count_calls(monkeypatch, "protocol-k3")
    quarter = math.pi / 4
    pattern = MeasurementPattern((PatternStep(0, quarter), PatternStep(1, quarter, (0,)),
                                  PatternStep(2, quarter, (1,), (0,))), output_bits=(0, 1, 2))
    experiments.run_experiment(experiments.ExperimentConfig(
        kind="protocol", graph=complete_graph(3), pattern=pattern,
        strategy={"kind": "honest"}, trials=1, seed=3, options={"n_rounds": 40}))
    assert _uncalled(calls, "protocol-k3") == []
    assert calls["provers.ProverSet.clone"] == 1
    # one call of each round layer per round: the per-layer metrics
    # rounds_per_decision and calculate_share count them
    assert calls["protocol.run_round"] == 40
    assert calls["selftest.run_oneshot"] + calls["mbqc.run_pattern"] == 40


def test_a_short_k3_isometry_report_calls_every_isometry_layer(monkeypatch):
    calls = _count_calls(monkeypatch, "isometry-n7")
    experiments.run_experiment(experiments.ExperimentConfig(
        kind="isometry", graph=complete_graph(3), theta=math.pi / 4, trials=1, seed=3,
        strategy={"kind": "perturbed", "eta": 0.05}, labels=("I", ("X", 0), ("R+", 1))))
    assert _uncalled(calls, "isometry-n7") == []
    assert calls["isometry.equivalence_distance"] == 1
