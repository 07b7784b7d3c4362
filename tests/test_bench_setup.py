"""The benchmark's timed set-up must pay for the package's memos.

``perfbench/run.py`` empties every memo it can see (``clear_package_caches``)
before each timed set-up, so ``setup_s`` includes building them.  A memo it
cannot see would be warm from the previous set-up and shrink ``setup_s``
silently.  The runner is loaded from its path, not edited or installed.
"""

import importlib.util
import math
from pathlib import Path

from artifact.graphs import triangular_lattice
from artifact.provers import honest_provers
from artifact.selftest import default_parameters

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clearing_the_package_caches_empties_both_memos():
    runner = _load_runner()
    graph = triangular_lattice(3, 4)
    theta = dict.fromkeys(range(graph.n), math.pi / 4)
    params = default_parameters(graph, theta)
    strategy = honest_provers(graph, theta).strategy
    assert default_parameters(graph, theta) is params
    assert honest_provers(graph, theta).strategy is strategy
    runner.clear_package_caches()
    assert default_parameters(graph, theta) is not params
    assert honest_provers(graph, theta).strategy is not strategy
