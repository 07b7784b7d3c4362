"""Golden digests: seeded records and exact laws must not move by one bit.

Each case is a fixed-seed ``run_experiment`` record (or a list of exact
laws) hashed with sha256 over its sorted-key JSON.  The digests in
``golden_records.json`` were generated before the single-qubit kernel was
rewritten as one gemm, so any change to a sampled row, a summary value or
an exact probability, down to the last bit of a float, fails here.  The two
isometry digests were regenerated when real reports moved to float64: their
distances moved at the rounding level (at most 1.4e-17).  The two protocol
digests were regenerated when the rounds of a decision began to draw in
sequence from the trial's stream instead of one spawned child each.  The
exact-laws, mbqc and isometry-perturbed digests were regenerated when real
states and observables moved to float64: exact laws and epsilon are inner
products, which float64 sums in another order, so they moved by at most
1.1e-15 (the isometry bounds, which amplify epsilon, by 2.5e-14), and no
sampled field moved.  The two isometry digests were regenerated again when
the residual norm began to sum one graph-register slice at a time: each
residual element is the same subtract of the same product, but the sum of
squares runs in another order, so distances moved by at most 2e-31
(honest) and 7e-18 (perturbed); the rows also gained ``tightest_label``.
The two isometry digests were regenerated once more when the identity
overlap and a since-removed third junk candidate's sum began to add one
graph-register slice at a time instead of a matrix-vector product over
a reordered copy: the sum runs in another order, so honest ``junk_norm``
moved by 3.3e-16, honest distances by at most 2.2e-16 and perturbed
distances by 7e-18; no bound and no other field moved.  The two isometry
digests were regenerated again when the labels on one vertex began to
take their distances from 4x4 pair blocks (``isometry.pair_overlaps``)
instead of a kernel and a residual pass of their own, and the identity
overlap began to come from the same gemm: the sums run in another order,
so honest ``junk_norm`` moved by 3.3e-16, honest distances and
``worst_excess`` by at most 2.8e-16, perturbed ``junk_norm`` by 1.1e-16
and perturbed distances by 4.9e-17; no bound and no other field moved.
The two isometry digests were regenerated again when the circuit output
moved to the graph-register-major layout (the swap circuit run as one
sparse-input stage per vertex, Y from one gemm, multi-vertex labels from
their own stages, row block by row block): the sums run in another
order, so honest distances, ``worst_excess`` and ``max_worst_excess``
moved by at most 9.9e-32, perturbed distances by 2.1e-17 and perturbed
``junk_norm`` by 1.1e-16; no bound and no other field moved.  The
exact-laws, two mbqc and two protocol digests were regenerated when a
measured qubit began to leave the state (``measure`` and ``project``
return the branch on the other qubits, from the outcome's eigen-row,
not (psi +- M psi)/2): each branch probability is the squared norm of
another product, so exact-laws moved by at most 7.8e-16 (the X-Z-plane
law; the honest law went from 0.6250000000000001 to 0.625 exactly), the
mbqc summaries' ``reference`` by 1.1e-16, and the protocol summaries'
``c_calc`` by 2.2e-16 and ``c_ip``, ``s_ip`` and ``gap`` by at most
1.1e-16; no row field moved, and the selftest and isometry digests did
not change.  The two isometry digests were regenerated when the swap
circuit's last two stages began to stream from the output of the stages
before them (Y one gemm over that head, with those stages folded into
its weights; the 4x4 pair blocks contracted on views of Y and the junk;
a multi-vertex label's residual summed over its whole stream): the sums
run in another order, so honest ``junk_norm`` moved by 2.2e-16, honest
distances by at most 3.2e-16, honest ``worst_excess`` and
``max_worst_excess`` by 3.2e-16, and perturbed distances by 2.8e-17; no
bound and no other field moved.

Regenerate (only for a change that means to move records, and say so):
``PYTHONPATH=src python tests/test_golden_records.py > tests/golden_records.json``
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from artifact.experiments import ExperimentConfig, run_experiment
from artifact.graphs import complete_graph, triangular_lattice
from artifact.mbqc import MeasurementPattern, PatternStep, run_distribution
from artifact.provers import honest_provers, strategy_from_json
from artifact.selftest import default_parameters, exact_pass_probability

GOLDEN = Path(__file__).with_name("golden_records.json")

QUARTER = math.pi / 4
LATTICE = triangular_lattice(3, 4)
K3 = complete_graph(3)
# four unconditioned pi/4 measurements on the lattice, and K3's
# adaptive chain; both have non-uniform output laws
LATTICE_PATTERN = MeasurementPattern(
    tuple(PatternStep(v, QUARTER) for v in (0, 1, 4, 5)), output_bits=(0, 1, 4, 5))
K3_PATTERN = MeasurementPattern(
    (PatternStep(0, QUARTER), PatternStep(1, QUARTER, x_deps=(0,)),
     PatternStep(2, QUARTER, x_deps=(1,), z_deps=(0,))),
    output_bits=(0, 1, 2))
STRATEGIES = {"honest": {"kind": "honest"},
              "perturbed": {"kind": "perturbed", "eta": 0.05}}
XZ_ANGLES = {str(v): {"X": 0.1 * v, "Z": 1.5, "R+": 0.7, "R-": -0.9}
             for v in range(LATTICE.n)}


def _config(name: str, strategy: str) -> ExperimentConfig:
    common = dict(theta=QUARTER, strategy=STRATEGIES[strategy], seed=20240607)
    if name == "selftest":
        return ExperimentConfig(kind="selftest", graph=LATTICE, trials=48, **common)
    if name == "mbqc":
        return ExperimentConfig(kind="mbqc", graph=LATTICE, pattern=LATTICE_PATTERN,
                                trials=24, **common)
    if name == "protocol":
        return ExperimentConfig(kind="protocol", graph=K3, pattern=K3_PATTERN,
                                trials=2, options={"n_rounds": 150}, **common)
    return ExperimentConfig(kind="isometry", graph=K3, trials=2,
                            labels=("I", ("X", 0), ("Z", 1), ("R+", 2), ("R-", 0)),
                            **common)


def _exact_laws() -> list:
    """Exact ceilings and pattern laws on the lattice, honest and X-Z-plane."""
    params = default_parameters(LATTICE, theta=QUARTER)
    honest = honest_provers(LATTICE, dict(enumerate(params.theta)))
    xz = strategy_from_json({"kind": "xz", "angles": XZ_ANGLES}, LATTICE, {}, None)
    return [[exact_pass_probability(p, params),
             {str(b): v for b, v in run_distribution(p, LATTICE_PATTERN).items()}]
            for p in (honest, xz)]


CASES = {f"{name}-{strategy}": (lambda n=name, s=strategy: run_experiment(_config(n, s)).to_json())
         for name in ("selftest", "mbqc", "protocol", "isometry")
         for strategy in STRATEGIES}
CASES["exact-laws"] = _exact_laws


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_every_case_has_a_golden_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_matches_golden_digest(case):
    assert _digest(CASES[case]()) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    json.dump({case: _digest(make()) for case, make in sorted(CASES.items())},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
