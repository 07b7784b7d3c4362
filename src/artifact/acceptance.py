"""Acceptance suite: twelve numbered end-to-end checks.

Each criterion is a deterministic function (fixed seeds and one fixed
size) returning pass or fail plus a one-line detail string.  ``run_suite``
prints one line per criterion; ``gsip accept`` and the pytest gate both run
these same sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds, provers
from .graphs import (Graph, complete_graph, triangle_strip, triangular_lattice,
                     triangles_containing)
from .graphstate import build_graph_state, stabilizer_expectations, triangle_operator
from .isometry import anticommutator_norm, equivalence_distance
from .mbqc import (MeasurementPattern, PatternStep, chain_law, reference_run,
                   run_distribution, total_variation)
from .protocol import (midpoint_threshold, run_amplified_rounds,
                       uncovered_calculate_queries)
from .provers import honest_provers, perturbed_provers, xz_plane_provers
from .selftest import (best_classical_rtheta, c_test, default_parameters,
                       empirical_pass_rate, exact_pass_probability,
                       rtheta_success)
from .statevec import StateVector, expectation

THETA = math.pi / 4

# graphs used for the sweep criteria, one per vertex count
SWEEP_GRAPHS = {
    3: complete_graph(3),
    4: triangle_strip(4),
    5: triangle_strip(5),
    6: triangular_lattice(2, 3),
    7: triangle_strip(7),
}


def _params(graph: Graph, theta=None):
    return default_parameters(graph, theta=THETA if theta is None else theta)


def _honest(graph: Graph, theta=None):
    theta = THETA if theta is None else theta
    if not isinstance(theta, dict):
        theta = {v: theta for v in range(graph.n)}
    return honest_provers(graph, theta)


def _all_triangles(graph: Graph) -> list[tuple[int, int, int]]:
    return sorted({tuple(sorted(t)) for v in range(graph.n)
                   for t in triangles_containing(graph, v)})


def _indicator(n: int, vertices) -> np.ndarray:
    vec = np.zeros(n, dtype=np.uint8)
    vec[list(vertices)] = 1
    return vec


def criterion_1() -> tuple[bool, str]:
    """Stabilizers +1 and triangle operators -1 on the 3x4 lattice."""
    graph = triangular_lattice(3, 4)
    gs = build_graph_state(graph)
    stab_dev = float(np.max(np.abs(stabilizer_expectations(gs) - 1)))
    tris = _all_triangles(graph)
    tri_dev = max(abs(expectation(gs.state,
                                  triangle_operator(graph, _indicator(graph.n, t))) + 1)
                  for t in tris)
    worst = max(stab_dev, tri_dev)
    ok = worst < 1e-10
    return ok, (f"n={graph.n}, {len(tris)} triangles, "
                f"worst deviation {worst:.2e} (tol 1e-10)")


def criterion_2() -> tuple[bool, str]:
    """Honest K3 one-shot pass rate within 4 sigma of the exact ceiling."""
    trials = 100_000
    graph = complete_graph(3)
    params = _params(graph)
    rate, _ = empirical_pass_rate(_honest(graph), params, trials,
                                  np.random.default_rng(7))
    c = c_test(params)
    sigma = math.sqrt(c * (1 - c) / trials)
    dev = abs(rate - c) / sigma
    return dev <= 4, (f"rate {rate:.5f} vs c_test {c:.5f} "
                      f"over {trials} trials = {dev:.2f} sigma (max 4)")


def criterion_3() -> tuple[bool, str]:
    """Honest rotation-subtest success equals 1/2 + 1/(2*sqrt(2)) exactly."""
    graph = complete_graph(3)
    params = _params(graph)
    p = _honest(graph)
    anchor = 0.5 + 1 / (2 * math.sqrt(2))
    worst = max(abs(rtheta_success(p, params, v) - anchor)
                for v in range(graph.n))
    return worst < 1e-10, (f"per-vertex rotation success within {worst:.2e} "
                           f"of {anchor:.10f} (tol 1e-10)")


def criterion_4() -> tuple[bool, str]:
    """No X-Z-plane strategy beats the honest one-shot ceiling."""
    count = 1000
    graph = complete_graph(3)
    params = _params(graph)
    cap = c_test(params)
    rng = np.random.default_rng(2026)
    ideal = build_graph_state(graph).state
    honest_angles = {"X": 0.0, "Z": math.pi / 2,
                     "R+": THETA, "R-": -THETA}
    worst = -1.0
    for i in range(count):
        if i % 2:
            # jitter around the honest strategy: the adversary that gets
            # closest to the cap without crossing it
            angles = [{lbl: honest_angles[lbl] + rng.normal(0, 0.3)
                       for lbl in provers.QUERY_LABELS}
                      for _ in range(graph.n)]
            state = ideal
        else:
            vec = rng.normal(size=2 ** graph.n) + 1j * rng.normal(size=2 ** graph.n)
            state = StateVector(graph.n, vec / np.linalg.norm(vec))
            angles = [{lbl: rng.uniform(0, 2 * math.pi)
                       for lbl in provers.QUERY_LABELS}
                      for _ in range(graph.n)]
        p = xz_plane_provers(state, angles)
        worst = max(worst, exact_pass_probability(p, params) - cap)
    return worst <= 1e-9, (f"{count} strategies, max pass-rate excess over "
                           f"c_test = {worst:.3e} (tol 1e-9)")


def criterion_5() -> tuple[bool, str]:
    """Deterministic replies cap the rotation subtest at exactly 3/4."""
    graph = complete_graph(3)
    params = _params(graph)
    best = max(best_classical_rtheta(params, v)[0] for v in range(graph.n))
    quantum = 0.5 + 1 / (2 * math.sqrt(2))
    ok = abs(best - 0.75) < 1e-12 and best < quantum
    return ok, (f"exhaustive classical max {best:.6f} = 3/4, "
                f"quantum anchor {quantum:.5f}")


def _engine_patterns() -> list[tuple[Graph, MeasurementPattern, dict[int, float]]]:
    """Adaptive patterns on several graphs, angles within the test family."""
    cases = []
    k3 = complete_graph(3)
    cases.append((k3, MeasurementPattern(
        (PatternStep(0, THETA, (), ()),
         PatternStep(1, THETA, (0,), ())), (1,)), {v: THETA for v in range(3)}))
    s5 = triangle_strip(5)
    varied = {0: math.pi / 3, 1: math.pi / 8, 2: THETA, 3: THETA, 4: THETA}
    cases.append((s5, MeasurementPattern(
        (PatternStep(0, varied[0], (), ()),
         PatternStep(1, varied[1], (0,), ()),
         PatternStep(2, varied[2], (1,), (0,))), (2, 0)), varied))
    s8 = triangle_strip(8)
    cases.append((s8, MeasurementPattern(
        (PatternStep(0, THETA, (), ()),
         PatternStep(1, THETA, (0,), ()),
         PatternStep(2, THETA, (1,), (0,)),
         PatternStep(3, THETA, (2,), (1,)),
         PatternStep(4, THETA, (3,), (0, 2))), (4, 1)),
        {v: THETA for v in range(8)}))
    return cases


def criterion_6() -> tuple[bool, str]:
    """Honest provers on random adaptive path patterns match ``mbqc.chain_law``."""
    def engine_law(n, pattern):
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        angles = [*(s.theta for s in pattern.steps), THETA]
        return run_distribution(_honest(path, dict(enumerate(angles))), pattern)

    rng = np.random.default_rng(11)
    count = 100
    worst, live = 0.0, 0
    for i in range(count):  # measure 0..k-1 of a path of k or k+1 vertices
        k = int(rng.integers(1, 7))
        n = k + i % 2
        pattern = MeasurementPattern(tuple(
            PatternStep(j, float(rng.uniform(0, math.pi / 2)),
                        tuple(d for d in range(j) if rng.random() < 0.5),
                        tuple(d for d in range(j) if rng.random() < 0.5))
            for j in range(k)), tuple(v for v in range(k) if rng.random() < 0.5))
        law = chain_law(pattern, n)
        worst = max(worst, total_variation(engine_law(n, pattern), law))
        live += abs(law[0] - 0.5) > 1e-6
    # the check must have teeth: provers at pi/3 against a pattern at pi/6
    wrong = total_variation(
        engine_law(1, MeasurementPattern((PatternStep(0, math.pi / 3),), (0,))),
        chain_law(MeasurementPattern((PatternStep(0, math.pi / 6),), (0,)), 1))
    # a law more than 1e-6 from 1/2 is live, so an engine stuck at 1/2 fails
    ok = worst <= 1e-10 and live > 0 and wrong > 1e-3
    return ok, (f"engine vs chain law: worst total variation {worst:.2e} (tol 1e-10), "
                f"{live}/{count} live; wrong angle differs by {wrong:.3f}")


def _single_vertex_labels(n: int) -> list:
    labels: list = ["I"]
    for v in range(n):
        labels += [("X", v), ("Z", v), ("R+", v), ("R-", v)]
    return labels


def _random_xz_label(n: int, rng: np.random.Generator) -> tuple:
    q = rng.integers(0, 2, size=n)
    p = rng.integers(0, 2, size=n)
    return ("XZ", tuple(int(b) for b in q), tuple(int(b) for b in p))


def criterion_7() -> tuple[bool, str]:
    """Ideal provers factorize exactly under the swap isometry."""
    sizes = (3, 4, 5, 6, 7)
    per_size = 10
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    for n in sizes:
        graph = SWEEP_GRAPHS[n]
        params = _params(graph)
        labels = _single_vertex_labels(n)
        labels += [_random_xz_label(n, rng) for _ in range(per_size)]
        report = equivalence_distance(_honest(graph), params, labels)
        worst = max(worst, max(r.distance for r in report.labels))
        checked += len(report.labels)
    return worst < 1e-10, (f"{checked} labels across n={sizes}, "
                           f"worst distance {worst:.2e} (tol 1e-10)")


def criterion_8() -> tuple[bool, str]:
    """Measured distances never beat the closed-form bounds."""
    instances = 100
    rng = np.random.default_rng(88)
    sizes = sorted(SWEEP_GRAPHS)
    violations = 0
    min_margin = math.inf
    for i in range(instances):
        n = sizes[i % len(sizes)]
        graph = SWEEP_GRAPHS[n]
        params = _params(graph)
        eta = rng.uniform(0.01, 0.1)
        p = perturbed_provers(_honest(graph), eta, rng)
        labels = _single_vertex_labels(n)
        labels += [_random_xz_label(n, rng) for _ in range(3)]
        report = equivalence_distance(p, params, labels)
        if not report.all_satisfied:
            violations += 1
        for r in report.labels:
            if r.bound > 0:
                min_margin = min(min_margin, r.bound - r.distance)
        anticomm_cap = bounds.lemma1_anticommutator(max(report.epsilon, 0.0))
        for v in range(n):
            if anticommutator_norm(p, v) > anticomm_cap + 1e-9:
                violations += 1
    ok = violations == 0
    return ok, (f"{instances} perturbed instances over n={sizes}: "
                f"{violations} violations, smallest bound margin {min_margin:.3f}")


def _deviation_patterns() -> dict[int, MeasurementPattern]:
    pats = {}
    pats[3] = MeasurementPattern(
        (PatternStep(0, THETA, (), ()),
         PatternStep(1, THETA, (0,), ())), (1,))
    pats[4] = MeasurementPattern(
        (PatternStep(0, THETA, (), ()),
         PatternStep(1, THETA, (0,), ()),
         PatternStep(2, THETA, (1,), (0,))), (2,))
    pats[5] = pats[4]
    pats[6] = MeasurementPattern(
        (PatternStep(0, THETA, (), ()),
         PatternStep(2, THETA, (0,), ()),
         PatternStep(4, THETA, (2,), (0,))), (4, 0))
    return pats


def criterion_9() -> tuple[bool, str]:
    """Adaptive-run output deviation stays within the sequential bound."""
    instances = 50
    rng = np.random.default_rng(99)
    patterns = _deviation_patterns()
    sizes = sorted(patterns)
    violations = 0
    worst_ratio = 0.0
    for i in range(instances):
        n = sizes[i % len(sizes)]
        graph = SWEEP_GRAPHS[n]
        params = _params(graph)
        pattern = patterns[n]
        p = perturbed_provers(_honest(graph), rng.uniform(0.01, 0.1), rng)
        labels = []
        for v in pattern.vertices:
            labels += [("R+", v), ("R-", v)]
        report = equivalence_distance(p, params, labels)
        delta = max(r.distance for r in report.labels)
        cap = bounds.cor2_bound(delta, graph.n)
        dist = run_distribution(p, pattern)
        ref = reference_run(graph, pattern)
        deviation = max(abs(dist.get(b, 0.0) - ref.get(b, 0.0)) for b in (0, 1))
        if deviation > cap + 1e-12:
            violations += 1
        if cap > 0:
            worst_ratio = max(worst_ratio, deviation / cap)
    ok = violations == 0
    return ok, (f"{instances} instances over n={sizes}: {violations} violations, "
                f"worst deviation/bound ratio {worst_ratio:.4f}")


def criterion_10() -> tuple[bool, str]:
    """Closed-form table: coin bias, gap floors, repetition counts."""
    checks = []
    q = bounds.evaluate("lemma6_q", c_test=0.9, s_test=0.8,
                        s_calc=1 / 3, delta=1 / 6)
    checks.append(abs(q - 1 / 6) < 1e-12)
    for delta, n in ((0.1, 3), (1 / 6, 5), (0.05, 12)):
        floor = bounds.evaluate("lemma6_gap_floor", delta=delta, n=n)
        checks.append(abs(floor - delta ** 8 / (10 ** 18.8 * n ** 11)) < 1e-15 * floor
                      or floor == delta ** 8 / (10 ** 18.8 * n ** 11))
        c3 = bounds.evaluate("cor3_gap", delta=delta, n=n)
        checks.append(c3 == delta ** 8 / (10 ** 17.7 * n ** 11))
    checks.append(bounds.evaluate("hoeffding_n", gap=0.2) == 55)
    worst_log = 0.0
    for n in (3, 10, 100):
        for delta in (0.1, 1 / 6):
            composed = 2 * math.log(3) / bounds.lemma6_gap_floor(delta, n) ** 2
            displayed = bounds.thm1_n(n, delta)
            worst_log = max(worst_log, abs(math.log10(composed / displayed)))
    checks.append(worst_log <= 0.2)
    ok = all(checks)
    return ok, (f"q(0.9,0.8,1/3,1/6)={q:.6f}, hoeffding(0.2)="
                f"{bounds.evaluate('hoeffding_n', gap=0.2)}, paper-scale N "
                f"within 10^{worst_log:.3f} of displayed (max 10^0.2)")


def criterion_11() -> tuple[bool, str]:
    """Majority amplification decides synthetic Bernoulli rounds correctly."""
    meta = 1000
    c_ip, s_ip, n_rounds = 0.25, 0.05, 55
    threshold = midpoint_threshold(n_rounds, c_ip, s_ip)
    rng = np.random.default_rng(1111)
    errors = {"completeness": 0, "soundness": 0}
    for _ in range(meta):
        accepted, _ = run_amplified_rounds(
            lambda r: r.random() < c_ip, n_rounds, threshold, rng)
        errors["completeness"] += not accepted
        accepted, _ = run_amplified_rounds(
            lambda r: r.random() < s_ip, n_rounds, threshold, rng)
        errors["soundness"] += accepted
    comp = errors["completeness"] / meta
    sound = errors["soundness"] / meta
    ok = comp <= 1 / 3 and sound <= 1 / 3
    return ok, (f"N={n_rounds}, threshold {threshold}: completeness error "
                f"{comp:.3f}, soundness error {sound:.3f} over {meta} "
                f"meta-trials (max 1/3)")


def criterion_12() -> tuple[bool, str]:
    """Every computation query is already a test query, structurally."""
    uncovered = []
    n_patterns = 0
    for graph, pattern, theta in _engine_patterns():
        params = _params(graph, theta=theta)
        uncovered += uncovered_calculate_queries(pattern, params)
        n_patterns += 1
    for n, pattern in _deviation_patterns().items():
        params = _params(SWEEP_GRAPHS[n])
        uncovered += uncovered_calculate_queries(pattern, params)
        n_patterns += 1
    # the check must have teeth: a mismatched angle is flagged
    k3 = complete_graph(3)
    mismatch = uncovered_calculate_queries(
        MeasurementPattern((PatternStep(0, math.pi / 3, (), ()),), (0,)),
        _params(k3))
    ok = not uncovered and mismatch == [0]
    return ok, (f"{n_patterns} patterns fully covered by the test label set; "
                f"angle mismatch correctly flagged at vertex {mismatch}")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


CRITERIA: list[tuple[int, str, object]] = [
    (1, "stabilizer and triangle expectations on the 3x4 lattice", criterion_1),
    (2, "honest one-shot pass rate matches the exact ceiling", criterion_2),
    (3, "rotation-subtest success hits the quantum anchor", criterion_3),
    (4, "X-Z-plane strategies never beat the honest ceiling", criterion_4),
    (5, "deterministic replies cap the rotation subtest at 3/4", criterion_5),
    (6, "pattern engine matches the chain law on paths", criterion_6),
    (7, "swap isometry factorizes ideal provers exactly", criterion_7),
    (8, "closed-form bounds hold for perturbed provers", criterion_8),
    (9, "adaptive-run deviation within the sequential bound", criterion_9),
    (10, "closed-form table reproduces the displayed numbers", criterion_10),
    (11, "majority amplification error stays below 1/3", criterion_11),
    (12, "computation queries are covered by test queries", criterion_12),
]


def run_criterion(number: int) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn()
            return CriterionResult(num, title, passed, detail,
                                   time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def suite_numbers(selected=None) -> list[int]:
    """The (selected) criterion numbers in suite order; ValueError on an
    unknown one or an empty selection."""
    numbers = [num for num, _, _ in CRITERIA]
    if selected is not None and not selected:
        raise ValueError("no criterion selected")
    unknown = set(selected or ()) - set(numbers)
    if unknown:
        raise ValueError(f"unknown criteria {sorted(unknown)}")
    return numbers if selected is None else [n for n in numbers if n in set(selected)]


def run_suite(selected=None, stream=None) -> bool:
    """Run the (selected) criteria, print one line each, return overall pass."""
    all_ok = True
    for number in suite_numbers(selected):
        result = run_criterion(number)
        all_ok &= result.passed
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            stream.write(f"{status} {result.number:2d} {result.title} "
                         f"[{result.seconds:.1f}s] {result.detail}\n")
            stream.flush()
    return all_ok
