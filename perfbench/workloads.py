"""The benchmark's workloads: inputs, one timed operation, output checks.

A workload object is built by its constructor, which is the timed set-up:
graph, parameters, provers, reference laws and one warm-up call.  After
that the runner asks ``prepare(i)`` for operation ``i`` (inputs drawn from
the workload seed, untimed), times the returned call, hands its output to
``record`` and finally calls ``check``, which returns the number of failed
operations and a list of check errors.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import time

import numpy as np

import oracle
from artifact import experiments, graphs, isometry, mbqc, provers, selftest

QUARTER = math.pi / 4
SIGMAS = 5
EXACT_TOL = 1e-10
ORACLE_SAMPLE = 8


def seed_stream(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def lattice_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Row-major grid with E, S and SE neighbours, by coordinate offsets."""
    edges = []
    for a in range(rows * cols):
        for b in range(a + 1, rows * cols):
            dr, dc = b // cols - a // cols, b % cols - a % cols
            if (dr, dc) in ((0, 1), (1, 0), (1, 1)):
                edges.append((a, b))
    return edges


def law_for(params, edges) -> list:
    """The oracle's subtest law for ``params``, with its cover and partners
    checked against an edge list built apart from the package."""
    g = params.graph
    if sorted(g.edges) != sorted(edges):
        raise AssertionError("package graph differs from the independent edge list")
    nb = oracle.neighbours(g.n, edges)
    triangles = [tuple(int(v) for v in np.flatnonzero(tau)) for tau in params.cover.triangles]
    for a, b, c in triangles:
        if not (b in nb[a] and c in nb[a] and c in nb[b]):
            raise AssertionError(f"cover entry {(a, b, c)} is not a triangle")
    if {v for tri in triangles for v in tri} != set(range(g.n)):
        raise AssertionError("cover misses a vertex")
    for v, u in enumerate(params.u_choice):
        if u not in nb[v]:
            raise AssertionError(f"partner {u} of {v} is not a neighbour")
    return oracle.subtest_law(g.n, edges, triangles, params.theta, params.u_choice)


def jittered_angles(rng: np.random.Generator, n: int) -> list[dict]:
    """X-Z-plane angles near the honest ones, the adversary closest to the cap."""
    honest = {"X": 0.0, "Z": math.pi / 2, "R+": QUARTER, "R-": -QUARTER}
    return [{label: a + rng.normal(0, 0.3) for label, a in honest.items()}
            for _ in range(n)]


def matrices_of(p) -> list[dict]:
    return [{label: p.observable(v, label).matrix for label in ("X", "Z", "R+", "R-")}
            for v in range(p.n)]


def sample(rng: np.random.Generator, count: int) -> list[int]:
    return sorted(rng.choice(count, size=min(ORACLE_SAMPLE, count), replace=False))


def within_sigmas(hits: int, total: int, p: float) -> bool:
    return abs(hits - total * p) <= SIGMAS * math.sqrt(total * p * (1 - p))


class ProtocolK3:
    """Amplified decisions on K3, alternating honest provers and a Z cheater."""

    name = "protocol-k3"
    round_len = 2
    trace_per_trial = False
    required = ("statevec.apply_single", "statevec.measure", "statevec.qubit_cap",
                "graphstate.build_graph_state", "provers.strategy_from_json",
                "provers.execute_query", "provers.ProverSet.clone",
                "selftest.run_oneshot", "mbqc.run_pattern", "mbqc.reference_run",
                "protocol.run_amplified", "protocol.run_round",
                "experiments.run_experiment")
    EDGES = [(0, 1), (0, 2), (1, 2)]
    STEPS = [(0, (), ()), (1, (0,), ()), (2, (1,), (0,))]
    HONEST = {"kind": "honest"}
    # X at angle 0, Z at pi/2 and both rotations at pi/2, measured on |G>
    CHEATER = {"kind": "xz", "angles": {
        str(v): {"X": 0.0, "Z": math.pi / 2, "R+": math.pi / 2, "R-": math.pi / 2}
        for v in range(3)}}

    def __init__(self, seed: int):
        self.rng = seed_stream(seed, 1)
        self.graph = graphs.complete_graph(3)
        self.params = selftest.default_parameters(self.graph, theta=QUARTER)
        self.pattern = mbqc.MeasurementPattern(
            tuple(mbqc.PatternStep(v, QUARTER, x, z) for v, x, z in self.STEPS),
            output_bits=(0, 1, 2))
        self.reference = mbqc.reference_run(self.graph, self.pattern)
        self.warmup = experiments.run_experiment(self._config(self.HONEST, 0))
        self.decisions = []

    def _config(self, spec: dict, seed: int):
        return experiments.ExperimentConfig(
            kind="protocol", graph=self.graph, pattern=self.pattern,
            strategy=spec, trials=1, seed=seed)

    def prepare(self, i: int):
        spec = self.CHEATER if i % 2 else self.HONEST
        cfg = self._config(spec, int(self.rng.integers(2 ** 32)))
        return lambda: experiments.run_experiment(cfg)

    def record(self, i: int, out) -> int:
        self.decisions.append((i % 2 == 1, out.rows[0], out.summary))
        return out.summary["n_rounds"]

    def check(self) -> tuple[int, list[str]]:
        errors = []
        psi = oracle.graph_state(3, self.EDGES)
        law = law_for(self.params, self.EDGES)
        c_test = oracle.c_test(3, 1, self.params.theta)
        honest = oracle.honest_strategy(self.params.theta)
        cheater = oracle.angle_strategy(
            [self.CHEATER["angles"][str(v)] for v in range(3)])
        c_calc = oracle.pattern_law(psi, 3, self.STEPS, (0, 1, 2), honest)[0]
        consts = oracle.protocol_constants(c_calc, c_test, c_test - 0.1)
        q = consts["q"]
        per_round = {}
        for is_cheater, strategy in ((False, honest), (True, cheater)):
            calc = oracle.pattern_law(psi, 3, self.STEPS, (0, 1, 2), strategy)[0]
            test = oracle.pass_probability(psi, 3, law, strategy)
            per_round[is_cheater] = q * calc + (1 - q) * test
        if abs(per_round[False] - consts["c_ip"]) > 1e-12:
            errors.append("oracle: honest per-round law differs from c_ip")
        if abs(self.reference[0] - c_calc) > EXACT_TOL:
            errors.append(f"reference_run P(0) {self.reference[0]} != oracle {c_calc}")
        failed = 0
        for is_cheater, row, summary in [(False, self.warmup.rows[0], self.warmup.summary),
                                         *self.decisions]:
            for key in ("q", "c_ip", "s_ip"):
                if abs(summary[key] - consts[key]) > 1e-12:
                    errors.append(f"summary {key} {summary[key]} != {consts[key]}")
            if summary["n_rounds"] != consts["n_rounds"]:
                errors.append(f"summary n_rounds {summary['n_rounds']} != {consts['n_rounds']}")
            if not within_sigmas(row["accept_count"], consts["n_rounds"], per_round[is_cheater]):
                errors.append(f"accept count {row['accept_count']} is more than {SIGMAS} sigma "
                              f"from N p = {consts['n_rounds'] * per_round[is_cheater]:.1f}")
            failed += is_cheater and row["accepted"]
        # the warm-up decision is checked but not counted as attempted
        return failed, errors


class Lattice12:
    """Four phases on triangular_lattice(3, 4): 12 qubits, 4,096 amplitudes.

    One operation is a sweep: (a) a batch of one-shot trials and (b) a
    batch of pattern runs, both sampled through run_experiment with honest
    provers; (c) the exact pass probability of a fresh seeded X-Z-plane
    strategy on |G>; (d) the exact pattern law for honest provers and for
    that strategy.  (a) and (b) collapse states in ``measure``; (c) and (d)
    make read-only ``expectation`` and ``project`` calls, the part a
    stabilizer exact path would replace.
    """

    name = "lattice-12"
    round_len = 1
    trace_per_trial = True
    batch = 64
    required = ("statevec.apply_single", "statevec.measure", "statevec.qubit_cap",
                "statevec.project", "statevec.expectation",
                "graphstate.build_graph_state", "provers.strategy_from_json",
                "provers.execute_query", "provers.ProverSet.clone",
                "selftest.run_oneshot", "selftest.subtest_breakdown",
                "selftest.exact_pass_probability", "mbqc.run_pattern",
                "mbqc.run_distribution", "mbqc.reference_run",
                "experiments.run_experiment")
    EDGES = lattice_edges(3, 4)
    # parity of four pi/4 measurements without dependencies: law 0.625 / 0.375;
    # the 5-step chain on this lattice gives exactly 1/2 and would check nothing
    STEPS = [(v, (), ()) for v in (0, 1, 4, 5)]
    OUTPUT = (0, 1, 4, 5)

    def __init__(self, seed: int):
        self.rng = seed_stream(seed, 2)
        self.graph = graphs.triangular_lattice(3, 4)
        self.params = selftest.default_parameters(self.graph, theta=QUARTER)
        self.pattern = mbqc.MeasurementPattern(
            tuple(mbqc.PatternStep(v, QUARTER, x, z) for v, x, z in self.STEPS),
            output_bits=self.OUTPUT)
        self.honest = provers.honest_provers(
            self.graph, {v: QUARTER for v in range(self.graph.n)})
        self.reference = mbqc.reference_run(self.graph, self.pattern)
        # warm-up: one short call of every phase, kept for the checks
        warm_a = experiments.run_experiment(self._config("selftest", 0, 8))
        warm_b = experiments.run_experiment(self._config("mbqc", 0, 8))
        self.honest_ceiling = selftest.exact_pass_probability(self.honest, self.params)
        self.c_test = selftest.c_test(self.params)
        self.honest_laws = [self.reference, mbqc.run_distribution(self.honest, self.pattern)]
        self.trials = self.accepted = self.runs = self.zeros = 0
        self.rejected_rows = []
        self.summaries = {"selftest": [], "mbqc": []}
        self.strategies = []
        self.phase_s = []
        self.record(-1, ((warm_a, warm_b, None, None), None))

    def _config(self, kind: str, seed: int, trials: int):
        return experiments.ExperimentConfig(
            kind=kind, graph=self.graph, theta=QUARTER, trials=trials, seed=seed,
            pattern=self.pattern if kind == "mbqc" else None)

    def prepare(self, i: int):
        cfg_a = self._config("selftest", int(self.rng.integers(2 ** 32)), self.batch)
        cfg_b = self._config("mbqc", int(self.rng.integers(2 ** 32)), self.batch)
        angles = jittered_angles(self.rng, self.graph.n)
        p = provers.xz_plane_provers(self.honest.shared_state, angles)
        self.strategies.append([angles, None, None])

        def sweep():
            t0 = time.perf_counter()
            a = experiments.run_experiment(cfg_a)
            t1 = time.perf_counter()
            b = experiments.run_experiment(cfg_b)
            t2 = time.perf_counter()
            c = selftest.exact_pass_probability(p, self.params)
            t3 = time.perf_counter()
            d = (mbqc.run_distribution(self.honest, self.pattern),
                 mbqc.run_distribution(p, self.pattern))
            t4 = time.perf_counter()
            return (a, b, c, d), (t1 - t0, t2 - t1, t3 - t2, t4 - t3)

        return sweep

    def record(self, i: int, out) -> int:
        (a, b, ceiling, laws), phase_s = out
        for row in a.rows:
            self.trials += 1
            self.accepted += row["accepted"]
            if row["subtest"] in ("vertex", "triangle") and not row["accepted"]:
                self.rejected_rows.append((i, row))
        self.runs += len(b.rows)
        self.zeros += sum(row["output"] == 0 for row in b.rows)
        self.summaries["selftest"].append(a.summary)
        self.summaries["mbqc"].append(b.summary)
        if i >= 0:
            self.honest_laws.append(laws[0])
            self.strategies[i][1:] = [ceiling, laws[1]]
            self.phase_s.append(phase_s)
        return 1

    def phase_rates(self, ops: list[int]) -> dict:
        """Work per second of each phase over the given operations."""
        a, b, c, d = (sum(self.phase_s[i][k] for i in ops) for k in range(4))
        n = len(ops)
        return {"lattice.selftest_trials_per_s": n * self.batch / a,
                "lattice.mbqc_runs_per_s": n * self.batch / b,
                "lattice.exact_ceilings_per_s": n / c,
                "lattice.pattern_laws_per_s": 2 * n / d}

    def check(self) -> tuple[int, list[str]]:
        n = self.graph.n
        psi = oracle.graph_state(n, self.EDGES)
        law = law_for(self.params, self.EDGES)
        c_test = oracle.c_test(n, len(self.params.cover.triangles), self.params.theta)
        ref = oracle.pattern_law(psi, n, self.STEPS, self.OUTPUT,
                                 oracle.honest_strategy(self.params.theta))
        errors = [f"honest {row['subtest']} row rejected in op {i}"
                  for i, row in self.rejected_rows]
        if abs(ref[0] - 0.5) < 0.1:
            errors.append(f"pattern law {ref[0]} is within 0.1 of uniform and checks nothing")
        # (a) sampled trials
        if any(abs(s["c_test"] - c_test) > 1e-12 for s in self.summaries["selftest"]):
            errors.append("selftest summary c_test differs from the closed form")
        if not within_sigmas(self.accepted, self.trials, c_test):
            errors.append(f"accept rate {self.accepted / self.trials:.4f} is more than "
                          f"{SIGMAS} sigma from c_test {c_test:.4f}")
        # (b) sampled pattern runs
        if any(abs(s["reference"]["0"] - ref[0]) > EXACT_TOL for s in self.summaries["mbqc"]):
            errors.append("mbqc summary reference differs from the oracle's law")
        if not within_sigmas(self.zeros, self.runs, ref[0]):
            errors.append(f"P(0) {self.zeros / self.runs:.4f} is more than {SIGMAS} sigma "
                          f"from the oracle's {ref[0]:.4f}")
        # (c) exact ceilings
        if abs(self.honest_ceiling - c_test) > 1e-12 or abs(self.c_test - c_test) > 1e-12:
            errors.append(f"honest ceiling {self.honest_ceiling} / c_test {self.c_test} "
                          f"!= closed form {c_test}")
        over = [c for _, c, _ in self.strategies if c > c_test + 1e-9]
        if over:
            errors.append(f"{len(over)} strategies beat c_test, worst {max(over)}")
        # (d) exact pattern laws
        if any(abs(d[0] - ref[0]) > EXACT_TOL for d in self.honest_laws):
            errors.append(f"an honest pattern law differs from the oracle's {ref[0]}")
        if any(abs(d[0] + d[1] - 1) > EXACT_TOL for _, _, d in self.strategies):
            errors.append("a pattern law does not sum to 1")
        for k in sample(self.rng, len(self.strategies)):
            angles, ceiling, dist = self.strategies[k]
            strategy = oracle.angle_strategy(angles)
            want_c = oracle.pass_probability(psi, n, law, strategy)
            want_d = oracle.pattern_law(psi, n, self.STEPS, self.OUTPUT, strategy)
            if abs(ceiling - want_c) > EXACT_TOL or abs(dist[0] - want_d[0]) > EXACT_TOL:
                errors.append(f"strategy {k}: ceiling {ceiling} / law {dist[0]} != "
                              f"oracle {want_c} / {want_d[0]}")
        return 0, errors


class IsometryN7:
    """Swap-isometry reports on triangle_strip(7) for perturbed provers."""

    name = "isometry-n7"
    round_len = 1
    trace_per_trial = False
    required = ("statevec.apply_unitary", "statevec.apply_single", "statevec.expectation",
                "isometry.equivalence_distance", "isometry.apply_phi",
                "isometry.grouped_matrix", "isometry.measured_epsilon")
    N = 7
    EDGES = [(i, i + 1) for i in range(6)] + [(i, i + 2) for i in range(5)]

    def __init__(self, seed: int):
        self.rng = seed_stream(seed, 3)
        self.graph = graphs.triangle_strip(self.N)
        self.params = selftest.default_parameters(self.graph, theta=QUARTER)
        self.honest = provers.honest_provers(
            self.graph, {v: QUARTER for v in range(self.N)})
        # the warm-up is the honest report; it also fills the n = 7 index cache
        self.honest_labels = ["I", ("Z", 6), ("R-", 3), self._xz_label()]
        self.honest_report = isometry.equivalence_distance(
            self.honest, self.params, self.honest_labels)
        self.reports = []

    def _xz_label(self):
        bits = self.rng.integers(0, 2, size=(2, self.N))
        return ("XZ", tuple(int(b) for b in bits[0]), tuple(int(b) for b in bits[1]))

    def prepare(self, i: int):
        eta = self.rng.uniform(0.01, 0.1)
        p = provers.perturbed_provers(self.honest, eta, self.rng)
        labels = ["I"] + [(h, v) for v in range(self.N) for h in ("X", "Z", "R+", "R-")]
        labels += [self._xz_label() for _ in range(3)]
        self.reports.append([p, labels, None])
        return lambda: isometry.equivalence_distance(p, self.params, labels)

    def record(self, i: int, out) -> int:
        self.reports[i][2] = out
        return len(out.labels)

    def fallback_share(self) -> float:
        return sum(r.junk_source != "identity-extraction"
                   for _, _, r in self.reports) / len(self.reports)

    def check(self) -> tuple[int, list[str]]:
        errors = []
        worst = max(r.distance for r in self.honest_report.labels)
        if worst >= 1e-10:
            errors.append(f"honest report distance {worst:.3e} is not below 1e-10")
        psi = oracle.graph_state(self.N, self.EDGES)
        law = law_for(self.params, self.EDGES)
        for k, (p, labels, report) in enumerate(self.reports):
            errors += self._check_report(k, psi, law, p, labels, report)
        return 0, errors

    def _check_report(self, k, psi, law, p, labels, report) -> list[str]:
        n, n_edges = self.N, len(self.EDGES)
        nb = oracle.neighbours(n, self.EDGES)
        strategy = matrices_of(p)
        eps = oracle.epsilon(psi, n, law, strategy)
        if abs(eps - report.epsilon) > EXACT_TOL:
            return [f"report {k}: epsilon {report.epsilon} != oracle {eps}"]
        errors = []
        for label, rep in zip(labels, report.labels):
            head = label if isinstance(label, str) else label[0]
            if head in ("R+", "R-"):
                v, t = label[1], 1 if head == "R+" else -1
                # the worse Z weight of the rotation's two Pauli terms
                z_weight = max(len(nb[v]), len(nb[self.params.u_choice[v]]) - 1)
                eps_r = oracle.rotation_epsilon(psi, n, law, strategy, v, t,
                                                self.params.theta[v])
                bound = oracle.lemma3_bound(eps_r, oracle.thm2_bound(eps, n, n_edges, z_weight))
            else:
                z_weight = sum(label[2]) if head == "XZ" else int(head == "Z")
                bound = oracle.thm2_bound(eps, n, n_edges, z_weight)
            if abs(bound - rep.bound) > 1e-9 * max(1.0, bound):
                errors.append(f"report {k} {rep.label}: bound {rep.bound} != {bound}")
            if rep.distance > bound + 1e-9:
                errors.append(f"report {k} {rep.label}: distance {rep.distance} > bound {bound}")
        return errors


WORKLOADS = {w.name: w for w in (ProtocolK3, Lattice12, IsometryN7)}
