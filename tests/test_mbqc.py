"""Tests for adaptive pattern execution and the chain law on paths."""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
from artifact import provers
from artifact.graphs import complete_graph, triangle_strip, triangular_lattice
from artifact.graphstate import build_graph_state
from artifact.mbqc import (
    DependencyError,
    MeasurementPattern,
    MissingAngleSupportError,
    PatternStep,
    chain_law,
    reference_run,
    run_distribution,
    run_pattern,
    total_variation,
)
from artifact.provers import (QUERY_LABELS, classical_provers, honest_provers,
                              perturbed_provers, xz_plane_provers)
from artifact.statevec import SingleQubitObservable, measure, project

THETA = math.pi / 4


def _k3_pattern():
    return MeasurementPattern(
        (PatternStep(0, THETA), PatternStep(1, THETA, x_deps=(0,))),
        output_bits=(1,))


def _strip_pattern():
    return MeasurementPattern(
        (PatternStep(0, math.pi / 3),
         PatternStep(1, math.pi / 8, x_deps=(0,)),
         PatternStep(2, THETA, x_deps=(1,), z_deps=(0,))),
        output_bits=(2, 0))


def _angles_for(pattern, n):
    theta = {v: THETA for v in range(n)}
    for step in pattern.steps:
        theta[step.vertex] = step.theta
    return theta


class TestPatternValidation:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DependencyError):
            MeasurementPattern((PatternStep(0, THETA), PatternStep(0, THETA)),
                               output_bits=(0,))

    def test_forward_dependency_rejected(self):
        with pytest.raises(DependencyError):
            MeasurementPattern(
                (PatternStep(0, THETA, x_deps=(1,)), PatternStep(1, THETA)),
                output_bits=(0,))

    def test_unmeasured_output_bit_rejected(self):
        with pytest.raises(DependencyError):
            MeasurementPattern((PatternStep(0, THETA),), output_bits=(2,))

    def test_angle_outside_first_quadrant_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPattern((PatternStep(0, 2.0),), output_bits=(0,))

    def test_json_round_trip(self):
        pattern = _strip_pattern()
        again = MeasurementPattern.from_json(json.loads(json.dumps(pattern.to_json())))
        assert again == pattern
        assert again.to_json() == pattern.to_json()

    def test_step_lookup(self):
        pattern = _strip_pattern()
        assert pattern.step_for(1).theta == math.pi / 8
        with pytest.raises(KeyError):
            pattern.step_for(9)
        assert pattern.vertices == [0, 1, 2]


class TestReferenceRun:
    @pytest.mark.parametrize("graph,pattern", [
        (complete_graph(3), _k3_pattern()),
        (triangle_strip(5), _strip_pattern()),
    ])
    def test_matches_branch_enumeration_oracle(self, graph, pattern):
        dist = reference_run(graph, pattern)
        oracle = oracles.mbqc_output_distribution(
            graph.n, list(graph.edges),
            [(s.vertex, s.theta, s.x_deps, s.z_deps) for s in pattern.steps],
            pattern.output_bits)
        assert set(dist) <= {0, 1}
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
        for bit in (0, 1):
            assert math.isclose(dist.get(bit, 0.0), oracle[bit],
                                abs_tol=1e-12)

    def test_pattern_vertex_outside_graph_rejected(self):
        pattern = MeasurementPattern((PatternStep(5, THETA),),
                                     output_bits=(5,))
        with pytest.raises(MissingAngleSupportError):
            reference_run(complete_graph(3), pattern)

    def test_a_second_graph_with_the_same_edges_gives_an_equal_law(self):
        # the law is kept per graph object (Graph compares by identity)
        first = reference_run(triangle_strip(5), _strip_pattern())
        second = reference_run(triangle_strip(5), _strip_pattern())
        assert second == first

    def test_a_changed_law_does_not_reach_the_next_call(self):
        graph, pattern = complete_graph(3), _k3_pattern()
        law = reference_run(graph, pattern)
        fresh = dict(law)
        law[0] = 2.0
        del law[1]
        assert reference_run(graph, pattern) == fresh
        assert reference_run(graph, pattern) is not reference_run(graph, pattern)


class TestRunDistribution:
    @pytest.mark.parametrize("graph,pattern", [
        (complete_graph(3), _k3_pattern()),
        (triangle_strip(5), _strip_pattern()),
    ])
    def test_honest_provers_reproduce_the_reference(self, graph, pattern):
        honest = honest_provers(graph, _angles_for(pattern, graph.n))
        dist = run_distribution(honest, pattern)
        assert total_variation(dist, reference_run(graph, pattern)) <= 1e-12

    def test_xz_plane_provers_with_wrong_angles_deviate(self):
        graph = triangle_strip(5)
        pattern = _strip_pattern()
        angles = [{"X": 0.0, "Z": math.pi / 2, "R+": 0.0, "R-": 0.0}
                  for _ in range(graph.n)]
        skew = xz_plane_provers(oracles_state(graph), angles)
        dist = run_distribution(skew, pattern)
        assert total_variation(dist, reference_run(graph, pattern)) > 1e-3

    def test_classical_provers_give_a_point_mass(self):
        graph = complete_graph(3)
        pattern = _k3_pattern()
        table = {(v, label): 1 for v in range(3)
                 for label in ("X", "Z", "R+", "R-")}
        table[(1, "R+")] = -1
        dist = run_distribution(classical_provers(3, table), pattern)
        # replay the table by hand: raw(0)=+1 so step 1 sees t=+1 and
        # replies table[(1, R+)] = -1, making the output parity bit 1
        assert dist.get(1, 0.0) == 1.0
        assert dist.get(0, 0.0) == 0.0

    def test_prover_set_too_small_rejected(self):
        pattern = MeasurementPattern((PatternStep(3, THETA),),
                                     output_bits=(3,))
        honest = honest_provers(complete_graph(3),
                                _angles_for(_k3_pattern(), 3))
        with pytest.raises(MissingAngleSupportError):
            run_distribution(honest, pattern)


def oracles_state(graph):
    from artifact.graphstate import build_graph_state
    return build_graph_state(graph)


class TestRunPattern:
    def test_sampling_agrees_with_the_exact_law(self):
        graph = triangle_strip(5)
        pattern = _strip_pattern()
        honest = honest_provers(graph, _angles_for(pattern, graph.n))
        exact = reference_run(graph, pattern)
        rng = np.random.default_rng(123)
        counts = {0: 0, 1: 0}
        trials = 3000
        for _ in range(trials):
            bit, _ = run_pattern(honest.clone(), pattern, rng)
            counts[bit] += 1
        sampled = {b: c / trials for b, c in counts.items()}
        assert total_variation(sampled, exact) <= 0.04

    def test_transcript_is_internally_consistent(self):
        graph = triangle_strip(5)
        pattern = _strip_pattern()
        honest = honest_provers(graph, _angles_for(pattern, graph.n))
        rng = np.random.default_rng(7)
        bit, raw = run_pattern(honest.clone(), pattern, rng)
        # one raw outcome per step, in step order
        assert list(raw) == pattern.vertices == [0, 1, 2]
        assert all(type(r) is int and r in (1, -1) for r in raw.values())
        product = math.prod(
            raw[v] * math.prod(raw[d] for d in pattern.step_for(v).z_deps)
            for v in pattern.output_bits)
        assert bit == (1 - product) // 2

    def test_output_bit_and_records_are_the_products_on_every_table(self):
        # z_deps that name a vertex twice, or an output bit's own
        # predecessor, cancel in the output product
        pattern = MeasurementPattern((PatternStep(0, 0.3), PatternStep(1, 0.5, (), (0, 0)),
                                      PatternStep(2, 0.7, (1,), (0, 1))), (0, 1, 2))
        for replies in itertools.product((1, -1), repeat=6):
            table = {(v, label): replies[2 * v + (label == "R-")]
                     for v in range(3) for label in ("R+", "R-")}
            table.update({(v, label): 1 for v in range(3) for label in ("X", "Z")})
            bit, raw = run_pattern(classical_provers(3, table), pattern, None)
            product = math.prod(
                raw[v] * math.prod(raw[d] for d in pattern.step_for(v).z_deps)
                for v in pattern.output_bits)
            assert bit == (1 - product) // 2
            # each step's raw outcome is the reply to the label its x_deps chose
            assert list(raw) == pattern.vertices
            for step in pattern.steps:
                t = math.prod(raw[d] for d in step.x_deps)
                assert raw[step.vertex] == table[(step.vertex, "R+" if t == 1 else "R-")]

    def test_same_seed_same_run(self):
        graph = complete_graph(3)
        pattern = _k3_pattern()
        honest = honest_provers(graph, _angles_for(pattern, graph.n))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(55)
            runs.append([run_pattern(honest.clone(), pattern, rng)[0]
                         for _ in range(40)])
        assert runs[0] == runs[1]


class TestTotalVariation:
    def test_identical_distributions(self):
        assert total_variation({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0

    def test_disjoint_distributions(self):
        assert math.isclose(total_variation({0: 1.0}, {1: 1.0}), 1.0,
                            abs_tol=1e-15)

    def test_half_shift(self):
        a = {0: 0.75, 1: 0.25}
        b = {0: 0.25, 1: 0.75}
        assert math.isclose(total_variation(a, b), 0.5, abs_tol=1e-15)

    def test_missing_keys_count_as_zero_mass(self):
        assert math.isclose(total_variation({0: 1.0}, {0: 0.8, 1: 0.2}), 0.2,
                            abs_tol=1e-15)


def _chain_pattern(k, output_bits):
    """k adaptive steps measuring 0 .. k-1 in order, with X and Z deps."""
    angles = (math.pi / 3, math.pi / 8, 0.3, THETA)
    steps = [PatternStep(j, angles[j], x_deps=(j - 1,) if j else (),
                         z_deps=(j - 2,) if j > 1 else ()) for j in range(k)]
    return MeasurementPattern(tuple(steps), output_bits)


class TestChainLaw:
    @pytest.mark.parametrize("k,output_bits,n", [
        (1, (0,), 1), (3, (2,), 3), (3, (2,), 4), (4, (0, 3), 4), (4, (0, 3), 5),
    ], ids=["one-vertex", "every-vertex-measured", "unmeasured-tail",
            "four-every-vertex-measured", "four-unmeasured-tail"])
    def test_matches_branch_enumeration_oracle(self, k, output_bits, n):
        pattern = _chain_pattern(k, output_bits)
        oracle = oracles.mbqc_output_distribution(
            n, [(v, v + 1) for v in range(n - 1)],
            [(s.vertex, s.theta, s.x_deps, s.z_deps) for s in pattern.steps],
            pattern.output_bits)
        law = chain_law(pattern, n)
        assert abs(oracle[1] - 0.5) > 0.05  # a law at 1/2 would show nothing
        for bit in (0, 1):
            assert math.isclose(law[bit], oracle[bit], abs_tol=1e-12)

    @pytest.mark.parametrize("steps,n", [
        ((PatternStep(1, THETA), PatternStep(0, THETA)), 2),
        ((PatternStep(0, THETA), PatternStep(2, THETA)), 3),
        ((PatternStep(0, THETA), PatternStep(1, THETA)), 1),
    ], ids=["out-of-order", "skips-a-vertex", "more-steps-than-vertices"])
    def test_pattern_off_the_path_order_rejected(self, steps, n):
        with pytest.raises(ValueError, match="chain law"):
            chain_law(MeasurementPattern(steps, (0,)), n)


def _adaptive_pattern(graph):
    """Four adaptive steps with X and Z dependencies on ``graph``."""
    v = (0, 1, 2) if graph.n == 3 else (0, 1, 4, 5)
    steps = [PatternStep(v[0], THETA), PatternStep(v[1], math.pi / 8, x_deps=(v[0],)),
             PatternStep(v[2], math.pi / 3, x_deps=(v[1],), z_deps=(v[0],))]
    if len(v) == 4:
        steps.append(PatternStep(v[3], THETA, x_deps=(v[2], v[0]), z_deps=(v[1],)))
    return MeasurementPattern(tuple(steps), output_bits=v)


def _prover_sets(graph, seed):
    """Honest (at the adaptive pattern's angles), perturbed and X-Z-plane sets."""
    rng = np.random.default_rng(seed)
    honest = honest_provers(graph, _angles_for(_adaptive_pattern(graph), graph.n))
    angles = [{label: rng.uniform(-math.pi, math.pi) for label in QUERY_LABELS}
              for _ in range(graph.n)]
    return {"honest": honest,
            "perturbed": perturbed_provers(honest, 0.1, rng),
            "xz": xz_plane_provers(build_graph_state(graph), angles)}


def _measure_chain(p, pattern, rng):
    """run_pattern's raw outcomes written as a plain chain of ``measure``
    calls.  Each takes its qubit out of the state, so ``present`` lists the
    vertices still in it, in qubit order."""
    raw, state = {}, p.shared_state
    present = list(range(state.n_qubits))
    for step in pattern.steps:
        label = "R+" if math.prod(raw[d] for d in step.x_deps) == 1 else "R-"
        raw[step.vertex], state, _ = measure(state, p.observable(step.vertex, label),
                                             present.index(step.vertex), rng)
        present.remove(step.vertex)
    return raw


def _closure_law(graph, pattern):
    """reference_run as it was before prover sets had outcome trees: branch
    enumeration by ``project`` with R(t theta) built per step."""
    dist = {0: 0.0, 1: 0.0}

    def walk(current, present, k, raw, weight):
        # present: the vertices still in ``current``, in qubit order
        if k == len(pattern.steps):
            product = math.prod(raw[v] * math.prod(raw[d] for d in pattern.step_for(v).z_deps)
                                for v in pattern.output_bits)
            dist[(1 - product) // 2] += weight
            return
        step = pattern.steps[k]
        t = math.prod(raw[d] for d in step.x_deps)
        obs = SingleQubitObservable.rotation(t * step.theta)
        rest = [v for v in present if v != step.vertex]
        for outcome in (1, -1):
            prob, branch = project(current, obs, present.index(step.vertex), outcome)
            if branch is None:
                continue
            raw[step.vertex] = outcome
            walk(branch, rest, k + 1, raw, weight * prob)
            del raw[step.vertex]

    walk(build_graph_state(graph), list(range(graph.n)), 0, {}, 1.0)
    return dist


GRAPHS = pytest.mark.parametrize("graph", [complete_graph(3), triangular_lattice(3, 4)],
                                 ids=["k3", "lattice"])


class TestOutcomeTree:
    @GRAPHS
    @pytest.mark.parametrize("kind", ["honest", "perturbed", "xz"])
    def test_runs_and_stream_match_a_measure_chain(self, graph, kind):
        p = _prover_sets(graph, 21)[kind]
        pattern = _adaptive_pattern(graph)
        tree_rng, chain_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(40):
            _, raw = run_pattern(p.clone(), pattern, tree_rng)
            assert raw == _measure_chain(p, pattern, chain_rng)
            assert tree_rng.bit_generator.state == chain_rng.bit_generator.state

    @GRAPHS
    @pytest.mark.parametrize("kind", ["honest", "perturbed", "xz"])
    def test_exact_law_is_the_same_on_a_cold_a_sampled_and_a_full_tree(self, graph, kind):
        pattern = _adaptive_pattern(graph)
        cold = run_distribution(_prover_sets(graph, 22)[kind], pattern)
        p = _prover_sets(graph, 22)[kind]
        rng = np.random.default_rng(3)
        for _ in range(5):
            run_pattern(p, pattern, rng)
        assert run_distribution(p, pattern) == cold
        assert run_distribution(p, pattern) == cold
        chain_rng = np.random.default_rng(4)
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert run_pattern(p, pattern, rng)[1] == _measure_chain(p, pattern, chain_rng)

    def test_a_second_pass_is_all_hits(self, monkeypatch):
        graph = triangular_lattice(3, 4)
        p = _prover_sets(graph, 23)["xz"]
        pattern = _adaptive_pattern(graph)
        first = [run_pattern(p, pattern, np.random.default_rng(i)) for i in range(30)]
        calls = []
        monkeypatch.setattr(provers, "measure", lambda *a: calls.append(a) or measure(*a))
        monkeypatch.setattr(provers, "project", lambda *a: calls.append(a) or project(*a))
        second = [run_pattern(p.clone(), pattern, np.random.default_rng(i)) for i in range(30)]
        assert second == first
        assert calls == []

    def test_a_pattern_out_of_vertex_order_finds_each_qubit(self):
        # every measured qubit leaves the walk's state, so a vertex's qubit
        # depends on which vertices went before it, not only how many
        graph = triangle_strip(5)
        steps = [PatternStep(3, THETA), PatternStep(0, math.pi / 8, x_deps=(3,)),
                 PatternStep(4, math.pi / 3, x_deps=(0,), z_deps=(3,)),
                 PatternStep(1, THETA, x_deps=(4, 3), z_deps=(0,))]
        pattern = MeasurementPattern(tuple(steps), output_bits=(4, 1))
        oracle = oracles.mbqc_output_distribution(
            graph.n, list(graph.edges),
            [(s.vertex, s.theta, s.x_deps, s.z_deps) for s in steps], pattern.output_bits)
        assert abs(oracle[0] - 0.5) > 0.05  # a law at 1/2 would show nothing
        law = reference_run(graph, pattern)
        for bit in (0, 1):
            assert math.isclose(law[bit], oracle[bit], abs_tol=1e-12)
        p = honest_provers(graph, _angles_for(pattern, graph.n))
        tree_rng, chain_rng = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(20):
            _, raw = run_pattern(p, pattern, tree_rng)
            assert raw == _measure_chain(p, pattern, chain_rng)

    @pytest.mark.parametrize("graph,pattern", [
        (complete_graph(3), _k3_pattern()),
        (triangle_strip(5), _strip_pattern()),
        (complete_graph(3), _adaptive_pattern(complete_graph(3))),
        (triangular_lattice(3, 4), _adaptive_pattern(triangular_lattice(3, 4))),
    ])
    def test_reference_run_is_the_closure_law_exactly(self, graph, pattern):
        assert reference_run(graph, pattern) == _closure_law(graph, pattern)
