"""Tests for the one-shot honesty test: weights, ceilings, sampling."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artifact import bounds
from artifact.graphs import (Graph, TriangleCover, UncoverableVertexError, complete_graph,
                             triangle_strip, triangular_lattice)
from artifact.experiments import ExperimentConfig, run_experiment
from artifact.mbqc import MeasurementPattern, PatternStep
from artifact.provers import (TreeWalk, classical_provers, honest_provers, perturbed_provers,
                              strategy_from_json)
from artifact.selftest import (
    RTHETA_X,
    RTHETA_Z,
    TRIANGLE,
    VERTEX,
    TestParameters as OneShotParameters,
    best_classical_rtheta,
    c_test,
    default_parameters,
    exact_pass_probability,
    rtheta_success,
    run_oneshot,
    s_test,
    subtest_breakdown,
)

THETA = math.pi / 4


class TestWeights:
    @pytest.mark.parametrize("graph", [
        complete_graph(3), triangle_strip(5), triangular_lattice(2, 3),
    ])
    def test_weight_vector_is_a_distribution(self, graph):
        params = default_parameters(graph)
        w = np.array([s.weight for s in params.subtests])
        assert np.all(w > 0)
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)

    def test_subtest_counts_and_flat_weights(self):
        graph = triangle_strip(5)
        params = default_parameters(graph)
        n, n_t = graph.n, len(params.cover.triangles)
        kinds = [s.kind for s in params.subtests]
        assert kinds.count(VERTEX) == n
        assert kinds.count(TRIANGLE) == n_t
        assert kinds.count(RTHETA_X) == 2 * n
        assert kinds.count(RTHETA_Z) == 2 * n
        assert params.n_g == 3 * n + n_t
        flat = 1.0 / params.n_g
        for s in params.subtests:
            if s.kind in (VERTEX, TRIANGLE):
                assert math.isclose(s.weight, flat, abs_tol=1e-15)

    def test_rotation_branch_weights_follow_the_angle(self):
        theta = {0: 0.3, 1: 1.1, 2: 0.7}
        params = default_parameters(complete_graph(3), theta=theta)
        flat = 1.0 / params.n_g
        for v, th in theta.items():
            for t in (1, -1):
                wx = [s.weight for s in params.subtests
                      if s.kind == RTHETA_X and s.vertex == v and s.t == t]
                wz = [s.weight for s in params.subtests
                      if s.kind == RTHETA_Z and s.vertex == v and s.t == t]
                assert len(wx) == len(wz) == 1
                assert math.isclose(wx[0] + wz[0], flat, abs_tol=1e-15)
                assert math.isclose(
                    wx[0] / wz[0], math.cos(th) / abs(math.sin(th)),
                    rel_tol=1e-12)


class TestParameterValidation:
    def test_angle_outside_first_quadrant_rejected(self):
        with pytest.raises(ValueError):
            default_parameters(complete_graph(3), theta=math.pi)
        with pytest.raises(ValueError):
            default_parameters(complete_graph(3), theta=-0.1)

    def test_short_theta_tuple_rejected(self):
        graph = complete_graph(3)
        cover = default_parameters(graph).cover
        with pytest.raises(ValueError):
            OneShotParameters(graph, cover, (THETA, THETA), (1, 0, 0))

    def test_non_neighbor_partner_rejected(self):
        graph = triangle_strip(4)
        cover = default_parameters(graph).cover
        with pytest.raises(ValueError):
            OneShotParameters(graph, cover, (THETA,) * 4, (3, 0, 0, 0))

    @pytest.mark.parametrize("triangles,message", [
        ([[1, 1, 0, 1], [0, 1, 1, 1]], r"\[0, 1, 3\] is not a triangle"),
        ([[1, 1, 1, 0]], "vertex 3 lies in no triangle"),
        ([[1, 1, 1, 0], [0, 1, 1, 1]] * 3, "more than n triangles"),
    ], ids=["not-a-triangle", "vertex-uncovered", "too-many"])
    def test_hand_built_cover_is_checked(self, triangles, message):
        # triangle_cover's own output is not checked again; TestParameters
        # is the one place a cover is checked
        graph = triangle_strip(4)
        cover = TriangleCover(tuple(np.array(t, np.uint8) for t in triangles))
        with pytest.raises(ValueError, match=message):
            OneShotParameters(graph, cover, (THETA,) * 4, (1, 0, 0, 1))


# every entry point that reads vertex angles, called as (graph, theta)
THETA_READERS = {
    "default_parameters": default_parameters,
    "honest_provers": honest_provers,
    "honest-strategy-json": lambda g, theta: strategy_from_json(
        {"kind": "honest"}, g, theta, None),
    "perturbed-strategy-json": lambda g, theta: strategy_from_json(
        {"kind": "perturbed", "eta": 0.1}, g, theta, np.random.default_rng(0)),
    "run_experiment": lambda g, theta: run_experiment(
        ExperimentConfig("selftest", graph=g, theta=theta, trials=1, seed=0)),
}


class TestParameterMemo:
    def test_a_repeat_is_the_same_object(self):
        g = complete_graph(3)
        params = default_parameters(g, THETA)
        strategy = honest_provers(g, THETA).strategy
        for same in (THETA, {0: THETA, 1: THETA, 2: THETA}, (THETA,) * 3):
            assert default_parameters(g, same) is params
            assert honest_provers(g, same).strategy is strategy
        assert default_parameters(g, 0.5) is not params
        assert honest_provers(g, 0.5).strategy is not strategy
        assert default_parameters(complete_graph(3), THETA) is not params

    @pytest.mark.parametrize("theta,message", [
        ({0: THETA, 1: THETA}, "theta has no angle for vertex 2"),
        ([THETA, THETA], "theta has no angle for vertex 2"),
        ({0: THETA, 1: THETA, 2: THETA, 7: THETA}, "theta given for vertex 7, outside the graph"),
        ({0: THETA, 1: THETA, 2: THETA, "1": THETA},
         "theta given for vertex '1', outside the graph"),
        ([THETA] * 4, "theta given for vertex 3, outside the graph"),
        ({0: THETA, True: THETA, 2: THETA}, "theta given for vertex True, outside the graph"),
        ({0: THETA, 1: True, 2: THETA}, r"theta\[1\] = True outside \[0, pi/2\]"),
        ((THETA, THETA, math.pi), rf"theta\[2\] = {math.pi} outside \[0, pi/2\]"),
    ], ids=["map-misses", "list-misses", "map-extra", "map-string-key", "list-extra",
            "map-bool-key", "map-bool-angle", "tuple-angle-above"])
    def test_an_angle_map_names_a_missing_or_extra_vertex(self, theta, message):
        for read in THETA_READERS.values():
            for _ in range(2):  # errors are not cached
                with pytest.raises(ValueError, match=message):
                    read(complete_graph(3), theta)

    @pytest.mark.parametrize("value", [True, math.nan, math.inf, -0.1, math.pi])
    @pytest.mark.parametrize("read", [
        *THETA_READERS.values(),
        lambda g, theta: MeasurementPattern((PatternStep(0, theta),), output_bits=(0,)),
    ], ids=[*THETA_READERS, "pattern-step"])
    def test_an_angle_outside_the_quadrant_is_refused(self, value, read):
        with pytest.raises(ValueError, match=rf"theta\[0\] = {value!r} outside \[0, pi/2\]"):
            read(complete_graph(3), value)

    def test_a_vertex_in_no_triangle_is_named_before_the_angles(self):
        graph = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        for theta in ({0: THETA}, -1.0, THETA):
            with pytest.raises(UncoverableVertexError, match="vertex 3 lies in no triangle"):
                default_parameters(graph, theta)


class TestHonestCeiling:
    def test_k3_quarter_pi_matches_closed_form(self):
        params = default_parameters(complete_graph(3))
        assert math.isclose(c_test(params), oracles.C_TEST_K3_QUARTER_PI,
                            abs_tol=1e-15)

    @pytest.mark.parametrize("graph", [
        complete_graph(3), triangle_strip(5), triangular_lattice(2, 3),
    ])
    def test_honest_provers_achieve_c_test_exactly(self, graph):
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        assert math.isclose(exact_pass_probability(honest, params),
                            c_test(params), abs_tol=1e-12)

    def test_c_test_direct_arithmetic_with_varied_angles(self):
        theta = {0: 0.2, 1: 0.9, 2: 1.4}
        graph = complete_graph(3)
        params = default_parameters(graph, theta=theta)
        total = sum(1 / (math.cos(th) + abs(math.sin(th)))
                    for th in params.theta)
        expected = (2 * 3 + 1 + total) / (3 * 3 + 1)
        assert math.isclose(c_test(params), expected, abs_tol=1e-15)

    def test_honest_provers_pass_every_structural_subtest(self):
        graph = triangle_strip(4)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        for subtest, accept in subtest_breakdown(honest, params):
            if subtest.kind in (VERTEX, TRIANGLE):
                assert math.isclose(accept, 1.0, abs_tol=1e-12)
            else:
                assert math.isclose(accept, oracles.CHSH_QUANTUM,
                                    abs_tol=1e-12)


class TestRotationSubtest:
    def test_honest_rotation_success_is_the_chsh_value(self):
        graph = triangle_strip(5)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        for v in range(graph.n):
            assert math.isclose(rtheta_success(honest, params, v),
                                oracles.CHSH_QUANTUM, abs_tol=1e-10)

    def test_conditional_ceiling_formula(self):
        theta = {0: 0.25, 1: 1.2, 2: 0.8}
        params = default_parameters(complete_graph(3), theta=theta)
        honest = honest_provers(params.graph, params.theta)
        for v, th in theta.items():
            expected = 0.5 + 1 / (2 * (math.cos(th) + abs(math.sin(th))))
            assert math.isclose(rtheta_success(honest, params, v), expected,
                                abs_tol=1e-15)

    def test_classical_optimum_at_quarter_pi(self):
        params = default_parameters(complete_graph(3))
        value, table = best_classical_rtheta(params, 0)
        assert math.isclose(value, oracles.CHSH_CLASSICAL, abs_tol=1e-12)
        assert set(table) == {"a", "b", "c", "d"}
        assert value < rtheta_success(honest_provers(params.graph, params.theta),
                                      params, 0)

    @pytest.mark.parametrize("theta_v", [0.15, 0.5, 0.9, 1.3])
    def test_classical_optimum_matches_oracle_at_other_angles(self, theta_v):
        graph = complete_graph(3)
        params = default_parameters(graph, theta={0: theta_v, 1: THETA,
                                                  2: THETA})
        value, _ = best_classical_rtheta(params, 0)
        assert math.isclose(value, oracles.best_classical_rtheta(theta_v),
                            abs_tol=1e-12)

    def test_classical_table_realizes_its_score(self):
        params = default_parameters(triangle_strip(4))
        value, table = best_classical_rtheta(params, 1)
        graph = params.graph
        u = params.u_choice[1]
        witness = min(graph.neighbors(1))
        replies = {(w, label): 1 for w in range(graph.n)
                   for label in ("X", "Z", "R+", "R-")}
        replies[(1, "R+")] = table["a"]
        replies[(1, "R-")] = table["b"]
        replies[(witness, "Z")] = table["c"]
        replies[(u, "X")] = table["d"] * (
            table["c"] if witness in _u_side(params, 1) else 1)
        provers = classical_provers(graph.n, replies)
        assert math.isclose(rtheta_success(provers, params, 1), value,
                            abs_tol=1e-12)


def _u_side(params, v):
    from artifact.graphs import support, unit, xor
    g = params.graph
    u = params.u_choice[v]
    return set(support(xor(g.neighborhood(u), unit(g.n, v))))


class TestSoundnessCeiling:
    def test_s_test_equals_c_test_minus_the_gap(self):
        params = default_parameters(complete_graph(3))
        for delta in (0.05, 0.1, 1 / 6):
            expected = c_test(params) - bounds.cor3_gap(delta, 3)
            assert s_test(params, delta) == expected

    def test_gap_grows_with_delta(self):
        gaps = [bounds.cor3_gap(d, 4) for d in (0.01, 0.05, 0.1, 1 / 6)]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps)

    def test_gap_underflows_against_c_test_at_desk_scale(self):
        # the closed form is astronomically small for real parameters, so
        # in float64 the subtraction is absorbed entirely
        params = default_parameters(complete_graph(3))
        assert s_test(params, 0.1) == c_test(params)


class TestSampling:
    def test_empirical_rate_within_four_sigma_of_exact(self):
        graph = complete_graph(3)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        rng = np.random.default_rng(17)
        rate = sum(run_oneshot(honest, params, rng).accepted for _ in range(4000)) / 4000
        exact = exact_pass_probability(honest, params)
        sigma = math.sqrt(exact * (1 - exact) / 4000)
        assert abs(rate - exact) <= 4 * sigma

    def test_run_oneshot_is_deterministic_under_a_seed(self):
        graph = triangle_strip(4)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append([(o.subtest, o.accepted, rng.bit_generator.state)
                         for o in (run_oneshot(honest.clone(), params, rng)
                                   for _ in range(25))])
        assert runs[0] == runs[1]

    def test_oneshot_replies_cover_exactly_the_queried_vertices(self):
        graph = complete_graph(3)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            out = run_oneshot(honest.clone(), params, rng)
            # the twin replays the run: the subtest draw, then the query's walk
            assert params.subtests[bisect_right(params._cdf, twin.random())] is out.subtest
            q = out.subtest.query
            walk = TreeWalk(honest.tree)
            walk.steps(q.keys, twin)
            assert tuple(key for key, _ in walk.node.path) == q.keys
            product = q.sign * math.prod(outcome for _, outcome in walk.node.path)
            assert out.accepted == (product == out.subtest.target)
            assert twin.bit_generator.state == rng.bit_generator.state
        for s in params.subtests:
            walk = TreeWalk(honest.tree)
            walk.steps(s.query.keys, rng)
            assert tuple(key for key, _ in walk.node.path) == s.query.keys

    def test_honest_structural_subtests_always_accept(self):
        graph = complete_graph(3)
        params = default_parameters(graph)
        honest = honest_provers(graph, params.theta)
        rng = np.random.default_rng(40)
        seen_structural = 0
        for _ in range(120):
            out = run_oneshot(honest.clone(), params, rng)
            if out.subtest.kind in (VERTEX, TRIANGLE):
                seen_structural += 1
                assert out.accepted
        assert seen_structural > 0


def _law(params):
    weights = np.array([s.weight for s in params.subtests])
    return weights / weights.sum()


def _cdf_cases():
    """Default K3 and lattice laws, then random positive weight vectors:
    every random angle vector in (0, pi/2) splits each rotation subtest's
    weight by a different cos : sin ratio."""
    yield default_parameters(complete_graph(3))
    yield default_parameters(triangular_lattice(3, 4))
    rng = np.random.default_rng(2611)
    for graph in (complete_graph(3), triangle_strip(5), triangular_lattice(3, 4)):
        for _ in range(3):
            theta = rng.uniform(1e-3, math.pi / 2 - 1e-3, graph.n)
            yield default_parameters(graph, theta=theta)


class TestSubtestDraw:
    """The stored CDF draws what ``Generator.choice`` draws on a twin stream."""

    def test_stored_cdf_is_the_one_choice_builds(self):
        for params in _cdf_cases():
            cdf = _law(params).cumsum()
            cdf /= cdf[-1]
            assert np.array_equal(params._cdf, cdf)

    @pytest.mark.parametrize("seed", [0, 1, 77, 20240607])
    def test_one_draw_at_a_time_is_choice(self, seed):
        for params in _cdf_cases():
            law = _law(params)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            ours = [bisect_right(params._cdf, rng.random()) for _ in range(500)]
            theirs = [int(twin.choice(len(law), p=law)) for _ in range(500)]
            assert ours == theirs
            assert rng.random() == twin.random()

    @pytest.mark.parametrize("seed", [0, 1, 77, 20240607])
    def test_vectorized_draw_is_choice(self, seed):
        for params in _cdf_cases():
            law = _law(params)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            ours = np.searchsorted(params._cdf, rng.random(2000), side="right")
            theirs = twin.choice(len(law), size=2000, p=law)
            assert np.array_equal(ours, theirs)
            assert rng.random() == twin.random()


class TestPerturbedOrdering:
    @given(eta=st.floats(min_value=0.01, max_value=0.12))
    @settings(max_examples=15, deadline=None)
    def test_perturbation_never_beats_honest(self, eta):
        graph = complete_graph(3)
        params = default_parameters(graph)
        rng = np.random.default_rng(7)
        perturbed = perturbed_provers(
            honest_provers(graph, params.theta), eta, rng)
        assert exact_pass_probability(perturbed, params) <= c_test(params) + 1e-9
