"""Prover strategies: honest, perturbed, classical, and adversarial."""

import gc
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest

import oracles
from artifact import provers
from artifact.graphs import complete_graph, triangle_strip, triangular_lattice
from artifact.graphstate import build_graph_state
from artifact.mbqc import MeasurementPattern, PatternStep, run_distribution
from artifact.provers import (ClassicalStrategy, IncompleteTableError, Query,
                              classical_provers, constant_classical_provers, execute_query,
                              honest_provers, perturbed_provers,
                              query_expectation, strategy_from_json,
                              xz_plane_provers, QUERY_LABELS, TreeWalk)
from artifact.selftest import default_parameters, exact_pass_probability
from artifact.statevec import NormUnderflowError, StateVector, measure, project

THETA = {v: math.pi / 4 for v in range(3)}  # K3's angles: every use is on K3


def honest_k3():
    return honest_provers(complete_graph(3), THETA)


class TestQuery:
    def test_from_assignments(self):
        q = Query.from_assignments(4, {1: "X", 3: "Z"}, sign=-1)
        assert q.bases == ("ignore", "X", "ignore", "Z")
        assert q.queried == (1, 3)
        assert q.sign == -1

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            Query(("X", "Q"))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            Query(("X",), sign=0)


class TestHonestProvers:
    def test_vertex_observable_expectation(self):
        p = honest_k3()
        graph = complete_graph(3)
        q = Query.from_assignments(3, {0: "X", 1: "Z", 2: "Z"})
        assert query_expectation(p, q) == pytest.approx(1.0, abs=1e-12)
        del graph

    def test_triangle_observable_expectation(self):
        p = honest_k3()
        q = Query.from_assignments(3, {0: "X", 1: "X", 2: "X"})
        # X tau Z^{A tau} on K3: A tau = (2,2,2) = 0 mod 2, so all X
        assert query_expectation(p, q) == pytest.approx(-1.0, abs=1e-12)

    def test_rotation_labels_use_both_signs(self):
        p = honest_k3()
        plus = p.observable(0, "R+").matrix
        minus = p.observable(0, "R-").matrix
        assert np.allclose(plus, oracles.rotation_xz(math.pi / 4))
        assert np.allclose(minus, oracles.rotation_xz(-math.pi / 4))

    def test_rejects_angle_out_of_range(self):
        with pytest.raises(ValueError):
            honest_provers(complete_graph(3), {v: 2.0 for v in range(3)})

    def test_shared_state_is_read_only(self):
        p = honest_k3()
        with pytest.raises(ValueError):
            p.shared_state.amplitudes[0] = 0

    def test_a_write_through_the_clone_raises(self):
        # clone shares the state: every kernel writes a fresh output, and a
        # write through the clone, the one way to corrupt the original, raises
        p = honest_k3()
        q = p.clone()
        assert q.shared_state is p.shared_state
        with pytest.raises(ValueError):
            q.shared_state.amplitudes[0] = 0
        assert np.array_equal(p.shared_state.amplitudes,
                              honest_k3().shared_state.amplitudes)

    def test_clone_shares_the_tree_and_a_new_strategy_does_not(self):
        p = honest_k3()
        assert p.clone().tree is p.tree
        assert perturbed_provers(p, 0.1, np.random.default_rng(0)).tree is not p.tree


class TestHonestStrategyMemo:
    def test_sets_share_the_strategy_and_own_their_state_and_tree(self):
        g = complete_graph(3)
        a, b = honest_provers(g, THETA), honest_provers(g, THETA)
        assert a.strategy is b.strategy
        assert a.shared_state is not b.shared_state
        assert a.tree is not b.tree
        assert honest_provers(g, {v: 0.5 for v in range(3)}).strategy is not a.strategy

    def test_a_walk_on_one_set_leaves_the_others_tree_empty(self):
        g = complete_graph(3)
        a, b = honest_provers(g, THETA), honest_provers(g, THETA)
        execute_query(a, Query.from_assignments(3, {0: "X", 1: "Z", 2: "Z"}),
                      np.random.default_rng(0))
        assert len(a.tree.root) == 1
        assert len(b.tree.root) == 0

    def test_a_bad_angle_is_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"theta\[1\] = 2.0 outside"):
                honest_provers(complete_graph(3), {0: 0.5, 1: 2.0, 2: 0.5})


class TestPerturbedProvers:
    def test_observables_remain_involutions(self):
        rng = np.random.default_rng(1)
        p = perturbed_provers(honest_k3(), 0.1, rng)
        for v in range(3):
            for label in QUERY_LABELS:
                m = p.observable(v, label).matrix
                assert np.allclose(m, m.conj().T, atol=1e-10)
                assert np.allclose(m @ m, np.eye(2), atol=1e-10)

    def test_small_eta_stays_near_honest(self):
        rng = np.random.default_rng(2)
        honest = honest_k3()
        p = perturbed_provers(honest, 0.01, rng)
        for v in range(3):
            for label in QUERY_LABELS:
                drift = np.abs(p.observable(v, label).matrix
                               - honest.observable(v, label).matrix).max()
                assert drift < 0.1

    def test_eta_zero_is_identity_perturbation(self):
        rng = np.random.default_rng(3)
        honest = honest_k3()
        p = perturbed_provers(honest, 0.0, rng)
        for v in range(3):
            for label in QUERY_LABELS:
                assert np.allclose(p.observable(v, label).matrix,
                                   honest.observable(v, label).matrix,
                                   atol=1e-12)

    def test_shares_the_base_state_and_gets_its_own_tree(self):
        honest = honest_k3()
        p = perturbed_provers(honest, 0.1, np.random.default_rng(4))
        assert p.shared_state is honest.shared_state
        assert not p.shared_state.amplitudes.flags.writeable
        execute_query(p, Query.from_assignments(3, {0: "X", 1: "Z"}), np.random.default_rng(5))
        assert p.tree is not honest.tree and len(p.tree.root) == 1
        assert len(honest.tree.root) == 0

    def test_pass_rate_degrades_smoothly(self):
        rng = np.random.default_rng(4)
        graph = complete_graph(3)
        params = default_parameters(graph)
        honest_rate = exact_pass_probability(honest_k3(), params)
        p = perturbed_provers(honest_k3(), 0.05, rng)
        rate = exact_pass_probability(p, params)
        assert rate <= honest_rate + 1e-12
        assert rate > honest_rate - 0.2


class TestClassicalProvers:
    def test_constant_replies(self):
        p = constant_classical_provers(3, 1)
        assert p.is_classical and p.shared_state is None
        q = Query.from_assignments(3, {0: "X", 1: "Z"})
        assert execute_query(p, q, None) == 1

    def test_sign_propagates(self):
        p = constant_classical_provers(3, 1)
        q = Query.from_assignments(3, {0: "X"}, sign=-1)
        assert execute_query(p, q, None) == -1

    def test_table_provers(self):
        table = {(v, label): (-1 if label == "X" else 1)
                 for v in range(2) for label in QUERY_LABELS}
        p = classical_provers(2, table)
        q = Query.from_assignments(2, {0: "X", 1: "X"})
        assert execute_query(p, q, None) == 1
        q = Query.from_assignments(2, {0: "X", 1: "Z"})
        assert execute_query(p, q, None) == -1

    def test_incomplete_table_rejected(self):
        with pytest.raises(IncompleteTableError):
            ClassicalStrategy(({"X": 1},))

    def test_incomplete_table_names_the_prover_and_its_missing_labels(self):
        table = {(v, label): 1 for v in range(2) for label in QUERY_LABELS}
        del table[(1, "R-")], table[(1, "X")]
        with pytest.raises(IncompleteTableError, match=r"prover 1 missing labels \['X', 'R-'\]"):
            classical_provers(2, table)

    def test_query_expectation_is_the_fixed_product(self):
        table = {(v, label): (-1 if label == "X" else 1)
                 for v in range(2) for label in QUERY_LABELS}
        p = classical_provers(2, table)
        for assigned, sign in [({0: "X", 1: "X"}, 1), ({0: "X", 1: "Z"}, 1),
                               ({0: "X"}, -1), ({1: "R+"}, 1)]:
            q = Query.from_assignments(2, assigned, sign=sign)
            value = query_expectation(p, q)
            assert type(value) is float and value == execute_query(p, q, None)

    def test_non_unit_reply_rejected(self):
        with pytest.raises(ValueError):
            constant_classical_provers(2, 0)

    def test_execute_query_is_deterministic(self):
        p = constant_classical_provers(3, -1)
        q = Query.from_assignments(3, {0: "X", 2: "Z"})
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert execute_query(p, q, rng) == 1  # (-1) * (-1)
        assert execute_query(p, Query.from_assignments(3, {2: "Z"}), rng) == -1
        assert rng.bit_generator.state == before


class TestExecuteQuery:
    def test_replies_multiply_to_product(self):
        # the replies are the outcomes on the path of a walk on the same stream
        p = honest_k3()
        q = Query.from_assignments(3, {0: "R+", 1: "X", 2: "Z"}, sign=-1)
        for seed in range(10):
            product = execute_query(p.clone(), q, np.random.default_rng(seed))
            walk = TreeWalk(p.tree)
            walk.steps(q.keys, np.random.default_rng(seed))
            assert product == q.sign * math.prod(outcome for _, outcome in walk.node.path)

    def test_vertex_query_always_passes_honest(self):
        rng = np.random.default_rng(6)
        p = honest_k3()
        q = Query.from_assignments(3, {0: "X", 1: "Z", 2: "Z"})
        for _ in range(50):
            assert execute_query(p.clone(), q, rng) == 1

    def test_statistics_match_expectation(self):
        rng = np.random.default_rng(7)
        p = honest_k3()
        q = Query.from_assignments(3, {0: "R+", 1: "Z", 2: "Z"})
        exact = query_expectation(p, q)
        trials = 4000
        total = sum(execute_query(p.clone(), q, rng) for _ in range(trials))
        assert abs(total / trials - exact) < 4 / math.sqrt(trials)


class TestXZPlaneProvers:
    def test_honest_angles_reproduce_honest(self):
        graph = complete_graph(3)
        params = default_parameters(graph)
        state = build_graph_state(graph)
        angles = [{"X": 0.0, "Z": math.pi / 2,
                   "R+": math.pi / 4, "R-": -math.pi / 4}
                  for _ in range(3)]
        p = xz_plane_provers(state, angles)
        honest_rate = exact_pass_probability(honest_k3(), params)
        assert exact_pass_probability(p, params) == pytest.approx(
            honest_rate, abs=1e-12)

    def test_larger_shared_state_is_allowed(self):
        rng = np.random.default_rng(8)
        vec = rng.normal(size=2 ** 4) + 1j * rng.normal(size=2 ** 4)
        from artifact.statevec import StateVector
        state = StateVector(4, vec / np.linalg.norm(vec))
        angles = [dict.fromkeys(QUERY_LABELS, 0.0) for _ in range(3)]
        p = xz_plane_provers(state, angles)
        assert p.n == 3 and p.shared_state.n_qubits == 4

    def test_shared_state_smaller_than_prover_count_rejected(self):
        # three provers need at least one qubit each; the swap isometry
        # relies on this check and makes none of its own
        angles = [dict.fromkeys(QUERY_LABELS, 0.0) for _ in range(3)]
        with pytest.raises(ValueError, match="shared state too small"):
            xz_plane_provers(StateVector(2, np.full(4, 0.5)), angles)


class TestStrategyFromJson:
    def test_honest(self):
        g = complete_graph(3)
        p = strategy_from_json({"kind": "honest"}, g, THETA,
                               np.random.default_rng(0))
        assert not p.is_classical

    def test_perturbed_uses_rng(self):
        g = complete_graph(3)
        a = strategy_from_json({"kind": "perturbed", "eta": 0.1}, g, THETA,
                               np.random.default_rng(1))
        b = strategy_from_json({"kind": "perturbed", "eta": 0.1}, g, THETA,
                               np.random.default_rng(1))
        c = strategy_from_json({"kind": "perturbed", "eta": 0.1}, g, THETA,
                               np.random.default_rng(2))
        assert np.allclose(a.observable(0, "X").matrix,
                           b.observable(0, "X").matrix)
        assert not np.allclose(a.observable(0, "X").matrix,
                               c.observable(0, "X").matrix)

    def test_classical_table(self):
        g = complete_graph(3)
        table = {str(v): dict.fromkeys(QUERY_LABELS, -1) for v in range(3)}
        p = strategy_from_json({"kind": "classical", "table": table}, g,
                               THETA, np.random.default_rng(0))
        assert p.is_classical

    def test_xz_partial_angles_default_to_zero(self):
        g = complete_graph(3)
        p = strategy_from_json({"kind": "xz", "angles": {"0": {"X": 0.3}}},
                               g, THETA, np.random.default_rng(0))
        assert np.allclose(p.observable(1, "X").matrix,
                           oracles.rotation_xz(0.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            strategy_from_json({"kind": "nope"}, complete_graph(3), THETA,
                               np.random.default_rng(0))


def _strategies(graph, seed):
    """Honest, perturbed and X-Z-plane prover sets on ``graph``."""
    rng = np.random.default_rng(seed)
    honest = honest_provers(graph, dict.fromkeys(range(graph.n), math.pi / 4))
    angles = [{label: rng.uniform(-math.pi, math.pi) for label in QUERY_LABELS}
              for _ in range(graph.n)]
    return {"honest": honest,
            "perturbed": perturbed_provers(honest, 0.1, rng),
            "xz": xz_plane_provers(build_graph_state(graph), angles)}


def _measure_chain(p, q, rng):
    """execute_query written as a plain chain of ``measure`` calls.  Each
    takes its qubit out of the state, so ``present`` lists the vertices
    still in it, in qubit order."""
    replies, product, state = {}, q.sign, p.shared_state
    present = list(range(state.n_qubits))
    for v in q.queried:
        replies[v], state, _ = measure(state, p.observable(v, q.bases[v]),
                                       present.index(v), rng)
        present.remove(v)
        product *= replies[v]
    return replies, product


class ForcedRng:
    """Hands out fixed draws: -1.0 forces +1 and 2.0 forces -1 on any branch."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


@pytest.fixture
def measure_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append((args[0].n_qubits, args[2]))
        return measure(*args)

    monkeypatch.setattr(provers, "measure", counted)
    return calls


class TestOutcomeTree:
    @pytest.mark.parametrize("graph", [complete_graph(3), triangular_lattice(3, 4)],
                             ids=["k3", "lattice"])
    @pytest.mark.parametrize("kind", ["honest", "perturbed", "xz"])
    def test_replies_and_stream_match_a_measure_chain(self, graph, kind):
        p = _strategies(graph, 11)[kind]
        queries = [s.query for s in default_parameters(graph).subtests]
        tree_rng, walk_rng, chain_rng = (np.random.default_rng(5) for _ in range(3))
        for _ in range(3):
            for q in queries:
                replies, product = _measure_chain(p, q, chain_rng)
                assert execute_query(p.clone(), q, tree_rng) == product
                walk = TreeWalk(p.tree)
                walk.steps(q.keys, walk_rng)
                assert {key[0]: outcome for key, outcome in walk.node.path} == replies
                assert (tree_rng.bit_generator.state == walk_rng.bit_generator.state
                        == chain_rng.bit_generator.state)

    def test_a_second_pass_is_all_hits(self, measure_calls):
        p = _strategies(triangular_lattice(3, 4), 12)["perturbed"]
        queries = [s.query for s in default_parameters(triangular_lattice(3, 4)).subtests]
        first = [execute_query(p, q, np.random.default_rng(8)) for q in queries]
        assert measure_calls
        measure_calls.clear()
        second = [execute_query(p.clone(), q, np.random.default_rng(8)) for q in queries]
        assert second == first
        assert measure_calls == []

    # X0 Z1 Z2 stabilizes |K3>: after X0 = Z1 = +1 the Z2 reply is +1 for sure,
    # after X0 = +1, Z1 = -1 it is -1 for sure
    @pytest.mark.parametrize("allowed,forced", [((-1.0, -1.0, -1.0), (-1.0, -1.0, 2.0)),
                                                ((-1.0, 2.0, 2.0), (-1.0, 2.0, -1.0))],
                             ids=["minus-branch", "plus-branch"])
    def test_an_impossible_branch_raises_on_miss_and_on_hit(self, allowed, forced,
                                                            measure_calls):
        q = Query.from_assignments(3, {0: "X", 1: "Z", 2: "Z"})
        with pytest.raises(NormUnderflowError):
            execute_query(honest_k3(), q, ForcedRng(forced))
        # vertices 0, 1, 2 in turn, each the lowest qubit of what is left
        assert measure_calls == [(3, 0), (2, 0), (1, 0)]
        p = honest_k3()
        execute_query(p, q, ForcedRng(allowed))
        measure_calls.clear()
        with pytest.raises(NormUnderflowError):
            execute_query(p, q, ForcedRng(forced))
        assert measure_calls == []


    @staticmethod
    def _nodes(node, n_qubits):
        """(node, qubits of its state) for every node below ``node``."""
        for b in node.values():
            for child in b.child[1:]:
                if child is not None:
                    yield child, n_qubits - 1
                    yield from TestOutcomeTree._nodes(child, n_qubits - 1)

    @pytest.mark.parametrize("graph", [complete_graph(3), triangular_lattice(3, 4)],
                             ids=["k3", "lattice"])
    def test_only_small_states_are_kept_and_never_rebuilt(self, graph, monkeypatch):
        projected = []

        def counted(state, obs, qubit, outcome):
            projected.append((id(state), obs, qubit, outcome))
            return project(state, obs, qubit, outcome)

        monkeypatch.setattr(provers, "project", counted)
        p = _strategies(graph, 14)["honest"]
        rng = np.random.default_rng(9)
        for _ in range(20):
            for s in default_parameters(graph).subtests:
                execute_query(p, s.query, rng)
        nodes = list(self._nodes(p.tree.root, graph.n))
        assert len(nodes) > 20
        for node, n_qubits in nodes:
            if node.state is not None:
                assert node.state.n_qubits == n_qubits <= math.log2(provers.KEEP_AMPS)
        # a repeated call rebuilds a state the tree did not keep: the
        # lattice's big ones, never one of K3's
        rebuilt = len(projected) - len(set(projected))
        assert (rebuilt == 0) == (graph.n == 3)

    def test_a_walked_tree_pickles_and_is_no_reference_cycle(self):
        # nodes hold their path, no link up: a walked set pickles, and a
        # dropped tree goes by reference counting, without the cyclic collector
        p = honest_k3()
        queries = [s.query for s in default_parameters(complete_graph(3)).subtests]
        for q in queries:
            execute_query(p, q, np.random.default_rng(10))
        twin = pickle.loads(pickle.dumps(p))
        assert ([execute_query(twin, q, np.random.default_rng(11)) for q in queries]
                == [execute_query(p, q, np.random.default_rng(11)) for q in queries])
        b = next(iter(p.tree.root.values()))
        kept = weakref.ref(next(c for c in b.child if c is not None).state.amplitudes)
        gc.disable()
        try:
            del p, b
            assert kept() is None
        finally:
            gc.enable()

    def test_a_query_returns_its_end_nodes_signed_path_product(self):
        # every outcome sequence of every K3 subtest query, forced: the
        # reachable ones fill the tree, and a second call reads its end node
        p = honest_k3()
        queries = [s.query for s in default_parameters(complete_graph(3)).subtests]
        assert {q.sign for q in queries} == {1, -1}
        ends = 0
        for q in queries:
            for outcomes in itertools.product((1, -1), repeat=len(q.keys)):
                draws = [-1.0 if o == 1 else 2.0 for o in outcomes]
                try:
                    execute_query(p, q, ForcedRng(draws))
                except NormUnderflowError:
                    continue
                node = p.tree.root
                for key, outcome in zip(q.keys, outcomes):
                    node = node[key].child[outcome]
                product = execute_query(p, q, ForcedRng(draws))
                assert type(product) is int
                assert product == q.sign * math.prod(outcome for _, outcome in node.path)
                ends += 1
        assert ends > len(queries)


# the golden records' patterns: K3's adaptive chain and four unconditioned
# pi/4 measurements on the lattice, both with non-uniform laws
PATTERNS = {
    3: MeasurementPattern(
        (PatternStep(0, math.pi / 4), PatternStep(1, math.pi / 4, x_deps=(0,)),
         PatternStep(2, math.pi / 4, x_deps=(1,), z_deps=(0,))), output_bits=(0, 1, 2)),
    12: MeasurementPattern(tuple(PatternStep(v, math.pi / 4) for v in (0, 1, 4, 5)),
                           output_bits=(0, 1, 4, 5)),
}


class TestRealDtype:
    """X-Z-plane prover sets on |G> hold float64 states and observables, and
    their exact values agree with a complex128 twin to rounding."""

    @staticmethod
    def _complex_twin(p):
        # a complex state promotes every kernel, so the twin's walks, laws
        # and inner products all run in complex128
        amps = p.shared_state.amplitudes.astype(complex)
        return provers.ProverSet(p.n, p.strategy,
                                 StateVector(p.shared_state.n_qubits, amps, _validate=False))

    @pytest.mark.parametrize("graph", [complete_graph(3), triangular_lattice(3, 4)],
                             ids=["k3", "lattice"])
    def test_sets_and_their_observables_are_float64(self, graph):
        assert build_graph_state(graph).amplitudes.dtype == np.float64
        for kind, p in _strategies(graph, 13).items():
            assert p.shared_state.amplitudes.dtype == np.float64, kind
            for v in range(p.n):
                for label in QUERY_LABELS:
                    assert p.observable(v, label).matrix.dtype == np.float64, (kind, v)

    @pytest.mark.parametrize("graph", [complete_graph(3), triangular_lattice(3, 4)],
                             ids=["k3", "lattice"])
    @pytest.mark.parametrize("kind", ["honest", "perturbed", "xz"])
    def test_exact_values_match_a_complex_twin(self, graph, kind):
        p = _strategies(graph, 17)[kind]
        twin = self._complex_twin(p)
        params = default_parameters(graph)
        assert abs(exact_pass_probability(p, params)
                   - exact_pass_probability(twin, params)) <= 1e-14
        law = run_distribution(p, PATTERNS[graph.n])
        twin_law = run_distribution(twin, PATTERNS[graph.n])
        assert sorted(law) == sorted(twin_law)
        assert max(abs(law[b] - twin_law[b]) for b in law) <= 1e-14
