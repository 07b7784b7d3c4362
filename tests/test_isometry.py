"""Tests for the swap isometry, junk extraction, and closeness reports."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artifact import bounds
from artifact.graphs import Graph, TriangleCover, complete_graph, triangle_strip, triangular_lattice
from artifact.graphstate import build_graph_state
from artifact import isometry
from artifact.isometry import (
    EquivalenceReport,
    JunkDegenerateError,
    anticommutator_norm,
    apply_phi,
    conjugated_kernel,
    constructed_junk,
    controlled_unitary,
    equivalence_distance,
    grouped_matrix,
    label_name,
    measured_epsilon,
    pair_overlaps,
    parse_label,
    _label_entry,
    phi_vertex_unitary,
    residual_norm,
    rtheta_epsilon,
    vertex_unitaries,
)
from artifact.provers import (
    ProverSet,
    QuantumStrategy,
    classical_provers,
    honest_provers,
    perturbed_provers,
    xz_plane_provers,
)
from artifact.mbqc import MeasurementPattern, PatternStep, run_distribution
from artifact import selftest
from artifact.selftest import default_parameters, exact_pass_probability
from artifact.statevec import SingleQubitObservable, StateVector

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def _honest(graph, theta=math.pi / 4):
    params = default_parameters(graph, theta=theta)
    return honest_provers(graph, params.theta), params


def _streamed(head, blocks, n, out, size):
    """The output ``apply_phi`` streams, each block put at its first row."""
    whole = np.full(size, np.nan, out.dtype)
    for a, rows in apply_phi(head, blocks, n, out):
        whole[a * (size >> n):][:rows.size] = rows
    assert not np.isnan(whole).any()
    return whole


def _stream_output(psi, blocks, n):
    """The whole swap-circuit output on shared amplitudes psi, from the
    stage ``blocks``: the head every stage but the last two writes, and
    the blocks ``apply_phi`` streams from it."""
    size = psi.size << (2 * n)
    dtype = np.result_type(psi, *blocks)
    buffers = (np.empty(size >> 4, dtype), np.empty(size >> 1, dtype))
    head = isometry._stages(psi, blocks[:-2], n, buffers)
    return _streamed(head, blocks[-2:], n, buffers[1], size)


def _phi(p):
    """Phi(psi') whole for p's shared state, the last two stages streamed."""
    blocks = [isometry._stage_blocks(u) for u in vertex_unitaries(p)]
    return _stream_output(p.shared_state.amplitudes, blocks, p.n)


class TestCircuitPieces:
    def test_controlled_unitary_blocks(self):
        rng = np.random.default_rng(3)
        m = np.linalg.qr(rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)))[0]
        cu = controlled_unitary(m)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = m
        # control is the higher-order qubit; little-endian means the
        # controlled block occupies the upper-left quadrant only after
        # reordering, so check action on basis states instead
        for a1 in (0, 1):
            for sys in (0, 1):
                idx = (a1 << 1) | sys
                e = np.zeros(4, dtype=complex)
                e[idx] = 1.0
                out = cu @ e
                if a1 == 0:
                    assert np.allclose(out, e)
                else:
                    target = np.zeros(4, dtype=complex)
                    target[2:] = m[:, sys]
                    assert np.allclose(out, target)

    def test_exact_paulis_fold_to_swap(self):
        assert np.allclose(phi_vertex_unitary(X, Z), SWAP, atol=1e-12)

    def test_folded_unitary_equals_the_gate_sequence(self):
        rng = np.random.default_rng(8)
        eta = 0.07
        mx = math.cos(eta) * X + math.sin(eta) * Z
        mz = math.cos(eta) * Z + math.sin(eta) * X
        h2 = np.kron(H, np.eye(2))
        expected = (controlled_unitary(mx) @ h2 @ controlled_unitary(mz)
                    @ h2 @ controlled_unitary(mx))
        assert np.allclose(phi_vertex_unitary(mx, mz), expected, atol=1e-12)
        u = phi_vertex_unitary(mx, mz)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_pair_layout_matches_index_arithmetic(self):
        for kind in ("perturbed", "private"):
            p = _provers(kind, complete_graph(3), np.random.default_rng(29))[0]
            n, m = p.n, p.shared_state.n_qubits
            grouped, pos = _phi_by_index_arithmetic(p)
            # streamed from the head the first stage writes
            amps = _phi(p)
            assert np.abs(amps[pos] - grouped).max() < 1e-12
            # grouped is indexed j | a1 << m | a2 << (m+n), j the shared index;
            # the view's rows are a2 and its columns the junk register:
            # s_v at bit m-n+2v, a1_v at bit m-n+2v+1, the private qubits below
            a, col = np.indices((1 << n, 1 << (m + n)))
            private = col & ((1 << (m - n)) - 1)
            shared, a1 = private << n, np.zeros_like(col)
            for v in range(n):
                shared |= ((col >> (m - n + 2 * v)) & 1) << v
                a1 |= ((col >> (m - n + 2 * v + 1)) & 1) << v
            want = grouped[shared | (a1 << m) | (a << (m + n))]
            got = grouped_matrix(amps, 1 << (m + n))
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


class TestApplyPhi:
    def test_classical_provers_rejected(self):
        table = {(v, label): 1 for v in range(3)
                 for label in ("X", "Z", "R+", "R-")}
        params = default_parameters(complete_graph(3), theta=math.pi / 4)
        with pytest.raises(TypeError):
            equivalence_distance(classical_provers(3, table), params, ["I"])

    def test_output_shape(self):
        provers, _ = _honest(complete_graph(3))
        amps = _phi(provers)
        # 3 shared qubits and two ancillas per vertex
        assert amps.shape == (1 << 9,)
        assert math.isclose(np.linalg.norm(amps), 1.0, abs_tol=1e-12)

    def test_qubit_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("GSIP_QUBIT_CAP", "8")
        provers, params = _honest(complete_graph(3))
        from artifact.statevec import QubitCapError
        # 3 shared qubits and 6 ancillas: refused before the workspace exists
        with pytest.raises(QubitCapError):
            equivalence_distance(provers, params, ["I"])

    def test_honest_output_factorizes_exactly(self):
        graph = complete_graph(3)
        provers, _ = _honest(graph)
        mat = grouped_matrix(_phi(provers), 1 << (2 * graph.n))
        g_amps = build_graph_state(graph).amplitudes
        junk = np.conj(g_amps) @ mat
        residual = np.linalg.norm(mat - np.outer(g_amps, junk))
        assert residual < 1e-12

    def test_grouped_matrix_preserves_norm(self):
        provers, _ = _honest(triangle_strip(4))
        mat = grouped_matrix(_phi(provers), 1 << (2 * provers.n))
        assert math.isclose(np.linalg.norm(mat), 1.0, abs_tol=1e-12)


class TestGroupedView:
    """``grouped_matrix`` reads the output in place, and the pair overlaps
    match the dense product with the matrix built by index arithmetic."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_grouped_matrix_shares_memory_with_the_output(self, m):
        amps = np.arange(1 << (m + 6), dtype=float)
        view = grouped_matrix(amps, 1 << (m + 3))
        assert np.shares_memory(view, amps)
        assert view.shape == (8, 1 << (m + 3))
        # and so does a block of rows, as apply_phi streams them
        block = grouped_matrix(amps[:2 << (m + 3)], 1 << (m + 3))
        assert np.shares_memory(block, amps) and block.shape == (2, 1 << (m + 3))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (2, 3), (7, 2)])
    def test_overlap_matches_the_dense_product(self, n, m, dtype):
        # the pair overlaps, one gemm over the head of an output whose last
        # two stages have random unitary blocks, and their sum over the
        # diagonal, the overlap with the ideal vector, against the streamed
        # rows
        rng = np.random.default_rng(83 + 8 * n + m)
        head = TestResidualNorm._unit(1 << (m + 2 * n - 4), dtype, rng)
        unitaries = [np.linalg.qr(TestResidualNorm._unit((4, 4), dtype, rng))[0]
                     for _ in range(2)]
        blocks = [isometry._stage_blocks(u) for u in unitaries]
        amps = _streamed(head, blocks, n, np.empty(8 * head.size, dtype),
                         head.size << 4)
        ideal = TestResidualNorm._unit(1 << n, float, rng)
        # row a is the slice where the top n bits, the graph register, are a
        a, col = np.indices((1 << n, 1 << (n + m)))
        mat = amps[(a << (n + m)) | col]
        want = ideal @ mat
        out = np.empty(4 * n << (m + n), dtype)
        pairs = pair_overlaps(ideal, head, blocks, n, out)
        assert pairs.shape == (n, 2, 2, 1 << (m + n)) and np.shares_memory(pairs, out)
        a = np.arange(1 << n)
        for v in range(n):
            bit = (a >> v) & 1
            for alpha in (0, 1):
                for beta in (0, 1):
                    weights = np.where(bit == beta, ideal[a ^ ((bit ^ alpha) << v)], 0.0)
                    pair = pairs[v, alpha, beta]
                    assert np.abs(pair - weights @ mat).max() <= 1e-15
            assert np.abs(pairs[v, 0, 0] + pairs[v, 1, 1] - want).max() <= 1e-15


class TestJunk:
    @pytest.mark.parametrize("graph", [complete_graph(3), triangle_strip(4)])
    def test_honest_constructed_junk_is_epr_pairs(self, graph):
        provers, _ = _honest(graph)
        n = graph.n
        junk = constructed_junk(provers, build_graph_state(graph).amplitudes, np.float64)
        assert junk.shape == (1 << (2 * n),)
        # shared qubit v and a1_v hold the same bit: s = block
        expected = np.eye(1 << n) * 2 ** (-n / 2)
        assert np.allclose(_canonical(junk, n, n), expected, atol=1e-12)

    def test_extracted_junk_matches_constructed_for_honest(self):
        graph = complete_graph(3)
        provers, _ = _honest(graph)
        g_amps = build_graph_state(graph).amplitudes
        extracted = np.conj(g_amps) @ grouped_matrix(_phi(provers), 1 << (2 * graph.n))
        extracted = extracted / np.linalg.norm(extracted)
        built = constructed_junk(provers, g_amps, np.float64)
        phase = np.vdot(built, extracted)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.linalg.norm(extracted - phase * built) < 1e-12

    def test_constructed_junk_is_normalized_for_perturbed_provers(self):
        graph = complete_graph(3)
        provers, _ = _honest(graph)
        rng = np.random.default_rng(17)
        perturbed = perturbed_provers(provers, 0.08, rng)
        junk = constructed_junk(perturbed, build_graph_state(graph).amplitudes, np.float64)
        assert math.isclose(np.linalg.norm(junk), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("kind", ["honest", "perturbed", "xz", "private", "complex"])
    @pytest.mark.parametrize("graph", [complete_graph(3), triangle_strip(4),
                                       triangular_lattice(2, 3)],
                             ids=["k3", "strip4", "lattice2x3"])
    def test_constructed_junk_matches_the_term_by_term_sum(self, graph, kind):
        # the stage-built junk against the 2^n-term sum of its definition,
        # in the dtype it is asked for, and of norm 1 for every kind
        p, _ = _provers(kind, graph, np.random.default_rng(67))
        psi = p.shared_state.amplitudes
        zs = [p.observable(v, "Z").matrix for v in range(graph.n)]
        dtype = np.result_type(psi, *zs)
        junk = constructed_junk(p, build_graph_state(graph).amplitudes, dtype)
        assert junk.dtype == dtype
        want = oracles.constructed_junk(psi, zs, graph.edges)
        assert np.abs(junk - want).max() <= 1e-15
        assert math.isclose(np.linalg.norm(junk), 1.0, abs_tol=1e-12)


def _junk_index(n, m, s, block):
    """Junk-register index of shared qubits 0..n-1 = s and the low m bits =
    block (private qubits, then the first ancillas), bit by bit: the
    private qubits lowest, then s_v at bit m-n+2v and a1_v just above it."""
    idx = block & ((1 << (m - n)) - 1)
    for v in range(n):
        a1 = (block >> (m - n + v)) & 1
        idx = idx | (((s >> v) & 1) << (m - n + 2 * v)) | (a1 << (m - n + 2 * v + 1))
    return idx


def _pair_index(n, m, a, s, block):
    """Output index of a2 = a above the junk register's ``_junk_index``."""
    return (a << (m + n)) | _junk_index(n, m, s, block)


def _grouped(amps, n, m):
    """Output amplitudes as a matrix with rows a2 = a and columns
    s * 2^m + block, gathered by ``_pair_index``."""
    a, col = np.indices((1 << n, 1 << (n + m)))
    return amps[_pair_index(n, m, a, col >> m, col & ((1 << m) - 1))]


def _canonical(junk, n, m):
    """A junk-register vector as a matrix with rows s and columns block."""
    s, block = np.indices((1 << n, 1 << m))
    return junk[_junk_index(n, m, s, block)]


def _junk_vector(matrix, n, m):
    """The junk-register vector whose ``_canonical`` matrix is ``matrix``."""
    s, block = np.indices((1 << n, 1 << m))
    vec = np.empty(matrix.size, matrix.dtype)
    vec[_junk_index(n, m, s, block)] = matrix
    return vec


class TestResidualNorm:
    """``residual_norm`` against || amps - target ||, the target ideal (x)
    junk laid out by explicit bit arithmetic."""

    @staticmethod
    def _target(n, m, ideal, junk):
        """junk has rows s and columns block."""
        target = np.zeros(1 << (m + 2 * n), dtype=np.result_type(ideal, junk))
        for a in range(1 << n):
            for s in range(1 << n):
                for block in range(1 << m):
                    target[_pair_index(n, m, a, s, block)] = ideal[a] * junk[s, block]
        return target

    @staticmethod
    def _unit(size, dtype, rng):
        vec = rng.normal(size=size)
        if dtype is complex:
            vec = vec + 1j * rng.normal(size=size)
        return vec / np.linalg.norm(vec)

    def _case(self, n, m, dtype, rng):
        # a Pauli label's ideal: two distinct values
        ideal = rng.choice([-1.0, 1.0], size=1 << n) * 2.0 ** (-n / 2)
        junk = self._unit((1 << n, 1 << m), dtype, rng)
        return ideal, junk, self._target(n, m, ideal, junk)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 4), (3, 5)])
    def test_matches_the_dense_norm(self, n, m, dtype):
        rng = np.random.default_rng(71 + 8 * n + m)
        ideal, junk, target = self._case(n, m, dtype, rng)
        shaped = _junk_vector(junk, n, m)
        for amps in (self._unit(target.size, dtype, rng),
                     target + 0.01 * self._unit(target.size, dtype, rng)):
            amps = amps / np.linalg.norm(amps)
            want = np.linalg.norm(amps - target)
            assert abs(residual_norm([(0, amps.copy())], ideal, shaped) - want) <= 1e-15

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n,m", [(3, 3), (3, 5)])
    def test_an_exact_product_has_zero_distance(self, n, m, dtype):
        ideal, junk, target = self._case(n, m, dtype, np.random.default_rng(73))
        got = residual_norm([(0, target)], ideal, _junk_vector(junk, n, m))
        assert got <= 1e-15

    def test_a_rotation_label_ideal(self):
        graph = triangle_strip(4)
        p, params = _honest(graph)
        g_amps = build_graph_state(graph).amplitudes
        _, _, _, ideal, _, _ = _label_entry(p, params, parse_label(("R+", 1)), 0.0, g_amps)
        assert 2 < len(np.unique(ideal)) <= 4
        n, m = graph.n, graph.n + 1
        rng = np.random.default_rng(79)
        junk = self._unit((1 << n, 1 << m), complex, rng)
        target = self._target(n, m, ideal, junk)
        amps = target + 0.05 * self._unit(target.size, complex, rng)
        amps /= np.linalg.norm(amps)
        want = np.linalg.norm(amps - target)
        # two blocks of rows, in place: the residual overwrites them
        rows = np.split(amps, [amps.size // 4])
        got = residual_norm(zip((0, 4), rows), ideal, _junk_vector(junk, n, m))
        assert abs(got - want) <= 1e-15
        assert abs(np.linalg.norm(amps) - want) <= 1e-15


class TestDeviationMeasures:
    def test_honest_epsilon_vanishes(self):
        provers, params = _honest(triangle_strip(4))
        assert measured_epsilon(provers, params) < 1e-12

    def test_honest_rotation_epsilon_vanishes(self):
        provers, params = _honest(complete_graph(3))
        for v in range(3):
            for t in (1, -1):
                assert rtheta_epsilon(provers, params, v, t) < 1e-12

    def test_perturbed_epsilon_small_but_positive(self):
        provers, params = _honest(complete_graph(3))
        rng = np.random.default_rng(5)
        perturbed = perturbed_provers(provers, 0.05, rng)
        eps = measured_epsilon(perturbed, params)
        assert 0 < eps < 0.1

    def test_anticommutator_honest_and_perturbed(self):
        graph = complete_graph(3)
        provers, params = _honest(graph)
        for v in range(3):
            assert anticommutator_norm(provers, v) < 1e-12
        rng = np.random.default_rng(6)
        perturbed = perturbed_provers(provers, 0.05, rng)
        eps = measured_epsilon(perturbed, params)
        cap = bounds.lemma1_anticommutator(max(eps, 0.0))
        for v in range(3):
            assert anticommutator_norm(perturbed, v) <= cap + 1e-9

    def test_rotation_epsilon_bad_arguments_rejected(self):
        provers, params = _honest(complete_graph(3))
        with pytest.raises(IndexError):
            rtheta_epsilon(provers, params, 7, 1)
        with pytest.raises(ValueError):
            rtheta_epsilon(provers, params, 0, 0)


class TestLabels:
    def test_parse_accepts_all_forms(self):
        assert parse_label("I") == ("I",)
        assert parse_label("i") == ("I",)
        assert parse_label(("X", 2)) == ("X", 2)
        assert parse_label(["R+", 1]) == ("R+", 1)
        assert parse_label(("XZ", [1, 0], (0, 1))) == ("XZ", (1, 0), (0, 1))

    @pytest.mark.parametrize("bad", [
        "Q", ("X",), ("X", 1, 2), ("XZ", (0, 2), (0, 0)), ("XZ", (0, 1)),
        (3, 1),
    ])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_label(bad)

    def test_label_names(self):
        assert label_name(("I",)) == "I"
        assert label_name(("R-", 2)) == "R-(2)"
        assert label_name(("XZ", (1, 0), (0, 1))) == "XZ(q=10,p=01)"


class TestEquivalenceDistance:
    LABELS = ["I", ("X", 0), ("Z", 1), ("R+", 2), ("R-", 0),
              ("XZ", (1, 0, 1), (0, 1, 0))]

    def test_honest_distances_vanish(self):
        for graph, labels in ((complete_graph(3), self.LABELS),
                              (triangle_strip(7), _labels(7))):
            provers, params = _honest(graph)
            report = equivalence_distance(provers, params, labels)
            assert isinstance(report, EquivalenceReport)
            assert report.junk_source == "identity-extraction"
            assert report.epsilon < 1e-12
            assert report.all_satisfied
            # at rounding level, one-vertex labels included
            for entry in report.labels:
                assert entry.distance < 1e-14, (graph.n, entry.label)

    def test_bound_kinds_by_label(self):
        provers, params = _honest(complete_graph(3))
        report = equivalence_distance(provers, params, self.LABELS)
        kinds = {entry.label: entry.kind for entry in report.labels}
        assert kinds["I"] == "thm2"
        assert kinds["X(0)"] == "thm2"
        assert kinds["Z(1)"] == "thm2"
        assert kinds["R+(2)"] == "lemma3"
        assert kinds["R-(0)"] == "lemma3"
        assert kinds["XZ(q=101,p=010)"] == "thm2"

    def test_perturbed_distances_stay_within_bounds(self):
        provers, params = _honest(complete_graph(3))
        rng = np.random.default_rng(88)
        perturbed = perturbed_provers(provers, 0.06, rng)
        report = equivalence_distance(perturbed, params, self.LABELS)
        assert report.all_satisfied
        assert report.worst_excess <= 0
        assert report.epsilon > 0

    def test_report_serialization(self):
        provers, params = _honest(complete_graph(3))
        report = equivalence_distance(provers, params, ["I", ("X", 1)])
        payload = report.to_json()
        assert list(payload) == ["epsilon", "junk_norm", "junk_source", "all_satisfied",
                                 "worst_excess", "tightest_label", "labels"]
        assert payload["worst_excess"] == report.worst_excess
        assert payload["tightest_label"] == report.tightest.label
        assert len(payload["labels"]) == 2
        assert payload["labels"][0]["label"] == "I"
        assert "distance" in json.dumps(payload)

    def test_label_vertex_out_of_range_rejected(self):
        provers, params = _honest(complete_graph(3))
        with pytest.raises(ValueError):
            equivalence_distance(provers, params, [("X", 5)])

    def test_xz_exponent_length_checked(self):
        provers, params = _honest(complete_graph(3))
        with pytest.raises(ValueError):
            equivalence_distance(provers, params, [("XZ", (1, 0), (0, 1))])

    def test_orthogonal_shared_state_degenerates(self):
        graph = complete_graph(3)
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1 / math.sqrt(2)
        amps[1] = -1 / math.sqrt(2)
        angles = [{"X": 0.0, "Z": math.pi / 2, "R+": math.pi / 4,
                   "R-": -math.pi / 4} for _ in range(3)]
        provers = xz_plane_provers(StateVector(3, amps), angles)
        params = default_parameters(graph)
        with pytest.raises(JunkDegenerateError):
            equivalence_distance(provers, params, ["I"])

    def test_thm2_bound_values_flow_through(self):
        graph = complete_graph(3)
        provers, params = _honest(graph)
        report = equivalence_distance(provers, params, ["I", ("Z", 0)])
        by_label = {entry.label: entry.bound for entry in report.labels}
        eps = report.epsilon
        assert math.isclose(
            by_label["I"], bounds.thm2_bound(eps, 3, graph.edge_count, 0),
            rel_tol=1e-12)
        assert math.isclose(
            by_label["Z(0)"], bounds.thm2_bound(eps, 3, graph.edge_count, 1),
            rel_tol=1e-12)


def _label_operators(p, label):
    """{vertex: M'_v} for a parsed label, built from the prover observables."""
    head = label[0]
    if head == "I":
        return {}
    if head != "XZ":
        return {label[1]: p.observable(label[1], head).matrix}
    ops = {}
    for v, (q, z) in enumerate(zip(label[1], label[2])):
        if q or z:
            ops[v] = ((p.observable(v, "X").matrix if q else np.eye(2))
                      @ (p.observable(v, "Z").matrix if z else np.eye(2)))
    return ops


def _ideal_vector(graph, params, label):
    """M |G> for a parsed label, by dense operators."""
    g = build_graph_state(graph).amplitudes
    head = label[0]
    if head == "I":
        return g
    if head in ("X", "Z"):
        terms = {label[1]: X if head == "X" else Z}
    elif head in ("R+", "R-"):
        t = 1 if head == "R+" else -1
        terms = {label[1]: oracles.rotation_xz(t * params.theta[label[1]])}
    else:
        terms = {v: (X if q else np.eye(2)) @ (Z if z else np.eye(2))
                 for v, (q, z) in enumerate(zip(label[1], label[2])) if q or z}
    return oracles.full_operator(graph.n, terms) @ g


def _direct_output(p, label):
    """One circuit run on M'_S psi', by provers with p's strategy that
    share that state."""
    state = p.shared_state
    ops = _label_operators(p, label)
    amps = oracles.full_operator(state.n_qubits, ops) @ state.amplitudes
    q = ProverSet(p.n, p.strategy, StateVector(state.n_qubits, amps, _validate=False))
    return _phi(q)


def _direct_matrix(p, label):
    return _grouped(_direct_output(p, label), p.n, p.shared_state.n_qubits)


def _private_qubit_provers(graph, rng):
    """X-Z-plane provers on a random shared state with one private qubit."""
    m = graph.n + 1
    vec = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    angles = [{"X": rng.normal(0, 0.1), "Z": math.pi / 2 + rng.normal(0, 0.1),
               "R+": math.pi / 4, "R-": -math.pi / 4} for _ in range(graph.n)]
    return xz_plane_provers(StateVector(m, vec / np.linalg.norm(vec)), angles)


def _phi_by_index_arithmetic(p):
    """The swap circuit's output indexed shared | a1 << m | a2 << (m+n),
    and the documented output position of each index."""
    n, m = p.n, p.shared_state.n_qubits
    total = m + 2 * n
    vec = np.zeros(1 << total, dtype=complex)
    for j, amp in enumerate(p.shared_state.amplitudes):
        for a in range(1 << n):
            vec[j | (a << m) | (a << (m + n))] = amp / 2 ** (n / 2)
    for v in range(n):
        u = phi_vertex_unitary(p.observable(v, "X").matrix,
                               p.observable(v, "Z").matrix)
        lo, hi = v, m + n + v
        out = np.zeros_like(vec)
        for idx, amp in enumerate(vec):
            col = (((idx >> hi) & 1) << 1) | ((idx >> lo) & 1)
            base = idx & ~((1 << lo) | (1 << hi))
            for row in range(4):
                out[base | ((row & 1) << lo) | ((row >> 1) << hi)] += u[row, col] * amp
        vec = out
    # private qubits lowest, then (shared v, a1_v) pairs, then a2 on top
    pos = np.zeros(1 << total, dtype=np.int64)
    for idx in range(1 << total):
        bit = lambda b: (idx >> b) & 1
        k = sum(bit(n + q) << q for q in range(m - n))
        k |= sum((bit(v) << (m - n + 2 * v)) | (bit(m + v) << (m - n + 2 * v + 1))
                 for v in range(n))
        k |= sum(bit(m + n + v) << (m + n + v) for v in range(n))
        pos[idx] = k
    return vec, pos


def _labels(n):
    labels = ["I"] + [(h, v) for v in range(n) for h in ("X", "Z", "R+", "R-")]
    both = tuple(1 if v == 0 else 0 for v in range(n))
    labels.append(("XZ", both, both))  # X and Z on vertex 0
    labels.append(("XZ", tuple(v % 2 for v in range(n)),
                   tuple(1 - v % 2 for v in range(n))))
    labels.append(("XZ", (1,) * n, (1,) * n))
    return [parse_label(l) for l in labels]


def _provers(kind, graph, rng):
    """Prover sets whose reports run in float64 (honest, perturbed, xz) or
    in complex128: a complex shared state with one private qubit (private),
    or observables tilted out of the X-Z plane towards Y (complex)."""
    honest, params = _honest(graph)
    if kind == "honest":
        return honest, params
    if kind == "complex":
        def tilted(label, angle):
            tilt = rng.normal(0, 0.1)
            matrix = (math.cos(tilt) * oracles.rotation_xz(angle + rng.normal(0, 0.1))
                      + math.sin(tilt) * Y)
            return SingleQubitObservable(label, matrix)

        centres = {"X": 0.0, "Z": math.pi / 2, "R+": math.pi / 4, "R-": -math.pi / 4}
        observables = tuple({label: tilted(label, angle) for label, angle in centres.items()}
                            for _ in range(graph.n))
        return ProverSet(graph.n, QuantumStrategy(observables),
                         build_graph_state(graph)), params
    if kind == "perturbed":
        return perturbed_provers(honest, 0.08, rng), params
    if kind == "xz":
        angles = [{"X": rng.normal(0, 0.1), "Z": math.pi / 2 + rng.normal(0, 0.1),
                   "R+": math.pi / 4 + rng.normal(0, 0.1),
                   "R-": -math.pi / 4 + rng.normal(0, 0.1)} for _ in range(graph.n)]
        return xz_plane_provers(build_graph_state(graph), angles), params
    return _private_qubit_provers(graph, rng), params


class TestConjugation:
    @pytest.mark.parametrize("kind", ["perturbed", "xz", "private"])
    @pytest.mark.parametrize("graph", [complete_graph(3), triangle_strip(4)])
    def test_label_matrices_match_a_circuit_run_per_label(self, graph, kind):
        # a one-vertex label's conjugated kernel on the identity run, and a
        # label on other supports through its own stages, row block by row
        # block, against one circuit run per label
        p, params = _provers(kind, graph, np.random.default_rng(41))
        n, m = graph.n, p.shared_state.n_qubits
        unitaries = vertex_unitaries(p)
        amps0 = _phi(p)
        blocks = [isometry._stage_blocks(u) for u in unitaries]
        g_amps = build_graph_state(graph).amplitudes
        for label in _labels(n):
            _, factors, _, ideal, _, _ = _label_entry(p, params, label, 0.0, g_amps)
            if len(factors) == 1:
                (v, f), = factors.items()
                got = _apply_pair(amps0, conjugated_kernel(unitaries[v], f), v, n, m)
            else:
                state = oracles.full_operator(m, factors) @ p.shared_state.amplitudes
                state = state if np.iscomplexobj(amps0) else state.real
                got = _stream_output(state, blocks, n)
            direct = _direct_output(p, label)
            assert np.abs(got - direct).max() < 1e-12, label
            assert np.abs(ideal - _ideal_vector(graph, params, label)).max() < 1e-12

    def test_a_report_builds_each_vertex_unitary_once(self, monkeypatch):
        graph = triangle_strip(4)
        p, params = _provers("perturbed", graph, np.random.default_rng(43))
        calls = []
        real = isometry.phi_vertex_unitary

        def counted(x_matrix, z_matrix):
            calls.append(1)
            return real(x_matrix, z_matrix)

        monkeypatch.setattr(isometry, "phi_vertex_unitary", counted)
        # 25 label factors on 4 vertices: one U_v per vertex, not one per factor
        equivalence_distance(p, params, _labels(graph.n))
        assert len(calls) == graph.n

    # the identity, a label on all four vertices and one on two
    MULTI = ["I", ("XZ", (1, 0, 1, 0), (0, 1, 0, 1)), ("XZ", (1, 1, 0, 0), (0, 0, 0, 0))]
    COUNTED = ("apply_unitary", "residual_norm", "pair_overlaps")

    @pytest.mark.parametrize("kind,extra,calls", [
        ("perturbed", [], (56, 2, 1)),
        ("private", [], (56, 2, 1)),
        ("complex", [], (56, 2, 1)),
        ("perturbed", MULTI, (168, 6, 1)),
        ("private", MULTI, (168, 6, 1)),
        ("complex", MULTI, (168, 6, 1)),
    ], ids=["perturbed", "private", "complex", "perturbed-multi-vertex",
            "private-multi-vertex", "complex-multi-vertex"])
    def test_one_vertex_labels_run_no_kernel_under_any_junk(self, kind, extra, calls,
                                                             monkeypatch):
        graph = triangle_strip(4)
        n = graph.n
        p, params = _provers(kind, graph, np.random.default_rng(43))
        labels = [(h, v) for v in range(n) for h in ("X", "Z", "R+", "R-")]
        labels += [("XZ", unit, unit) for unit in np.eye(n, dtype=int).tolist()]
        counts = dict.fromkeys(self.COUNTED, 0)

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        for name in self.COUNTED:
            monkeypatch.setattr(isometry, name, counted(name, getattr(isometry, name)))
        # zero bounds fail every junk, so both candidates are scored
        monkeypatch.setattr(bounds, "thm2_bound", lambda *a: 0.0)
        monkeypatch.setattr(bounds, "lemma3_bound", lambda *a: 0.0)
        report = equivalence_distance(p, params, labels + extra)
        assert not report.all_satisfied
        # once per report: the identity's head, the circuit's first 2
        # stages of 2 kernels (4), and one pass of pair overlaps from it;
        # the constructed junk's 4 stages of one kernel (4).  In each of the
        # 2 passes, the last 2 stages streamed from that head: its 4 rows
        # one per block (the stage scratch holds 1.5 output rows at n = 4),
        # each through 2 kernels of stage 2 and 2 * 2 of stage 3 (24), and
        # one residual over the stream; so 4 + 4 + 2 * 24 = 56 kernels and
        # 2 residuals.  Per multi-vertex label (two) and pass, its own
        # first 2 stages (4 kernels), a stream of 24 and one residual:
        # 56 + 2 * 2 * 28 = 168 kernels and 2 + 2 * 2 = 6 residuals
        assert tuple(counts[name] for name in self.COUNTED) == calls

    def test_a_report_peaks_below_y_and_a_quarter_of_x(self, monkeypatch):
        # no vector of the output x's size exists: beside the pair overlaps
        # Y, a report's workspace holds the identity's head, a multi-vertex
        # label's and the stage scratch (1/16 of x each), and the rest are
        # junk-sized vectors, under zero bounds (both passes) with
        # multi-vertex labels
        graph = triangle_strip(7)
        n = graph.n
        p, params = _provers("perturbed", graph, np.random.default_rng(43))
        _bound_labels(monkeypatch, dict.fromkeys(map(label_name, _labels(n)), 0.0))
        built = []
        real_junk = isometry.constructed_junk
        monkeypatch.setattr(isometry, "constructed_junk",
                            lambda *a: built.append(1) or real_junk(*a))
        equivalence_distance(p, params, _labels(n))  # fills the memo caches
        tracemalloc.start()
        try:
            report = equivalence_distance(p, params, _labels(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.all_satisfied and len(built) == 2
        x = 8 << (3 * n)
        y = 4 * n * (8 << (2 * n))
        assert peak < y + x // 4

    def test_an_n8_report_peaks_below_one_output_vector(self, monkeypatch):
        # at the 24-qubit default cap the output x is 2^24 float64 amplitudes
        # (128 MiB); a perturbed report with the identity, every one-vertex
        # label and one multi-vertex label holds less than that in all, and
        # an honest report's distances stay at rounding level
        graph = triangle_strip(8)
        n = graph.n
        honest, params = _honest(graph)
        p = perturbed_provers(honest, 0.05, np.random.default_rng(83))
        labels = [parse_label("I")] + _labels(n)[1:4 * n + 1]
        labels.append(parse_label(("XZ", (1, 0) * 4, (0, 1, 1, 0) * 2)))
        tracemalloc.start()
        try:
            report = equivalence_distance(p, params, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << (3 * n)
        assert report.all_satisfied
        honest_report = equivalence_distance(honest, params, labels)
        assert max(r.distance for r in honest_report.labels) < 1e-10


def _apply_pair(amps, w, v, n, m):
    """A 4x4 on vertex v's pair index s_v + 2 a2_v of an output, with s_v at
    bit m-n+2v and a2_v at bit m+n+v, by axis arithmetic."""
    total = m + 2 * n
    axes = (total - 1 - (m + n + v), total - 1 - (m - n + 2 * v))
    t = np.moveaxis(amps.reshape((2,) * total), axes, (0, 1))
    out = np.tensordot(w.reshape(2, 2, 2, 2), t, axes=([2, 3], [0, 1]))
    return np.moveaxis(out, (0, 1), axes).reshape(-1)


def _direct_distances(p, params, labels, junks):
    """Per-source label distances from one circuit run per label."""
    graph = params.graph
    mats = [_direct_matrix(p, l) for l in labels]
    ideals = [_ideal_vector(graph, params, l) for l in labels]
    return {source: [np.linalg.norm(m - np.outer(i, junk))
                     for m, i in zip(mats, ideals)]
            for source, junk in junks(mats, ideals).items()}


def _standard_junks(p, graph):
    """The two junk candidates of a report, built from a direct matrix and
    the term-by-term constructed junk."""
    g_amps = build_graph_state(graph).amplitudes
    raw = np.conj(g_amps) @ _direct_matrix(p, parse_label("I"))
    zs = [p.observable(v, "Z").matrix for v in range(graph.n)]
    built = oracles.constructed_junk(p.shared_state.amplitudes, zs, graph.edges)

    def junks(mats, ideals):
        return {"identity-extraction": raw / np.linalg.norm(raw),
                "constructed": _canonical(built, graph.n,
                                          p.shared_state.n_qubits).reshape(-1)}
    return junks


def _bound_labels(monkeypatch, bound_by_name):
    """Give each label the bound named for it in ``bound_by_name``."""
    real_entry = isometry._label_entry

    def entry(*args):
        *entry, _ = real_entry(*args)
        return (*entry, bound_by_name[label_name(entry[0])])

    monkeypatch.setattr(isometry, "_label_entry", entry)


class TestForcedFallback:
    """Reports whose identity-extraction junk fails a bound, so the label
    matrices are rebuilt for the fallback junks; every returned distance is
    checked against one circuit run per label."""

    ORDER = ["identity-extraction", "constructed"]
    # float64 (perturbed, xz) and complex128 (private, complex) reports
    KINDS = ("perturbed", "xz", "private", "complex")

    @pytest.mark.parametrize("kind", ["perturbed", "xz", "private", "complex"])
    @pytest.mark.parametrize("graph", [complete_graph(3), triangle_strip(4)])
    def test_zero_bounds_pick_the_smallest_worst_distance(self, graph, kind,
                                                          monkeypatch):
        p, params = _provers(kind, graph, np.random.default_rng(43))
        labels = _labels(graph.n)
        direct = _direct_distances(p, params, labels, _standard_junks(p, graph))
        monkeypatch.setattr(bounds, "thm2_bound", lambda *a: 0.0)
        monkeypatch.setattr(bounds, "lemma3_bound", lambda *a: 0.0)
        # nothing satisfies zero bounds: the smallest worst distance wins,
        # the earlier source on a tie
        want = min(self.ORDER,
                   key=lambda src: (max(direct[src]), self.ORDER.index(src)))
        report = equivalence_distance(p, params, labels)
        assert report.junk_source == want
        assert not report.all_satisfied
        got = [r.distance for r in report.labels]
        assert np.allclose(got, direct[want], rtol=0, atol=1e-12)

    def test_a_tie_goes_to_the_earlier_candidate(self, monkeypatch):
        # the constructed junk stands in as a copy of the extracted one, so
        # under zero bounds the two reports tie bit for bit
        graph = triangle_strip(4)
        p, params = _provers("perturbed", graph, np.random.default_rng(43))
        seen = []
        real_norm = isometry.residual_norm

        def norm(blocks, ideal, junk):
            seen.append(junk)
            return real_norm(blocks, ideal, junk)

        monkeypatch.setattr(isometry, "residual_norm", norm)
        monkeypatch.setattr(isometry, "constructed_junk", lambda *a: seen[0].copy())
        monkeypatch.setattr(bounds, "thm2_bound", lambda *a: 0.0)
        monkeypatch.setattr(bounds, "lemma3_bound", lambda *a: 0.0)
        report = equivalence_distance(p, params, _labels(graph.n))
        assert len(seen) > 1 and seen[-1] is not seen[0]
        assert np.array_equal(seen[-1], seen[0])
        assert report.junk_source == "identity-extraction"
        assert not report.all_satisfied

    def test_constructed_junk_wins_when_only_it_fits(self, monkeypatch):
        # the factorization's junk never beats identity-extraction on
        # perturbed provers, so stand in the junk that is optimal for the
        # first label alone and bound only that label tightly
        graph = triangle_strip(4)
        for kind in self.KINDS:
            p, params = _provers(kind, graph, np.random.default_rng(47))
            labels = [parse_label(("X", 1)), parse_label(("R+", 2))]
            fit = (np.conj(_ideal_vector(graph, params, labels[0]))
                   @ _direct_matrix(p, labels[0]))
            fit /= np.linalg.norm(fit)
            if not fit.imag.any():
                # constructed_junk is float64 for real provers; so is its stand-in
                fit = fit.real
            standard = _standard_junks(p, graph)
            direct = _direct_distances(
                p, params, labels,
                lambda mats, ideals: {**standard(mats, ideals), "constructed": fit})
            tight = direct["constructed"][0]
            assert direct["identity-extraction"][0] > tight + 1e-6
            stand_in = _junk_vector(fit.reshape(1 << graph.n, -1), graph.n,
                                    p.shared_state.n_qubits)
            with monkeypatch.context() as mp:
                mp.setattr(isometry, "constructed_junk", lambda *a: stand_in)
                _bound_labels(mp, {"X(1)": tight, "R+(2)": 10.0})
                report = equivalence_distance(p, params, labels)
            assert report.junk_source == "constructed", kind
            got = [r.distance for r in report.labels]
            assert np.allclose(got, direct["constructed"], rtol=0, atol=1e-12), kind


class TestDtype:
    """A report runs in float64 when the shared state and every observable
    it reads are real, and in complex128 otherwise."""

    WANT = {"honest": np.float64, "perturbed": np.float64, "xz": np.float64,
            "private": np.complex128, "complex": np.complex128}

    @pytest.mark.parametrize("kind", sorted(WANT))
    def test_every_vector_of_a_report_takes_the_dtype(self, kind, monkeypatch):
        graph = triangle_strip(4)
        p, params = _provers(kind, graph, np.random.default_rng(53))
        seen = []
        real_unitary, real_junk = isometry.apply_unitary, isometry.constructed_junk

        def unitary(amps, u, qubit, n, out):
            seen.extend((amps.dtype, u.dtype, out.dtype))
            return real_unitary(amps, u, qubit, n, out)

        def junk(*args):
            seen.append(real_junk(*args).dtype)
            return real_junk(*args)

        monkeypatch.setattr(isometry, "apply_unitary", unitary)
        monkeypatch.setattr(isometry, "constructed_junk", junk)
        # zero bounds fail every junk, so the constructed junk is scored too
        monkeypatch.setattr(bounds, "thm2_bound", lambda *a: 0.0)
        monkeypatch.setattr(bounds, "lemma3_bound", lambda *a: 0.0)
        equivalence_distance(p, params, _labels(graph.n))
        assert set(seen) == {np.dtype(self.WANT[kind])}
        assert _phi(p).dtype == self.WANT[kind]

    @pytest.mark.parametrize("kind", sorted(WANT))
    def test_identity_extraction_distances_match_the_dense_oracle(self, kind,
                                                                  monkeypatch):
        graph = triangle_strip(4)
        p, params = _provers(kind, graph, np.random.default_rng(59))
        labels = _labels(graph.n)
        direct = _direct_distances(p, params, labels, _standard_junks(p, graph))
        _bound_labels(monkeypatch, dict.fromkeys(map(label_name, labels), math.inf))
        report = equivalence_distance(p, params, labels)
        assert report.junk_source == "identity-extraction"
        got = [r.distance for r in report.labels]
        assert np.allclose(got, direct["identity-extraction"], rtol=0, atol=1e-12)

    def test_one_complex_label_factor_makes_the_report_complex(self, monkeypatch):
        graph = triangle_strip(4)
        p, params = _provers("perturbed", graph, np.random.default_rng(61))
        y = np.array([[0, -1j], [1j, 0]])
        real_entry = isometry._label_entry

        def entry(p, params, label, *rest):
            out = real_entry(p, params, label, *rest)
            if label == ("X", 2):
                return (out[0], {2: y}) + out[2:]
            return out

        seen = []
        real_unitary = isometry.apply_unitary

        def unitary(amps, u, qubit, n, out):
            seen.append(out.dtype)
            return real_unitary(amps, u, qubit, n, out)

        monkeypatch.setattr(isometry, "_label_entry", entry)
        monkeypatch.setattr(isometry, "apply_unitary", unitary)
        equivalence_distance(p, params, ["I", ("X", 2)])
        assert set(seen) == {np.dtype(np.complex128)}


class TestRelabeling:
    """Renaming the vertices renames everything a run reads (graph, cover,
    angles, partner choice, shared state, labels, pattern) and changes no
    number: the exact pass probability, epsilon, every isometry distance
    and the pattern law stay equal.  The output layout orders its registers
    by vertex, so a slip in its index arithmetic shows up here."""

    GRAPHS = {"strip5": triangle_strip(5), "lattice2x3": triangular_lattice(2, 3)}

    @staticmethod
    def _case(graph, rng):
        """xz provers on a noisy |G>, the default parameters at random
        angles, every one-vertex label and three random XZ labels, and a
        three-step adaptive pattern."""
        n = graph.n
        params = default_parameters(graph, theta=rng.uniform(0.2, 1.3, size=n).tolist())
        vec = build_graph_state(graph).amplitudes + 0.1 * rng.normal(size=1 << n)
        angles = [{"X": rng.normal(0, 0.1), "Z": math.pi / 2 + rng.normal(0, 0.1),
                   "R+": params.theta[v] + rng.normal(0, 0.1),
                   "R-": -params.theta[v] + rng.normal(0, 0.1)} for v in range(n)]
        labels = [(h, v) for v in range(n) for h in ("X", "Z", "R+", "R-")]
        labels += [("XZ", *(tuple(int(b) for b in row) for row in rng.integers(0, 2, (2, n))))
                   for _ in range(3)]
        pattern = MeasurementPattern(
            (PatternStep(0, 0.3), PatternStep(2, 0.7, x_deps=(0,)),
             PatternStep(1, 0.5, x_deps=(2,), z_deps=(0,))), output_bits=(0, 1))
        return params, vec / np.linalg.norm(vec), angles, labels, pattern

    @staticmethod
    def _relabel(pi, graph, params, vec, angles, labels, pattern):
        """Every input with vertex v renamed pi[v]."""
        n = graph.n
        new = Graph.from_edges(n, [(pi[u], pi[v]) for u, v in graph.edges])
        inverse = np.argsort(pi)

        def moved(seq):
            return tuple(seq[inverse[w]] for w in range(n))

        cover = TriangleCover(tuple(np.array(moved(tau), dtype=tau.dtype)
                                    for tau in params.cover.triangles))
        new_params = selftest.TestParameters(new, cover, moved(params.theta),
                                    moved([pi[u] for u in params.u_choice]))
        # qubit v of the state becomes qubit pi[v]: axis n-1-v moves to n-1-pi[v]
        tensor = vec.reshape((2,) * n)
        new_vec = np.moveaxis(tensor, [n - 1 - v for v in range(n)],
                              [n - 1 - pi[v] for v in range(n)]).reshape(-1)
        new_labels = [("XZ", moved(l[1]), moved(l[2])) if l[0] == "XZ" else (l[0], pi[l[1]])
                      for l in labels]
        new_pattern = MeasurementPattern(
            tuple(PatternStep(pi[s.vertex], s.theta, tuple(pi[d] for d in s.x_deps),
                              tuple(pi[d] for d in s.z_deps)) for s in pattern.steps),
            tuple(pi[b] for b in pattern.output_bits))
        return new_params, new_vec, list(moved(angles)), new_labels, new_pattern

    @staticmethod
    def _numbers(params, vec, angles, labels, pattern):
        p = xz_plane_provers(StateVector(params.graph.n, vec), angles)
        report = equivalence_distance(p, params, labels)
        return (exact_pass_probability(p, params), report.epsilon,
                [r.distance for r in report.labels], run_distribution(p, pattern)[1])

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_renaming_the_vertices_changes_no_number(self, name, data):
        graph = self.GRAPHS[name]
        pi = data.draw(st.permutations(range(graph.n)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        case = self._case(graph, np.random.default_rng(seed))
        want = self._numbers(*case)
        got = self._numbers(*self._relabel(pi, graph, *case))
        assert abs(got[0] - want[0]) <= 1e-13
        assert abs(got[1] - want[1]) <= 1e-13
        assert np.abs(np.subtract(got[2], want[2])).max() <= 1e-13
        assert abs(got[3] - want[3]) <= 1e-13


GOLDEN = Path(__file__).with_name("isometry_golden.json")


def _golden_case(name):
    """The prover set, parameters and labels of one pinned report."""
    if name == "perturbed-n7":
        graph = triangle_strip(7)
        rng = np.random.default_rng(6007)
        honest, params = _honest(graph)
        p = perturbed_provers(honest, 0.06, rng)
    else:
        graph = triangle_strip(4)
        rng = np.random.default_rng(6004)
        p = _private_qubit_provers(graph, rng)
        params = default_parameters(graph, theta=math.pi / 4)
    n = graph.n
    labels = ["I"] + [(h, v) for v in range(n) for h in ("X", "Z", "R+", "R-")]
    for _ in range(3):
        q, z = rng.integers(0, 2, size=(2, n))
        labels.append(("XZ", tuple(int(b) for b in q), tuple(int(b) for b in z)))
    return p, params, labels


class TestGoldenReports:
    """Reports pinned from the grouped-layout implementation: distances
    to 1e-13, and epsilon, bounds and junk source exactly.  perturbed-n7's
    epsilon and bounds were regenerated when real states and observables
    moved to float64: epsilon's inner products sum in another order
    (1.1e-16) and the bounds amplify it (at most 4e-14).  Summing the
    residual one graph-register slice at a time moved perturbed-n7's
    distances by at most 1.4e-15 and private-n4's by 4.4e-16, inside the
    1e-13, so nothing here was regenerated for it.  Summing the identity
    overlap one slice at a time moved them by at most 2.8e-17
    and 2.2e-16, and nothing was regenerated either.  Taking the one-vertex
    labels from pair blocks (``pair_overlaps``) moved them by at most
    9.7e-17 and 6.7e-16, and nothing was regenerated.  Streaming the last
    two stages from the head the stages before them write (Y from that
    head, the pair blocks on views of Y) moved perturbed-n7's distances by
    at most 5.6e-17 and private-n4's by 2.2e-16, and nothing was
    regenerated."""

    @pytest.mark.parametrize("name", ["perturbed-n7", "private-n4"])
    def test_report_matches_the_pinned_values(self, name):
        want = json.loads(GOLDEN.read_text())[name]
        report = equivalence_distance(*_golden_case(name))
        assert report.epsilon == want["epsilon"]
        assert report.junk_source == want["junk_source"]
        assert [r.label for r in report.labels] == want["labels"]
        assert [r.bound for r in report.labels] == want["bounds"]
        got = np.array([r.distance for r in report.labels])
        assert np.abs(got - want["distances"]).max() <= 1e-13
