"""State-vector kernels cross-checked against dense Kronecker oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact.graphs import Graph, complete_graph, triangular_lattice
from artifact.graphstate import build_graph_state
from artifact.provers import QUERY_LABELS, QuantumStrategy
from artifact.statevec import (GEMM_MIN_AMPS, HADAMARD, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z,
                               ImaginaryResidueError,
                               NormUnderflowError, ProductObservable, QubitCapError,
                               SingleQubitObservable, StateVector,
                               apply_single, apply_unitary, expectation, measure,
                               project, qubit_cap, rotation_matrix)


def random_state(n, rng):
    vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, vec / np.linalg.norm(vec))


def plus(n):
    """|+>^n."""
    return StateVector(n, np.full(2 ** n, 2 ** (-n / 2)))


def random_2x2(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


class TestKernelsAgainstDense:
    def test_apply_single_matches_kron(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4, 5):
            for q in range(n):
                state = random_state(n, rng)
                m = random_2x2(rng)
                fast = apply_single(state.amplitudes, m, q, n)
                slow = oracles.dense_apply(state.amplitudes, m, q, n)
                assert np.allclose(fast, slow, atol=1e-12)

    def test_apply_single_is_the_moveaxis_matmul_bit_for_bit(self):
        # sampled rows depend on every amplitude; the one-gemm kernel must
        # give exactly the per-block matmul that np.moveaxis sets up.  At
        # n = 16 OpenBLAS may split the gemm across threads.
        rng = np.random.default_rng(11)
        for n in (1, 3, 12, 16):
            for q in range(n):
                real = rng.normal(size=2 ** n)
                for amps in (random_state(n, rng).amplitudes, real / np.linalg.norm(real)):
                    for m in (random_2x2(rng), rotation_matrix(0.3 + q)):
                        t = np.moveaxis(amps.reshape([2] * n), n - 1 - q, -1) @ m.T
                        moved = np.moveaxis(t, -1, n - 1 - q).reshape(-1)
                        assert np.array_equal(apply_single(amps, m, q, n), moved)

    def test_real_kernel_is_the_moveaxis_matmul_bit_for_bit(self):
        # float64 operands on qubit >= 1 take the copy-free broadcast form;
        # it must give the moveaxis bits for every real matrix the package
        # applies: Paulis, H, X-Z rotations, X.Z and (I +- M), halved or not
        rng = np.random.default_rng(29)
        r = rotation_matrix(0.7)
        matrices = (PAULI_X, PAULI_Z, HADAMARD, PAULI_X @ PAULI_Z,
                    rotation_matrix(0.3), rotation_matrix(-2.2),
                    PAULI_I + r, PAULI_I - r, (PAULI_I + r) / 2, (PAULI_I - r) / 2)
        for n, qubits in ((2, range(2)), (12, range(12)), (16, range(16)),
                          (21, (1, 20))):
            amps = rng.normal(size=2 ** n)
            amps /= np.linalg.norm(amps)
            for q in qubits:
                for m in matrices:
                    t = np.moveaxis(amps.reshape([2] * n), n - 1 - q, -1) @ m.T
                    moved = np.moveaxis(t, -1, n - 1 - q).reshape(-1)
                    out = apply_single(amps, m, q, n)
                    assert out.dtype == np.float64
                    assert np.array_equal(out, moved), (n, q)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_row_view_gemm_is_the_moveaxis_matmul_bit_for_bit(self, seed):
        # float64 operands on qubits 0-3 of at least GEMM_MIN_AMPS amplitudes
        # take the row-view gemm, for a 2x2 matrix and for the 1x2 eigen-row
        # that measure applies; below that (n = 4..8) the other two forms
        # keep these bits for a 2x2 matrix (a row there is the same two-term
        # sum, which the broadcast form may round differently)
        rng = np.random.default_rng(seed)
        for n in (*range(4, 15), 21):
            amps = rng.normal(size=2 ** n)
            for q in range(4):
                row = SingleQubitObservable.rotation(rng.uniform(-math.pi, math.pi)).rows[-1]
                gemm = 2 ** n >= GEMM_MIN_AMPS
                for m in (rng.normal(size=(2, 2)), row)[:1 + gemm]:
                    t = np.moveaxis(amps.reshape([2] * n), n - 1 - q, -1) @ m.T
                    moved = np.moveaxis(t, -1, n - 1 - q).reshape(-1)
                    out = apply_single(amps, m, q, n)
                    assert out.dtype == np.float64
                    assert np.array_equal(out, moved), (n, q, len(m))

    def test_adjacent_pair_kernel_matches_index_arithmetic(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 12):
            idx = np.arange(2 ** n)
            for q in range(n - 1):
                amps = random_state(n, rng).amplitudes
                raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                u = np.linalg.qr(raw)[0]
                # bit q is the low bit of the 4x4 index, bit q+1 the high
                col = (((idx >> (q + 1)) & 1) << 1) | ((idx >> q) & 1)
                base = idx & ~(3 << q)
                slow = np.zeros_like(amps)
                for row in range(4):
                    np.add.at(slow, base | (row << q), u[row, col] * amps)
                out = np.empty_like(amps)
                assert apply_unitary(amps, u, q, n, out) is out
                assert np.abs(out - slow).max() < 1e-14

    def test_apply_unitary_rejects_bad_pairs_and_shapes(self):
        amps = random_state(3, np.random.default_rng(5)).amplitudes
        out = np.empty_like(amps)
        with pytest.raises(IndexError):
            apply_unitary(amps, np.eye(4, dtype=complex), 2, 3, out)
        with pytest.raises(IndexError):
            apply_unitary(amps, np.eye(4, dtype=complex), -1, 3, out)
        with pytest.raises(ValueError):
            apply_unitary(amps, np.eye(8, dtype=complex), 0, 3, out)

    def test_expectation_matches_dense(self):
        rng = np.random.default_rng(4)
        state = random_state(3, rng)
        obs = ProductObservable({0: oracles.X, 2: oracles.Z}, sign=-1)
        fast = expectation(state, obs)
        slow = oracles.dense_expectation(state.amplitudes,
                                         {0: oracles.X, 2: oracles.Z}, 3,
                                         sign=-1)
        assert abs(fast - slow.real) < 1e-12 and abs(slow.imag) < 1e-12


class TestStateVector:
    def test_plus_state(self):
        sv = build_graph_state(Graph.from_edges(3, []))
        assert sv.amplitudes.dtype == np.float64
        assert np.allclose(sv.amplitudes, np.full(8, 8 ** -0.5))
        assert np.array_equal(sv.amplitudes, plus(3).amplitudes)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[math.nan, 0], [math.inf, 0], [1, complex(0, math.nan)]],
                             ids=["nan", "inf", "nan-imaginary"])
    def test_rejects_amplitudes_that_are_not_finite(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array(amps))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3) / math.sqrt(3))

    def test_qubit_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("GSIP_QUBIT_CAP", "3")
        assert qubit_cap() == 3
        with pytest.raises(QubitCapError):
            StateVector(4, np.full(16, 0.25))

    def test_distance_and_inner(self):
        rng = np.random.default_rng(5)
        a, b = random_state(2, rng), random_state(2, rng)
        gram = abs(a.inner(b)) ** 2
        assert 0 <= gram <= 1 + 1e-12
        assert math.isclose(a.inner(a).real, 1.0, abs_tol=1e-12)


class TestObservables:
    def test_rotation_matrix_convention(self):
        # R(theta) = cos(theta) X + sin(theta) Z
        theta = 0.3
        assert np.allclose(rotation_matrix(theta),
                           math.cos(theta) * oracles.X
                           + math.sin(theta) * oracles.Z)

    def test_rotation_extremes(self):
        assert np.allclose(rotation_matrix(0), oracles.X)
        assert np.allclose(rotation_matrix(math.pi / 2), oracles.Z, atol=1e-15)

    def test_single_qubit_rejects_non_involution(self):
        with pytest.raises(ValueError):
            SingleQubitObservable("bad", np.array([[1, 0], [0, 0.5]],
                                                  dtype=complex))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_qubit_refuses_plus_minus_identity(self, sign):
        # a Hermitian involution, but its projectors have rank 2 and 0: a
        # measurement of it has no eigen-row to take its qubit out with
        with pytest.raises(ValueError, match=r"observable I is \+-I, which has no eigen-row"):
            SingleQubitObservable("I", sign * PAULI_I)

    def test_single_qubit_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            SingleQubitObservable("bad", np.array([[0, 1], [0, 0]],
                                                  dtype=complex))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("value", [math.nan, complex(0, math.nan)], ids=["nan", "nan-imaginary"])
    def test_single_qubit_refuses_a_nan_entry(self, entry, value):
        m = PAULI_X.astype(complex)
        m[entry] = value
        with pytest.raises(ValueError, match="not Hermitian"):
            SingleQubitObservable("bad", m)

    def test_single_qubit_complex_hermitian_cases(self):
        # Y and an X-Y rotation are complex Hermitian involutions; iX squares
        # to -I and is anti-Hermitian, and a phase on Y's off-diagonal breaks
        # its Hermiticity
        for m in (PAULI_Y, oracles.rotation_xy(0.7)):
            assert np.array_equal(SingleQubitObservable("ok", m).matrix, m)
        with pytest.raises(ValueError, match="not Hermitian"):
            SingleQubitObservable("bad", 1j * PAULI_X)
        with pytest.raises(ValueError, match="not Hermitian"):
            SingleQubitObservable("bad", np.array([[0, -1j], [-1j, 0]]))
        with pytest.raises(ValueError, match="does not square to identity"):
            SingleQubitObservable("bad", 1.5 * PAULI_Y)

    def test_single_qubit_checks_agree_with_numpy(self):
        # the checks as numpy expressions: the scalar ones must refuse the
        # same matrices, with the same message, away from the tolerances
        def numpy_refusal(m):
            m = np.asarray(m)
            if not np.abs(m - m.conj().T).max() <= 1e-12:
                return "not Hermitian"
            if not np.abs(m @ m - PAULI_I).max() <= 1e-10:
                return "does not square to identity"
            if abs(m[0, 0] + m[1, 1]) > 1:
                return "no eigen-row"
            return None

        rng = np.random.default_rng(23)
        for i in range(400):
            base = [PAULI_X, PAULI_Z, PAULI_I, rotation_matrix(rng.uniform(0, 7)),
                    oracles.rotation_xy(rng.uniform(0, 7))][i % 5]
            scale = [0.0, 1e-15, 1e-6][i // 5 % 3]
            m = base + scale * random_2x2(rng)
            want = numpy_refusal(m)
            if want is None:
                SingleQubitObservable("M", m)
            else:
                with pytest.raises(ValueError, match=want):
                    SingleQubitObservable("M", m)

    def test_observables_compare_and_hash_by_identity(self):
        r, other = SingleQubitObservable.rotation(0.5), SingleQubitObservable.rotation(0.5)
        assert r == r and r != other
        assert hash(r) == hash(r) and len({r, other}) == 2
        # X and Z are immutable, so one instance of each serves every caller
        assert SingleQubitObservable.x() is SingleQubitObservable.x()
        assert SingleQubitObservable.z() is SingleQubitObservable.z()

        def strategy():
            observables = (SingleQubitObservable.x(), SingleQubitObservable.z(),
                           SingleQubitObservable.rotation(0.5),
                           SingleQubitObservable.rotation(-0.5))
            return QuantumStrategy((dict(zip(QUERY_LABELS, observables)),))

        # equal but distinct observables: the strategies differ, and say so
        a = strategy()
        assert a == a and a != strategy()

    def test_product_observable_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            ProductObservable({0: oracles.X}, sign=2)

    def test_product_observable_accepts_xz_terms(self):
        # non-Hermitian per-qubit terms are allowed; X Z = -iY
        obs = ProductObservable({0: oracles.X @ oracles.Z})
        state = plus(1)
        applied = obs.apply(state)
        assert np.allclose(applied.amplitudes,
                           (oracles.X @ oracles.Z) @ state.amplitudes)

    def test_expectation_raises_on_imaginary(self):
        # <psi| XZ |psi> = -i <Y> is purely imaginary on a Y eigenstate
        plus_i = StateVector(1, np.array([1, 1j]) / math.sqrt(2))
        obs = ProductObservable({0: oracles.X @ oracles.Z})
        with pytest.raises(ImaginaryResidueError):
            expectation(plus_i, obs)

    def test_expectation_range_check(self):
        state = plus(2)
        with pytest.raises(IndexError):
            expectation(state, ProductObservable({5: oracles.X}))


class TestMeasurementLaw:
    @given(st.integers(0, 10 ** 6), st.floats(0, math.pi / 2))
    @settings(max_examples=40, deadline=None)
    def test_born_probabilities_sum_to_one(self, seed, theta):
        rng = np.random.default_rng(seed)
        state = random_state(3, rng)
        obs = SingleQubitObservable.rotation(theta)
        p_plus, _ = project(state, obs, 1, 1)
        p_minus, _ = project(state, obs, 1, -1)
        assert math.isclose(p_plus + p_minus, 1.0, abs_tol=1e-10)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_expectation_equals_probability_gap(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(2, rng)
        obs = SingleQubitObservable.x()
        p_plus, _ = project(state, obs, 0, 1)
        p_minus, _ = project(state, obs, 0, -1)
        exp = expectation(state, ProductObservable({0: obs.matrix}))
        assert math.isclose(exp, p_plus - p_minus, abs_tol=1e-10)

    def test_projected_state_is_normalized_eigenstate(self):
        rng = np.random.default_rng(6)
        state = random_state(3, rng)
        for obs in (SingleQubitObservable.z(), SingleQubitObservable.rotation(0.7)):
            p, branch = project(state, obs, 2, -1)
            assert p > 0 and branch.n_qubits == 2
            assert math.isclose(np.linalg.norm(branch.amplitudes), 1.0, abs_tol=1e-12)
            # qubit 2 is the highest, so the collapsed state is e_- (x) branch
            eigvec = obs.rows[-1].conj().ravel()
            collapsed = np.kron(eigvec, branch.amplitudes)
            again = apply_single(collapsed, obs.matrix, 2, 3)
            assert np.allclose(again, -collapsed, atol=1e-12)

    def test_impossible_projection_returns_none(self):
        state = StateVector(1, np.array([1, 0], dtype=complex))
        p, collapsed = project(state, SingleQubitObservable.z(), 0, -1)
        assert p == 0.0 and collapsed is None

    @given(st.integers(0, 10 ** 6), st.floats(-math.pi, math.pi), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_measure_is_project_bit_for_bit(self, seed, theta, qubit):
        rng = np.random.default_rng(seed)
        state = random_state(4, rng)
        obs = SingleQubitObservable.rotation(theta)
        outcome, collapsed, p_plus = measure(state, obs, qubit, rng)
        assert p_plus == project(state, obs, qubit, 1)[0]
        assert np.array_equal(collapsed.amplitudes,
                              project(state, obs, qubit, outcome)[1].amplitudes)

    @pytest.mark.parametrize("matrix", [rotation_matrix(0.7), rotation_matrix(-2.4), PAULI_Z,
                                        oracles.rotation_xy(0.7), PAULI_Y,
                                        math.cos(0.3) * rotation_matrix(1.1)
                                        + math.sin(0.3) * PAULI_Y],
                             ids=["xz-0.7", "xz--2.4", "Z", "xy-0.7", "Y", "tilted"])
    def test_branch_matches_the_dense_projector_oracle(self, matrix):
        # the (n - 1)-qubit branch and its probability against the full 2^n
        # projector with the qubit contracted by einsum, up to the phase of
        # the oracle's eigenvector
        rng = np.random.default_rng(31)
        obs = SingleQubitObservable("M", matrix)
        for n in (1, 2, 4, 6):
            real = rng.normal(size=2 ** n)
            for state in (random_state(n, rng), StateVector(n, real / np.linalg.norm(real))):
                amps = state.amplitudes.astype(complex)
                for qubit in range(n):
                    for outcome in (1, -1):
                        p_dense, dense = oracles.dense_branch(amps, matrix, qubit, n, outcome)
                        p, branch = project(state, obs, qubit, outcome)
                        assert branch.n_qubits == n - 1
                        assert abs(p - p_dense) <= 1e-15
                        phase = np.vdot(dense, branch.amplitudes)
                        aligned = dense * phase / abs(phase)
                        assert np.abs(branch.amplitudes - aligned).max() <= 1e-15
                    drawn, branch, p_plus = measure(state, obs, qubit, rng)
                    assert abs(p_plus - oracles.dense_branch(amps, matrix, qubit, n, 1)[0]) <= 1e-15
                    assert np.array_equal(branch.amplitudes,
                                          project(state, obs, qubit, drawn)[1].amplitudes)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_collapse_leaves_its_input_untouched(self, dtype):
        # measure and project write the branch into the kernel's output; the
        # input may be read-only, as a prover set's shared state is
        real = build_graph_state(triangular_lattice(3, 4)).amplitudes
        amps = real.astype(dtype)
        amps.setflags(write=False)
        state = StateVector(12, amps, _validate=False)
        before = amps.copy()
        rng = np.random.default_rng(4)
        for qubit in (0, 1, 6, 11):
            obs = SingleQubitObservable.rotation(0.4 + qubit)
            collapsed = [measure(state, obs, qubit, rng)[1]]
            collapsed += [project(state, obs, qubit, o)[1] for o in (1, -1)]
            for c in collapsed:
                assert c.amplitudes.dtype == amps.dtype
                assert not np.shares_memory(c.amplitudes, amps)
        assert np.array_equal(amps, before)

    def test_measure_statistics(self):
        rng = np.random.default_rng(7)
        state = plus(1)
        hits = sum(measure(state, SingleQubitObservable.z(), 0, rng)[0] == 1
                   for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.05

    def test_measure_impossible_branch_raises(self):
        state = StateVector(1, np.array([1, 0], dtype=complex))

        class ForcedRng:
            def random(self):
                return 2.0  # forces the minus branch, which has p = 0

        with pytest.raises(NormUnderflowError):
            measure(state, SingleQubitObservable.z(), 0, ForcedRng())


class TestDtypeRule:
    """Exactly real inputs are held in float64; complex ones promote."""

    def test_constructors_narrow_exactly_real_input(self):
        assert StateVector(1, np.array([1, 0], dtype=complex)).amplitudes.dtype == np.float64
        assert StateVector(1, np.array([1, 1j]) / math.sqrt(2)).amplitudes.dtype == np.complex128
        assert SingleQubitObservable("X", PAULI_X.astype(complex)).matrix.dtype == np.float64
        assert SingleQubitObservable("Y", PAULI_Y).matrix.dtype == np.complex128
        terms = ProductObservable({0: PAULI_X.astype(complex), 1: PAULI_Y}).terms
        assert (terms[0].dtype, terms[1].dtype) == (np.float64, np.complex128)
        for m in (PAULI_X, PAULI_Z, rotation_matrix(0.3)):
            assert m.dtype == np.float64
        assert build_graph_state(complete_graph(3)).amplitudes.dtype == np.float64

    def test_float64_apply_single_is_the_complex_kernels_real_part(self):
        rng = np.random.default_rng(19)
        for n in range(1, 17):
            for q in range(n):
                amps = rng.normal(size=2 ** n)
                amps /= np.linalg.norm(amps)
                for m in (PAULI_X, PAULI_Z, rotation_matrix(0.3 + q),
                          rotation_matrix(-1.1 * n)):
                    real = apply_single(amps, m, q, n)
                    full = apply_single(amps.astype(complex), m.astype(complex), q, n)
                    assert real.dtype == np.float64
                    assert not full.imag.any()
                    assert np.array_equal(real, full.real), (n, q)

    @pytest.mark.parametrize("matrix,real_result", [(PAULI_Y, np.complex128),
                                                    (oracles.rotation_xy(0.7), np.complex128),
                                                    (rotation_matrix(0.7), np.float64)],
                             ids=["Y", "rotation-xy", "rotation-xz"])
    def test_measure_is_project_bit_for_bit_on_both_dtypes(self, matrix, real_result):
        real = build_graph_state(triangular_lattice(2, 3))
        twin = StateVector(real.n_qubits, real.amplitudes.astype(complex), _validate=False)
        obs = SingleQubitObservable("M", matrix)
        for state, dtype in ((real, real_result), (twin, np.complex128)):
            for qubit in range(state.n_qubits):
                outcome, collapsed, p_plus = measure(state, obs, qubit,
                                                     np.random.default_rng(qubit))
                assert p_plus == project(state, obs, qubit, 1)[0]
                projected = project(state, obs, qubit, outcome)[1]
                assert np.array_equal(collapsed.amplitudes, projected.amplitudes)
                assert collapsed.amplitudes.dtype == projected.amplitudes.dtype == dtype
