"""Dense state-vector simulator, real where the values are real.

Qubit ordering is little-endian throughout the package: qubit 0 is the
least significant bit of a basis index.  Gates are applied to views of
the vector, never by building the full 2^n x 2^n matrix.  A single-qubit
matrix takes one of three forms, chosen from the operands' dtype, the
qubit and the vector's length, each the fastest where it runs:

* float64 operands, qubit <= 3, at least ``GEMM_MIN_AMPS`` amplitudes:
  one gemm of the (2^(n-q-1), 2^(q+1)) row view by (m (x) I_{2^q})^T,
  a matrix of at most 16 columns.  numpy would run the broadcast form
  below at qubit 1 as 2^(n-2) separate 2x2 products, and read ``m.T``
  non-contiguously at qubit 0;
* float64 operands on any other qubit >= 1: one broadcast matmul over
  the (hi, 2, lo) view, with no copies;
* qubit 0 of a short float64 vector, and every complex operand: one gemm
  over the contiguous amplitude pairs, the form that keeps the same bits
  there.

For a 2x2 matrix all three give the same bits: each amplitude adds the
same two products, and the row-view gemm's other terms are exact zeros.
A 1x2 row in the broadcast form may round that sum differently, which
nothing compares against: ``measure`` and ``project`` take the same form.
A matrix on one qubit or an adjacent pair that changes the vector's size
(the swap isometry's 4x2 stages) is one broadcast matmul too.

A measured qubit leaves the state, as in the one-way model (Raussendorf
and Briegel, quant-ph/0010033): ``measure`` and ``project`` return the
normalized branch <e_s| psi on the other n - 1 qubits, e_s the outcome's
eigenvector, which ``SingleQubitObservable`` holds as its eigen-row.  The
collapsed n-qubit state is e_s (x) that branch, so nothing is lost.  They
run the single-qubit kernel with the 1x2 row, one ``vdot`` and one scale,
and never write to their input.

Dtype.  This module is the one place where a dtype is decided.  A
``StateVector``, ``SingleQubitObservable`` or ``ProductObservable`` holds
float64 when every value it is built from has imaginary part exactly 0,
and complex128 otherwise; the validated constructors narrow their input,
and nothing else does.  Every kernel (``apply_single``, ``apply_unitary``,
``measure``, ``project``, ``expectation``) keeps numpy's result type, so a
complex operand promotes the result and real operands stay real.  The
protocol's observables (X, Z and R(theta) = cos(theta) X + sin(theta) Z)
lie in the X-Z plane and |G> has real amplitudes, so honest, perturbed
and X-Z-plane provers, their sampled runs, exact laws and isometry
reports all run in float64, which moves half the bytes of complex128; Y,
X-Y-plane rotations and complex states promote.  An isometry report runs
in one dtype, the result type of the shared state and every observable
matrix it reads (X'_v and Z'_v of the vertex circuits, each label's
prover factors); |G> and the ideal vectors M|G> are real.  A float64
kernel gives the real part of the complex kernel's result bit for bit;
only inner products (``np.vdot``) sum in another order and move by an
ulp.

Tolerances are centralized here: states must be normalized to
``NORM_TOL``; observables must be Hermitian to ``HERM_TOL``; a measurement
branch whose Born probability is below ``MIN_BRANCH_P`` is impossible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORM_TOL = 1e-10
HERM_TOL = 1e-12
MIN_BRANCH_P = 1e-24

QUBIT_CAP_ENV = "GSIP_QUBIT_CAP"
DEFAULT_QUBIT_CAP = 24

# below this length building (m (x) I)^T, about 1 us, costs more than the
# row-view gemm saves: timed per qubit on 3 to 12 qubits, the two break even
# near 2^9 amplitudes.  The view then has at least 32 rows.
GEMM_MIN_AMPS = 512

SQRT2_INV = 1 / math.sqrt(2)
_FLOAT64 = np.dtype(float)

PAULI_I = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT2_INV
# I_{2^q} laid out to broadcast against m.T as (2, 1, r, 1), for q <= 3
_EYES = tuple(np.eye(1 << q).reshape(1, 1 << q, 1, 1 << q) for q in range(4))


class QubitCapError(ValueError):
    pass


class ImaginaryResidueError(ValueError):
    pass


class NormUnderflowError(ValueError):
    pass


def qubit_cap() -> int:
    """The largest qubit count a state may have: ``GSIP_QUBIT_CAP`` when set,
    read as a decimal integer of at least 1, else ``DEFAULT_QUBIT_CAP``."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if not raw:
        return DEFAULT_QUBIT_CAP
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"{QUBIT_CAP_ENV} must be an integer of at least 1, got {raw!r}")
    return int(raw)


def check_qubit_count(n_qubits: int) -> None:
    """Refuse more qubits than ``qubit_cap()``, before 2^n amplitudes exist."""
    if n_qubits > (cap := qubit_cap()):
        raise QubitCapError(f"{n_qubits} qubits exceeds cap {cap} (override with {QUBIT_CAP_ENV})")


def _exact_dtype(a) -> np.ndarray:
    """``a`` as float64 when its imaginary parts are exactly 0, else as
    complex128: the module's one dtype rule."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real, dtype=float)


def rotation_matrix(theta: float) -> np.ndarray:
    """R(theta) = cos(theta) X + sin(theta) Z, the protocol's X-Z plane."""
    return math.cos(theta) * PAULI_X + math.sin(theta) * PAULI_Z


def _eigen_rows(m: np.ndarray) -> np.ndarray:
    """The 2x2 matrix whose rows are the bras <e_+| and <e_-| of the +1 and
    -1 eigenvectors of a traceless Hermitian involution m.

    P_s = (I + s m)/2 is e_s e_s^dagger, so its row c over sqrt(P_s[c, c])
    is <e_s| up to a phase.  P_+ takes the row c of its larger diagonal
    entry (at least 1/2), and P_- = I - P_+ the other row, whose diagonal
    entry is the same.  In Python scalars: numpy would spend more on calls
    than on the eight numbers.
    """
    (m00, m01), (m10, m11) = m.tolist()
    # plus and minus are those rows of 2 P_+ and 2 P_-, and d = 2 P_+[c, c]
    if m11.real > m00.real:
        plus, minus, d = [m10, 1 + m11], [1 - m00, -m01], 1 + m11
    else:
        plus, minus, d = [1 + m00, m01], [-m10, 1 - m11], 1 + m00
    return np.array([plus, minus]) / math.sqrt(2 * d.real)


@dataclass(frozen=True, eq=False)
class SingleQubitObservable:
    """A 2x2 Hermitian involution with eigenvalues +1 and -1.

    +-I is refused: its projectors have rank 2 and 0, so it has no
    eigen-row (``rows``).  Compares and hashes by identity: a generated
    ``==`` over the ndarray ``matrix`` would raise instead of answering.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        m = _exact_dtype(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (2, 2):
            raise ValueError("single-qubit observables are 2x2")
        # in Python scalars, like _eigen_rows; all(... <= tol), so that a
        # NaN entry fails the checks
        (m00, m01), (m10, m11) = m.tolist()
        if not all(abs(d) <= HERM_TOL for d in (m00 - m00.conjugate(), m11 - m11.conjugate(),
                                                m01 - m10.conjugate())):
            raise ValueError("observable is not Hermitian")
        if not all(abs(d) <= 1e-10 for d in (m00 * m00 + m01 * m10 - 1, m00 * m01 + m01 * m11,
                                             m10 * m00 + m11 * m10, m10 * m01 + m11 * m11 - 1)):
            raise ValueError("observable does not square to identity")
        # an involution's trace is -2, 0 or 2
        if abs(m00 + m11) > 1:
            raise ValueError(f"observable {self.kind} is +-I, which has no eigen-row")
        m.setflags(write=False)

    @cached_property
    def rows(self) -> dict:
        """{s: <e_s|}, the 1x2 eigen-row of each outcome s, with which
        ``measure`` and ``project`` take the qubit out of the state.  Built
        on first use: a prover set that is never measured (an isometry
        report's) holds none."""
        rows = _eigen_rows(self.matrix)
        rows.setflags(write=False)
        return {1: rows[:1], -1: rows[1:]}

    @staticmethod
    def x() -> "SingleQubitObservable":
        """The one X observable: it is immutable, so every caller shares it."""
        return _X

    @staticmethod
    def z() -> "SingleQubitObservable":
        """The one Z observable, shared like ``x()``."""
        return _Z

    @staticmethod
    def rotation(theta: float) -> "SingleQubitObservable":
        return SingleQubitObservable(f"R({theta:.6g})", rotation_matrix(theta))


_X = SingleQubitObservable("X", PAULI_X.copy())
_Z = SingleQubitObservable("Z", PAULI_Z.copy())


class ProductObservable:
    """Tensor product of per-qubit 2x2 operators with a +-1 prefactor.

    ``terms`` maps qubit -> 2x2 matrix; unassigned qubits act as identity.
    The per-qubit matrices need not be Hermitian (Pauli labels X^q Z^p put
    XZ on a qubit), but ``expectation`` insists the result is real.
    """

    def __init__(self, terms: dict, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        cleaned = {}
        for q, m in terms.items():
            m = _exact_dtype(m)
            if m.shape != (2, 2):
                raise ValueError("terms must be 2x2 matrices")
            if int(q) in cleaned:
                raise ValueError(f"duplicate term for qubit {q}")
            cleaned[int(q)] = m
        self.terms = cleaned
        self.sign = sign

    def apply(self, state: "StateVector") -> "StateVector":
        """M |psi> as a raw (possibly unnormalized) vector wrapper."""
        amps = state.amplitudes
        for q, m in self.terms.items():
            amps = apply_single(amps, m, q, state.n_qubits)
        if self.sign < 0:
            amps = -amps
        return StateVector(state.n_qubits, amps, _validate=False)


class StateVector:
    """Normalized dense amplitudes over ``n_qubits`` little-endian qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray, _validate: bool = True):
        # _validate=False wraps a kernel's result, derived from a state of
        # the same n_qubits that already passed the cap and norm checks, in
        # the dtype the kernel gave it
        if _validate:
            check_qubit_count(n_qubits)
            amplitudes = _exact_dtype(amplitudes)
        if amplitudes.shape != (2 ** n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        # written so that a NaN norm fails
        if _validate and not abs(np.linalg.norm(amplitudes) - 1.0) <= NORM_TOL:
            raise ValueError("state is not normalized")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def apply_single(amps: np.ndarray, m: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply an (r, 2) matrix to one qubit of a length-2^n vector.

    A 2x2 matrix gives a length-2^n vector; a 1x2 row (the eigen-row that
    ``measure`` and ``project`` apply) gives the length-2^(n-1) vector on
    the other qubits.  Returns a fresh vector that shares no memory with
    ``amps``, so a caller may write into it.  The form is the one the
    module docstring gives for the operands' dtype, the qubit and the
    length.  For a 2x2 matrix each amplitude is bit for bit the per-block
    matmul that ``np.moveaxis`` sets up, in every form; so is a row's in
    the row-view gemm (``test_apply_single_is_the_moveaxis_matmul_bit_for_bit``,
    ``test_real_kernel_is_the_moveaxis_matmul_bit_for_bit`` and
    ``test_row_view_gemm_is_the_moveaxis_matmul_bit_for_bit`` pin it).
    The pairs form serves qubit 0 of a short float64 vector and every
    complex operand because the broadcast form would round differently
    there (with a complex operand ``zgemm`` takes the operands in the other
    order).
    """
    lo = 1 << qubit
    # ``is``, not ``==``, which costs about 0.5 us a call; a float64 dtype
    # other than numpy's own instance takes the pairs form, same bits
    if amps.dtype is m.dtype is _FLOAT64:
        if qubit < 4 and len(amps) >= GEMM_MIN_AMPS:
            k = np.multiply(m.T.reshape(2, 1, -1, 1), _EYES[qubit], order="C")
            k = k.reshape(2 * lo, -1)
            return (amps.reshape(-1, 2 * lo) @ k).reshape(-1)
        if qubit:
            return np.matmul(m, amps.reshape(-1, 2, lo)).reshape(-1)
    if not qubit:  # the pairs are the vector itself: no transposes
        return (amps.reshape(-1, 2) @ m.T).reshape(-1)
    pairs = amps.reshape(-1, 2, lo).transpose(0, 2, 1).reshape(-1, 2) @ m.T
    return pairs.reshape(-1, lo, len(m)).transpose(0, 2, 1).reshape(-1)


def apply_unitary(amps: np.ndarray, u: np.ndarray, qubit: int, n: int,
                  out: np.ndarray) -> np.ndarray:
    """Apply an (r, c) matrix to one qubit (c = 2) or to the adjacent pair
    ``qubit``, ``qubit + 1`` (c = 4) of a length-2^n vector.

    ``qubit`` is the low bit of u's column index.  The c values are the
    middle axis of a (hi, c, lo) view, so the kernel is one broadcast
    matmul with no transposes, into the (hi, r, lo) view of ``out``: a
    4x4 unitary keeps the vector's size, and a 4x2 block of one doubles
    it: a swap-isometry stage, whole or on one block of rows as
    ``isometry.apply_phi`` streams the last ones.  ``out`` is a
    vector other than ``amps`` that the caller reuses, so no call pays for
    faulting in a fresh one; it must hold the result type of u and amps.
    """
    if u.ndim != 2 or u.shape[1] not in (2, 4):
        raise ValueError("kernels act on one qubit or an adjacent pair")
    k = u.shape[1] >> 1
    if not 0 <= qubit <= n - k:
        raise IndexError(f"qubits {qubit} .. {qubit + k - 1} out of range")
    lo = 1 << qubit
    np.matmul(u, amps.reshape(-1, u.shape[1], lo), out=out.reshape(-1, u.shape[0], lo))
    return out


def expectation(state: StateVector, obs: ProductObservable) -> float:
    """<psi| M |psi>, asserting the imaginary residue is negligible."""
    n = state.n_qubits
    for q in obs.terms:
        if not 0 <= q < n:
            raise IndexError(f"observable qubit {q} out of range")
    val = state.inner(obs.apply(state))
    if abs(val.imag) >= 1e-10:
        raise ImaginaryResidueError(f"expectation has imaginary part {val.imag:g}")
    return float(val.real)


def _branch(amps: np.ndarray, row: np.ndarray, qubit: int, n: int
            ) -> tuple[float, np.ndarray]:
    """The unnormalized branch <e| psi on the other n - 1 qubits, and its
    Born probability."""
    branch = apply_single(amps, row, qubit, n)
    return float(np.vdot(branch, branch).real), branch


def measure(state: StateVector, obs: SingleQubitObservable, qubit: int,
            rng: np.random.Generator) -> tuple[int, StateVector, float]:
    """Projective measurement of a +-1 observable on one qubit.

    Returns (outcome, branch, p_plus): the outcome +1 when one
    ``rng.random()`` falls below its Born probability p_plus, and the
    normalized branch on the other n - 1 qubits (qubits above ``qubit``
    move down by one); the collapsed n-qubit state is the outcome's
    eigenvector (x) the branch.  Drawing into a branch below
    ``MIN_BRANCH_P`` raises NormUnderflowError.
    """
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range")
    amps = state.amplitudes
    p_plus, branch = _branch(amps, obs.rows[1], qubit, n)
    if rng.random() < p_plus:
        outcome, p = 1, p_plus
    else:
        outcome = -1
        p, branch = _branch(amps, obs.rows[-1], qubit, n)
    if p < MIN_BRANCH_P:
        raise NormUnderflowError("measured an impossible branch")
    branch /= math.sqrt(p)
    return outcome, StateVector(n - 1, branch, _validate=False), p_plus


def project(state: StateVector, obs: SingleQubitObservable, qubit: int,
            outcome: int) -> tuple[float, StateVector | None]:
    """Deterministic branch of ``measure``: (probability, branch|None).

    The probability and the (n - 1)-qubit branch are bit for bit those
    ``measure`` computes for the same outcome; a branch below
    ``MIN_BRANCH_P`` gives (0.0, None).
    """
    n = state.n_qubits
    p, branch = _branch(state.amplitudes, obs.rows[outcome], qubit, n)
    if p < MIN_BRANCH_P:
        return 0.0, None
    branch /= math.sqrt(p)
    return p, StateVector(n - 1, branch, _validate=False)
