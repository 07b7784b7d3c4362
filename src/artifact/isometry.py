"""Local swap isometry and numerical equivalence-distance reports.

Every vertex receives a fresh EPR pair of ancilla qubits.  The per-vertex
circuit (controlled-X', Hadamard, controlled-Z', Hadamard, controlled-X',
with the control on the second ancilla qubit) is exactly a SWAP when X' and
Z' are the Pauli matrices, so it moves the hidden prover qubit into an
explicit register.  The distance between the circuit output and a product
junk (x) M|G> then measures how far a strategy sits from the ideal graph
state and measurements, and the closed-form bounds in :mod:`.bounds` cap
that distance in terms of the observed test statistics.

Register layout.  The shared state has m >= n qubits: vertex v's prover
holds qubit v (s_v), and qubits n .. m-1 are private to the provers.
Vertex v gets an EPR pair (a1_v, a2_v) and its circuit acts on s_v and
a2_v.  The output, over m + 2n little-endian qubits, is graph-register
major, from the top bit down:

* a2_{n-1} .. a2_0 - the graph register, so the amplitudes where a2 = a
  are row a of ``grouped_matrix``, one contiguous slice;
* the pairs (a1_{n-1}, s_{n-1}) .. (a1_0, s_0);
* the private qubits n .. m-1.

Everything below the graph register is the junk register: a junk vector
is flat, 2^(m+n) long, with s_v at bit m-n+2v and a1_v just above it.

The circuit's input sum_a |a>_{a1} |a>_{a2} |psi'> / 2^(n/2) is nonzero
only where a2 = a1, and a2_v still equals a1_v until vertex v's circuit
U_v runs.  So it is never built: vertex v's stage needs only the 4x2
block of U_v for each value of a2_v (``_stage_blocks``), turns s_v into
the pair (a1_v, s_v) and puts a2_v on top, which quadruples the vector.
All stages but the last two run whole (``_stages``) into the head, a
sixteenth of the output's size; the last two stream from the head, one
block of graph-register rows at a time (``apply_phi``).  No vector of
the output's size is ever made.  (A triangle-covered graph has n >= 3
vertices, so there are always two stages to stream.)

A report runs the head's stages on |psi'> once.  A label on one vertex
(X, Z, R+-, most of a report) needs no output of its own: its distance
follows from 4x4 blocks over the pair (s_v, a2_v) and one gemm of pair
overlaps (``pair_overlaps``) over that head.  The identity streams the
last stages from the same head, and a label on two or more vertices
runs the stages again on M'_S|psi'> and streams its own.  A direct
distance (``residual_norm``) reads each streamed row once, less
ideal[a] * junk.  A report scores at most two junk candidates,
identity-extraction and, only if a label fails its bound, the
constructed junk (``_stages`` with one 4x2 block per vertex).
``equivalence_distance`` gives the formula and where memory peaks.

Dtype.  See ``statevec``: a report runs in the result type of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .graphs import as_int
from .graphstate import build_graph_state
from .provers import ProverSet, R_MINUS, R_PLUS, X_LABEL, Z_LABEL, query_expectation
from .selftest import RTHETA_X, RTHETA_Z, TRIANGLE, VERTEX, TestParameters
from .statevec import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    apply_single,
    apply_unitary,
    check_qubit_count,
    rotation_matrix,
)

JUNK_TOL = 1e-6
BOUND_SLACK = 1e-9
# _bit_gram's (2 lo)-square gram beats a batch of (2, lo) products up to
# lo = 16 and loses from lo = 64 (timeit on a 2-core x86-64, float64 and
# complex128, n = 5..8; the two tie near lo = 32)
GRAM_MAX_LO = 16

_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])
_I2 = np.eye(2)


class JunkDegenerateError(ValueError):
    """The identity-label output has no usable overlap with the graph state."""


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, a on the higher-order qubit, without
    np.kron's general-shape overhead (a report takes about a hundred)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def controlled_unitary(m: np.ndarray) -> np.ndarray:
    """4x4 controlled-m with the control on the higher-order qubit."""
    return _kron(_P0, _I2) + _kron(_P1, m)


def phi_vertex_unitary(x_matrix: np.ndarray, z_matrix: np.ndarray) -> np.ndarray:
    """The folded per-vertex circuit as a single 4x4 unitary.

    Qubit 0 of the 4x4 is the prover's system qubit, qubit 1 the second
    ancilla carrying the control and the Hadamards.  For exact Paulis this
    returns the SWAP matrix.
    """
    h2 = _kron(HADAMARD, _I2)
    cx = controlled_unitary(x_matrix)
    cz = controlled_unitary(z_matrix)
    return cx @ h2 @ cz @ h2 @ cx


def _require_quantum(p: ProverSet):
    if p.is_classical:
        raise TypeError("the swap isometry is defined for quantum provers only")


def vertex_unitaries(p: ProverSet) -> list[np.ndarray]:
    """Every vertex circuit U_v = phi_vertex_unitary(X'_v, Z'_v), by vertex.

    U_v is float64 when X'_v and Z'_v are, complex128 otherwise.
    """
    _require_quantum(p)
    return [phi_vertex_unitary(p.observable(v, X_LABEL).matrix,
                               p.observable(v, Z_LABEL).matrix) for v in range(p.n)]


def _stage_blocks(u: np.ndarray) -> np.ndarray:
    """U_v's two 4x2 blocks B[c], c the output a2_v: B[c][2 b + s', s] =
    U_v[2 c + s', 2 b + s], its input a2_v = b kept as a1_v."""
    return u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(2, 4, 2)


def _stages(psi: np.ndarray, blocks, n: int, buffers) -> np.ndarray:
    """Stages of vertices 0 .. len(blocks)-1 on shared amplitudes psi.

    ``blocks[v]`` stacks 4x2 blocks from s_v to the pair (a1_v, s_v): the
    circuit's ``_stage_blocks``, or the constructed junk's single one.
    psi / 2^(n/2) is reordered, shared qubits on top; stage v then writes,
    for each block c, the part of its output that is blocks[v][c] times
    the (hi, 2, lo) view of s_v, c on top.  The outputs alternate between
    the two ``buffers`` so that the last lands in ``buffers[0]``, and it
    is returned.
    """
    width = psi.size >> n
    amps = np.empty(psi.size, buffers[0].dtype)
    amps.reshape(1 << n, width)[...] = psi.reshape(width, 1 << n).T
    amps *= 2.0 ** (-n / 2)
    for v, pair in enumerate(blocks):
        out = buffers[(len(blocks) - 1 - v) % 2][:amps.size * 2 * len(pair)]
        for c, half in zip(pair, out.reshape(len(pair), -1)):
            apply_unitary(amps, c, 2 * v + width.bit_length() - 1,
                          amps.size.bit_length() - 1, out=half)
        amps = out
    return amps


def apply_phi(head: np.ndarray, pairs, n: int, out: np.ndarray):
    """The swap circuit's output, one block of graph-register rows at a
    time: yields (first row a, the block's amplitudes).

    ``head`` is the output of every stage but the last two (``_stages``),
    and ``pairs`` holds those two stages' blocks, (B_{n-2}, B_{n-1}),
    B_v[c] for c = a2_v: row a of the output is row a mod 2^(n-2) of
    ``head`` with B_{n-2}[a_{n-2}] applied on its s_{n-2} axis, then
    B_{n-1}[a_{n-1}] on its s_{n-1} axis.  So a block of head rows takes
    each pair of blocks in turn, the first stage into the front third of
    ``out`` and the second into the rest, and every block overwrites the
    one before; ``out`` holds 6 head rows or more.  ``head`` is only read,
    so it can be streamed again, and no vector of the output's size is
    made.
    """
    low, top = pairs
    rows = 1 << (n - 2)
    per_row = head.size >> (n - 2)  # head amplitudes per head row
    count = min(out.size // (6 * per_row), rows)
    mid, last = out[:2 * count * per_row], out[2 * count * per_row:6 * count * per_row]
    # a head row holds s_{n-1} and s_{n-2} on top; the first stage puts
    # a1_{n-2} between them
    qubit = per_row.bit_length() - 3
    for h in range(0, rows, count):
        part = head[h * per_row:(h + count) * per_row]
        for c0, b0 in enumerate(low):
            staged = apply_unitary(part, b0, qubit, part.size.bit_length() - 1,
                                   out=mid[:part.size << 1])
            for c1, b1 in enumerate(top):
                block = apply_unitary(staged, b1, qubit + 2, staged.size.bit_length() - 1,
                                      out=last[:part.size << 2])
                yield h + (c0 << (n - 2)) + (c1 << (n - 1)), block


def grouped_matrix(amps: np.ndarray, junk_size: int) -> np.ndarray:
    """Graph-register rows (a block that ``apply_phi`` yields) viewed
    (graph register) x (junk register): row a is the contiguous slice
    where a2 = a.  The view copies nothing."""
    return amps.reshape(-1, junk_size)


def pair_overlaps(ideal: np.ndarray, head: np.ndarray, pairs, n: int,
                  out: np.ndarray) -> np.ndarray:
    """Y[v, alpha, beta] = sum over a with a_v = beta of ideal[a with bit v
    set to alpha] * (row a of the output that ``apply_phi`` streams from
    ``head`` and ``pairs``), written into ``out``.

    Shape (n, 2, 2, junk size); Y[v, 0, 0] + Y[v, 1, 1] is the overlap
    sum_a ideal[a] * (row a).  Row a is the 16x4 K[c] = B_{n-1}[a_{n-1}]
    (x) B_{n-2}[a_{n-2}], c = (a_{n-1}, a_{n-2}), on the two top qubits of
    head row a mod 2^(n-2), so Y is one gemm of the (4n, 2^n) weight
    matrix, with K[c] folded into its columns where the top bits of a are
    c, and ``head`` viewed (head row, top qubits) x the rest: it reads
    only the head.
    """
    a = np.arange(1 << n)
    weights = np.zeros((n, 2, 2, 1 << n), ideal.dtype)
    for v in range(n):
        bit = (a >> v) & 1
        for alpha in (0, 1):
            weights[v, alpha, bit, a] = ideal[a ^ ((bit ^ alpha) << v)]
    low, top = pairs
    kron = np.einsum("abc,def->adbecf", top, low).reshape(4, 16, 4)
    # column a = c 2^(n-2) + a'; folded[w, r, a', s] = sum_c weights[w, c, a'] K[c][r, s]
    folded = np.einsum("wca,crs->wras", weights.reshape(4 * n, 4, -1), kron)
    y = out.reshape(folded.shape[0] * folded.shape[1], -1)
    np.matmul(folded.reshape(len(y), 1 << n), head.reshape(1 << n, -1), out=y)
    return y.reshape(n, 2, 2, -1)


def _bit_gram(rows: np.ndarray, conj_junk: np.ndarray, lo: int) -> np.ndarray:
    """G[k, tau, sigma] = sum over every other index of rows[k] where the
    bit at ``lo`` is tau, times ``conj_junk`` where it is sigma.

    Read through (hi, 2, lo) views, so nothing of the rows' size is
    copied: up to ``GRAM_MAX_LO``, one (2 lo)-square product per row, of
    which the lo-diagonal is kept (at most 4 k GRAM_MAX_LO^2 elements);
    above, a batch of (2, lo) products per hi (for a shorter lo, numpy's
    loop over the batch costs more than its products).
    """
    k, size = rows.shape
    hi = size // (2 * lo)
    if lo <= GRAM_MAX_LO:
        gram = np.matmul(rows.reshape(k, hi, 2 * lo).transpose(0, 2, 1),
                         conj_junk.reshape(hi, 2 * lo))
        return np.einsum("ktlsl->kts", gram.reshape(k, 2, lo, 2, lo))
    cols = conj_junk.reshape(hi, 2, lo).transpose(0, 2, 1)
    return np.matmul(rows.reshape(k, hi, 2, lo), cols).sum(1)


def _pair_blocks(y: np.ndarray, g_amps: np.ndarray, junk: np.ndarray) -> tuple[list, list]:
    """Per vertex v, the 4x4 blocks TT = rho_g,v (x) rho_junk,v and
    TD = TX - TT over the pair index s_v + 2 a2_v, for the target
    T = g (x) junk and the identity-run output x: TX = sum_r T_r x_r^dagger
    over every other index r.  ``y`` is x's ``pair_overlaps`` with the real
    g, contracted with the junk on views (``_bit_gram``): Y is not copied."""
    n = y.shape[0]
    width = junk.size >> (2 * n)
    conj_junk = junk.conj()
    tt, td = [], []
    for v in range(n):
        lo = width << (2 * v)
        # rows (alpha, beta): g's bit alpha, x's bit beta; then x's s_v and the junk's
        gram = _bit_gram(y[v].reshape(4, -1), conj_junk, lo).conj()
        tx = gram.reshape(2, 2, 2, 2).transpose(0, 3, 1, 2).reshape(4, 4)
        rho_g = _bit_gram(g_amps[None], g_amps, 1 << v)[0]
        tt.append(_kron(rho_g, _bit_gram(junk[None], conj_junk, lo)[0]))
        td.append(tx - tt[-1])
    return tt, td


def _pair_distance(d0: float, w: np.ndarray, ideal_m: np.ndarray,
                   tt: np.ndarray, td: np.ndarray) -> float:
    """|| W x - M T || for one vertex's label kernel W, M = ideal_m (x) I,
    from the identity distance d0 = || D ||, D = x - T, and the
    ``_pair_blocks`` TT and TD of its vertex (see ``equivalence_distance``)."""
    delta = w - _kron(ideal_m, _I2)
    d2 = (d0 * d0 + np.trace(delta @ tt @ delta.conj().T).real
          + 2.0 * np.trace(w.conj().T @ delta @ td).real)
    return math.sqrt(max(d2, 0.0))


def conjugated_kernel(u: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """W_v = U_v (I (x) M'_v) U_v^dagger, the 4x4 of a one-vertex label's
    factor M'_v on the pair (s_v, a2_v), U_v its vertex circuit; it takes
    the result type of U_v and M'_v."""
    return u @ _kron(_I2, factor) @ u.conj().T


def residual_norm(blocks, ideal: np.ndarray, junk: np.ndarray) -> float:
    """|| rows - ideal (x) junk || over graph-register rows given as blocks
    (first row a, amplitudes), as ``apply_phi`` yields them: each row of a
    block's ``grouped_matrix`` view less ideal[a] * junk, in place, with
    one junk product per distinct ideal value.  One ``vdot`` per row sums
    them: one over a block of 2^20 complex amplitudes drifted by 3e-14
    relative."""
    values, which = np.unique(ideal, return_inverse=True)
    products = values[:, None] * junk
    total = 0.0
    for a, block in blocks:
        rows = grouped_matrix(block, junk.size)
        for row, k in zip(rows, which[a:a + len(rows)]):
            np.subtract(row, products[k], out=row)
            total += np.vdot(row, row).real
    return math.sqrt(total)


def constructed_junk(p: ProverSet, g_amps: np.ndarray, dtype) -> np.ndarray:
    """The factorization's closed-form junk state on the junk register.

    junk = 2^{-n} sum_{s,t} (-1)^{t.s} (-1)^{(s.As)/2} Z'^t |psi'> |s>, where
    the inner sum collapses to a product of (I + (-1)^{s_v} Z'_v) factors.
    For exact Paulis on |G> this reduces to one EPR pair per vertex.  |s>
    lives on a1: ``_stages`` with the 4x2 block (I + Z'_v ; I - Z'_v) /
    sqrt(2) at vertex v, times the sign (-1)^{(s.As)/2} of |G> at s, read
    from the report's |G> amplitudes ``g_amps``.  The junk is a flat
    junk-register vector in ``dtype``, of norm 1 to the involution
    tolerance of the Z'_v: (I +- Z'_v) / 2 are complementary projectors.
    """
    _require_quantum(p)
    psi, n = p.shared_state.amplitudes, p.n
    zs = [p.observable(v, Z_LABEL).matrix for v in range(n)]
    blocks = [(np.vstack([_I2 + z, _I2 - z]) / math.sqrt(2)).astype(dtype)[None] for z in zs]
    junk = _stages(psi, blocks, n, (np.empty(psi.size << n, dtype),
                                    np.empty(psi.size << (n - 1), dtype)))
    sign = np.sign(g_amps)
    junk.reshape([2, 2] * n + [-1])[...] *= sign.reshape([2, 1] * n + [1])
    return junk


def measured_epsilon(p: ProverSet, params: TestParameters) -> float:
    """Worst deviation of the vertex and triangle conditions from ideal."""
    _require_quantum(p)
    worst = 0.0
    for st in params.subtests:
        if st.kind not in (VERTEX, TRIANGLE):
            continue
        worst = max(worst, 1.0 - st.target * query_expectation(p, st.query))
    return worst


def rtheta_epsilon(p: ProverSet, params: TestParameters, v: int, t: int) -> float:
    """Deviation of the rotation correlation at vertex ``v`` with sign ``t``.

    Measures 1 - <R'_v(t theta) (cos(theta) Z'^{A1_v}
    + t sin(theta) X'_u Z'^{A1_u + 1_v})>, clipped at zero.
    """
    _require_quantum(p)
    theta = params.theta[v]
    e_x = e_z = None
    for st in params.subtests:
        if st.vertex != v or st.t != t:
            continue
        if st.kind == RTHETA_X:
            e_x = query_expectation(p, st.query)
        elif st.kind == RTHETA_Z:
            e_z = query_expectation(p, st.query)
    if e_x is None or e_z is None:
        raise ValueError(f"no rotation subtests for vertex {v}, sign {t}")
    return max(0.0, 1.0 - (math.cos(theta) * e_x + math.sin(theta) * e_z))


def anticommutator_norm(p: ProverSet, v: int) -> float:
    """|| (X'_v Z'_v + Z'_v X'_v) |psi'> ||."""
    _require_quantum(p)
    mx = p.observable(v, X_LABEL).matrix
    mz = p.observable(v, Z_LABEL).matrix
    anti = mx @ mz + mz @ mx
    out = apply_single(p.shared_state.amplitudes, anti, v, p.shared_state.n_qubits)
    return float(np.linalg.norm(out))


def parse_label(spec) -> tuple:
    """Normalize a label spec.

    Accepted forms: ``"I"``; ``("X", v)``; ``("Z", v)``; ``("R+", v)``;
    ``("R-", v)``; ``("XZ", q_bits, p_bits)`` with 0/1 sequences.  Lists from
    JSON are fine.
    """
    if isinstance(spec, str):
        if spec.upper() == "I":
            return ("I",)
        raise ValueError(f"unknown label {spec!r}")
    if not isinstance(spec, (list, tuple)) or not spec or not isinstance(spec[0], str):
        raise ValueError(f"malformed label {spec!r}")
    spec = tuple(spec)
    head = spec[0].upper()
    if head == "I" and len(spec) == 1:
        return ("I",)
    try:
        if head in ("X", "Z", "R+", "R-") and len(spec) == 2:
            return (head, as_int(spec[1], "a label vertex"))
        if head == "XZ" and len(spec) == 3:
            q = tuple(as_int(b, "an XZ exponent") for b in spec[1])
            pz = tuple(as_int(b, "an XZ exponent") for b in spec[2])
            if any(b not in (0, 1) for b in q + pz):
                raise ValueError("XZ label exponents must be 0/1 vectors")
            return ("XZ", q, pz)
    except TypeError:
        raise ValueError(f"malformed label {spec!r}") from None
    raise ValueError(f"malformed label {spec!r}")


def label_name(label: tuple) -> str:
    head = label[0]
    if head == "I":
        return "I"
    if head in ("X", "Z", "R+", "R-"):
        return f"{head}({label[1]})"
    q = "".join(str(b) for b in label[1])
    pz = "".join(str(b) for b in label[2])
    return f"XZ(q={q},p={pz})"


@dataclass(frozen=True)
class LabelReport:
    """Distance and bound for one observable label."""

    label: str
    kind: str  # "thm2" or "lemma3"
    distance: float
    bound: float
    satisfied: bool

    def to_json(self) -> dict:
        return {"label": self.label, "kind": self.kind, "distance": self.distance,
                "bound": self.bound, "satisfied": self.satisfied}


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-label distances against one shared junk state."""

    epsilon: float
    junk_norm: float
    junk_source: str
    labels: tuple[LabelReport, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.labels)

    @property
    def tightest(self) -> LabelReport:
        """The label with the largest distance - bound, the first on a tie."""
        return max(self.labels, key=lambda r: r.distance - r.bound)

    @property
    def worst_excess(self) -> float:
        return self.tightest.distance - self.tightest.bound

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon, "junk_norm": self.junk_norm,
                "junk_source": self.junk_source, "all_satisfied": self.all_satisfied,
                "worst_excess": self.worst_excess, "tightest_label": self.tightest.label,
                "labels": [r.to_json() for r in self.labels]}


def _label_entry(p: ProverSet, params: TestParameters, label: tuple,
                 eps: float, g_amps: np.ndarray):
    """Prover-side factors M'_v, ideal factors M_v, ideal target vector, and
    bound for a label.

    Both factor maps go vertex -> 2x2 matrix, over the same vertices: M'_v
    acts on that prover's qubit of the shared state, M_v on bit v of |G>,
    and the target is prod_v M_v |G>.  The identity label has none.  I,
    X(v) and Z(v) are the XZ labels with exponents (0, 0), (1_v, 0) and
    (0, 1_v).
    """
    graph = params.graph
    n = graph.n
    head = label[0]
    if head in ("X", "Z", "R+", "R-") and not 0 <= label[1] < n:
        raise ValueError(f"label vertex {label[1]} out of range")
    if head in ("R+", "R-"):
        v = label[1]
        t = 1 if head == "R+" else -1
        theta = params.theta[v]
        factors = {v: p.observable(v, R_PLUS if t == 1 else R_MINUS).matrix}
        ideals = {v: rotation_matrix(t * theta)}
        u = params.u_choice[v]
        p_dot = max(graph.degree(v), graph.degree(u) - 1)
        delta = bounds.thm2_bound(eps, n, graph.edge_count, p_dot)
        eps_r = rtheta_epsilon(p, params, v, t)
        kind, bound = "lemma3", bounds.lemma3_bound(eps_r, delta)
    else:
        if head == "XZ":
            q, pz = label[1], label[2]
            if len(q) != n or len(pz) != n:
                raise ValueError("XZ label exponents must have one bit per vertex")
        else:
            q, pz = [0] * n, [0] * n
            if head != "I":
                (q if head == "X" else pz)[label[1]] = 1
        factors, ideals = {}, {}
        for v in range(n):
            if q[v] and pz[v]:
                factors[v] = p.observable(v, X_LABEL).matrix @ p.observable(v, Z_LABEL).matrix
                ideals[v] = PAULI_X @ PAULI_Z
            elif q[v] or pz[v]:
                factors[v] = p.observable(v, X_LABEL if q[v] else Z_LABEL).matrix
                ideals[v] = PAULI_X if q[v] else PAULI_Z
        kind, bound = "thm2", bounds.thm2_bound(eps, n, graph.edge_count, sum(pz))
    ideal = g_amps
    for v, ideal_m in ideals.items():
        ideal = apply_single(ideal, ideal_m, v, n)
    return label, factors, ideals, ideal, kind, bound


def equivalence_distance(p: ProverSet, params: TestParameters,
                         labels) -> EquivalenceReport:
    """Distances || Phi(M'|psi'>) - |junk> M|G> || with one shared junk.

    The swap circuit's stages but the last two run once on |psi'> itself,
    into the head of x = Phi(|psi'>), and x is only ever streamed from it
    (``apply_phi``), the last two stages once per junk candidate.
    The label's target is M_S T, T = g (x) junk, g = |G>.  How a distance
    is taken depends on the size of the label's support S:

    * none (the identity): || D ||, D = x - T, by ``residual_norm`` over
      x's stream (``apply_phi``);
    * one vertex v (X, Z, R+-, or an XZ label on one vertex): from 4x4
      blocks over the pair index s_v + 2 a2_v, with no pass of its own.
      The vertex circuits U_v act on disjoint qubits (s_v and a2_v) and
      are unitary, so Phi(M'_v |psi'>) = W_v x with W_v = U_v (I (x) M'_v)
      U_v^dagger (``conjugated_kernel``).  With M_v = (ideal 2x2) (x) I
      and Delta = W_v - M_v, W_v x - M_v T = W_v D + Delta T, so

          d^2 = ||D||^2 + tr(Delta TT Delta^dagger)
                + 2 Re tr(W_v^dagger Delta TD),

      TT = sum_r T_r T_r^dagger = rho_g,v (x) rho_junk,v and TD = TX - TT,
      TX = sum_r T_r x_r^dagger, summed over every other index r.  TX
      comes from x's ``pair_overlaps`` Y with g, taken from the head,
      contracted with the junk over every junk bit but s_v.  The formula
      takes || W_v D || = || D ||: W_v is unitary to the involution
      tolerance of the observables (``statevec.SingleQubitObservable``,
      1e-10).  Every term is small for near-honest provers, so honest
      distances stay at rounding level;
    * two or more vertices: the circuit on M'_S |psi'> (``apply_single``
      on the shared state), its stages but the last two into a head of
      its own, streamed from like the identity's, each block's residual
      taken as it is made.  Such outputs are rebuilt whenever
      they are needed and never stored.

    Two junk candidates: identity-extraction (the identity overlap
    sum_a g[a] x_a = Y_v^00 + Y_v^11, normalized) and the constructed
    junk of Theorem 2's proof (``constructed_junk``), each a flat
    junk-register vector.  Y is built once, and one scorer gives a
    candidate's report from it, so a report makes at most two passes.
    Identity-extraction is returned when every label meets its bound;
    otherwise the constructed junk is scored, and the candidate with the
    smaller worst excess is returned, identity-extraction on a tie.  The
    identity and multi-vertex distances are direct residual norms, which
    keep honest distances at rounding level (the expanded inner-product
    form loses them to cancellation near 1e-8).

    Memory.  No report holds a vector of x's size (16 MiB at n = 7 in
    float64).  One workspace, allocated once per report, holds the
    identity's head (1/16 of x), the stage scratch (1/16 of x, and at
    least 1.5 junk vectors), Y (4n junk vectors: 3.5 MiB at n = 7, 0.22
    of x) and, when a label has two or more vertices, that label's head
    (another 1/16).  The stages alternate between a head and the scratch,
    which also takes each streamed block, the stage before it, and the
    block's residual differences.  At n = 7 a report peaks near 7 MiB; at
    n = 8, the 24-qubit default cap, near 40 MiB against x's 128 MiB.
    One allocation, not one per buffer, lets the allocator reuse the same
    pages report after report instead of faulting in fresh ones.

    The report runs in one dtype, the result type of the shared state and
    every observable it reads (X'_v and Z'_v for the circuits, the labels'
    prover factors): float64 when all are, complex128 otherwise.  The
    circuit outputs, Y, both junk candidates and the residuals all take
    it.  |G> and the ideal vectors M|G> are real.
    """
    _require_quantum(p)
    eps = measured_epsilon(p, params)
    g_amps = build_graph_state(params.graph).amplitudes
    parsed = [_label_entry(p, params, parse_label(spec), eps, g_amps) for spec in labels]
    unitaries = vertex_unitaries(p)
    dtype = np.result_type(p.shared_state.amplitudes, *unitaries,
                           *(f for _, factors, *_ in parsed for f in factors.values()))
    unitaries = [u.astype(dtype, copy=False) for u in unitaries]
    psi, n, m = p.shared_state.amplitudes, p.n, p.shared_state.n_qubits
    check_qubit_count(m + 2 * n)
    blocks = [_stage_blocks(u) for u in unitaries]
    entries = []
    for label, factors, ideals, ideal, kind, bound in parsed:
        single = state = None
        if len(factors) == 1:
            (v, f), = factors.items()
            single = (v, conjugated_kernel(unitaries[v], f), ideals[v])
        elif factors:
            state = psi
            for v, f in factors.items():
                state = apply_single(state, f, v, m)
        entries.append((label_name(label), kind, single, state, ideal, bound))
    # one workspace (see Memory): the identity's head, the stage scratch
    # (room for one head row through both streamed stages), Y and, if a
    # label needs one, a multi-vertex label's head
    size = 1 << (m + 2 * n)
    parts = [size >> 4, max(size >> 4, 6 * (size >> (n + 2))), 4 * n * (size >> n)]
    if any(state is not None for _, _, _, state, _, _ in entries):
        parts.append(size >> 4)
    work = np.empty(sum(parts), dtype)
    head, scratch, y, *label_head = np.split(work, np.cumsum(parts[:-1]))
    head = _stages(psi, blocks[:-2], n, (head, scratch))
    y = pair_overlaps(g_amps, head, blocks[-2:], n, y)
    raw = y[0, 0, 0] + y[0, 1, 1]
    raw_norm = float(np.linalg.norm(raw))
    if raw_norm < JUNK_TOL:
        raise JunkDegenerateError(
            f"identity-run overlap norm {raw_norm:.3e} below {JUNK_TOL}; the "
            "test conditions fail too badly for the distance bound to apply")

    def score(junk, source: str) -> EquivalenceReport:
        """The report under ``junk``."""
        d0 = residual_norm(apply_phi(head, blocks[-2:], n, scratch), g_amps, junk)
        tt, td = _pair_blocks(y, g_amps, junk)
        reps = []
        for name, kind, single, state, ideal, bound in entries:
            if single is not None:
                v, w, ideal_m = single
                dist = _pair_distance(d0, w, ideal_m, tt[v], td[v])
            elif state is None:
                dist = d0
            else:
                staged = _stages(state, blocks[:-2], n, (label_head[0], scratch))
                dist = residual_norm(apply_phi(staged, blocks[-2:], n, scratch), ideal, junk)
            reps.append(LabelReport(name, kind, dist, bound, dist <= bound + BOUND_SLACK))
        return EquivalenceReport(eps, raw_norm, source, tuple(reps))

    extracted = score(raw / raw_norm, "identity-extraction")
    if extracted.all_satisfied:
        return extracted
    constructed = score(constructed_junk(p, g_amps, dtype), "constructed")
    return min((extracted, constructed), key=lambda r: r.worst_excess)
