"""Independent reference implementations used to cross-check the package.

Everything in this file is deliberately written the slow, obvious way:
dense Kronecker products, exhaustive enumeration, pairwise predicates.
Nothing here imports from ``artifact``: these are the oracles the
package is tested against, so they must not share code with it.

Conventions (shared with the package, stated once):
  * qubit 0 is the least significant bit of a basis index (little-endian);
  * bitstrings are numpy uint8 arrays indexed by vertex;
  * ``R(theta) = cos(theta) X + sin(theta) Z`` unless a helper says X-Y.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Frozen closed-form anchors (evaluated once here, asserted in tests).
C_TEST_K3_QUARTER_PI = (6 + 1 + 3 / math.sqrt(2)) / 10  # ~0.912132
CHSH_QUANTUM = 0.5 + 1 / (2 * math.sqrt(2))             # ~0.853553
CHSH_CLASSICAL = 0.75
LEMMA6_Q_EXAMPLE = (0.9 - 0.8) / (1 + 0.9 - 1 / 3 - 0.8 - 1 / 6)  # = 1/6
HOEFFDING_N_GAP02 = 55  # ceil(2 ln 3 / 0.04)


# ---------------------------------------------------------------------------
# dense state-vector oracle
# ---------------------------------------------------------------------------

def kron_all(mats):
    """Kronecker product, first matrix on the *highest* qubit."""
    out = np.array([[1]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def full_operator(n, terms):
    """Dense 2^n x 2^n operator from {qubit: 2x2 matrix} (little-endian)."""
    mats = [terms.get(q, I2) for q in reversed(range(n))]
    return kron_all(mats)


def dense_apply(state, mat2x2, qubit, n):
    return full_operator(n, {qubit: mat2x2}) @ state


def dense_branch(state, mat2x2, qubit, n, outcome):
    """A measured branch by brute force: the 2^n x 2^n projector
    (I + outcome M)/2 on ``qubit``, the Born probability of the collapsed
    vector, and the qubit contracted away with ``np.einsum`` against M's
    eigenvector for ``outcome`` (from ``np.linalg.eigh``), normalized.
    The eigenvector's phase is numpy's: compare up to a global phase."""
    collapsed = full_operator(n, {qubit: (I2 + outcome * mat2x2) / 2}) @ state
    p = float(np.vdot(collapsed, collapsed).real)
    values, vectors = np.linalg.eigh(mat2x2)
    eigvec = vectors[:, np.argmin(abs(values - outcome))]
    axis = n - 1 - qubit  # tensor axis 0 is the highest qubit
    rest = [a for a in range(n) if a != axis]
    branch = np.einsum(collapsed.reshape([2] * n), list(range(n)), eigvec.conj(), [axis], rest)
    return p, branch.reshape(-1) / math.sqrt(p)


def dense_expectation(state, terms, n, sign=1):
    return sign * np.vdot(state, full_operator(n, terms) @ state)


def dense_cz(n, u, v):
    d = np.ones(2 ** n, dtype=complex)
    for i in range(2 ** n):
        if (i >> u) & 1 and (i >> v) & 1:
            d[i] = -1
    return np.diag(d)


def graph_state_by_circuit(n, edges):
    """|G> built literally: |+>^n then one dense CZ per edge."""
    state = np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    for (u, v) in edges:
        state = dense_cz(n, u, v) @ state
    return state


# ---------------------------------------------------------------------------
# lattice edge oracle: pairwise coordinate predicate, not a generative loop
# ---------------------------------------------------------------------------

def lattice_edges_by_predicate(rows, cols):
    """Triangulated grid edges via an all-pairs coordinate test.

    Vertices are row-major; (r, c) and (r', c') are adjacent iff their
    offset is one of the six half-neighbourhood directions of the
    diagonal-split square grid: E, S, SE (and their reverses).
    """
    edges = set()
    for r1 in range(rows):
        for c1 in range(cols):
            for r2 in range(rows):
                for c2 in range(cols):
                    dr, dc = r2 - r1, c2 - c1
                    if (dr, dc) in ((0, 1), (1, 0), (1, 1)):
                        a, b = r1 * cols + c1, r2 * cols + c2
                        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


# ---------------------------------------------------------------------------
# exhaustive bitstring identities (Appendix-style oracles)
# ---------------------------------------------------------------------------

def popcount_array(values):
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)


def sum_over_strings(n, t_int):
    """sum_s (-1)^{s.t} computed literally over all 2^n strings."""
    s = np.arange(2 ** n, dtype=np.uint64)
    parity = popcount_array(s & np.uint64(t_int)) & 1
    return int(np.sum(1 - 2 * parity))


def mean_dot_with(n, u_int):
    s = np.arange(2 ** n, dtype=np.uint64)
    return float(np.mean(popcount_array(s & np.uint64(u_int))))


def induced_edges_of_int(t_int, edges):
    return sum(1 for (u, v) in edges if (t_int >> u) & 1 and (t_int >> v) & 1)


def mean_induced_edges(n, edges):
    total = sum(induced_edges_of_int(t, edges) for t in range(2 ** n))
    return total / 2 ** n


# ---------------------------------------------------------------------------
# symbolic Pauli oracle (phase-exact, via dense matrices)
# ---------------------------------------------------------------------------

def pauli_matrix(x_bits, z_bits, phase_pow, n):
    """i^phase_pow * prod_v X_v^{x_v} Z_v^{z_v} as a dense matrix."""
    terms = {}
    for v in range(n):
        m = I2
        if x_bits[v]:
            m = m @ X
        if z_bits[v]:
            m = m @ Z
        terms[v] = m
    return (1j ** phase_pow) * full_operator(n, terms)


# ---------------------------------------------------------------------------
# CHSH-style exhaustive classical table search for the RTHETA subtest
# ---------------------------------------------------------------------------

def best_classical_rtheta(theta):
    """Max success over the 16 deterministic tables (a,b,c,d in {+-1}).

    a, b: the prover's replies to R(+theta), R(-theta); c: the product of
    the neighbours' Z replies (X branch); d: the X_u reply times the
    remaining Z replies (Z branch).  Branch weights follow Procedure 1.
    """
    wx = math.cos(theta) / (math.cos(theta) + abs(math.sin(theta)))
    wz = abs(math.sin(theta)) / (math.cos(theta) + abs(math.sin(theta)))
    best = -1.0
    for a, b, c, d in itertools.product((1, -1), repeat=4):
        win = 0.5 * (wx * (a * c == 1) + wz * (a * d == 1))
        win += 0.5 * (wx * (b * c == 1) + wz * (b * d == -1))
        best = max(best, win)
    return best


# ---------------------------------------------------------------------------
# single-qubit rotations in the X-Y and X-Z planes
# ---------------------------------------------------------------------------

def rotation_xy(theta):
    return math.cos(theta) * X + math.sin(theta) * Y


def rotation_xz(theta):
    return math.cos(theta) * X + math.sin(theta) * Z


# ---------------------------------------------------------------------------
# swap-isometry constructed junk, one term per first-ancilla string
# ---------------------------------------------------------------------------

def constructed_junk(psi, zs, edges):
    """The junk of Theorem 2's proof by its 2^n-term sum: the term a1 = s
    is (-1)^{|E(s)|} prod_v (I + (-1)^{s_v} Z'_v) |psi'> / 2^n.

    ``psi`` is over m little-endian qubits, the shared qubits 0..n-1 first;
    ``zs`` are the n matrices Z'_v.  Junk-register index: the m - n private
    qubits lowest, then shared qubit v at bit m-n+2v and a1_v just above it.
    """
    n, m = len(zs), psi.size.bit_length() - 1
    junk = np.zeros(1 << (m + n), dtype=complex)
    for s in range(1 << n):
        op = full_operator(m, {v: I2 + (-1) ** ((s >> v) & 1) * zs[v] for v in range(n)})
        term = (-1) ** induced_edges_of_int(s, edges) * (op @ psi) / 2 ** n
        for j, amp in enumerate(term):
            idx = j >> n
            for v in range(n):
                idx |= (((j >> v) & 1) | (((s >> v) & 1) << 1)) << (m - n + 2 * v)
            junk[idx] = amp
    return junk


# ---------------------------------------------------------------------------
# MBQC branch-enumeration oracle (independent of the package executor)
# ---------------------------------------------------------------------------

def mbqc_output_distribution(n, edges, steps, output_bits):
    """Exact output-bit distribution of an adaptive pattern on |G>.

    ``steps`` is a list of (vertex, theta, x_deps, z_deps); deps consume
    raw outcomes; the step angle sign is the product of the x_dep
    outcomes; the corrected outcome multiplies in the z_dep outcomes;
    the output bit is the parity of corrected outcomes on output_bits.
    """
    start = graph_state_by_circuit(n, edges)
    dist = {0: 0.0, 1: 0.0}

    def recurse(state, weight, raw, corrected, k):
        if weight < 1e-30:
            return
        if k == len(steps):
            prod = 1
            for v in output_bits:
                prod *= corrected[v]
            dist[(1 - prod) // 2] += weight
            return
        v, theta, x_deps, z_deps = steps[k]
        t = 1
        for j in x_deps:
            t *= raw[j]
        obs = rotation_xz(t * theta)
        for m in (1, -1):
            proj = (I2 + m * obs) / 2
            new = dense_apply(state, proj, v, n)
            p = float(np.vdot(new, new).real)
            if p < 1e-30:
                continue
            c = m
            for j in z_deps:
                c *= raw[j]
            recurse(new / math.sqrt(p), weight * p,
                    {**raw, v: m}, {**corrected, v: c}, k + 1)

    recurse(start, 1.0, {}, {}, 0)
    return dist


# ---------------------------------------------------------------------------
# Corollary 3 constant chain (paper's own intermediate estimates)
# ---------------------------------------------------------------------------

def cor3_chain(delta, n, n_g=None):
    """The displayed lines of the Corollary 3 epsilon chain.

    exact:  (1/2N_G)(d'^2/(22+25 sqrt n))^4 with d' = d/(2(8n+1))
    line1:  (1/4n)(d^2/(8(8n+1)^2(22+25 sqrt n)))^4
    line2:  (1/8n)(d^2/(4(9n)^2(47 sqrt n)))^4  == d^8/(8*15228^4 n^11)
    line3:  d^8/(10^17.7 n^11)
    """
    if n_g is None:
        n_g = 4 * n
    root = 22 + 25 * math.sqrt(n)
    dprime = delta / (2 * (8 * n + 1))
    exact = (1 / (2 * n_g)) * (dprime ** 2 / root) ** 4
    line1 = (1 / (4 * n)) * (delta ** 2 / (8 * (8 * n + 1) ** 2 * root)) ** 4
    line2 = (1 / (8 * n)) * (delta ** 2 / (4 * (9 * n) ** 2 * 47 * math.sqrt(n))) ** 4
    line3 = delta ** 8 / (10 ** 17.7 * n ** 11)
    return exact, line1, line2, line3
