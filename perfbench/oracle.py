"""Independent oracle for the benchmark's output checks.

Nothing here imports from ``artifact`` or from ``tests``: every law the
benchmark checks the package against is computed a second time from the
paper's definitions, with different code.

Conventions (shared with the package, stated once):
  * qubit 0 is the least significant bit of a basis index (little-endian);
  * ``R(a) = cos(a) X + sin(a) Z`` is the X-Z-plane observable at angle a;
  * a strategy maps each vertex to a dict ``{"X", "Z", "R+", "R-"} -> 2x2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Closed-form anchors the oracle's own tests pin.
C_TEST_K3_QUARTER_PI = (7 + 3 / math.sqrt(2)) / 10
ROTATION_ANCHOR_QUARTER_PI = 0.5 + 1 / (2 * math.sqrt(2))
K3_PATTERN_LAW_P0 = 0.5 + 1 / (4 * math.sqrt(2))


def rotation(angle: float) -> np.ndarray:
    return math.cos(angle) * X + math.sin(angle) * Z


# ---------------------------------------------------------------------------
# states and single-qubit operations
# ---------------------------------------------------------------------------

def graph_state(n: int, edges) -> np.ndarray:
    """|G> from its closed form: <x|G> = (-1)^{edges induced by x} / 2^{n/2}."""
    idx = np.arange(1 << n)
    induced = np.zeros(1 << n, dtype=np.int64)
    for u, v in edges:
        induced += (idx >> u) & (idx >> v) & 1
    return np.where(induced % 2, -1.0, 1.0).astype(complex) / 2 ** (n / 2)


def apply(psi: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """mat on one qubit, as an einsum over the (high, qubit, low) split."""
    t = psi.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    return np.einsum("ab,hbl->hal", mat, t).reshape(-1)


def expectation(psi: np.ndarray, terms: dict, n: int) -> float:
    """<psi| prod_q terms[q] |psi> for a product over distinct qubits."""
    phi = psi
    for q, mat in terms.items():
        phi = apply(phi, mat, q, n)
    value = np.vdot(psi, phi)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary part {value.imag:g}")
    return float(value.real)


def project(psi: np.ndarray, mat: np.ndarray, qubit: int, n: int,
            outcome: int) -> tuple[float, np.ndarray | None]:
    """Born probability of ``outcome`` and the normalised post-measurement state."""
    phi = apply(psi, (I2 + outcome * mat) / 2, qubit, n)
    p = float(np.vdot(phi, phi).real)
    if p < 1e-24:
        return 0.0, None
    return p, phi / math.sqrt(p)


# ---------------------------------------------------------------------------
# the one-shot honesty test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subtest:
    """One atom of the test: weight, query labels, verifier sign and target."""

    kind: str                  # "vertex", "triangle", "rtheta-x" or "rtheta-z"
    weight: float
    labels: dict               # vertex -> "X" | "Z" | "R+" | "R-"
    sign: int = 1
    target: int = 1
    vertex: int | None = None
    t: int | None = None


def neighbours(n: int, edges) -> list[set[int]]:
    out = [set() for _ in range(n)]
    for u, v in edges:
        out[u].add(v)
        out[v].add(u)
    return out


def c_test(n: int, n_triangles: int, theta) -> float:
    """Honest pass probability (2|V| + |T| + sum_v 1/(cos + |sin|)) / N_G."""
    n_g = 3 * n + n_triangles
    rot = sum(1 / (math.cos(a) + abs(math.sin(a))) for a in theta)
    return (2 * n + n_triangles + rot) / n_g


def rotation_anchor(angle: float) -> float:
    """Honest success of the rotation subtest at one vertex."""
    return 0.5 + 1 / (2 * (math.cos(angle) + abs(math.sin(angle))))


def subtest_law(n: int, edges, triangles, theta, partner) -> list[Subtest]:
    """The test's law over its atoms, written out from the paper.

    Each vertex v contributes a stabilizer check X_v Z_{N(v)} (target +1)
    and a rotation subtest of total weight 2/N_G; each covering triangle
    tau contributes X_tau Z_{odd(tau)} with target -1, where odd(tau) are
    the outside vertices adjacent to an odd number of tau's vertices.
    The rotation subtest draws t = +-1 and asks R_v(t theta) either
    against Z_{N(v)} (probability cos/(cos + |sin|)) or against
    X_u Z_{N(u) - v} with the reply product multiplied by t, for the fixed
    neighbour u = partner[v].
    """
    nb = neighbours(n, edges)
    n_g = 3 * n + len(triangles)
    w = 1 / n_g
    law = []
    for v in range(n):
        labels = {v: "X"} | {u: "Z" for u in nb[v]}
        law.append(Subtest("vertex", w, labels, vertex=v))
    for tri in triangles:
        tri = set(tri)
        odd = {u for u in range(n) if u not in tri and len(nb[u] & tri) % 2}
        labels = {v: "X" for v in tri} | {u: "Z" for u in odd}
        law.append(Subtest("triangle", w, labels, target=-1))
    for v in range(n):
        c, s = math.cos(theta[v]), abs(math.sin(theta[v]))
        u = partner[v]
        for t in (1, -1):
            r = "R+" if t == 1 else "R-"
            x_labels = {v: r} | {a: "Z" for a in nb[v]}
            z_labels = {v: r, u: "X"} | {a: "Z" for a in nb[u] - {v}}
            law.append(Subtest("rtheta-x", w * c / (c + s), x_labels,
                               vertex=v, t=t))
            law.append(Subtest("rtheta-z", w * s / (c + s), z_labels,
                               sign=t, vertex=v, t=t))
    return law


def honest_strategy(theta) -> list[dict]:
    return [{"X": X, "Z": Z, "R+": rotation(a), "R-": rotation(-a)}
            for a in theta]


def angle_strategy(angles) -> list[dict]:
    """Strategy from per-vertex X-Z-plane angles ``{label: angle}``."""
    return [{label: rotation(a) for label, a in per.items()} for per in angles]


def correlation(psi: np.ndarray, n: int, st: Subtest, strategy) -> float:
    """Signed expectation of the subtest's reply product."""
    terms = {v: strategy[v][label] for v, label in st.labels.items()}
    return st.sign * expectation(psi, terms, n)


def pass_probability(psi: np.ndarray, n: int, law, strategy) -> float:
    """Exact pass probability: sum of weight * (1 + target * E) / 2."""
    return sum(st.weight * (1 + st.target * correlation(psi, n, st, strategy)) / 2
               for st in law)


def epsilon(psi: np.ndarray, n: int, law, strategy) -> float:
    """Worst deviation 1 - target * E over the vertex and triangle checks."""
    return max(1 - st.target * correlation(psi, n, st, strategy)
               for st in law if st.kind in ("vertex", "triangle"))


def rotation_epsilon(psi: np.ndarray, n: int, law, strategy, v: int, t: int,
                     angle: float) -> float:
    """1 - (cos(a) E_x + sin(a) E_z) for the rotation subtest (v, t), at least 0."""
    e = {st.kind: correlation(psi, n, st, strategy)
         for st in law if st.vertex == v and st.t == t}
    return max(0.0, 1 - (math.cos(angle) * e["rtheta-x"]
                         + math.sin(angle) * e["rtheta-z"]))


# ---------------------------------------------------------------------------
# adaptive measurement patterns
# ---------------------------------------------------------------------------

def pattern_law(psi: np.ndarray, n: int, steps, output_bits,
                strategy) -> dict[int, float]:
    """Exact output law of a pattern by enumerating outcome branches.

    ``steps`` lists (vertex, x_deps, z_deps); the sign t of a step is the
    product of the raw outcomes in x_deps and selects the R+ or R- reply;
    the corrected outcome multiplies the raw one by the outcomes in
    z_deps; the output bit is the parity of the corrected outcomes over
    ``output_bits``.
    """
    z_deps = {v: zd for v, _, zd in steps}
    law = {0: 0.0, 1: 0.0}
    stack = [(psi, 0, {}, 1.0)]
    while stack:
        state, k, raw, weight = stack.pop()
        if k == len(steps):
            product = 1
            for v in output_bits:
                product *= raw[v] * math.prod(raw[d] for d in z_deps[v])
            law[(1 - product) // 2] += weight
            continue
        v, x_deps, _ = steps[k]
        t = math.prod(raw[d] for d in x_deps)
        mat = strategy[v]["R+" if t == 1 else "R-"]
        for outcome in (1, -1):
            p, post = project(state, mat, v, n, outcome)
            if post is not None:
                stack.append((post, k + 1, raw | {v: outcome}, weight * p))
    return law


# ---------------------------------------------------------------------------
# closed-form bounds and protocol constants
# ---------------------------------------------------------------------------

def thm2_bound(eps: float, n: int, edges: int, p_weight: int) -> float:
    """(2 sqrt(p.p) + 2 sqrt(2n) + sqrt(|E| + n)) (2 eps)^{1/4}."""
    return (2 * math.sqrt(p_weight) + 2 * math.sqrt(2 * n)
            + math.sqrt(edges + n)) * (2 * eps) ** 0.25


def lemma3_bound(eps_r: float, delta: float) -> float:
    """sqrt(2 (eps_r + 2 delta)) for a rotation label."""
    return math.sqrt(2 * (eps_r + 2 * delta))


def protocol_constants(c_calc: float, c_test_value: float, s_test: float,
                       s_calc: float = 1 / 3, delta: float = 0.1,
                       error: float = 1 / 3) -> dict:
    """Coin weight, completeness, soundness and repetitions of the protocol.

    q = (c_test - s_test) / (1 + c_test - s_calc - s_test - delta),
    gap = (c_calc - s_calc - delta)(c_test - s_test) / (same denominator),
    c_ip = q c_calc + (1 - q) c_test, s_ip = c_ip - gap and
    N = ceil(2 ln(1/error) / gap^2) from exp(-N gap^2 / 2) <= error.
    """
    denom = 1 + c_test_value - s_calc - s_test - delta
    q = (c_test_value - s_test) / denom
    gap = (c_calc - s_calc - delta) * (c_test_value - s_test) / denom
    c_ip = q * c_calc + (1 - q) * c_test_value
    s_ip = c_ip - gap
    n_rounds = math.ceil(2 * math.log(1 / error) / gap ** 2)
    return {"q": q, "gap": gap, "c_ip": c_ip, "s_ip": s_ip,
            "n_rounds": n_rounds}
