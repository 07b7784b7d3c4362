"""Symbolic Pauli-product algebra.

A product is stored in the normal form i^p * prod_v X_v^{x_v} Z_v^{z_v}
with p mod 4 and GF(2) bit vectors x, z.  Multiplication, commutation,
and the letter rendering (I/X/Y/Z per qubit with a global i^r) are all
exact integer arithmetic; no matrices are involved until ``matrix`` or
``observable`` is called.

The letter form uses XZ = -iY, so the rendered global phase exponent is
r = (p + 3 * |x & z|) mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, dot, unit, xor
from .statevec import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, ProductObservable

_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_MATRIX = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_PHASE = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class PauliProduct:
    """i^phase_pow * X^x Z^z over n qubits (x, z immutable bit vectors)."""

    phase_pow: int
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.uint8) % 2
        z = np.asarray(self.z, dtype=np.uint8) % 2
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be equal-length bit vectors")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    @property
    def n(self) -> int:
        return len(self.x)

    @staticmethod
    def identity(n: int) -> "PauliProduct":
        zeros = np.zeros(n, dtype=np.uint8)
        return PauliProduct(0, zeros, zeros.copy())

    @staticmethod
    def from_letters(letters: str, phase_pow: int = 0) -> "PauliProduct":
        """Parse e.g. "XZI"; letter k acts on qubit k.  Y = i X Z."""
        x = np.zeros(len(letters), dtype=np.uint8)
        z = np.zeros(len(letters), dtype=np.uint8)
        p = phase_pow
        for v, letter in enumerate(letters):
            try:
                xv, zv = _LETTER_XZ[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x[v], z[v] = xv, zv
            if letter == "Y":
                p += 1
        return PauliProduct(p, x, z)

    def mul(self, other: "PauliProduct") -> "PauliProduct":
        """Operator product self * other (self acts second)."""
        if self.n != other.n:
            raise ValueError("length mismatch")
        # Z^{z1} X^{x2} = (-1)^{z1.x2} X^{x2} Z^{z1}
        swap = dot(self.z, other.x) % 2
        return PauliProduct(self.phase_pow + other.phase_pow + 2 * swap,
                            xor(self.x, other.x), xor(self.z, other.z))

    def __mul__(self, other: "PauliProduct") -> "PauliProduct":
        return self.mul(other)

    def commutes_with(self, other: "PauliProduct") -> bool:
        return (dot(self.x, other.z) + dot(self.z, other.x)) % 2 == 0

    def rendered_phase_pow(self) -> int:
        """Exponent r with  op = i^r * (tensor of I/X/Y/Z letters)."""
        y_count = int(np.sum(self.x & self.z))
        return (self.phase_pow + 3 * y_count) % 4

    def letters(self) -> str:
        return "".join("IXZY"[xv + 2 * zv] for xv, zv in zip(self.x, self.z))

    def sign(self) -> int:
        """+1 or -1 in front of the letter rendering; error if imaginary."""
        r = self.rendered_phase_pow()
        if r % 2:
            raise ValueError("product has imaginary phase")
        return 1 if r == 0 else -1

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, little-endian (qubit 0 least significant)."""
        m = np.array([[_PHASE[self.rendered_phase_pow()]]])
        for letter in reversed(self.letters()):
            m = np.kron(m, _LETTER_MATRIX[letter])
        return m

    def observable(self) -> ProductObservable:
        """The letter rendering as a measurable product: one I/X/Y/Z matrix
        per non-identity qubit and the ``sign`` in front."""
        terms = {v: _LETTER_MATRIX[letter]
                 for v, letter in enumerate(self.letters()) if letter != "I"}
        return ProductObservable(terms, sign=self.sign())


def stabilizer_generator(graph: Graph, v: int) -> PauliProduct:
    """S_v = X_v Z^{A 1_v}."""
    if not 0 <= v < graph.n:
        raise IndexError(f"vertex {v} out of range")
    return PauliProduct(0, unit(graph.n, v), graph.neighborhood(v))


def stabilizer_product(graph: Graph, t) -> PauliProduct:
    """prod_{t_v = 1} S_v, multiplied in ascending vertex order."""
    t = np.asarray(t, dtype=np.uint8) % 2
    if len(t) != graph.n:
        raise ValueError("length mismatch")
    acc = PauliProduct.identity(graph.n)
    for v in range(graph.n):
        if t[v]:
            acc = acc * stabilizer_generator(graph, v)
    return acc


def _exchange_letters(p: PauliProduct, v: int, neighbors) -> PauliProduct:
    """Relabel Z_v <-> Y_v and X_u <-> Y_u (u a neighbor), keeping phase."""
    swapped = list(p.letters())
    if swapped[v] == "Z":
        swapped[v] = "Y"
    elif swapped[v] == "Y":
        swapped[v] = "Z"
    for u in neighbors:
        if swapped[u] == "X":
            swapped[u] = "Y"
        elif swapped[u] == "Y":
            swapped[u] = "X"
    return PauliProduct.from_letters("".join(swapped), p.rendered_phase_pow())


def lc_generator_transform(graph: Graph, v: int) -> list[PauliProduct]:
    """Stabilizer generators of the locally-complemented graph.

    Each neighbor's generator S_u is replaced by S_u S_v, then the letters
    Z_v <-> Y_v and X_u <-> Y_u are exchanged.  Non-neighbors (and v itself)
    only undergo the letter exchange, which leaves them untouched.
    """
    if not 0 <= v < graph.n:
        raise IndexError(f"vertex {v} out of range")
    neighbors = graph.neighbors(v)
    s_v = stabilizer_generator(graph, v)
    out = []
    for u in range(graph.n):
        g = stabilizer_generator(graph, u)
        if u in neighbors:
            g = g * s_v
        out.append(_exchange_letters(g, v, neighbors))
    return out


def independent_commuting(products: list[PauliProduct]) -> bool:
    """True iff the set pairwise commutes and is GF(2)-independent.

    Independence is rank of the stacked (x|z) symplectic vectors over GF(2).
    """
    if not products:
        return True
    n = products[0].n
    rows = [np.concatenate([p.x, p.z]).astype(np.uint8) for p in products]
    for i, a in enumerate(products):
        for b in products[i + 1:]:
            if not a.commutes_with(b):
                return False
    mat = np.stack(rows)
    rank = 0
    for col in range(2 * n):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(mat)):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank == len(products)
