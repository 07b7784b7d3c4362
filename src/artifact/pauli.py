"""Symbolic Pauli-product algebra.

A product is stored in the normal form i^p * prod_v X_v^{x_v} Z_v^{z_v}
with p mod 4 and GF(2) bit vectors x, z.  Multiplication and the letter
rendering (I/X/Y/Z per qubit with a global i^r) are exact integer
arithmetic; no matrices are involved until ``observable`` is called.

The letter form uses XZ = -iY, so the rendered global phase exponent is
r = (p + 3 * |x & z|) mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, dot, unit, xor
from .statevec import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, ProductObservable

_LETTER_MATRIX = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


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

