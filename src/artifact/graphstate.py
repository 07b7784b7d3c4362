"""Graph states and the ideal-side operator algebra.

A graph state is ctl-Z along every edge of |+>^n.  The CZs are diagonal,
so its amplitudes are (-1)^{#induced edges} / 2^{n/2}, and
``build_graph_state`` writes them in place.  The state is the unique +1
eigenstate of the stabilizer generators S_v = X_v Z^{A 1_v}.  For a
triangle with characteristic vector tau the operator X^tau Z^{A tau} has
expectation -1 on the graph state, which is the negative-correlation hook
the honesty test is built on.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, support
from .pauli import PauliProduct, stabilizer_generator
from .statevec import ProductObservable, StateVector, check_qubit_count, expectation


class NotATriangleError(ValueError):
    pass


def build_graph_state(graph: Graph) -> StateVector:
    """|G>, real: |+>^n with each edge's CZ as a sign flip in place on the
    (2,)*n view, whose axis n - 1 - q is qubit q.  Refuses n < 1, and n
    above the qubit cap, before it allocates anything."""
    n = graph.n
    if n < 1:
        raise ValueError("need at least one qubit")
    check_qubit_count(n)
    amps = np.full(1 << n, 2 ** (-n / 2))
    view = amps.reshape((2,) * n)
    for u, v in graph.edges:
        index = [slice(None)] * n
        index[n - 1 - u] = index[n - 1 - v] = 1
        view[tuple(index)] *= -1
    return StateVector(n, amps, _validate=False)


def stabilizer(graph: Graph, v: int) -> ProductObservable:
    """S_v = X_v Z^{A 1_v} as a measurable product."""
    return stabilizer_generator(graph, v).observable()


def triangle_operator(graph: Graph, tau) -> ProductObservable:
    """X^tau Z^{A tau} for a triangle tau; expectation -1 on |G>.

    Because the three vertices are pairwise adjacent, (A tau)_v is even
    on tau itself, so the product carries pure X on the triangle and
    pure Z on its outside neighborhood.
    """
    tau = np.asarray(tau, dtype=np.uint8) % 2
    if len(tau) != graph.n:
        raise ValueError("length mismatch")
    if not graph.is_triangle(tau):
        raise NotATriangleError(f"{support(tau)} is not a triangle of the graph")
    return PauliProduct(0, tau, graph.mul(tau)).observable()


def stabilizer_expectations(graph: Graph) -> np.ndarray:
    """<G| S_v |G> for every vertex (all should be 1)."""
    state = build_graph_state(graph)
    return np.array([expectation(state, stabilizer(graph, v)) for v in range(graph.n)])
