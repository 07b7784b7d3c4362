"""Graph states and the ideal-side operator algebra.

A graph state is prepared by entangling |+>^n with ctl-Z along every
edge.  The closed-form amplitudes are (-1)^{#induced edges} / 2^{n/2},
and the state is the unique +1 eigenstate of the stabilizer generators
S_v = X_v Z^{A 1_v}.  For a triangle with characteristic vector tau the
operator X^tau Z^{A tau} has expectation -1 on the graph state, which is
the negative-correlation hook the honesty test is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, support
from .pauli import PauliProduct, stabilizer_generator
from .statevec import ProductObservable, StateVector, apply_cz, expectation, plus_state


class NotATriangleError(ValueError):
    pass


@dataclass(frozen=True)
class GraphState:
    graph: Graph
    state: StateVector


def build_graph_state(graph: Graph) -> GraphState:
    """CZ along every edge of |+>^n."""
    state = plus_state(graph.n)
    for u, v in graph.edges:
        state = apply_cz(state, u, v)
    return GraphState(graph, state)


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


def stabilizer_expectations(gs: GraphState) -> np.ndarray:
    """<G| S_v |G> for every vertex (all should be 1)."""
    return np.array([expectation(gs.state, stabilizer(gs.graph, v))
                     for v in range(gs.graph.n)])
