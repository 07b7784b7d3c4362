"""One-shot honesty test over a triangle-covered graph.

A single trial samples one subtest: a stabilizer check at a vertex
(weight |V|/N_G), a triangle product expected to be -1 (|T|/N_G), or a
rotation correlation (2|V|/N_G) that ties a prover's R(+-theta) response
to X and Z references on its neighbors, CHSH-style.  N_G = 3|V| + |T|.

The rotation subtest at vertex v first draws the sign t and then splits
into an X branch with probability cos(theta_v)/(cos+|sin|), querying
R_v(t theta_v) against Z on the neighborhood, and a Z branch querying
R_v(t theta_v) X_u Z^{A1_u + 1_v} with the product premultiplied by t.

Honest provers pass with probability exactly
c_test = (2|V| + |T| + sum_v 1/(cos theta_v + |sin theta_v|)) / N_G,
and no quantum strategy can do better.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from . import bounds
from .graphs import Graph, TriangleCover, support, triangle_cover, unit, vertex_angles, xor
from .provers import (
    ProverSet,
    Query,
    R_MINUS,
    R_PLUS,
    X_LABEL,
    Z_LABEL,
    classical_provers,
    execute_query,
    query_expectation,
)

VERTEX = "vertex"
TRIANGLE = "triangle"
RTHETA_X = "rtheta-x"
RTHETA_Z = "rtheta-z"


@dataclass(frozen=True)
class Subtest:
    """One atom of the test: a query, its accept target, and its weight."""

    kind: str
    query: Query
    target: int
    weight: float
    vertex: int | None = None
    t: int | None = None


@dataclass(frozen=True, eq=False)
class TestParameters:
    """Graph, cover, per-vertex angles (``graphs.vertex_angles``), and the fixed partner choice."""

    graph: Graph
    cover: TriangleCover
    theta: tuple[float, ...]
    u_choice: tuple[int, ...]
    subtests: tuple[Subtest, ...] = field(init=False, repr=False)

    def __post_init__(self):
        g = self.graph
        if g.n < 1:
            raise ValueError("the test needs a graph with at least one vertex")
        object.__setattr__(self, "theta", vertex_angles(g, self.theta))
        if len(self.u_choice) != g.n:
            raise ValueError("u_choice must cover every vertex")
        for v, u in enumerate(self.u_choice):
            if not g.adjacency[v, u]:
                raise ValueError(f"u_choice[{v}] = {u} is not a neighbor")
        TriangleCover.validate(g, self.cover.triangles)
        object.__setattr__(self, "subtests", _build_subtests(self))
        # the CDF Generator.choice(p=law) builds, as a tuple of floats, so
        # one draw is a bisect_right
        weights = np.array([s.weight for s in self.subtests])
        cdf = (weights / weights.sum()).cumsum()
        object.__setattr__(self, "_cdf", tuple((cdf / cdf[-1]).tolist()))

    @property
    def n_g(self) -> int:
        return 3 * self.graph.n + len(self.cover.triangles)


class TestOutcome(NamedTuple):
    subtest: Subtest
    accepted: bool


def default_parameters(graph: Graph, theta=None) -> TestParameters:
    """Canonical parameters: greedy cover, pi/4 angles, smallest neighbor.

    ``theta`` is read by ``graphs.vertex_angles`` (None: pi/4 everywhere).  The
    parameters are built once per process for each graph object and angle
    tuple (the last 16 kept) and shared by every run on them: they are
    immutable, and so are their subtests' queries, whose keys are built on
    first use.  A graph with a vertex in no triangle is refused before its
    angles are read.
    """
    try:
        angles = vertex_angles(graph, math.pi / 4 if theta is None else theta)
    except ValueError:
        triangle_cover(graph)  # a vertex in no triangle is named first
        raise
    return _default_parameters(graph, angles)


@lru_cache(maxsize=16)
def _default_parameters(graph: Graph, theta: tuple[float, ...]) -> TestParameters:
    cover = triangle_cover(graph)  # first: it names a vertex in no triangle
    u_choice = tuple(min(graph.neighbors(v)) for v in range(graph.n))
    return TestParameters(graph, cover, theta, u_choice)


def _build_subtests(params: TestParameters) -> tuple[Subtest, ...]:
    g = params.graph
    n = g.n
    w = 1.0 / params.n_g
    out: list[Subtest] = []
    for v in range(n):
        assigned = {v: X_LABEL}
        assigned.update({u: Z_LABEL for u in g.neighbors(v)})
        out.append(Subtest(VERTEX, Query.from_assignments(n, assigned),
                           target=1, weight=w, vertex=v))
    for tau in params.cover.triangles:
        assigned = {v: X_LABEL for v in support(tau)}
        assigned.update({v: Z_LABEL for v in support(g.mul(tau))})
        out.append(Subtest(TRIANGLE, Query.from_assignments(n, assigned),
                           target=-1, weight=w))
    for v in range(n):
        cos_v = math.cos(params.theta[v])
        sin_v = abs(math.sin(params.theta[v]))
        w_x = w * cos_v / (cos_v + sin_v)
        w_z = w * sin_v / (cos_v + sin_v)
        u = params.u_choice[v]
        z_support = support(xor(g.neighborhood(u), unit(n, v)))
        neighbors = g.neighbors(v)
        for t in (1, -1):
            r_label = R_PLUS if t == 1 else R_MINUS
            assigned_x = {v: r_label}
            assigned_x.update({nb: Z_LABEL for nb in neighbors})
            out.append(Subtest(RTHETA_X,
                               Query.from_assignments(n, assigned_x),
                               target=1, weight=w_x, vertex=v, t=t))
            assigned_z = {v: r_label, u: X_LABEL}
            assigned_z.update({nb: Z_LABEL for nb in z_support})
            out.append(Subtest(RTHETA_Z,
                               Query.from_assignments(n, assigned_z, sign=t),
                               target=1, weight=w_z, vertex=v, t=t))
    return tuple(out)


def run_oneshot(p: ProverSet, params: TestParameters,
                rng: np.random.Generator) -> TestOutcome:
    """Sample one subtest per the test's law and execute it.  The draw is
    ``Generator.choice``'s own CDF lookup, one ``rng.random()`` placed by
    ``bisect_right`` in the stored CDF, without choice's per-call check of p.
    The one TestOutcome maker: ``tuple.__new__`` skips NamedTuple's Python call."""
    subtest = params.subtests[bisect_right(params._cdf, rng.random())]
    accepted = execute_query(p, subtest.query, rng) == subtest.target
    return tuple.__new__(TestOutcome, (subtest, accepted))


def c_test(params: TestParameters) -> float:
    """Honest (and maximal quantum) pass probability."""
    total = sum(1 / (math.cos(th) + abs(math.sin(th))) for th in params.theta)
    return (2 * params.graph.n + len(params.cover.triangles) + total) / params.n_g


def s_test(params: TestParameters, delta: float) -> float:
    """Ceiling for provers delta-far from honest (simplified constant)."""
    return c_test(params) - bounds.cor3_gap(delta, params.graph.n)


def subtest_breakdown(p: ProverSet, params: TestParameters
                      ) -> list[tuple[Subtest, float]]:
    """Exact accept probability of every subtest, no sampling."""
    return [(s, (1 + s.target * query_expectation(p, s.query)) / 2)
            for s in params.subtests]


def exact_pass_probability(p: ProverSet, params: TestParameters) -> float:
    """Closed-form overall pass probability (weighted over subtests)."""
    return sum(s.weight * accept for s, accept in subtest_breakdown(p, params))


def rtheta_success(p: ProverSet, params: TestParameters, v: int) -> float:
    """Pass probability conditioned on the rotation subtest at v."""
    relevant = [(s, a) for s, a in subtest_breakdown(p, params)
                if s.kind in (RTHETA_X, RTHETA_Z) and s.vertex == v]
    total_w = sum(s.weight for s, _ in relevant)
    return sum(s.weight * a for s, a in relevant) / total_w


def best_classical_rtheta(params: TestParameters, v: int) -> tuple[float, dict]:
    """Exhaustive deterministic optimum of the rotation subtest at v.

    The subtest's statistics depend only on four +-1 values: the replies
    a, b of v to R+ and R-, the Z product c over N(v), and the X_u-side
    product d.  Each of the 16 combinations is realized by a concrete
    reply table and scored through the standard query path.
    """
    g = params.graph
    u = params.u_choice[v]
    witness = min(g.neighbors(v))
    u_side = set(support(xor(g.neighborhood(u), unit(g.n, v))))
    best_rate = -1.0
    best = {}
    for a, b, c, d in iter_product((1, -1), repeat=4):
        table = {(w, label): 1 for w in range(g.n)
                 for label in (X_LABEL, Z_LABEL, R_PLUS, R_MINUS)}
        table[(v, R_PLUS)] = a
        table[(v, R_MINUS)] = b
        table[(witness, Z_LABEL)] = c
        # the witness may also sit on the u side; fold the compensation
        # into u's X reply so the two products stay independent knobs
        compensation = c if witness in u_side else 1
        table[(u, X_LABEL)] = d * compensation
        rate = rtheta_success(classical_provers(g.n, table), params, v)
        if rate > best_rate:
            best_rate = rate
            best = {"a": a, "b": b, "c": c, "d": d}
    return best_rate, best
