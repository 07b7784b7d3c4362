"""Adaptive measurement patterns on graph states.

A pattern measures vertices in order.  Each step's angle sign is chosen
by the parity of earlier raw outcomes named in ``x_deps`` (sent to the
prover as an R+ or R- label), and the step's reported outcome is the raw
outcome flipped by the parity of ``z_deps``.  The run's output bit is
the parity of the corrected outcomes over ``output_bits``.

``run_distribution`` gives the exact output law by enumerating every
outcome branch through a prover set's observables; ``reference_run`` is
that law for honest provers measuring at the pattern's own angles on the
ideal graph state, so the two can be compared without sampling noise.
Sampled runs and exact laws walk the prover set's outcome tree.  A
sampled run returns its output bit, what the verifier reads, and the raw
outcomes it computed the bit from.

``chain_law`` is the law of a pattern on a path graph measured in order,
from cascaded teleportation of one logical qubit in the protocol's X-Z
plane (Raussendorf and Briegel, quant-ph/0010033).  It builds no state
vector and runs no prover code, so it checks the engine from outside.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import Graph, as_dict, as_int, as_list, as_real
from .provers import ProverSet, R_MINUS, R_PLUS, TreeWalk, honest_provers


class DependencyError(ValueError):
    pass


class MissingAngleSupportError(ValueError):
    pass


@dataclass(frozen=True)
class PatternStep:
    vertex: int
    theta: float
    x_deps: tuple[int, ...] = ()
    z_deps: tuple[int, ...] = ()


@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered adaptive measurements plus the output parity set."""

    steps: tuple[PatternStep, ...]
    output_bits: tuple[int, ...]

    def __post_init__(self):
        measured: set[int] = set()
        for k, step in enumerate(self.steps):
            if step.vertex < 0:
                raise ValueError(f"step {k} has negative vertex {step.vertex}")
            if step.vertex in measured:
                raise DependencyError(f"vertex {step.vertex} measured twice")
            if not 0 <= step.theta <= math.pi / 2:
                raise ValueError(f"step {k} angle {step.theta} outside [0, pi/2]")
            for dep in (*step.x_deps, *step.z_deps):
                if dep not in measured:
                    raise DependencyError(
                        f"step {k} depends on {dep}, not yet measured")
            measured.add(step.vertex)
        for v in self.output_bits:
            if v not in measured:
                raise DependencyError(f"output bit {v} is never measured")

    @property
    def vertices(self) -> list[int]:
        return [s.vertex for s in self.steps]

    @cached_property
    def _walk_steps(self) -> tuple[tuple, ...]:
        """What ``run_pattern`` reads per step: its vertex, x_deps and the
        one-key walk of each angle sign t (R+ or R-)."""
        return tuple((s.vertex, s.x_deps, {1: ((s.vertex, R_PLUS),),
                                           -1: ((s.vertex, R_MINUS),)})
                     for s in self.steps)

    @cached_property
    def _output_deps(self) -> tuple[int, ...]:
        """The vertices whose raw outcomes multiply to the output product:
        those that the output bits and their z_deps name an odd number of times."""
        named = Counter(u for v in self.output_bits for u in (v, *self.step_for(v).z_deps))
        return tuple(sorted(u for u, times in named.items() if times % 2))

    def step_for(self, vertex: int) -> PatternStep:
        for step in self.steps:
            if step.vertex == vertex:
                return step
        raise KeyError(vertex)

    def to_json(self) -> dict:
        return {
            "steps": [{"v": s.vertex, "theta": s.theta,
                       "x_deps": list(s.x_deps), "z_deps": list(s.z_deps)}
                      for s in self.steps],
            "output_bits": list(self.output_bits),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MeasurementPattern":
        def ints(value, what: str, each: str) -> tuple[int, ...]:
            return tuple(as_int(x, each) for x in as_list(value, what))

        obj = as_dict(obj, "a pattern")
        steps = tuple(
            PatternStep(as_int(s["v"], "a step vertex"), as_real(s["theta"], "a step angle"),
                        ints(s.get("x_deps", []), "x_deps", "a dependency"),
                        ints(s.get("z_deps", []), "z_deps", "a dependency"))
            for s in (as_dict(step, "a step") for step in as_list(obj["steps"], "steps"))
        )
        return cls(steps, ints(obj["output_bits"], "output_bits", "an output bit"))


def _parity(raw: dict[int, int], deps) -> int:
    sign = 1
    for dep in deps:
        sign *= raw[dep]
    return sign


def _output_bit(pattern: MeasurementPattern, raw) -> int:
    return (1 - _parity(raw, pattern._output_deps)) // 2


def require_support(pattern: MeasurementPattern, n: int) -> None:
    """Refuse a pattern that measures a vertex outside 0 .. n-1."""
    for step in pattern.steps:
        if step.vertex >= n:
            raise MissingAngleSupportError(
                f"no prover for pattern vertex {step.vertex}")


def run_pattern(p: ProverSet, pattern: MeasurementPattern,
                rng: np.random.Generator) -> tuple[int, dict[int, int]]:
    """Execute the pattern against a prover set, one query per step; return
    the output bit and ``raw``, each measured vertex's raw outcome in step order.

    A quantum set's outcomes come from a walk of its outcome tree, one
    ``provers.TreeWalk.steps`` per step, drawn as a chain of ``measure``
    calls would draw them; a classical set reads its table and draws
    nothing, so ``rng`` may be None.
    """
    require_support(pattern, p.n)
    raw: dict[int, int] = {}
    walk = None if p.tree is None else TreeWalk(p.tree)
    for v, x_deps, keys in pattern._walk_steps:
        key = keys[_parity(raw, x_deps)]
        raw[v] = (p.strategy.table[v][key[0][1]] if walk is None
                  else walk.steps(key, rng))
    return _output_bit(pattern, raw), raw


def _branch_distribution(walk: TreeWalk, pattern: MeasurementPattern
                         ) -> dict[int, float]:
    """Exact output law by enumerating every outcome branch of the tree."""
    dist = {0: 0.0, 1: 0.0}

    def visit(position: TreeWalk, k: int, raw: dict[int, int], weight: float):
        if k == len(pattern.steps):
            dist[_output_bit(pattern, raw)] += weight
            return
        step = pattern.steps[k]
        label = R_PLUS if _parity(raw, step.x_deps) == 1 else R_MINUS
        for outcome, prob, child in position.branches(step.vertex, label):
            raw[step.vertex] = outcome
            visit(child, k + 1, raw, weight * prob)
            del raw[step.vertex]

    visit(walk, 0, {}, 1.0)
    return dist


def reference_run(graph: Graph, pattern: MeasurementPattern) -> dict[int, float]:
    """Ideal output distribution: the pattern on |G> with exact rotations.

    That is ``run_distribution`` for honest provers whose R+- angles are the
    pattern's (other vertices are never measured and get angle 0), kept
    for the last few (graph, pattern) pairs and returned as a fresh dict.
    """
    return dict(_reference_law(graph, pattern))


@lru_cache(maxsize=16)
def _reference_law(graph: Graph, pattern: MeasurementPattern) -> dict[int, float]:
    theta = dict.fromkeys(range(graph.n), 0.0)
    theta.update((step.vertex, step.theta) for step in pattern.steps)
    return run_distribution(honest_provers(graph, theta), pattern)


def chain_law(pattern: MeasurementPattern, n: int) -> dict[int, float]:
    """Exact output law of ``pattern`` on the path 0-1-...-(n-1), step j at vertex j.

    The unmeasured rest of the path carries one logical qubit psi = H (a, b),
    from (a, b) = |0>.  Measuring a vertex at angle t (after the ``x_deps``
    flip) with outcome s maps psi <- H diag(m_s) psi, m_s the real
    eigenvector of cos(t) X + sin(t) Z for s.  The last vertex has no
    neighbour after it: measuring it leaves the amplitude m_s . psi = a + b.
    A branch's probability is the squared norm of what is left.
    """
    k = len(pattern.steps)
    if k > n or pattern.vertices != list(range(k)):
        raise ValueError(f"a chain law needs steps at 0, 1, ..., k-1 in order, k <= {n}")
    dist = {0: 0.0, 1: 0.0}
    for raw in itertools.product((1, -1), repeat=k):  # raw[j]: the outcome at vertex j
        a, b = 1.0, 0.0
        for step, s in zip(pattern.steps, raw):
            phi = math.pi / 4 - _parity(raw, step.x_deps) * step.theta / 2
            c, d = math.cos(phi) / math.sqrt(2), math.sin(phi) / math.sqrt(2)
            a, b = (c * (a + b), d * (a - b)) if s == 1 else (d * (a + b), -c * (a - b))
        dist[_output_bit(pattern, raw)] += (a + b) ** 2 if k == n else a * a + b * b
    return dist


def run_distribution(p: ProverSet, pattern: MeasurementPattern) -> dict[int, float]:
    """Exact output distribution through the prover set's observables."""
    require_support(pattern, p.n)
    if p.is_classical:
        bit, _ = run_pattern(p, pattern, None)
        return {bit: 1.0, 1 - bit: 0.0}
    return _branch_distribution(TreeWalk(p.tree), pattern)


def total_variation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
