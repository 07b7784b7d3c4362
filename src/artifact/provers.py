"""Untrusted-device model: a shared state plus per-prover strategies.

Each prover answers one of four query labels (X, Z, R+, R-) with +-1.
Quantum strategies assign a single-qubit observable per label, measured
on the prover's own qubit of the shared state; classical strategies are
deterministic reply tables.  "Ignore" means no query is sent and the
reply is taken to be +1.

Prover v owns qubit v of the shared state.  The state may carry extra
unmeasured qubits beyond the provers' own (indices >= n), which models
private ancillas without changing the reply interface.

A quantum prover set never changes: its shared state is read-only from
construction on, and its observables are fixed.  So every time the set
sees the same measurements with the same outcome prefix it reaches the
same Born probabilities, and its ``OutcomeTree`` caches them.  Sampled
queries, sampled pattern runs and exact pattern laws all walk that tree.
A sampled query returns only its reply product, the one number a test
round's verifier reads, which each tree node keeps for its path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, as_int, as_real
from .graphstate import build_graph_state
from .statevec import (
    MIN_BRANCH_P,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    NormUnderflowError,
    ProductObservable,
    SingleQubitObservable,
    StateVector,
    expectation,
    measure,
    project,
)

X_LABEL = "X"
Z_LABEL = "Z"
R_PLUS = "R+"
R_MINUS = "R-"
IGNORE = "ignore"
QUERY_LABELS = (X_LABEL, Z_LABEL, R_PLUS, R_MINUS)
# an outcome-tree node keeps a state of at most this many amplitudes, no more
# memory than the node's own bookkeeping: every state of K3, few of a lattice's
KEEP_AMPS = 64


class IncompleteTableError(ValueError):
    pass


@dataclass(frozen=True)
class Query:
    """Per-prover query labels plus a verifier-side +-1 prefactor."""

    bases: tuple[str, ...]
    sign: int = 1

    def __post_init__(self):
        for b in self.bases:
            if b not in QUERY_LABELS and b != IGNORE:
                raise ValueError(f"unknown query label {b!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")

    @staticmethod
    def from_assignments(n: int, assigned: dict[int, str], sign: int = 1) -> "Query":
        bases = [IGNORE] * n
        for v, label in assigned.items():
            bases[v] = label
        return Query(tuple(bases), sign)

    @cached_property
    def queried(self) -> tuple[int, ...]:
        """The vertices the query sends a label to, ascending."""
        return tuple(v for v, b in enumerate(self.bases) if b != IGNORE)

    @cached_property
    def keys(self) -> tuple[tuple[int, str], ...]:
        """(vertex, label) of each queried vertex, ascending."""
        return tuple((v, self.bases[v]) for v in self.queried)


def _require_every_label(per_prover: tuple[dict, ...]) -> None:
    for v, per_label in enumerate(per_prover):
        missing = [l for l in QUERY_LABELS if l not in per_label]
        if missing:
            raise IncompleteTableError(f"prover {v} missing labels {missing}")


@dataclass(frozen=True)
class QuantumStrategy:
    """observables[v][label] -> SingleQubitObservable on prover v's qubit."""

    observables: tuple[dict[str, SingleQubitObservable], ...]

    def __post_init__(self):
        _require_every_label(self.observables)

    @property
    def n(self) -> int:
        return len(self.observables)


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic +-1 replies per (prover, label)."""

    table: tuple[dict[str, int], ...]

    def __post_init__(self):
        _require_every_label(self.table)
        for v, per_label in enumerate(self.table):
            # exactly int: 1.0, True and np.int64(1) compare equal to 1 but
            # would carry their own type into every product and record
            bad = [l for l, r in per_label.items() if type(r) is not int or r not in (1, -1)]
            if bad:
                raise ValueError(f"prover {v} has non +-1 replies for {bad}")

    @property
    def n(self) -> int:
        return len(self.table)


class _Branching:
    """One measurement from a tree node: per outcome, at index 1 or -1 of
    lists of three, its Born probability and its child node, None until known."""

    __slots__ = ("p", "child")

    def __init__(self, p_plus: float | None = None):
        self.p, self.child = [None, p_plus, None], [None, None, None]


class _Node(dict):
    """A tree node: maps each next (vertex, label) to a ``_Branching``, and
    holds ``path``, the (key, outcome) steps from the root to it (no link up,
    which would make every tree a reference cycle), the bitmask ``gone`` of
    the vertices they measured, ``product``, the product of their outcomes,
    and its kept state."""

    __slots__ = ("path", "gone", "product", "state")

    def __init__(self, parent=None, key=None, outcome=None, state=None):
        self.path = () if parent is None else (*parent.path, (key, outcome))
        self.gone = 0 if parent is None else parent.gone | 1 << key[0]
        self.product = 1 if parent is None else parent.product * outcome
        self.keep(state)

    def keep(self, state: StateVector | None) -> None:
        self.state = state if state is None or len(state.amplitudes) <= KEEP_AMPS else None

    def qubit(self, v: int) -> int:
        """Vertex v's qubit here: each measurement took its qubit out."""
        return v - (self.gone & ((1 << v) - 1)).bit_count()


class OutcomeTree:
    """Cached Born probabilities of one prover set's measurement sequences.

    A node stands for the state reached from the shared state by a path of
    (vertex, label, outcome) measurements, no vertex twice: a query names
    distinct vertices, and a pattern refuses a repeat.  The root keeps the
    shared state and a node a small one; a walk rebuilds any other with
    ``project``, bit for bit ``measure``'s branch.  Every path from the
    root gives the same bits, so a cached probability is exactly the one
    ``measure`` would compute there.
    """

    def __init__(self, state: StateVector,
                 observables: tuple[dict[str, SingleQubitObservable], ...]):
        self.observables, self.root = observables, _Node()
        self.root.state = state


class TreeWalk:
    """A position in an outcome tree: its node, and ``at``, the deepest node
    on the path to it whose ``state`` the walk holds; by default the root."""

    __slots__ = ("tree", "node", "at", "state")

    def __init__(self, tree: OutcomeTree, node: _Node | None = None,
                 at: _Node | None = None, state: StateVector | None = None):
        if node is None:
            node = at = tree.root
            state = node.state
        self.tree, self.node, self.at, self.state = tree, node, at, state

    def _materialize(self) -> StateVector:
        """The node's state: down the path from ``at``'s, each node's kept
        state or else its branch by ``project``."""
        node, state = self.at, self.state
        for key, outcome in self.node.path[len(node.path):]:
            node = node[key].child[outcome]
            if node.state is None:
                v, label = key
                state = project(state, self.tree.observables[v][label], node.qubit(v), outcome)[1]
                node.keep(state)
            else:
                state = node.state
        self.at, self.state = self.node, state
        return state

    def _enter(self, b: _Branching, key: tuple[int, str], outcome: int
               ) -> "TreeWalk | None":
        """A new walk into ``outcome``'s branch of ``b``, the branching of
        ``key`` here, or None if it is impossible.  An uncached probability
        is computed with ``project``, whose branch the new walk holds."""
        p, at, state = b.p[outcome], self.at, self.state
        if p is None:
            v, label = key
            p, state = project(self._materialize(), self.tree.observables[v][label],
                               self.node.qubit(v), outcome)
            b.p[outcome], at = p, None
            if state is None:
                return None
        elif p < MIN_BRANCH_P:
            return None
        child = b.child[outcome]
        if child is None:
            child = b.child[outcome] = _Node(self.node, key, outcome)
        if at is None:
            child.keep(state)
            at = child
        return TreeWalk(self.tree, child, at, state)

    def steps(self, keys: tuple[tuple[int, str], ...], rng: np.random.Generator
              ) -> int:
        """Measure each (vertex, label) of ``keys`` in turn, stepping into
        the drawn branch, and return the last outcome; the walk's node's
        ``path`` ends in all of them.  One ``rng.random()`` per key against
        the +1 probability, the draw ``measure`` makes, so the stream and the
        outcomes are those of a chain of ``measure`` calls.  A cached step
        is two lookups and a draw; an uncached one goes through ``measure``
        or ``_enter``.  Drawing an impossible branch raises NormUnderflowError."""
        random, node, outcome = rng.random, self.node, 0
        for key in keys:
            b = node.get(key)
            if b is not None:
                outcome = 1 if random() < b.p[1] else -1
                child = b.child[outcome]
                if child is not None:
                    node = child
                    continue
            self.node = node
            if b is None:
                v, label = key
                outcome, state, p_plus = measure(
                    self._materialize(), self.tree.observables[v][label],
                    node.qubit(v), rng)
                b = node[key] = _Branching(p_plus)
                node = self.at = b.child[outcome] = _Node(node, key, outcome, state)
                self.state = state
            else:
                walk = self._enter(b, key, outcome)
                if walk is None:
                    raise NormUnderflowError("measured an impossible branch")
                node, self.at, self.state = walk.node, walk.at, walk.state
        self.node = node
        return outcome

    def branches(self, v: int, label: str) -> Iterator[tuple[int, float, "TreeWalk"]]:
        """Every possible outcome of measuring ``label`` on vertex v's
        qubit, +1 first, with its probability and a walk into its branch.
        Lazy, so an enumeration holds one branch state per level, not two."""
        b = self.node.get((v, label))
        if b is None:
            b = self.node[(v, label)] = _Branching()
        for outcome in (1, -1):
            walk = self._enter(b, (v, label), outcome)
            if walk is not None:
                yield outcome, b.p[outcome], walk


@dataclass(frozen=True)
class ProverSet:
    """A strategy bound to its shared state (None for classical).

    A quantum set marks its state's amplitudes read-only and owns an
    ``OutcomeTree``; ``clone()`` shares both, a new strategy gets its own
    tree.
    """

    n: int
    strategy: QuantumStrategy | ClassicalStrategy
    shared_state: StateVector | None
    tree: OutcomeTree | None = field(init=False, default=None, compare=False,
                                     repr=False)

    def __post_init__(self):
        if self.strategy.n != self.n:
            raise ValueError("strategy size does not match prover count")
        if isinstance(self.strategy, QuantumStrategy):
            if self.shared_state is None:
                raise ValueError("quantum strategy needs a shared state")
            if self.shared_state.n_qubits < self.n:
                raise ValueError("shared state too small for prover count")
            self.shared_state.amplitudes.setflags(write=False)
            object.__setattr__(self, "tree", OutcomeTree(
                self.shared_state, self.strategy.observables))
        elif self.shared_state is not None:
            raise ValueError("classical strategy does not use a shared state")

    @property
    def is_classical(self) -> bool:
        return isinstance(self.strategy, ClassicalStrategy)

    def observable(self, v: int, label: str) -> SingleQubitObservable:
        return self.strategy.observables[v][label]

    def clone(self) -> "ProverSet":
        """The set itself: its state is read-only and every kernel writes a
        fresh output, so a trial cannot change it and needs no copy."""
        return self


def honest_provers(graph: Graph, theta: dict[int, float]) -> ProverSet:
    """Graph state plus the ideal X, Z, R(+-theta_v) observables."""
    per_prover = []
    for v in range(graph.n):
        th = float(theta[v])
        if not 0 <= th <= math.pi / 2:
            raise ValueError(f"theta[{v}] = {th} outside [0, pi/2]")
        per_prover.append({
            X_LABEL: SingleQubitObservable.x(),
            Z_LABEL: SingleQubitObservable.z(),
            R_PLUS: SingleQubitObservable.rotation(th),
            R_MINUS: SingleQubitObservable.rotation(-th),
        })
    strategy = QuantumStrategy(tuple(per_prover))
    return ProverSet(graph.n, strategy, build_graph_state(graph))


def _xz_angle(m: np.ndarray) -> float:
    """Angle a with m = cos(a) X + sin(a) Z; error if off-plane."""
    a_x = np.trace(m @ PAULI_X).real / 2
    a_z = np.trace(m @ PAULI_Z).real / 2
    a_y = np.trace(m @ PAULI_Y) / 2
    a_i = np.trace(m @ PAULI_I) / 2
    if abs(a_y) > 1e-9 or abs(a_i) > 1e-9:
        raise ValueError("observable is not in the X-Z plane")
    return math.atan2(a_z, a_x)


def perturbed_provers(base: ProverSet, eta: float, rng: np.random.Generator) -> ProverSet:
    """Rotate every observable's X-Z axis by an independent U(-eta, eta).
    The new set shares the base's read-only state and gets its own tree."""
    # rng.uniform(-eta, eta) needs the width 2 eta to be a finite float
    if not 0 <= 2 * eta < math.inf:
        raise ValueError(f"eta must be nonnegative with 2 eta finite, got {eta!r}")
    if base.is_classical:
        raise ValueError("cannot perturb classical provers")
    per_prover = []
    for v in range(base.n):
        noisy = {}
        for label in QUERY_LABELS:
            angle = _xz_angle(base.observable(v, label).matrix)
            angle += rng.uniform(-eta, eta)
            noisy[label] = SingleQubitObservable.rotation(angle)
        per_prover.append(noisy)
    return ProverSet(base.n, QuantumStrategy(tuple(per_prover)), base.shared_state)


def xz_plane_provers(state: StateVector, angles: list[dict[str, float]]) -> ProverSet:
    """Adversarial strategy from arbitrary per-label X-Z angles, one prover
    per entry of ``angles``."""
    per_prover = tuple(
        {label: SingleQubitObservable.rotation(per_label[label])
         for label in QUERY_LABELS}
        for per_label in angles
    )
    return ProverSet(len(angles), QuantumStrategy(per_prover), state)


def classical_provers(n: int, table: dict[tuple[int, str], int]) -> ProverSet:
    """Deterministic provers; the table must cover every (vertex, label)."""
    per_prover = tuple({label: table[(v, label)] for label in QUERY_LABELS
                        if (v, label) in table} for v in range(n))
    return ProverSet(n, ClassicalStrategy(per_prover), None)


def constant_classical_provers(n: int, value: int = 1) -> ProverSet:
    table = {(v, label): value for v in range(n) for label in QUERY_LABELS}
    return classical_provers(n, table)


def execute_query(p: ProverSet, q: Query, rng: np.random.Generator) -> int:
    """Measure the queried qubits in ascending order; return the reply product.

    A quantum set's replies are one ``TreeWalk.steps`` from the root of its
    outcome tree: one ``rng.random()`` per queried qubit, the draws and
    replies of a chain of ``measure`` calls, a ``measure`` only where the
    tree has no probability cached, and the product its end node keeps.
    The product includes the query's verifier-side sign; ignored provers
    contribute +1.  A classical set reads its table and draws nothing, so
    ``rng`` may be None.  The caller's ProverSet is never mutated.
    """
    if len(q.bases) != p.n:
        raise ValueError("query length does not match prover count")
    if p.tree is None:
        return math.prod((p.strategy.table[v][label] for v, label in q.keys), start=q.sign)
    walk = TreeWalk(p.tree)
    walk.steps(q.keys, rng)
    return walk.node.product * q.sign


def query_expectation(p: ProverSet, q: Query) -> float:
    """The exact mean of the reply product ``execute_query`` samples.

    A quantum set's is <psi'| the query's joint +-1 observable |psi'>; a
    classical set's product is fixed, and its mean is that product.
    """
    if p.is_classical:
        return float(execute_query(p, q, None))
    terms = {v: p.observable(v, q.bases[v]).matrix for v in q.queried}
    return expectation(p.shared_state, ProductObservable(terms, sign=q.sign))


def _per_vertex(spec: dict, key: str, graph: Graph, parse) -> dict[tuple[int, str], float]:
    """``spec[key]`` read as {vertex: {label: value}} into (vertex, label) keys,
    each value read by ``parse(value, what)``."""
    entries = spec[key]
    if not isinstance(entries, dict):
        raise ValueError(f"\"{key}\" must map vertices to objects")
    out = {}
    for v, per_label in entries.items():
        vertex = int(v) if str(v).isdecimal() else -1
        if not 0 <= vertex < graph.n:
            raise ValueError(f"{key} given for vertex {v}, outside the graph")
        if not isinstance(per_label, dict):
            raise ValueError(f"{key} for vertex {v} must map labels to values")
        for label, value in per_label.items():
            if label not in QUERY_LABELS:
                raise ValueError(f"{key} for vertex {v} has unknown label {label!r}")
            out[(vertex, label)] = parse(value, f"{key}[{v}][{label}]")
    return out


def strategy_from_json(spec: dict, graph: Graph, theta: dict[int, float],
                       rng: np.random.Generator | None) -> ProverSet:
    """Build a ProverSet from a JSON strategy description.

    Kinds: {"kind": "honest"}; {"kind": "perturbed", "eta": 0.1};
    {"kind": "classical", "value": 1} or {"kind": "classical",
    "table": {"0": {"X": 1, ...}, ...}}; {"kind": "xz", "angles":
    {"0": {"X": 0.1, ...}, ...}} measured on the ideal graph state.
    A description of the wrong shape raises ValueError.  Only the
    perturbed kind draws from ``rng``; the others accept None.
    """
    if not isinstance(spec, dict):
        raise ValueError("a strategy must be a JSON object")
    kind = spec.get("kind")
    if kind == "honest":
        return honest_provers(graph, theta)
    if kind == "perturbed":
        if "eta" not in spec:
            raise ValueError("a perturbed strategy needs an \"eta\"")
        return perturbed_provers(honest_provers(graph, theta),
                                 as_real(spec["eta"], "eta"), rng)
    if kind == "classical":
        if "table" in spec:
            return classical_provers(graph.n, _per_vertex(spec, "table", graph, as_int))
        return constant_classical_provers(graph.n, as_int(spec.get("value", 1), "value"))
    if kind == "xz":
        if "angles" not in spec:
            raise ValueError("an xz strategy needs \"angles\"")
        angles = [dict.fromkeys(QUERY_LABELS, 0.0) for _ in range(graph.n)]
        for (v, label), a in _per_vertex(spec, "angles", graph, as_real).items():
            angles[v][label] = a
        return xz_plane_provers(build_graph_state(graph), angles)
    raise ValueError(f"unknown strategy kind {kind!r}")
