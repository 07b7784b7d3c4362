"""Bitstrings over GF(2)/Z and the graph structures built on them.

Bitstrings are numpy uint8 arrays indexed by vertex; ``dot`` is their
dot product over the integers.  Graphs carry a symmetric, loop-free
adjacency bit-matrix, checked at construction, plus the edge list
derived from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .statevec import qubit_cap


class UncoverableVertexError(ValueError):
    """Raised when a vertex lies in no triangle of the graph."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} lies in no triangle")


def unit(n: int, v: int) -> np.ndarray:
    """The indicator string 1_v."""
    out = np.zeros(n, dtype=np.uint8)
    out[v] = 1
    return out


def as_int(value, what: str) -> int:
    """``value`` as an int if it is one (JSON or numpy integer).

    Input parsers use this instead of ``int()``, which would read 1.7 as 1
    and ``true`` as 1; anything else raises ValueError naming ``what``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_list(value, what: str, length: int | None = None) -> list:
    """``value`` if it is a JSON list (of ``length`` items when given);
    anything else raises ValueError naming ``what``, where unpacking or
    iterating it would raise Python's own message."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length}"
        raise ValueError(f"{what} must be a list{size}, got {value!r}")
    return value


def as_dict(value, what: str) -> dict:
    """``value`` if it is a JSON object; anything else raises ValueError
    naming ``what``, where looking up a key would raise Python's own
    message."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def as_real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number (JSON or numpy).

    Input parsers use this instead of ``float()``, which would read ``true``
    as 1.0 and "0.05" as 0.05; booleans, strings, inf, nan and integers
    beyond the float range raise ValueError naming ``what``.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real):
            return real
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def checked_size(n: int) -> int:
    """``n`` if a graph of n vertices fits the qubit cap, else ValueError.

    Input boundaries call this before ``Graph.from_edges`` allocates the
    n x n adjacency; ``from_edges`` itself takes any size.
    """
    if not 0 <= n <= qubit_cap():
        raise ValueError(f"the graph size must lie in [0, {qubit_cap()}], got {n}")
    return n


def dot(s: np.ndarray, t: np.ndarray) -> int:
    """s . t over the integers."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return int(np.dot(s.astype(np.int64), t.astype(np.int64)))


def xor(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    return np.bitwise_xor(s, t)


def support(s: np.ndarray) -> list[int]:
    return s.ravel().nonzero()[0].tolist()


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with adjacency matrix and edge list.

    Immutable after construction; the edge list (u < v, ascending) is
    derived from the matrix, so the two always agree.
    """

    n: int
    adjacency: np.ndarray
    edges: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise ValueError("self-loops are not allowed")
        object.__setattr__(self, "edges", tuple(
            (int(u), int(v))
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if a[u, v]
        ))
        a.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            a[u, v] = a[v, u] = 1
        return cls(n=n, adjacency=a)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].sum())

    def neighborhood(self, v: int) -> np.ndarray:
        """Characteristic vector A . 1_v of the neighbourhood of v."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        return self.adjacency[v].copy()

    def neighbors(self, v: int) -> list[int]:
        return support(self.neighborhood(v))

    def mul(self, x: np.ndarray) -> np.ndarray:
        """A . x over GF(2)."""
        if len(x) != self.n:
            raise ValueError("bitstring length mismatch")
        return (self.adjacency.astype(np.int64) @ x.astype(np.int64) % 2).astype(np.uint8)

    def is_triangle(self, tau: np.ndarray) -> bool:
        verts = support(tau)
        if len(verts) != 3:
            return False
        a, b, c = verts
        adj = self.adjacency
        return bool(adj[a, b] and adj[a, c] and adj[b, c])

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        obj = as_dict(obj, "a graph")
        n = checked_size(as_int(obj["n"], "the graph size"))
        return cls.from_edges(n,
                              [(as_int(u, "an edge vertex"), as_int(v, "an edge vertex"))
                               for u, v in (as_list(e, "an edge", 2)
                                            for e in as_list(obj["edges"], "edges"))])


@dataclass(frozen=True)
class TriangleCover:
    """A set of triangles (characteristic vectors) covering every vertex."""

    triangles: tuple[np.ndarray, ...]

    @staticmethod
    def validate(graph: Graph, triangles) -> None:
        """Raise unless ``triangles`` are at most n graph triangles covering every vertex."""
        covered = np.zeros(graph.n, dtype=np.uint8)
        for tau in triangles:
            if not graph.is_triangle(tau):
                raise ValueError(f"{support(tau)} is not a triangle of the graph")
            covered |= tau
        if not np.all(covered):
            missing = int(np.flatnonzero(covered == 0)[0])
            raise UncoverableVertexError(missing)
        if len(triangles) > graph.n:
            raise ValueError("cover uses more than n triangles")


def triangles_containing(graph: Graph, v: int) -> list[tuple[int, int, int]]:
    """All triangles through v, as sorted vertex triples, ascending."""
    found = []
    nbrs = graph.neighbors(v)
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if graph.adjacency[a, b]:
                found.append(tuple(sorted((v, a, b))))
    return sorted(set(found))


def triangle_cover(graph: Graph) -> TriangleCover:
    """Greedy cover: scan vertices ascending, take the lexicographically
    smallest triangle through each still-uncovered vertex."""
    covered = np.zeros(graph.n, dtype=np.uint8)
    chosen = []
    for v in range(graph.n):
        if covered[v]:
            continue
        options = triangles_containing(graph, v)
        if not options:
            raise UncoverableVertexError(v)
        tri = options[0]
        tau = np.zeros(graph.n, dtype=np.uint8)
        tau[list(tri)] = 1
        chosen.append(tau)
        covered |= tau
    return TriangleCover(tuple(chosen))


def triangular_lattice(rows: int, cols: int) -> Graph:
    """Row-major triangulated grid: grid edges plus one diagonal per cell.

    This is the canonical lattice for reproducible edge counts; every
    vertex lies in a triangle and the maximum degree is 6.
    """
    if rows < 2 or cols < 2:
        raise ValueError("lattice needs rows >= 2 and cols >= 2")
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if c + 1 < cols and r + 1 < rows:
                edges.append((v, v + cols + 1))
    return Graph.from_edges(n, edges)


def triangle_strip(k: int) -> Graph:
    """Path of triangles: edges (i, i+1) and (i, i+2); any size k >= 3."""
    if k < 3:
        raise ValueError("strip needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(i, i + 2) for i in range(k - 2)]
    return Graph.from_edges(k, edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, not {n}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

