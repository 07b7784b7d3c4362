"""Graph container, families, triangle cover, and bitstring identities."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact.graphs import (Graph, TriangleCover, UncoverableVertexError,
                             complete_graph, dot, local_complement,
                             support, triangle_cover,
                             triangle_strip, triangles_containing,
                             triangular_lattice, unit, xor)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestGraphContainer:
    def test_edges_and_adjacency_agree(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1
        assert g.adjacency[0, 3] == 0
        assert g.edge_count == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_rejects_asymmetric_adjacency(self):
        a = np.zeros((3, 3), dtype=np.uint8)
        a[0, 1] = 1
        with pytest.raises(ValueError):
            Graph(3, a)

    def test_adjacency_is_frozen(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_json_round_trip(self):
        g = triangular_lattice(2, 3)
        again = Graph.from_json(json.loads(json.dumps(g.to_json())))
        assert again.n == g.n and again.edges == g.edges

    def test_degree_and_neighborhood(self):
        g = complete_graph(4)
        assert all(g.degree(v) == 3 for v in range(4))
        assert list(support(g.neighborhood(0))) == [1, 2, 3]

    def test_induced_edge_count_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, 6)
            t = rng.integers(0, 2, size=6)
            t_int = int(sum(int(b) << i for i, b in enumerate(t)))
            assert g.induced_edge_count(t) == oracles.induced_edges_of_int(
                t_int, g.edges)


class TestBitHelpers:
    def test_unit_vector(self):
        assert list(unit(4, 2)) == [0, 0, 1, 0]

    def test_dot_is_integer_valued(self):
        assert dot(np.array([1, 1, 0], np.uint8), np.array([1, 0, 1], np.uint8)) == 1
        assert dot(np.ones(2, np.uint8), np.ones(2, np.uint8)) == 2

    def test_xor(self):
        s, t = np.array([1, 1, 0], np.uint8), np.array([0, 1, 1], np.uint8)
        assert list(xor(s, t)) == [1, 0, 1]


class TestFamilies:
    def test_k3(self):
        g = complete_graph(3)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_strip_edges(self):
        g = triangle_strip(5)
        assert (0, 1) in g.edges and (0, 2) in g.edges and (3, 4) in g.edges
        assert (0, 3) not in g.edges

    def test_lattice_against_pairwise_predicate(self):
        for rows, cols in ((2, 2), (2, 3), (3, 4), (4, 3)):
            g = triangular_lattice(rows, cols)
            assert g.n == rows * cols
            assert list(g.edges) == oracles.lattice_edges_by_predicate(rows, cols)

    def test_three_by_four_lattice_size(self):
        g = triangular_lattice(3, 4)
        assert g.n == 12 and g.edge_count == 23


class TestTriangles:
    def test_triangles_containing(self):
        g = complete_graph(4)
        assert len(triangles_containing(g, 0)) == 3

    def test_cover_touches_every_vertex(self):
        for g in (complete_graph(3), triangle_strip(6),
                  triangular_lattice(3, 4)):
            cover = triangle_cover(g)
            covered = {v for tau in cover.triangles for v in support(tau)}
            assert covered == set(range(g.n))

    def test_cover_members_are_triangles(self):
        g = triangular_lattice(2, 4)
        cover = triangle_cover(g)
        assert len(cover) >= 1
        for tau in cover.triangles:
            a, b, c = support(tau)
            assert g.adjacency[a, b] and g.adjacency[b, c] and g.adjacency[a, c]

    def test_uncoverable_vertex_raises(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(UncoverableVertexError):
            triangle_cover(path)


class TestLocalComplement:
    def test_known_example(self):
        # complementing K3 at any vertex removes the opposite edge
        g = complete_graph(3)
        lc = local_complement(g, 0)
        assert (1, 2) not in lc.edges and (0, 1) in lc.edges

    @given(st.integers(2, 7), st.integers(0, 10 ** 6), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, n, seed, v_raw):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        v = v_raw % n
        twice = local_complement(local_complement(g, v), v)
        assert twice.edges == g.edges

    def test_preserves_vertex_count(self):
        g = triangle_strip(5)
        assert local_complement(g, 2).n == g.n


class TestBitstringIdentitySuites:
    """Exhaustive sum identities used throughout the error analysis."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sum_over_strings_is_delta(self, n):
        # sum_s (-1)^{s.t} = 2^n when t = 0 and vanishes otherwise
        assert oracles.sum_over_strings(n, 0) == 2 ** n
        rng = np.random.default_rng(n)
        targets = range(1, 2 ** n) if n <= 6 else rng.integers(
            1, 2 ** n, size=64)
        for t in targets:
            assert oracles.sum_over_strings(n, int(t)) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mean_inner_product(self, n):
        # mean over all s of s.u equals |u|/2
        rng = np.random.default_rng(n)
        us = range(2 ** n) if n <= 6 else rng.integers(0, 2 ** n, size=64)
        for u in us:
            u = int(u)
            assert oracles.mean_dot_with(n, u) == bin(u).count("1") / 2

    def test_mean_induced_edges_is_quarter(self):
        # mean over all t of the induced edge count equals |E|/4
        rng = np.random.default_rng(99)
        graphs = [complete_graph(3), triangle_strip(6),
                  triangular_lattice(3, 4)]
        graphs += [random_graph(rng, int(rng.integers(2, 11)))
                   for _ in range(5)]
        for g in graphs:
            assert math.isclose(oracles.mean_induced_edges(g.n, g.edges),
                                g.edge_count / 4, abs_tol=1e-12)
