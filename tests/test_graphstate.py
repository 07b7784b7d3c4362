"""Graph state amplitudes, stabilizers, and adjacency-sum identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact.graphs import Graph, complete_graph, triangle_strip, triangular_lattice, xor
from artifact.graphstate import (NotATriangleError, build_graph_state, stabilizer,
                                 stabilizer_expectations, triangle_operator)
from artifact.pauli import stabilizer_product
from artifact.statevec import expectation


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestAmplitudes:
    @pytest.mark.parametrize("make", [
        lambda: complete_graph(3),
        lambda: triangle_strip(5),
        lambda: triangular_lattice(2, 3),
    ])
    def test_state_matches_circuit_oracle(self, make):
        g = make()
        state = build_graph_state(g).state
        oracle = oracles.graph_state_by_circuit(g.n, g.edges)
        assert np.allclose(state.amplitudes, oracle, atol=1e-12)

    def test_amplitude_formula(self):
        # amplitude of |x> is (-1)^{edges inside x} / 2^{n/2}
        for g in (complete_graph(3), triangle_strip(5), triangular_lattice(2, 3)):
            amps = build_graph_state(g).state.amplitudes
            for idx in range(2 ** g.n):
                inside = sum(1 for u, v in g.edges if (idx >> u) & 1 and (idx >> v) & 1)
                assert amps[idx] == (-1) ** inside * 2 ** (-g.n / 2)

    def test_amplitude_sign_example(self):
        amps = build_graph_state(complete_graph(3)).state.amplitudes.real
        assert amps[0b011] < 0  # one edge inside {0,1}
        assert amps[0b111] < 0  # three edges inside
        assert amps[0b000] > 0 and amps[0b001] > 0  # no edge inside


class TestStabilizers:
    def test_generator_expectations_are_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 7)))
            gs = build_graph_state(g)
            assert np.allclose(stabilizer_expectations(gs), 1.0, atol=1e-12)

    def test_generator_shape(self):
        g = complete_graph(3)
        obs = stabilizer(g, 0)
        state = build_graph_state(g).state
        assert expectation(state, obs) == pytest.approx(1.0, abs=1e-12)

    def test_stabilizer_element_sign_and_action(self):
        # S^t = (-1)^{edges inside t} X^t Z^{At}; expectation +1 on |G>
        rng = np.random.default_rng(9)
        for _ in range(15):
            g = random_graph(rng, 5)
            state = build_graph_state(g).state
            t = rng.integers(0, 2, size=5).astype(np.uint8)
            obs = stabilizer_product(g, t).observable()
            assert expectation(state, obs) == pytest.approx(1.0, abs=1e-10)

    def test_stabilizer_element_matches_generator_product(self):
        g = triangle_strip(4)
        state = build_graph_state(g).state
        for t_idx in range(2 ** g.n):
            t = np.array([(t_idx >> v) & 1 for v in range(g.n)], np.uint8)
            obs = stabilizer_product(g, t).observable()
            assert expectation(state, obs) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_vertex(self):
        with pytest.raises(IndexError):
            stabilizer(complete_graph(3), 3)


class TestTriangleOperators:
    def test_triangle_expectation_is_minus_one(self):
        g = complete_graph(3)
        state = build_graph_state(g).state
        tau = np.array([1, 1, 1], np.uint8)
        assert expectation(state, triangle_operator(g, tau)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_lattice_triangles(self):
        g = triangular_lattice(2, 3)
        state = build_graph_state(g).state
        tau = np.zeros(g.n, dtype=np.uint8)
        tau[[0, 1, 4]] = 1  # grid cell triangle (0,1),(1,4),(0,4)
        if g.is_triangle(tau):
            assert expectation(state, triangle_operator(g, tau)) == \
                pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_triangle(self):
        g = triangle_strip(5)
        tau = np.zeros(g.n, dtype=np.uint8)
        tau[[0, 1, 4]] = 1
        with pytest.raises(NotATriangleError):
            triangle_operator(g, tau)

    def test_rejects_wrong_weight(self):
        g = complete_graph(3)
        with pytest.raises((NotATriangleError, ValueError)):
            triangle_operator(g, np.array([1, 1, 0], np.uint8))


class TestAdjacencySumIdentities:
    """Phase bookkeeping for products of stabilizer elements.

    With e(x) = number of edges inside the support of x, the general
    identity is

        e(x + y) + (x + y) . Ay + e(y) == e(x)   (mod 2),

    where + is XOR and . Ay counts adjacencies against y.  The shorter
    form without the e(y) term holds only when |y| <= 1 (no edge fits
    inside a single vertex), which is the induction step actually used.
    """

    @staticmethod
    def _lhs_general(g, x, y):
        s = xor(x, y)
        return (g.induced_edge_count(s) + int(s @ (g.adjacency @ y))
                + g.induced_edge_count(y)) % 2

    @given(st.integers(0, 10 ** 6), st.integers(2, 7))
    @settings(max_examples=80, deadline=None)
    def test_general_identity_all_weights(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        x = rng.integers(0, 2, size=n).astype(np.uint8)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        assert self._lhs_general(g, x, y) == g.induced_edge_count(x) % 2

    def test_general_identity_exhaustive_k3(self):
        g = complete_graph(3)
        for xi, yi in itertools.product(range(8), repeat=2):
            x = np.array([(xi >> v) & 1 for v in range(3)], np.uint8)
            y = np.array([(yi >> v) & 1 for v in range(3)], np.uint8)
            assert self._lhs_general(g, x, y) == g.induced_edge_count(x) % 2

    def test_short_form_holds_for_single_vertex_y(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            g = random_graph(rng, 6)
            x = rng.integers(0, 2, size=6).astype(np.uint8)
            v = int(rng.integers(6))
            y = np.zeros(6, dtype=np.uint8)
            y[v] = 1
            s = xor(x, y)
            short = (g.induced_edge_count(s) + int(s @ (g.adjacency @ y))) % 2
            assert short == g.induced_edge_count(x) % 2

    def test_short_form_fails_for_heavy_y(self):
        # counterexample: K3 with x = 000, y = 111 gives parity 1, not 0
        g = complete_graph(3)
        x = np.array([0, 0, 0], np.uint8)
        y = np.array([1, 1, 1], np.uint8)
        s = xor(x, y)
        short = (g.induced_edge_count(s) + int(s @ (g.adjacency @ y))) % 2
        assert short == 1 != g.induced_edge_count(x) % 2
