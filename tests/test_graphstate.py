"""Graph state amplitudes, stabilizers, and triangle operators."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from artifact.graphs import Graph, complete_graph, triangle_strip, triangular_lattice
from artifact.graphstate import (NotATriangleError, build_graph_state, stabilizer,
                                 stabilizer_expectations, triangle_operator)
from artifact.pauli import stabilizer_product
from artifact.statevec import QubitCapError, expectation


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
        state = build_graph_state(g)
        oracle = oracles.graph_state_by_circuit(g.n, g.edges)
        assert np.allclose(state.amplitudes, oracle, atol=1e-12)

    def test_amplitude_formula(self):
        # amplitude of |x> is (-1)^{edges inside x} / 2^{n/2}; with no edge,
        # |+>^n
        edgeless = [Graph.from_edges(n, []) for n in range(1, 6)]
        for g in (*edgeless, complete_graph(3), triangle_strip(5), triangular_lattice(2, 3)):
            amps = build_graph_state(g).amplitudes
            for idx in range(2 ** g.n):
                inside = sum(1 for u, v in g.edges if (idx >> u) & 1 and (idx >> v) & 1)
                assert amps[idx] == (-1) ** inside * 2 ** (-g.n / 2)

    def test_amplitude_sign_example(self):
        amps = build_graph_state(complete_graph(3)).amplitudes.real
        assert amps[0b011] < 0  # one edge inside {0,1}
        assert amps[0b111] < 0  # three edges inside
        assert amps[0b000] > 0 and amps[0b001] > 0  # no edge inside

    def test_refused_before_anything_is_allocated(self, monkeypatch):
        # 2^20 amplitudes would be 8 MiB; the cap check comes first
        monkeypatch.setenv("GSIP_QUBIT_CAP", "4")
        graph = triangle_strip(20)
        tracemalloc.start()
        try:
            with pytest.raises(QubitCapError):
                build_graph_state(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError):
            build_graph_state(Graph.from_edges(0, []))


class TestStabilizers:
    def test_generator_expectations_are_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 7)))
            assert np.allclose(stabilizer_expectations(g), 1.0, atol=1e-12)

    def test_generator_shape(self):
        g = complete_graph(3)
        obs = stabilizer(g, 0)
        state = build_graph_state(g)
        assert expectation(state, obs) == pytest.approx(1.0, abs=1e-12)

    def test_stabilizer_element_sign_and_action(self):
        # S^t = (-1)^{edges inside t} X^t Z^{At}; expectation +1 on |G>
        rng = np.random.default_rng(9)
        for _ in range(15):
            g = random_graph(rng, 5)
            state = build_graph_state(g)
            t = rng.integers(0, 2, size=5).astype(np.uint8)
            obs = stabilizer_product(g, t).observable()
            assert expectation(state, obs) == pytest.approx(1.0, abs=1e-10)

    def test_stabilizer_element_matches_generator_product(self):
        g = triangle_strip(4)
        state = build_graph_state(g)
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
        state = build_graph_state(g)
        tau = np.array([1, 1, 1], np.uint8)
        assert expectation(state, triangle_operator(g, tau)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_lattice_triangles(self):
        g = triangular_lattice(2, 3)
        state = build_graph_state(g)
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
