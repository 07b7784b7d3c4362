"""Symbolic Pauli algebra cross-checked against dense matrices."""

import numpy as np
import pytest

import oracles
from artifact.graphs import Graph, complete_graph, triangle_strip
from artifact.graphstate import build_graph_state
from artifact.pauli import PauliProduct, stabilizer_generator, stabilizer_product


def random_product(rng, n):
    return PauliProduct(int(rng.integers(4)),
                        rng.integers(0, 2, size=n),
                        rng.integers(0, 2, size=n))


def dense(p):
    return oracles.pauli_matrix(p.x, p.z, p.phase_pow, p.n)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestNormalForm:
    def test_multiplication_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a, b = random_product(rng, n), random_product(rng, n)
            assert np.allclose(dense(a * b), dense(a) @ dense(b), atol=1e-12)

    def test_letters_round_trip(self):
        # i^p X^x Z^z with one factor i per Y (Y = i X Z) is the bare
        # letter product, so its rendered phase is 0
        for phase_pow, x, z, letters in ((1, [0, 1, 0, 1], [0, 0, 1, 1], "IXZY"),
                                         (0, [1, 1], [0, 0], "XX"),
                                         (2, [1, 0, 1], [1, 1, 1], "YZY"),
                                         (0, [0], [0], "I")):
            p = PauliProduct(phase_pow, x, z)
            assert p.letters() == letters and p.rendered_phase_pow() == 0
            assert np.allclose(dense(p),
                               oracles.kron_all([oracles.__dict__[c] if c != "I"
                                                 else oracles.I2
                                                 for c in reversed(letters)]),
                               atol=1e-12)

    def test_identity(self):
        p = PauliProduct.identity(3)
        assert p.letters() == "III" and p.sign() == 1

    def test_square_of_y_is_identity(self):
        y = PauliProduct(1, [1], [1])  # i X Z = Y
        sq = y * y
        assert sq.letters() == "I" and sq.sign() == 1

    def test_sign_rejects_imaginary(self):
        xz = PauliProduct(0, [1], [1])  # X Z = -i Y
        with pytest.raises(ValueError):
            xz.sign()
        assert xz.rendered_phase_pow() == 3

    def test_hermiticity(self):
        # a product has a real sign exactly when it is Hermitian
        assert PauliProduct(1, [1, 1, 0], [0, 1, 1]).sign() == 1  # X Y Z
        assert PauliProduct(1, [1], [1]).sign() == 1  # i X Z = Y
        with pytest.raises(ValueError):
            PauliProduct(2, [1], [1]).sign()  # -X Z = i Y


class TestStabilizerProducts:
    def test_generator_letters(self):
        g = complete_graph(3)
        assert stabilizer_generator(g, 0).letters() == "XZZ"

    def test_product_phase_tracks_edge_count(self):
        # prod_{v in t} S_v carries (-1)^{edges inside t} in normal form
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, 5)
            t = rng.integers(0, 2, size=5).astype(np.uint8)
            prod = stabilizer_product(g, t)
            t_int = int(sum(int(b) << i for i, b in enumerate(t)))
            expected_sign = (-1) ** oracles.induced_edges_of_int(t_int, g.edges)
            assert (-1) ** (prod.phase_pow // 2) == expected_sign
            assert prod.phase_pow % 2 == 0
            # X part is t itself, Z part is At
            assert np.array_equal(prod.x, t)
            assert np.array_equal(prod.z, (g.adjacency @ t) % 2)

    def test_product_stabilizes_state(self):
        g = triangle_strip(4)
        state = build_graph_state(g)
        for t_idx in range(2 ** g.n):
            t = np.array([(t_idx >> v) & 1 for v in range(g.n)], np.uint8)
            m = dense(stabilizer_product(g, t))
            assert np.allclose(m @ state.amplitudes, state.amplitudes,
                               atol=1e-10)

