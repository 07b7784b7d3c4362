"""Symbolic Pauli algebra cross-checked against dense matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from artifact.graphs import Graph, complete_graph, local_complement, triangle_strip
from artifact.graphstate import build_graph_state
from artifact.pauli import (PauliProduct, independent_commuting,
                            lc_generator_transform, stabilizer_generator,
                            stabilizer_product)


def random_product(rng, n):
    return PauliProduct(int(rng.integers(4)),
                        rng.integers(0, 2, size=n),
                        rng.integers(0, 2, size=n))


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestNormalForm:
    def test_matrix_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            p = random_product(rng, n)
            dense = oracles.pauli_matrix(p.x, p.z, p.phase_pow, n)
            assert np.allclose(p.matrix(), dense, atol=1e-12)

    def test_multiplication_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a, b = random_product(rng, n), random_product(rng, n)
            fast = (a * b).matrix()
            slow = a.matrix() @ b.matrix()
            assert np.allclose(fast, slow, atol=1e-12)

    def test_letters_round_trip(self):
        for letters in ("IXZY", "XX", "YZY", "I"):
            p = PauliProduct.from_letters(letters)
            assert p.letters() == letters
            assert np.allclose(p.matrix(),
                               oracles.kron_all([oracles.__dict__[c] if c != "I"
                                                 else oracles.I2
                                                 for c in reversed(letters)]),
                               atol=1e-12)

    def test_from_letters_rejects_unknown(self):
        with pytest.raises(ValueError):
            PauliProduct.from_letters("XQ")

    def test_identity(self):
        p = PauliProduct.identity(3)
        assert p.letters() == "III" and p.sign() == 1

    def test_square_of_y_is_identity(self):
        y = PauliProduct.from_letters("Y")
        sq = y * y
        assert sq.letters() == "I" and sq.sign() == 1

    def test_sign_rejects_imaginary(self):
        xz = PauliProduct(0, [1], [1])  # X Z = -i Y
        with pytest.raises(ValueError):
            xz.sign()
        assert xz.rendered_phase_pow() == 3

    def test_hermiticity(self):
        # a product has a real sign exactly when it is Hermitian
        assert PauliProduct.from_letters("XYZ").sign() == 1
        assert PauliProduct(1, [1], [1]).sign() == 1  # i X Z = Y
        with pytest.raises(ValueError):
            PauliProduct(2, [1], [1]).sign()  # -X Z = i Y


class TestCommutation:
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_commutator_matches_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_product(rng, n), random_product(rng, n)
        ab = a.matrix() @ b.matrix()
        ba = b.matrix() @ a.matrix()
        assert a.commutes_with(b) == bool(np.allclose(ab, ba, atol=1e-12))

    def test_anticommuting_pair(self):
        x = PauliProduct.from_letters("X")
        z = PauliProduct.from_letters("Z")
        assert not x.commutes_with(z)


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
            expected_sign = (-1) ** g.induced_edge_count(t)
            assert (-1) ** (prod.phase_pow // 2) == expected_sign
            assert prod.phase_pow % 2 == 0
            # X part is t itself, Z part is At
            assert np.array_equal(prod.x, t)
            assert np.array_equal(prod.z, (g.adjacency @ t) % 2)

    def test_product_stabilizes_state(self):
        g = triangle_strip(4)
        state = build_graph_state(g).state
        for t_idx in range(2 ** g.n):
            t = np.array([(t_idx >> v) & 1 for v in range(g.n)], np.uint8)
            m = stabilizer_product(g, t).matrix()
            assert np.allclose(m @ state.amplitudes, state.amplitudes,
                               atol=1e-10)


class TestLocalComplementation:
    def test_transformed_generators_are_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            g = random_graph(rng, n)
            v = int(rng.integers(n))
            gens = lc_generator_transform(g, v)
            assert len(gens) == n
            assert independent_commuting(gens)

    def test_transformed_generators_stabilize_new_state(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            g = random_graph(rng, n)
            v = int(rng.integers(n))
            target = build_graph_state(local_complement(g, v)).state
            for gen in lc_generator_transform(g, v):
                out = gen.matrix() @ target.amplitudes
                assert np.allclose(out, target.amplitudes, atol=1e-10)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            lc_generator_transform(complete_graph(3), 5)


class TestIndependence:
    def test_detects_dependence(self):
        x1 = PauliProduct.from_letters("XI")
        x2 = PauliProduct.from_letters("IX")
        prod = x1 * x2
        assert independent_commuting([x1, x2])
        assert not independent_commuting([x1, x2, prod])

    def test_detects_anticommutation(self):
        assert not independent_commuting([PauliProduct.from_letters("X"),
                                          PauliProduct.from_letters("Z")])

    def test_empty_set(self):
        assert independent_commuting([])
