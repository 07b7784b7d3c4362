"""The benchmark's oracle against fixed closed-form anchors.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import math

import numpy as np
import pytest

import oracle

K3_EDGES = [(0, 1), (0, 2), (1, 2)]
QUARTER = math.pi / 4
K3_STEPS = [(0, (), ()), (1, (0,), ()), (2, (1,), (0,))]


def k3_law():
    return oracle.subtest_law(3, K3_EDGES, [(0, 1, 2)], [QUARTER] * 3, [1, 0, 0])


def test_graph_state_is_stabilised():
    psi = oracle.graph_state(3, K3_EDGES)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
    nb = oracle.neighbours(3, K3_EDGES)
    for v in range(3):
        terms = {v: oracle.X} | {u: oracle.Z for u in nb[v]}
        assert oracle.expectation(psi, terms, 3) == pytest.approx(1.0, abs=1e-14)


def test_c_test_k3_closed_form_and_law_agree():
    assert oracle.c_test(3, 1, [QUARTER] * 3) == pytest.approx(
        oracle.C_TEST_K3_QUARTER_PI, abs=1e-15)
    psi = oracle.graph_state(3, K3_EDGES)
    law = k3_law()
    assert sum(st.weight for st in law) == pytest.approx(1.0, abs=1e-15)
    honest = oracle.honest_strategy([QUARTER] * 3)
    assert oracle.pass_probability(psi, 3, law, honest) == pytest.approx(
        oracle.C_TEST_K3_QUARTER_PI, abs=1e-12)


def test_rotation_anchor():
    assert oracle.rotation_anchor(QUARTER) == pytest.approx(
        oracle.ROTATION_ANCHOR_QUARTER_PI, abs=1e-15)
    psi = oracle.graph_state(3, K3_EDGES)
    honest = oracle.honest_strategy([QUARTER] * 3)
    for v in range(3):
        rot = [st for st in k3_law() if st.vertex == v and st.kind.startswith("rtheta")]
        won = sum(st.weight * (1 + oracle.correlation(psi, 3, st, honest)) / 2
                  for st in rot)
        assert won / sum(st.weight for st in rot) == pytest.approx(
            oracle.ROTATION_ANCHOR_QUARTER_PI, abs=1e-12)


def test_k3_pattern_law():
    psi = oracle.graph_state(3, K3_EDGES)
    law = oracle.pattern_law(psi, 3, K3_STEPS, (0, 1, 2),
                             oracle.honest_strategy([QUARTER] * 3))
    assert law[0] == pytest.approx(oracle.K3_PATTERN_LAW_P0, abs=1e-12)
    assert law[0] + law[1] == pytest.approx(1.0, abs=1e-12)


def test_z_cheater_on_k3():
    # X at 0, Z at pi/2, both rotations at pi/2: every check passes except
    # half the rotation subtest, and the pattern output is a fair coin.
    psi = oracle.graph_state(3, K3_EDGES)
    cheat = oracle.angle_strategy(
        [{"X": 0.0, "Z": math.pi / 2, "R+": math.pi / 2, "R-": math.pi / 2}] * 3)
    assert oracle.pass_probability(psi, 3, k3_law(), cheat) == pytest.approx(0.7, abs=1e-12)
    law = oracle.pattern_law(psi, 3, K3_STEPS, (0, 1, 2), cheat)
    assert law[0] == pytest.approx(0.5, abs=1e-12)


def test_apply_matches_kron():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for q in range(3):
        ops = [mat if k == q else oracle.I2 for k in reversed(range(3))]
        dense = np.kron(np.kron(ops[0], ops[1]), ops[2])
        assert np.allclose(oracle.apply(psi, mat, q, 3), dense @ psi, atol=1e-13)


def test_protocol_constants_k3():
    c_test = oracle.C_TEST_K3_QUARTER_PI
    consts = oracle.protocol_constants(oracle.K3_PATTERN_LAW_P0, c_test, c_test - 0.1)
    assert consts["q"] == pytest.approx(0.15, abs=1e-12)
    assert consts["c_ip"] == pytest.approx(0.8768, abs=1e-4)
    assert consts["s_ip"] == pytest.approx(0.8403, abs=1e-4)
    assert consts["n_rounds"] == 1648
