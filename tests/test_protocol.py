"""Tests for the composed protocol: coin weight and amplification."""

import contextlib
import gc
import math

import numpy as np
import pytest

import oracles
from artifact import protocol
from artifact.bounds import DomainError, hoeffding_n
from artifact.graphs import complete_graph
from artifact.mbqc import MeasurementPattern, PatternStep, reference_run, run_pattern
from artifact.protocol import (
    ProtocolConfig,
    choose_q,
    exact_accept_probability,
    gap_case_lines,
    run_amplified,
    run_amplified_rounds,
    run_round,
)
from artifact.provers import QUERY_LABELS, classical_provers, honest_provers, strategy_from_json
from artifact.selftest import c_test, default_parameters, exact_pass_probability, run_oneshot

THETA = math.pi / 4
HONEST = {"kind": "honest"}
# X at angle 0, Z and both rotations at pi/2, measured on |K3>
XZ_CHEATER = {"kind": "xz", "angles": {
    str(v): {"X": 0.0, "Z": math.pi / 2, "R+": math.pi / 2, "R-": math.pi / 2}
    for v in range(3)}}
# classical rounds draw one uniform (calculation) or two (test), none inside
# a query; the table's -1 replies fail some subtests
CLASSICAL = {"kind": "classical", "value": 1}
CLASSICAL_TABLE = {"kind": "classical", "table": {
    str(v): {"X": 1, "Z": -1 if v == 1 else 1, "R+": -1, "R-": 1 if v else -1}
    for v in range(3)}}


def _setup(q=0.3, n_rounds=20):
    graph = complete_graph(3)
    params = default_parameters(graph)
    pattern = MeasurementPattern(
        (PatternStep(0, THETA), PatternStep(1, THETA, x_deps=(0,))),
        output_bits=(1,))
    cfg = ProtocolConfig(q=q, params=params, pattern=pattern,
                         n_rounds=n_rounds, c_ip=0.8, s_ip=0.2)
    honest = honest_provers(graph, params.theta)
    return graph, params, pattern, cfg, honest


class TestChooseQ:
    def test_worked_example(self):
        q, gap = choose_q(0.9, 0.8, 1 / 3, 1 / 6)
        assert math.isclose(q, oracles.LEMMA6_Q_EXAMPLE, abs_tol=1e-12)
        assert math.isclose(q, 1 / 6, abs_tol=1e-12)
        expected_gap = (2 / 3 - 1 / 3 - 1 / 6) * (0.9 - 0.8) / (
            1 + 0.9 - 1 / 3 - 0.8 - 1 / 6)
        assert math.isclose(gap, expected_gap, rel_tol=1e-12)

    def test_case_lines_cross_at_the_optimum(self):
        c_calc, s_calc, ct, st, delta = 2 / 3, 1 / 3, 0.9, 0.8, 0.1
        q, gap = choose_q(ct, st, s_calc, delta, c_calc)
        first, second = gap_case_lines(q, c_calc, s_calc, ct, st, delta)
        assert math.isclose(first, second, rel_tol=1e-12)
        assert math.isclose(min(first, second), gap, rel_tol=1e-12)

    def test_optimum_maximizes_the_minimum_line(self):
        c_calc, s_calc, ct, st, delta = 2 / 3, 1 / 3, 0.9, 0.8, 0.1
        q_star, gap = choose_q(ct, st, s_calc, delta, c_calc)
        for q in np.linspace(0.0, 1.0, 101):
            lines = gap_case_lines(q, c_calc, s_calc, ct, st, delta)
            assert min(lines) <= gap + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            choose_q(0.9, 0.8, 1 / 3, 0.5)
        with pytest.raises(DomainError):
            choose_q(0.8, 0.9, 1 / 3, 0.1)


class TestProtocolConfig:
    def test_default_threshold(self):
        *_, cfg, _ = _setup(n_rounds=20)
        assert math.isclose(cfg.threshold, 20 * (0.8 + 0.2) / 2,
                            rel_tol=1e-15)

    @pytest.mark.parametrize("c_ip,s_ip", [(0.6, 0.4), (0.9, 0.75),
                                           (0.5, 0.35)])
    def test_default_threshold_decides_at_the_hoeffding_count(self, c_ip,
                                                              s_ip):
        # s_ip > (c_ip - s_ip) / 2 on this grid, where N (c_ip - s_ip) / 2
        # lies below the cheater's mean count and accepts it
        assert s_ip > (c_ip - s_ip) / 2
        _, params, pattern, _, _ = _setup()
        n_rounds = hoeffding_n(c_ip - s_ip)
        cfg = ProtocolConfig(q=0.3, params=params, pattern=pattern,
                             n_rounds=n_rounds, c_ip=c_ip, s_ip=s_ip)
        rng = np.random.default_rng(31)
        meta = 150
        rejected = accepted = 0
        for _ in range(meta):
            rejected += not run_amplified_rounds(
                lambda r: r.random() < s_ip, n_rounds, cfg.threshold, rng)[0]
            accepted += run_amplified_rounds(
                lambda r: r.random() < c_ip, n_rounds, cfg.threshold, rng)[0]
        assert rejected / meta >= 2 / 3
        assert accepted / meta >= 2 / 3

    @pytest.mark.parametrize("kwargs", [
        {"q": -0.1}, {"q": 1.1}, {"n_rounds": 0},
        {"c_ip": 0.2, "s_ip": 0.8}, {"c_ip": 1.2}, {"s_ip": -0.1},
        {"accept_output": 2},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        graph, params, pattern, _, _ = _setup()
        base = dict(q=0.3, params=params, pattern=pattern, n_rounds=10,
                    c_ip=0.8, s_ip=0.2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ProtocolConfig(**base)

    def test_degenerate_coins_allowed(self):
        graph, params, pattern, _, _ = _setup()
        for q in (0.0, 1.0):
            cfg = ProtocolConfig(q=q, params=params, pattern=pattern,
                                 n_rounds=5, c_ip=0.8, s_ip=0.2)
            assert cfg.q == q

    def test_pattern_vertex_outside_graph_rejected(self):
        graph, params, _, _, _ = _setup()
        pattern = MeasurementPattern((PatternStep(5, THETA),),
                                     output_bits=(5,))
        with pytest.raises(ValueError):
            ProtocolConfig(q=0.3, params=params, pattern=pattern,
                           n_rounds=5, c_ip=0.8, s_ip=0.2)


class TestRounds:
    def test_degenerate_coin_forces_the_branch(self):
        graph, params, pattern, _, honest = _setup()
        cfg_test = ProtocolConfig(q=0.0, params=params, pattern=pattern,
                                  n_rounds=5, c_ip=0.8, s_ip=0.2)
        cfg_calc = ProtocolConfig(q=1.0, params=params, pattern=pattern,
                                  n_rounds=5, c_ip=0.8, s_ip=0.2)
        # the twin draws the coin and discards it, then runs the forced branch
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(10):
            accepted = run_round(honest.clone(), cfg_test, rng)
            twin.random()
            assert accepted is run_oneshot(honest.clone(), params, twin).accepted
            accepted = run_round(honest.clone(), cfg_calc, rng)
            twin.random()
            bit, _ = run_pattern(honest.clone(), pattern, twin)
            assert accepted is (bit == cfg_calc.accept_output)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_replies_that_are_not_ints_are_refused(self):
        # they compare equal to 1, but would carry their own type into every
        # reply product, and through it into every accept bit and row
        for value in (1.0, True, np.int64(1)):
            table = {(v, label): value for v in range(3) for label in QUERY_LABELS}
            with pytest.raises(ValueError, match="non \\+-1 replies"):
                classical_provers(3, table)

    def test_exact_accept_probability_mixes_the_branches(self):
        graph, params, pattern, cfg, honest = _setup(q=0.3)
        calc = reference_run(graph, pattern).get(cfg.accept_output, 0.0)
        test = exact_pass_probability(honest, params)
        expected = 0.3 * calc + 0.7 * test
        assert math.isclose(exact_accept_probability(honest, cfg), expected,
                            rel_tol=1e-12)
        assert math.isclose(test, c_test(params), abs_tol=1e-12)


class TestAmplification:
    def test_same_seed_same_transcript(self):
        graph, params, pattern, cfg, honest = _setup(n_rounds=15)
        results = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            results.append(run_amplified(honest.clone(), cfg, rng))
        assert results[0] == results[1]
        accepted, count = results[0]
        assert 0 <= count <= 15 and accepted == (count > cfg.threshold)

    def test_single_round_amplification(self):
        graph, params, pattern, _, honest = _setup()
        cfg = ProtocolConfig(q=0.0, params=params, pattern=pattern,
                             n_rounds=1, c_ip=0.8, s_ip=0.2)
        rng = np.random.default_rng(12)
        accepted, count = run_amplified(honest.clone(), cfg, rng)
        assert count in (0, 1) and accepted == (count > cfg.threshold)

    def test_synthetic_rounds_count_and_decide(self):
        rng = np.random.default_rng(5)

        def always(rng):
            return True

        accepted, count = run_amplified_rounds(always, 10, 5.0, rng)
        assert accepted and count == 10
        accepted, count = run_amplified_rounds(lambda c: False, 10, 5.0,
                                               np.random.default_rng(5))
        assert not accepted and count == 0

    def test_rounds_draw_in_sequence_from_the_one_stream(self):
        seen = []

        def record(rng):
            seen.append(rng.random())
            return seen[-1] < 0.5

        rng = np.random.default_rng(77)
        run_amplified_rounds(record, 8, 4.0, rng)
        expected = np.random.default_rng(77).random(16)
        assert seen == list(expected[:8])
        run_amplified_rounds(record, 8, 4.0, rng)
        assert seen == list(expected)

    def test_synthetic_rounds_reject_zero_rounds(self):
        with pytest.raises(ValueError):
            run_amplified_rounds(lambda c: True, 0, 0.0,
                                 np.random.default_rng(1))

    @pytest.mark.parametrize("spec,seed", [(HONEST, 4101), (XZ_CHEATER, 4102)],
                             ids=["honest", "xz-cheater"])
    def test_accept_fraction_matches_the_exact_rate(self, spec, seed):
        # the exact rates are 0.788 (honest) and 0.640 (cheater), about 19
        # sigma apart at 4,000 rounds, so rounds that ran the wrong provers or
        # a skewed stream would fail here
        graph, params, pattern, _, _ = _setup()
        n_rounds = 4000
        cfg = ProtocolConfig(q=0.3, params=params, pattern=pattern,
                             n_rounds=n_rounds, c_ip=0.8, s_ip=0.2)
        p = strategy_from_json(spec, graph, dict(enumerate(params.theta)), None)
        rate = exact_accept_probability(p, cfg)
        _, count = run_amplified(p, cfg, np.random.default_rng(seed))
        sigma = math.sqrt(n_rounds * rate * (1 - rate))
        assert abs(count - n_rounds * rate) <= 5 * sigma

    def test_honest_amplified_run_accepts(self):
        graph, params, pattern, _, honest = _setup()
        cfg = ProtocolConfig(q=0.2, params=params, pattern=pattern,
                             n_rounds=60, c_ip=0.9, s_ip=0.5)
        accepted, _ = run_amplified(honest.clone(), cfg, np.random.default_rng(2024))
        # honest accept probability is about 0.93 per round, far above
        # the midpoint threshold 0.7, so 60 rounds decide reliably
        assert accepted


class TestDrawsAhead:
    """Uniforms drawn ahead in blocks give what scalar draws on a twin give."""

    @staticmethod
    def _provers(spec, params):
        return strategy_from_json(spec, params.graph, dict(enumerate(params.theta)), None)

    def _twin_rounds(self, spec, cfg, twin):
        p = self._provers(spec, cfg.params)
        return [run_round(p, cfg, twin) for _ in range(cfg.n_rounds)]

    def _decision_rounds(self, spec, cfg, rng):
        """``run_amplified``'s decision, and the bools of ``run_round`` on the
        same rounds, collected through ``run_amplified_rounds``."""
        bools = []

        def round_fn(uniforms):
            bools.append(run_round(p, cfg, uniforms))
            return bools[-1]

        p, state = self._provers(spec, cfg.params), rng.bit_generator.state
        collected = run_amplified_rounds(round_fn, cfg.n_rounds, cfg.threshold, rng)
        after, rng.bit_generator.state = rng.bit_generator.state, state
        decision = run_amplified(self._provers(spec, cfg.params), cfg, rng)
        assert decision == collected and rng.bit_generator.state == after
        return decision, bools

    @pytest.mark.parametrize("spec,q,n_rounds", [
        pytest.param(spec, q, n_rounds, id=name + suffix)
        for suffix, q, n_rounds in (("", 0.3, 3000), ("-q0", 0.0, 1001), ("-q1", 1.0, 4099))
        for name, spec in (("honest", HONEST), ("xz-cheater", XZ_CHEATER),
                           ("classical", CLASSICAL), ("table", CLASSICAL_TABLE))])
    def test_decision_is_the_twin_loop_of_run_round(self, spec, q, n_rounds):
        # every case draws past its first block of min(N, 4,096) uniforms:
        # 3,000 rounds at q = 0.3 draw 13,192 (quantum) or 5,111 (classical),
        # 1,001 test rounds (q = 0) 5,005 or 2,002, and 4,099 calculation
        # rounds (q = 1) 12,297 or 4,099
        _, params, pattern, _, _ = _setup()
        cfg = ProtocolConfig(q=q, params=params, pattern=pattern,
                             n_rounds=n_rounds, c_ip=0.8, s_ip=0.2)
        rng, twin = np.random.default_rng(4301), np.random.default_rng(4301)
        (accepted, count), bools = self._decision_rounds(spec, cfg, rng)
        twin_bools = self._twin_rounds(spec, cfg, twin)
        assert bools == twin_bools and all(type(b) is bool for b in bools)
        assert (accepted, count) == (sum(twin_bools) > cfg.threshold, sum(twin_bools))
        assert rng.bit_generator.state == twin.bit_generator.state
        if spec is CLASSICAL_TABLE and q < 1:
            assert 0 < count < n_rounds

    @pytest.mark.parametrize("k", [1, 4096, 4097, 4098, 10_000])
    def test_a_raising_round_leaves_the_stream_after_the_draws_taken(self, k):
        # one uniform per round, and round k raises before it draws
        seen = []

        def round_fn(uniforms):
            if len(seen) == k - 1:
                raise RuntimeError("round k")
            seen.append(uniforms.random())
            return True

        rng, twin = np.random.default_rng(4302), np.random.default_rng(4302)
        with pytest.raises(RuntimeError):
            run_amplified_rounds(round_fn, 10_000, 5_000.0, rng)
        assert seen == [twin.random() for _ in range(k - 1)]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_the_uniforms_need_no_cyclic_collector(self, raises):
        # rewinding drops the block chain, so the stand-in, its saved state
        # and its last block go by reference counting
        def round_fn(uniforms):
            uniforms.random()
            if raises and uniforms.random() > 0.9:
                raise RuntimeError("round")
            return True

        gc.collect()
        gc.disable()
        try:
            with contextlib.suppress(RuntimeError):
                run_amplified_rounds(round_fn, 5000, 2500.0, np.random.default_rng(4303))
            assert not [o for o in gc.get_objects() if type(o) is protocol._Uniforms]
        finally:
            gc.enable()

    def test_a_buffered_half_survives_a_decision(self):
        *_, cfg, _ = _setup(n_rounds=500)
        rng, twin = np.random.default_rng(4303), np.random.default_rng(4303)
        rng.random(dtype=np.float32)
        twin.random(dtype=np.float32)
        (accepted, count), bools = self._decision_rounds(HONEST, cfg, rng)
        twin_bools = self._twin_rounds(HONEST, cfg, twin)
        assert bools == twin_bools
        assert (accepted, count) == (sum(twin_bools) > cfg.threshold, sum(twin_bools))
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random(dtype=np.float32) == twin.random(dtype=np.float32)

