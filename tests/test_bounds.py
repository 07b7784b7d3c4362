"""Tests for the closed-form bounds: arithmetic, domains, composition."""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artifact import bounds
from artifact.bounds import (
    FORMULAS,
    KINDS,
    DomainError,
    MissingParameterError,
    bound_chain_report,
    cor1_bound,
    cor2_bound,
    cor3_gap,
    evaluate,
    hoeffding_n,
    lemma1_anticommutator,
    lemma2_bound,
    lemma3_bound,
    lemma4_bound,
    lemma5_delta_of_eps,
    lemma5_eps_of_delta,
    lemma5_gap,
    lemma6_gap,
    lemma6_gap_floor,
    lemma6_q,
    thm1_n,
    thm2_bound,
)


class TestFormulaArithmetic:
    def test_thm2(self):
        eps, n, edges, p = 0.01, 5, 9, 2
        expected = (2 * math.sqrt(p) + 2 * math.sqrt(2 * n)
                    + math.sqrt(edges + n)) * (2 * eps) ** 0.25
        assert math.isclose(thm2_bound(eps, n, edges, p), expected,
                            rel_tol=1e-15)

    def test_lemma1(self):
        assert math.isclose(lemma1_anticommutator(0.02),
                            4 * math.sqrt(0.04), rel_tol=1e-15)

    def test_cor1(self):
        assert math.isclose(cor1_bound(0.01, 3), 12 * math.sqrt(0.02),
                            rel_tol=1e-15)
        assert cor1_bound(0.5, 0) == 0.0

    def test_lemma2(self):
        eps = 0.03
        assert math.isclose(lemma2_bound(eps, 2, 3),
                            7 * math.sqrt(2 * eps), rel_tol=1e-15)

    def test_lemma3(self):
        assert math.isclose(lemma3_bound(0.01, 0.05),
                            math.sqrt(2 * (0.01 + 0.1)), rel_tol=1e-15)

    def test_lemma4_and_cor2(self):
        assert math.isclose(lemma4_bound(0.001, 5, 4), 41 * 0.001,
                            rel_tol=1e-15)
        assert cor2_bound(0.001, 5, 4) == 2 * lemma4_bound(0.001, 5, 4)
        assert cor2_bound(0.001, 5) == cor2_bound(0.001, 5, 4)

    def test_lemma5_inversion_round_trip(self):
        for n in (3, 7, 12):
            for delta in (0.05, 0.1, 0.3):
                eps = lemma5_eps_of_delta(delta, n)
                assert math.isclose(lemma5_delta_of_eps(eps, n), delta,
                                    rel_tol=1e-12)

    def test_lemma5_gap_is_eps_over_two_ng(self):
        delta, n, n_g = 0.1, 4, 16
        expected = lemma5_eps_of_delta(delta, n) / (2 * n_g)
        assert math.isclose(lemma5_gap(delta, n, n_g), expected,
                            rel_tol=1e-15)

    def test_cor3_gap(self):
        for delta, n in ((0.1, 3), (1 / 6, 5), (0.05, 12)):
            expected = delta ** 8 / (10 ** 17.7 * n ** 11)
            assert math.isclose(cor3_gap(delta, n), expected, rel_tol=1e-15)

    def test_lemma6_q_worked_example(self):
        q = lemma6_q(0.9, 0.8, 1 / 3, 1 / 6)
        assert math.isclose(q, oracles.LEMMA6_Q_EXAMPLE, abs_tol=1e-12)
        assert math.isclose(q, 1 / 6, abs_tol=1e-12)

    def test_lemma6_gap_factors_through_q(self):
        c_calc, s_calc, c_test, s_test, delta = 0.95, 1 / 3, 0.9, 0.8, 0.1
        q = lemma6_q(c_test, s_test, s_calc, delta)
        expected = (c_calc - s_calc - delta) * q
        assert math.isclose(lemma6_gap(c_calc, s_calc, c_test, s_test, delta),
                            expected, rel_tol=1e-12)

    def test_lemma6_gap_floor(self):
        for delta, n in ((0.1, 3), (1 / 6, 5)):
            expected = delta ** 8 / (10 ** 18.8 * n ** 11)
            assert math.isclose(lemma6_gap_floor(delta, n), expected,
                                rel_tol=1e-15)
        assert math.isclose(lemma6_gap_floor(0.2, 4) / cor3_gap(0.2, 4),
                            10 ** -1.1, rel_tol=1e-12)

    def test_hoeffding_examples(self):
        assert hoeffding_n(0.2) == oracles.HOEFFDING_N_GAP02 == 55
        assert hoeffding_n(1.0) == math.ceil(2 * math.log(3))
        assert hoeffding_n(0.1, 0.05) == math.ceil(2 * math.log(20) / 0.01)

    def test_thm1_n(self):
        assert math.isclose(thm1_n(4, 0.1),
                            10 ** 37.9 * 4 ** 22 / 0.1 ** 16, rel_tol=1e-15)


class TestDomains:
    @pytest.mark.parametrize("call", [
        lambda: thm2_bound(-0.1, 3, 3, 0),
        lambda: lemma1_anticommutator(-1e-9),
        lambda: cor1_bound(-0.1, 1),
        lambda: cor1_bound(0.1, -1),
        lambda: lemma2_bound(0.1, -1, 0),
        lambda: lemma2_bound(-0.1, 1, 1),
        lambda: lemma3_bound(0.1, -0.1),
        lambda: lemma4_bound(-0.1, 3, 4),
        lambda: lemma5_eps_of_delta(-0.1, 3),
        lambda: lemma5_gap(0.1, 3, 0),
        lambda: cor3_gap(-0.1, 3),
        lambda: lemma6_q(0.9, 0.8, 1 / 3, 0.0),
        lambda: lemma6_q(0.9, 0.8, 1 / 3, 0.2),
        lambda: lemma6_q(0.8, 0.9, 1 / 3, 0.1),
        lambda: lemma6_gap(0.95, 1 / 3, 0.8, 0.9, 0.1),
        lambda: lemma6_gap(0.95, 1 / 3, 0.9, 0.8, 0.5),
        lambda: lemma6_gap_floor(-0.1, 3),
        lambda: hoeffding_n(0.0),
        lambda: hoeffding_n(1.5),
        lambda: hoeffding_n(0.2, 0.0),
        lambda: hoeffding_n(0.2, 1.0),
        lambda: thm1_n(3, 0.0),
        # s_calc above 1 - delta puts the coin weight q above 1
        lambda: lemma6_q(0.9, 0.8, 0.95, 0.1),
        lambda: lemma6_gap(0.95, 1.0, 0.9, 0.8, 0.1),
    ])
    def test_out_of_domain_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    def test_lemma6_boundary_delta_allowed(self):
        assert lemma6_q(0.9, 0.8, 1 / 3, 1 / 6) > 0
        assert lemma6_gap(0.95, 1 / 3, 0.9, 0.8, 1 / 6) > 0

    def test_zero_eps_allowed(self):
        assert thm2_bound(0.0, 3, 3, 1) == 0.0
        assert lemma1_anticommutator(0.0) == 0.0


class TestMonotonicity:
    @given(eps1=st.floats(min_value=1e-6, max_value=0.5),
           eps2=st.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_thm2_monotone_in_eps(self, eps1, eps2):
        lo, hi = sorted((eps1, eps2))
        assert thm2_bound(lo, 4, 6, 1) <= thm2_bound(hi, 4, 6, 1)

    @given(d1=st.floats(min_value=1e-3, max_value=0.9),
           d2=st.floats(min_value=1e-3, max_value=0.9),
           n=st.integers(min_value=3, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_cor3_gap_monotone(self, d1, d2, n):
        lo, hi = sorted((d1, d2))
        assert cor3_gap(lo, n) <= cor3_gap(hi, n)
        assert cor3_gap(lo, n + 1) < cor3_gap(lo, n)

    @given(g1=st.floats(min_value=0.01, max_value=1.0),
           g2=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_hoeffding_nonincreasing_in_gap(self, g1, g2):
        lo, hi = sorted((g1, g2))
        assert hoeffding_n(hi) <= hoeffding_n(lo)


def _cor3_chain(delta, n):
    """Corollary 3's chain: the package's lemma5_gap at the composed
    delta' = delta / (2 (8n + 1)), the oracle's two middle lines, and the
    package's cor3_gap."""
    _, line1, line2, _ = oracles.cor3_chain(delta, n)
    return lemma5_gap(delta / (2 * (8 * n + 1)), n), line1, line2, cor3_gap(delta, n)


class TestChain:
    @pytest.mark.parametrize("n", [7, 9, 15, 40])
    def test_chain_is_a_descent_for_large_n(self, n):
        exact, line1, line2, line3 = _cor3_chain(1 / 6, n)
        assert exact >= line1 >= line2 >= line3

    def test_chain_final_line_is_cor3_gap(self):
        # the ends of the chain are the package's bounds at the oracle's values
        exact, _, _, line3 = oracles.cor3_chain(0.12, 9)
        assert math.isclose(line3, cor3_gap(0.12, 9), rel_tol=1e-15)
        assert math.isclose(exact, _cor3_chain(0.12, 9)[0], rel_tol=1e-12)

    def test_bound_chain_report_stage_order_and_values(self):
        n, edges, eps = 4, 6, 1e-3
        stages = bound_chain_report(n, edges, eps)
        names = [s["stage"] for s in stages]
        assert names == ["thm2", "lemma3", "lemma4", "cor2",
                         "lemma5_delta", "cor3_gap"]
        d_thm2 = thm2_bound(eps, n, edges, 1)
        d_rot = lemma3_bound(eps, d_thm2)
        by_name = {s["stage"]: s["value"] for s in stages}
        assert math.isclose(by_name["thm2"], d_thm2, rel_tol=1e-15)
        assert math.isclose(by_name["lemma3"], d_rot, rel_tol=1e-15)
        assert math.isclose(by_name["lemma4"], lemma4_bound(d_rot, n, 4),
                            rel_tol=1e-15)
        assert math.isclose(by_name["cor2"], cor2_bound(d_rot, n, 4),
                            rel_tol=1e-15)
        delta5 = lemma5_delta_of_eps(eps, n)
        assert math.isclose(by_name["lemma5_delta"], delta5, rel_tol=1e-15)
        assert math.isclose(by_name["cor3_gap"], cor3_gap(delta5, n),
                            rel_tol=1e-15)
        for stage in stages:
            assert set(stage) == {"stage", "value", "inputs"}


class TestEvaluate:
    def test_dispatch_matches_direct_calls(self):
        assert evaluate("thm2", eps=0.01, n=5, edges=9, p=2) == \
            thm2_bound(0.01, 5, 9, 2)
        assert evaluate("lemma6q", c_test=0.9, s_test=0.8, s_calc=1 / 3,
                        delta=1 / 6) == lemma6_q(0.9, 0.8, 1 / 3, 1 / 6)

    def test_kind_normalization(self):
        for spelled in ("lemma6_q", "Lemma6-Q", "LEMMA6Q"):
            assert evaluate(spelled, c_test=0.9, s_test=0.8, s_calc=1 / 3,
                            delta=1 / 6) == lemma6_q(0.9, 0.8, 1 / 3, 1 / 6)

    def test_defaults(self):
        assert evaluate("lemma4", delta=0.01, n=5) == lemma4_bound(0.01, 5, 4)
        assert evaluate("hoeffdingn", gap=0.2) == 55
        assert evaluate("lemma5gap", delta=0.1, n=4) == lemma5_gap(0.1, 4, 16)

    def test_values_are_read_by_annotation(self):
        assert evaluate("lemma5gap", delta=0.1, n=4, n_g=None) == lemma5_gap(0.1, 4, 16)
        assert evaluate("lemma5gap", delta=0.1, n=4, n_g=16) == lemma5_gap(0.1, 4, 16)
        for kind, params in (("lemma5gap", {"delta": 0.1, "n": None}),
                             ("lemma5gap", {"delta": None, "n": 4}),
                             ("lemma4", {"delta": 0.1, "n": 3, "m": 2.5}),
                             ("hoeffdingn", {"gap": True}),
                             ("lemma1", {"eps": "0.1"}),
                             ("lemma1", {"eps": math.inf})):
            with pytest.raises(ValueError):
                evaluate(kind, **params)

    def test_a_result_that_is_not_finite_is_refused(self):
        with pytest.raises(DomainError):
            evaluate("thm2", eps=1e308, n=3, edges=3, p=1)

    def test_missing_parameter(self):
        with pytest.raises(MissingParameterError):
            evaluate("thm2", eps=0.01, n=5)

    def test_extra_parameter_rejected(self):
        with pytest.raises(ValueError):
            evaluate("lemma1", eps=0.1, n=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            evaluate("lemma99", eps=0.1)

    def test_formula_table_covers_every_kind(self):
        assert set(FORMULAS) == set(KINDS)
        assert all(isinstance(v, str) and v for v in FORMULAS.values())

    def test_every_parameter_annotation_has_a_reader(self):
        for fn, _ in bounds._REGISTRY.values():
            for param in inspect.signature(fn).parameters.values():
                assert param.annotation in bounds._READERS, (fn.__name__, param)
