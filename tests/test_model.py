import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap.mi import MiEvaluator, bpsk, qpsk
from wiretap.model import (
    ModelError,
    RatePair,
    RateUnachievableError,
    WiretapProblem,
    thresholds_finite_alphabet,
    thresholds_gaussian,
    validate_problem,
)
from wiretap.sdp import solve_general

# Hand-derived oracle values for K=2, J=1, eps=0.1, N0=1 (frozen from the
# closed forms a = (2^R_D - 1) / (-(1/3) ln 0.9) and
# b = (2^(R_D-R_s) - 1) / (-ln(1 - 0.9^(1/3))), evaluated independently below).
A_RD1 = 28.473664743089714
B_GAP_HALF = 0.1230402497408991


def small_problem(k=2, j=1, eps=0.1, n0=1.0, p_t=10.0):
    return WiretapProblem(
        H=tuple(np.eye(2) * (i + 1.0) for i in range(k)),
        Z=tuple(np.eye(2) * 0.01 for _ in range(j)),
        N0=n0,
        epsilon=eps,
        P_T=p_t,
    )


class TestValidation:
    def test_reference_instance_is_valid(self, ref_j3):
        assert ref_j3.N == 3 and ref_j3.K == 2 and ref_j3.J == 3
        assert ref_j3.P_T == pytest.approx(10.0**1.2)
        report = validate_problem(ref_j3)
        assert report.ok, report.violations

    def test_epsilon_out_of_range(self):
        p = small_problem(eps=1.5)
        report = validate_problem(p)
        assert not report.ok
        assert any("epsilon" in v for v in report.violations)

    def test_non_psd_covariance_flagged(self):
        # inject a -1 eigenvalue into the first reference user covariance
        from conftest import bundled
        from wiretap.linalg import hermitian_eig

        vals, vecs = hermitian_eig(bundled(1).H[0])
        vals = vals.copy()
        vals[0] = -1.0
        bad = (vecs * vals) @ vecs.conj().T
        p = WiretapProblem(H=(bad,), Z=(), N0=1.0, epsilon=0.1, P_T=1.0)
        report = validate_problem(p)
        assert not report.ok
        assert any("not PSD" in v for v in report.violations)

    def test_negative_power_flagged(self):
        report = validate_problem(small_problem(p_t=-1.0))
        assert not report.ok

    def test_covariances_symmetrized_on_ingestion(self):
        skew = np.array([[1.0, 0.1 + 1e-14j], [0.1 - 3e-14j, 1.0]])
        p = WiretapProblem(H=(skew,), Z=(), N0=1.0, epsilon=0.1, P_T=1.0)
        h = p.H[0]
        assert np.array_equal(h, h.conj().T)


class TestRatePair:
    def test_rejects_rs_above_rd(self):
        with pytest.raises(ModelError):
            RatePair(1.0, 1.5)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            RatePair(-0.5, -1.0)

    def test_gap(self):
        assert RatePair(2.0, 0.5).R_gap == pytest.approx(1.5)

    @pytest.mark.parametrize("rd, rs", [(math.inf, 0.0), (math.inf, math.inf), (math.nan, 0.0)])
    def test_rejects_non_finite(self, rd, rs):
        with pytest.raises(ModelError, match="finite"):
            RatePair(rd, rs)


class TestGaussianThresholds:
    def test_a_matches_hand_value(self):
        p = small_problem()
        t = thresholds_gaussian(p, RatePair(1.0, 0.5))
        # independent evaluation of the closed form
        hand = (2.0**1.0 - 1.0) / (-math.log(0.9) / 3.0)
        assert hand == pytest.approx(A_RD1, rel=1e-12)
        assert t.a == pytest.approx(hand, rel=1e-6)

    def test_b_matches_hand_value(self):
        p = small_problem()
        t = thresholds_gaussian(p, RatePair(1.0, 0.5))
        hand = (2.0**0.5 - 1.0) / (-math.log(1.0 - 0.9 ** (1.0 / 3.0)))
        assert hand == pytest.approx(B_GAP_HALF, rel=1e-12)
        assert t.b == pytest.approx(hand, rel=1e-6)

    def test_b_zero_when_rd_equals_rs(self):
        t = thresholds_gaussian(small_problem(), RatePair(1.0, 1.0))
        assert t.b == 0.0

    def test_a_zero_when_rd_zero(self):
        t = thresholds_gaussian(small_problem(), RatePair(0.0, 0.0))
        assert t.a == 0.0

    def test_per_link_prob(self):
        t = thresholds_gaussian(small_problem(), RatePair(1.0, 0.5))
        assert t.per_link_prob == pytest.approx(0.9 ** (1.0 / 3.0), rel=1e-12)

    def test_monte_carlo_exponential_tail_cross_check(self):
        # Pr{Exp(mean=a) >= (2^R_D - 1) N0} should equal the per-link target.
        p = small_problem()
        t = thresholds_gaussian(p, RatePair(1.0, 0.5))
        rng = np.random.default_rng(123)
        n = 200_000
        draws = rng.exponential(scale=t.a, size=n)
        p_hat = np.mean(draws >= t.user_power_target)
        ci = 1.96 * math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - t.per_link_prob) <= 3 * ci
        draws = rng.exponential(scale=t.b, size=n)
        p_hat = np.mean(draws <= t.eave_power_target)
        ci = 1.96 * math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - t.per_link_prob) <= 3 * ci


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=6.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_threshold_monotonicity(rd, frac, eps, k, j):
    p = WiretapProblem(
        H=tuple(np.eye(2) for _ in range(k)),
        Z=tuple(np.eye(2) * 0.01 for _ in range(j)),
        N0=1.0,
        epsilon=eps,
        P_T=10.0,
    )
    rs = rd * frac
    t = thresholds_gaussian(p, RatePair(rd, rs))
    up = thresholds_gaussian(p, RatePair(rd * 1.1, rs))
    assert up.a > t.a  # a strictly increasing in R_D
    assert up.b > t.b  # gap widened at fixed R_s
    less_secret = thresholds_gaussian(p, RatePair(rd, rs * 0.5))
    assert less_secret.b > t.b  # b strictly decreasing in R_s at fixed R_D
    assert t.per_link_prob >= 1.0 - eps - 1e-12
    if k + j == 1:
        assert t.per_link_prob == pytest.approx(1.0 - eps)
    else:
        assert t.per_link_prob > 1.0 - eps


class TestFiniteAlphabetThresholds:
    def test_gaussian_capacity_handle_reproduces_gaussian(self):
        p = small_problem()
        r = RatePair(1.25, 0.75)
        t_g = thresholds_gaussian(p, r)
        t_f = thresholds_finite_alphabet(p, r, lambda rho: math.log2(1.0 + rho))
        assert t_f.a == pytest.approx(t_g.a, rel=1e-9)
        assert t_f.b == pytest.approx(t_g.b, rel=1e-9)

    def test_b_zero_at_zero_gap(self):
        t = thresholds_finite_alphabet(small_problem(), RatePair(0.5, 0.5), MiEvaluator(bpsk()))
        assert t.b == 0.0

    def test_bpsk_half_rate(self):
        # a = I^{-1}(0.5) / (-(1/3) ln 0.9); oracle for I^{-1} is a dense
        # tabulation of the evaluator, interpolated.
        ev = MiEvaluator(bpsk())
        p = small_problem()
        t = thresholds_finite_alphabet(p, RatePair(0.5, 0.0), ev)
        grid = np.geomspace(1e-3, 1e3, 4001)
        vals = np.array([ev(g) for g in grid])
        rho_oracle = float(np.interp(0.5, vals, grid))
        denom = -math.log(0.9) / 3.0
        assert t.a == pytest.approx(rho_oracle / denom, rel=1e-3)

    def test_rate_at_capacity_rejected(self):
        with pytest.raises(RateUnachievableError):
            thresholds_finite_alphabet(small_problem(), RatePair(2.0, 0.0), MiEvaluator(qpsk()))

    def test_rate_above_capacity_rejected(self):
        with pytest.raises(RateUnachievableError):
            thresholds_finite_alphabet(small_problem(), RatePair(1.5, 0.0), MiEvaluator(bpsk()))

    def test_non_finite_threshold_rejected(self):
        # I^-1(1.9) N0 overflows once N0 is near the largest float.
        with pytest.raises(RateUnachievableError):
            thresholds_finite_alphabet(small_problem(n0=1e308), RatePair(1.9, 0.0),
                                       MiEvaluator(qpsk()))


class TestNonFiniteThresholds:
    @pytest.mark.parametrize("rd, n0", [
        (1e6, 1.0),      # 2^R_D overflows
        (1100.0, 1.0),   # so does 2^1100
        (100.0, 1e300),  # (2^100 - 1) N0 is inf
    ])
    def test_gaussian_rejected(self, rd, n0):
        with pytest.raises(RateUnachievableError):
            thresholds_gaussian(small_problem(n0=n0), RatePair(rd, 0.0))

    def test_solve_reports_the_error(self):
        with pytest.raises(RateUnachievableError):
            solve_general(small_problem(n0=1e300), RatePair(100.0, 0.0))

    def test_largest_finite_threshold_kept(self):
        t = thresholds_gaussian(small_problem(), RatePair(1000.0, 0.0))
        assert math.isfinite(t.a) and math.isfinite(t.b)
