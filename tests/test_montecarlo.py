import math

import numpy as np
import pytest

from wiretap.instances import H1
from wiretap.mi import MiEvaluator, bpsk
from wiretap.model import ModelError, RatePair, WiretapProblem, thresholds_gaussian
from wiretap.montecarlo import (
    estimate_individual_probs,
    estimate_non_outage,
    exponentiality_check,
    received_powers,
    sample_channels,
)
from wiretap.sdp import solve_general


def white_problem(k=1, j=0, n=3, p_t=100.0):
    return WiretapProblem(
        H=tuple(np.eye(n, dtype=complex) for _ in range(k)),
        Z=tuple(np.eye(n, dtype=complex) * 0.01 for _ in range(j)),
        N0=1.0, epsilon=0.1, P_T=p_t,
    )


def draw(p, w, seed, count, chunk_size=8192):
    return received_powers(sample_channels(p, seed, count, chunk_size), w)


class TestSampling:
    def test_white_sample_covariance(self):
        p = white_problem()
        n = 100_000
        acc = np.zeros((3, 3), dtype=complex)
        for chunk in sample_channels(p, seed=1, count=n):
            acc += np.einsum("mi,mj->ij", chunk.h[:, 0], chunk.h[:, 0].conj())
        cov = acc / n
        assert np.max(np.abs(cov - np.eye(3))) <= 3.0 / math.sqrt(n) * 3.0

    def test_zero_covariance_gives_zero_samples(self):
        p = WiretapProblem(H=(np.zeros((2, 2), dtype=complex),), Z=(),
                           N0=1.0, epsilon=0.1, P_T=1.0)
        for chunk in sample_channels(p, seed=3, count=10):
            assert np.allclose(chunk.h, 0.0)

    def test_reference_covariance_convergence(self, ref_j1):
        n = 100_000
        acc = np.zeros((3, 3), dtype=complex)
        for chunk in sample_channels(ref_j1, seed=5, count=n):
            acc += np.einsum("mi,mj->ij", chunk.h[:, 0], chunk.h[:, 0].conj())
        cov = acc / n
        band = 3.0 / math.sqrt(n)
        scale = np.sqrt(np.outer(np.diag(H1).real, np.diag(H1).real))
        assert np.all(np.abs(cov - H1) <= 3.0 * band * scale)

    def test_deterministic_in_seed_and_chunking(self, ref_j1):
        def channels(seed, chunk_size):
            chunks = list(sample_channels(ref_j1, seed, 40, chunk_size))
            return np.concatenate([c.h for c in chunks]), np.concatenate([c.z for c in chunks])

        a = channels(9, 7)
        for b in (channels(9, 4096), channels(9, 40)):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.allclose(a[0][0], channels(10, 40)[0][0])

    def test_sample_shapes(self, ref_j3):
        chunks = list(sample_channels(ref_j3, seed=0, count=10, chunk_size=4))
        assert [c.h.shape for c in chunks] == [(4, 2, 3), (4, 2, 3), (2, 2, 3)]
        assert [c.z.shape for c in chunks] == [(4, 3, 3), (4, 3, 3), (2, 3, 3)]
        assert list(sample_channels(ref_j3, seed=0, count=0)) == []

    def test_received_powers_match_per_trial_products(self, ref_j3):
        w = np.array([1.0, 0.5j, -0.25])
        hp, zp = draw(ref_j3, w, 5, 50, chunk_size=16)
        chunks = list(sample_channels(ref_j3, 5, 50, chunk_size=16))
        h = np.concatenate([c.h for c in chunks])
        z = np.concatenate([c.z for c in chunks])
        assert hp.shape == (50, 2) and zp.shape == (50, 3)
        for i in range(50):
            assert np.array_equal(hp[i], np.abs(h[i].conj() @ w) ** 2)
            assert np.array_equal(zp[i], np.abs(z[i].conj() @ w) ** 2)


class TestNonOutage:
    def test_zero_beamformer_never_succeeds(self):
        p = white_problem()
        w = np.zeros(3)
        est = estimate_non_outage(p, RatePair(0.5, 0.0), w, draw(p, w, 0, 2000))
        assert est.p_hat == 0.0

    def test_vacuous_eavesdroppers_tiny_rate(self):
        p = white_problem(k=1, j=0)
        w = np.array([5.0, 0.0, 0.0], dtype=complex)
        est = estimate_non_outage(p, RatePair(1e-4, 0.0), w, draw(p, w, 1, 5000))
        assert est.p_hat >= 0.99

    def test_empty_stream_rejected(self):
        with pytest.raises(ModelError):
            received_powers(iter(()), np.ones(3))
        with pytest.raises(ModelError):
            draw(white_problem(), np.ones(3), 0, 0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_rejected(self, seed):
        with pytest.raises(ModelError):
            next(sample_channels(white_problem(), seed, 10))

    def test_over_budget_beamformer_rejected(self):
        p = white_problem(p_t=1.0)
        w = np.ones(3) * 5
        with pytest.raises(ModelError):
            estimate_non_outage(p, RatePair(0.5, 0.0), w, draw(p, w, 0, 10))

    def test_solved_point_meets_target(self, ref_j1):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j1, r)
        assert sol.status == "optimal"
        est = estimate_non_outage(ref_j1, r, sol.w, draw(ref_j1, sol.w, 17, 100_000))
        assert est.p_hat >= (1.0 - ref_j1.epsilon) - 3.0 * est.ci_halfwidth

    def test_finite_alphabet_rate_map(self, ref_j1):
        ev = MiEvaluator(bpsk())
        r = RatePair(0.5, 0.2)
        sol = solve_general(ref_j1, r, input_model=ev)
        assert sol.status == "optimal"
        est = estimate_non_outage(ref_j1, r, sol.w, draw(ref_j1, sol.w, 23, 50_000),
                                  rate_map=ev)
        assert est.p_hat >= (1.0 - ref_j1.epsilon) - 3.0 * est.ci_halfwidth
        # the finite-alphabet design needs more power than the Gaussian one
        gauss = solve_general(ref_j1, r)
        assert sol.power >= gauss.power - 1e-9

    def test_determinism(self, ref_j1):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j1, r)
        e1 = estimate_non_outage(ref_j1, r, sol.w, draw(ref_j1, sol.w, 31, 20_000))
        e2 = estimate_non_outage(ref_j1, r, sol.w, draw(ref_j1, sol.w, 31, 20_000))
        assert e1.successes == e2.successes

    def test_counts_do_not_depend_on_chunk_size(self, ref_j2):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j2, r)
        counts = []
        for chunk_size in (7, 4096, 5000, 10_000):
            powers = draw(ref_j2, sol.w, 37, 5000, chunk_size)
            users, eaves = estimate_individual_probs(sol.thresholds, powers)
            counts.append((estimate_non_outage(ref_j2, r, sol.w, powers).successes,
                           [e.successes for e in users + eaves]))
        assert all(c == counts[0] for c in counts)


class TestIndividualProbs:
    def test_against_exponential_cdf_oracle(self, ref_j1):
        r = RatePair(0.9, 0.3)
        sol = solve_general(ref_j1, r)
        t = sol.thresholds
        users, eaves = estimate_individual_probs(t, draw(ref_j1, sol.w, 41, 100_000))
        from wiretap.linalg import quad_form

        for k, est in enumerate(users):
            expect = math.exp(-t.user_power_target / quad_form(sol.w, ref_j1.H[k]))
            assert abs(est.p_hat - expect) <= 3.0 * max(est.ci_halfwidth, 1e-4)
            assert est.p_hat >= t.per_link_prob - 3.0 * est.ci_halfwidth
        for j, est in enumerate(eaves):
            expect = 1.0 - math.exp(-t.eave_power_target / quad_form(sol.w, ref_j1.Z[j]))
            assert abs(est.p_hat - expect) <= 3.0 * max(est.ci_halfwidth, 1e-4)
            assert est.p_hat >= t.per_link_prob - 3.0 * est.ci_halfwidth

    def test_boundary_quad_form_hits_per_link_probability(self):
        # scale w so w* H w = a exactly: the success probability should sit at
        # the per-link target.
        p = white_problem()
        r = RatePair(1.0, 0.0)
        t = thresholds_gaussian(p, r)
        w = np.array([1.0, 0.0, 0.0], dtype=complex) * math.sqrt(t.a)
        users, _ = estimate_individual_probs(t, draw(p, w, 43, 100_000))
        est = users[0]
        assert abs(est.p_hat - t.per_link_prob) <= 3.0 * est.ci_halfwidth

    def test_zero_ceiling_event_has_measure_zero(self):
        p = white_problem(k=1, j=1)
        t = thresholds_gaussian(p, RatePair(1.0, 1.0))  # b = 0
        w = np.array([2.0, 0.0, 0.0], dtype=complex)
        _, eaves = estimate_individual_probs(t, draw(p, w, 47, 20_000))
        assert eaves[0].p_hat == 0.0


class TestExponentiality:
    def test_white_unit_mean(self):
        p = white_problem()
        rep = exponentiality_check(p, np.array([1.0, 0, 0]),
                                   sample_channels(p, 51, 100_000), 0)
        assert rep.expected_mean == pytest.approx(1.0)
        assert rep.passed, rep

    def test_scaled_covariance(self):
        p = WiretapProblem(H=(2.0 * np.eye(2, dtype=complex),), Z=(),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        rep = exponentiality_check(p, np.array([1.0, 0.0]),
                                   sample_channels(p, 53, 100_000), 0)
        assert rep.expected_mean == pytest.approx(2.0)
        assert rep.passed, rep

    def test_reference_first_diagonal_entry(self, ref_j1):
        # mean of |h_1* w|^2 with w = e_1 is the (1,1) entry of the first
        # user covariance, 2.1670.
        rep = exponentiality_check(ref_j1, np.array([1.0, 0, 0]),
                                   sample_channels(ref_j1, 57, 100_000), 0)
        assert rep.expected_mean == pytest.approx(2.1670)
        assert abs(rep.sample_mean - 2.1670) / 2.1670 <= rep.stat_band
        assert rep.passed, rep

    def test_degenerate_direction_rejected(self):
        p = WiretapProblem(H=(np.diag([0.0, 1.0]).astype(complex),), Z=(),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        with pytest.raises(ModelError):
            exponentiality_check(p, np.array([1.0, 0.0]),
                                 sample_channels(p, 0, 100), 0)
