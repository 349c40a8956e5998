import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from conftest import bundled, random_psd
from oracles import exponentiality_check, joint_non_outage, polar_complex, quad_form
from wiretap.mi import MiEvaluator, bpsk
from wiretap.model import ModelError, RatePair, WiretapProblem, thresholds_gaussian
from wiretap.montecarlo import (
    _standard_complex,
    estimate_individual_probs,
    estimate_non_outage,
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
        h1 = ref_j1.H[0]
        scale = np.sqrt(np.outer(np.diag(h1).real, np.diag(h1).real))
        assert np.all(np.abs(cov - h1) <= 3.0 * band * scale)

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
        assert all(c.B is chunks[0].B for c in chunks)
        g = np.concatenate([c.g for c in chunks])
        v = np.einsum("cab,a->cb", chunks[0].B.conj(), w)  # v_c = B_c* w
        h = np.concatenate([c.h for c in chunks])
        z = np.concatenate([c.z for c in chunks])
        assert hp.shape == (50, 2) and zp.shape == (50, 3)
        for i in range(50):
            # |g_i* v_c|^2 = |g_i^T conj(v_c)|^2, one trial at a time.
            powers = np.abs(np.einsum("cb,cb->c", g[i], v.conj())) ** 2
            assert np.array_equal(np.concatenate([hp[i], zp[i]]), powers)
            np.testing.assert_allclose(hp[i], np.abs(h[i].conj() @ w) ** 2, rtol=1e-12)
            np.testing.assert_allclose(zp[i], np.abs(z[i].conj() @ w) ** 2, rtol=1e-12)


EPS = np.finfo(float).eps


class TestStandardComplex:
    """The half-angle phase map against the polar oracle radius * exp(2j pi v):
    within 8 eps of the radius entrywise, with modulus the radius to 4 eps
    relative, and never a floating-point exception (overflow, invalid,
    division by zero or underflow)."""

    def assert_matches_polar(self, u):
        with np.errstate(all="raise"):
            g = _standard_complex(u)
            want = polar_complex(u)
            radius = np.sqrt(-np.log1p(-u[..., 0]))
        assert g.dtype == np.complex128 and g.shape == u.shape[:-1]
        assert np.all(np.isfinite(g))
        assert np.all(np.abs(g - want) <= 8.0 * EPS * radius)
        assert np.all(np.abs(np.abs(g) - radius) <= 4.0 * EPS * radius)

    def test_philox_pairs_match_polar_map(self):
        u = Generator(Philox(key=2024)).random((1_000_000, 2))
        self.assert_matches_polar(u)

    def test_phase_edges_match_polar_map(self):
        # The quarter turns, both sides of the half turn (where the tangent
        # is largest, about 1.6e16) and the last uniform below one, each at
        # radius 0, a middle one and the largest a 53-bit uniform gives.
        v = np.array([0.0, 0.25, 0.5, 0.75, 0.5 - 2.0**-53, 0.5 + 2.0**-53, 1.0 - 2.0**-53])
        r = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        u = np.stack(np.broadcast_arrays(r[:, None], v[None, :]), axis=-1)
        self.assert_matches_polar(u)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([2, 3, 4, 8]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=40),
)
def test_tensor_free_powers_match_channel_products(seed, n, k, j, chunk_size):
    # Covariances of every rank from 0 (all zero) to n; w is a random vector.
    rng = np.random.default_rng(seed)
    covs = [random_psd(rng, n, rank=int(rng.integers(0, n + 1))) for _ in range(k + j)]
    p = WiretapProblem(H=tuple(covs[:k]), Z=tuple(covs[k:]), N0=1.0, epsilon=0.1, P_T=1.0)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    count = 60
    hp, zp = draw(p, w, seed, count, chunk_size)
    chunks = list(sample_channels(p, seed, count, chunk_size))
    h = np.concatenate([c.h for c in chunks])
    z = np.concatenate([c.z for c in chunks])
    np.testing.assert_allclose(hp, np.abs(np.einsum("mka,a->mk", h.conj(), w)) ** 2,
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(zp, np.abs(np.einsum("mja,a->mj", z.conj(), w)) ** 2,
                               rtol=1e-12, atol=1e-13)
    whole = draw(p, w, seed, count, count)
    assert np.array_equal(hp, whole[0]) and np.array_equal(zp, whole[1])


class TestNonOutage:
    def test_zero_beamformer_never_succeeds(self):
        p = white_problem()
        w = np.zeros(3)
        t = thresholds_gaussian(p, RatePair(0.5, 0.0))
        est = estimate_non_outage(p, t, w, draw(p, w, 0, 2000))
        assert est.p_hat == 0.0

    def test_vacuous_eavesdroppers_tiny_rate(self):
        p = white_problem(k=1, j=0)
        w = np.array([5.0, 0.0, 0.0], dtype=complex)
        t = thresholds_gaussian(p, RatePair(1e-4, 0.0))
        est = estimate_non_outage(p, t, w, draw(p, w, 1, 5000))
        assert est.p_hat >= 0.99

    def test_empty_stream_rejected(self):
        with pytest.raises(ModelError):
            received_powers(iter(()), np.ones(3))
        with pytest.raises(ModelError):
            draw(white_problem(), np.ones(3), 0, 0)

    # Rejected at the call, before any chunk is drawn.
    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_rejected(self, seed):
        with pytest.raises(ModelError):
            sample_channels(white_problem(), seed, 10)

    @pytest.mark.parametrize("count, chunk_size", [(-1, 8192), (10, 0), (10, -3)])
    def test_bad_count_or_chunk_size_rejected_at_call(self, count, chunk_size):
        with pytest.raises(ModelError):
            sample_channels(white_problem(), 0, count, chunk_size)

    def test_over_budget_beamformer_rejected(self):
        p = white_problem(p_t=1.0)
        w = np.ones(3) * 5
        with pytest.raises(ModelError):
            estimate_non_outage(p, thresholds_gaussian(p, RatePair(0.5, 0.0)), w,
                                draw(p, w, 0, 10))

    def test_solved_point_meets_target(self, ref_j1):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j1, r)
        assert sol.status == "optimal"
        est = estimate_non_outage(ref_j1, sol.thresholds, sol.w,
                                  draw(ref_j1, sol.w, 17, 100_000))
        assert est.p_hat >= (1.0 - ref_j1.epsilon) - 3.0 * est.ci_halfwidth

    def test_finite_alphabet_rate_map(self, ref_j1):
        ev = MiEvaluator(bpsk())
        r = RatePair(0.5, 0.2)
        sol = solve_general(ref_j1, r, input_model=ev)
        assert sol.status == "optimal"
        # The solve's power targets are the rate thresholds I^-1(R) N0.
        assert sol.thresholds.user_power_target == ev.inverse(r.R_D) * ref_j1.N0
        assert sol.thresholds.eave_power_target == ev.inverse(r.R_gap) * ref_j1.N0
        est = estimate_non_outage(ref_j1, sol.thresholds, sol.w,
                                  draw(ref_j1, sol.w, 23, 50_000))
        assert est.p_hat >= (1.0 - ref_j1.epsilon) - 3.0 * est.ci_halfwidth
        # the finite-alphabet design needs more power than the Gaussian one
        gauss = solve_general(ref_j1, r)
        assert sol.power >= gauss.power - 1e-9

    def test_determinism(self, ref_j1):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j1, r)
        e1 = estimate_non_outage(ref_j1, sol.thresholds, sol.w, draw(ref_j1, sol.w, 31, 20_000))
        e2 = estimate_non_outage(ref_j1, sol.thresholds, sol.w, draw(ref_j1, sol.w, 31, 20_000))
        assert e1.successes == e2.successes

    def test_counts_do_not_depend_on_chunk_size(self, ref_j2):
        r = RatePair(0.8, 0.4)
        sol = solve_general(ref_j2, r)
        counts = []
        for chunk_size in (7, 4096, 5000, 10_000):
            powers = draw(ref_j2, sol.w, 37, 5000, chunk_size)
            users, eaves = estimate_individual_probs(sol.thresholds, powers)
            counts.append((estimate_non_outage(ref_j2, sol.thresholds, sol.w, powers).successes,
                           [e.successes for e in users + eaves]))
        assert all(c == counts[0] for c in counts)


# The montecarlo benchmark's three points (problems/paper_j1..3.json hold these
# instances) at seed 0 and 1e5 trials: the joint successes, then the per-user
# and the per-eavesdropper successes.
@pytest.mark.parametrize("j, rd, rs, joint, users, eaves", [
    (1, 1.0, 0.5, 93392, [96696, 96643], [99958]),
    (2, 0.8, 0.4, 93443, [97488, 97447], [99787, 98567]),
    (3, 0.5, 0.15, 92551, [98015, 97870], [99671, 98812, 97984]),
])
def test_benchmark_point_counts(j, rd, rs, joint, users, eaves):
    p = bundled(j)
    sol = solve_general(p, RatePair(rd, rs))
    powers = draw(p, sol.w, 0, 100_000)
    got_users, got_eaves = estimate_individual_probs(sol.thresholds, powers)
    assert estimate_non_outage(p, sol.thresholds, sol.w, powers).successes == joint
    assert [u.successes for u in got_users] == users
    assert [e.successes for e in got_eaves] == eaves


# The joint success frequency against its closed form at the benchmark
# points: the draw is CN(0, I) per link, independent across links, so the
# design's exact joint non-outage is the product of the per-link laws.
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("j, rd, rs", [(1, 1.0, 0.5), (2, 0.8, 0.4), (3, 0.5, 0.15)])
def test_joint_non_outage_matches_closed_form(j, rd, rs, seed):
    p = bundled(j)
    sol = solve_general(p, RatePair(rd, rs))
    est = estimate_non_outage(p, sol.thresholds, sol.w, draw(p, sol.w, seed, 100_000))
    exact = joint_non_outage(p, sol.thresholds, sol.w)
    assert exact >= 1.0 - p.epsilon
    assert abs(est.p_hat - exact) <= 3.0 * est.ci_halfwidth


class TestIndividualProbs:
    def test_against_exponential_cdf_oracle(self, ref_j1):
        r = RatePair(0.9, 0.3)
        sol = solve_general(ref_j1, r)
        t = sol.thresholds
        users, eaves = estimate_individual_probs(t, draw(ref_j1, sol.w, 41, 100_000))

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
