import numpy as np
import pytest

from conftest import random_psd
from wiretap.kkt import check_kkt, rank_bound_check
from wiretap.model import (
    STATISTICAL,
    ConstraintThresholds,
    ModelError,
    RatePair,
    WiretapProblem,
    perfect_users,
    thresholds_gaussian,
)
from wiretap.sdp import DualVariables, solve_rank_relaxed


def thresholds(a, b=0.0):
    return ConstraintThresholds(a=a, b=b, per_link_prob=0.9,
                                user_power_target=a, eave_power_target=b)


class TestCheckKkt:
    def test_hand_built_one_dimensional_system(self):
        # K=1, J=0, H=[1], a=2, P_T=10: W=[2], lam=0, mu=1 solves the system
        # exactly (stationarity 1 - mu = Lambda = 0), all residuals zero.
        p = WiretapProblem(H=(np.array([[1.0 + 0j]]),), Z=(), N0=1.0,
                           epsilon=0.5, P_T=10.0)
        duals = DualVariables(lam=0.0, mu=np.array([1.0]), nu=np.array([]),
                              Lambda=np.array([[0.0 + 0j]]))
        rep = check_kkt(p, thresholds(a=2.0), np.array([[2.0 + 0j]]), duals)
        assert rep.primal_feasible
        assert rep.max_residual() == pytest.approx(0.0, abs=1e-15)
        assert rep.stationarity_min_eig == pytest.approx(0.0, abs=1e-15)
        assert rep.passes(1e-5)

    def test_zero_duals_fail_complementary_slackness(self):
        # With all multipliers zero, K6 gives Lambda = I, so ||Lambda W||
        # equals ||W|| (here ||W|| <= 1, so the normalization is inert).
        p = WiretapProblem(H=(np.array([[1.0 + 0j]]),), Z=(), N0=1.0,
                           epsilon=0.5, P_T=10.0)
        w = np.array([[0.5 + 0j]])
        duals = DualVariables(lam=0.0, mu=np.array([0.0]), nu=np.array([]),
                              Lambda=np.array([[1.0 + 0j]]))
        rep = check_kkt(p, thresholds(a=0.25), w, duals)
        assert rep.compl_slack_W == pytest.approx(0.5)
        assert not rep.passes(1e-5)

    def test_solver_output_reference_instance(self, ref_j1):
        t = thresholds_gaussian(ref_j1, RatePair(1.0, 0.5))
        sol = solve_rank_relaxed(ref_j1, t)
        rep = check_kkt(ref_j1, t, sol.W, sol.duals)
        assert rep.primal_feasible
        assert rep.max_residual() <= 1e-6
        assert rep.stationarity_min_eig >= -1e-6
        assert rep.passes(1e-5)

    def test_dimension_mismatch_rejected(self, ref_j1):
        # A W of the wrong shape, and perfect CSI with one user channel for
        # the two users, or two channels of dimension 2 for N = 3.
        t = thresholds_gaussian(ref_j1, RatePair(0.5, 0.1))
        duals = DualVariables(lam=0.0, mu=np.zeros(2), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        for W, mode, match in ((np.eye(2, dtype=complex), STATISTICAL, "shape"),
                               (np.eye(3, dtype=complex), perfect_users([np.ones(3)]), "channels"),
                               (np.eye(3, dtype=complex), perfect_users([np.ones(2)] * 2),
                                "dimension")):
            with pytest.raises(ModelError, match=match):
                check_kkt(ref_j1, t, W, duals, mode=mode)

    def test_infeasible_candidate_flagged(self, ref_j1):
        t = thresholds_gaussian(ref_j1, RatePair(1.0, 0.5))
        duals = DualVariables(lam=0.0, mu=np.zeros(2), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        # W = 0 misses the floors, and W = P_T I (Tr W = 3 P_T) the budget.
        for W, violated in ((np.zeros((3, 3), dtype=complex), "floor"),
                            (ref_j1.P_T * np.eye(3, dtype=complex), "power budget violated")):
            rep = check_kkt(ref_j1, t, W, duals)
            assert not rep.primal_feasible
            assert any(violated in v for v in rep.feasibility_violations)


class TestRankBound:
    def test_rank_one_covariance_forces_rank_one_solution(self):
        # K=1 with a rank-one user covariance always produces a rank-one W
        # on converged instances (the dual rank argument leaves no room).
        for seed in range(6):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            p = WiretapProblem(H=(np.outer(v, v.conj()),),
                               Z=(random_psd(rng, 3, scale=0.01, ridge=0.2),),
                               N0=1.0, epsilon=0.1, P_T=100.0)
            t = thresholds_gaussian(p, RatePair(0.5, 0.1))
            sol = solve_rank_relaxed(p, t)
            if sol.status != "optimal":
                continue
            rep = rank_bound_check(sol.W, sol.duals, p, t)
            assert rep.rank_W == 1
            assert rep.rank_muH == 1
            assert rep.ok

    def test_zero_mu_with_nonzero_w_violates(self, ref_j1):
        t = thresholds_gaussian(ref_j1, RatePair(0.5, 0.1))
        duals = DualVariables(lam=0.0, mu=np.zeros(2), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        rep = rank_bound_check(np.eye(3, dtype=complex), duals, ref_j1, t)
        assert not rep.mu_positive_ok
        assert not rep.ok

    def test_full_rank_covariances_make_bound_vacuous(self, ref_j2):
        t = thresholds_gaussian(ref_j2, RatePair(0.6, 0.2))
        sol = solve_rank_relaxed(ref_j2, t)
        assert sol.status == "optimal"
        rep = rank_bound_check(sol.W, sol.duals, ref_j2, t)
        assert rep.rank_muH == 3  # binding full-rank H makes the bound vacuous
        assert rep.ok

    def test_zero_w_rejected(self, ref_j1):
        t = thresholds_gaussian(ref_j1, RatePair(0.5, 0.1))
        duals = DualVariables(lam=0.0, mu=np.ones(2), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        with pytest.raises(ModelError):
            rank_bound_check(np.zeros((3, 3), dtype=complex), duals, ref_j1, t)

    @pytest.mark.parametrize("n", [2, 5])
    def test_wrong_w_shape_rejected(self, ref_j1, n):
        t = thresholds_gaussian(ref_j1, RatePair(0.5, 0.1))
        duals = DualVariables(lam=0.0, mu=np.ones(2), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        with pytest.raises(ModelError, match="shape"):
            rank_bound_check(np.eye(n, dtype=complex), duals, ref_j1, t)

    @pytest.mark.parametrize("k", [1, 3])
    def test_wrong_mu_length_rejected(self, ref_j1, k):
        t = thresholds_gaussian(ref_j1, RatePair(0.5, 0.1))
        duals = DualVariables(lam=0.0, mu=np.ones(k), nu=np.zeros(1),
                              Lambda=np.eye(3, dtype=complex))
        with pytest.raises(ModelError, match="counts"):
            rank_bound_check(np.eye(3, dtype=complex), duals, ref_j1, t)


def test_randomized_suite_passes_kkt():
    passed = 0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        k = int(rng.integers(1, 3))
        j = int(rng.integers(0, 3))
        p = WiretapProblem(
            H=tuple(random_psd(rng, 3, ridge=0.2) for _ in range(k)),
            Z=tuple(random_psd(rng, 3, scale=0.01, ridge=0.2) for _ in range(j)),
            N0=1.0, epsilon=float(rng.uniform(0.05, 0.3)),
            P_T=float(10 ** rng.uniform(1.0, 1.6)),
        )
        rd = float(rng.uniform(0.1, 0.8))
        r = RatePair(rd, rd * float(rng.uniform(0.0, 0.8)))
        t = thresholds_gaussian(p, r)
        sol = solve_rank_relaxed(p, t)
        if sol.status != "optimal":
            continue
        rep = check_kkt(p, t, sol.W, sol.duals)
        assert rep.passes(1e-5), (seed, rep)
        # scalar identity also holds at 1e-5 relative
        assert rep.scalar_identity <= 1e-5
        if float(np.linalg.norm(sol.W)) > 0:
            bound = rank_bound_check(sol.W, sol.duals, p, t)
            assert bound.ok, (seed, bound)
        passed += 1
    assert passed >= 10
