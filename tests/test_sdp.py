import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from wiretap import sdp
from wiretap.constraints import ConstraintSet
from wiretap.kkt import check_kkt
from wiretap.linalg import LinalgError, numerical_rank, quad_form, trace_inner
from wiretap.mi import MiEvaluator, qam16
from wiretap.model import (
    STATISTICAL,
    ConstraintThresholds,
    RatePair,
    WiretapProblem,
    eave_denominator,
    perfect_users,
    thresholds_finite_alphabet,
    thresholds_gaussian,
)
from wiretap.sdp import (
    FEASIBLE,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    RANK1_INFEASIBLE,
    extract_principal_direction,
    power_rescale,
    relaxation_feasibility,
    solve_general,
    solve_rank_relaxed,
)
from wiretap.probfile import load_problem
from wiretap.sweep import code_rate_grid, sweep_region

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def thresholds(a, b=0.0):
    return ConstraintThresholds(a=a, b=b, per_link_prob=0.9,
                                user_power_target=a, eave_power_target=b)


def grid_min_power(p, t, n_theta=640, n_phi=720):
    """Brute-force oracle for N=2: cheapest feasible power over a dense grid
    of unit directions [cos th, sin th e^{i ph}], scaled by the closed form."""
    th = np.linspace(0.0, np.pi / 2.0, n_theta)
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    w1 = np.cos(tt)
    w2 = np.sin(tt) * np.exp(1j * pp)

    def qform(m):
        return (
            np.abs(w1) ** 2 * m[0, 0].real
            + np.abs(w2) ** 2 * m[1, 1].real
            + 2.0 * np.real(np.conj(w1) * w2 * m[0, 1])
        )

    power = np.zeros_like(tt)
    for m in p.H:
        q = qform(m)
        power = np.maximum(power, np.where(q > 0, t.a / np.maximum(q, 1e-300), np.inf))
    feasible = power <= p.P_T * (1 + 1e-9)
    for m in p.Z:
        feasible &= power * qform(m) <= t.b * (1 + 1e-9) + 1e-12
    if not np.any(feasible):
        return None
    return float(np.min(power[feasible]))


class TestSolveRankRelaxed:
    def test_reference_instance_rank_one(self, ref_j1):
        t = thresholds_gaussian(ref_j1, RatePair(1.0, 0.5))
        sol = solve_rank_relaxed(ref_j1, t)
        assert sol.status == OPTIMAL
        assert numerical_rank(sol.W, 1e-6) == 1
        # primal feasibility at tolerance
        assert np.real(np.trace(sol.W)) <= ref_j1.P_T * (1 + 1e-9)
        for h in ref_j1.H:
            assert trace_inner(sol.W, h) >= t.a * (1 - 1e-9)
        for z in ref_j1.Z:
            assert trace_inner(sol.W, z) <= t.b * (1 + 1e-9)
        # duality gap certified
        d = sol.duals
        cons = ConstraintSet.build(ref_j1, t)
        dual_objective = cons.dual_objective(cons.stack(d))
        assert abs(sol.objective - dual_objective) <= 1e-6 * max(1.0, sol.objective)

    def test_rank_one_user_covariance_closed_form(self):
        # K=1, J=0, H = v v*: any feasible W needs v* W v >= a; trace is
        # minimized by aligning with v, giving objective a / ||v||^2.
        rng = np.random.default_rng(7)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        h = np.outer(v, v.conj())
        p = WiretapProblem(H=(h,), Z=(), N0=1.0, epsilon=0.1, P_T=1e4)
        t = thresholds(a=5.0)
        sol = solve_rank_relaxed(p, t)
        assert sol.status == OPTIMAL
        nv2 = float(np.linalg.norm(v) ** 2)
        assert sol.objective == pytest.approx(5.0 / nv2, rel=1e-6)
        assert numerical_rank(sol.W, 1e-6) == 1
        w0 = extract_principal_direction(sol.W)
        assert abs(abs(np.vdot(w0, v / np.linalg.norm(v))) - 1.0) < 1e-6

    def test_zero_ceiling_with_positive_definite_eavesdropper(self):
        p = WiretapProblem(H=(np.eye(2),), Z=(np.eye(2) * 0.5,),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        sol = solve_rank_relaxed(p, thresholds(a=1.0, b=0.0))
        assert sol.status == INFEASIBLE
        cert = sol.certificate
        assert cert is not None
        assert cert.margin > max(0.0, -cert.combo_min_eig) * p.P_T

    def test_power_budget_infeasibility_certified(self):
        p = WiretapProblem(H=(np.eye(2),), Z=(), N0=1.0, epsilon=0.1, P_T=2.0)
        sol = solve_rank_relaxed(p, thresholds(a=5.0))
        assert sol.status == INFEASIBLE
        assert sol.certificate is not None

    def test_trivial_zero_rate(self):
        p = WiretapProblem(H=(np.eye(2),), Z=(np.eye(2) * 0.01,),
                           N0=1.0, epsilon=0.1, P_T=5.0)
        t = thresholds_gaussian(p, RatePair(0.0, 0.0))
        sol = solve_rank_relaxed(p, t)
        assert sol.status == OPTIMAL
        assert sol.objective == 0.0
        assert np.allclose(sol.W, 0.0)

    def test_max_iterations_status_on_tiny_budget(self, ref_j1, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_NEWTON", 2)
        t = thresholds_gaussian(ref_j1, RatePair(1.0, 0.5))
        sol = solve_rank_relaxed(ref_j1, t)
        assert sol.status == MAX_ITERATIONS

    def test_dual_feasibility_k6(self, ref_j2):
        t = thresholds_gaussian(ref_j2, RatePair(0.6, 0.3))
        sol = solve_rank_relaxed(ref_j2, t)
        assert sol.status == OPTIMAL
        d = sol.duals
        k6 = (1.0 + d.lam) * np.eye(3, dtype=complex)
        for m_k, h in zip(d.mu, ref_j2.H):
            k6 -= m_k * h
        for n_j, z in zip(d.nu, ref_j2.Z):
            k6 += n_j * z
        assert np.linalg.eigvalsh(k6)[0] >= -1e-6
        assert d.lam >= -1e-9 and np.all(d.mu >= -1e-9) and np.all(d.nu >= -1e-9)


class TestZeroRows:
    """All-zero rows never reach the barrier: they decide a solve at once or
    drop out, and a dropped row's multiplier reads 0 in its own slot."""

    @staticmethod
    def no_newton(monkeypatch):
        def fail(*args):
            raise AssertionError("Newton step taken")
        monkeypatch.setattr(sdp._Barrier, "newton_step", fail)

    def test_zero_floor_with_positive_target_is_infeasible(self, monkeypatch):
        self.no_newton(monkeypatch)
        p = WiretapProblem(H=(np.eye(2), np.zeros((2, 2))), Z=(), P_T=10.0)
        sol = solve_rank_relaxed(p, thresholds(a=1.0))
        assert sol.status == INFEASIBLE
        assert sol.newton_iterations == 0
        assert sol.certificate.mu.tolist() == [0.0, 1.0]  # the floor out of reach

    def test_negative_ceiling_is_infeasible(self, monkeypatch):
        self.no_newton(monkeypatch)
        p = WiretapProblem(H=(np.eye(2),), Z=(np.diag([1.0, 0.1]),), P_T=10.0)
        for a in (1.0, 0.0):  # a = 0: W = 0 meets every floor, not the ceiling
            t = thresholds(a=a, b=-0.1)
            sol = solve_rank_relaxed(p, t)
            assert sol.status == INFEASIBLE
            assert sol.newton_iterations == 0
            cert = sol.certificate
            y = np.r_[cert.lam, cert.mu, cert.nu]
            assert ConstraintSet.build(p, t).farkas(y)[1] == pytest.approx(0.1)

    def test_zero_ceiling_is_vacuous(self):
        # The ceiling diag(1, 0) binds (nu > 0); a zero ceiling beside it
        # changes nothing but the length of nu.
        t = thresholds(a=1.0, b=0.25)
        H = (np.array([[1.0, 0.5], [0.5, 1.0]]),)
        one = solve_rank_relaxed(WiretapProblem(H=H, Z=(np.diag([1.0, 0.0]),), P_T=10.0), t)
        two = solve_rank_relaxed(
            WiretapProblem(H=H, Z=(np.zeros((2, 2)), np.diag([1.0, 0.0])), P_T=10.0), t)
        assert one.status == two.status == OPTIMAL
        assert one.duals.nu[0] > 0.0
        assert np.array_equal(one.W, two.W)
        assert np.array_equal(one.duals.mu, two.duals.mu)
        assert two.duals.nu.tolist() == [0.0, one.duals.nu[0]]
        assert one.newton_iterations == two.newton_iterations

    def test_dropped_floor_multiplier_reads_zero(self):
        # Rows: budget, a zero floor with a = -0.5 (vacuous), a floor, a ceiling.
        cons = ConstraintSet(
            A=np.array([np.eye(2), np.zeros((2, 2)), -np.eye(2), np.diag([1.0, 0.0])],
                       dtype=complex),
            u=np.array([10.0, 0.5, -1.0, 0.3]), k=2)
        rows, keep = sdp._barrier_rows(cons)
        assert keep.tolist() == [0, 2, 3]
        assert rows.k == 1
        lam, mu, nu = cons.split(sdp._scatter(cons, keep, np.array([1.0, 2.0, 3.0])))
        assert (lam, mu.tolist(), nu.tolist()) == (1.0, [0.0, 2.0], [3.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_interior_start_matches_row_loop(seed, zero_row):
    # The row loop the array form replaced, kept as its reference: the same
    # bounds on alpha, so the same start to the bit.
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
    Z = [random_psd(rng, n, scale=0.1) for _ in range(j)] + [np.zeros((n, n))] * zero_row
    p = WiretapProblem(H=tuple(random_psd(rng, n) for _ in range(k)), Z=tuple(Z),
                       N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(0.0, 2.0)))
    rd = float(rng.uniform(0.1, 2.0))
    cons = ConstraintSet.build(p, thresholds_gaussian(p, RatePair(rd, float(rng.uniform(0.0, rd)))))
    lo, hi = 0.0, math.inf
    for a_i, u_i in zip(cons.A, cons.u):
        tr = float(np.real(np.trace(a_i)))
        if tr > 0.0:
            hi = min(hi, u_i / tr)
        elif tr < 0.0:
            lo = max(lo, u_i / tr)
    W0 = sdp._interior_start(cons)
    if lo * 1.05 + 1e-12 < hi * 0.95:
        alpha = math.sqrt(max(lo, 1e-12 * hi) * hi) if lo > 0 else hi / 2.0
        alpha = min(max(alpha, lo * 1.05 + 1e-15), hi * 0.95)
        assert np.array_equal(W0, alpha * np.eye(n))
    else:
        assert W0 is None


class TestExtractPrincipalDirection:
    def test_diagonal(self):
        w0 = extract_principal_direction(np.diag([0.0, 3.0, 1.0]).astype(complex))
        assert np.allclose(np.abs(w0), [0.0, 1.0, 0.0], atol=1e-12)
        # phase convention: first nonzero entry real non-negative
        assert w0[1].real == pytest.approx(1.0)
        assert abs(w0[1].imag) < 1e-12

    def test_outer_product_recovers_direction(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        w0 = extract_principal_direction(np.outer(w, w.conj()))
        assert abs(abs(np.vdot(w0, w / np.linalg.norm(w))) - 1.0) < 1e-10

    def test_random_psd_eigen_residual(self):
        rng = np.random.default_rng(11)
        m = random_psd(rng, 5)
        w0 = extract_principal_direction(m)
        lam_max = quad_form(w0, m)
        assert np.linalg.norm(m @ w0 - lam_max * w0) <= 1e-8 * lam_max

    def test_zero_matrix_rejected(self):
        with pytest.raises(LinalgError):
            extract_principal_direction(np.zeros((3, 3)))


class TestPowerRescale:
    def test_binding_user(self):
        p = WiretapProblem(H=(np.diag([2.0, 1.0]), np.diag([3.0, 1.0])), Z=(),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        w0 = np.array([1.0, 0.0], dtype=complex)
        # quad forms are 2 and 3; P = max(6/2, 6/3) = 3
        assert power_rescale(p, thresholds(a=6.0), w0) == pytest.approx(3.0)

    def test_eavesdropper_blocks(self):
        p = WiretapProblem(H=(np.diag([2.0, 1.0]),), Z=(np.diag([1.0, 1.0]),),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        w0 = np.array([1.0, 0.0], dtype=complex)
        # P = 3 needed but P * 1 > b = 2
        assert power_rescale(p, thresholds(a=6.0, b=2.0), w0) is None

    def test_hand_threshold_value(self):
        # uses the R_D = 1 threshold a = 28.4736... with quad forms (2, 1):
        # the closed form gives P = a; cross-check against a 1-D grid search.
        a = (2.0 - 1.0) / (-math.log(0.9) / 3.0)
        p = WiretapProblem(H=(np.diag([2.0, 1.0]), np.diag([1.0, 0.5])), Z=(),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        w0 = np.array([1.0, 0.0], dtype=complex)
        got = power_rescale(p, thresholds(a=a), w0)
        grid = np.linspace(0.0, 100.0, 2_000_001)
        ok = grid[(grid * 2.0 >= a) & (grid * 1.0 >= a)]
        assert got == pytest.approx(float(ok[0]), abs=1e-4)
        assert got == pytest.approx(a, rel=1e-12)

    def test_budget_bound(self):
        p = WiretapProblem(H=(np.diag([1.0, 1.0]),), Z=(), N0=1.0,
                           epsilon=0.1, P_T=2.0)
        assert power_rescale(p, thresholds(a=5.0), np.array([1.0, 0.0])) is None

    def test_zero_user_quad_form(self):
        p = WiretapProblem(H=(np.diag([0.0, 1.0]),), Z=(), N0=1.0,
                           epsilon=0.1, P_T=10.0)
        assert power_rescale(p, thresholds(a=1.0), np.array([1.0, 0.0])) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_row_loop(self, seed):
        # The closed form read one covariance at a time is the reference for
        # the array form over the rows.
        rng = np.random.default_rng(seed)
        n, k, j = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
        p = WiretapProblem(H=tuple(random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
                                   for _ in range(k)),
                           Z=tuple(random_psd(rng, n, scale=0.05) for _ in range(j)),
                           N0=1.0, epsilon=0.1, P_T=float(rng.uniform(10.0, 300.0)))
        rd = float(rng.uniform(0.1, 1.5))
        t = thresholds_gaussian(p, RatePair(rd, float(rng.uniform(0.0, rd))))
        w0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        w0 /= np.linalg.norm(w0)
        quads = [quad_form(w0, h) for h in p.H]
        power = max(t.a / q for q in quads) if min(quads) > 0.0 else math.inf
        expected = power if power <= p.P_T * (1.0 + 1e-12) and all(
            power * max(quad_form(w0, z), 0.0) <= t.b * (1.0 + 1e-12) + 1e-300
            for z in p.Z) else None
        got = power_rescale(p, t, w0)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got == pytest.approx(expected, rel=1e-12)


class TestSolveGeneral:
    def test_reference_rank1_power_matches_objective(self, ref_j1):
        sol = solve_general(ref_j1, RatePair(1.0, 0.5))
        assert sol.status == OPTIMAL
        assert sol.rank1_exact
        assert sol.power == pytest.approx(sol.objective, rel=1e-6)

    def test_diagonal_instance_matches_lp(self):
        from wiretap.diag_lp import solve_diagonal
        from wiretap.instances import reference_problem

        p = reference_problem(2, diagonal=True)
        r = RatePair(0.6, 0.2)
        t = thresholds_gaussian(p, r)
        sol = solve_general(p, r)
        alloc = solve_diagonal(p, t)
        assert sol.status == OPTIMAL and alloc is not None
        assert sol.power == pytest.approx(alloc.total, rel=1e-4)

    def test_infeasible_pair(self, ref_j1):
        sol = solve_general(ref_j1, RatePair(2.0, 1.0))
        assert sol.status == INFEASIBLE
        assert sol.w is None
        assert sol.certificate is not None

    @pytest.mark.parametrize("rs", [0.5572265624999998, 0.5572265624999999,
                                    0.5572265625000004])
    def test_phase1_reports_infeasible_only_with_certificate(self, ref_j2, rs):
        # With the Newton kernel's batched W A W, phase I at t = 1e4 stops on
        # an uncentred point whose s exceeds the duality gap but yields no
        # certificate. One more t stage reaches s < 0: the point is feasible.
        sol = solve_general(ref_j2, RatePair(0.9, rs))
        assert sol.status == OPTIMAL
        assert sol.power == pytest.approx(15.7564, rel=1e-4)

    def test_feasible_solution_satisfies_constraints(self, ref_j3):
        sol = solve_general(ref_j3, RatePair(0.4, 0.1))
        assert sol.status == OPTIMAL
        t = sol.thresholds
        assert float(np.linalg.norm(sol.w) ** 2) <= ref_j3.P_T * (1 + 1e-9)
        for h in ref_j3.H:
            assert quad_form(sol.w, h) >= t.a * (1 - 1e-6)
        for z in ref_j3.Z:
            assert quad_form(sol.w, z) <= t.b * (1 + 1e-6) + 1e-12

    def test_monotone_power_in_rd(self, ref_j1):
        powers = []
        for rd in (0.2, 0.4, 0.6, 0.8, 1.0):
            sol = solve_general(ref_j1, RatePair(rd, 0.1))
            assert sol.status == OPTIMAL
            powers.append(sol.power)
        assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_perfect_csi_mode(self):
        rng = np.random.default_rng(21)
        p = WiretapProblem(H=(np.eye(3) * 2.0, np.eye(3) * 1.5),
                           Z=(np.eye(3) * 0.01,), N0=1.0, epsilon=0.1, P_T=50.0)
        hs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        mode = perfect_users(hs)
        r = RatePair(1.0, 0.5)
        sol = solve_general(p, r, mode=mode)
        assert sol.status == OPTIMAL
        floor = (2.0**r.R_D - 1.0) * p.N0
        for h in hs:
            assert abs(np.vdot(h, sol.w)) ** 2 >= floor * (1 - 1e-6)
        # eavesdropper ceiling re-derived with 1/J tail exponent
        b = (2.0**r.R_gap - 1.0) * p.N0 / (-math.log(1.0 - 0.9))
        assert quad_form(sol.w, p.Z[0]) <= b * (1 + 1e-6)

    def test_relaxation_lower_bounds_rank1_power(self):
        rng = np.random.default_rng(17)
        for seed in range(8):
            local = np.random.default_rng(seed)
            p = WiretapProblem(
                H=tuple(random_psd(local, 3, ridge=0.1) for _ in range(2)),
                Z=(random_psd(local, 3, scale=0.02, ridge=0.1),),
                N0=1.0, epsilon=0.1, P_T=30.0,
            )
            r = RatePair(0.6, 0.2)
            sol = solve_general(p, r)
            if sol.status == OPTIMAL:
                assert sol.power >= sol.objective * (1 - 1e-6)

    def test_grid_search_oracle_n2(self):
        agree = 0
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            p = WiretapProblem(
                H=tuple(random_psd(rng, 2, ridge=0.25) for _ in range(2)),
                Z=(random_psd(rng, 2, scale=0.01, ridge=0.25),),
                N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.5)),
            )
            r = RatePair(float(rng.uniform(0.1, 0.5)), 0.0)
            t = thresholds_gaussian(p, r)
            sol = solve_general(p, r)
            oracle = grid_min_power(p, t)
            if sol.status == OPTIMAL and sol.rank1_exact:
                assert oracle is not None
                assert sol.power == pytest.approx(oracle, rel=0.01)
                agree += 1
            elif sol.status in (INFEASIBLE, RANK1_INFEASIBLE):
                # grid may only find points the solver proved do not exist
                if sol.status == INFEASIBLE:
                    assert oracle is None
        assert agree >= 6  # most random instances are feasible and rank-1


class TestSolveRecord:
    @pytest.mark.parametrize("name, rd, rs, route, status", [
        ("paper_j1", 0.0, 0.0, "trivial", OPTIMAL),
        ("paper_j1_diag", 0.6, 0.2, "lp", OPTIMAL),
        ("paper_j1_diag", 2.0, 1.0, "lp", INFEASIBLE),
        ("paper_j1", 1.0, 0.5, "sdp", OPTIMAL),
        ("paper_j1", 1.0, 0.9, "sdp", INFEASIBLE),
        ("paper_j1", 2.0, 1.0, "sdp", INFEASIBLE),
    ])
    def test_every_route_fills_the_record(self, name, rd, rs, route, status):
        pf = load_problem(str(PROBLEMS / f"{name}.json"))
        r = RatePair(rd, rs)
        t = thresholds_gaussian(pf.problem, r)
        sol = solve_general(pf.problem, r, mode=pf.csi_mode)
        assert sol.status == status
        assert sol.thresholds == t and sol.mode is pf.csi_mode
        if route == "sdp":
            relaxed = solve_rank_relaxed(pf.problem, t, pf.csi_mode)
            assert sol.newton_iterations == relaxed.newton_iterations
            # At R_D 2.0 the floors are out of reach of the budget, which is
            # proven before any Newton step; at (1.0, 0.9) phase I proves it.
            assert (sol.newton_iterations > 0) == (rd < 2.0)
        else:
            assert sol.newton_iterations == 0
        if route == "sdp" and status == INFEASIBLE:
            cons = ConstraintSet.build(pf.problem, t, pf.csi_mode)
            cert = sol.certificate
            assert cons.farkas(np.r_[cert.lam, cert.mu, cert.nu])[1] > 0.0


    def test_unreachable_floor_refuted_before_the_barrier(self, ref_j1):
        # At R_D 520 the floor a is about 1e156, beyond P_T lambda_max(H_k):
        # a slack that size overflowed the barrier's Newton system.
        r = RatePair(520.0, 0.0)
        sol = solve_general(ref_j1, r)
        assert sol.status == INFEASIBLE and sol.newton_iterations == 0
        cons = ConstraintSet.build(ref_j1, sol.thresholds)
        cert = sol.certificate
        y = np.r_[cert.lam, cert.mu, cert.nu]
        assert np.count_nonzero(y) == 2 and cons.farkas(y)[1] > 1e150
        assert relaxation_feasibility(ref_j1, r) == INFEASIBLE
        assert [e.b_lo for e in sdp.epigraph_stages(ref_j1, 520.0)] == [math.inf]


class TestRelaxationFeasibility:
    @pytest.mark.parametrize("rd, rs, verdict", [
        (0.5, 0.0, FEASIBLE),          # W = alpha*I is interior: no Newton step
        (1.0, 0.5, MAX_ITERATIONS),    # phase I runs out of its two steps
    ])
    def test_tiny_budget(self, ref_j1, rd, rs, verdict, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_NEWTON", 2)
        assert relaxation_feasibility(ref_j1, RatePair(rd, rs)) == verdict
        assert solve_general(ref_j1, RatePair(rd, rs)).status == MAX_ITERATIONS

    def test_zero_code_rate_is_feasible(self, ref_j1):
        assert relaxation_feasibility(ref_j1, RatePair(0.0, 0.0)) == FEASIBLE


class TestStart:
    """sdp._start: a row out of reach, else W = alpha*I, else phase I, and
    the epigraph path where phase I stalls."""

    @staticmethod
    def start(p, r):
        cons = ConstraintSet.build(p, thresholds_gaussian(p, r))
        budget = sdp._NewtonBudget(sdp._MAX_NEWTON)
        return cons, budget, *sdp._start(cons, budget)

    @staticmethod
    def proves(cons, cert):
        return cons.farkas(np.r_[cert.lam, cert.mu, cert.nu])[1] > 0.0

    def test_floor_out_of_reach(self, ref_j1):
        cons, budget, W, cert = self.start(ref_j1, RatePair(520.0, 0.0))
        assert W is None and self.proves(cons, cert) and budget.used == 0

    def test_interior_start(self, ref_j1):
        cons, budget, W, cert = self.start(ref_j1, RatePair(0.5, 0.0))
        assert cert is None and budget.used == 0
        assert np.array_equal(W, W[0, 0] * np.eye(cons.n)) and W[0, 0] > 0.0

    def test_phase1_interior_point(self, ref_j1):
        cons, budget, W, cert = self.start(ref_j1, RatePair(1.0, 0.5))
        assert cert is None and budget.used > 0
        assert np.all(cons.u - cons.values(W) > 0.0)

    def test_phase1_certificate(self, ref_j1):
        cons, budget, W, cert = self.start(ref_j1, RatePair(1.0, 0.9))
        assert W is None and self.proves(cons, cert) and budget.used > 0

    def test_thin_set_starts_from_the_epigraph(self):
        # Seed 2769 of the sweep's thin-set test: phase I stalls at (1.0,
        # 0.8203125), and an iterate of the epigraph path is the start.
        rng = np.random.default_rng(2769)
        p = WiretapProblem(H=(random_psd(rng, 4, scale=3.0, ridge=0.1),),
                           Z=tuple(random_psd(rng, 4, scale=0.01, ridge=0.1) for _ in range(3)),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        cons, budget, W, cert = self.start(p, RatePair(1.0, 0.8203125))
        assert cert is None and np.all(cons.u - cons.values(W) > 0.0)

    @staticmethod
    def two_floors(p_t, b):
        """N = 2 with floors Tr(W e_i e_i^H) >= 10, out of W = alpha*I's
        reach at p_t = 20.5 and infeasible for p_t < 20, and one ceiling
        Tr(G W) <= b, whose least value over the floors is 0.1."""
        G = 0.01 * np.array([[1.0, 0.5], [0.5, 1.0]])
        A = np.array([np.eye(2), -np.diag([1.0, 0.0]), -np.diag([0.0, 1.0]), G], dtype=complex)
        return ConstraintSet(A=A, u=np.array([p_t, -10.0, -10.0, b]), k=2)

    @pytest.mark.parametrize("p_t, b, feasible", [
        (20.5, 1.0, True), (20.5, 0.05, False), (19.0, 1.0, False),
    ])
    def test_phase1_stall_goes_to_the_epigraph(self, monkeypatch, p_t, b, feasible):
        # Phase I made to stall wherever there is a ceiling: the epigraph
        # path decides by an iterate inside every row, by multipliers that
        # prove the ceiling too low, or by the floors' own certificate.
        phase1 = sdp._phase1

        def stalling(cons, budget):
            if np.any(cons.ceilings):
                raise sdp._NumericalTrouble("stalled")
            return phase1(cons, budget)

        monkeypatch.setattr(sdp, "_phase1", stalling)
        cons = self.two_floors(p_t, b)
        W, cert = sdp._start(cons, sdp._NewtonBudget(sdp._MAX_NEWTON))
        if feasible:
            assert cert is None and np.all(cons.u - cons.values(W) > 0.0)
        else:
            assert W is None and self.proves(cons, cert)

    def test_stall_on_the_floors_raises(self, monkeypatch):
        # With no ceiling there is nothing to hand a stall over to, and the
        # epigraph's own start on the floors stalls the same way.
        def stalling(cons, budget):
            raise sdp._NumericalTrouble("stalled")

        monkeypatch.setattr(sdp, "_phase1", stalling)
        cons = self.two_floors(20.5, 1.0)
        for rows in (cons, ConstraintSet(A=cons.A[:3], u=cons.u[:3], k=2)):
            with pytest.raises(sdp._NumericalTrouble):
                sdp._start(rows, sdp._NewtonBudget(sdp._MAX_NEWTON))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_feasibility_probe_matches_relaxed_solve(seed):
    # Random N=3/N=4 instances reach phase I, and about 60% are infeasible.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    p = WiretapProblem(
        H=tuple(random_psd(rng, n, ridge=0.1) for _ in range(2)),
        Z=tuple(random_psd(rng, n, scale=0.02, ridge=0.1)
                for _ in range(int(rng.integers(1, 3)))),
        N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.8)),
    )
    rd = float(rng.uniform(0.2, 1.5))
    r = RatePair(rd, float(rng.uniform(0.0, rd)))
    verdict = relaxation_feasibility(p, r)
    status = solve_rank_relaxed(p, thresholds_gaussian(p, r)).status
    # Feasible exactly when the relaxed solve is not infeasible. Phase II may
    # still run out of Newton steps after a feasible verdict, and a probe
    # that runs out in phase I stops the solve there too.
    allowed = {FEASIBLE: {OPTIMAL, MAX_ITERATIONS}, INFEASIBLE: {INFEASIBLE},
               MAX_ITERATIONS: {MAX_ITERATIONS}}
    assert status in allowed[verdict]

    # The diagonal parts of the same instance take the LP route.
    diag = WiretapProblem(H=tuple(np.diag(np.diag(m)) for m in p.H),
                          Z=tuple(np.diag(np.diag(m)) for m in p.Z),
                          N0=p.N0, epsilon=p.epsilon, P_T=p.P_T)
    lp_status = solve_general(diag, r).status
    assert relaxation_feasibility(diag, r) == (INFEASIBLE if lp_status == INFEASIBLE else FEASIBLE)


@pytest.mark.parametrize("seed", range(5))
def test_ceiling_bound_is_the_certificate_threshold(seed):
    # Random rows and multipliers: _certificate accepts y just below
    # ceiling_bound(y) and rejects it just above.
    rng = np.random.default_rng(seed)
    n, k, j = 3, 2, 2
    A = np.array([np.eye(n, dtype=complex),
                  *(-random_psd(rng, n, ridge=0.1) for _ in range(k)),
                  *(random_psd(rng, n, scale=0.1, ridge=0.1) for _ in range(j))])
    y = rng.uniform(0.1, 1.0, 1 + k + j)

    def rows(b):
        return ConstraintSet(A=A, u=np.array([10.0, *[-1000.0] * k, *[b] * j]), k=k)

    b_lo = rows(0.0).ceiling_bound(y)
    assert b_lo > 0.0
    for b, proven in ((b_lo * (1.0 - 1e-9), True), (b_lo * (1.0 + 1e-9), False)):
        cons = rows(b)
        assert (sdp._certificate(cons, y) is not None) == proven
    y[1 + k:] = 0.0
    assert rows(0.0).ceiling_bound(y) == -math.inf


@pytest.mark.parametrize("perfect", [False, True])
@pytest.mark.parametrize("model", ["gaussian", MiEvaluator(qam16())], ids=["gaussian", "16qam"])
def test_rate_bracket_maps_ceilings_to_rate_gaps(ref_j1, perfect, model):
    mode = perfect_users(np.eye(ref_j1.N, dtype=complex)[:ref_j1.K]) if perfect else STATISTICAL
    d = eave_denominator(ref_j1, mode)
    # A gap maps back to the ceiling that ConstraintSet.build gives it.
    for gap in (0.25, 1.0):
        r = RatePair(gap, 0.0)
        t = (thresholds_gaussian(ref_j1, r) if model == "gaussian"
             else thresholds_finite_alphabet(ref_j1, r, model))
        b = float(ConstraintSet.build(ref_j1, t, mode).u[-1])
        assert sdp.rate_bracket(ref_j1, b, b, mode, model) == pytest.approx((gap, gap), abs=1e-8)
    # Edges: b <= 0 maps to 0, and inf or a b whose b d / N0 overflows to
    # inf, all without a warning. Just inside the float range the alphabet's
    # MI has saturated at log2 M.
    huge = 1e308
    assert huge * d / ref_j1.N0 == math.inf
    top = 1.7e308 * ref_j1.N0 / d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sdp.rate_bracket(ref_j1, -math.inf, math.inf, mode, model) == (0.0, math.inf)
        assert sdp.rate_bracket(ref_j1, 0.0, huge, mode, model) == (0.0, math.inf)
        assert sdp.rate_bracket(ref_j1, -1.0, np.float64(huge), mode, model) == (0.0, math.inf)
        gap_top = sdp.rate_bracket(ref_j1, top, top, mode, model)[1]
    assert gap_top == (model.max_rate if model != "gaussian" else pytest.approx(math.log2(1.7e308)))


class TestFaceRefinement:
    @pytest.mark.parametrize("name, rd, rs", [
        ("paper_j1", 1.0, 0.5), ("paper_j2", 0.8, 0.4), ("paper_j3", 0.5, 0.15),
    ])
    def test_beamformer_meets_every_floor_and_ceiling(self, name, rd, rs):
        # The refined W is exactly v v*, so w keeps all of it: no dust
        # eigenvalue below lambda_max is dropped, and every row holds to
        # roundoff.
        pf = load_problem(str(PROBLEMS / f"{name}.json"))
        sol = solve_general(pf.problem, RatePair(rd, rs), mode=pf.csi_mode)
        assert sol.status == OPTIMAL
        cons = ConstraintSet.build(pf.problem, sol.thresholds, pf.csi_mode)
        for a_i, u_i in zip(cons.A[1:], cons.u[1:]):  # -a_k for floors, b_j for ceilings
            assert quad_form(sol.w, a_i) <= u_i + 1e-12 * abs(u_i)

    def test_bundled_sweep_rows_certified_to_roundoff(self):
        checked = 0
        for path in sorted(PROBLEMS.glob("paper_j*.json")):
            pf = load_problem(str(path))
            rows = sweep_region(pf.problem, code_rate_grid(0.1, 2.0, 0.1), mode=pf.csi_mode).rows
            for row in rows:
                if row.status != OPTIMAL:
                    continue
                sol = solve_general(pf.problem, RatePair(row.rd, row.rs_max), mode=pf.csi_mode)
                assert sol.status == OPTIMAL
                rep = check_kkt(pf.problem, sol.thresholds, sol.W, sol.duals, mode=pf.csi_mode)
                assert rep.max_residual() <= 1e-10, (path.name, row.rd)
                checked += 1
        assert checked >= 50

    def test_rejected_refinement_is_not_reported_optimal(self, ref_j1, monkeypatch):
        # The barrier's own duals do not certify the end point, so without
        # the refinement the solve gives up instead of claiming optimality.
        monkeypatch.setattr(sdp, "_refine_face", lambda *args: None)
        sol = solve_general(ref_j1, RatePair(1.0, 0.5))
        assert sol.status == MAX_ITERATIONS
        assert sol.w is None

    @pytest.mark.parametrize("ceiling, lead, steps, kept", [
        (False, 0, sdp._FACE_STEPS, True),    # the optimal face: kept
        (True, 0, sdp._FACE_STEPS, False),    # the ceiling it leaves inactive is violated
        (False, 1, sdp._FACE_STEPS, False),   # a stationary point whose Lambda is not PSD
        (False, 0, 0, False),                 # no Newton step: not a KKT point
    ])
    def test_refinement_keeps_only_kkt_points(self, ceiling, lead, steps, kept, monkeypatch):
        # min Tr W s.t. Tr(W diag(1, 0.5)) >= 1 [and Tr(W diag(1, 0)) <= 0.25],
        # refined from near 2 e e* with only the floor row guessed active.
        p = WiretapProblem(H=(np.diag([1.0, 0.5]),), Z=(np.diag([1.0, 0.0]),) if ceiling else (),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        rows, _ = sdp._barrier_rows(ConstraintSet.build(p, thresholds(a=1.0, b=0.25)))
        floor = 1  # row 0 is the power budget, and no row is dropped
        slacks, y0 = np.ones(rows.u.size), np.full(rows.u.size, 1e-9)
        slacks[floor], y0[floor] = 1e-9, 1.0
        e = np.eye(2)[lead]
        W = (2.0 * np.outer(e, e) + 1e-9 * np.eye(2)).astype(complex)
        monkeypatch.setattr(sdp, "_FACE_STEPS", steps)
        refined = sdp._refine_face(rows, W, slacks, y0)
        assert (refined is not None) == kept
        if kept:
            W, y = refined
            assert np.allclose(W, np.diag([1.0, 0.0]), atol=1e-12)
            assert y[floor] == pytest.approx(1.0, rel=1e-12)

    def test_negative_multiplier_row_is_dropped(self, monkeypatch):
        # N=16, K=J=3 with rank-two covariances: the first active-set guess
        # holds a row whose multiplier comes out negative on the face.
        rng = np.random.default_rng(1001)
        p = WiretapProblem(H=tuple(random_psd(rng, 16, rank=2) for _ in range(3)),
                           Z=tuple(random_psd(rng, 16, scale=0.1, rank=2) for _ in range(3)),
                           N0=1.0, epsilon=0.1, P_T=30.0)
        multipliers = []
        newton = sdp._face_newton

        def spy(*args):
            out = newton(*args)
            multipliers.append(out[1])
            return out

        monkeypatch.setattr(sdp, "_face_newton", spy)
        sol = solve_general(p, RatePair(0.5, 0.2))
        assert len(multipliers) == 2
        assert multipliers[0].min() < 0.0 <= multipliers[1].min()
        assert multipliers[1].size == multipliers[0].size - 1
        assert sol.status == OPTIMAL
        rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, tol=1e-10)
        assert rep.passes(1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_optimal_status_is_certified_to_roundoff(seed):
    # Random N=3/N=4 instances whose covariances all have rank below N.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    p = WiretapProblem(
        H=tuple(random_psd(rng, n, rank=int(rng.integers(1, n)))
                for _ in range(int(rng.integers(1, 4)))),
        Z=tuple(random_psd(rng, n, scale=0.05, rank=int(rng.integers(1, n)))
                for _ in range(int(rng.integers(0, 3)))),
        N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.8)),
    )
    rd = float(rng.uniform(0.1, 1.2))
    sol = solve_general(p, RatePair(rd, float(rng.uniform(0.0, rd))))
    if sol.status == OPTIMAL:
        rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, tol=1e-10)
        assert rep.max_residual() <= 1e-10
        assert rep.passes(1e-10)
