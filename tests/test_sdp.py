import dataclasses
import itertools
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PROBLEMS,
    bundled,
    data_problem,
    probe_verdict,
    random_problem,
    random_psd,
    scaled_problem,
    thin_set_problem,
)
from oracles import quad_form
from wiretap import diag_lp, sdp, sweep
from wiretap.constraints import ConstraintSet
from wiretap.kkt import check_kkt
from wiretap.linalg import LinalgError, numerical_rank, psd_project_factor, trace_inner
from wiretap.mi import MiEvaluator, qam16
from wiretap.model import (
    STATISTICAL,
    ConstraintThresholds,
    ModelError,
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
    proven_feasibility,
    solve_general,
    solve_rank_relaxed,
)
from wiretap.probfile import load_problem, to_doc
from wiretap.sweep import code_rate_grid, sweep_region


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

    def test_long_stage_runs_on_the_run_budget(self):
        # The solve_n32 benchmark's generator drawn at seed 5 (N 32, K = J =
        # 3, users at scale 1 and eavesdroppers at 0.003, ridge 0.1, P_T 30)
        # at (1.0, 0.8): a stage that needs more than 80 Newton steps. A
        # fixed cap of 80 per stage ended it max_iterations; bounded only by
        # the run's budget, the path reaches a Farkas certificate.
        rng = np.random.default_rng(5)
        p = WiretapProblem(H=tuple(random_psd(rng, 32, 1.0, 0.1) for _ in range(3)),
                           Z=tuple(random_psd(rng, 32, 0.003, 0.1) for _ in range(3)),
                           N0=1.0, epsilon=0.1, P_T=30.0)
        stages = []
        center = sdp._Barrier.center

        def counting(bar, t, point, budget):
            used = budget.used
            out = center(bar, t, point, budget)
            stages.append(budget.used - used)
            return out

        with mock.patch.object(sdp._Barrier, "center", counting):
            sol = solve_general(p, RatePair(1.0, 0.8))
        assert sol.status == INFEASIBLE and max(stages) > 80
        cons = ConstraintSet.build(p, sol.thresholds)
        cert = sol.certificate
        assert cons.farkas(np.r_[cert.lam, cert.mu, cert.nu])[1] > 0.0

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
        bar = sdp._Barrier(cons)
        assert bar.keep.tolist() == [0, 2, 3]
        # The kept rows, normalized: A_i / ||A_i||_F and u_i / (||A_i||_F P_T).
        r = np.array([math.sqrt(2.0), math.sqrt(2.0), 1.0])
        assert np.allclose(bar.r, r, rtol=1e-15, atol=0.0)
        assert np.allclose(bar.u, [10.0, -1.0, 0.3] / (10.0 * r), rtol=1e-15, atol=0.0)
        assert np.allclose(bar.A * r[:, None, None], cons.A[[0, 2, 3]], rtol=0.0, atol=1e-15)
        lam, mu, nu = cons.split(bar.multipliers(np.array([1.0, 2.0, 3.0]) * r))
        assert (lam, mu.tolist(), nu.tolist()) == pytest.approx((1.0, [0.0, 2.0], [3.0]), rel=1e-15)


def reference_value(bar, t, y):
    """The barrier value from scratch: a dense eigenvalue test of Lambda and
    its log-determinant."""
    if np.any(y <= 0.0):
        return np.inf
    lam = bar.C + np.einsum("m,mij->ij", y, bar.A)
    if np.linalg.eigvalsh(lam)[0] <= 0.0:
        return np.inf
    return t * float(bar.u @ y) - np.linalg.slogdet(lam)[1] - float(np.sum(np.log(y)))


def reference_newton(bar, t, y):
    """(gradient, Hessian, size) from scratch: dense Lambda^-1 and its traces
    against the rows. size holds the magnitudes of the gradient's three
    terms, whose cancellation limits its precision."""
    inv = np.linalg.inv(bar.C + np.einsum("m,mij->ij", y, bar.A))
    P = inv @ bar.A
    tr = np.real(np.trace(P, axis1=1, axis2=2))
    H = np.real(np.einsum("iab,jba->ij", P, P)) + np.diag(1.0 / (y * y))
    return t * bar.u - tr - 1.0 / y, H, np.abs(t * bar.u) + np.abs(tr) + 1.0 / y


class TestBarrierKernel:
    """The dual barrier's value, Newton step and primal point against
    from-scratch formulas: a dense Hessian and gradient, checked themselves
    against finite differences of the barrier value. Kinds: phase2, a final
    solve's barrier on rows that a W strictly meets; phase1, the same barrier
    on rows drawn on either side of feasibility, as a feasibility pre-solve
    used to take them; epigraph, the epigraph barrier."""

    @staticmethod
    def barrier(rng, n, kind, real=False):
        """A random barrier of the given kind with budget, floor and ceiling
        rows. real: real-valued rows, their zero imaginary parts stored as
        -0.0."""
        k, j = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = np.array([np.eye(n, dtype=complex),
                      *(-random_psd(rng, n, ridge=0.1) for _ in range(k)),
                      *(random_psd(rng, n, scale=0.1, ridge=0.1) for _ in range(j))])
        W = random_psd(rng, n, ridge=0.5)
        if real:
            A, W = A.real.astype(complex), W.real.astype(complex)
            A.imag[1:] = -0.0
        vals = np.real(np.einsum("mij,ij->m", A.conj(), W))
        u = vals + (rng.uniform(-1.0, 1.0, vals.size) if kind == "phase1"
                    else rng.uniform(0.1, 2.0, vals.size))
        cons = ConstraintSet(A=A, u=u, k=k)
        if kind == "epigraph":
            return sdp._Barrier(cons.with_ceiling(0.0), epigraph=True)
        return sdp._Barrier(cons)

    @staticmethod
    def points(bar, t):
        """The start and, where it stays inside the domain, the trial a
        quarter Newton step from it."""
        y = bar.start()
        step = bar.newton_step(t, bar.evaluate(y))
        trial = y + 0.25 * step.dy
        return [y] + ([trial] if bar.evaluate(trial).terms is not None else [])

    @staticmethod
    def assert_matches(bar, t, y, primal=True):
        point = bar.evaluate(y)
        assert point.value(t) == pytest.approx(reference_value(bar, t, y), rel=1e-12, abs=1e-12)
        g, H, size = reference_newton(bar, t, y)
        step = bar.newton_step(t, point)
        # The kernel's step solves the dense Newton system to a small
        # backward error, Jacobi-scaled as the kernel scales it (D^2 = diag
        # H): on the epigraph with the multiplier kappa of e.dy = 0 that fits
        # it best. The bound counts the rounding of the gradient's terms and
        # the error growth of the Hessian (the condition of Lambda) and of
        # its solve (the condition of the scaled system).
        d = np.sqrt(np.diag(H))
        res = H @ step.dy + g
        if bar.e is not None:
            res -= (bar.e @ res) / (bar.e @ bar.e) * bar.e
        terms = [float(np.linalg.norm(v)) for v in (d * step.dy, g / d, size / d)]
        growth = (np.linalg.cond(bar.C + np.einsum("m,mij->ij", y, bar.A))
                  + np.linalg.cond(H / np.outer(d, d)))
        tol = 1e-10 * (terms[0] + terms[1]) + 1e-12 * terms[2] + 1e-16 * growth * sum(terms)
        assert float(np.linalg.norm(res / d)) <= tol
        dec2 = float(step.dy @ H @ step.dy)
        assert abs(step.dec2 - dec2) <= 2.0 * tol * terms[0] + 1e-12 * dec2
        if not primal:
            return
        # The step's primal point has slack (1 - dy_i / y_i) / (t y_i) on row
        # i; on the epigraph every ceiling's value sits that far below one
        # common s, and the step keeps the ceilings' sum. This holds as far
        # as the Newton system is solved, so only at well-conditioned points.
        scale = float(np.linalg.norm(step.dy))
        W = bar.primal(t, step)
        vals = np.real(np.einsum("mij,ij->m", bar.A_conj, W))
        slack = (1.0 - step.dy / y) / (t * y)
        size = np.abs(bar.u) + np.abs(vals) + np.abs(slack)
        if bar.e is None:
            assert np.allclose(bar.u - vals, slack, rtol=0.0, atol=1e-8 * float(np.max(size)))
        else:
            ceil = bar.e > 0.0
            assert np.allclose((bar.u - vals)[~ceil], slack[~ceil], rtol=0.0,
                               atol=1e-8 * float(np.max(size)))
            s = (vals + slack)[ceil]
            assert np.allclose(s, s[0], rtol=0.0, atol=1e-8 * float(np.max(size)))
            assert abs(float(bar.e @ step.dy)) <= 1e-12 * (scale + float(bar.e @ y))

    @pytest.mark.parametrize("kind", ["phase2", "phase1", "epigraph"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_from_scratch_formulas(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        bar = self.barrier(rng, n, kind)
        for t in (1.0, 1e3, 1e8):
            for y in self.points(bar, t):
                self.assert_matches(bar, t, y)
        # The reference gradient and Hessian are the barrier's derivatives.
        y, d = bar.start(), rng.normal(size=bar.m)
        g, H, _ = reference_newton(bar, 1.0, y)
        h = 1e-4 * float(np.min(y)) / float(np.max(np.abs(d)))
        f = [reference_value(bar, 1.0, y + c * h * d) for c in (-1.0, 0.0, 1.0)]
        assert (f[2] - f[0]) / (2.0 * h) == pytest.approx(float(g @ d), rel=1e-5, abs=1e-7)
        assert (f[2] - 2.0 * f[1] + f[0]) / (h * h) == pytest.approx(float(d @ H @ d), rel=1e-3)

    @pytest.mark.parametrize("kind", ["phase2", "phase1", "epigraph"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_on_real_valued_rows(self, seed, kind):
        rng = np.random.default_rng(seed)
        bar = self.barrier(rng, 3, kind, real=True)
        for t in (1.0, 1e3, 1e8):
            for y in self.points(bar, t):
                self.assert_matches(bar, t, y)

    @pytest.mark.parametrize("kind", ["phase2", "phase1", "epigraph"])
    def test_outside_the_domain(self, kind):
        rng = np.random.default_rng(7)
        bar = self.barrier(rng, 3, kind)
        assert bar.evaluate(bar.start()).terms is not None
        # A multiplier <= 0, or every multiplier > 0 but Lambda indefinite
        # (a floor's y far past the start): value inf, and no step.
        for i, value in ((1, 0.0), (1, -1.0), (1, 1e6)):
            y = bar.start()
            y[i] = value
            point = bar.evaluate(y)
            assert point.terms is None and point.L is None
            assert point.value(10.0) == reference_value(bar, 10.0, y) == math.inf
            with pytest.raises(sdp._NumericalTrouble):
                bar.newton_step(10.0, point)

    def test_matches_on_the_iterates_of_a_solve(self, ref_j1, monkeypatch):
        # The points the path steps from, final solves and epigraph stages
        # alike, carried through line searches and stages, wherever their
        # Jacobi-scaled Newton system is well-posed (condition below 1e8).
        # Late in a path it is not (up to 1e19 on the epigraph): there the
        # path's own exits, silent stages and the progress test, end it.
        seen = []
        step = sdp._Barrier.newton_step

        def recording(bar, t, point):
            seen.append((bar, t, point.y))
            return step(bar, t, point)

        monkeypatch.setattr(sdp._Barrier, "newton_step", recording)
        list(sdp.epigraph_stages(ref_j1, 1.0))
        solve_general(ref_j1, RatePair(1.0, 0.5))  # an optimal final solve
        solve_general(ref_j1, RatePair(1.0, 0.9))  # a Farkas certificate
        monkeypatch.undo()

        def posed(bar, t, y):
            H = reference_newton(bar, t, y)[1]
            d = np.sqrt(np.diag(H))
            return np.linalg.cond(H / np.outer(d, d)) < 1e8

        seen = [point for point in seen if posed(*point)]
        assert {bar.e is None for bar, *_ in seen} == {True, False} and len(seen) > 50
        for bar, t, y in seen:
            self.assert_matches(bar, t, y, primal=False)


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

        p = bundled(2, diagonal=True)
        r = RatePair(0.6, 0.2)
        t = thresholds_gaussian(p, r)
        sol = solve_general(p, r)
        P, _ = solve_diagonal(ConstraintSet.build(p, t))
        assert sol.status == OPTIMAL and P is not None
        assert sol.power == pytest.approx(float(np.sum(P)), rel=1e-4)

    def test_infeasible_pair(self, ref_j1):
        # A floor out of reach of P_T (_unreachable_row): refuted with no
        # Newton step.
        sol = solve_general(ref_j1, RatePair(2.0, 1.0))
        assert sol.status == INFEASIBLE
        assert sol.w is None
        assert sol.certificate is not None
        assert sol.newton_iterations == 0

    def test_anchor_continues_the_final_solve(self, ref_j1):
        # Continued from the optimum at R_D 1.0, the solve at 1.1 runs no
        # barrier and is the cold solve's optimum to roundoff.
        anchor = solve_general(ref_j1, RatePair(1.0, 0.5))
        r = RatePair(1.1, 0.5)
        cold, continued = solve_general(ref_j1, r), solve_general(ref_j1, r, anchor=anchor)
        assert cold.status == continued.status == OPTIMAL and cold.newton_iterations > 0
        assert continued.newton_iterations == 0 and continued.rank1_exact
        assert continued.power == pytest.approx(cold.power, rel=1e-9, abs=0.0)
        rep = check_kkt(ref_j1, continued.thresholds, continued.W, continued.duals, tol=1e-10)
        assert rep.passes(1e-10)

    # The anchor is ignored on the LP route, and when it has no W (an
    # infeasible solve): the result is the one with no anchor, to the bit.
    @pytest.mark.parametrize("name, anchor_rate, r", [
        ("paper_j2_diag", RatePair(0.5, 0.2), RatePair(0.6, 0.2)),
        ("paper_j1", RatePair(2.0, 1.0), RatePair(1.0, 0.5)),
    ])
    def test_ignored_anchor_changes_nothing(self, name, anchor_rate, r):
        p = load_problem(str(PROBLEMS / f"{name}.json")).problem
        anchor = solve_general(p, anchor_rate)
        assert (anchor.W is None) == (name == "paper_j1")
        alone, anchored = solve_general(p, r), solve_general(p, r, anchor=anchor)
        assert alone.status == OPTIMAL
        assert pickle.dumps(anchored) == pickle.dumps(alone)

    # A final solve whose path ends but whose face refinement is rejected
    # (paper_j2 at the R_s that rate_tol 1e-7 proves at R_D 0.9), and a
    # relaxed optimum of rank 2 whose principal direction no power makes
    # feasible (random-set seed 21, with a rank-1 eavesdropper covariance).
    @pytest.mark.parametrize("name, r, status", [
        ("paper_j2", RatePair(0.9, 0.5584005117416383), MAX_ITERATIONS),
        ("seed 21", RatePair(0.3, 0.290625), RANK1_INFEASIBLE),
    ])
    def test_barrier_status_without_an_optimum(self, name, r, status):
        if name == "paper_j2":
            p, mode, model = bundled(2), STATISTICAL, "gaussian"
        else:
            p, mode, model = random_problem(21)
        sol = solve_general(p, r, mode, model)
        assert sol.status == status and sol.newton_iterations > 0
        assert sol.w is None and sol.power is None and sol.certificate is None
        if status == RANK1_INFEASIBLE:
            assert numerical_rank(sol.W, sdp._RANK_REL_TOL) > 1
            w0 = extract_principal_direction(sol.W)
            assert power_rescale(p, sol.thresholds, w0, mode) is None

    def test_rank_two_optimum_is_rescaled(self):
        # One user with H = U diag(1, 1, 0) U^H and an eavesdropper on U's
        # third column, U a non-diagonal unitary, so the route is the SDP:
        # the relaxed optimum is rank 2, and its principal direction is
        # rescaled feasibly (power_rescale). Every direction in H's range
        # costs the same, so the power equals the relaxed optimum up to
        # roundoff, and w w^H meets the floor to roundoff.
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        p = WiretapProblem(H=(U @ np.diag([1.0, 1.0, 0.0]) @ U.conj().T,),
                           Z=(0.01 * U @ np.diag([0.0, 0.0, 1.0]) @ U.conj().T,),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        assert not p.diagonal
        sol = solve_general(p, RatePair(0.5, 0.2))
        assert sol.status == OPTIMAL and not sol.rank1_exact
        assert numerical_rank(sol.W, sdp._RANK_REL_TOL) == 2
        assert sol.power >= sol.objective * (1.0 - 1e-12)
        cons = ConstraintSet.build(p, sol.thresholds)
        values = cons.values(np.outer(sol.w, sol.w.conj()))
        assert np.all(values <= cons.u + 1e-12 * np.abs(cons.u))

    @pytest.mark.parametrize("rs", [0.5572265624999998, 0.5572265624999999,
                                    0.5572265625000004])
    def test_phase1_reports_infeasible_only_with_certificate(self, ref_j2, rs):
        # Feasible points about 1e-3 below the region's boundary at R_D 0.9.
        # The final solve's path stops as infeasible only on a Farkas
        # certificate: its -u'.y climbs to 0.994, short of the 1 at which
        # _Barrier.center tries y as one, and the path goes on to the optimum.
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
            # proven before any Newton step; at (1.0, 0.9) the dual path's y.
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
        assert [e.b_lo for e in sdp.epigraph_stages(ref_j1, 520.0)] == [math.inf]


class TestOneRowBuild:
    """A solve builds its ConstraintSet once: the LP, the barrier and the
    duals all take that one set. The route checks diagonality once per
    problem (WiretapProblem.diagonal), not once per solve."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        build, all_diagonal = ConstraintSet.build.__func__, diag_lp.all_diagonal

        def counting_build(cls, *args, **kwargs):
            calls.append("build")
            return build(cls, *args, **kwargs)

        def counting_all_diagonal(p):
            calls.append("all_diagonal")
            return all_diagonal(p)

        monkeypatch.setattr(ConstraintSet, "build", classmethod(counting_build))
        monkeypatch.setattr(diag_lp, "all_diagonal", counting_all_diagonal)
        return calls

    @pytest.mark.parametrize("name, rd, rs, status", [
        ("paper_j1_diag", 0.6, 0.2, OPTIMAL), ("paper_j1_diag", 2.0, 1.0, INFEASIBLE),
        ("paper_j1", 1.0, 0.5, OPTIMAL), ("paper_j1", 1.0, 0.9, INFEASIBLE),
        ("paper_j1", 0.0, 0.0, OPTIMAL),
    ])
    def test_one_build_per_call(self, name, rd, rs, status, monkeypatch):
        p = load_problem(str(PROBLEMS / f"{name}.json")).problem
        calls = self.counted(monkeypatch)
        routed = 1 if rd > 0.0 else 0  # the trivial route checks nothing
        assert solve_general(p, RatePair(rd, rs)).status == status
        assert (calls.count("build"), calls.count("all_diagonal")) == (1, routed)
        calls.clear()
        list(sdp.epigraph_stages(p, rd))
        assert solve_general(p, RatePair(rd, rs)).status == status
        # p kept its answer from the first solve.
        assert (calls.count("build"), calls.count("all_diagonal")) == (2, 0)
        fresh = load_problem(str(PROBLEMS / f"{name}.json")).problem
        list(sdp.epigraph_stages(fresh, rd))
        assert (calls.count("build"), calls.count("all_diagonal")) == (3, routed)


class TestStart:
    """The dual path needs no primal start: _Barrier.start() is inside the
    barrier's domain whatever the thresholds, a row out of reach is refuted
    before any Newton step (_unreachable_row), and the path's first stage
    gives a strictly feasible primal point or a Farkas certificate."""

    @staticmethod
    def path(p, r):
        cons = ConstraintSet.build(p, thresholds_gaussian(p, r))
        bar, budget = sdp._Barrier(cons), sdp._NewtonBudget(sdp._MAX_NEWTON)
        return cons, bar, budget, sdp._path(bar, budget)

    @staticmethod
    def proves(cons, cert):
        return cons.farkas(np.r_[cert.lam, cert.mu, cert.nu])[1] > 0.0

    def test_floor_out_of_reach(self, ref_j1):
        cons, _, budget, _ = self.path(ref_j1, RatePair(520.0, 0.0))
        with pytest.raises(sdp._Refuted) as refuted:
            sdp._unreachable_row(cons)
        assert self.proves(cons, refuted.value.certificate)
        sol = solve_rank_relaxed(ref_j1, thresholds_gaussian(ref_j1, RatePair(520.0, 0.0)))
        assert sol.status == INFEASIBLE and sol.newton_iterations == 0

    @pytest.mark.parametrize("rd, rs", [(1.0, 0.5), (0.5, 0.0)])
    def test_phase1_interior_point(self, ref_j1, rd, rs):
        # No feasibility pre-solve: the first stage's primal point, W = P_T
        # W' of its Newton step, is positive definite and meets every row
        # strictly.
        cons, bar, budget, stages = self.path(ref_j1, RatePair(rd, rs))
        t, _, step, _ = next(stages)
        assert budget.used > 0
        W = cons.p_t * bar.primal(t, step)
        assert np.all(cons.u - cons.values(W) > 0.0) and np.linalg.eigvalsh(W)[0] > 0.0

    def test_phase1_certificate(self, ref_j1):
        # Infeasible rows: the first stage's centering runs y out along a
        # Farkas ray and stops at the first y that proves it: -u.y > P_T.
        cons, bar, budget, stages = self.path(ref_j1, RatePair(1.0, 0.9))
        with pytest.raises(sdp._Refuted) as refuted:
            next(stages)
        cert = refuted.value.certificate
        assert budget.used > 0 and cert.margin > cons.p_t
        assert self.proves(cons, cert)

    def test_thin_set_starts_from_the_epigraph(self):
        # Seed 2769 of the sweep's thin-set test at (1.0, 0.8203125), a thin
        # feasible set. The dual path needs no primal start: its start y is
        # inside the barrier's domain, and the solve is optimal.
        rng = np.random.default_rng(2769)
        p = WiretapProblem(H=(random_psd(rng, 4, scale=3.0, ridge=0.1),),
                           Z=tuple(random_psd(rng, 4, scale=0.01, ridge=0.1) for _ in range(3)),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        r = RatePair(1.0, 0.8203125)
        cons, bar, _, _ = self.path(p, r)
        assert bar.evaluate(bar.start()).terms is not None
        sol = solve_rank_relaxed(p, thresholds_gaussian(p, r))
        assert sol.status == OPTIMAL
        assert check_kkt(p, sol.thresholds, sol.W, sol.duals, tol=1e-10).passes(1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.floats(-6.0, 12.0), st.booleans())
    def test_start_is_inside_the_domain(self, seed, log_a, epigraph):
        # Any floor thresholds, up to far past the budget's reach: the start
        # y is positive and Lambda(y) positive definite, with lambda_min at
        # least half that of the rows it does not scale.
        rng = np.random.default_rng(seed)
        n, k, j = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = np.array([np.eye(n, dtype=complex),
                      *(-random_psd(rng, n, rank=int(rng.integers(1, n + 1))) for _ in range(k)),
                      *(random_psd(rng, n, scale=0.01) for _ in range(j))])
        cons = ConstraintSet(A=A, u=np.r_[10.0, np.full(k, -10.0 ** log_a), np.full(j, 0.1)], k=k)
        bar = (sdp._Barrier(cons.with_ceiling(0.0), epigraph=True) if epigraph
               else sdp._Barrier(cons))
        y = bar.start()
        point = bar.evaluate(y)
        assert np.all(y > 0.0) and point.terms is not None
        lam = bar.C + np.einsum("m,mij->ij", y, bar.A)
        fixed = np.zeros(bar.m)
        if bar.e is not None:
            fixed = np.r_[1.0, np.zeros(bar.m - 1)] + bar.e / bar.e.sum()
        base = bar.C + np.einsum("m,mij->ij", fixed, bar.A)
        assert np.linalg.eigvalsh(lam)[0] >= 0.5 * np.linalg.eigvalsh(base)[0] * (1.0 - 1e-12)
        if bar.e is not None:
            assert float(bar.e @ y) == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def two_floors(p_t, b):
        """N = 2 with floors Tr(W e_i e_i^H) >= 10, feasible at p_t = 20.5 and
        infeasible for p_t < 20, and one ceiling Tr(G W) <= b, whose least
        value over the floors is 0.1."""
        G = 0.01 * np.array([[1.0, 0.5], [0.5, 1.0]])
        A = np.array([np.eye(2), -np.diag([1.0, 0.0]), -np.diag([0.0, 1.0]), G], dtype=complex)
        return ConstraintSet(A=A, u=np.array([p_t, -10.0, -10.0, b]), k=2)

    @pytest.mark.parametrize("p_t, b, feasible", [
        (20.5, 1.0, True), (20.5, 0.05, False), (19.0, 1.0, False),
    ])
    def test_two_floors_decided_by_the_dual_path(self, p_t, b, feasible):
        # Feasible rows end at a refined optimum with both floors tight, Tr W
        # = 20, and the ceiling met; a ceiling too low for the floors, or
        # floors beyond the budget, end with multipliers that prove it.
        cons = self.two_floors(p_t, b)
        budget = sdp._NewtonBudget(sdp._MAX_NEWTON)
        if feasible:
            W, y = sdp._final_solve(cons, budget)
            assert np.allclose(np.diag(W), 10.0, rtol=1e-12, atol=0.0)
            assert np.linalg.eigvalsh(W)[0] >= 0.0
            assert np.all(cons.values(W) <= cons.u + 1e-12 * np.abs(cons.u))
            assert cons.dual_objective(y) == pytest.approx(20.0, rel=1e-12)
        else:
            with pytest.raises(sdp._Refuted) as refuted:
                sdp._final_solve(cons, budget)
            assert self.proves(cons, refuted.value.certificate)


@pytest.mark.parametrize("diag, b_hi", [
    ((12.0, 12.0), 0.2 * (1.0 + 4.0 * sdp._EPS)),  # inside the floors: scaled down by 10/12
    ((10.0, 10.5), 0.205),                         # on a floor, at the budget: kept
    ((9.0, 10.0), math.inf),                       # lifted by 10/9: over the budget
    ((9.999999999999998, 10.5), math.inf),         # lifted by 1 + 2 eps: over the budget
])
def test_witness_bound_scales_onto_the_floors(diag, b_hi):
    # TestStart.two_floors at P_T 20.5: floors W_11 >= 10 and W_22 >= 10,
    # and the ceiling value 0.01 (W_11 + W_22) of a diagonal W.
    cons = TestStart.two_floors(20.5, 1.0)
    assert sdp._witness_bound(cons, np.diag(diag).astype(complex)) == pytest.approx(b_hi, rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_feasibility_probe_matches_relaxed_solve(seed):
    # The sweep tests' per-probe oracle (probe_verdict) agrees with the
    # relaxed solve. Random N=3/N=4 instances reach the dual path, and about
    # 60% are infeasible.
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
    verdict = probe_verdict(p, r)
    status = solve_rank_relaxed(p, thresholds_gaussian(p, r)).status
    # Feasible exactly when the relaxed solve is not infeasible. The probe
    # stops at the path's first strictly feasible primal point, so the solve,
    # which follows the same path on to the optimum, may still run out of
    # Newton steps after a feasible verdict; a path that runs out before any
    # verdict stops the solve there too.
    allowed = {FEASIBLE: {OPTIMAL, MAX_ITERATIONS}, INFEASIBLE: {INFEASIBLE},
               MAX_ITERATIONS: {MAX_ITERATIONS}}
    assert status in allowed[verdict]

    # The diagonal parts of the same instance take the LP route.
    diag = WiretapProblem(H=tuple(np.diag(np.diag(m)) for m in p.H),
                          Z=tuple(np.diag(np.diag(m)) for m in p.Z),
                          N0=p.N0, epsilon=p.epsilon, P_T=p.P_T)
    lp_status = solve_general(diag, r).status
    assert probe_verdict(diag, r) == (INFEASIBLE if lp_status == INFEASIBLE else FEASIBLE)


@pytest.mark.parametrize("seed", range(5))
def test_ceiling_bound_is_the_certificate_threshold(seed):
    # Random rows and multipliers: the Farkas test (cons.farkas, which
    # sdp._refute runs) accepts y just below ceiling_bound(y) and rejects it
    # just above. The y just below is marginal on purpose, so the test reads
    # cons.farkas itself.
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
        assert (cons.farkas(y)[1] > 0.0) == proven
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
        # refined from near 2 e e* with only the floor row guessed active;
        # W, the slacks and y0 in the barrier's units (W' = W / P_T).
        p = WiretapProblem(H=(np.diag([1.0, 0.5]),), Z=(np.diag([1.0, 0.0]),) if ceiling else (),
                           N0=1.0, epsilon=0.1, P_T=10.0)
        cons = ConstraintSet.build(p, thresholds(a=1.0, b=0.25))
        bar = sdp._Barrier(cons)
        floor = 1  # row 0 is the power budget, and no row is dropped
        slacks, y0 = np.ones(bar.u.size), np.full(bar.u.size, 1e-9)
        slacks[floor], y0[floor] = 1e-9, 1.0
        e = np.eye(2)[lead]
        W = (2.0 * np.outer(e, e) + 1e-9 * np.eye(2)).astype(complex)
        monkeypatch.setattr(sdp, "_FACE_STEPS", steps)
        refined = sdp._refine_face(cons, bar, W / p.P_T, slacks, y0)
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


def perfect_csi(p):
    """Perfect user CSI for p: h_k = psd_project_factor(H_k) g_k, with
    g_k ~ CN(0, I) drawn from one default_rng(0) in user order."""
    rng = np.random.default_rng(0)
    return perfect_users([psd_project_factor(h) @ ((rng.standard_normal(p.N)
                                                    + 1j * rng.standard_normal(p.N)) / math.sqrt(2))
                          for h in p.H])


def near_diagonal(p, d):
    """p with Hermitian zero-diagonal noise of relative Frobenius size d on
    every H_k and Z_j, drawn from one default_rng(1) a matrix at a time in
    H-then-Z order: a copy of a diagonal problem just off the LP route."""
    rng = np.random.default_rng(1)

    def noisy(m):
        g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        e = (g + g.conj().T) / 2.0
        np.fill_diagonal(e, 0.0)
        return m + e * (d * np.linalg.norm(m) / np.linalg.norm(e))

    H = tuple(noisy(h) for h in p.H)
    return dataclasses.replace(p, H=H, Z=tuple(noisy(z) for z in p.Z))


class TestWeaklyActiveRows:
    """A row whose path multiplier and slack both tend to 0 leaves the face
    system with no regular solution; the face refinement drops it and fits
    again instead of giving up."""

    @pytest.mark.parametrize("name, rd", [
        ("paper_j2", 0.4), ("paper_j2", 0.7), ("paper_j2", 1.6), ("paper_j3", 1.8),
    ])
    def test_perfect_csi_boundary_rows_are_optimal(self, name, rd):
        # The final solve at the proven R_s of these rows once ended
        # max_iterations, and the rows read numerical-failure: a weakly
        # active ceiling that the face fit had to drop. On the dual path's
        # normalized multipliers and slacks it is not guessed active at all.
        # paper_j2's rows read the copy in tests/data that CI sweeps at 0.4.
        if name == "paper_j2":
            pf = data_problem("paper_j2_perfect")
            p, mode = pf.problem, pf.csi_mode
        else:
            p = load_problem(str(PROBLEMS / f"{name}.json")).problem
            mode = perfect_csi(p)
        row, = sweep_region(p, [rd], rate_tol=1e-3, mode=mode).rows
        assert row.status == OPTIMAL
        sol = solve_general(p, RatePair(rd, row.rs_max), mode=mode)
        assert sol.status == OPTIMAL and sol.power == row.min_power
        rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, mode=mode)
        assert rep.max_residual() <= 1e-10

    def test_data_file_holds_the_perfect_csi_recipe(self):
        # The copy CI sweeps is problems/paper_j2.json with perfect_csi's
        # channels, to the bit.
        pf = data_problem("paper_j2_perfect")
        assert to_doc(pf.problem, pf.csi_mode) == to_doc(bundled(2), perfect_csi(bundled(2)))

    def test_missed_fit_drops_the_weakly_active_row(self, monkeypatch):
        # Random-set seed 67 (N 8, K 2, J 2) at R_D 1.0: the final solve at
        # the row's proven R_s guesses five rows active, the fit on them
        # misses _FACE_TOL, and the fit without the row of least y0 / s
        # meets it. The row stays optimal.
        p, mode, model = random_problem(67)
        row = sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2, mode=mode, input_model=model).rows[-1]
        assert (row.status, row.rs_max) == (OPTIMAL, 0.4765625)
        assert row.min_power == pytest.approx(9.22295209, rel=1e-8)
        errors = []
        newton = sdp._face_newton

        def spy(A, *args):
            out = newton(A, *args)
            errors.append((A.shape[0], out[2]))
            return out

        monkeypatch.setattr(sdp, "_face_newton", spy)
        sol = solve_general(p, RatePair(1.0, row.rs_max), mode=mode, input_model=model)
        assert sol.status == OPTIMAL and sol.power == row.min_power
        (rows, missed), (fewer, met) = errors
        assert missed > sdp._FACE_TOL >= met and (rows, fewer) == (5, 4)
        rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, mode=mode)
        assert rep.max_residual() <= 1e-10

    @pytest.mark.parametrize("name", ["paper_j1_diag", "paper_j2_diag"])
    def test_near_diagonal_copies_match_the_lp_sweep(self, name):
        # Off-diagonal noise of relative size d sends a diagonal problem to
        # the SDP route. Its sweep must give the LP sweep's statuses, and its
        # rs_max for d <= 1e-3, with power within 10 d^2 where rs_max agrees
        # (about 3.1 d^2 is seen).
        p = load_problem(str(PROBLEMS / f"{name}.json")).problem
        grid = code_rate_grid(0.1, 2.0, 0.1)
        lp_rows = sweep_region(p, grid, rate_tol=1e-3).rows
        for d in (1e-9, 1e-6, 1e-3, 1e-2):
            copy = near_diagonal(p, d)
            assert not diag_lp.all_diagonal(copy)
            rows = sweep_region(copy, grid, rate_tol=1e-3).rows
            assert [r.status for r in rows] == [r.status for r in lp_rows], d
            if d <= 1e-3:
                assert [r.rs_max for r in rows] == [r.rs_max for r in lp_rows], d
            for row, lp_row in zip(rows, lp_rows):
                if row.rs_max is not None and row.rs_max == lp_row.rs_max:
                    # At d = 1e-9, d^2 is below float64 roundoff.
                    rel = 10.0 * d * d + 1e-15
                    assert row.min_power == pytest.approx(lp_row.min_power, rel=rel), (d, row.rd)


class TestEpigraphWitness:
    """Epigraph stages are centred only loosely (_EPIGRAPH_TOL), so their
    b_hi comes from the step's DSDP primal point, which meets the rows off
    the central path too, and only while that point is PSD: a witness that
    is not PSD proves nothing."""

    @pytest.mark.parametrize("kind", ["thin", "random"])
    def test_every_stage_bracket_is_a_proof(self, kind, monkeypatch):
        # Every stage of every SDP epigraph, drained past the stages a sweep
        # pulls, at the corpus's code rates: the witness is PSD to roundoff,
        # b_lo <= b_hi, and each bracket lies inside the one before. Every
        # Epigraph orders its ends, so b_lo <= b_hi is checked on the proofs
        # themselves: the greatest ceiling_bound and the least witness bound
        # so far, which each stage must report as they are.
        witnesses, lows, highs = [], [], []
        witness_bound, ceiling_bound = sdp._witness_bound, ConstraintSet.ceiling_bound

        def spy(cons, W):
            witnesses.append(W)
            highs.append(witness_bound(cons, W))
            return highs[-1]

        def spy_low(cons, y):
            lows.append(ceiling_bound(cons, y))
            return lows[-1]

        monkeypatch.setattr(sdp, "_witness_bound", spy)
        monkeypatch.setattr(ConstraintSet, "ceiling_bound", spy_low)
        checked = 0
        for seed in range(50):
            if kind == "thin":
                p, mode, model = thin_set_problem(seed), STATISTICAL, "gaussian"
            else:
                p, mode, model = random_problem(seed)
            for rd in (0.3, 0.6, 1.0):
                try:
                    route = sdp._route(p, RatePair(rd, 0.0), mode, model)[1]
                except ModelError:
                    continue
                if route != "sdp":
                    continue
                witnesses.clear()
                lows.clear()
                highs.clear()
                stages = list(sdp.epigraph_stages(p, rd, mode, model))
                for W in witnesses:
                    vals = np.linalg.eigvalsh(W)
                    assert vals[0] >= -W.shape[0] * sdp._EPS * vals[-1], (seed, rd)
                proofs = zip(itertools.accumulate(lows, max), itertools.accumulate(highs, min))
                for stage, (lo, hi) in zip(stages, proofs):
                    assert lo <= hi and (stage.b_lo, stage.b_hi) == (lo, hi), (seed, rd)
                b_lo, b_hi = -math.inf, math.inf
                for stage in stages:
                    assert stage.b_lo <= stage.b_hi, (seed, rd)
                    assert b_lo <= stage.b_lo and stage.b_hi <= b_hi, (seed, rd)
                    b_lo, b_hi = stage.b_lo, stage.b_hi
                checked += len(witnesses)
        assert checked > 500

    def test_mid_not_positive_definite_falls_back(self):
        # The first Newton step of thin seed 0's epigraph at R_D 0.6, as it
        # is and scaled until mid = I - sum dy_i B_i has eigenvalue -1: the
        # first keeps its DSDP point, the second's is not PSD, and with psd
        # it gives way to Lambda^-1 / t.
        p = thin_set_problem(0)
        cons = ConstraintSet.build(p, thresholds_gaussian(p, RatePair(0.6, 0.0)))
        bar = sdp._Barrier(cons.with_ceiling(0.0), epigraph=True)
        point = bar.evaluate(bar.start())
        t = bar.centring_t(point)
        step = bar.newton_step(t, point)
        assert np.array_equal(bar.primal(t, step, psd=True), bar.primal(t, step))
        lam = np.linalg.eigvalsh(np.einsum("m,mij->ij", step.dy, step.B))
        scale = 2.0 / (lam[-1] if lam[-1] > 0.0 else lam[0])
        far = step._replace(dy=scale * step.dy)
        assert np.linalg.eigvalsh(bar.primal(t, far))[0] < 0.0
        inverse = step.Linv.conj().T @ step.Linv / t
        W = bar.primal(t, far, psd=True)
        assert np.allclose(W, inverse, rtol=0.0, atol=1e-15 * float(np.linalg.norm(inverse)))
        assert np.linalg.eigvalsh(W)[0] > 0.0


class TestEpigraphContinuation:
    """A sweep row's epigraph is first continued from the previous row's
    certified optimum (sdp._continued_bracket, the first bracket of
    epigraph_stages given an anchor): Newton on its face at the new floors,
    and the bracket of the two proofs every barrier stage uses. A poor start
    can only widen that bracket, never flip a verdict."""

    def test_crossed_ends_decide_nothing(self, ref_j1, monkeypatch):
        # Two proofs that cross by roundoff (a continued bracket is as narrow:
        # at paper_j2's R_D 0.7 and rate_tol 1e-7 its ends are 6.9e-18
        # apart): the Epigraph keeps [min, max], so a probe between is
        # undecided.
        b, gap = 0.25, 0.6
        crossed = sdp.Epigraph(np.nextafter(b, 1.0), b, gap + 1e-12, gap)
        assert (crossed.b_lo, crossed.b_hi) == (b, np.nextafter(b, 1.0))
        assert (crossed.gap_lo, crossed.gap_hi) == (gap, gap + 1e-12)
        r = RatePair(1.0, 1.0 - gap - 5e-13)
        assert gap < r.R_gap < gap + 1e-12
        assert proven_feasibility(crossed, r) is None
        assert proven_feasibility(crossed, RatePair(1.0, 0.3)) == FEASIBLE
        assert proven_feasibility(crossed, RatePair(1.0, 0.5)) == INFEASIBLE
        # A continued bracket whose b_lo lies one ulp above the first barrier
        # stage's b_hi: that stage's proofs start from the continued ones, so
        # it keeps the two crossed ends, ordered.
        stage = next(sdp.epigraph_stages(ref_j1, 1.0))
        above = float(np.nextafter(stage.b_hi, math.inf))
        monkeypatch.setattr(sdp, "_continued_bracket", lambda cons, anchor: (above, 2.0 * above))
        anchor = solve_general(ref_j1, RatePair(0.9, 0.3))
        continued, met = itertools.islice(sdp.epigraph_stages(ref_j1, 1.0, anchor=anchor), 2)
        assert (continued.b_lo, continued.b_hi) == (above, 2.0 * above)
        assert (met.b_lo, met.b_hi) == (stage.b_hi, above)
        assert met.gap_lo <= met.gap_hi

    @pytest.mark.parametrize("kind", ["thin", "random"])
    def test_continued_bracket_meets_the_drained_barrier(self, kind, monkeypatch):
        # Every continued bracket of sweeps over R_D 0.3, 0.6 and 1.0, each
        # row anchored from the one before, meets the bracket of the barrier
        # drained at that row, and its witness is PSD to roundoff.
        witnesses, continued, rows = [], [], []
        witness_bound, bracketing = sdp._witness_bound, sdp._continued_bracket
        staging = sweep.epigraph_stages

        def spy(cons, W):
            witnesses.append(W)
            return witness_bound(cons, W)

        def staged(p, rd, mode, model, anchor):
            rows.append((p, rd, mode, model))
            return staging(p, rd, mode, model, anchor)

        def recording(cons, anchor):
            # The row is the last one whose stages were opened.
            p, rd, mode, model = rows[-1]
            witnesses.clear()
            bracket = bracketing(cons, anchor)
            if bracket is not None:
                W, = witnesses
                vals = np.linalg.eigvalsh(W)
                assert vals[0] >= -W.shape[0] * sdp._EPS * vals[-1], rd
                epigraph = sdp.Epigraph(*bracket, *sdp.rate_bracket(p, *bracket, mode, model))
                continued.append((p, rd, mode, model, epigraph))
            return bracket

        monkeypatch.setattr(sdp, "_witness_bound", spy)
        monkeypatch.setattr(sweep, "epigraph_stages", staged)
        monkeypatch.setattr(sdp, "_continued_bracket", recording)
        for seed in range(50):
            if kind == "thin":
                p, mode, model = thin_set_problem(seed), STATISTICAL, "gaussian"
            else:
                p, mode, model = random_problem(seed)
            try:
                sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2, mode=mode, input_model=model)
            except ModelError:
                continue
        for p, rd, mode, model, epigraph in continued:
            drained = list(sdp.epigraph_stages(p, rd, mode, model))[-1]
            assert epigraph.b_lo <= drained.b_hi and epigraph.b_hi >= drained.b_lo, rd
            assert epigraph.gap_lo <= drained.gap_hi and epigraph.gap_hi >= drained.gap_lo, rd
        # Random rows are continued less often: a third have no ceiling or
        # no active one, or a floor out of reach.
        assert len(continued) >= (90 if kind == "thin" else 10)

    def test_corrupted_anchor_changes_no_row(self, ref_j1, monkeypatch):
        # The anchor's V scaled by 2 and its multipliers permuted: the face
        # Newton starts far off, its brackets are wider or missing, and the
        # barrier stages decide what they leave. Every row is unchanged.
        def sweep_counting_stages():
            staged = []
            center = sdp._Barrier.center

            def counting(bar, *args):
                if bar.e is not None:  # an epigraph barrier stage
                    staged.append(bar)
                return center(bar, *args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sdp._Barrier, "center", counting)
                rows = sweep_region(ref_j1, code_rate_grid(0.1, 1.2, 0.1), rate_tol=1e-3).rows
            return rows, len(staged)

        rows, staged = sweep_counting_stages()
        bracketing = sdp._continued_bracket

        def corrupted(cons, anchor):
            d = anchor.duals
            y = np.roll(np.r_[d.lam, d.mu, d.nu], 1)
            duals = dataclasses.replace(d, lam=float(y[0]), mu=y[1:1 + cons.k], nu=y[1 + cons.k:])
            return bracketing(cons, dataclasses.replace(anchor, W=4.0 * anchor.W, duals=duals))

        monkeypatch.setattr(sdp, "_continued_bracket", corrupted)
        bad_rows, bad_staged = sweep_counting_stages()
        assert bad_rows == rows
        assert staged < bad_staged

    def test_row_that_just_left_does_not_enter_again(self, monkeypatch):
        # random_problem(172) over R_D 0.3, 0.6 and 1.0: on the epigraph face
        # continued to 0.6 a ceiling enters, its multiplier comes out
        # negative and it leaves, and the face it left violates it again.
        # It entered and left until the updates ran out (faces of 2, 3, 2, 3
        # and 2 rows); _face_solve stops at the face it left (2, 3, 2).
        faces, active = [], []
        face_solve, newton = sdp._face_solve, sdp._face_newton

        def solving(*args, **kwargs):
            active.append([])
            try:
                return face_solve(*args, **kwargs)
            finally:
                faces.append(active.pop())

        def fitting(A, *args):
            if active:
                active[-1].append((A.shape[0], A.tobytes()))
            return newton(A, *args)

        monkeypatch.setattr(sdp, "_face_solve", solving)
        monkeypatch.setattr(sdp, "_face_newton", fitting)
        p, mode, model = random_problem(172)
        rows = sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2, mode=mode, input_model=model).rows
        assert [row.status for row in rows] == ["optimal", "optimal", "infeasible"]
        assert [n for n, _ in faces[1]] == [2, 3, 2]
        for face in faces:
            for before, after, again in zip(face, face[1:], face[2:]):
                assert not (after[0] < before[0] and again == before)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-9.0, max_value=9.0),
       st.sampled_from(["hz", "pt"]))
@example(2, 3.0, "hz")
def test_solve_does_not_depend_on_units(seed, exponent, what):
    # H, Z and N0 times f ("hz"), or P_T and N0 times f ("pt"), for f =
    # 10^exponent up to 1e+-9, is the same physical problem: the SDP route
    # must give the same status, and the same power to 1e-9 once divided by
    # f on "pt". The example was optimal unscaled and max_iterations with H,
    # Z and N0 times 1e3 under the primal barrier's absolute floors.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    p = WiretapProblem(H=tuple(random_psd(rng, n, ridge=0.1)
                               for _ in range(int(rng.integers(1, 4)))),
                       Z=tuple(random_psd(rng, n, scale=0.02, ridge=0.1)
                               for _ in range(int(rng.integers(1, 3)))),
                       N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.8)))
    rd = float(rng.uniform(0.2, 1.2))
    r = RatePair(rd, float(rng.uniform(0.0, rd)))
    factor = 10.0 ** exponent
    assert sdp._route(p, r, STATISTICAL, "gaussian")[1] == "sdp"
    base, scaled = solve_general(p, r), solve_general(scaled_problem(p, what, factor), r)
    assert scaled.status == base.status
    if base.power is not None:
        unit = factor if what == "pt" else 1.0
        assert scaled.power / unit == pytest.approx(base.power, rel=1e-9)

