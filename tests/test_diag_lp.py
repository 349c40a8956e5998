import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled, scaled_problem
from oracles import quad_form
from wiretap import diag_lp, sdp
from wiretap.constraints import ConstraintSet
from wiretap.diag_lp import all_diagonal, is_diagonal, min_ceiling, solve_diagonal
from wiretap.mi import MiEvaluator, qpsk
from wiretap.model import STATISTICAL, ConstraintThresholds, RatePair, WiretapProblem, thresholds_gaussian
from wiretap.sdp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL, solve_general
from wiretap.sweep import sweep_region


def thresholds(a, b=0.0, per_link=0.9):
    return ConstraintThresholds(a=a, b=b, per_link_prob=per_link,
                                user_power_target=a, eave_power_target=b)


def lp(p, t):
    """The LP's (P, y) on the rows of p at t, or None when infeasible, which
    phase I's multipliers must certify."""
    cons = ConstraintSet.build(p, t)
    P, y = solve_diagonal(cons)
    if P is None:
        with pytest.raises(sdp._Refuted):
            sdp._refute(cons, y)
        return None
    return P, y


def lp_power(p, t):
    end = lp(p, t)
    return None if end is None else float(np.sum(end[0]))


def lp_route(p, t):
    """The solve the LP route makes of p at t."""
    return sdp._lp_route(ConstraintSet.build(p, t), t, STATISTICAL)


def diag_problem(h_diags, z_diags=(), p_t=10.0):
    n = len(h_diags[0])
    return WiretapProblem(
        H=tuple(np.diag(np.asarray(d, dtype=float)).astype(complex) for d in h_diags),
        Z=tuple(np.diag(np.asarray(d, dtype=float)).astype(complex) for d in z_diags),
        N0=1.0,
        epsilon=0.1,
        P_T=p_t,
    )


def lp_vertex_oracle(h_diags, z_diags, a, b, p_t):
    """Brute force over all basic solutions of the small LP: optimum lies at a
    vertex where n of the inequalities (including P_m >= 0) are active."""
    h = np.asarray(h_diags, dtype=float)
    n = h.shape[1]
    z = np.asarray(z_diags, dtype=float).reshape(len(z_diags), n) if z_diags else np.zeros((0, n))
    rows = [(np.ones(n), p_t)]
    rows += [(-h[k], -a) for k in range(h.shape[0])]
    rows += [(z[j], b) for j in range(z.shape[0])]
    rows += [(-(np.eye(n)[m]), 0.0) for m in range(n)]
    best = None
    mat = np.array([r[0] for r in rows])
    rhs = np.array([r[1] for r in rows])
    for combo in itertools.combinations(range(len(rows)), n):
        sub = mat[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(x >= -1e-9) and np.all(mat @ x <= rhs + 1e-9):
            total = float(np.sum(x))
            if best is None or total < best:
                best = total
    return best


class TestSolveDiagonal:
    def test_single_antenna_binding_floor(self):
        p = diag_problem([[1.0]], p_t=10.0)
        P, y = lp(p, thresholds(a=5.0))
        assert float(np.sum(P)) == pytest.approx(5.0, abs=1e-8)
        assert P[0] == pytest.approx(5.0, abs=1e-8)
        assert y.shape == (2,)  # one multiplier per row: the budget and the floor

    def test_two_antennas_best_gain_wins(self):
        p = diag_problem([[2.0, 1.0]], p_t=10.0)
        power = lp_power(p, thresholds(a=6.0))
        assert power == pytest.approx(3.0, abs=1e-8)
        oracle = lp_vertex_oracle([[2.0, 1.0]], [], 6.0, 0.0, 10.0)
        assert power == pytest.approx(oracle, abs=1e-8)

    def test_infeasible_when_floor_exceeds_budget(self):
        p = diag_problem([[1.0]], p_t=4.0)
        assert lp(p, thresholds(a=5.0)) is None

    def test_matches_vertex_oracle_with_eavesdroppers(self):
        h = [[2.0, 1.0, 0.5], [0.5, 1.5, 1.0]]
        z = [[0.05, 0.01, 0.02]]
        p = diag_problem(h, z, p_t=20.0)
        t = thresholds(a=6.0, b=0.2)
        power = lp_power(p, t)
        oracle = lp_vertex_oracle(h, z, 6.0, 0.2, 20.0)
        assert power is not None and oracle is not None
        assert power == pytest.approx(oracle, abs=1e-8)

    def test_infeasible_matches_vertex_oracle(self):
        h = [[1.0, 1.0]]
        z = [[1.0, 1.0]]  # eavesdropper sees exactly what the user sees
        p = diag_problem(h, z, p_t=10.0)
        t = thresholds(a=5.0, b=1.0)
        assert lp(p, t) is None
        assert lp_vertex_oracle(h, z, 5.0, 1.0, 10.0) is None


class TestAllocationToBeamformer:
    """The LP route's beamformer is w = sqrt(P) of the LP's powers."""

    def test_square_roots(self):
        # Floors diag(1, 0, 0) and diag(0, 0, 4) at a = 4: P = (4, 0, 1).
        p = diag_problem([[1.0, 0.0, 0.0], [0.0, 0.0, 4.0]], p_t=10.0)
        sol = lp_route(p, thresholds(a=4.0))
        assert sol.status == OPTIMAL
        assert np.allclose(sol.w, [2.0, 0.0, 1.0])
        assert sol.w[1] == 0.0 and sol.power == pytest.approx(5.0, abs=1e-8)

    def test_zero_allocation(self):
        p = diag_problem([[1.0, 2.0, 3.0]], p_t=10.0)
        sol = lp_route(p, thresholds(a=0.0))
        assert sol.status == OPTIMAL
        assert np.array_equal(sol.w, np.zeros(3)) and sol.power == 0.0

    def test_quad_form_identity_for_diagonal_covariance(self):
        p = diag_problem([[2.0, 1.0, 0.5]], [[0.01, 0.02, 0.03]], p_t=50.0)
        t = thresholds(a=7.0, b=1.0)
        P, y = lp(p, t)
        sol = lp_route(p, t)
        assert np.array_equal(sol.w, np.sqrt(P).astype(complex))
        assert np.array_equal(ConstraintSet.build(p, t).stack(sol.duals), y)
        for m in (*p.H, *p.Z):
            direct = float(np.sum(P * np.diag(m).real))
            assert quad_form(sol.w, m) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_total_power_monotone_in_thresholds(seed):
    rng = np.random.default_rng(seed)
    n, k, j = 3, 2, 1
    h = rng.uniform(0.2, 3.0, size=(k, n))
    z = rng.uniform(0.001, 0.05, size=(j, n))
    p = diag_problem(h, z, p_t=50.0)
    a = float(rng.uniform(0.5, 10.0))
    b = float(rng.uniform(0.05, 1.0))
    base = lp_power(p, thresholds(a=a, b=b))
    if base is None:
        # feasibility is monotone: loosening must keep it infeasible or fix it;
        # tightening must keep it infeasible
        assert lp(p, thresholds(a=a * 1.5, b=b * 0.5)) is None
        return
    harder = lp_power(p, thresholds(a=a * 1.2, b=b))
    if harder is not None:
        assert harder >= base - 1e-9
    easier = lp_power(p, thresholds(a=a, b=b * 2.0))
    assert easier is not None  # loosening b keeps feasibility
    assert easier <= base + 1e-9


def test_cross_solver_agreement_on_reference_diagonal(ref_j1):
    from wiretap.sdp import solve_rank_relaxed

    p = bundled(1, diagonal=True)
    r = RatePair(0.7, 0.3)
    t = thresholds_gaussian(p, r)
    power = lp_power(p, t)
    relaxed = solve_rank_relaxed(p, t)
    assert power is not None and relaxed.status == "optimal"
    assert power == pytest.approx(relaxed.objective, rel=1e-4)


def scaled(p, hz=1.0, pt=1.0, n0=1.0):
    """The same physical problem in other units: H and Z times hz, P_T
    times pt and N0 times n0."""
    return dataclasses.replace(p, H=tuple(hz * h for h in p.H), Z=tuple(hz * z for z in p.Z),
                               P_T=pt * p.P_T, N0=n0 * p.N0)


class TestScale:
    """Neither the route nor an LP verdict may hang on an absolute floor."""

    def test_is_diagonal_is_relative(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        assert not is_diagonal(1e-12 * m)
        assert is_diagonal(1e-12 * np.diag([1.0, 2.0]))
        assert is_diagonal(np.zeros((2, 2), dtype=complex))

    def test_small_non_diagonal_problem_takes_the_sdp(self):
        # H, Z and N0 times 1e-12 used to look diagonal, and the LP dropped the
        # phases: optimal at power 0.0 against 13.1658 unscaled.
        p = scaled(bundled(1), hz=1e-12, n0=1e-12)
        assert not all_diagonal(p)
        sol = solve_general(p, RatePair(1.0, 0.5))
        assert sol.status in (OPTIMAL, MAX_ITERATIONS)
        if sol.status == OPTIMAL:
            assert sol.power == pytest.approx(13.1658, rel=1e-5)

    @pytest.mark.parametrize("hz, pt_n0, power, statuses", [
        (1.0, 1e-6, 1.4355987e-5, (OPTIMAL,)),
        (1.0, 1e-9, 1.4355987e-8, (OPTIMAL,)),
        (1e-12, 1.0, 14.355987, (OPTIMAL,)),
        (1.0, 1e-12, 1.4355987e-11, (OPTIMAL,)),
    ])
    def test_lp_optimal_meets_every_row_relatively(self, hz, pt_n0, power, statuses):
        # The simplex's tolerances are relative, so every unit gives the
        # unscaled allocation. An absolute tolerance (about 1e-7 in the LP
        # solver this route once used) passes P = 0 against floors below it.
        p = scaled(bundled(1, diagonal=True), hz=hz, pt=pt_n0, n0=hz * pt_n0)
        sol = solve_general(p, RatePair(1.0, 0.5))
        assert sol.status in statuses
        if sol.status == OPTIMAL:
            assert sol.power == pytest.approx(power, rel=1e-6)


# Two diagonal instances drawn as test_proven_verdicts_match_probes draws
# them, with N, K and J from the seed's generator. An LP meets a binding
# floor only to roundoff, so sdp._witness_bound lifts P onto the floors; the
# lift must read the row values that it checks. Here a lift on other
# roundings misses by about 7e-15, b_hi is inf and the bracket proves no
# probe feasible.
@pytest.mark.parametrize("seed, rd, alphabet", [(14, 1.0, "qpsk"), (23, 0.6, "gaussian")])
def test_min_ceiling_witness_meets_the_floors(seed, rd, alphabet):
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(3, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))

    def cov(scale):
        return np.diag(rng.uniform(0.2, 2.0, n) * scale).astype(complex)

    p = WiretapProblem(H=tuple(cov(3.0) for _ in range(k)), Z=tuple(cov(0.01) for _ in range(j)),
                       N0=1.0, epsilon=0.1, P_T=100.0)
    model = MiEvaluator(qpsk()) if alphabet == "qpsk" else "gaussian"
    cons = ConstraintSet.build(p, sdp.rate_thresholds(p, RatePair(rd, 0.0), model))
    P, _ = min_ceiling(cons)
    assert np.isfinite(sdp._witness_bound(cons, np.diag(P)))
    stage, = sdp.epigraph_stages(p, rd, input_model=model)
    assert stage.b_lo <= stage.b_hi <= stage.b_lo * (1.0 + 1e-14)


def assert_optimal(P, y, D, u, c, objective, rel=1e-9):
    """P >= 0 meets D P <= u, y >= 0 with c + D^T y >= 0, and the objectives
    c.P and -y.u agree: the LP duality proof that P is optimal, each to rel
    of the sizes of the terms that it sums."""
    mag = np.abs(D) @ P + np.abs(u)
    assert np.all(P >= 0.0) and np.all(y >= 0.0)
    assert np.all(D @ P - u <= rel * mag)
    assert np.all(c + D.T @ y >= -rel * (np.abs(c) + np.max(y) * np.sum(np.abs(D), axis=0)))
    size = np.max(y) * np.sum(mag) + np.max(P) * np.max(np.abs(D))
    assert objective == pytest.approx(-float(y @ u), rel=rel, abs=rel * size)


def random_diag_cons(seed):
    """Rows of a small diagonal problem with degenerate features: zero
    diagonal entries and zero floors or ceilings, duplicate floor rows, and
    floors near the budget; the rows in units from 1e-12 to 1e3."""
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
    unit = 10.0 ** int(rng.integers(-12, 4))

    def diag(scale):
        d = rng.uniform(0.0, 2.0, n) * scale * unit
        d[rng.random(n) < 0.3] = 0.0
        return d

    h = [diag(1.0) for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        h[1] = h[0]
    z = [diag(float(rng.choice([0.01, 0.1, 1.0]))) for _ in range(j)]
    p = diag_problem(h, z, p_t=float(rng.choice([1.0, 10.0, 100.0])))
    return ConstraintSet.build(p, thresholds(a=float(rng.uniform(0.1, 20.0)) * unit,
                                             b=float(rng.uniform(0.0, 2.0)) * unit))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_simplex_verdicts_are_certified(seed):
    # Every verdict of both LPs carries its own proof, checked with no other
    # solver: an optimum by primal and dual feasibility with equal
    # objectives, infeasibility by a Farkas certificate that cons.farkas
    # accepts.
    cons = random_diag_cons(seed)
    D, u = np.real(np.diagonal(cons.A, axis1=1, axis2=2)), cons.u
    P, y = solve_diagonal(cons)
    if P is None:
        assert cons.farkas(y)[1] > 0.0
    else:
        assert_optimal(P, y, D, u, np.ones(cons.n), float(np.sum(P)))
    if not np.any(cons.ceilings):
        return
    P, y = min_ceiling(cons)
    floors = cons.with_ceiling(0.0)
    if P is None:
        assert floors.farkas(y)[1] > 0.0
        return
    s = float(np.max(D[cons.ceilings] @ P))
    # min s over (P, s >= 0): its rows are the floors and budget, and D_j P - s <= 0.
    D_s = np.column_stack([D, -1.0 * cons.ceilings])
    assert_optimal(np.r_[P, s], y, D_s, floors.u, np.r_[np.zeros(cons.n), 1.0], s)


@pytest.mark.parametrize("h, z, a, b, p_t, power", [
    ([[2.0, 1.0], [2.0, 0.5]], [], 4.0, 0.0, 10.0, 2.0),           # tied ratios
    ([[1.0, 2.0], [1.0, 2.0]], [[0.1, 0.1], [0.1, 0.1]], 4.0, 1.0, 10.0, 2.0),  # duplicate rows
    ([[1.0, 1.0], [0.0, 0.0]], [], 1.0, 0.0, 10.0, None),          # a zero-diagonal floor
    ([[0.0, 2.0], [1.0, 0.0]], [], 2.0, 0.0, 10.0, 3.0),           # zero diagonal entries
    ([[1.0, 2.0]], [[0.1, 0.2]], 10.0, 5.0, 5.0, 5.0),             # budget and floor bind
], ids=["tied-ratios", "duplicate-rows", "zero-floor", "zero-entries", "budget-and-floor"])
def test_degenerate_lps(h, z, a, b, p_t, power):
    p = diag_problem(h, z, p_t=p_t)
    t = thresholds(a=a, b=b)
    assert lp_power(p, t) == (None if power is None else pytest.approx(power, rel=1e-12))
    assert lp_vertex_oracle(h, z, a, b, p_t) == (None if power is None else pytest.approx(power))
    sol = lp_route(p, t)
    assert sol.status == (INFEASIBLE if power is None else OPTIMAL)
    if power is None:
        assert sol.certificate.margin > 0.0


def test_binding_budget_and_floor_give_a_finite_witness():
    # P = (0, 5) spends the whole budget to meet the floor; the witness of
    # the epigraph must not overshoot P_T, or _witness_bound refuses it.
    p = diag_problem([[1.0, 2.0]], [[0.1, 0.2]], p_t=5.0)
    cons = ConstraintSet.build(p, thresholds(a=10.0, b=5.0))
    P, y = min_ceiling(cons)
    assert np.sum(P) <= 5.0 and sdp._witness_bound(cons, np.diag(P)) == pytest.approx(1.0)
    assert cons.ceiling_bound(y) == pytest.approx(1.0)


def test_lp_route_regression_rows():
    # Basic values not re-solved on the binding rows put the budget 3 ulp
    # over P_T here, _witness_bound refused the witness and the row was
    # numerical-failure.
    row, = sweep_region(bundled(3, diagonal=True), [0.7], rate_tol=1e-3).rows
    assert row.status == "optimal" and row.rs_max == pytest.approx(0.108691406, abs=1e-9)
    # An absolute threshold on phase I's unmet rows read these as feasible;
    # they are infeasible, with certificates on both LPs.
    p = scaled_problem(bundled(2, diagonal=True), "hz", 1e-6)
    for rd in (0.9, 1.0, 1.1, 1.2):
        sol = solve_general(p, RatePair(rd, 0.0))
        assert sol.status == INFEASIBLE and sol.certificate.margin > 0.0
        stage, = sdp.epigraph_stages(p, rd)
        assert stage.b_lo == stage.b_hi == math.inf
        assert sweep_region(p, [rd], rate_tol=1e-3).rows[0].status == "infeasible"


def test_uncertified_phase_one_decides_nothing(monkeypatch):
    # The floor needs 8 > P_T: phase I's y is a certificate. A y that
    # cons.farkas does not accept (here zero) reports max_iterations, and
    # the epigraph yields the bracket that decides no probe.
    p = diag_problem([[1.0, 0.5]], [[0.1, 0.1]], p_t=4.0)
    rd = 2.0
    t = sdp.rate_thresholds(p, RatePair(rd, 0.0))
    cons = ConstraintSet.build(p, t)
    assert t.a > 4.0 and lp_route(p, t).status == INFEASIBLE
    stage, = sdp.epigraph_stages(p, rd)
    assert stage.b_lo == math.inf
    for name in ("solve_diagonal", "min_ceiling"):
        monkeypatch.setattr(diag_lp, name, lambda cons: (None, np.zeros(cons.u.size)))
    assert sdp._lp_route(cons, t, STATISTICAL).status == MAX_ITERATIONS
    stage, = sdp.epigraph_stages(p, rd)
    assert stage == sdp.Epigraph(-math.inf, math.inf, 0.0, math.inf)
