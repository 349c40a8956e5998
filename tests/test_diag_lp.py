import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled
from wiretap import sdp
from wiretap.constraints import ConstraintSet
from wiretap.diag_lp import all_diagonal, is_diagonal, min_ceiling, solve_diagonal
from wiretap.linalg import quad_form
from wiretap.mi import MiEvaluator, qpsk
from wiretap.model import STATISTICAL, ConstraintThresholds, RatePair, WiretapProblem, thresholds_gaussian
from wiretap.sdp import MAX_ITERATIONS, OPTIMAL, solve_general


def thresholds(a, b=0.0, per_link=0.9):
    return ConstraintThresholds(a=a, b=b, per_link_prob=per_link,
                                user_power_target=a, eave_power_target=b)


def lp(p, t):
    """The LP's (P, y) on the rows of p at t, or None when infeasible."""
    return solve_diagonal(ConstraintSet.build(p, t))


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
        (1.0, 1e-9, 1.4355987e-8, (OPTIMAL, MAX_ITERATIONS)),
        (1e-12, 1.0, 14.355987, (OPTIMAL, MAX_ITERATIONS)),
    ])
    def test_lp_optimal_meets_every_row_relatively(self, hz, pt_n0, power, statuses):
        # HiGHS's absolute primal tolerance (about 1e-7) passes P = 0 against
        # floors below it; such an allocation must not be reported optimal.
        p = scaled(bundled(1, diagonal=True), hz=hz, pt=pt_n0, n0=hz * pt_n0)
        sol = solve_general(p, RatePair(1.0, 0.5))
        assert sol.status in statuses
        if sol.status == OPTIMAL:
            assert sol.power == pytest.approx(power, rel=1e-6)


# Two diagonal instances drawn as test_proven_verdicts_match_probes draws
# them, with N, K and J from the seed's generator. HiGHS meets a binding
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
