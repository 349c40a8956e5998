"""Rank-relaxed transmit-covariance optimization and rank-1 beamformer recovery.

The general (non-diagonal) problem is solved as a small dense SDP:

    min Tr(W)  s.t.  W >= 0 (PSD),  Tr(W) <= P_T,
                     Tr(W H_k) >= a,  Tr(W Z_j) <= b,

via a log-barrier path-following method written directly against this
structure: each Newton system is solved in closed form through the
Woodbury identity, because the Hessian is the PSD-cone term
X -> W^{-1} X W^{-1} plus one rank-one term per scalar constraint. Each
iterate is evaluated once: the line search keeps the trial it accepts, with
its slacks and barrier terms, for the next Newton step and for the first
value of the next stage. Every barrier run starts from _start: it refutes a
row out of reach (below), else runs phase I, whose stalls go to the
epigraph of the ceilings (below). It returns (W, None) with W strictly
feasible or (None, cert) with a Farkas certificate, or raises.

The barrier's relaxation s enters row i with a coefficient c_i. Phase I
uses c = 1 on every row. The epigraph of the ceilings (epigraph_stages) uses
c = 1 on the ceilings, 0 elsewhere and ceiling u = 0: it brackets
b* = min max_j Tr(Z_j W) over the floors and the budget at one code rate,
and the bracket narrows after every barrier stage. The common ceiling
depends on R_s only through the rate gap R_D - R_s, so each stage's bracket
is mapped to a bracket on that gap (rate_bracket), by two forward rate
evaluations, and a probe at any R_s is decided by comparing its gap with it
(proven_feasibility), with no threshold or MI inversion. epigraph_stages is
a generator, so its caller runs the path only as far as it pulls it: a sweep
row pulls the next stage only while a probe's gap lies inside the bracket.
These brackets are the sweep's only feasibility oracle: a probe that the
last stage still holds stays undecided. The path ends at a silent stage or
at _T_MAX, never on the width of its bracket.

A row that no W >= 0 within the budget meets, P_T min(0, lambda_min(A_i)) >
u_i, is refuted before any barrier run, with a Farkas certificate on that
row and the budget (_unreachable_row): a floor with a_k > P_T
lambda_max(F_k), whose slacks of order a_k would overflow the barrier, or a
negative ceiling.

The barrier is built from the signed rows Re Tr(A_i W) <= u_i of a
ConstraintSet, less its vacuous all-zero rows (ConstraintSet.nonzero); its
multipliers y are stacked like the rows, a dropped row's being 0. Phase I's Farkas certificate and the
epigraph's lower bound are ConstraintSet.farkas of the path's y. The end
point is then refined on its optimal face (_refine_face): a few Gauss-Newton
steps on the square KKT system Lambda(y) V = 0, Tr(V^H A_i V) = u_i, with
W = V V^H, take the residuals from the barrier's float64 floor (about 1e-7)
to roundoff. OPTIMAL needs that refined point to be a KKT point with a small
duality gap; otherwise the solve reports MAX_ITERATIONS.

Feasibility of the beamformer follows from the relaxation whenever the
solution has numerical rank one (which it does on the bundled scenarios);
otherwise the principal eigendirection is kept and only the transmit power
is re-optimized, which is a one-dimensional closed-form problem.

Each solve builds its ConstraintSet once, and the route's solver takes it:
the diagonal LP (diag_lp.solve_diagonal, whose w = sqrt(P)) or the barrier.
Every route (zero power, the diagonal LP, the SDP with its rank-1 recovery)
and every early exit returns the one BeamformerSolution record, with its
thresholds, CSI mode and Newton-step count; ConstraintSet.duals builds the
duals of each from its y.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import diag_lp
from .constraints import ConstraintSet, DualVariables
from .linalg import LinalgError, as_vector, hermitian_eig, numerical_rank
from .model import (
    STATISTICAL,
    ConstraintThresholds,
    CsiMode,
    ModelError,
    RatePair,
    WiretapProblem,
    eave_denominator,
    thresholds_finite_alphabet,
    thresholds_gaussian,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
RANK1_INFEASIBLE = "rank1_infeasible"
MAX_ITERATIONS = "max_iterations"
FEASIBLE = "feasible"         # verdict of proven_feasibility only

_EPS = float(np.finfo(np.float64).eps)

_GAP_REL = 2e-7          # duality-gap target relative to max(1, primal)
_T0 = 1.0                # initial barrier parameter
_T_GROWTH = 10.0         # barrier parameter multiplier per centering stage
_NEWTON_TOL = 1e-8       # Newton decrement below which a point is centered
_FEAS_MARGIN_REL = 1e-9  # phase I stops once the relaxation s < -this * ref
_RANK_REL_TOL = 1e-6     # eigenvalues below this * lambda_max count as zero
_FACE_STEPS = 8          # Gauss-Newton steps of the face refinement
_FACE_TOL = 1e-12        # relative KKT residual a refined face must reach
_MAX_NEWTON = 800        # total Newton budget per solve (both phases)
_T_MAX = 1e12            # the path stops at this barrier parameter
_LP_ROW_REL = 1e-9       # an LP allocation must meet each row to this * |u_i|


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas certificate: with these non-negative multipliers,
    C = lam*I - sum mu_k F_k + sum nu_j G_j >= 0 while
    lam*P_T - sum mu_k a_k + sum nu_j b_j < 0, so no feasible W exists."""

    lam: float
    mu: np.ndarray
    nu: np.ndarray
    combo_min_eig: float
    margin: float


@dataclass(frozen=True)
class BeamformerSolution:
    """The result of one solve, whichever route produced it. The relaxed
    solve alone (solve_rank_relaxed) leaves w and power unset unless W = 0."""

    status: str
    mode: CsiMode = STATISTICAL
    w: np.ndarray | None = None
    power: float | None = None
    W: np.ndarray | None = None
    rank1_exact: bool = False
    duals: DualVariables | None = None
    objective: float | None = None   # relaxed-problem optimum Tr(W)
    thresholds: ConstraintThresholds | None = None
    certificate: InfeasibilityCertificate | None = None
    newton_iterations: int = 0       # barrier Newton steps, both phases


# ---------------------------------------------------------------------------
# Barrier kernel
# ---------------------------------------------------------------------------


class _NumericalTrouble(Exception):
    pass


class _NewtonBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise _NumericalTrouble("Newton iteration budget exhausted")


class _Point(NamedTuple):
    """An iterate (W, s) of a _Barrier with its slacks sl and, inside the
    barrier's domain, its barrier terms (obj, logdet W, sum log sl, log(s_cap
    - s), 0 without s_cap); terms is None outside the domain."""

    W: np.ndarray
    s: float
    sl: np.ndarray
    terms: tuple | None

    def value(self, t: float) -> float:
        """The barrier value t*obj - logdet - sum log sl - log cap, inf outside
        the domain. A point's terms serve every t: a new stage starts from
        the last one's point with no new Cholesky factor."""
        if self.terms is None:
            return math.inf
        obj, logdet, log_sl, log_cap = self.terms
        return t * obj - logdet - log_sl - log_cap


class _Barrier:
    """Log-barrier model over the constraint set

        W > 0,   <A_i, W> - c_i s <= u_i,   s <= s_cap.

    With s_cap given it minimizes t*s over W and the relaxation s, c being
    one coefficient per row: phase I relaxes every row (c = 1), the epigraph
    of the ceilings only the ceilings. Phase II (no s_cap) minimizes t*<I, W>
    with s fixed at 0. Newton steps are computed with the Woodbury identity:
    the PSD-cone Hessian block X -> W^{-1} X W^{-1} is inverted in closed form
    (X -> W X W) and each scalar constraint adds a rank-one term.

    Its rows are those of a ConstraintSet less the vacuous ones
    (ConstraintSet.nonzero); c and multipliers count every row of the set.

    Each iterate is evaluated once (evaluate): the line search's accepted
    trial is the next iterate, and its slacks and barrier terms (_Point) are
    carried to the next Newton step and to the next stage's first value.
    """

    def __init__(self, cons: ConstraintSet, s_cap: float | None = None,
                 c: np.ndarray | None = None):
        self.keep = np.flatnonzero(cons.nonzero)   # the rows of cons it keeps
        self.size = cons.u.size
        self.A = cons.A[self.keep]      # (m, N, N) Hermitian constraint matrices
        self.A_conj = self.A.conj()
        self.u = cons.u[self.keep]      # (m,)
        self.m, self.N = self.A.shape[0], self.A.shape[1]
        self.s_cap = s_cap
        self.relax = s_cap is not None
        self.c = np.ones(self.m) if c is None else c[self.keep]
        self.cc = np.outer(self.c, self.c) if self.relax else None
        self.C0 = None if self.relax else np.eye(self.N, dtype=complex)
        # Barrier parameter count: logdet + m scalar logs (+ s_cap log).
        self.nu = self.N + self.m + (1 if self.relax else 0)

    def multipliers(self, y: np.ndarray) -> np.ndarray:
        """y, one multiplier per barrier row, as one per row of the
        ConstraintSet; a vacuous row's is 0."""
        full = np.zeros(self.size)
        full[self.keep] = y
        return full

    def evaluate(self, W: np.ndarray, s: float) -> _Point:
        """(W, s) with its slacks and barrier terms; terms None outside the
        domain (a slack <= 0, W not positive definite, or s >= s_cap)."""
        sl = self.u - np.einsum("mij,ij->m", self.A_conj, W).real
        if self.relax:
            sl += self.c * s
        if np.count_nonzero(sl <= 0.0):
            return _Point(W, s, sl, None)
        try:
            L = np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            return _Point(W, s, sl, None)
        logdet = 2.0 * float(np.log(L.diagonal().real).sum())
        if not self.relax:
            obj = float(np.vdot(self.C0, W).real)
            return _Point(W, s, sl, (obj, logdet, float(np.log(sl).sum()), 0.0))
        cap = self.s_cap - s
        if cap <= 0.0:
            return _Point(W, s, sl, None)
        return _Point(W, s, sl, (s, logdet, float(np.log(sl).sum()), math.log(cap)))

    def newton_step(self, t: float, point: _Point):
        """Returns (dW, ds, decrement^2) at point."""
        W, s, sl = point.W, point.s, point.sl
        # Terms exist only where every slack is > 0 (evaluate).
        if point.terms is None and np.count_nonzero(sl <= 0.0):
            raise _NumericalTrouble("iterate left the feasible region")
        Winv = np.linalg.inv(W)
        Winv = (Winv + Winv.conj().T) / 2.0
        grad_W = np.einsum("m,mij->ij", 1.0 / sl, self.A) - Winv
        if self.relax:
            cap = self.s_cap - s
            grad_s = t - float((self.c / sl).sum()) + 1.0 / cap
            cap2 = cap * cap
        else:
            grad_W.flat[::self.N + 1] += t    # the objective's gradient, t I
            grad_s, cap2 = 0.0, 0.0

        # M^-1 applied to the gradient and to each constraint row.
        WgW = W @ grad_W @ W
        WAW = W @ self.A @ W
        v = np.einsum("mij,ij->m", self.A_conj, WgW).real
        S = np.einsum("mij,nij->mn", self.A_conj, WAW).real
        if self.relax:
            # (W, s) rows are (A_i, -c_i): with c = 1 these add the scalars
            # exactly, so phase I is unchanged to the bit.
            v -= grad_s * cap2 * self.c
            S += cap2 * self.cc
        S.flat[::self.m + 1] += sl * sl    # the Hessian's core, diag(sl^2) + S
        # Jacobi equilibration: the diagonal spans many orders of magnitude
        # once binding slacks shrink, and the raw solve loses the small rows.
        d = np.sqrt(S.diagonal())
        d[d <= 0.0] = 1.0
        scaled = S / (d[:, None] * d)
        try:
            y = np.linalg.solve(scaled, v / d) / d
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(scaled, v / d, rcond=None)[0] / d
        dW = np.einsum("m,mij->ij", y, WAW) - WgW
        dW = (dW + dW.conj().T) / 2.0
        if self.relax:
            ds = -cap2 * (grad_s + float((self.c * y).sum()))
        else:
            ds = 0.0
        dec2 = -(float(np.vdot(grad_W, dW).real) + grad_s * ds)
        return dW, ds, dec2

    def center(self, t: float, point: _Point, tol: float, budget: _NewtonBudget,
               stop_early=None):
        """Newton iterations at fixed t from point until the decrement falls
        below tol; returns (point, converged).

        stop_early(W, s) may abort centering as soon as some external goal is
        reached (used by phase I once s is strictly negative). Exits quietly
        when the decrement reaches the float64 noise floor: near the central
        point the gradient is a cancellation of O(t)-sized terms, so decrements
        much below t * eps are not resolvable and not needed.
        """
        f = point.value(t)
        for _ in range(80):
            W, s = point.W, point.s
            if stop_early is not None and stop_early(W, s):
                return point, False
            dW, ds, dec2 = self.newton_step(t, point)
            if dec2 <= tol * tol:
                return point, True
            if dec2 <= 0.0:
                return point, False  # numerical noise floor
            budget.spend()
            # Backtracking search. dec2 can be overestimated by cancellation
            # noise right after a barrier-parameter jump, so the Armijo
            # condition is kept permissive and any strictly decreasing step is
            # accepted as a fallback.
            alpha, best, best_f = 1.0, None, f
            for _ls in range(60):
                trial = self.evaluate(W + alpha * dW, s + alpha * ds)
                f_new = trial.value(t)
                if f_new <= f - 1e-3 * alpha * dec2:
                    best, best_f = trial, f_new
                    break
                if f_new < best_f:
                    best, best_f = trial, f_new
                alpha *= 0.5
            if best is None or (f - best_f) <= 4.0 * _EPS * max(1.0, abs(f)):
                # Progress is below float64 resolution of the barrier value
                # (the decrement itself is cancellation-limited at large t):
                # the point is as centered as the arithmetic allows.
                return point, False
            point, f = best, best_f
        raise _NumericalTrouble("centering did not converge")


# ---------------------------------------------------------------------------
# Phase I / phase II
# ---------------------------------------------------------------------------


def _certificate(cons: ConstraintSet, y: np.ndarray) -> InfeasibilityCertificate | None:
    """The Farkas certificate of y when cons.farkas proves infeasibility."""
    eig_min, proof = cons.farkas(y)
    if proof > 0.0:
        lam, mu, nu = cons.split(y)
        return InfeasibilityCertificate(lam=lam, mu=mu, nu=nu, combo_min_eig=eig_min,
                                        margin=cons.dual_objective(y))
    return None


def _unreachable_row(cons: ConstraintSet) -> InfeasibilityCertificate | None:
    """The Farkas certificate of the first row i > 0 that no W >= 0 with Tr W
    <= P_T meets, P_T min(0, lambda_min(A_i)) > u_i: y has y_i = 1 and y_0 =
    max(0, -lambda_min(A_i)), so its combination is PSD and its margin is
    P_T min(0, lambda_min(A_i)) - u_i. On a floor that is a_k > P_T
    lambda_max(F_k), on a ceiling b_j < 0. None when every row is within
    reach. The barrier never sees such a row: a floor's slack of order a_k
    overflows its Newton system."""
    lam_min = np.linalg.eigvalsh(cons.A[1:])[:, 0]
    short = np.flatnonzero(cons.p_t * np.minimum(0.0, lam_min) > cons.u[1:])
    if not short.size:
        return None
    y = np.zeros(cons.u.size)
    y[0], y[1 + short[0]] = max(0.0, -lam_min[short[0]]), 1.0
    return _certificate(cons, y)


def _path(bar: _Barrier, W: np.ndarray, s: float, budget: _NewtonBudget,
          stop_early=None):
    """Centre at t = _T0, _T0 * _T_GROWTH, ... from (W, s) and yield (t,
    point, silent) after each stage, point the stage's _Point. silent: this
    stage and the one before both ended unconverged without a Newton step, so
    the path is at its float64 floor."""
    t = _T0
    silent_prev = False
    point = bar.evaluate(W, s)
    while True:
        used_before = budget.used
        point, converged = bar.center(t, point, _NEWTON_TOL, budget, stop_early)
        silent = not converged and budget.used == used_before
        yield t, point, silent and silent_prev
        silent_prev = silent
        t *= _T_GROWTH


def _phase1(cons: ConstraintSet, budget: _NewtonBudget):
    """Find a strictly feasible W or certify infeasibility: (W, None) or
    (None, cert); _NumericalTrouble when it stalls, as on thin feasible sets.

    Minimizes the uniform relaxation s over { <A_i,W> - s <= u_i, W > 0 } on
    the barrier rows of cons; s* < 0 yields an interior point, a positive
    dual bound proves there is none.
    """
    p_t, n = cons.p_t, cons.n
    ref = max(1.0, float(np.max(np.abs(cons.u[cons.nonzero]))), p_t)
    margin = _FEAS_MARGIN_REL * ref
    W = (p_t / (2.0 * n)) * np.eye(n, dtype=complex)
    # A vacuous row's value less u_i is <= 0, so it never raises s.
    viol = float(np.max(cons.values(W) - cons.u))
    s = max(0.0, viol) + 1.0 + 0.01 * ref
    s_cap = 10.0 * (s + ref)
    bar = _Barrier(cons, s_cap)
    for t, point, silent in _path(bar, W, s, budget, lambda _W, _s: _s < -margin):
        if point.s < -margin:
            return point.W, None
        gap = bar.nu / t
        if point.s - gap > 0.0:
            # Only a certificate proves infeasibility; an uncentred iterate
            # may not yield one, so keep raising t until it does.
            cert = _certificate(cons, bar.multipliers(1.0 / (t * point.sl)))
            if cert is not None:
                return None, cert
        if silent or gap <= max(1e-12, 1e-11 * ref):
            raise _NumericalTrouble("phase-I feasibility could not be decided")


def _start(cons: ConstraintSet, budget: _NewtonBudget):
    """A strictly feasible start for the barrier on cons, (W, None), or
    (None, cert) when there is none: a row out of reach (_unreachable_row),
    else phase I. A phase-I stall goes to the epigraph (_epigraph_path): its
    first iterate that meets every row strictly, or its first multipliers
    that prove cons infeasible; failing both, or with no ceiling to hand the
    stall over to, _NumericalTrouble."""
    cert = _unreachable_row(cons)
    if cert is not None:
        return None, cert
    try:
        return _phase1(cons, budget)
    except _NumericalTrouble:
        if not np.any(cons.ceilings & cons.nonzero):
            raise
        for _, _, W, y in _epigraph_path(cons, budget):
            if W is not None and np.all(cons.u > cons.values(W)):
                return W, None
            cert = _certificate(cons, y)
            if cert is not None:
                return None, cert
        raise


def _face_newton(A, u, V, y):
    """Gauss-Newton on the square KKT system of an optimal face,

        Lambda(y) V = 0,   Tr(V^H A_i V) = u_i,   Lambda(y) = I + sum y_i A_i,

    over the real and imaginary parts of V and the multipliers y. V -> V Q
    (Q unitary) solves it too, so every step also keeps V^H dV Hermitian.
    Returns (V, y, err) of the best iterate, err being the largest residual
    relative to the size of its terms (float64 roundoff at a solution).
    """
    n, r = V.shape
    p, nr = y.size, V.size
    # dV along each real coordinate of V, one per column of the Jacobian.
    basis = np.concatenate([np.eye(nr), 1j * np.eye(nr)]).reshape(2 * nr, n, r)
    vh = V.conj().T @ basis
    gauge = (vh - vh.conj().transpose(0, 2, 1)).reshape(2 * nr, r * r)
    a_norm = np.linalg.norm(A, axis=(1, 2))
    best = None
    for step in range(_FACE_STEPS + 1):
        lam_mat = np.eye(n) + np.einsum("m,mij->ij", y, A)
        AV = A @ V
        R1 = (lam_mat @ V).ravel()
        R2 = np.real(np.einsum("ij,mij->m", V.conj(), AV)) - u
        v_norm = float(np.linalg.norm(V))
        terms = np.maximum(np.linalg.norm(AV, axis=(1, 2)) * v_norm, 1e-300)
        err = max(float(np.linalg.norm(R1)) / ((1.0 + np.dot(np.abs(y), a_norm)) * v_norm),
                  float(np.max(np.abs(R2) / terms)))
        if best is not None and err >= best[2]:
            break
        best = (V, y, err)
        if err <= 64.0 * _EPS or step == _FACE_STEPS:
            break
        d_r1 = np.concatenate([(lam_mat @ basis).reshape(2 * nr, nr), AV.reshape(p, nr)])
        d_r2 = 2.0 * np.real(np.einsum("mab,kab->km", AV.conj(), basis))
        d_gauge = np.hstack([gauge.real, gauge.imag])
        J = np.hstack([d_r1.real, d_r1.imag,
                       np.vstack([d_r2, np.zeros((p, p))]),
                       np.vstack([d_gauge, np.zeros((p, 2 * r * r))])]).T
        F = np.concatenate([R1.real, R1.imag, R2, np.zeros(2 * r * r)])
        cols = np.linalg.norm(J, axis=0)
        cols[cols == 0.0] = 1.0
        d = np.linalg.lstsq(J / cols, -F, rcond=None)[0] / cols
        V = V + (d[:nr] + 1j * d[nr:2 * nr]).reshape(n, r)
        y = y + d[2 * nr:]
    return best


def _refine_face(bar: _Barrier, W: np.ndarray, slacks: np.ndarray, y0: np.ndarray):
    """Newton refinement of the end point W of the barrier bar on its optimal
    face, from its slacks and central-path multipliers y0 (one per barrier
    row).

    W = V V^H on its numerical range, cut at the largest eigenvalue gap when
    one clearly exists, else at the relative cut: the central path leaves
    O(1/t) dust eigenvalues off the face, and for small-trace optima they can
    exceed the relative cut. The active rows are those
    whose central-path multiplier y0_i = 1/(t s_i) exceeds the slack s_i.
    Newton on the KKT system of that face (_face_newton) removes the
    barrier's O(1/t) centering error and its float64 noise floor. A row whose
    multiplier comes out negative is dropped and the solve retried. So is the
    active row with the least y0_i / s_i when the solve misses _FACE_TOL: a
    weakly active row, whose multiplier and slack both tend to 0 along the
    path, leaves the face system with no regular solution.

    Returns (V V^H, y), y one multiplier per row of the barrier's
    ConstraintSet and 0 on the inactive rows, when that is a KKT point to
    roundoff: every multiplier >= 0, every inactive slack > 0 and Lambda(y)
    PSD. Otherwise None, and the caller keeps the end point.
    """
    vals, vecs = np.linalg.eigh(W)
    desc = np.clip(vals[::-1], 1e-300, None)
    ratios = desc[:-1] / desc[1:]
    if ratios.size and float(np.max(ratios)) > 1e2:
        r = int(np.argmax(ratios)) + 1
    else:
        r = int(np.count_nonzero(vals > _RANK_REL_TOL * vals[-1]))
    V0 = vecs[:, ::-1][:, :r] * np.sqrt(desc[:r])
    active = np.flatnonzero(y0 > slacks)
    while active.size:
        V, y_act, err = _face_newton(bar.A[active], bar.u[active], V0, y0[active])
        if not err <= _FACE_TOL:  # also rejects a NaN
            drop = int(np.argmin(y0[active] / slacks[active]))
        elif float(np.min(y_act)) < 0.0:
            drop = int(np.argmin(y_act))
        else:
            break
        active = np.delete(active, drop)
    else:
        return None
    y = np.zeros_like(y0)
    y[active] = y_act
    W = V @ V.conj().T
    s = bar.u - np.real(np.einsum("mij,ij->m", bar.A_conj, W))
    lam_mat = np.eye(W.shape[0]) + np.einsum("m,mij->ij", y, bar.A)
    roundoff = _FACE_TOL * (1.0 + float(np.dot(y, np.linalg.norm(bar.A, axis=(1, 2)))))
    if np.all(np.delete(s, active) > 0.0) and np.linalg.eigvalsh(lam_mat)[0] >= -roundoff:
        return W, bar.multipliers(y)
    return None


def _phase2(cons: ConstraintSet, W0: np.ndarray, budget: _NewtonBudget):
    """Path-following on the barrier rows of cons from a strictly feasible
    W0, then Newton on the optimal face (_refine_face). Returns (W, y), y one
    multiplier per row of cons, or None when the refinement is rejected."""
    bar = _Barrier(cons)
    for t, point, silent in _path(bar, W0, 0.0, budget):
        primal = float(np.real(np.trace(point.W)))
        if bar.nu / t <= _GAP_REL * max(1.0, primal) or silent or t >= _T_MAX:
            break
    return _refine_face(bar, point.W, point.sl, 1.0 / (t * point.sl))


# ---------------------------------------------------------------------------
# Epigraph of the ceilings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Epigraph:
    """A proven bracket b_lo <= b* <= b_hi on b* = min max_j Tr(Z_j W) over
    the user floors and the power budget at one code rate. All eavesdroppers
    share one ceiling b(R_s), so the relaxation at R_s is feasible exactly
    when b(R_s) >= b*. b_hi is max_j Tr(Z_j W) of a witness W that meets the
    floors and the budget; b_lo is the ceiling_bound of Farkas multipliers.
    Both are inf when the floors and the budget are proven infeasible.

    gap_lo <= gap_hi is the same bracket in rate space (rate_bracket): b(R_s)
    depends on R_s only through the gap R_D - R_s, and rises with it, so
    R_D - R_s > gap_hi proves R_s feasible and R_D - R_s < gap_lo proves it
    infeasible."""

    b_lo: float
    b_hi: float
    gap_lo: float
    gap_hi: float


def _witness_bound(cons: ConstraintSet, W: np.ndarray, strict: bool) -> float:
    """max_j Tr(G_j W) when W meets the budget and the floors of cons (every
    slack > 0 when strict, as phase I needs an interior point; else >= 0, as
    on the LP route), inf when it does not."""
    vals = cons.values(W)
    slack = (cons.u - vals)[~cons.ceilings]
    if np.all(slack > 0.0) if strict else np.all(slack >= 0.0):
        return float(np.max(vals[cons.ceilings]))
    return math.inf


def _epigraph_path(cons: ConstraintSet, budget: _NewtonBudget):
    """Minimize s over W > 0 subject to the budget and floors of cons and
    Tr(A_j W) <= s on its ceilings: the barrier on the rows of cons with
    ceiling u = 0, c = 1 on the ceilings and 0 elsewhere, started from an
    interior point of the floors and budget. Yields (b_lo, b_hi, W, y) after
    each stage of the path: the least _witness_bound and the greatest
    ceiling_bound so far, so each bracket lies inside the one before, and the
    stage's iterate and multipliers (one per row of cons). Stops at a silent
    stage or at _T_MAX; the Newton budget bounds it too.

    Yields only (inf, inf, None, y) when _start on the floors and the budget
    ends with a certificate, y its multipliers with zeros on the ceilings;
    raises when that start does."""
    k = cons.k
    W, cert = _start(ConstraintSet(A=cons.A[:1 + k], u=cons.u[:1 + k], k=k), budget)
    if W is None:
        yield math.inf, math.inf, None, np.r_[cert.lam, cert.mu, np.zeros(cons.u.size - 1 - k)]
        return
    top = float(np.max(cons.values(W)[cons.ceilings & cons.nonzero]))
    # A cap near the start keeps the s term of the Newton system small: with
    # phase I's cap, 10 (s + ref), the step in s cancels to float64 noise near
    # t = 1e6 and the path stalls there.
    s = 2.0 * top + 1e-12 * max(1.0, cons.p_t)
    bar = _Barrier(cons.with_ceiling(0.0), 2.0 * s, cons.ceilings.astype(float))
    b_hi, b_lo = math.inf, -math.inf
    for t, point, silent in _path(bar, W, s, budget):
        y = bar.multipliers(1.0 / (t * point.sl))
        b_hi = min(b_hi, _witness_bound(cons, point.W, True))
        b_lo = max(b_lo, cons.ceiling_bound(y))
        yield b_lo, b_hi, point.W, y
        if silent or t >= _T_MAX:
            return


def rate_bracket(
    p: WiretapProblem,
    b_lo: float,
    b_hi: float,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> tuple[float, float]:
    """(gap_lo, gap_hi): the rate gaps R_D - R_s at which the common ceiling
    equals b_lo and b_hi. The ceiling is I^{-1}(R_D - R_s) N0 / d, with d the
    eavesdropper tail denominator (model.eave_denominator) and I = log2(1 +
    rho) or the alphabet's mutual information, so the gap of b is I(b d / N0).
    b <= 0 maps to 0, and a b whose rho is not finite (b = inf, or overflow)
    to inf."""
    d = eave_denominator(p, mode)

    def gap(b: float) -> float:
        b = float(b)
        if b <= 0.0:
            return 0.0
        rho = b * d / p.N0
        if not math.isfinite(rho):
            return math.inf
        return math.log2(1.0 + rho) if input_model == "gaussian" else input_model(rho)

    return gap(b_lo), gap(b_hi)


def epigraph_stages(
    p: WiretapProblem,
    rd: float,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> Iterator[Epigraph]:
    """The Epigraph at code rate rd after each stage of the solve that
    solve_general's route takes there, each bracket inside the one before and
    mapped to rate space by two forward rate evaluations. The SDP route yields
    one per barrier stage; the LP route (one HiGHS call) and floors proven
    infeasible yield one final bracket.

    Yields nothing exactly when R_s moves no row: on the trivial route, or
    with no nonzero ceiling to bound. When the path fails before its first
    stage (the start on the floors and budget, _start, decides nothing, or
    the Newton steps run out) it yields one bracket, b_lo = -inf and b_hi =
    inf, that decides no probe; after a stage, the stages end where the path
    fails.
    """
    t, route = _route(p, RatePair(rd, 0.0), mode, input_model)
    cons = ConstraintSet.build(p, t, mode)
    if route == "trivial" or not np.any(cons.ceilings & cons.nonzero):
        return
    if route == "lp":
        end = diag_lp.min_ceiling(cons)
        brackets = [(math.inf, math.inf) if end is None else (
            cons.ceiling_bound(end[1]), _witness_bound(cons, np.diag(end[0]), False))]
    else:
        brackets = (stage[:2] for stage in _epigraph_path(cons, _NewtonBudget(_MAX_NEWTON)))
    staged = False
    try:
        for bracket in brackets:
            yield Epigraph(*bracket, *rate_bracket(p, *bracket, mode, input_model))
            staged = True
    except _NumericalTrouble:
        if not staged:
            # A probe's gap, in [0, R_D], is neither below 0 nor above inf.
            yield Epigraph(-math.inf, math.inf, 0.0, math.inf)


def proven_feasibility(epigraph: Epigraph, r: RatePair) -> str | None:
    """FEASIBLE when the rate gap of r lies above the epigraph's bracket,
    INFEASIBLE when below it; None when the bracket holds it, which only a
    later stage can decide."""
    if r.R_gap > epigraph.gap_hi:
        return FEASIBLE
    if r.R_gap < epigraph.gap_lo:
        return INFEASIBLE
    return None


def _zero_power(cons: ConstraintSet, t: ConstraintThresholds, mode: CsiMode):
    """w = 0, optimal when W = 0 satisfies every row; zero multipliers make
    the K6 matrix the identity."""
    n = cons.n
    return BeamformerSolution(
        status=OPTIMAL, mode=mode, w=np.zeros(n, dtype=complex), power=0.0,
        W=np.zeros((n, n), dtype=complex), objective=0.0, thresholds=t,
        duals=cons.duals(np.zeros(cons.u.size)),
    )


def solve_rank_relaxed(
    p: WiretapProblem,
    t: ConstraintThresholds,
    mode: CsiMode = STATISTICAL,
) -> BeamformerSolution:
    """Solve the rank-relaxed minimum-power problem for the given thresholds:
    zero power when W = 0 meets every row, else _start and phase II.
    INFEASIBLE with _start's certificate; MAX_ITERATIONS when _start decides
    nothing or either runs out of Newton steps."""
    cons = ConstraintSet.build(p, t, mode)
    if np.all(cons.u >= 0.0):  # W = 0 satisfies every row
        return _zero_power(cons, t, mode)
    budget = _NewtonBudget(_MAX_NEWTON)
    try:
        W0, cert = _start(cons, budget)
        if W0 is None:
            return BeamformerSolution(status=INFEASIBLE, mode=mode, thresholds=t,
                                      certificate=cert, newton_iterations=budget.used)
        end = _phase2(cons, W0, budget)
    except _NumericalTrouble:
        end = None
    # The claimed status must be earned: by a refined KKT point with a small
    # gap, not by the path having terminated.
    if end is not None:
        W, y = end
        primal = float(np.real(np.trace(W)))
        if abs(primal - cons.dual_objective(y)) <= 1e-6 * max(1.0, primal):
            return BeamformerSolution(status=OPTIMAL, mode=mode, W=W, objective=primal,
                                      duals=cons.duals(y), thresholds=t,
                                      newton_iterations=budget.used)
    return BeamformerSolution(status=MAX_ITERATIONS, mode=mode, thresholds=t,
                              newton_iterations=budget.used)


# ---------------------------------------------------------------------------
# Rank-1 recovery
# ---------------------------------------------------------------------------


def extract_principal_direction(W) -> np.ndarray:
    """Unit-norm eigendirection of the largest eigenvalue, with the first
    nonzero entry rotated to be real non-negative (rates are phase-invariant,
    a fixed convention keeps outputs deterministic)."""
    vals, vecs = hermitian_eig(W)
    lam_max = float(vals[-1])
    if lam_max <= 0.0:
        raise LinalgError("cannot extract a direction from the zero matrix")
    w0 = vecs[:, -1].copy()
    w0 /= np.linalg.norm(w0)
    idx = np.flatnonzero(np.abs(w0) > 1e-12 * np.max(np.abs(w0)))
    lead = w0[idx[0]]
    w0 *= np.conj(lead) / abs(lead)
    return w0


def power_rescale(
    p: WiretapProblem,
    t: ConstraintThresholds,
    w0,
    mode: CsiMode = STATISTICAL,
) -> float | None:
    """Cheapest power P with sqrt(P) w0 feasible, or None when no P works.

    Closed form: P = max_k a_k / (w0* F_k w0), subject to P <= P_T and
    P (w0* G_j w0) <= b_j; a ceiling with zero quadratic form imposes no
    bound, a floor with zero quadratic form and positive target is fatal.
    """
    w0 = as_vector(w0)
    if not math.isclose(float(np.linalg.norm(w0)), 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise ModelError("w0 must be unit norm")
    cons = ConstraintSet.build(p, t, mode)
    # Row i reads P q_i <= u_i, q_i = w0* A_i w0: on a floor q_i = -(w0* F_k w0)
    # and u_i = -a_k.
    q, u = cons.values(np.outer(w0, w0.conj())), cons.u
    floor = cons.floors & (u < 0.0)
    if np.any(q[floor] >= 0.0):
        return None
    power = float(np.max(u[floor] / q[floor], initial=0.0))
    if power > p.P_T * (1.0 + 1e-12):
        return None
    q = np.maximum(q[cons.ceilings], 0.0)
    if np.any((q > 0.0) & (power * q > u[cons.ceilings] * (1.0 + 1e-12) + 1e-300)):
        return None
    return power


def _lp_route(cons: ConstraintSet, t: ConstraintThresholds, mode: CsiMode) -> BeamformerSolution:
    """Diagonal instances: solve the per-antenna LP on the rows of cons and
    keep its duals.

    The LP's powers P give the real beamformer w = sqrt(P) and W = w w*; its
    row multipliers y satisfy the same stationarity/complementarity system
    (the K6 matrix is diagonal with the LP's reduced costs on the diagonal).

    HiGHS meets each row only to an absolute tolerance of about 1e-7, which
    passes P = 0 against floors below it, so OPTIMAL needs every row met to
    _LP_ROW_REL of its size; otherwise the solve reports MAX_ITERATIONS."""
    end = diag_lp.solve_diagonal(cons)
    if end is None:
        return BeamformerSolution(status=INFEASIBLE, mode=mode, thresholds=t)
    P, y = end
    w = np.sqrt(P).astype(np.complex128)
    W = np.outer(w, w.conj())
    if np.any(cons.values(W) > cons.u + _LP_ROW_REL * np.abs(cons.u)):
        return BeamformerSolution(status=MAX_ITERATIONS, mode=mode, thresholds=t)
    power = float(np.sum(P))
    return BeamformerSolution(
        status=OPTIMAL, mode=mode, w=w, power=power, W=W,
        rank1_exact=numerical_rank(W, _RANK_REL_TOL) == 1,
        duals=cons.duals(y), objective=power, thresholds=t,
    )


def rate_thresholds(p: WiretapProblem, r: RatePair, input_model="gaussian") -> ConstraintThresholds:
    """The thresholds of r for Gaussian inputs or a finite-alphabet MI
    evaluator; RateUnachievableError when they are not finite."""
    if input_model == "gaussian":
        return thresholds_gaussian(p, r)
    return thresholds_finite_alphabet(p, r, input_model)


def _route(p: WiretapProblem, r: RatePair, mode: CsiMode, input_model):
    """(thresholds, route) of a rate pair: "trivial" for R_D = 0, "lp" for
    all-diagonal statistical instances and "sdp" otherwise."""
    t = rate_thresholds(p, r, input_model)
    if t.user_power_target <= 0.0:
        # R_D = 0: transmitting nothing satisfies every constraint.
        return t, "trivial"
    if mode.is_statistical and diag_lp.all_diagonal(p):
        return t, "lp"
    return t, "sdp"


def solve_general(
    p: WiretapProblem,
    r: RatePair,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> BeamformerSolution:
    """Full pipeline: thresholds, relaxed solve, rank-1 recovery.

    input_model is "gaussian" or a mutual-information evaluator for
    finite-alphabet signalling. All-diagonal statistical instances route to
    the per-antenna LP, whose optimum the relaxation provably matches.
    """
    t, route = _route(p, r, mode, input_model)
    if route == "trivial":
        return _zero_power(ConstraintSet.build(p, t, mode), t, mode)
    if route == "lp":
        return _lp_route(ConstraintSet.build(p, t, mode), t, mode)

    sol = solve_rank_relaxed(p, t, mode)
    if sol.status != OPTIMAL:
        return sol
    rank = numerical_rank(sol.W, _RANK_REL_TOL)
    w0 = extract_principal_direction(sol.W)
    if rank == 1:
        lam_max = float(hermitian_eig(sol.W).eigenvalues[-1])
        return replace(sol, w=math.sqrt(lam_max) * w0, power=lam_max, rank1_exact=True)
    power = power_rescale(p, t, w0, mode)
    if power is None:
        # Relaxation feasible but its principal direction is not: report a
        # distinct outcome, neither optimal nor infeasible.
        return replace(sol, status=RANK1_INFEASIBLE)
    return replace(sol, w=math.sqrt(power) * w0, power=power)
