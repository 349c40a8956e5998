"""Rank-relaxed transmit-covariance optimization and rank-1 beamformer recovery.

The general (non-diagonal) problem is solved as a small dense SDP:

    min Tr(W)  s.t.  W >= 0 (PSD),  Tr(W) <= P_T,
                     Tr(W H_k) >= a,  Tr(W Z_j) <= b,

through its dual, which has only m = 1 + K + J multipliers: Lambda(y) = I +
sum y_i A_i >= 0 and y >= 0, on the signed rows Re Tr(A_i W) <= u_i of a
ConstraintSet less its vacuous all-zero rows (ConstraintSet.nonzero). A log
barrier on y (_Barrier, the dual-scaling method of DSDP) on rows normalized
by their norms and P_T follows the central path from y = delta 1, which is
strictly dual feasible for any thresholds: no feasibility pre-solve, and no
step or stop that depends on the user's units. Each stage's Newton step
gives a primal point (_Barrier.primal). An iterate with -u.y > P_T is a
Farkas certificate (ConstraintSet.farkas) and ends the path. The end point
is refined on its optimal face (_refine_face): a few Gauss-Newton steps on
the square KKT system Lambda(y) V = 0, Tr(V^H A_i V) = u_i, W = V V^H, take
the residuals from the barrier's float64 floor (about 1e-7) to roundoff.
OPTIMAL needs that refined point to be a KKT point with a small duality
gap (_face_point); otherwise the solve reports MAX_ITERATIONS. A row that
no W >= 0 within the budget meets (a floor with a_k > P_T lambda_max(F_k),
or a negative ceiling) is refuted before any barrier run (_unreachable_row).

The epigraph of the ceilings (epigraph_stages) is the same barrier without
the I in Lambda, with ceiling u = 0 and the ceiling multipliers summing to
one. It brackets b* = min max_j Tr(Z_j W) over the floors and the budget at
one code rate: each stage's y gives a proven lower end (ceiling_bound) and
its step's primal point (_Barrier.primal, while PSD) an upper end, and the
bracket narrows stage by stage. Both ends are proofs off the central path
too, so its stages are centred only to _EPIGRAPH_TOL. The common ceiling
depends on R_s only through the rate gap R_D - R_s, so each bracket is
mapped to a bracket on that gap (rate_bracket) by two forward rate
evaluations, and a probe at any R_s is decided by comparing its gap with it
(proven_feasibility), with no threshold or MI inversion. epigraph_stages
is a generator: a sweep row pulls the next stage only while a probe's gap
lies inside the bracket. These brackets are the sweep's only feasibility
oracle; a probe that the last stage still holds stays undecided. The path
ends at a silent stage or at _T_MAX, never on the width of its bracket.
Every Epigraph keeps its ends ordered, so two proofs that cross by roundoff
decide no probe between them.

Feasibility of the beamformer follows from the relaxation whenever the
solution has numerical rank one (which it does on the bundled scenarios);
otherwise the principal eigendirection is kept and only the transmit power
is re-optimized, which is a one-dimensional closed-form problem.

Along a sweep only the thresholds u move from one final solve to the next.
continue_face solves the next one with no barrier run: Newton on the face
system of the previous optimum at the new u, and one retry that walks u
there in _WALK_STEPS steps. Its end point earns OPTIMAL by the same test
as a barrier's refined point (_face_point), or the caller runs the barrier.
continue_epigraph does the same for the next row's epigraph, whose floors
alone move: the one face Newton (_face_newton) on the epigraph's face (C =
0, the common ceiling s one more unknown, e.y = 1), started from the
previous optimum's face, which on the region's boundary is the epigraph's.
Its bracket is made of the two proofs every barrier stage uses
(ceiling_bound of its multipliers, _witness_bound of its W = V V^H), so it
needs no test of its own: a poor face only widens it. A sweep row decides
its probes on it first, and pulls barrier stages only for a probe it holds.

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

_GAP_REL = 2e-7          # duality-gap target relative to the primal trace
_T_GROWTH = 30.0         # barrier parameter multiplier per centering stage
_NEWTON_TOL = 1e-8       # Newton decrement below which a point is centered
_EPIGRAPH_TOL = 0.5      # the same for an epigraph stage, whose bracket is a proof anyway
_RANK_REL_TOL = 1e-6     # eigenvalues below this * lambda_max count as zero
_FACE_STEPS = 8          # Gauss-Newton steps of the face refinement
_FACE_TOL = 1e-12        # relative KKT residual a refined face must reach
_MAX_NEWTON = 800        # total Newton budget per barrier run
_T_MAX = 1e12            # the path stops at this barrier parameter
_LP_ROW_REL = 1e-9       # an LP allocation must meet each row to this * |u_i|
_WALK_STEPS = 4          # equal steps of u in a continuation's retry (continue_face)


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
    newton_iterations: int = 0       # barrier Newton steps


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
    """An iterate y of a _Barrier with, inside the barrier's domain (y > 0
    and Lambda(y) positive definite), the Cholesky factor L of Lambda(y) and
    its barrier terms (u'.y, logdet Lambda, sum log y); L and terms are None
    outside the domain."""

    y: np.ndarray
    L: np.ndarray | None
    terms: tuple | None

    def value(self, t: float) -> float:
        """The barrier value t*u'.y - logdet - sum log y, inf outside the
        domain. A point's terms serve every t: a new stage starts from the
        last one's point with no new Cholesky factor."""
        if self.terms is None:
            return math.inf
        obj, logdet, log_y = self.terms
        return t * obj - logdet - log_y


class _Step(NamedTuple):
    """The Newton step dy at a point, its squared decrement, and the point's
    L^-1 and rows B_i = L^-1 A'_i L^-H, from which _Barrier.primal forms the
    step's primal point."""

    dy: np.ndarray
    dec2: float
    Linv: np.ndarray
    B: np.ndarray


class _Barrier:
    """Dual log barrier over the multipliers y > 0 of the rows of a
    ConstraintSet less its vacuous ones (ConstraintSet.nonzero), on the rows
    normalized to A'_i = A_i / r_i and u'_i = u_i / (r_i P_T), r_i =
    ||A_i||_F:

        min  t u'.y - log det Lambda(y) - sum log y_i,   Lambda(y) = C + sum y_i A'_i.

    A final solve has C = I. Its central point at t gives the primal point
    W' = Lambda^-1 / t, with slack 1/(t y_i) on row i and duality gap nu / t,
    nu = N + m; W = P_T W' and y_i = y'_i / r_i map back. The epigraph of the
    ceilings (epigraph=True) has C = 0 and ceiling u = 0, its ceiling
    multipliers sum to 1 (e.y = 1, a bordered Newton system), and every
    ceiling takes the one r = max_j ||G_j||_F, so that their common ceiling
    stays common. Every y in the domain is dual feasible, and no start needs
    a primal point: y = start() is inside for any thresholds.

    Each iterate is evaluated once (evaluate): the line search's accepted
    trial is the next iterate, and its Cholesky factor and barrier terms
    (_Point) are carried to the next Newton step and to the next stage's
    first value.
    """

    def __init__(self, cons: ConstraintSet, epigraph: bool = False):
        self.keep = np.flatnonzero(cons.nonzero)   # the rows of cons it keeps
        self.size = cons.u.size
        A = cons.A[self.keep]
        self.m, self.N = A.shape[0], A.shape[1]
        self.r = np.linalg.norm(A, axis=(1, 2))
        ceilings = cons.ceilings[self.keep]
        if epigraph:
            self.r[ceilings] = np.max(self.r[ceilings])
        self.A = A / self.r[:, None, None]   # (m, N, N) Hermitian, unit Frobenius norm
        self.A_conj = self.A.conj()
        self.u = cons.u[self.keep] / (self.r * cons.p_t)
        self.C = np.eye(self.N, dtype=complex) * (0.0 if epigraph else 1.0)
        self.e = ceilings.astype(float) if epigraph else None
        self.nu = self.N + self.m

    def multipliers(self, y: np.ndarray) -> np.ndarray:
        """y, one multiplier per normalized barrier row, as one per row of the
        ConstraintSet (y_i / r_i); a vacuous row's is 0."""
        full = np.zeros(self.size)
        full[self.keep] = y / self.r
        return full

    def start(self) -> np.ndarray:
        """y = delta on every row, or in the epigraph 1 on the budget, 1/J on
        each ceiling and delta on each floor. With B the rest of Lambda, delta
        = 1 unless the free rows' sum S has lambda_min(S) < -lambda_min(B)/2;
        then delta = lambda_min(B) / (2 |lambda_min(S)|), so that Lambda >=
        lambda_min(B)/2 I."""
        if self.e is None:
            fixed = np.zeros(self.m)
        else:
            fixed = self.e / self.e.sum()
            fixed[0] = 1.0
        free = fixed == 0.0
        base = np.linalg.eigvalsh(self.C + np.einsum("m,mij->ij", fixed, self.A))[0]
        low = np.linalg.eigvalsh(np.sum(self.A[free], axis=0))[0]
        delta = 1.0 if low >= -0.5 * base else base / (-2.0 * low)
        return np.where(free, delta, fixed)

    def evaluate(self, y: np.ndarray) -> _Point:
        """The _Point of y: y with the Cholesky factor of Lambda(y) and its
        barrier terms u'.y, logdet Lambda and sum log y; L and terms None
        outside the domain, where a y_i <= 0 or Lambda is not positive
        definite."""
        if np.count_nonzero(y <= 0.0):
            return _Point(y, None, None)
        try:
            L = np.linalg.cholesky(self.C + np.einsum("...m,mij->...ij", y, self.A))
        except np.linalg.LinAlgError:
            return _Point(y, None, None)
        obj = (self.u[None, :] @ y[:, None])[0, 0]
        logdet = 2.0 * np.log(L.diagonal().real).sum()
        return _Point(y, L, (float(obj), float(logdet), float(np.log(y).sum())))

    def newton_step(self, t: float, point: _Point) -> _Step:
        """The Newton step at point; _NumericalTrouble outside the domain.
        Gradient t u'_i - Tr(Lambda^-1 A'_i) - 1/y_i, Hessian Re
        Tr(Lambda^-1 A'_i Lambda^-1 A'_j) + delta_ij / y_i^2, both from B_i =
        L^-1 A'_i L^-H; with e, the step keeps e.y. Where the solve raises,
        least squares."""
        if point.terms is None:
            raise _NumericalTrouble("iterate left the domain")
        y = point.y
        Linv = np.linalg.inv(point.L)
        B = Linv @ self.A @ Linv.conj().T
        G = t * self.u - np.einsum("mii->m", B).real - 1.0 / y
        H = np.einsum("mij,nij->mn", B, B.conj()).real
        diagonal = np.einsum("ii->i", H)   # a view
        diagonal += 1.0 / (y * y)
        # Jacobi equilibration: the diagonal spans many orders of magnitude
        # once the binding rows' y grow, and the raw solve loses the others.
        d = np.sqrt(diagonal)[:, None]
        scaled = H / (d * d.T)
        if self.e is None:
            rhs = G[:, None] / d
        else:
            rhs = np.column_stack([G, self.e]) / d
        try:
            h = np.linalg.solve(scaled, rhs)
        except np.linalg.LinAlgError:
            h = np.linalg.lstsq(scaled, rhs, rcond=None)[0]
        h /= d
        if self.e is None:
            dy = -h[:, 0]
        else:
            # g + kappa e is the gradient less its part along e, which the step
            # cannot follow; the decrement is taken from it, not from g.
            kappa = -(self.e @ h[:, :1]) / (self.e @ h[:, 1:])
            dy = -(h[:, 0] + kappa * h[:, 1])
            G = G + kappa * self.e
        return _Step(dy, -float(G @ dy), Linv, B)

    def centring_t(self, point: _Point) -> float:
        """The t whose gradient t u' - c at point is least, c_i = Tr(Lambda^-1
        A'_i) + 1/y_i: u'.c / u'.u', or 1 when that is not positive."""
        Linv = np.linalg.inv(point.L)
        c = np.einsum("mij,ij->m", self.A_conj, Linv.conj().T @ Linv).real + 1.0 / point.y
        t = float(self.u @ c) / float(self.u @ self.u)
        return t if t > 0.0 else 1.0

    def primal(self, t: float, step: _Step, psd: bool = False) -> np.ndarray:
        """The primal point W' = (Lambda^-1 - Lambda^-1 dLambda Lambda^-1) / t
        of a step, dLambda = sum dy_i A'_i (the dual-scaling primal point of
        DSDP). Its slack on row i is (1 - dy_i / y_i) / (t y_i), so it meets
        every row strictly while dy < y, even off the central path. W' >= 0
        exactly when mid = I - sum dy_i B_i is; with psd, a mid that is not
        positive definite gives way to I, and W' to Lambda^-1 / t."""
        mid = np.eye(self.N) - np.einsum("m,mij->ij", step.dy, step.B)
        if psd and np.linalg.eigvalsh(mid)[0] <= 0.0:
            mid = np.eye(self.N)
        W = step.Linv.conj().T @ mid @ step.Linv / t
        return (W + W.conj().T) / 2.0

    def center(self, t: float, point: _Point, budget: _NewtonBudget, stop=None):
        """Newton iterations at fixed t from point until the decrement falls
        below _NEWTON_TOL, or on the epigraph (e set) below _EPIGRAPH_TOL:
        its stages' brackets are proofs at any y in the domain, so a loosely
        centred stage serves as well; returns (point, step, converged), step
        the Newton step at point. No stage has a step cap of its own: the
        run's _NewtonBudget bounds every stage, and raises _NumericalTrouble
        once it is spent.

        stop(point) ends centering with step None as soon as some external
        goal is reached (a Farkas certificate). Exits quietly when the
        decrement reaches the float64 noise floor: near the central point the
        gradient is a cancellation of O(t)-sized terms, so decrements much
        below t * eps are not resolvable and not needed.
        """
        f = point.value(t)
        tol = _NEWTON_TOL if self.e is None else _EPIGRAPH_TOL
        while True:
            if stop is not None and stop(point):
                return point, None, False
            step = self.newton_step(t, point)
            if step.dec2 <= 0.0:
                return point, step, False  # numerical noise floor
            if step.dec2 <= tol * tol:
                return point, step, True
            budget.spend()
            # Backtracking search. dec2 can be overestimated by cancellation
            # noise right after a barrier-parameter jump, so the Armijo
            # condition is kept permissive and any strictly decreasing step is
            # accepted as a fallback.
            alpha, best, best_f = 1.0, None, f
            for _ls in range(60):
                trial = self.evaluate(point.y + alpha * step.dy)
                f_new = trial.value(t)
                if f_new <= f - 1e-3 * alpha * step.dec2:
                    best, best_f = trial, f_new
                    break
                if f_new < best_f:
                    best, best_f = trial, f_new
                alpha *= 0.5
            if best is None or (f - best_f) <= 4.0 * _EPS * max(1.0, abs(f)):
                # Progress is below float64 resolution of the barrier value
                # (the decrement itself is cancellation-limited at large t):
                # the point is as centered as the arithmetic allows.
                return point, step, False
            point, f = best, best_f


# ---------------------------------------------------------------------------
# The final solve
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
    reach. Such a row is refuted with no Newton step; the barrier never sees
    it."""
    lam_min = np.linalg.eigvalsh(cons.A[1:])[:, 0]
    short = np.flatnonzero(cons.p_t * np.minimum(0.0, lam_min) > cons.u[1:])
    if not short.size:
        return None
    y = np.zeros(cons.u.size)
    y[0], y[1 + short[0]] = max(0.0, -lam_min[short[0]]), 1.0
    return _certificate(cons, y)


def _proof(bar: _Barrier, cons: ConstraintSet):
    """The stop test of a path on bar: whether -u'.y > 1 and y, mapped to the
    rows of cons (those of bar less its ceilings, when cons has fewer), is a
    Farkas certificate for cons. Lambda(y) > 0 differs from the combination
    of those rows by C = I, or by ceiling terms sum y_j A'_j with sum y_j = 1
    and ||A'_j||_F = 1, so the combination's least eigenvalue exceeds -1, and
    -u'.y > 1 (-u.y > P_T) is a proof but for roundoff."""
    def proves(point: _Point) -> bool:
        return (-float(bar.u @ point.y) > 1.0
                and _certificate(cons, bar.multipliers(point.y)[:cons.u.size]) is not None)
    return proves


def _path(bar: _Barrier, budget: _NewtonBudget, stop=None):
    """The dual path on bar: centring from bar.start() at t0
    (bar.centring_t), t0 * _T_GROWTH, ... Yields (t, point, step, silent)
    after each stage: point the stage's _Point, step its Newton step there
    (None when stop(point) ended the stage). silent: this stage and the one
    before both ended unconverged without a Newton step, so the path is at
    its float64 floor."""
    point = bar.evaluate(bar.start())
    t, quiet = bar.centring_t(point), False
    while True:
        used_before = budget.used
        point, step, converged = bar.center(t, point, budget, stop)
        silent = not converged and budget.used == used_before
        yield t, point, step, silent and quiet
        t, quiet = t * _T_GROWTH, silent


def _face_newton(A, u, V, y, e=None):
    """Gauss-Newton on the square KKT system of an optimal face,

        Lambda(y) V = 0,   Tr(V^H A_i V) = u_i,   Lambda(y) = C + sum y_i A_i,

    over the real and imaginary parts of V and the multipliers y. A final
    solve's face has C = I. The epigraph's (e given: 1 on the ceiling rows
    of A, else 0) has C = 0, the common ceiling s as one more unknown on the
    rows e marks, Tr(V^H A_i V) - e_i s = u_i, and one more equation, e.y =
    1; its y holds the multipliers and then s. V -> V Q (Q unitary) solves
    it too, so every step also keeps V^H dV Hermitian. Returns (V, y, err)
    of the best iterate, err being the largest residual relative to the size
    of its terms (float64 roundoff at a solution).
    """
    n, r = V.shape
    p, nr = u.size, V.size
    c = 1.0 if e is None else 0.0
    # dV along each real coordinate of V, one per column of the Jacobian.
    basis = np.concatenate([np.eye(nr), 1j * np.eye(nr)]).reshape(2 * nr, n, r)
    vh = V.conj().T @ basis
    gauge = (vh - vh.conj().transpose(0, 2, 1)).reshape(2 * nr, r * r)
    a_norm = np.linalg.norm(A, axis=(1, 2))
    best = None
    for step in range(_FACE_STEPS + 1):
        lam_mat = c * np.eye(n) + np.einsum("m,mij->ij", y[:p], A)
        AV = A @ V
        R1 = (lam_mat @ V).ravel()
        R2 = np.real(np.einsum("ij,mij->m", V.conj(), AV)) - u
        if e is not None:
            R2 -= e * y[p]
        v_norm = float(np.linalg.norm(V))
        terms = np.maximum(np.linalg.norm(AV, axis=(1, 2)) * v_norm, 1e-300)
        err = max(float(np.linalg.norm(R1)) / ((c + np.dot(np.abs(y[:p]), a_norm)) * v_norm),
                  float(np.max(np.abs(R2) / terms)))
        if e is not None:
            err = max(err, abs(float(e @ y[:p]) - 1.0))
        if best is not None and err >= best[2]:
            break
        best = (V, y, err)
        if err == 0.0 or step == _FACE_STEPS:
            break
        d_r1 = np.concatenate([(lam_mat @ basis).reshape(2 * nr, nr), AV.reshape(p, nr)])
        d_r2 = 2.0 * np.real(np.einsum("mab,kab->km", AV.conj(), basis))
        d_gauge = np.hstack([gauge.real, gauge.imag])
        J = np.hstack([d_r1.real, d_r1.imag,
                       np.vstack([d_r2, np.zeros((p, p))]),
                       np.vstack([d_gauge, np.zeros((p, 2 * r * r))])]).T
        F = np.concatenate([R1.real, R1.imag, R2, np.zeros(2 * r * r)])
        if e is not None:
            # The column of s, and the row of e.y = 1.
            s_col = np.zeros((J.shape[0], 1))
            s_col[2 * nr:2 * nr + p, 0] = -e
            e_row = np.zeros((1, J.shape[1] + 1))
            e_row[0, 2 * nr:2 * nr + p] = e
            J = np.vstack([np.hstack([J, s_col]), e_row])
            F = np.append(F, float(e @ y[:p]) - 1.0)
        # Rows and columns equilibrated: the floor and ceiling rows R2 and
        # the multiplier columns carry the units of the user's rows.
        rows = np.linalg.norm(J, axis=1)
        rows[rows == 0.0] = 1.0
        J, F = J / rows[:, None], F / rows
        cols = np.linalg.norm(J, axis=0)
        cols[cols == 0.0] = 1.0
        d = np.linalg.lstsq(J / cols, -F, rcond=None)[0] / cols
        V = V + (d[:nr] + 1j * d[nr:2 * nr]).reshape(n, r)
        y = y + d[2 * nr:]
    return best


def _face_point(cons: ConstraintSet, rows: np.ndarray, V: np.ndarray, y_rows: np.ndarray,
                err: float):
    """(W, y) of a solution (V, y_rows, err) of the face system of _face_newton
    on the rows of cons, W = V V^H and y one multiplier per row of cons, 0
    off rows, when it is an optimum to roundoff; otherwise None. This is the
    one test that earns OPTIMAL on the SDP route, for a barrier's refined
    end point (_refine_face) and for a continued face (continue_face) alike:

    - the face residual err is at most _FACE_TOL;
    - every multiplier on rows is >= 0;
    - every slack u_i - Re Tr(A_i W) off rows is > 0;
    - Lambda(y) is PSD to _FACE_TOL times its size;
    - the duality gap Tr W + y.u is at most 1e-6 Tr W.
    """
    if not err <= _FACE_TOL or float(np.min(y_rows)) < 0.0:  # also rejects a NaN
        return None
    y = np.zeros(cons.u.size)
    y[rows] = y_rows
    W = V @ V.conj().T
    s = np.delete(cons.u - cons.values(W), rows)
    roundoff = _FACE_TOL * (1.0 + float(np.dot(y, np.linalg.norm(cons.A, axis=(1, 2)))))
    if not (np.all(s > 0.0) and np.linalg.eigvalsh(cons.duals(y).Lambda)[0] >= -roundoff):
        return None
    primal = float(np.real(np.trace(W)))
    if abs(primal - cons.dual_objective(y)) <= 1e-6 * primal:
        return W, y
    return None


def _refine_face(cons: ConstraintSet, bar: _Barrier, W: np.ndarray, slacks: np.ndarray,
                 y0: np.ndarray):
    """Newton refinement of the end point W' of the barrier bar on the rows
    of cons on its optimal face, from its slacks and multipliers y0 (one per
    barrier row, all three in bar's normalized units).

    W' = V V^H on its numerical range, cut at the largest eigenvalue gap when
    one clearly exists, else at the relative cut: the central path leaves
    O(1/t) dust eigenvalues off the face, and for small-trace optima they can
    exceed the relative cut. The active rows are those whose multiplier y0_i
    exceeds the slack s_i, both normalized, so the choice does not depend on
    the user's units. Newton on the KKT system of that face in the units of
    cons (_face_newton) removes the barrier's O(1/t) centering error and its
    float64 noise floor. A row whose multiplier comes out negative is
    dropped and the solve retried. So is the active row with the least y0_i
    / s_i when the solve misses _FACE_TOL: a weakly active row, whose
    multiplier and slack both tend to 0 along the path, leaves the face
    system with no regular solution.

    Returns (V V^H, y) in the units of cons, y one multiplier per row of cons
    and 0 on the inactive rows, when _face_point certifies it: a KKT point
    to roundoff with a small duality gap. Otherwise None.
    """
    A, u = cons.A[bar.keep], cons.u[bar.keep]
    vals, vecs = np.linalg.eigh(W)
    desc = np.clip(vals[::-1], 1e-300, None)
    ratios = desc[:-1] / desc[1:]
    if ratios.size and float(np.max(ratios)) > 1e2:
        r = int(np.argmax(ratios)) + 1
    else:
        r = int(np.count_nonzero(vals > _RANK_REL_TOL * vals[-1]))
    V0 = vecs[:, ::-1][:, :r] * np.sqrt(desc[:r] * cons.p_t)
    active = np.flatnonzero(y0 > slacks)
    while active.size:
        V, y_act, err = _face_newton(A[active], u[active], V0, y0[active] / bar.r[active])
        end = _face_point(cons, bar.keep[active], V, y_act, err)
        if end is not None:
            return end
        if not err <= _FACE_TOL:
            drop = int(np.argmin(y0[active] / slacks[active]))
        elif float(np.min(y_act)) < 0.0:
            drop = int(np.argmin(y_act))
        else:
            return None
        active = np.delete(active, drop)
    return None


def _final_solve(cons: ConstraintSet, budget: _NewtonBudget):
    """The dual path on the barrier rows of cons, then Newton on the optimal
    face (_refine_face) from the primal point of the last stage's Newton step
    (_Barrier.primal) and its y. The path stops once nu / t <= _GAP_REL Tr
    W', at a silent stage or at _T_MAX. Returns (W, y, None), y one
    multiplier per row of cons; (None, None, cert) when an iterate's y
    proves cons infeasible; or (None, None, None) when the refinement is
    rejected."""
    bar = _Barrier(cons)
    for t, point, step, silent in _path(bar, budget, _proof(bar, cons)):
        if step is None:
            return None, None, _certificate(cons, bar.multipliers(point.y))
        W = bar.primal(t, step)
        if bar.nu / t <= _GAP_REL * float(np.trace(W).real) or silent or t >= _T_MAX:
            break
    y = point.y
    end = _refine_face(cons, bar, W, (1.0 - step.dy / y) / (t * y), y)
    if end is None:
        return None, None, None
    return *end, None


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
    infeasible.

    Every Epigraph has ordered ends: two proofs that cross by roundoff (a
    b_lo a few ulps above b_hi) are kept as [min, max], so that no probe
    between them is decided on a contradictory pair."""

    b_lo: float
    b_hi: float
    gap_lo: float
    gap_hi: float

    def __post_init__(self):
        for lo, hi in (("b_lo", "b_hi"), ("gap_lo", "gap_hi")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a > b:
                object.__setattr__(self, lo, b)
                object.__setattr__(self, hi, a)

    def meet(self, other: Epigraph) -> Epigraph:
        """The intersection of two brackets on the same b*. The rate map is
        monotone, so the gaps meet as the ceilings do."""
        return Epigraph(max(self.b_lo, other.b_lo), min(self.b_hi, other.b_hi),
                        max(self.gap_lo, other.gap_lo), min(self.gap_hi, other.gap_hi))


def _witness_bound(cons: ConstraintSet, W: np.ndarray) -> float:
    """max_j Tr(G_j W') of W >= 0 scaled onto the floors of cons, inf when
    W' misses the budget or a floor. W' = alpha (1 + 4 eps) W, alpha = max_k
    a_k / Tr(F_k W) the least scaling that meets them all, unless alpha <= 1
    < alpha (1 + 4 eps): then W' = W, which meets them already. A path's
    point sits off its floors by O(1/t), and an LP allocation meets a
    binding floor, often at the budget, only to roundoff. W is not checked:
    callers must pass W >= 0, or the bound proves nothing."""
    vals = cons.values(W)
    floors = cons.floors & (cons.u < 0.0)
    if np.any(vals[floors] >= 0.0):
        return math.inf
    alpha = float(np.max(cons.u[floors] / vals[floors], initial=0.0))
    if alpha > 1.0 or alpha * (1.0 + 4.0 * _EPS) <= 1.0:
        vals = cons.values(W * alpha * (1.0 + 4.0 * _EPS))
    if np.all((cons.u - vals)[~cons.ceilings] >= 0.0):
        return float(np.max(vals[cons.ceilings]))
    return math.inf


def _epigraph_path(cons: ConstraintSet, budget: _NewtonBudget):
    """Minimize s over W >= 0 subject to the budget and floors of cons and
    Tr(A_j W) <= s on its ceilings: the dual path of the epigraph barrier
    (_Barrier with epigraph=True) on the rows of cons with ceiling u = 0.
    Yields (b_lo, b_hi) after each stage of the path: the greatest
    ceiling_bound of the stages' y and the least _witness_bound so far of P_T
    W', W' the primal point of the stage's step (the DSDP point, which meets
    the rows at a loosely centred y too) or Lambda^-1 / t where that point
    is not PSD, so each bracket lies inside the one before. Stops at a silent
    stage or at _T_MAX; the Newton budget bounds it too.

    Yields only (inf, inf) when the floors and the budget are proven
    infeasible: a row out of their reach (_unreachable_row), or an iterate
    whose y on them is a Farkas certificate."""
    floors = cons.without_ceilings()
    if _unreachable_row(floors) is not None:
        yield math.inf, math.inf
        return
    bar = _Barrier(cons.with_ceiling(0.0), epigraph=True)
    b_hi, b_lo = math.inf, -math.inf
    for t, point, step, silent in _path(bar, budget, _proof(bar, floors)):
        if step is None:
            yield math.inf, math.inf
            return
        b_hi = min(b_hi, _witness_bound(cons, cons.p_t * bar.primal(t, step, psd=True)))
        b_lo = max(b_lo, cons.ceiling_bound(bar.multipliers(point.y)))
        yield b_lo, b_hi
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


def epigraph_constraints(
    p: WiretapProblem,
    rd: float,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> tuple[str, ConstraintSet]:
    """(route, cons) of the epigraph at code rate rd: solve_general's route
    at (rd, 0) and the ConstraintSet of its thresholds, whose floors and
    budget every epigraph at rd keeps (its ceilings are replaced). A sweep
    row builds them once for its continued epigraph and its barrier stages
    alike, so a finite alphabet inverts its mutual information once."""
    t, route = _route(p, RatePair(rd, 0.0), mode, input_model)
    return route, ConstraintSet.build(p, t, mode)


def epigraph_stages(
    p: WiretapProblem,
    rd: float,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
    routed: tuple[str, ConstraintSet] | None = None,
) -> Iterator[Epigraph]:
    """The Epigraph at code rate rd after each stage of the solve that
    solve_general's route takes there, each bracket inside the one before and
    mapped to rate space by two forward rate evaluations. The SDP route yields
    one per barrier stage; the LP route (one simplex, diag_lp.min_ceiling) and
    floors proven infeasible yield one final bracket, and an LP whose phase I
    leaves the floors unmet with no accepted certificate yields the undecided
    bracket b_lo = -inf, b_hi = inf.

    Yields nothing exactly when R_s moves no row: on the trivial route, or
    with no nonzero ceiling to bound. When the path fails before its first
    stage (the Newton steps run out, or an iterate leaves the domain) it
    yields one bracket, b_lo = -inf and b_hi = inf, that decides no probe;
    after a stage, the stages end where the path fails.

    routed is epigraph_constraints(p, rd, mode, input_model), built here
    when None.
    """
    route, cons = routed or epigraph_constraints(p, rd, mode, input_model)
    if route == "trivial" or not np.any(cons.ceilings & cons.nonzero):
        return
    if route == "lp":
        P, y = diag_lp.min_ceiling(cons)
        if P is not None:
            brackets = [(cons.ceiling_bound(y), _witness_bound(cons, np.diag(P)))]
        elif _certificate(cons.with_ceiling(0.0), y) is not None:
            brackets = [(math.inf, math.inf)]
        else:
            brackets = [(-math.inf, math.inf)]
    else:
        brackets = _epigraph_path(cons, _NewtonBudget(_MAX_NEWTON))
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
    zero power when W = 0 meets every row, else the dual path and the face
    refinement (_final_solve). INFEASIBLE with the certificate of a row out
    of reach (_unreachable_row) or of the path's y; MAX_ITERATIONS when the
    refinement is rejected or the path runs out of Newton steps or leaves
    the domain (_NumericalTrouble)."""
    cons = ConstraintSet.build(p, t, mode)
    if np.all(cons.u >= 0.0):  # W = 0 satisfies every row
        return _zero_power(cons, t, mode)
    budget = _NewtonBudget(_MAX_NEWTON)
    W, cert = None, _unreachable_row(cons)
    if cert is None:
        try:
            W, y, cert = _final_solve(cons, budget)
        except _NumericalTrouble:
            pass
    if cert is not None:
        return BeamformerSolution(status=INFEASIBLE, mode=mode, thresholds=t,
                                  certificate=cert, newton_iterations=budget.used)
    # The claimed status must be earned: by a refined KKT point with a small
    # gap (_face_point), not by the path having terminated.
    if W is not None:
        return BeamformerSolution(status=OPTIMAL, mode=mode, W=W,
                                  objective=float(np.real(np.trace(W))), duals=cons.duals(y),
                                  thresholds=t, newton_iterations=budget.used)
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

    When phase I leaves the rows unmet, its multipliers are the Farkas
    certificate of INFEASIBLE; if cons.farkas does not accept them (roundoff)
    the solve reports MAX_ITERATIONS. OPTIMAL needs every row met to
    _LP_ROW_REL of its size, or the solve reports MAX_ITERATIONS too."""
    P, y = diag_lp.solve_diagonal(cons)
    if P is None:
        cert = _certificate(cons, y)
        if cert is None:
            return BeamformerSolution(status=MAX_ITERATIONS, mode=mode, thresholds=t)
        return BeamformerSolution(status=INFEASIBLE, mode=mode, thresholds=t, certificate=cert)
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


def routes_to_lp(p: WiretapProblem, mode: CsiMode) -> bool:
    """Whether p's solves in mode at R_D > 0 take the diagonal LP route: the
    all-diagonal statistical instances. It does not depend on the rates, and
    p checks its diagonality once (WiretapProblem.diagonal)."""
    return mode.is_statistical and p.diagonal


def _route(p: WiretapProblem, r: RatePair, mode: CsiMode, input_model):
    """(thresholds, route) of a rate pair: "trivial" for R_D = 0, "lp" where
    routes_to_lp holds and "sdp" otherwise."""
    t = rate_thresholds(p, r, input_model)
    if t.user_power_target <= 0.0:
        # R_D = 0: transmitting nothing satisfies every constraint.
        return t, "trivial"
    if routes_to_lp(p, mode):
        return t, "lp"
    return t, "sdp"


def _complete(p: WiretapProblem, t: ConstraintThresholds, route: str, mode: CsiMode,
              sol: BeamformerSolution | None) -> BeamformerSolution:
    """The solution of a routed solve: zero power, the diagonal LP, or on the
    SDP route the relaxed solution sol with its rank-1 recovery."""
    if route == "trivial":
        return _zero_power(ConstraintSet.build(p, t, mode), t, mode)
    if route == "lp":
        return _lp_route(ConstraintSet.build(p, t, mode), t, mode)
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
    return _complete(p, t, route, mode, solve_rank_relaxed(p, t, mode) if route == "sdp" else None)


# ---------------------------------------------------------------------------
# Continuation from a nearby optimum
# ---------------------------------------------------------------------------


def _range_factor(W: np.ndarray) -> np.ndarray | None:
    """V with V V^H = W on its numerical range (the eigenvalues above
    _RANK_REL_TOL times the largest); None when W has no positive
    eigenvalue."""
    vals, vecs = np.linalg.eigh(W)
    if not vals[-1] > 0.0:
        return None
    keep = vals > _RANK_REL_TOL * vals[-1]
    return vecs[:, keep] * np.sqrt(vals[keep])


def continue_epigraph(
    p: WiretapProblem,
    anchor: BeamformerSolution,
    routed: tuple[str, ConstraintSet],
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> Epigraph | None:
    """The Epigraph at the code rate whose route and rows routed holds (the
    row's epigraph_constraints) continued from anchor, an SDP-route solution
    of p with a certified relaxed optimum (its W and duals) at an earlier
    code rate, with no barrier run; None where it proves no witness,
    or where epigraph_stages' first stage would not be a barrier stage (the
    LP route, no nonzero ceiling, or a floor out of the budget's reach,
    _unreachable_row).

    A final solve on the region's boundary has the epigraph's optimal face:
    its ceilings are as low as the floors and the budget allow. So anchor's
    face starts the epigraph's face system at rd (_face_newton with e): V
    from anchor's W on its numerical range, anchor's rows with y_i > 0, and
    their epigraph multipliers, the least-squares solution of Lambda_0(y) V
    = 0 (C = 0) scaled to e.y = 1. Only the floors a(R_D) move along a
    sweep. The bracket is the two proofs of every barrier stage:
    ceiling_bound(max(y, 0)) and _witness_bound(V V^H). Both hold at any
    seed, so a poor face only widens the bracket. Without a witness (b_hi
    inf) the barrier decides the row, and proves b_lo = inf where the floors
    and the budget are infeasible."""
    route, cons = routed
    if route != "sdp" or anchor.W is None:
        return None
    if not np.any(cons.ceilings & cons.nonzero):
        return None
    if _unreachable_row(cons.without_ceilings()) is not None:
        return None
    rows = np.flatnonzero(cons.stack(anchor.duals) > 0.0)
    e = cons.ceilings[rows].astype(float)
    V = _range_factor(anchor.W)
    if not e.any() or V is None:
        return None
    A, u = cons.A[rows], cons.with_ceiling(0.0).u[rows]
    # The least-squares null vector of y -> sum y_i A_i V, its columns
    # equilibrated, scaled to e.y = 1; s starts at the highest active ceiling.
    AV = (A @ V).reshape(rows.size, -1)
    scale = np.linalg.norm(AV, axis=1)
    scale[scale == 0.0] = 1.0
    z = np.linalg.svd(np.hstack([AV.real, AV.imag]).T / scale)[2][-1] / scale
    ez = float(e @ z)
    if ez == 0.0:
        return None
    s = float(np.max(cons.values(anchor.W)[rows][e > 0.0]))
    V, ys, _ = _face_newton(A, u, V, np.append(z / ez, s), e)
    b_hi = _witness_bound(cons, V @ V.conj().T)
    if b_hi == math.inf:
        return None
    y = np.zeros(cons.u.size)
    y[rows] = np.maximum(ys[:-1], 0.0)
    b_lo = cons.ceiling_bound(y)
    return Epigraph(b_lo, b_hi, *rate_bracket(p, b_lo, b_hi, mode, input_model))


def continue_face(
    p: WiretapProblem,
    prev: BeamformerSolution,
    r: RatePair,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> BeamformerSolution | None:
    """solve_general at r, continued from prev, an SDP-route solution of p
    with a certified relaxed optimum (its W and duals) at nearby thresholds,
    with no barrier run; None when the continuation is not certified.

    The rows A of p do not depend on the rates, only their thresholds u do,
    so prev's optimal face is the start of the face system at r: V from
    prev's W on its numerical range, and prev's rows with y_i > 0 and their
    multipliers (_face_newton). When that misses, u walks once from prev's
    thresholds to r's in _WALK_STEPS equal steps, with a Newton solve at
    each. The end point is accepted only by _face_point, the test that
    earns a barrier solve its OPTIMAL; the rank-1 recovery is solve_general's
    (_complete). A face that changes between the two rate pairs (a row
    turning active or inactive) is not certified, and the caller solves r on
    the barrier instead."""
    t, route = _route(p, r, mode, input_model)
    if route != "sdp" or prev.W is None:
        return None
    cons = ConstraintSet.build(p, t, mode)
    if np.all(cons.u >= 0.0):  # W = 0, which the barrier's route returns
        return None
    y = cons.stack(prev.duals)
    rows = np.flatnonzero(y > 0.0)
    V0 = _range_factor(prev.W)
    if not rows.size or V0 is None:
        return None
    A, u = cons.A[rows], cons.u[rows]
    end = _face_point(cons, rows, *_face_newton(A, u, V0, y[rows]))
    if end is None:
        u_prev = ConstraintSet.build(p, prev.thresholds, mode).u[rows]
        V, y_rows = V0, y[rows]
        for f in np.arange(1, _WALK_STEPS) / _WALK_STEPS:
            V, y_rows, _ = _face_newton(A, u_prev + f * (u - u_prev), V, y_rows)
        end = _face_point(cons, rows, *_face_newton(A, u, V, y_rows))
    if end is None:
        return None
    W, y = end
    sol = BeamformerSolution(status=OPTIMAL, mode=mode, W=W, objective=float(np.real(np.trace(W))),
                             duals=cons.duals(y), thresholds=t)
    return _complete(p, t, route, mode, sol)
