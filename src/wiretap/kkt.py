"""Optimality certification for candidate (W, duals) pairs.

Evaluates the stationarity and complementary-slackness system of the
rank-relaxed problem:

  K1  primal feasibility of W,
  K2  Lambda W = 0,
  K3  lam (Tr W - P_T) = 0,
  K4  mu_k (a - Tr(W F_k)) = 0,
  K5  nu_j (Tr(W G_j) - b) = 0,
  K6  Lambda = (1 + lam) I - sum_k mu_k F_k + sum_j nu_j G_j  is PSD,

plus the scalar identity (1+lam) Tr W = sum mu_k a_k - sum nu_j b_j implied
by K2/K4/K5/K6, and the rank bound rank(W) <= rank(sum mu_k F_k). The matrix
multiplier used everywhere is the one *defined* by K6 from the scalar duals:
a candidate passing here is optimal regardless of the Lambda it shipped with.

Matrix residuals are normalized by max(1, ||W||_F) so pass/fail thresholds
are scale-free across power budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, DualVariables
from .linalg import hermitian_eig, numerical_rank
from .model import STATISTICAL, ConstraintThresholds, CsiMode, ModelError, WiretapProblem


def _stacked(p: WiretapProblem, t: ConstraintThresholds, mode: CsiMode, W: np.ndarray,
             duals: DualVariables) -> tuple[ConstraintSet, np.ndarray]:
    """The rows of (p, t, mode) and the stacked multipliers y of duals;
    ModelError unless W is N x N and duals has one multiplier per row."""
    cons = ConstraintSet.build(p, t, mode)
    if W.shape != (cons.n, cons.n):
        raise ModelError(f"W has shape {W.shape}, expected ({cons.n}, {cons.n})")
    return cons, cons.stack(duals)


def _floor_rank(cons: ConstraintSet, y: np.ndarray) -> int:
    """rank(sum mu_k F_k), the floor rows' part of -combination(y)."""
    return numerical_rank(-cons.combination(np.where(cons.floors, y, 0.0)))


@dataclass(frozen=True)
class KktReport:
    primal_feasible: bool
    feasibility_violations: tuple[str, ...]
    compl_slack_W: float          # ||Lambda W||_F / max(1, ||W||_F)
    slack_power: float            # |lam (Tr W - P_T)|
    slack_users: np.ndarray       # |mu_k (a_k - Tr(W F_k))|
    slack_eaves: np.ndarray       # |nu_j (Tr(W G_j) - b_j)|
    stationarity_min_eig: float   # min eigenvalue of the K6 matrix
    scalar_identity: float        # |(1+lam) Tr W - sum mu a + sum nu b| / max(1, (1+lam) Tr W)
    rank_W: int
    rank_muH: int

    def max_residual(self) -> float:
        parts = [self.compl_slack_W, self.slack_power, self.scalar_identity]
        parts += list(np.atleast_1d(self.slack_users))
        parts += list(np.atleast_1d(self.slack_eaves))
        return float(max(parts)) if parts else 0.0

    def passes(self, tol: float) -> bool:
        return (
            self.primal_feasible
            and self.max_residual() <= tol
            and self.stationarity_min_eig >= -tol
        )


def check_kkt(
    p: WiretapProblem,
    t: ConstraintThresholds,
    W: np.ndarray,
    duals: DualVariables,
    tol: float = 1e-5,
    mode: CsiMode = STATISTICAL,
) -> KktReport:
    """Evaluate every optimality residual for a candidate solution."""
    cons, y = _stacked(p, t, mode, W, duals)
    w_scale = max(1.0, float(np.linalg.norm(W)))
    tr_w = float(np.real(np.trace(W)))

    violations = []
    eig_w = hermitian_eig(W).eigenvalues
    if eig_w.size and float(eig_w[0]) < -tol * max(1.0, float(eig_w[-1])):
        violations.append(f"W not PSD (min eigenvalue {eig_w[0]:.3e})")
    if tr_w > p.P_T + tol * max(1.0, p.P_T):
        violations.append(f"power budget violated: Tr W = {tr_w:.6g} > {p.P_T:.6g}")
    constraint_violations, slack_users, slack_eaves = cons.primal_terms(W, y, tol)
    violations += constraint_violations
    k6 = cons.duals(y).Lambda

    return KktReport(
        primal_feasible=not violations,
        feasibility_violations=tuple(violations),
        compl_slack_W=float(np.linalg.norm(k6 @ W)) / w_scale,
        slack_power=abs(y[0] * (tr_w - p.P_T)),
        slack_users=slack_users,
        slack_eaves=slack_eaves,
        stationarity_min_eig=float(hermitian_eig(k6).eigenvalues[0]),
        scalar_identity=cons.scalar_identity(y, tr_w),
        rank_W=numerical_rank(W),
        rank_muH=_floor_rank(cons, y),
    )


@dataclass(frozen=True)
class RankBoundReport:
    rank_W: int
    rank_muH: int
    mu_sum: float
    scalar_identity: float
    rank_bound_ok: bool
    mu_positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.rank_bound_ok and self.mu_positive_ok


def rank_bound_check(
    W: np.ndarray,
    duals: DualVariables,
    p: WiretapProblem,
    t: ConstraintThresholds,
    tol: float = 1e-5,
    mode: CsiMode = STATISTICAL,
) -> RankBoundReport:
    """rank(W) <= rank(sum mu_k F_k), with sum mu_k > 0 whenever W != 0.

    A violation on a converged solution means the solver or the rank
    threshold failed, not the theory; surfacing rank_W vs rank_muH tells a
    user when the relaxation could in principle return a rank > 1 solution.
    """
    if float(np.linalg.norm(W)) == 0.0:
        raise ModelError("rank bound is vacuous for W = 0")
    cons, y = _stacked(p, t, mode, W, duals)
    rank_w = numerical_rank(W)
    rank_muh = _floor_rank(cons, y)
    scalar = cons.scalar_identity(y, float(np.real(np.trace(W))))
    mu_sum = float(np.sum(y[cons.floors]))
    return RankBoundReport(
        rank_W=rank_w,
        rank_muH=rank_muh,
        mu_sum=mu_sum,
        scalar_identity=scalar,
        rank_bound_ok=rank_w <= rank_muh and scalar <= tol,
        mu_positive_ok=mu_sum > 0.0,
    )
