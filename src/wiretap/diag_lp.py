"""Per-antenna power allocation for the all-diagonal-covariance special case.

When every H_k and Z_j is diagonal, the beamformer phases are irrelevant and
the minimum-power problem reduces to a linear program in the per-antenna
powers P_m = |w_m|^2:

    min sum_m P_m   s.t.  P_m >= 0,  sum_m P_m <= P_T,
                          sum_m P_m H_k[mm] >= a,  sum_m P_m Z_j[mm] <= b.

The beamforming vector is then [sqrt(P_1), ..., sqrt(P_N)]^T. The HiGHS
row marginals are the multipliers of the same rows in the SDP, so the
allocation carries them as the solve's DualVariables, K6 matrix included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .constraints import ConstraintSet, DualVariables
from .linalg import frob
from .model import ConstraintThresholds, ModelError, WiretapProblem

DIAGONAL_RTOL = 1e-12


@dataclass(frozen=True)
class PowerAllocation:
    """Non-negative per-antenna powers plus the LP's row duals (all >= 0),
    in the SDP's conventions: lam for the budget, mu_k for the floors, nu_j
    for the ceilings, and the K6 matrix they define."""

    P: np.ndarray
    duals: DualVariables

    @property
    def total(self) -> float:
        return float(np.sum(self.P))


def is_diagonal(m: np.ndarray) -> bool:
    off = m - np.diag(np.diag(m))
    return frob(off) <= DIAGONAL_RTOL * max(1.0, frob(m))


def all_diagonal(p: WiretapProblem) -> bool:
    return all(is_diagonal(m) for m in (*p.H, *p.Z))


def solve_diagonal(p: WiretapProblem, t: ConstraintThresholds) -> PowerAllocation | None:
    """Minimum-power allocation, or None when the LP is certified infeasible."""
    if not all_diagonal(p):
        raise ModelError("covariances are not diagonal; use the general solver")
    cons = ConstraintSet.build(p, t)
    # Tr(A_i W) <= u_i on W = diag(P) is (Re diag A_i) . P <= u_i.
    res = linprog(
        c=np.ones(p.N),
        A_ub=np.real(np.diagonal(cons.A, axis1=1, axis2=2)),
        b_ub=cons.u,
        bounds=[(0.0, None)] * p.N,
        method="highs",
    )
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    # HiGHS marginals for A_ub x <= b_ub are <= 0 at a minimum.
    duals = cons.duals(*cons.split(-np.asarray(res.ineqlin.marginals)))
    return PowerAllocation(P=np.clip(res.x, 0.0, None), duals=duals)


def min_ceiling(cons: ConstraintSet):
    """(P, y) of the LP  min s  s.t. the budget and floors of cons,
    (Re diag G_j) . P <= s and P >= 0, or None when HiGHS proves it infeasible.
    y has one multiplier per row of cons, its ceiling entries summing to one:
    the epigraph of the ceilings on the diagonal route (sdp.Epigraph)."""
    ceil = np.arange(cons.u.size) > cons.k
    d = np.real(np.diagonal(cons.A, axis1=1, axis2=2))
    res = linprog(
        c=np.r_[np.zeros(cons.n), 1.0],
        A_ub=np.column_stack([d, -1.0 * ceil]),
        b_ub=np.where(ceil, 0.0, cons.u),
        bounds=[(0.0, None)] * cons.n + [(None, None)],
        method="highs",
    )
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    P = np.clip(res.x[:-1], 0.0, None)
    # HiGHS meets the binding floors only to roundoff (-1.8e-15 on a bundled
    # row); scaled up onto them, P passes the exact check of a witness.
    vals, u = d[1:1 + cons.k] @ P, cons.u[1:1 + cons.k]
    short = (vals > u) & (vals < 0.0)
    if np.any(short):
        P = P * float(np.max(u[short] / vals[short])) * (1.0 + 4.0 * np.finfo(float).eps)
    return P, -np.asarray(res.ineqlin.marginals)


def allocation_to_beamformer(alloc: PowerAllocation) -> np.ndarray:
    """Real non-negative beamformer with |w_m|^2 = P_m."""
    return np.sqrt(np.clip(alloc.P, 0.0, None)).astype(np.complex128)
