"""Per-antenna power allocation for the all-diagonal-covariance special case.

When every H_k and Z_j is diagonal (all_diagonal), the beamformer phases are
irrelevant and the minimum-power problem reduces to a linear program in the
per-antenna powers P_m = |w_m|^2:

    min sum_m P_m   s.t.  P_m >= 0,  sum_m P_m <= P_T,
                          sum_m P_m H_k[mm] >= a,  sum_m P_m Z_j[mm] <= b.

Both LPs here take the rows of the solve's ConstraintSet as they are: Re
Tr(A_i W) <= u_i on W = diag(P) is (Re diag A_i) . P <= u_i. They return the
powers P with the HiGHS row marginals y, one multiplier per row, which are
the multipliers of the same rows in the SDP; the caller forms the
beamforming vector [sqrt(P_1), ..., sqrt(P_N)]^T and ConstraintSet.duals(y).
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet
from .linalg import frob
from .model import WiretapProblem

DIAGONAL_RTOL = 1e-12


def is_diagonal(m: np.ndarray) -> bool:
    """Off-diagonal part within DIAGONAL_RTOL of the matrix, relative at
    every scale (the zero matrix counts as diagonal)."""
    off = m - np.diag(np.diag(m))
    return frob(off) <= DIAGONAL_RTOL * frob(m)


def all_diagonal(p: WiretapProblem) -> bool:
    return all(is_diagonal(m) for m in (*p.H, *p.Z))


def _highs(c, A_ub, b_ub, bounds):
    """(x, y) of min c.x s.t. A_ub x <= b_ub within bounds, y >= 0 the row
    multipliers, or None when HiGHS proves the LP infeasible (status 2).
    scipy.optimize is imported here, on the first LP, so the SDP route, the
    Monte Carlo and the MI never load it."""
    from scipy.optimize import linprog

    res = linprog(c=c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    # HiGHS marginals for A_ub x <= b_ub are <= 0 at a minimum.
    return res.x, -np.asarray(res.ineqlin.marginals)


def solve_diagonal(cons: ConstraintSet):
    """(P, y) of the LP  min sum P  s.t. the rows of cons on W = diag(P) and
    P >= 0: the minimum-power allocation and one multiplier per row of cons,
    or None when HiGHS proves the LP infeasible."""
    res = _highs(np.ones(cons.n), np.real(np.diagonal(cons.A, axis1=1, axis2=2)), cons.u,
                 [(0.0, None)] * cons.n)
    if res is None:
        return None
    x, y = res
    return np.clip(x, 0.0, None), y


def min_ceiling(cons: ConstraintSet):
    """(P, y) of the LP  min s  s.t. the budget and floors of cons,
    (Re diag G_j) . P <= s and P >= 0, or None when HiGHS proves it infeasible.
    y has one multiplier per row of cons, its ceiling entries summing to one:
    the epigraph of the ceilings on the diagonal route (sdp.Epigraph)."""
    ceil = cons.ceilings
    d = np.real(np.diagonal(cons.A, axis1=1, axis2=2))
    res = _highs(np.r_[np.zeros(cons.n), 1.0], np.column_stack([d, -1.0 * ceil]),
                 np.where(ceil, 0.0, cons.u), [(0.0, None)] * cons.n + [(None, None)])
    if res is None:
        return None
    x, y = res
    return np.clip(x[:-1], 0.0, None), y
