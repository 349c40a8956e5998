"""Per-antenna power allocation for the all-diagonal-covariance special case.

When every H_k and Z_j is diagonal (all_diagonal), the beamformer phases are
irrelevant and the minimum-power problem reduces to a linear program in the
per-antenna powers P_m = |w_m|^2:

    min sum_m P_m   s.t.  P_m >= 0,  sum_m P_m <= P_T,
                          sum_m P_m H_k[mm] >= a,  sum_m P_m Z_j[mm] <= b.

Both LPs here take the rows of the solve's ConstraintSet as they are: Re
Tr(A_i W) <= u_i on W = diag(P) is (Re diag A_i) . P <= u_i. They have N (+1)
columns and 1 + K + J rows, so a dense two-phase simplex (_simplex) solves
them. It returns the powers P with one multiplier per row, y, which are the
multipliers of the same rows in the SDP; the caller forms the beamforming
vector [sqrt(P_1), ..., sqrt(P_N)]^T and ConstraintSet.duals(y). When phase I
ends with the rows unmet, P is None and y is the phase-I multipliers, a
Farkas candidate that the caller certifies (ConstraintSet.farkas).
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSet
from .linalg import frob
from .model import WiretapProblem

DIAGONAL_RTOL = 1e-12

# The simplex's tolerances, all relative: rows are equilibrated to unit norm,
# so none depends on the units of P or of the rows.
_PIVOT_REL = 1e-9     # a pivot below this * the largest entry of its column is skipped
_COST_REL = 1e-12     # a column enters when its reduced cost is below -this * its terms
_ROUNDOFF_REL = 1e-11  # an artificial below this * its row's terms is roundoff


def is_diagonal(m: np.ndarray) -> bool:
    """Off-diagonal part within DIAGONAL_RTOL of the matrix, relative at
    every scale (the zero matrix counts as diagonal)."""
    off = m - np.diag(np.diag(m))
    return frob(off) <= DIAGONAL_RTOL * frob(m)


def all_diagonal(p: WiretapProblem) -> bool:
    return all(is_diagonal(m) for m in (*p.H, *p.Z))


def _pivots(M, b, cost, basis, entering):
    """Run the primal simplex on M z = b, z >= 0 from the feasible basis
    `basis` (updated in place) for min cost.z, letting only the columns of
    mask `entering` enter, with Bland's rule: the lowest-index column whose
    reduced cost is negative enters, and the lowest-index basic variable
    among the tied ratios leaves. A basic variable that may not enter again
    (an artificial) blocks at ratio 0 whatever the sign of its pivot."""
    col_size = np.sum(np.abs(M), axis=0)
    for _ in range(50 * M.shape[1]):
        Binv = np.linalg.inv(M[:, basis])
        pi = cost[basis] @ Binv
        d = cost - pi @ M
        d[basis] = 0.0
        enters = entering & (d < -_COST_REL * (np.abs(cost) + np.max(np.abs(pi)) * col_size))
        if not enters.any():
            return
        j = int(np.argmax(enters))
        a = Binv @ M[:, j]
        z_b = np.maximum(Binv @ b, 0.0)
        big = np.abs(a) > _PIVOT_REL * np.max(np.abs(a))
        rows = np.flatnonzero(big & ((a > 0.0) | ~entering[basis]))
        if not rows.size:
            raise RuntimeError("LP unbounded")
        ratios = np.where(a[rows] > 0.0, z_b[rows], 0.0) / np.abs(a[rows])
        tied = rows[ratios == np.min(ratios)]
        basis[tied[np.argmin(basis[tied])]] = j
    raise RuntimeError("LP simplex did not terminate")


def _simplex(c, A, b):
    """(x, y) of min c.x s.t. A x <= b and x >= 0, y >= 0 one multiplier per
    row (c + A^T y >= 0, y.(b - A x) = 0), or (None, y) when phase I leaves
    the rows unmet: then y >= 0, A^T y >= 0 and y.b < 0 but for roundoff.

    Dense two-phase simplex on rows equilibrated to unit norm, with a slack
    per row and an artificial per row with b_i < 0. The returned x and y are
    solved on the original rows of the final basis, so a tight row is met to
    roundoff (a binding budget, say, is not overshot by accumulated pivots).
    """
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    r = 1.0 / np.where(norms > 0.0, norms, 1.0)
    short = np.flatnonzero(b < 0.0)
    # Columns: x, a slack per row, an artificial per row with b_i < 0; on the
    # equilibrated rows the slacks and artificials are +-e_i.
    unit = np.hstack([np.eye(m), -np.eye(m)[:, short]])
    M_eq = np.hstack([A * r[:, None], unit])
    M, b_eq = np.hstack([A, unit / r[:, None]]), b * r
    cols = M.shape[1]
    basis = np.arange(n, n + m)
    basis[short] = n + m + np.arange(short.size)
    art = np.arange(cols) >= n + m

    def solved(cost):
        """(x, y) of the current basis, solved on the original rows."""
        B = M[:, basis]
        z = np.zeros(cols)
        z[basis] = np.linalg.solve(B, b)
        return np.clip(z[:n], 0.0, None), np.maximum(-np.linalg.solve(B.T, cost[basis]), 0.0)

    phase1 = art.astype(float)
    if short.size:
        _pivots(M_eq, b_eq, phase1, basis, np.ones(cols, dtype=bool))
        z_eq = np.zeros(cols)
        z_eq[basis] = np.linalg.solve(M_eq[:, basis], b_eq)
        # A row is unmet when its artificial exceeds the roundoff of its terms.
        terms = np.abs(b_eq[short]) + np.abs(M_eq[short, :n]) @ np.abs(z_eq[:n])
        if np.any(z_eq[art] > _ROUNDOFF_REL * terms):
            return None, solved(phase1)[1]
    cost = np.r_[c, np.zeros(cols - n)]
    _pivots(M_eq, b_eq, cost, basis, ~art)
    return solved(cost)


def solve_diagonal(cons: ConstraintSet):
    """(P, y) of the LP  min sum P  s.t. the rows of cons on W = diag(P) and
    P >= 0: the minimum-power allocation and one multiplier per row of cons.
    (None, y) when phase I leaves the rows unmet, y its multipliers."""
    return _simplex(np.ones(cons.n), np.real(np.diagonal(cons.A, axis1=1, axis2=2)), cons.u)


def min_ceiling(cons: ConstraintSet):
    """(P, y) of the LP  min s  s.t. the budget and floors of cons,
    (Re diag G_j) . P <= s, P >= 0 and s >= 0 (every G_j is PSD, so its
    diagonal is non-negative and s >= 0 costs nothing): the epigraph of the
    ceilings on the diagonal route (sdp.Epigraph). y has one multiplier per
    row of cons, its ceiling entries summing to one when s > 0. (None, y)
    when phase I leaves the budget and floors unmet, y its multipliers (zero
    on the ceilings but for roundoff)."""
    ceil = cons.ceilings
    d = np.real(np.diagonal(cons.A, axis1=1, axis2=2))
    # s in the units of the ceilings, s = zeta s', so that a ceiling row's
    # entries are of one size whatever the units of Z; y scales back by zeta.
    zeta = float(np.max(np.abs(d[ceil]), initial=0.0)) or 1.0
    x, y = _simplex(np.r_[np.zeros(cons.n), 1.0], np.column_stack([d, -zeta * ceil]),
                    np.where(ceil, 0.0, cons.u))
    return (None if x is None else x[:-1]), zeta * y
