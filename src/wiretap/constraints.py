"""The constraint rows of the rank-relaxed problem, and their duals.

    min Tr W  s.t.  W >= 0,  Tr W <= P_T,  Tr(W F_k) >= a_k,  Tr(W G_j) <= b_j.

ConstraintSet.build stacks these as one list of signed rows Re Tr(A_i W) <=
u_i: A = (I, -F_k, G_j) and u = (P_T, -a_k, b_j). It is the only place that
applies the floor sign. With the row multipliers y = (lam, mu_k, nu_j), the
SDP barrier, the LP route, the Farkas certificate and the KKT checker all
build their dual quantities from these rows: the multiplier matrix
c I + sum_{i>0} y_i A_i (c = 1 + lam for the K6 matrix Lambda, c = lam for a
Farkas combination), the dual objective, the ceiling bound below which a
Farkas combination proves a common ceiling infeasible, the scalar identity,
and sum mu_k F_k, whose rank bounds rank(W). ConstraintSet.duals is the only
place a solve's DualVariables, with its Lambda, is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, hermitian_eig, trace_inner
from .model import STATISTICAL, ConstraintThresholds, CsiMode, ModelError, WiretapProblem


@dataclass(frozen=True)
class DualVariables:
    """Multipliers of the rank-relaxed problem: lam for the power budget,
    mu_k for user floors, nu_j for eavesdropper ceilings, Lambda for W >= 0."""

    lam: float
    mu: np.ndarray
    nu: np.ndarray
    Lambda: np.ndarray


@dataclass(frozen=True)
class ConstraintSet:
    """Rows Re Tr(A_i W) <= u_i of one solve: row 0 is the power budget, rows
    1..k the user floors and the rest the eavesdropper ceilings."""

    A: np.ndarray   # (1 + K + J, N, N): I, -F_k, G_j
    u: np.ndarray   # (1 + K + J,): P_T, -a_k, b_j
    k: int          # number of floor rows

    @classmethod
    def build(cls, p: WiretapProblem, t: ConstraintThresholds,
              mode: CsiMode = STATISTICAL) -> ConstraintSet:
        """Statistical CSI: floors (H_k, a) and ceilings (Z_j, b). With
        perfect user CSI the floors become rank-one (h_k h_k*, (2^R_D - 1) N0)
        and the ceiling threshold is re-derived with tail exponent 1/J
        instead of 1/(K+J)."""
        floors, a, b = p.H, t.a, t.b
        if not mode.is_statistical:
            if len(mode.user_channels) != p.K:
                raise ModelError(f"perfect CSI needs {p.K} user channels, "
                                 f"got {len(mode.user_channels)}")
            floors = []
            for h in mode.user_channels:
                h = as_vector(h)
                if h.size != p.N:
                    raise ModelError(f"user channel has dimension {h.size}, expected {p.N}")
                floors.append(np.outer(h, h.conj()))
            a = t.user_power_target
            if p.J:
                b = t.eave_power_target / -math.log(1.0 - (1.0 - p.epsilon) ** (1.0 / p.J))
        A = np.array([np.eye(p.N, dtype=complex), *(-f for f in floors), *p.Z])
        u = np.array([p.P_T, *[-a] * len(floors), *[b] * p.J], dtype=float)
        return cls(A=A, u=u, k=len(floors))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def p_t(self) -> float:
        return float(self.u[0])

    def split(self, y: np.ndarray):
        """(lam, mu, nu) of one multiplier per row."""
        return float(y[0]), y[1:1 + self.k], y[1 + self.k:]

    def duals(self, lam: float, mu, nu) -> DualVariables:
        """The multipliers with their K6 matrix multiplier_matrix(1 + lam, mu, nu)."""
        return DualVariables(lam=lam, mu=mu, nu=nu,
                             Lambda=self.multiplier_matrix(1.0 + lam, mu, nu))

    def check(self, W: np.ndarray, duals: DualVariables) -> None:
        """Raise ModelError unless W is N x N and there is one multiplier per
        floor and per ceiling."""
        if W.shape != (self.n, self.n):
            raise ModelError(f"W has shape {W.shape}, expected ({self.n}, {self.n})")
        if len(duals.mu) != self.k or len(duals.nu) != self.u.size - 1 - self.k:
            raise ModelError("dual multiplier counts do not match the constraint counts")

    def multiplier_matrix(self, c: float, mu, nu) -> np.ndarray:
        """c I + sum_{i>0} y_i A_i = c I - sum_k mu_k F_k + sum_j nu_j G_j,
        symmetrized."""
        out = c * np.eye(self.n, dtype=complex)
        for y_i, a_i in zip((*mu, *nu), self.A[1:]):
            out = out + y_i * a_i
        return (out + out.conj().T) / 2.0

    def floor_combination(self, mu) -> np.ndarray:
        """sum_k mu_k F_k."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for m_k, a_i in zip(mu, self.A[1:]):
            out = out - m_k * a_i
        return out

    def dual_objective(self, lam: float, mu, nu) -> float:
        """-sum_i y_i u_i = -lam P_T + sum_k mu_k a_k - sum_j nu_j b_j: a lower
        bound on Tr W when Lambda is PSD, and the Farkas margin when it is
        built with c = lam."""
        val = -lam * self.p_t
        val -= sum(m_k * u_i for m_k, u_i in zip(mu, self.u[1:1 + self.k]))
        val -= sum(n_j * u_i for n_j, u_i in zip(nu, self.u[1 + self.k:]))
        return val

    def ceiling_bound(self, y: np.ndarray) -> float:
        """The least common ceiling b that the multipliers y (one per row)
        do not prove infeasible: (-lam P_T + sum mu a - max(0, -e) P_T) /
        sum nu, e the least eigenvalue of multiplier_matrix(lam, mu, nu);
        -inf when sum nu <= 0."""
        lam, mu, nu = self.split(y)
        total = float(np.sum(nu))
        if not total > 0.0:
            return -math.inf
        eig_min = float(hermitian_eig(self.multiplier_matrix(lam, mu, nu)).eigenvalues[0])
        return (self.dual_objective(lam, mu, ()) - max(0.0, -eig_min) * self.p_t) / total

    def scalar_identity(self, lam: float, mu, nu, tr_w: float) -> float:
        """|(1+lam) Tr W - sum mu a + sum nu b| / max(1, |(1+lam) Tr W|)."""
        val = (1.0 + lam) * tr_w
        val += float(np.dot(mu, self.u[1:1 + self.k]))
        val += float(np.dot(nu, self.u[1 + self.k:]))
        return abs(val) / max(1.0, abs((1.0 + lam) * tr_w))

    def primal_terms(self, W: np.ndarray, mu, nu, tol: float):
        """Floors and ceilings that W violates by more than tol (relative to
        max(1, |threshold|)), and the complementary-slackness products
        |mu_k (a_k - Tr W F_k)| (K4) and |nu_j (Tr W G_j - b_j)| (K5)."""
        vals = [trace_inner(W, a_i) for a_i in self.A[1:]]
        violations = []
        for i, (val, u_i) in enumerate(zip(vals, self.u[1:])):
            if val > u_i + tol * max(1.0, abs(u_i)):
                violations.append(
                    f"user floor {i} violated: {-val:.6g} < {-u_i:.6g}" if i < self.k else
                    f"eavesdropper ceiling {i - self.k} violated: {val:.6g} > {u_i:.6g}")
        slack = np.array([abs(y_i * (val - u_i))
                          for y_i, val, u_i in zip((*mu, *nu), vals, self.u[1:])])
        return violations, slack[:self.k], slack[self.k:]
