"""The constraint rows of the rank-relaxed problem, and their duals.

    min Tr W  s.t.  W >= 0,  Tr W <= P_T,  Tr(W F_k) >= a_k,  Tr(W G_j) <= b_j.

ConstraintSet.build stacks these as one list of signed rows Re Tr(A_i W) <=
u_i: A = (I, -F_k, G_j) and u = (P_T, -a_k, b_j). It is the only place that
applies the floor sign. The multipliers are stacked the same way, one per
row: y = (lam, mu_k, nu_j). The SDP barrier, the LP route, the Farkas
certificate and the KKT checker all build their dual quantities from (A, u)
and y as array operations: the row values Re Tr(A_i W), the combination
sum_i y_i A_i (a Farkas combination, and with I added the K6 matrix Lambda),
the dual objective -y.u, the Farkas test and the ceiling bound derived from
it, the scalar identity and the complementary-slackness products. split and
stack convert y to and from the (lam, mu, nu) of the public records, and
ConstraintSet.duals is the only place a solve's DualVariables, with its
Lambda, is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_vector, hermitian_eig, trace_inner
from .model import (
    STATISTICAL,
    ConstraintThresholds,
    CsiMode,
    ModelError,
    WiretapProblem,
    eave_denominator,
)


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
        instead of 1/(K+J) (model.eave_denominator)."""
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
                b = t.eave_power_target / eave_denominator(p, mode)
        A = np.array([np.eye(p.N, dtype=complex), *(-f for f in floors), *p.Z])
        u = np.array([p.P_T, *[-a] * len(floors), *[b] * p.J], dtype=float)
        return cls(A=A, u=u, k=len(floors))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def p_t(self) -> float:
        return float(self.u[0])

    @property
    def floors(self) -> np.ndarray:
        """Mask of the floor rows."""
        return (np.arange(self.u.size) > 0) & ~self.ceilings

    @property
    def ceilings(self) -> np.ndarray:
        """Mask of the ceiling rows."""
        return np.arange(self.u.size) > self.k

    @property
    def nonzero(self) -> np.ndarray:
        """Mask of the rows whose A_i is not all zero. A zero row holds for
        every W when u_i >= 0, so it is vacuous; when u_i < 0 it holds for
        none (sdp._unreachable_row)."""
        return np.linalg.norm(self.A, axis=(1, 2)) > 0.0

    def without_ceilings(self) -> ConstraintSet:
        """The budget and floor rows alone."""
        return ConstraintSet(A=self.A[:1 + self.k], u=self.u[:1 + self.k], k=self.k)

    def with_ceiling(self, b: float) -> ConstraintSet:
        """The same rows with every ceiling threshold set to b."""
        return replace(self, u=np.where(self.ceilings, b, self.u))

    def split(self, y: np.ndarray):
        """(lam, mu, nu) of one multiplier per row."""
        return float(y[0]), y[1:1 + self.k], y[1 + self.k:]

    def stack(self, duals: DualVariables) -> np.ndarray:
        """The y of a DualVariables record; ModelError unless it has one
        multiplier per floor and per ceiling."""
        mu, nu = np.atleast_1d(duals.mu), np.atleast_1d(duals.nu)
        if mu.size != self.k or nu.size != self.u.size - 1 - self.k:
            raise ModelError("dual multiplier counts do not match the constraint counts")
        return np.concatenate([[duals.lam], mu, nu]).astype(float)

    def duals(self, y: np.ndarray) -> DualVariables:
        """The multipliers y with their K6 matrix Lambda = I + combination(y).
        As A_0 = I, that is the combination with lam raised by one."""
        lam, mu, nu = self.split(y)
        return DualVariables(lam=lam, mu=mu, nu=nu,
                             Lambda=self.combination(np.r_[1.0 + lam, y[1:]]))

    def values(self, W: np.ndarray) -> np.ndarray:
        """Re Tr(A_i W) of every row."""
        return np.real(np.einsum("mij,ij->m", self.A.conj(), W))

    def combination(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i = lam I - sum_k mu_k F_k + sum_j nu_j G_j, symmetrized."""
        out = np.einsum("m,mij->ij", y, self.A)
        return (out + out.conj().T) / 2.0

    def dual_objective(self, y: np.ndarray) -> float:
        """-y.u = -lam P_T + sum_k mu_k a_k - sum_j nu_j b_j: a lower bound on
        Tr W when Lambda is PSD."""
        return -float(np.dot(y, self.u))

    def farkas(self, y: np.ndarray) -> tuple[float, float]:
        """(e, -y.u - max(0, -e) P_T), e the least eigenvalue of
        combination(y). For y >= 0 every feasible W has Re Tr(combination(y)
        W) <= y.u, and >= min(0, e) Tr W >= -max(0, -e) P_T: a value > 0
        proves that no feasible W exists (the Farkas certificate)."""
        eig_min = float(hermitian_eig(self.combination(y)).eigenvalues[0])
        return eig_min, self.dual_objective(y) - max(0.0, -eig_min) * self.p_t

    def ceiling_bound(self, y: np.ndarray) -> float:
        """The least common ceiling b that y does not prove infeasible: the
        farkas value falls by b sum nu as every ceiling rises to b, so it is
        the value at b = 0 over sum nu; -inf when sum nu <= 0."""
        total = float(np.sum(y[self.ceilings]))
        if not total > 0.0:
            return -math.inf
        return self.with_ceiling(0.0).farkas(y)[1] / total

    def scalar_identity(self, y: np.ndarray, tr_w: float) -> float:
        """|(1+lam) Tr W - sum mu a + sum nu b| / max(1, |(1+lam) Tr W|)."""
        lam, mu, nu = self.split(y)
        val = (1.0 + lam) * tr_w
        val += float(np.dot(mu, self.u[1:1 + self.k]))
        val += float(np.dot(nu, self.u[1 + self.k:]))
        return abs(val) / max(1.0, abs((1.0 + lam) * tr_w))

    def primal_terms(self, W: np.ndarray, y: np.ndarray, tol: float):
        """Floors and ceilings that W violates by more than tol (relative to
        max(1, |threshold|)), and the complementary-slackness products
        |mu_k (a_k - Tr W F_k)| (K4) and |nu_j (Tr W G_j - b_j)| (K5)."""
        vals = np.array([trace_inner(W, a_i) for a_i in self.A[1:]])
        violations = []
        for i, (val, u_i) in enumerate(zip(vals, self.u[1:])):
            if val > u_i + tol * max(1.0, abs(u_i)):
                violations.append(
                    f"user floor {i} violated: {-val:.6g} < {-u_i:.6g}" if i < self.k else
                    f"eavesdropper ceiling {i - self.k} violated: {val:.6g} > {u_i:.6g}")
        slack = np.abs(y[1:] * (vals - self.u[1:]))
        return violations, slack[:self.k], slack[self.k:]
