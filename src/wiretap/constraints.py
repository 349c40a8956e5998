"""Floor and ceiling constraints of the rank-relaxed problem, and their duals.

    min Tr W  s.t.  W >= 0,  Tr W <= P_T,  Tr(W F_k) >= a_k,  Tr(W G_j) <= b_j.

The only module that knows the signs of the floors and ceilings. With
multipliers lam, mu_k, nu_j, the SDP, the LP route, the Farkas certificate and
the KKT checker all build their dual quantities here: the multiplier matrix
c I - sum mu_k F_k + sum nu_j G_j (c = 1 + lam for the K6 matrix Lambda,
c = lam for a Farkas combination), the dual objective, the scalar identity,
and sum mu_k F_k, whose rank bounds rank(W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, trace_inner
from .model import STATISTICAL, ConstraintThresholds, CsiMode, ModelError, WiretapProblem


@dataclass(frozen=True)
class DualVariables:
    """Multipliers of the rank-relaxed problem: lam for the power budget,
    mu_k for user floors, nu_j for eavesdropper ceilings, Lambda for W >= 0."""

    lam: float
    mu: np.ndarray
    nu: np.ndarray
    Lambda: np.ndarray


def effective_constraints(
    p: WiretapProblem, t: ConstraintThresholds, mode: CsiMode = STATISTICAL
) -> tuple[list[tuple[np.ndarray, float]], list[tuple[np.ndarray, float]]]:
    """Floor/ceiling constraint data (matrix, threshold) for the given CSI mode.

    Statistical CSI: (H_k, a) floors and (Z_j, b) ceilings. With perfect user
    CSI the floors become rank-one (h_k h_k*, (2^R_D - 1) N0) and the ceiling
    threshold is re-derived with tail exponent 1/J instead of 1/(K+J).
    """
    if mode.is_statistical:
        floors = [(h, t.a) for h in p.H]
        ceils = [(z, t.b) for z in p.Z]
        return floors, ceils
    channels = mode.user_channels
    if len(channels) != p.K:
        raise ModelError(f"perfect CSI needs {p.K} user channels, got {len(channels)}")
    floors = []
    for h in channels:
        h = as_vector(h)
        if h.size != p.N:
            raise ModelError(f"user channel has dimension {h.size}, expected {p.N}")
        floors.append((np.outer(h, h.conj()), t.user_power_target))
    if p.J == 0:
        return floors, []
    denom = -math.log(1.0 - (1.0 - p.epsilon) ** (1.0 / p.J))
    b = t.eave_power_target / denom
    return floors, [(z, b) for z in p.Z]


@dataclass(frozen=True)
class ConstraintSet:
    """Effective floors (F_k, a_k), ceilings (G_j, b_j) and power budget P_T
    of one solve, with the dual quantities built from them."""

    n: int
    p_t: float
    floors: list
    ceils: list

    @classmethod
    def build(cls, p: WiretapProblem, t: ConstraintThresholds,
              mode: CsiMode = STATISTICAL) -> ConstraintSet:
        floors, ceils = effective_constraints(p, t, mode)
        return cls(n=p.N, p_t=p.P_T, floors=floors, ceils=ceils)

    def check(self, W: np.ndarray, duals: DualVariables) -> None:
        """Raise ModelError unless W is N x N and there is one multiplier per
        floor and per ceiling."""
        if W.shape != (self.n, self.n):
            raise ModelError(f"W has shape {W.shape}, expected ({self.n}, {self.n})")
        if len(duals.mu) != len(self.floors) or len(duals.nu) != len(self.ceils):
            raise ModelError("dual multiplier counts do not match the constraint counts")

    def multiplier_matrix(self, c: float, mu, nu) -> np.ndarray:
        """c I - sum_k mu_k F_k + sum_j nu_j G_j, symmetrized."""
        out = c * np.eye(self.n, dtype=complex)
        for m_k, (mat, _) in zip(mu, self.floors):
            out = out - m_k * mat
        for n_j, (mat, _) in zip(nu, self.ceils):
            out = out + n_j * mat
        return (out + out.conj().T) / 2.0

    def floor_combination(self, mu) -> np.ndarray:
        """sum_k mu_k F_k."""
        out = np.zeros((self.n, self.n), dtype=complex)
        for m_k, (mat, _) in zip(mu, self.floors):
            out = out + m_k * mat
        return out

    def dual_objective(self, lam: float, mu, nu) -> float:
        """-lam P_T + sum_k mu_k a_k - sum_j nu_j b_j: a lower bound on Tr W
        when Lambda is PSD, and the Farkas margin when it is built with c = lam."""
        val = -lam * self.p_t
        val += sum(m_k * a_k for m_k, (_, a_k) in zip(mu, self.floors))
        val -= sum(n_j * b_j for n_j, (_, b_j) in zip(nu, self.ceils))
        return val

    def scalar_identity(self, lam: float, mu, nu, tr_w: float) -> float:
        """|(1+lam) Tr W - sum mu a + sum nu b| / max(1, |(1+lam) Tr W|)."""
        val = (1.0 + lam) * tr_w
        val -= float(np.dot(mu, [a_k for _, a_k in self.floors])) if self.floors else 0.0
        val += float(np.dot(nu, [b_j for _, b_j in self.ceils])) if self.ceils else 0.0
        return abs(val) / max(1.0, abs((1.0 + lam) * tr_w))

    def primal_terms(self, W: np.ndarray, mu, nu, tol: float):
        """Floors and ceilings that W violates by more than tol (relative to
        max(1, |threshold|)), and the complementary-slackness products
        |mu_k (a_k - Tr W F_k)| (K4) and |nu_j (Tr W G_j - b_j)| (K5)."""
        floor_vals = [trace_inner(W, mat) for mat, _ in self.floors]
        ceil_vals = [trace_inner(W, mat) for mat, _ in self.ceils]
        violations = []
        for k, (val, (_, a_k)) in enumerate(zip(floor_vals, self.floors)):
            if val < a_k - tol * max(1.0, abs(a_k)):
                violations.append(f"user floor {k} violated: {val:.6g} < {a_k:.6g}")
        for j, (val, (_, b_j)) in enumerate(zip(ceil_vals, self.ceils)):
            if val > b_j + tol * max(1.0, abs(b_j)):
                violations.append(f"eavesdropper ceiling {j} violated: {val:.6g} > {b_j:.6g}")
        slack_floors = np.array(
            [abs(m_k * (a_k - val)) for m_k, val, (_, a_k) in zip(mu, floor_vals, self.floors)]
        )
        slack_ceils = np.array(
            [abs(n_j * (val - b_j)) for n_j, val, (_, b_j) in zip(nu, ceil_vals, self.ceils)]
        )
        return violations, slack_floors, slack_ceils
