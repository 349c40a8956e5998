"""Test-only oracles, kept out of the package because no command uses them:
a quadratic form, the polar map from uniforms to CN(0, 1) through a complex
exp, an empirical check of the fading law that the Monte Carlo estimators
rest on, the closed-form joint non-outage probability of a beamformer, a
Monte Carlo estimate of a constellation's mutual information, independent
of the package's quadrature, and the quadrature's own mass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from wiretap.linalg import LinalgError, as_matrix, as_vector
from wiretap.mi import Alphabet, MiEvaluator
from wiretap.model import ConstraintThresholds, ModelError, WiretapProblem
from wiretap.montecarlo import ChannelSample, received_powers

# Asymptotic 1% critical constant for the one-sample Kolmogorov-Smirnov
# statistic: reject when D_n * sqrt(n) exceeds it.
KS_CRITICAL_1PCT = 1.6276


def quad_form(w, a) -> float:
    """Re(w* A w) for a Hermitian A."""
    w = as_vector(w)
    a = as_matrix(a)
    if a.shape != (w.size, w.size):
        raise LinalgError(f"dimension mismatch: w has {w.size}, A is {a.shape}")
    return float(np.real(np.vdot(w, a @ w)))


def polar_complex(u: np.ndarray) -> np.ndarray:
    """Uniform pairs (..., 2) to CN(0, 1) as radius * exp(2j pi v), the
    radius sqrt(-log(1 - u)): the map that montecarlo._standard_complex
    computes through the phase's half-angle tangent instead."""
    return np.sqrt(-np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])


def joint_non_outage(p: WiretapProblem, t: ConstraintThresholds, w) -> float:
    """The exact probability, under statistical CSI and independent links,
    that every user's received power |h_k* w|^2 reaches t.user_power_target
    and every eavesdropper's |z_j* w|^2 stays at or below
    t.eave_power_target: each power is exponential with mean w* H w, so it is
    prod_k exp(-a_k / w* H_k w) prod_j (1 - exp(-b_j / w* Z_j w)) with a_k, b_j
    the power targets."""
    users = math.prod(math.exp(-t.user_power_target / quad_form(w, h)) for h in p.H)
    eaves = math.prod(-math.expm1(-t.eave_power_target / quad_form(w, z)) for z in p.Z)
    return users * eaves


@dataclass(frozen=True)
class ExponentialityReport:
    trials: int
    expected_mean: float
    sample_mean: float
    sample_var: float
    mean_rel_err: float
    var_rel_err: float
    stat_band: float        # 5 / sqrt(trials)
    ks_stat: float
    ks_critical: float

    @property
    def mean_ok(self) -> bool:
        return self.mean_rel_err <= self.stat_band

    @property
    def var_ok(self) -> bool:
        return self.var_rel_err <= self.stat_band

    @property
    def ks_ok(self) -> bool:
        return self.ks_stat < self.ks_critical

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.var_ok and self.ks_ok


def exponentiality_check(
    p: WiretapProblem,
    w: np.ndarray,
    samples: Iterable[ChannelSample],
    k_index: int,
) -> ExponentialityReport:
    """Verify |h_k* w|^2 ~ Exp(mean = w* H_k w): moments and a KS test at the
    1% level against the fully specified exponential law."""
    mean_expected = quad_form(w, p.H[k_index])
    if mean_expected <= 0.0:
        raise ModelError("degenerate direction: w* H_k w = 0")
    hp, _ = received_powers(samples, w)
    x = hp[:, k_index]
    n = x.size
    sample_mean = float(np.mean(x))
    sample_var = float(np.var(x))
    # One-sample KS against F(x) = 1 - exp(-x / mean_expected).
    xs = np.sort(x)
    cdf = 1.0 - np.exp(-xs / mean_expected)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    ks = max(d_plus, d_minus)
    return ExponentialityReport(
        trials=n,
        expected_mean=mean_expected,
        sample_mean=sample_mean,
        sample_var=sample_var,
        mean_rel_err=abs(sample_mean - mean_expected) / mean_expected,
        var_rel_err=abs(sample_var - mean_expected**2) / mean_expected**2,
        stat_band=5.0 / math.sqrt(n),
        ks_stat=ks,
        ks_critical=KS_CRITICAL_1PCT / math.sqrt(n),
    )


def mutual_info_mc(alphabet: Alphabet, rho: float, draws: int, seed: int = 0) -> float:
    """Monte Carlo estimate of I(rho): sample-average of the log-likelihood
    ratio over noise draws. Independent of the quadrature path; used as the
    test oracle for the quadrature evaluator."""
    if rho < 0.0:
        raise ModelError(f"rho must be non-negative: {rho}")
    rng = np.random.default_rng(seed)
    sym = alphabet.symbols
    m = sym.size
    total = 0.0
    chunk = 1 << 16
    done = 0
    while done < draws:
        n = min(chunk, draws - done)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        labels = rng.integers(0, m, size=n)
        d = sym[labels, None] - sym[None, :]              # (n, M)
        expo = -rho * np.abs(d) ** 2 - 2.0 * math.sqrt(rho) * (
            noise.real[:, None] * d.real + noise.imag[:, None] * d.imag
        )
        total += float(np.sum(np.log2(np.sum(np.exp(expo), axis=1))))
        done += n
    return math.log2(m) - total / draws


def quadrature_unit_mass(ev: MiEvaluator) -> list[float]:
    """Each quadrature factor's value of its noise-density integral (exactly
    1): the sum of its node weights over the weight function's mass."""
    return [float(np.sum(f.weights)) / f.mass for f in ev._factors]
