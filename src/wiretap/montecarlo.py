"""Fading-channel simulation and empirical validation of the outage design.

Channels are drawn as h = B g with B B* = H and g a standard circular complex
Gaussian vector, so h ~ CN(0, H). sample_channels streams them in chunks: one
ChannelSample per block of up to chunk_size trials, holding that block's
(m, K, N) user and (m, J, N) eavesdropper channels. Randomness is
counter-based: trial i always consumes the same fixed-size block of the Philox
stream keyed by the seed, so every trial's channel is reproducible
bit-for-bit no matter how trials are chunked or distributed across workers,
and aggregation is a plain sum.

A channel vector h pairs with a beamformer w through h* w. received_powers
turns each chunk into the received signal powers |h* w|^2 with one batched
product and keeps only those (T, K + J) powers, never the channels. The
estimators work from these power arrays, so a single draw serves the joint
estimate and the per-link estimates alike. Each power is exponentially
distributed with mean w* H w, which exponentiality_check verifies
empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.random import Generator, Philox

from .linalg import psd_project_factor, quad_form
from .model import ConstraintThresholds, ModelError, RatePair, WiretapProblem

# Asymptotic 1% critical constant for the one-sample Kolmogorov-Smirnov
# statistic: reject when D_n * sqrt(n) exceeds it.
KS_CRITICAL_1PCT = 1.6276


@dataclass(frozen=True)
class ChannelSample:
    """A chunk of m fading realizations: h is (m, K, N) and z is (m, J, N), so
    h[i, k] is user k's channel in trial i."""

    h: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class OutageEstimate:
    trials: int
    successes: int

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials

    @property
    def ci_halfwidth(self) -> float:
        p = self.p_hat
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


def _words_per_trial(p: WiretapProblem) -> int:
    need = 2 * (p.K + p.J) * p.N  # two uniforms per complex Gaussian entry
    return ((need + 3) // 4) * 4  # Philox emits 4 words per counter tick


def _standard_complex(u: np.ndarray) -> np.ndarray:
    """Map uniform pairs (..., 2) to CN(0, 1): radius from the exponential
    tail of 1-u (never log of zero), phase uniform."""
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    return radius * np.exp(2j * np.pi * u[..., 1])


def _gaussian_block(p: WiretapProblem, seed: int, start: int, count: int) -> np.ndarray:
    """(count, K+J, N) iid CN(0,1) entries for trials [start, start+count)."""
    wpt = _words_per_trial(p)
    gen = Generator(Philox(key=seed, counter=(start * wpt) // 4))
    u = gen.random(count * wpt).reshape(count, wpt)
    need = 2 * (p.K + p.J) * p.N
    u = u[:, :need].reshape(count, p.K + p.J, p.N, 2)
    return _standard_complex(u)


def sample_channels(
    p: WiretapProblem, seed: int, count: int, chunk_size: int = 8192
) -> Iterator[ChannelSample]:
    """Fading realizations in chunks of up to chunk_size trials, deterministic
    in (seed, trial index)."""
    if count < 0:
        raise ModelError(f"count must be non-negative: {count}")
    if not 0 <= seed < 2**128:
        raise ModelError(f"seed must be in [0, 2**128): {seed}")
    factors = np.stack(
        [psd_project_factor(m) for m in (*p.H, *p.Z)]
    )  # (K+J, N, N)
    k = p.K
    for start in range(0, count, chunk_size):
        m = min(chunk_size, count - start)
        hz = np.einsum("cab,mcb->mca", factors, _gaussian_block(p, seed, start, m))
        yield ChannelSample(h=hz[:, :k], z=hz[:, k:])


def received_powers(samples: Iterable[ChannelSample], w: np.ndarray):
    """(T, K) user and (T, J) eavesdropper received powers |h* w|^2."""
    wc = np.asarray(w, dtype=np.complex128).reshape(-1)
    chunks = [(np.abs(c.h.conj() @ wc) ** 2, np.abs(c.z.conj() @ wc) ** 2) for c in samples]
    if not chunks:
        raise ModelError("empty sample stream")
    hp, zp = zip(*chunks)
    return np.concatenate(hp), np.concatenate(zp)


def _rate_thresholds(p: WiretapProblem, r: RatePair, rate_map) -> tuple[float, float]:
    """Received-power thresholds equivalent to rate >= R_D / rate <= R_D - R_s.

    rate_map is "gaussian" for log2(1 + snr) or a strictly increasing mutual
    information evaluator; monotonicity makes the power comparison exact.
    """
    if rate_map == "gaussian":
        return (2.0 ** r.R_D - 1.0) * p.N0, (2.0 ** r.R_gap - 1.0) * p.N0
    return rate_map.inverse(r.R_D) * p.N0, rate_map.inverse(r.R_gap) * p.N0


def estimate_non_outage(
    p: WiretapProblem,
    r: RatePair,
    w: np.ndarray,
    powers: tuple[np.ndarray, np.ndarray],
    rate_map="gaussian",
) -> OutageEstimate:
    """Empirical probability of the joint event {every user link rate >= R_D
    and every eavesdropper link rate <= R_D - R_s}; powers are the
    received_powers of the beamformer w."""
    if float(np.linalg.norm(w)) ** 2 > p.P_T * (1.0 + 1e-9):
        raise ModelError("beamformer exceeds the power budget")
    u_thr, e_thr = _rate_thresholds(p, r, rate_map)
    hp, zp = powers
    ok = np.all(hp >= u_thr, axis=1) & np.all(zp <= e_thr, axis=1)
    return OutageEstimate(trials=hp.shape[0], successes=int(np.count_nonzero(ok)))


def estimate_individual_probs(
    t: ConstraintThresholds, powers: tuple[np.ndarray, np.ndarray]
) -> tuple[list[OutageEstimate], list[OutageEstimate]]:
    """Per-link estimates of the K + J probabilities the design constrains:
    Pr{|h_k* w|^2 >= (2^R_D - 1) N0} and Pr{|z_j* w|^2 <= (2^(R_D-R_s) - 1) N0},
    from the received_powers of w.

    Each should be >= per_link_prob when w satisfies the quadratic-form
    constraints."""
    hp, zp = powers
    trials = hp.shape[0]
    users = np.count_nonzero(hp >= t.user_power_target, axis=0)
    eaves = np.count_nonzero(zp <= t.eave_power_target, axis=0)
    return ([OutageEstimate(trials=trials, successes=int(n)) for n in users],
            [OutageEstimate(trials=trials, successes=int(n)) for n in eaves])


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
