"""Fading-channel simulation and empirical validation of the outage design.

Channels are drawn as h = B g with B B* = H and g a standard circular complex
Gaussian vector, so h ~ CN(0, H). sample_channels streams them in chunks: one
ChannelSample per block of up to chunk_size trials, holding that block's
(m, K + J, N) draw g and the factor stack B shared by every chunk. Randomness
is counter-based: trial i always consumes the same fixed-size block of the
Philox stream keyed by the seed, so every trial's channel is reproducible
bit-for-bit no matter how trials are chunked or distributed across workers,
and aggregation is a plain sum. Each entry of g is the polar map of one
uniform pair, its phase computed through the half-angle tangent
(_standard_complex).

A channel vector h pairs with a beamformer w through h* w = g* (B* w).
received_powers forms v = B* w once per stream and reduces each chunk of g to
the received signal powers |g* v|^2, keeping only those (T, K + J) powers: no
chunk forms its channels, which ChannelSample derives only when read. The
estimators work from these power arrays, so a single draw serves the joint
estimate and the per-link estimates alike. Each power is exponentially
distributed with mean w* H w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.random import Generator, Philox

from .linalg import psd_project_factor
from .model import ConstraintThresholds, ModelError, WiretapProblem

@dataclass(frozen=True)
class ChannelSample:
    """A chunk of m fading realizations: the CN(0, 1) draw g (m, K + J, N), the
    factor stack B (K + J, N, N) with B_c B_c* the c-th covariance (users
    first), and K. The channels h = B g are derived when read: h is (m, K, N)
    and z is (m, J, N), so h[i, k] is user k's channel in trial i."""

    g: np.ndarray
    B: np.ndarray
    K: int

    @property
    def h(self) -> np.ndarray:
        return np.einsum("cab,mcb->mca", self.B[: self.K], self.g[:, : self.K])

    @property
    def z(self) -> np.ndarray:
        return np.einsum("cab,mcb->mca", self.B[self.K :], self.g[:, self.K :])


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
    tail of 1-u (never log of zero), phase theta = 2 pi v uniform.

    The phase goes through its half-angle tangent t = tan(pi (v - rint(v))),
    the argument reduced exactly to [-pi/2, pi/2] (|t| < 1.7e16, so t^2 is
    finite): cos theta = 2 / (1 + t^2) - 1 and sin theta = 2 t / (1 + t^2).
    NumPy's float64 tan is vectorised where its complex exp, and its float64
    cos and sin, run one element at a time (with NumPy 2.4 on an AVX-512 x86
    core, cos and sin of 1e6 angles take 4 to 5 times tan's time); the maps
    agree to a few ulps of the radius. Each part is written in place into
    the real and imaginary halves of the one complex result."""
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    v = u[..., 1]
    t = np.rint(v)
    np.subtract(v, t, out=t)
    t *= np.pi
    np.tan(t, out=t)
    c = np.multiply(t, t)
    c += 1.0
    np.divide(2.0, c, out=c)  # 1 + cos theta
    t *= c                    # sin theta
    c -= 1.0                  # cos theta
    g = np.empty(radius.shape, dtype=np.complex128)
    np.multiply(radius, c, out=g.real)
    np.multiply(radius, t, out=g.imag)
    return g


def _gaussian_block(p: WiretapProblem, seed: int, start: int, count: int) -> np.ndarray:
    """(count, K+J, N) iid CN(0,1) entries for trials [start, start+count)."""
    wpt = _words_per_trial(p)
    gen = Generator(Philox(key=seed, counter=(start * wpt) // 4))
    u = gen.random(count * wpt).reshape(count, wpt)
    need = 2 * (p.K + p.J) * p.N
    u = u[:, :need].reshape(count, p.K + p.J, p.N, 2)
    return _standard_complex(u)


def check_sampling(seed: int, count: int, chunk_size: int = 1) -> None:
    """Raise ModelError unless seed is a Philox key in [0, 2**128), count >= 0
    and chunk_size >= 1."""
    if count < 0:
        raise ModelError(f"count must be non-negative: {count}")
    if not 0 <= seed < 2**128:
        raise ModelError(f"seed must be in [0, 2**128): {seed}")
    if chunk_size < 1:
        raise ModelError(f"chunk_size must be at least 1: {chunk_size}")


def sample_channels(
    p: WiretapProblem, seed: int, count: int, chunk_size: int = 8192
) -> Iterator[ChannelSample]:
    """Fading realizations in chunks of up to chunk_size trials, deterministic
    in (seed, trial index). The arguments are checked at the call, not at the
    first chunk drawn."""
    check_sampling(seed, count, chunk_size)
    return _chunks(p, seed, count, chunk_size)


def _chunks(p: WiretapProblem, seed: int, count: int, chunk_size: int) -> Iterator[ChannelSample]:
    factors = np.stack(
        [psd_project_factor(m) for m in (*p.H, *p.Z)]
    )  # (K+J, N, N)
    for start in range(0, count, chunk_size):
        m = min(chunk_size, count - start)
        yield ChannelSample(g=_gaussian_block(p, seed, start, m), B=factors, K=p.K)


def received_powers(samples: Iterable[ChannelSample], w: np.ndarray):
    """(T, K) user and (T, J) eavesdropper received powers |h* w|^2, reduced
    per trial as |g* v_c|^2 with v_c = B_c* w formed once per stream."""
    wc = np.asarray(w, dtype=np.complex128).reshape(-1)
    v_conj = None  # conj(B_c* w) per link c, since |g* v| = |g^T conj(v)|
    chunks = []
    for c in samples:
        if v_conj is None:
            v_conj = np.einsum("cab,a->cb", c.B, wc.conj())
        chunks.append(np.abs(np.einsum("mcb,cb->mc", c.g, v_conj)) ** 2)
    if not chunks:
        raise ModelError("empty sample stream")
    powers = np.concatenate(chunks)
    return powers[:, : c.K], powers[:, c.K :]


def estimate_non_outage(
    p: WiretapProblem,
    t: ConstraintThresholds,
    w: np.ndarray,
    powers: tuple[np.ndarray, np.ndarray],
) -> OutageEstimate:
    """Empirical probability of the joint event {every user link rate >= R_D
    and every eavesdropper link rate <= R_D - R_s}, t being the solve's
    thresholds at (R_D, R_s): rates rise with received power, so these are
    the powers t.user_power_target and t.eave_power_target. powers are the
    received_powers of the beamformer w."""
    if float(np.linalg.norm(w)) ** 2 > p.P_T * (1.0 + 1e-9):
        raise ModelError("beamformer exceeds the power budget")
    hp, zp = powers
    ok = np.all(hp >= t.user_power_target, axis=1) & np.all(zp <= t.eave_power_target, axis=1)
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
