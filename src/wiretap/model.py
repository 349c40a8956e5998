"""Wiretap problem instances and outage-to-quadratic-form threshold conversion.

A problem instance bundles the channel statistics (user covariances H_k,
eavesdropper covariances Z_j), the noise power, the total power budget and the
outage tolerance. Given a target (R_D, R_s) pair, the K + J per-link outage
constraints reduce to deterministic quadratic-form constraints

    w* H_k w >= a      for every user k,
    w* Z_j w <= b      for every eavesdropper j,

because |h_k w|^2 and |z_j w|^2 are exponentially distributed. This module
computes (a, b) for Gaussian inputs and for finite-alphabet inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    LinalgError,
    as_vector,
    hermitian_eig,
    hermitian_part,
)


class ModelError(ValueError):
    """Raised for inputs that violate a documented precondition."""


class RateUnachievableError(ModelError):
    """Requested rate is at or above what the input alphabet can carry, or
    its received-power threshold is not a finite number."""


def _ingest_covariances(mats, n: int, label: str) -> tuple[np.ndarray, ...]:
    out = []
    for i, m in enumerate(mats):
        m = hermitian_part(m)  # JSON round-trips may break exact symmetry
        if m.shape != (n, n):
            raise ModelError(f"{label}[{i}] has shape {m.shape}, expected ({n}, {n})")
        m.flags.writeable = False
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class WiretapProblem:
    """Instance data: K users, J non-colluding eavesdroppers, N transmit antennas.

    Covariances are symmetrized on ingestion and stored read-only. Instances
    are immutable and may be shared freely across worker threads.
    """

    H: tuple[np.ndarray, ...]  # K user channel covariances, N x N Hermitian PSD
    Z: tuple[np.ndarray, ...]  # J eavesdropper channel covariances
    N0: float = 1.0            # noise power, linear
    epsilon: float = 0.1       # outage tolerance, in (0, 1)
    P_T: float = 1.0           # total transmit power budget, linear

    def __post_init__(self):
        if len(self.H) < 1:
            raise ModelError("at least one user covariance is required")
        n = np.asarray(self.H[0]).shape[0]
        object.__setattr__(self, "H", _ingest_covariances(self.H, n, "H"))
        object.__setattr__(self, "Z", _ingest_covariances(self.Z, n, "Z"))
        object.__setattr__(self, "N0", float(self.N0))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "P_T", float(self.P_T))

    @property
    def N(self) -> int:
        return self.H[0].shape[0]

    @property
    def K(self) -> int:
        return len(self.H)

    @property
    def J(self) -> int:
        return len(self.Z)

    @functools.cached_property
    def diagonal(self) -> bool:
        """Whether every H_k and Z_j is diagonal (diag_lp.all_diagonal), the
        condition of the LP route. Computed once per instance, which is
        immutable."""
        from .diag_lp import all_diagonal
        return all_diagonal(self)


@dataclass(frozen=True)
class RatePair:
    """Target code rate R_D and secrecy rate R_s, bits per channel use."""

    R_D: float
    R_s: float

    def __post_init__(self):
        if not (math.isfinite(self.R_D) and self.R_D >= self.R_s >= 0.0):
            raise ModelError(f"need finite R_D >= R_s >= 0, got R_D={self.R_D}, R_s={self.R_s}")

    @property
    def R_gap(self) -> float:
        """Rate sacrificed to confuse eavesdroppers."""
        return self.R_D - self.R_s


@dataclass(frozen=True)
class ConstraintThresholds:
    """Deterministic thresholds equivalent to the per-link outage constraints.

    user_power_target / eave_power_target are the raw received-power
    thresholds ((2^R - 1) N0, or I^{-1}(R) N0 for finite alphabets) before the
    exponential-tail inversion; they are what the perfect-CSI constraint swap
    and the Monte Carlo per-link estimators need.
    """

    a: float               # floor on w* H_k w
    b: float               # ceiling on w* Z_j w
    per_link_prob: float   # (1 - epsilon)^(1/(K+J))
    user_power_target: float
    eave_power_target: float


@dataclass(frozen=True)
class CsiMode:
    """Statistical CSI (default) or perfectly known user channels.

    With perfect user CSI the user outage constraints collapse to
    deterministic floors Tr(W h_k* h_k) >= user_power_target and the
    eavesdropper tail exponent tightens from 1/(K+J) to 1/J.
    """

    user_channels: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.user_channels is not None:
            vecs = tuple(as_vector(h) for h in self.user_channels)
            for v in vecs:
                v.flags.writeable = False
            object.__setattr__(self, "user_channels", vecs)

    @property
    def is_statistical(self) -> bool:
        return self.user_channels is None


STATISTICAL = CsiMode()


def perfect_users(channels) -> CsiMode:
    return CsiMode(user_channels=tuple(channels))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def validate_problem(p: WiretapProblem) -> ValidationReport:
    """Check every instance invariant; collects violations instead of raising."""
    v: list[str] = []
    if p.K < 1:
        v.append("at least one user is required (K >= 1)")
    if p.N < 1:
        v.append("at least one antenna is required (N >= 1)")
    if not (0.0 < p.epsilon < 1.0):
        v.append(f"epsilon out of range (0, 1): {p.epsilon}")
    if not 0.0 < p.P_T < math.inf:
        v.append(f"power budget must be positive and finite: {p.P_T}")
    if not 0.0 < p.N0 < math.inf:
        v.append(f"noise power must be positive and finite: {p.N0}")
    for label, mats in (("H", p.H), ("Z", p.Z)):
        for i, m in enumerate(mats):
            try:
                vals, _ = hermitian_eig(m)
            except LinalgError as exc:
                v.append(f"{label}[{i}]: {exc}")
                continue
            lam_max = float(vals[-1])
            if float(vals[0]) < -DEFAULT_PSD_TOL * max(1.0, lam_max):
                v.append(f"{label}[{i}]: covariance not PSD (min eigenvalue {vals[0]:.3e})")
    return ValidationReport(ok=not v, violations=tuple(v))


def _tail_denominators(p: WiretapProblem) -> tuple[float, float, float]:
    """per-link probability and the two exponential-tail log factors."""
    links = p.K + p.J
    if links < 1:
        raise ModelError("K + J must be at least 1")
    per_link = (1.0 - p.epsilon) ** (1.0 / links)
    # Pr{Exp(m) >= c} >= per_link  <=>  m >= c / denom_user
    denom_user = -math.log(1.0 - p.epsilon) / links
    # Pr{Exp(m) <= c} >= per_link  <=>  m <= c / denom_eave
    denom_eave = -math.log(1.0 - per_link)
    return per_link, denom_user, denom_eave


def eave_denominator(p: WiretapProblem, mode: CsiMode = STATISTICAL) -> float:
    """d in the common ceiling b = eave_power_target / d: the tail factor
    -ln(1 - (1-eps)^(1/(K+J))) with statistical CSI, and with exponent 1/J
    once perfect user CSI leaves only the J eavesdropper links random."""
    if mode.is_statistical:
        return _tail_denominators(p)[2]
    return -math.log(1.0 - (1.0 - p.epsilon) ** (1.0 / p.J))


def _thresholds(p: WiretapProblem, c_user: float, c_eave: float) -> ConstraintThresholds:
    """The thresholds of the received-power targets c_user and c_eave;
    RateUnachievableError unless a and b are finite."""
    per_link, denom_user, denom_eave = _tail_denominators(p)
    a, b = c_user / denom_user, c_eave / denom_eave
    if not (math.isfinite(a) and math.isfinite(b)):
        raise RateUnachievableError(f"the rates' thresholds are not finite: a = {a}, b = {b}")
    return ConstraintThresholds(a=a, b=b, per_link_prob=per_link,
                                user_power_target=c_user, eave_power_target=c_eave)


def thresholds_gaussian(p: WiretapProblem, r: RatePair) -> ConstraintThresholds:
    """Thresholds (a, b) for a circular Gaussian input codebook.

    a = (2^R_D - 1) N0 / (-ln (1-eps)^(1/(K+J)))
    b = (2^(R_D - R_s) - 1) N0 / (-ln (1 - (1-eps)^(1/(K+J))))
    """
    try:
        c_user = (2.0 ** r.R_D - 1.0) * p.N0
        c_eave = (2.0 ** r.R_gap - 1.0) * p.N0
    except OverflowError:
        raise RateUnachievableError(f"2^R_D overflows at R_D = {r.R_D}") from None
    return _thresholds(p, c_user, c_eave)


# The regula falsi runs only when both ends of the doubling miss the rate by
# this many margins. A bracket spares only the bisection probes that miss it
# by a margin or more, about log2(min(-f_lo, f_hi) / margin) of them; below
# 2^14 margins, on the flat top of I near capacity, the regula falsi and its
# confirmations cost more (17 evaluations at capacity - 1e-9, where the ends
# miss by about 10 margins).
_PAYBACK_MARGINS = 2.0**14


def _rate_bracket(mi, rate, lo, f_lo, hi, f_hi, margin) -> tuple[float, float]:
    """(a, b) with mi(a) <= rate - margin and mi(b) >= rate + margin, from
    f_lo = mi(lo) <= rate < mi(hi) = f_hi; -inf (a) or inf (b) where the
    evaluation does not confirm it."""
    f_lo, f_hi = f_lo - rate, f_hi - rate
    if min(-f_lo, f_hi) < _PAYBACK_MARGINS * margin:
        # Bisection is cheaper: keep the ends that the evaluations confirm.
        return lo if f_lo <= -margin else -math.inf, hi if f_hi >= margin else math.inf
    g_lo, g_hi, side = f_lo, f_hi, 0     # Illinois: an end kept twice is halved
    x, fx = hi, f_hi
    for _ in range(100):
        if abs(fx) <= 0.5 * margin:
            break
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo) if g_hi != g_lo else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = mi(x) - rate
        if fx < 0.0:
            lo, f_lo, g_lo, g_hi = x, fx, fx, g_hi * (0.5 if side < 0 else 1.0)
            side = -1
        else:
            hi, f_hi, g_hi, g_lo = x, fx, fx, g_lo * (0.5 if side > 0 else 1.0)
            side = 1
    # Step off x by twice the margin on the chord's slope, and widen the step
    # up to three times.
    step = 2.0 * margin * (hi - lo) / (f_hi - f_lo) if f_hi > f_lo else math.inf

    def confirm(sign: float) -> float:
        for k in range(4):
            y = x + sign * step * 4.0 ** k
            if not 0.0 <= y < math.inf:
                break
            if sign * (mi(y) - rate) >= margin:
                return y
        return sign * math.inf

    if not step < math.inf:
        return -math.inf, math.inf
    return confirm(-1.0), confirm(1.0)


def invert_monotone_rate(mi, rate: float, margin: float = 1e-10) -> float:
    """Invert a strictly increasing rate function to 1e-8 bits by doubling + bisection.

    Works for any callable rho -> bits with mi(0) = 0. Raises
    RateUnachievableError if no rho <= 1e9 reaches the requested rate.

    Regula falsi first finds a < b with mi(a) <= rate - margin <= rate + margin
    <= mi(b) (the doubling's own ends where it cannot pay for itself,
    _PAYBACK_MARGINS); a probe at or below a is then below the rate, and one
    at or above b is not, without a call. If mi is within d of a
    nondecreasing function and margin > 2d, those answers, and so the
    result, are plain bisection's bit for bit. The default margin is over
    10x the rounding bound of one 16-QAM quadrature (wiretap.mi).
    """
    if rate < 0.0:
        raise ModelError(f"rate must be non-negative: {rate}")
    if rate == 0.0:
        return 0.0
    lo, f_lo, hi = 0.0, 0.0, 1.0
    while (f_hi := mi(hi)) <= rate:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > 1e9:
            raise RateUnachievableError(
                f"rate {rate} not reached by the input model within numeric range"
            )
    a, b = _rate_bracket(mi, rate, lo, f_lo, hi, f_hi, margin)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and mi(mid) < rate):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi) and abs(mi(hi) - rate) <= 1e-8:
            break
    return hi


def thresholds_finite_alphabet(p: WiretapProblem, r: RatePair, mi) -> ConstraintThresholds:
    """Thresholds with 2^x - 1 replaced by the inverse mutual information I^{-1}(x).

    ``mi`` is a callable rho -> bits; an MiEvaluator (which also exposes
    ``inverse`` and ``max_rate``) is used directly. Rates at or above the
    alphabet capacity log2 M are rejected.
    """
    max_rate = getattr(mi, "max_rate", None)
    if max_rate is not None and r.R_D >= max_rate:
        raise RateUnachievableError(
            f"R_D = {r.R_D} is unachievable by an alphabet with capacity {max_rate}"
        )
    inverse = getattr(mi, "inverse", lambda rate: invert_monotone_rate(mi, rate))
    return _thresholds(p, inverse(r.R_D) * p.N0, inverse(r.R_gap) * p.N0)
