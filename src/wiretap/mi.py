"""Mutual information of equiprobable complex constellations in Gaussian noise.

For a unit-energy, zero-mean alphabet {a_1 .. a_M} observed as
y = sqrt(rho) a + n with n ~ CN(0, 1), the per-symbol mutual information is

    I(rho) = log2 M - (1/M) sum_l E_n[ log2 sum_m exp(-|n + sqrt(rho) d_lm|^2
                                                      + |n|^2) ],

with d_lm = a_l - a_m. The expectation over the complex Gaussian noise is a
2-D integral with weight exp(-|n|^2)/pi, evaluated by Gauss-Hermite product
quadrature over the real and imaginary parts: the integrand is smooth, so a
32-node rule is already at spectral accuracy. I is strictly increasing and
concave in rho and saturates at log2 M.

A product alphabet, whose symbols are exactly {p + iq : p in P, q in Q} with
each point once (square QAM, QPSK, BPSK), splits: the real and imaginary
noise components are independent N(0, 1/2), so the inner sum factors over
the two axes and I(rho) = I_P(rho) + I_Q(rho) exactly, each a real PAM
alphabet's MI, a 1-D integral with weight exp(-x^2)/sqrt(pi) over that axis's
differences. An axis with one level (BPSK's imaginary one) carries no
information and is dropped. In exact arithmetic the 2-D product rule equals
the sum of the 1-D rules; 16-QAM takes 2 M_P^2 Q = 1024 exponentials instead
of M^2 Q^2 = 262144. Detection is exact float equality on the symbols, so any
other alphabet (8-PSK, a nudged or cross QAM) keeps the 2-D rule. Either way
the evaluator holds one table per independent factor, a complex one or one or
two real ones, and sums them through one expression.

Its inverse, model.invert_monotone_rate, is a bisection that answers probes
outside a bracket I(a) <= R - margin, I(b) >= R + margin without a quadrature,
bit for bit while the margin exceeds twice a quadrature's rounding. A factor
of m levels on G nodes (G = Q^2 for the complex factor, Q for an axis) sums
m G nonnegative terms w_g inner_lg (each inner sum holds the term 1 of its
own level) whose total is at most m c log2 m, c the weight's mass (pi or
sqrt(pi)). So any summation order errs by at most m G u log2 m bits
(u = 2^-53), and a quadrature's bound is the sum over its factors: 2.7e-12
for 8-PSK, 7.3e-12 for a 16-point alphabet on the 2-D rule, and 5.7e-14 for
16-QAM's two 4-level axes. Roundings within a summand add a few u each:
against extended precision (rho 1e-4..300), the total error stays below
4e-15 bits on the 2-D rule for 8-PSK and a random 64-point alphabet, and
below 2e-15 on the per-axis rule for BPSK, QPSK, 16-QAM, 64-QAM and random
products of up to 6 x 6 levels. The 2-D rule reached 4.4e-15 on some random
36-point products at rho 1e-4, where log2 M - avg cancels. The margin is
1e-10 bits, or ten times the bound if larger, so it exceeds twice the bound
for every alphabet; 16-QAM's is 1760 times its bound.

A sweep row inverts R_D four or five times (grid check, epigraph, final
solve) and R_D - R_s once, so each evaluator memoizes rate(rho) for its
lifetime. The row's bisection probes make no inversion: they are decided in
rate space (sdp.rate_bracket).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .model import ModelError, RateUnachievableError, invert_monotone_rate
from .probfile import ProblemFileError, _complex_from_pair, _list


@dataclass(frozen=True)
class Alphabet:
    """Equiprobable complex symbol set with E[x] = 0 and E[|x|^2] = 1."""

    symbols: np.ndarray
    name: str = ""

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.complex128).reshape(-1)
        if sym.size < 2:
            raise ModelError("an alphabet needs at least two symbols")
        if not np.all(np.isfinite(sym)):
            raise ModelError("alphabet contains non-finite symbols")
        if abs(np.mean(sym)) > 1e-12:
            raise ModelError(f"alphabet mean {np.mean(sym):.3e} is not zero")
        if abs(np.mean(np.abs(sym) ** 2) - 1.0) > 1e-12:
            raise ModelError("alphabet average energy is not one")
        d = np.abs(sym[:, None] - sym[None, :]) + np.eye(sym.size)
        if np.min(d) <= 1e-12:
            raise ModelError("alphabet symbols are not pairwise distinct")
        sym.flags.writeable = False
        object.__setattr__(self, "symbols", sym)

    @property
    def M(self) -> int:
        return self.symbols.size


def _normalized(points, name: str, warn_above: float = 1e-9) -> Alphabet:
    sym = np.asarray(points, dtype=np.complex128).reshape(-1)
    centered = sym - np.mean(sym)
    energy = math.sqrt(float(np.mean(np.abs(centered) ** 2)))
    if energy == 0.0:
        raise ModelError("degenerate alphabet: all symbols identical")
    adjusted = centered / energy
    shift = float(np.max(np.abs(adjusted - sym)))
    if shift > warn_above:
        warnings.warn(
            f"alphabet '{name}' renormalized to zero mean / unit energy "
            f"(max symbol adjustment {shift:.3e})",
            stacklevel=3,
        )
    return Alphabet(symbols=adjusted, name=name)


def bpsk() -> Alphabet:
    return Alphabet(np.array([1.0, -1.0], dtype=complex), name="bpsk")


def qpsk() -> Alphabet:
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
    return Alphabet(pts, name="qpsk")


def psk8() -> Alphabet:
    pts = np.exp(2j * np.pi * np.arange(8) / 8.0)
    return Alphabet(pts, name="8psk")


def qam16() -> Alphabet:
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel() / math.sqrt(10.0)
    return Alphabet(pts, name="16qam")


BUILTIN_ALPHABETS = {
    "bpsk": bpsk,
    "qpsk": qpsk,
    "8psk": psk8,
    "16qam": qam16,
}


def load_alphabet(source) -> Alphabet:
    """Alphabet from a built-in name, a list of [re, im] pairs, or a JSON file
    containing such a list. Loaded symbol sets are normalized to zero mean and
    unit energy, with a warning when the adjustment exceeds 1e-9. A file that
    is not JSON raises ModelError."""
    if isinstance(source, str):
        key = source.lower()
        if key in BUILTIN_ALPHABETS:
            return BUILTIN_ALPHABETS[key]()
        with open(source, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ModelError(f"alphabet file {source} is not valid JSON: {exc}") from exc
        return load_alphabet(data)
    try:
        pts = [_complex_from_pair(pair, f"alphabet[{i}]")
               for i, pair in enumerate(_list(source, "alphabet"))]
    except ProblemFileError as exc:
        raise ModelError(f"alphabet entries must be [re, im] pairs: {exc}") from exc
    return _normalized(pts, name="custom")


@dataclass(frozen=True)
class _Factor:
    """One independent factor of the quadrature over G nodes: the squared
    differences of its m levels (m, m, 1), Re(conj(theta) d) at the nodes
    theta (m, m, G), the node weights (G,), and the weight function's mass,
    pi on the complex plane or sqrt(pi) on a real axis."""

    d_abs2: np.ndarray
    cross: np.ndarray
    weights: np.ndarray
    mass: float

    @property
    def m(self) -> int:
        return self.d_abs2.shape[0]


def _factors(symbols: np.ndarray) -> tuple[_Factor, ...]:
    """One real factor per axis with more than one level when the symbols are
    the product of their distinct real and imaginary parts; else one complex
    factor on the 2-D node grid."""
    x, w = hermgauss(32)                                  # nodes per axis
    re, im = np.unique(symbols.real), np.unique(symbols.imag)
    # Alphabet keeps the symbols distinct, so M of the |P| |Q| pairs p + iq
    # are all of them, each once.
    if re.size * im.size == symbols.size:
        diffs = [lv[:, None] - lv[None, :] for lv in (re, im) if lv.size > 1]
        return tuple(_Factor((d**2)[:, :, None], x * d[:, :, None], w, math.sqrt(math.pi))
                     for d in diffs)
    d = symbols[:, None] - symbols[None, :]               # (M, M)
    # theta = x[q1] + i x[q2], flattened to g = 32 q1 + q2.
    cross = (x[None, None, :, None] * d.real[:, :, None, None]
             + x[None, None, None, :] * d.imag[:, :, None, None])
    m = symbols.size
    return (_Factor((np.abs(d) ** 2)[:, :, None], cross.reshape(m, m, -1),
                    (w[:, None] * w[None, :]).ravel(), math.pi),)


class MiEvaluator:
    """Precomputed quadrature tables for one alphabet and a memo rho -> bits
    of every rate computed. Safe to share across threads: a memo key only ever
    maps to its one deterministic value. Instances are callable: ev(rho) -> bits."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._factors = _factors(alphabet.symbols)
        # inverse()'s margin: ten times the factors' summed rounding bound
        # (module docstring).
        self._margin = max(1e-10, sum(10.0 * f.m * f.weights.size * 2.0**-53 * math.log2(f.m)
                                      for f in self._factors))
        self._memo: dict[float, float] = {}               # rho -> bits

    @property
    def max_rate(self) -> float:
        return math.log2(self.alphabet.M)

    def __call__(self, rho: float) -> float:
        return self.rate(rho)

    def rate(self, rho: float) -> float:
        if not (rho >= 0.0 and math.isfinite(rho)):
            raise ModelError(f"rho must be finite and non-negative: {rho}")
        if rho == 0.0:
            return 0.0
        bits = self._memo.get(rho)
        if bits is not None:
            return bits
        # Per factor: exponent of exp(-|theta + sqrt(rho) d|^2 + |theta|^2);
        # the m = l term is exactly 0, so the inner sum is >= 1 and saturation
        # underflows harmlessly. One buffer, same operations in the same order
        # as -rho * |d|^2 - 2 sqrt(rho) * cross, so the same bits. Near the
        # float range rho |d|^2 overflows to -inf, which exp maps to the same 0.
        scale = 2.0 * math.sqrt(rho)
        bits = 0.0
        for f in self._factors:
            expo = np.multiply(scale, f.cross)
            with np.errstate(over="ignore"):
                far = -rho * f.d_abs2
            np.subtract(far, expo, out=expo)
            np.exp(expo, out=expo)
            inner = np.log2(np.sum(expo, axis=1))         # (m, G)
            avg = float(np.einsum("lg,g->", inner, f.weights)) / (f.m * f.mass)
            bits += math.log2(f.m) - avg
        self._memo[rho] = bits
        return bits

    def inverse(self, rate: float) -> float:
        """rho with rate(rho) = rate to within 1e-8 bits, by bracketed
        bisection (model.invert_monotone_rate).

        I saturates below log2 M only asymptotically, so rates too close to
        capacity are rejected as unachievable within numeric range.
        """
        if rate >= self.max_rate:
            raise RateUnachievableError(
                f"rate {rate} unachievable: alphabet capacity is {self.max_rate}"
            )
        return invert_monotone_rate(self.rate, rate, self._margin)
