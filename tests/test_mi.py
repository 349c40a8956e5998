import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from oracles import mutual_info_mc, quadrature_unit_mass
from wiretap import model
from wiretap.mi import (
    BUILTIN_ALPHABETS,
    Alphabet,
    MiEvaluator,
    bpsk,
    load_alphabet,
    psk8,
    qam16,
    qpsk,
)
from wiretap.model import ModelError, RateUnachievableError


class TestAlphabets:
    @pytest.mark.parametrize("name", sorted(BUILTIN_ALPHABETS))
    def test_builtins_normalized(self, name):
        alph = BUILTIN_ALPHABETS[name]()
        assert abs(np.mean(alph.symbols)) < 1e-12
        assert np.mean(np.abs(alph.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_sizes(self):
        assert bpsk().M == 2 and qpsk().M == 4 and psk8().M == 8 and qam16().M == 16

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ModelError):
            Alphabet(np.array([0.0 + 0j, 2.0]))

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError):
            Alphabet(np.array([1.0, 1.0, -1.0, -1.0]))

    def test_rejects_singleton(self):
        with pytest.raises(ModelError):
            Alphabet(np.array([1.0]))

    def test_load_from_pairs_normalizes_with_warning(self):
        with pytest.warns(UserWarning):
            alph = load_alphabet([[2.0, 0.0], [-1.0, 0.0]])
        assert abs(np.mean(alph.symbols)) < 1e-12
        assert np.mean(np.abs(alph.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    # One reader for a JSON complex number: the string "10" is not the pair
    # [1, 0], nor is a JSON true the number 1.
    @pytest.mark.parametrize("pairs", [["10", "01"], [[True, False], [False, True]]])
    def test_load_rejects_pairs_of_non_numbers(self, pairs):
        with pytest.raises(ModelError, match=r"alphabet\[0\]"):
            load_alphabet(pairs)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "alphabet.json"
        path.write_text(json.dumps([[1.0, 0.0], [-1.0, 0.0]]))
        alph = load_alphabet(str(path))
        assert alph.M == 2

    def test_load_builtin_by_name(self):
        assert load_alphabet("qpsk").M == 4


class TestMutualInfo:
    def test_quadrature_reproduces_unit_mass(self):
        # QPSK's two real factors and 8-PSK's one complex factor.
        for make in (qpsk, psk8):
            masses = quadrature_unit_mass(MiEvaluator(make()))
            assert masses == pytest.approx([1.0] * len(masses), abs=1e-10)

    def test_zero_snr_gives_zero_bits(self):
        for make in (bpsk, qpsk, psk8, qam16):
            assert MiEvaluator(make())(0.0) == 0.0

    def test_bpsk_saturates(self):
        assert MiEvaluator(bpsk())(100.0) == pytest.approx(1.0, abs=1e-6)

    def test_bpsk_unit_snr_against_monte_carlo(self):
        ev = MiEvaluator(bpsk())
        oracle = mutual_info_mc(bpsk(), 1.0, draws=10**6, seed=42)
        assert ev(1.0) == pytest.approx(oracle, abs=1e-3)

    def test_rejects_negative_snr(self):
        with pytest.raises(ModelError):
            MiEvaluator(bpsk())(-0.5)

    def test_gaussian_capacity_upper_bound(self):
        ev = MiEvaluator(qam16())
        for rho in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
            assert ev(rho) <= math.log2(1.0 + rho) + 1e-9
            assert 0.0 <= ev(rho) <= math.log2(16)

    def test_monotone_and_concave_on_grid(self):
        ev = MiEvaluator(qpsk())
        grid = np.linspace(0.0, 20.0, 100)
        vals = np.array([ev(float(g)) for g in grid])
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)


class TestInverse:
    def test_zero_rate(self):
        assert MiEvaluator(bpsk()).inverse(0.0) == 0.0

    @pytest.mark.parametrize("make", [bpsk, qpsk])
    def test_round_trip(self, make):
        ev = MiEvaluator(make())
        for frac in (0.1, 0.5, 0.9):
            rate = frac * ev.max_rate if frac != 0.1 else 0.1
            rho = ev.inverse(rate)
            assert ev(rho) == pytest.approx(rate, abs=1e-8)

    def test_bpsk_against_tabulation_oracle(self):
        ev = MiEvaluator(bpsk())
        grid = np.geomspace(1e-3, 1e3, 4001)
        vals = np.array([ev(float(g)) for g in grid])
        oracle = float(np.interp(0.5, vals, grid))
        assert ev.inverse(0.5) == pytest.approx(oracle, rel=1e-3)

    def test_rate_at_capacity_rejected(self):
        with pytest.raises(RateUnachievableError):
            MiEvaluator(qpsk()).inverse(2.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            MiEvaluator(qpsk()).inverse(-0.1)


def test_quadrature_matches_monte_carlo_across_snr():
    for make in (bpsk, qpsk):
        alph = make()
        ev = MiEvaluator(alph)
        for i, rho in enumerate((0.1, 1.0, 5.0, 20.0)):
            oracle = mutual_info_mc(alph, rho, draws=200_000, seed=90 + i)
            assert ev(rho) == pytest.approx(oracle, abs=2e-3)


X, W = hermgauss(32)


def _three_temporary_rate(symbols, rho):
    """The 2-D rule as one expression with three (M, M, Q, Q) temporaries,
    built from the symbols: the reference that the evaluator's complex factor
    must match bit for bit."""
    m = symbols.size
    d = symbols[:, None] - symbols[None, :]
    cross = (X[None, None, :, None] * d.real[:, :, None, None]
             + X[None, None, None, :] * d.imag[:, :, None, None])
    expo = -rho * (np.abs(d) ** 2)[:, :, None, None] - 2.0 * math.sqrt(rho) * cross
    inner = np.log2(np.sum(np.exp(expo), axis=1))
    avg = float(np.einsum("lqr,qr->", inner, W[:, None] * W[None, :])) / (m * math.pi)
    return math.log2(m) - avg


def _per_axis_rate(symbols, rho):
    """The per-axis rule as one expression per axis with three (m, m, Q)
    temporaries, over the distinct real and imaginary parts: the reference
    that the evaluator's real factors must match bit for bit."""
    bits = 0.0
    for levels in (np.unique(symbols.real), np.unique(symbols.imag)):
        if levels.size > 1:
            m = levels.size
            d = levels[:, None] - levels[None, :]
            expo = -rho * (d**2)[:, :, None] - 2.0 * math.sqrt(rho) * (X * d[:, :, None])
            inner = np.log2(np.sum(np.exp(expo), axis=1))
            avg = float(np.einsum("lg,g->", inner, W)) / (m * math.sqrt(math.pi))
            bits += math.log2(m) - avg
    return bits


def _extended_2d_rate(symbols, rho):
    """The 2-D rule with the same nodes and weights, evaluated in long double:
    its value without most of its rounding (a 64-bit significand on x86-64)."""
    ld = np.longdouble
    sym = symbols.astype(np.clongdouble)
    m = sym.size
    d = sym[:, None] - sym[None, :]
    x, w = X.astype(ld), W.astype(ld)
    cross = (x[None, None, :, None] * d.real[:, :, None, None]
             + x[None, None, None, :] * d.imag[:, :, None, None])
    expo = -ld(rho) * (np.abs(d) ** 2)[:, :, None, None] - 2 * np.sqrt(ld(rho)) * cross
    inner = np.log2(np.sum(np.exp(expo), axis=1))
    avg = np.einsum("lqr,qr->", inner, w[:, None] * w[None, :]) / (m * 4 * np.arctan(ld(1)))
    return np.log2(ld(m)) - avg


def _product(re_levels, im_levels):
    """The product alphabet {p + iq}, from levels centred and scaled in code."""
    p = np.asarray(re_levels, dtype=float) - np.mean(re_levels)
    q = np.asarray(im_levels, dtype=float) - np.mean(im_levels)
    scale = math.sqrt(np.mean(p**2) + np.mean(q**2))
    return Alphabet((p[:, None] / scale + 1j * q[None, :] / scale).ravel(), name="product")


def _loaded(alphabet):
    """The alphabet's symbols, scaled and shifted, read back by load_alphabet
    from [re, im] pairs, which renormalizes them."""
    pairs = [[3.0 * z.real + 0.5, 3.0 * z.imag - 0.25] for z in alphabet.symbols]
    with pytest.warns(UserWarning):
        return load_alphabet(pairs)


def _axes(ev):
    """Level counts of the real factors, or None for the one complex factor."""
    return None if ev._factors[0].mass == math.pi else [f.m for f in ev._factors]


PSK3 = Alphabet(np.exp(2j * np.pi * np.arange(3) / 3.0), name="3psk")
RECT_4X2 = ([-3, -1, 1, 3], [-1, 1])


def _nudged_qam16():
    """16-QAM with one symbol moved by 1e-9, renormalized by less than the
    warning's 1e-9."""
    sym = qam16().symbols.copy()
    sym[5] += 1e-9
    return load_alphabet([[z.real, z.imag] for z in sym])


def _cross32():
    """The 32-point cross constellation: the 6 x 6 grid without its corners."""
    with pytest.warns(UserWarning):
        return load_alphabet([[a, b] for a in range(-5, 6, 2) for b in range(-5, 6, 2)
                              if abs(a) + abs(b) < 10])


@pytest.mark.parametrize("alph", [psk8(), PSK3], ids=lambda a: a.name)
def test_rate_bit_identical_to_three_temporary_expression(alph):
    ev = MiEvaluator(alph)
    assert _axes(ev) is None
    for rho in np.geomspace(1e-4, 1e3, 101):
        assert ev.rate(float(rho)) == _three_temporary_rate(alph.symbols, float(rho))


@pytest.mark.parametrize("alph", [bpsk(), qpsk(), qam16()], ids=lambda a: a.name)
def test_per_axis_rate_bit_identical_to_one_expression(alph):
    ev = MiEvaluator(alph)
    assert _axes(ev) is not None
    for rho in np.geomspace(1e-4, 1e3, 101):
        assert ev.rate(float(rho)) == _per_axis_rate(alph.symbols, float(rho))


@pytest.mark.parametrize("make, axes", [
    (bpsk, [2]),
    (qpsk, [2, 2]),
    (qam16, [4, 4]),
    (lambda: _product(*RECT_4X2), [4, 2]),
    (lambda: _loaded(_product(*RECT_4X2)), [4, 2]),
    (lambda: Alphabet(np.array([1j, -1j]), name="bpsk-q"), [2]),
    (psk8, None),
    (lambda: PSK3, None),
    (_nudged_qam16, None),
    (_cross32, None),
], ids=["bpsk", "qpsk", "16qam", "4x2", "4x2-loaded", "bpsk-q",
        "8psk", "3psk", "16qam-nudged", "cross32"])
def test_factors_follow_the_product_structure(make, axes):
    # One real factor per axis with more than one level (BPSK drops its
    # imaginary one), or None: the one complex factor of the 2-D rule.
    assert _axes(MiEvaluator(make())) == axes


@pytest.mark.parametrize("make", [bpsk, qpsk, qam16, lambda: _product(*RECT_4X2)],
                         ids=["bpsk", "qpsk", "16qam", "4x2"])
def test_per_axis_rule_matches_2d_rule(make):
    # Equal in exact arithmetic; each is within the module's 4e-15 bits of
    # rounding for these alphabets.
    alph = make()
    ev = MiEvaluator(alph)
    for rho in np.geomspace(1e-4, 300.0, 60):
        assert abs(ev.rate(float(rho)) - _three_temporary_rate(alph.symbols, float(rho))) <= 4e-15


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is double here")
@settings(max_examples=12, deadline=None)
@given(
    n_re=st.integers(1, 6),
    n_im=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    loaded=st.booleans(),
)
@example(n_re=4, n_im=2, seed=0, loaded=True)
@example(n_re=6, n_im=6, seed=1, loaded=False)
def test_random_product_alphabets_match_the_2d_rule(n_re, n_im, seed, loaded):
    # The reference is the 2-D rule in long double: the float64 2-D rule's own
    # rounding reached 4.4e-15 bits on random 36-point products at rho 1e-4,
    # where log2 M - avg cancels, so it cannot referee a 4e-15 bound.
    if n_re * n_im < 2:
        n_im = 2
    rng = np.random.default_rng(seed)
    alph = _product(rng.uniform(-1.0, 1.0, n_re), rng.uniform(-1.0, 1.0, n_im))
    if loaded:
        alph = _loaded(alph)
    ev = MiEvaluator(alph)
    assert _axes(ev) == [n for n in (n_re, n_im) if n > 1]
    for rho in np.geomspace(1e-4, 300.0, 5):
        ref = _extended_2d_rate(alph.symbols, float(rho))
        assert abs(np.longdouble(ev.rate(float(rho))) - ref) <= 4e-15


@pytest.mark.parametrize("make", [bpsk, qpsk, qam16, psk8])
def test_saturated_rate_is_log2_m_without_a_warning(make):
    # Near the top of the float range rho |d|^2 overflows to -inf, which exp
    # maps to 0, in every factor.
    ev = MiEvaluator(make())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev.rate(1.7e308) == math.log2(ev.alphabet.M)


def test_memo_returns_first_value_without_the_tables(monkeypatch):
    ev = MiEvaluator(qam16())
    first = ev.rate(2.5)
    monkeypatch.setattr(ev, "_factors", None)
    assert ev.rate(2.5) == first
    with pytest.raises(TypeError):
        ev.rate(2.6)


def reference_inverse(mi, rate):
    """Plain doubling and bisection, every probe an evaluation of mi: the
    reference that the bracketed inverse must match bit for bit."""
    if rate < 0.0:
        raise ModelError(f"rate must be non-negative: {rate}")
    if rate == 0.0:
        return 0.0
    hi = 1.0
    while mi(hi) <= rate:
        hi *= 2.0
        if hi > 1e9:
            raise RateUnachievableError(f"rate {rate} not reached")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mi(mid) < rate:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi) and abs(mi(hi) - rate) <= 1e-8:
            break
    return hi


def _rate_model(name, seed):
    """(mi, capacity) for a built-in alphabet, a random custom one of 3..16
    symbols, or log2(1 + x), whose 31 bits lie past the doubling's 1e9 limit."""
    if name == "log2(1+x)":
        return (lambda rho: math.log2(1.0 + rho)), 31.0
    if name == "custom":
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 17))
        pts = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pts -= pts.mean()
        alphabet = Alphabet(pts / math.sqrt(np.mean(np.abs(pts) ** 2)), name="custom")
    else:
        alphabet = BUILTIN_ALPHABETS[name]()
    return MiEvaluator(alphabet).rate, math.log2(alphabet.M)


def _outcome(invert, mi, rate):
    try:
        return invert(mi, rate)
    except ModelError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from([*BUILTIN_ALPHABETS, "custom", "log2(1+x)"]),
    seed=st.integers(0, 2**32 - 1),
    where=st.one_of(st.sampled_from(["1e-9", "cap-1e-9"]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)
# The sweep_qam16 workload's five targets, as fractions of 16-QAM's 4 bits.
@example(name="16qam", seed=0, where=0.125)
@example(name="16qam", seed=0, where=0.25)
@example(name="16qam", seed=0, where=0.375)
@example(name="16qam", seed=0, where=0.0185546875)
@example(name="16qam", seed=0, where=0.043701171875)
def test_bracketed_inverse_keeps_bisection_bits(name, seed, where):
    # where: a fraction of the capacity, or 1e-9 from either end of it.
    _, cap = _rate_model(name, seed)
    rate = {"1e-9": 1e-9, "cap-1e-9": cap - 1e-9}.get(where) or where * cap
    ref = _outcome(reference_inverse, _rate_model(name, seed)[0], rate)
    got = _outcome(model.invert_monotone_rate, _rate_model(name, seed)[0], rate)
    assert got == ref and type(got) is type(ref)


@pytest.mark.parametrize("name", ["16qam", "qpsk", "bpsk"])
def test_inverse_near_capacity_costs_no_more_than_bisection(name):
    # On the flat top of I (capacity - 1e-9: 49, 47 and 46 quadratures by
    # plain bisection) a bracket cannot pay for the regula falsi that finds it.
    rate = math.log2(BUILTIN_ALPHABETS[name]().M) - 1e-9
    plain, bracketed = (MiEvaluator(BUILTIN_ALPHABETS[name]()) for _ in range(2))
    assert reference_inverse(plain.rate, rate) == bracketed.inverse(rate)
    assert len(bracketed._memo) <= len(plain._memo)
