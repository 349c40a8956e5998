import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mutual_info_mc
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
        ev = MiEvaluator(qpsk())
        assert ev.quadrature_unit_mass() == pytest.approx(1.0, abs=1e-10)

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


def _three_temporary_rate(ev, rho):
    """The quadrature as one expression with three (M, M, Q, Q) temporaries:
    the reference that the single-buffer rate must match bit for bit."""
    m = ev.alphabet.M
    expo = -rho * ev._d_abs2[:, :, None, None] - 2.0 * math.sqrt(rho) * ev._cross
    inner = np.log2(np.sum(np.exp(expo), axis=1))
    avg = float(np.einsum("lqr,qr->", inner, ev._wgrid)) / (m * math.pi)
    return math.log2(m) - avg


@pytest.mark.parametrize(
    "alph",
    [make() for make in BUILTIN_ALPHABETS.values()]
    + [Alphabet(np.exp(2j * np.pi * np.arange(3) / 3.0), name="3psk")],
    ids=lambda a: a.name,
)
def test_rate_bit_identical_to_three_temporary_expression(alph):
    ev = MiEvaluator(alph)
    for rho in np.geomspace(1e-4, 1e3, 101):
        assert ev.rate(float(rho)) == _three_temporary_rate(ev, float(rho))


def test_memo_returns_first_value_without_the_tables(monkeypatch):
    ev = MiEvaluator(qam16())
    first = ev.rate(2.5)
    monkeypatch.setattr(ev, "_cross", None)
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
