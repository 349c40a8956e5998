import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from wiretap import sdp
from wiretap.constraints import ConstraintSet
from wiretap.linalg import trace_inner
from wiretap.model import (
    STATISTICAL,
    RatePair,
    WiretapProblem,
    perfect_users,
    thresholds_gaussian,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_lagrangian_identity(seed, perfect):
    # The Lagrangian of min Tr W s.t. Tr W <= P_T, Tr(W F_k) >= a,
    # Tr(W G_j) <= b, written from the problem statement, equals
    # Re Tr(Lambda W) + dual objective: this pins every row's sign.
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
    p = WiretapProblem(H=tuple(random_psd(rng, n) for _ in range(k)),
                       Z=tuple(random_psd(rng, n, scale=0.1) for _ in range(j)),
                       N0=1.0, epsilon=0.1, P_T=float(rng.uniform(1.0, 100.0)))
    rd = float(rng.uniform(0.1, 2.0))
    t = thresholds_gaussian(p, RatePair(rd, float(rng.uniform(0.0, rd))))
    if perfect:
        channels = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(k)]
        mode = perfect_users(channels)
        floors, a = [np.outer(h, h.conj()) for h in channels], t.user_power_target
        # With user CSI known, the eavesdropper tail exponent is 1/J.
        b = t.eave_power_target / -math.log(1.0 - (1.0 - p.epsilon) ** (1.0 / j)) if j else None
    else:
        mode, floors, a, b = STATISTICAL, p.H, t.a, t.b
    W = random_psd(rng, n)
    lam = float(rng.exponential())
    mu, nu = rng.exponential(size=k), rng.exponential(size=j)

    tr_w = float(np.real(np.trace(W)))
    terms = [tr_w, lam * (tr_w - p.P_T)]
    terms += [m * (a - trace_inner(W, f)) for m, f in zip(mu, floors)]
    terms += [v * (trace_inner(W, z) - b) for v, z in zip(nu, p.Z)]
    scale = tr_w + lam * (tr_w + p.P_T)
    scale += sum(m * (abs(a) + abs(trace_inner(W, f))) for m, f in zip(mu, floors))
    scale += sum(v * (abs(b) + abs(trace_inner(W, z))) for v, z in zip(nu, p.Z))

    cons = ConstraintSet.build(p, t, mode)
    y = np.r_[lam, mu, nu]
    rhs = trace_inner(cons.duals(y).Lambda, W) + cons.dual_objective(y)
    assert abs(sum(terms) - rhs) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans(), st.booleans())
def test_core_matches_hand_built_oracle(seed, perfect, zero_row):
    # Every dual quantity of the stacked multipliers y = (lam, mu, nu),
    # against the same quantity written out from p.H, p.Z and the user
    # channels. With zero_row, a zero eavesdropper covariance is one more
    # ceiling: the barrier drops its row, and its multiplier reads 0.
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
    Z = [random_psd(rng, n, scale=0.1) for _ in range(j)]
    if zero_row:
        Z.insert(int(rng.integers(0, j + 1)), np.zeros((n, n)))
    p = WiretapProblem(H=tuple(random_psd(rng, n) for _ in range(k)), Z=tuple(Z),
                       N0=1.0, epsilon=0.1, P_T=float(rng.uniform(1.0, 100.0)))
    rd = float(rng.uniform(0.1, 2.0))
    t = thresholds_gaussian(p, RatePair(rd, float(rng.uniform(0.0, rd))))
    if perfect:
        channels = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(k)]
        mode = perfect_users(channels)
        floors, a = [np.outer(h, h.conj()) for h in channels], t.user_power_target
        # With user CSI known, the eavesdropper tail exponent is 1/J.
        b = t.eave_power_target / -math.log(1.0 - (1.0 - p.epsilon) ** (1.0 / p.J)) if p.J else 0.0
    else:
        mode, floors, a, b = STATISTICAL, p.H, t.a, t.b
    cons = ConstraintSet.build(p, t, mode)

    bar = sdp._Barrier(cons)
    dropped = [1 + k + i for i, z in enumerate(p.Z) if not z.any()]
    assert sorted(set(range(cons.u.size)) - set(bar.keep.tolist())) == dropped
    y_rows = rng.exponential(size=bar.keep.size)
    y = bar.multipliers(y_rows)
    # The barrier's rows alone, normalized to unit Frobenius norm and mapped
    # back to the units of cons; no quantity below reads the floor count.
    assert np.allclose(np.linalg.norm(bar.A, axis=(1, 2)), 1.0, rtol=1e-15, atol=0.0)
    rows = ConstraintSet(A=bar.A * bar.r[:, None, None], u=bar.u * bar.r * p.P_T, k=0)
    y_rows = y[bar.keep]
    lam, mu, nu = cons.split(y)
    assert lam == y[0] and mu.size == k and nu.size == p.J
    assert all(nu[i - 1 - k] == 0.0 for i in dropped)

    eye = np.eye(n)
    combo = lam * eye - sum(m * f for m, f in zip(mu, floors)) + sum(v * z for v, z in zip(nu, p.Z))
    scale = 1.0 + lam + sum(m * np.linalg.norm(f) for m, f in zip(mu, floors))
    scale += sum(v * np.linalg.norm(z) for v, z in zip(nu, p.Z))
    assert np.allclose(cons.combination(y), combo, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(rows.combination(y_rows), combo, rtol=0.0, atol=1e-12 * scale)
    duals = cons.duals(y)
    assert np.allclose(duals.Lambda, eye + combo, rtol=0.0, atol=1e-12 * (1.0 + scale))
    assert np.array_equal(cons.stack(duals), y)
    assert (duals.lam, duals.mu.tolist(), duals.nu.tolist()) == (lam, mu.tolist(), nu.tolist())

    floor_sum, ceiling_sum = float(np.sum(mu)) * a, float(np.sum(nu)) * b
    size = lam * p.P_T + abs(floor_sum) + ceiling_sum
    dual = -lam * p.P_T + floor_sum - ceiling_sum
    assert abs(cons.dual_objective(y) - dual) <= 1e-12 * size

    eig = float(np.linalg.eigvalsh(combo)[0])
    penalty = max(0.0, -eig) * p.P_T
    got_eig, got_value = cons.farkas(y)
    assert abs(got_eig - eig) <= 1e-12 * scale
    assert abs(got_value - (dual - penalty)) <= 1e-12 * (size + scale * p.P_T)
    assert rows.farkas(y_rows) == pytest.approx((got_eig, got_value), rel=1e-12, abs=1e-12 * size)
    if np.sum(nu) > 0.0:
        bound = (-lam * p.P_T + floor_sum - penalty) / float(np.sum(nu))
        assert abs(cons.ceiling_bound(y) - bound) <= 1e-12 * (size + scale * p.P_T) / np.sum(nu)
    else:
        assert cons.ceiling_bound(y) == -math.inf

    tr_w = float(rng.uniform(0.0, p.P_T))
    identity = abs((1.0 + lam) * tr_w - floor_sum + ceiling_sum) / max(1.0, (1.0 + lam) * tr_w)
    denom = max(1.0, (1.0 + lam) * tr_w)
    assert abs(cons.scalar_identity(y, tr_w) - identity) <= 1e-12 * ((1.0 + lam) * tr_w + size) / denom
