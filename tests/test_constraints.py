import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
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
    rhs = (trace_inner(cons.multiplier_matrix(1.0 + lam, mu, nu), W)
           + cons.dual_objective(lam, mu, nu))
    assert abs(sum(terms) - rhs) <= 1e-12 * scale
