import functools
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from wiretap import diag_lp, sdp
from wiretap.constraints import ConstraintSet
from wiretap.mi import MiEvaluator, qpsk
from wiretap.model import STATISTICAL, WiretapProblem, perfect_users
from wiretap.probfile import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
# Problems that CI also sweeps, kept out of problems/, which the md5 test
# globs: paper_j2 with perfect user CSI (test_sdp.perfect_csi), an
# eavesdropper-free problem (J = 0) and an eavesdropper the transmitter can
# null, the last two on the SDP route.
DATA = pathlib.Path(__file__).resolve().parent / "data"

# Derandomized under CI (GitHub Actions sets CI), so a failing example found
# there is found again locally with CI=1.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@functools.cache
def bundled(j, diagonal=False):
    """The shipped scenario problems/paper_j<j>[_diag].json: 3 antennas,
    2 users and j eavesdroppers, with diagonal covariances for _diag."""
    return load_problem(str(PROBLEMS / f"paper_j{j}{'_diag' if diagonal else ''}.json")).problem


def data_problem(name):
    """The ProblemFile tests/data/<name>.json."""
    return load_problem(str(DATA / f"{name}.json"))


@pytest.fixture(scope="session")
def ref_j1():
    return bundled(1)


@pytest.fixture(scope="session")
def ref_j2():
    return bundled(2)


@pytest.fixture(scope="session")
def ref_j3():
    return bundled(3)


@pytest.fixture(autouse=True)
def sdp_infeasible_is_certified(monkeypatch):
    """Every certificate that refutes a solve's rows, or the floors and the
    budget of an epigraph (b_lo = inf), is a Farkas certificate on those
    rows: a row out of reach (_unreachable_row), an iterate of a dual path
    (_proof's stop test, on the final solve's rows or on the epigraph's
    floors; _final_solve's returned certificate), the LP route's phase I
    (_lp_route) and the epigraph LP's phase I (diag_lp.min_ceiling, on the
    rows with ceiling 0, as epigraph_stages certifies it). It is checked
    from cons.A and cons.u with plain NumPy, not with the
    ConstraintSet.farkas and combination that made it: y >= 0; C = sum_i y_i
    A_i has the certificate's least eigenvalue e, and -y.u is its margin,
    both to roundoff relative to sum_i |y_i| ||A_i||_F; and -y.u - max(0, -e)
    P_T > 0. The solver reaches each by its module-level name, whether a
    test calls solve_rank_relaxed, solve_general, epigraph_stages or a
    sweep."""
    final_solve, unreachable_row = sdp._final_solve, sdp._unreachable_row
    proof, lp_route, min_ceiling = sdp._proof, sdp._lp_route, diag_lp.min_ceiling

    def certified(cons, cert):
        if cert is not None:
            y = np.r_[cert.lam, cert.mu, cert.nu]
            assert y.shape == cons.u.shape and np.all(y >= 0.0)
            combo = np.tensordot(y, cons.A, axes=1)
            e = np.linalg.eigvalsh((combo + combo.conj().T) / 2.0)[0]
            margin = -float(y @ cons.u)
            roundoff = 1e-13 * float(np.abs(y) @ np.linalg.norm(cons.A, axis=(1, 2)))
            assert abs(e - cert.combo_min_eig) <= roundoff
            assert abs(margin - cert.margin) <= roundoff
            assert margin - max(0.0, -e) * cons.u[0] > 0.0
        return cert

    def checked_final_solve(cons, budget):
        W, y, cert = final_solve(cons, budget)
        return W, y, certified(cons, cert)

    def checked_proof(bar, cons):
        proves = proof(bar, cons)

        def checked(point):
            if not proves(point):
                return False
            certified(cons, sdp._certificate(cons, bar.multipliers(point.y)[:cons.u.size]))
            return True
        return checked

    def checked_lp_route(cons, t, mode):
        sol = lp_route(cons, t, mode)
        certified(cons, sol.certificate)
        return sol

    def checked_min_ceiling(cons):
        P, y = min_ceiling(cons)
        if P is None:
            zeroed = cons.with_ceiling(0.0)
            certified(zeroed, sdp._certificate(zeroed, y))
        return P, y

    monkeypatch.setattr(sdp, "_final_solve", checked_final_solve)
    monkeypatch.setattr(sdp, "_unreachable_row",
                        lambda cons: certified(cons, unreachable_row(cons)))
    monkeypatch.setattr(sdp, "_proof", checked_proof)
    monkeypatch.setattr(sdp, "_lp_route", checked_lp_route)
    monkeypatch.setattr(diag_lp, "min_ceiling", checked_min_ceiling)


def random_psd(rng, n, scale=1.0, ridge=0.0, rank=None):
    k = n if rank is None else rank
    b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = b @ b.conj().T * (scale / n)
    m = m + ridge * scale * np.eye(n)
    return (m + m.conj().T) / 2.0


def thin_set_problem(seed):
    """A random instance with strong users, weak eavesdroppers and P_T 100,
    whose feasible sets are thin at the region's boundary: N = 3 or 4, K and
    J in 1..3, every draw from one default_rng(seed) in this order."""
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(3, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return WiretapProblem(H=tuple(random_psd(rng, n, 3.0, 0.1) for _ in range(k)),
                          Z=tuple(random_psd(rng, n, 0.01, 0.1) for _ in range(j)),
                          N0=1.0, epsilon=0.1, P_T=100.0)


def random_problem(seed):
    """(problem, mode, input_model) of one random-set seed, every draw from
    one default_rng(seed) in this order: N, K, J and the covariance kind;
    K user covariances at scale 1, then J eavesdropper covariances at scale
    0.01 (kind 0: full rank with ridge 0.05; kinds 1 and 2: rank min(kind,
    N), no ridge); diagonals only with probability 0.15; perfect user CSI
    with probability 0.2, its channels always drawn; QPSK inputs with
    probability 0.2; P_T = 10^U(0.5, 2)."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 4, 8]))
    k, j, kind = int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 3))

    def cov(scale):
        if kind == 0:
            return random_psd(rng, n, scale, ridge=0.05)
        return random_psd(rng, n, scale, rank=min(kind, n))

    H = [cov(1.0) for _ in range(k)]
    Z = [cov(0.01) for _ in range(j)]
    if rng.random() < 0.15:
        H, Z = [np.diag(np.diag(m)) for m in H], [np.diag(np.diag(m)) for m in Z]
    perfect = rng.random() < 0.2
    channels = math.sqrt(1.5) * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
    model = MiEvaluator(qpsk()) if rng.random() < 0.2 else "gaussian"
    p = WiretapProblem(H=tuple(H), Z=tuple(Z), N0=1.0, epsilon=0.1,
                       P_T=float(10 ** rng.uniform(0.5, 2.0)))
    return p, perfect_users(channels) if perfect else STATISTICAL, model


def scaled_problem(p, what, factor):
    """p with H, Z and N0 (what "hz") or P_T and N0 (what "pt") times factor."""
    if what == "hz":
        return WiretapProblem(H=tuple(h * factor for h in p.H), Z=tuple(z * factor for z in p.Z),
                              N0=p.N0 * factor, epsilon=p.epsilon, P_T=p.P_T)
    return WiretapProblem(H=p.H, Z=p.Z, N0=p.N0 * factor, epsilon=p.epsilon, P_T=p.P_T * factor)


def probe_verdict(p, r, mode=STATISTICAL, input_model="gaussian"):
    """sdp.FEASIBLE, INFEASIBLE or MAX_ITERATIONS: whether the rank
    relaxation at r has a feasible point, decided on r's own rows as
    solve_general's route decides it, without the face refinement or rank-1
    recovery: on the LP route, phase I of the simplex and its Farkas
    certificate; on the SDP route, a row out of reach
    (sdp._unreachable_row), else the final solve's dual path up to its first
    stage whose primal point (sdp._Barrier.primal) is PSD and meets every row
    strictly, or its first y that is a Farkas certificate. The oracle that
    the sweep's epigraph brackets are checked against, probe by probe."""
    t, route = sdp._route(p, r, mode, input_model)
    if route == "trivial":
        return sdp.FEASIBLE
    cons = ConstraintSet.build(p, t, mode)
    if route == "lp":
        P, y = diag_lp.solve_diagonal(cons)
        if P is not None:
            return sdp.FEASIBLE
        return sdp.INFEASIBLE if sdp._certificate(cons, y) is not None else sdp.MAX_ITERATIONS
    if np.all(cons.u >= 0.0):
        return sdp.FEASIBLE
    if sdp._unreachable_row(cons) is not None:
        return sdp.INFEASIBLE
    bar = sdp._Barrier(cons)
    budget = sdp._NewtonBudget(sdp._MAX_NEWTON)
    try:
        for t, point, step, silent in sdp._path(bar, budget, sdp._proof(bar, cons)):
            if step is None:
                return sdp.INFEASIBLE
            W = cons.p_t * bar.primal(t, step)
            if np.all(cons.values(W) < cons.u) and np.linalg.eigvalsh(W)[0] >= 0.0:
                return sdp.FEASIBLE
            if silent or t >= sdp._T_MAX:
                return sdp.MAX_ITERATIONS
    except sdp._NumericalTrouble:
        return sdp.MAX_ITERATIONS
