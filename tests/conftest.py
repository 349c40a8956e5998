import functools
import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from wiretap import diag_lp, sdp
from wiretap.constraints import ConstraintSet
from wiretap.model import STATISTICAL
from wiretap.probfile import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

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


@pytest.fixture(scope="session")
def ref_j1():
    return bundled(1)


@pytest.fixture(scope="session")
def ref_j2():
    return bundled(2)


@pytest.fixture(scope="session")
def ref_j3():
    return bundled(3)


def random_psd(rng, n, scale=1.0, ridge=0.0, rank=None):
    k = n if rank is None else rank
    b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = b @ b.conj().T * (scale / n)
    m = m + ridge * scale * np.eye(n)
    return (m + m.conj().T) / 2.0


def probe_verdict(p, r, mode=STATISTICAL, input_model="gaussian"):
    """sdp.FEASIBLE, INFEASIBLE or MAX_ITERATIONS: whether the rank
    relaxation at r has a feasible point, decided on r's own rows as
    solve_general's route decides it, without phase II or rank-1 recovery:
    HiGHS on the LP route, sdp._start on the SDP route. The oracle that the
    sweep's epigraph brackets are checked against, probe by probe."""
    t, route = sdp._route(p, r, mode, input_model)
    if route == "trivial":
        return sdp.FEASIBLE
    cons = ConstraintSet.build(p, t, mode)
    if route == "lp":
        return sdp.INFEASIBLE if diag_lp.solve_diagonal(cons) is None else sdp.FEASIBLE
    try:
        W, _ = sdp._start(cons, sdp._NewtonBudget(sdp._MAX_NEWTON))
    except sdp._NumericalTrouble:
        return sdp.MAX_ITERATIONS
    return sdp.INFEASIBLE if W is None else sdp.FEASIBLE
