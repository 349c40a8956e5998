import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (
    PROBLEMS,
    bundled,
    data_problem,
    probe_verdict,
    random_problem,
    random_psd,
    thin_set_problem,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wiretap
from wiretap import diag_lp, sdp, sweep
from wiretap.cli import main as cli_main
from wiretap.constraints import ConstraintSet
from wiretap.kkt import check_kkt
from wiretap.mi import MiEvaluator, qam16, qpsk
from wiretap.model import (
    STATISTICAL,
    ModelError,
    RatePair,
    RateUnachievableError,
    WiretapProblem,
    perfect_users,
)
from wiretap.probfile import ProblemFileError, load_problem, parse_problem, save_problem, to_doc
from wiretap.sdp import (
    FEASIBLE,
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    RANK1_INFEASIBLE,
    BeamformerSolution,
    proven_feasibility,
    solve_general,
)
from wiretap.sweep import CSV_HEADER, SweepRow, code_rate_grid, sweep_region, to_csv

QPSK_MI = MiEvaluator(qpsk())
BIG_INT = 10 ** 400   # a JSON integer beyond the float range

MONTECARLO_J1_GOLDEN = """\
{
  "ci_halfwidth": 0.001561400388830489,
  "non_outage_target": 0.9,
  "p_hat": 0.9319,
  "per_eave_p_hat": [
    0.99961
  ],
  "per_link_prob": 0.9654893846056297,
  "per_user_p_hat": [
    0.96646,
    0.96453
  ],
  "power": 13.165819476884002,
  "status": "optimal",
  "successes": 93190,
  "trials": 100000
}
"""

# Pinned outputs of `solve` (SDP and diagonal-LP routes) and `kkt`. Every
# float literal round-trips exactly, so dumping these dicts the way the CLI
# does reproduces its output byte for byte.
SOLVE_J2_GOLDEN = {
    "duals": {"Lambda": [[[0.08290391889968673, 0.0],
                          [0.09252340719379483, -0.011559646076186262],
                          [-0.021732134623230173, 0.15832091265944703]],
                         [[0.09252340719379483, 0.011559646076186262],
                          [0.3588095514461005, 0.0],
                          [-0.0068895490614070114, 0.09631497110678393]],
                         [[-0.021732134623230173, -0.15832091265944703],
                          [-0.0068895490614070114, -0.09631497110678393],
                          [0.33772475700313676, 0.0]]],
              "lam": 0.0,
              "mu": [0.0, 0.46238584304745045],
              "nu": [0.0, 0.0]},
    "kkt_residual_max": 1.9621513218584184e-16,
    "power": 9.05310828788579,
    "rank1_exact": True,
    "status": "optimal",
    "w": [[2.7350660600110657, 0.0],
          [-0.387539719794542, -0.1199696824116521],
          [0.20230594584854059, 1.1691939447411117]],
}

SOLVE_J2_DIAG_GOLDEN = {
    "duals": {"Lambda": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [0.30084703035192084, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.0], [0.27785620651406673, 0.0]]],
              "lam": 0.0,
              "mu": [0.0, 0.5041847332862761],
              "nu": [0.0, 0.0]},
    "kkt_residual_max": 0.0,
    "power": 9.871493810140434,
    "rank1_exact": True,
    "status": "optimal",
    "w": [[3.1418933479894626, 0.0], [0.0, 0.0], [0.0, 0.0]],
}

KKT_J1_GOLDEN = {
    "compl_slack_W": 3.973063927347268e-17,
    "feasibility_violations": [],
    "mu_sum": 0.46238584304745045,
    "passes": True,
    "primal_feasible": True,
    "rank_W": 1,
    "rank_bound_ok": True,
    "rank_muH": 3,
    "scalar_identity": 0.0,
    "slack_eaves": [0.0],
    "slack_power": 0.0,
    "slack_users": [0.0, 1.6427245094783787e-15],
    "stationarity_min_eig": 5.2774198007564226e-17,
    "status": "optimal",
    "tol": 1e-05,
}


# Pinned 16-QAM outputs: a memoized or restructured MI quadrature must not
# move a single bit of the thresholds, the sweep's bisection or the table.
QAM16_SWEEP_J1_GOLDEN = {
    "0.5": "rd,rs_max,min_power,rank1,status\n0.5,0.42578125,5.80627221,true,optimal\n",
    "1.0": "rd,rs_max,min_power,rank1,status\n1,0.825195312,14.2348647,true,optimal\n",
}

MI_QAM16_GOLDEN = """\
rho,mi_bits
0,0
0.5,0.583298893
1,0.989741372
1.5,1.29732311
2,1.54312606
2.5,1.74727674
3,1.92164739
3.5,2.0737182
4,2.20846371
4.5,2.32933871
5,2.43882628
5.5,2.53876102
6,2.63053054
6.5,2.71520676
7,2.79363464
7.5,2.86649353
8,2.93434027
8.5,2.99763979
9,3.05678703
9.5,3.11212271
10,3.16394478
10.5,3.21251683
11,3.25807439
11.5,3.30082963
12,3.34097512
12.5,3.37868663
13,3.41412552
13.5,3.44744055
14,3.47876938
14.5,3.50823974
15,3.53597037
15.5,3.5620718
16,3.58664694
16.5,3.60979159
17,3.63159487
17.5,3.65213965
18,3.67150289
18.5,3.68975611
19,3.70696572
19.5,3.72319351
20,3.73849699
"""

class TestProblemFile:
    def test_round_trip_identity(self, tmp_path, ref_j2):
        path = tmp_path / "p.json"
        save_problem(path, ref_j2)
        loaded = load_problem(str(path))
        assert loaded.problem.N == ref_j2.N
        assert loaded.problem.K == ref_j2.K
        assert loaded.problem.J == ref_j2.J
        assert loaded.problem.epsilon == ref_j2.epsilon
        assert loaded.problem.P_T == ref_j2.P_T
        for a, b in zip(loaded.problem.H, ref_j2.H):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.problem.Z, ref_j2.Z):
            assert np.array_equal(a, b)

    def test_db_conversion_at_boundary(self, ref_j1):
        doc = to_doc(ref_j1)
        doc["P_T"] = {"value": 12.0, "unit": "dB"}
        parsed = parse_problem(doc)
        assert parsed.problem.P_T == pytest.approx(10.0**1.2)

    def test_shipped_files_parse_and_match_builtins(self):
        for j in (1, 2, 3):
            pf = load_problem(str(PROBLEMS / f"paper_j{j}.json"))
            ref = bundled(3)
            assert pf.problem.J == j
            for a, b in zip(pf.problem.H, ref.H):
                assert np.array_equal(a, b)
        pf = load_problem(str(PROBLEMS / "paper_j2_diag.json"))
        for m in (*pf.problem.H, *pf.problem.Z):
            assert np.allclose(m, np.diag(np.diag(m)))

    def test_bundled_files_are_one_scenario(self):
        # paper_j<j>.json is paper_j3.json with its first j eavesdroppers, and
        # paper_j<j>_diag.json the diagonal part of paper_j<j>.json.
        full = bundled(3)
        for j in (1, 2, 3):
            p, d = bundled(j), bundled(j, diagonal=True)
            assert p.J == d.J == j
            for a, b in zip((*p.H, *p.Z), (*full.H, *full.Z[:j]), strict=True):
                assert np.array_equal(a, b)
            for a, b in zip((*p.H, *p.Z), (*d.H, *d.Z), strict=True):
                assert np.array_equal(np.diag(np.diag(a)), b)
            for q in (p, d):
                assert (q.P_T, q.N0, q.epsilon) == (10.0 ** 1.2, 1.0, 0.1)

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"N": 2, "K": 1}')
        with pytest.raises(ProblemFileError, match="missing required field"):
            load_problem(str(path))

    def test_malformed_json_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFileError, match="line"):
            load_problem(str(path))

    def test_wrong_matrix_shape_diagnostic(self, tmp_path, ref_j1):
        doc = to_doc(ref_j1)
        doc["H"][0] = doc["H"][0][:2]
        with pytest.raises(ProblemFileError, match=r"H\[0\]"):
            parse_problem(doc)

    def test_perfect_csi_round_trip(self, tmp_path, ref_j1):
        from wiretap.model import perfect_users

        rng = np.random.default_rng(0)
        hs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        path = tmp_path / "perfect.json"
        save_problem(path, ref_j1, csi_mode=perfect_users(hs))
        loaded = load_problem(str(path))
        assert not loaded.csi_mode.is_statistical
        for a, b in zip(loaded.csi_mode.user_channels, hs):
            assert np.allclose(a, b)


class TestSweep:
    def test_rows_ordered_and_monotone(self, ref_j1):
        res = sweep_region(ref_j1, [0.2, 0.5, 0.8, 1.0, 1.4], rate_tol=1e-3)
        rds = [row.rd for row in res.rows]
        assert rds == sorted(rds)
        feas = [row for row in res.rows if row.status == "optimal"]
        powers = [row.min_power for row in feas]
        assert all(b >= a - 1e-6 for a, b in zip(powers, powers[1:]))
        rss = [row.rs_max for row in feas]
        assert all(0.0 <= rs <= rd + 1e-12 for rs, rd in zip(rss, [r.rd for r in feas]))
        assert res.rows[-1].status == "infeasible"

    def test_no_eavesdroppers_gives_full_secrecy(self):
        p = WiretapProblem(H=(np.eye(2, dtype=complex),), Z=(),
                           N0=1.0, epsilon=0.1, P_T=50.0)
        res = sweep_region(p, [0.5, 1.0], rate_tol=1e-3)
        for row in res.rows:
            assert row.status == "optimal"
            assert row.rs_max == pytest.approx(row.rd)

    def test_csv_format(self, ref_j1):
        res = sweep_region(ref_j1, [0.5, 5.0], rate_tol=1e-3)
        text = to_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[4] == "optimal"
        assert lines[2].split(",") == ["5", "", "", "", "infeasible"]

    def test_rejects_bad_grid(self, ref_j1):
        from wiretap.model import ModelError

        with pytest.raises(ModelError):
            sweep_region(ref_j1, [])
        with pytest.raises(ModelError):
            sweep_region(ref_j1, [0.5, 0.5])

    # A non-finite bound or step, or one that would make the grid longer than
    # 10**6 code rates, used to loop for ever or pass silently. A bound or
    # step that is not positive is rejected too.
    @pytest.mark.parametrize("rd_min, rd_max, rd_step", [
        (0.5, math.inf, 0.1), (0.5, 0.6, 1e-20), (0.1, 2e5, 0.1),
        (math.nan, 0.6, 0.1), (0.5, math.nan, 0.1), (0.5, 0.6, math.inf), (0.5, 0.6, math.nan),
        (0.0, 0.6, 0.1), (0.5, 0.6, 0.0),
    ])
    def test_grid_rejects_non_finite_or_huge(self, rd_min, rd_max, rd_step):
        with pytest.raises(ModelError):
            code_rate_grid(rd_min, rd_max, rd_step)

    def test_grid_step_below_rate_resolution_ends(self, ref_j1):
        # 1e10 + 1e-7 rounds back to 1e10: the grid stops, and repeats a rate
        # that sweep_region then rejects.
        grid = code_rate_grid(1e10, 1e10, 1e-7)
        assert len(grid) <= 2
        with pytest.raises(ModelError):
            sweep_region(ref_j1, grid)

    @pytest.mark.parametrize("grid, rate_tol", [
        ([0.5], math.nan), ([0.5], math.inf), ([0.5], 0.0),
        ([0.5, math.inf], 1e-3), ([math.nan], 1e-3),
    ])
    def test_sweep_rejects_non_finite_rates(self, ref_j1, grid, rate_tol):
        with pytest.raises(ModelError):
            sweep_region(ref_j1, grid, rate_tol=rate_tol)

    def test_solver_failure_marks_row_without_aborting(self, ref_j1, monkeypatch):
        from wiretap import sdp

        monkeypatch.setattr(sdp, "_MAX_NEWTON", 2)
        res = sweep_region(ref_j1, [0.5, 0.8], rate_tol=1e-2)
        assert len(res.rows) == 2
        assert all(row.status == "numerical-failure" for row in res.rows)
        assert all(row.min_power is None for row in res.rows)


def full_solve_row(p, rd, rate_tol):
    """The row as the sweep found it when every bisection probe was a full
    solve_general and a rank1_infeasible probe counted as infeasible: the
    oracle for the probe-based bisection."""
    class Failure(Exception):
        pass

    def attempt(rs):
        sol = solve_general(p, RatePair(rd, rs))
        if sol.status == MAX_ITERATIONS:
            raise Failure()
        if sol.status in (INFEASIBLE, RANK1_INFEASIBLE):
            return None
        return sol

    # As the sweep: R_s = R_D is solved only where the epigraph has no
    # stage, because R_s moves no row.
    staged = next(sdp.epigraph_stages(p, rd), None) is not None
    try:
        lo, hi = (0.0 if staged else rd), rd
        best = attempt(lo)
        if best is None:
            return SweepRow(rd, None, None, None, "infeasible")
        while hi - lo > rate_tol:
            mid = 0.5 * (lo + hi)
            sol = attempt(mid)
            if sol is None:
                hi = mid
            else:
                lo, best = mid, sol
        return SweepRow(rd, lo, best.power, best.rank1_exact, "optimal")
    except Failure:
        return SweepRow(rd, None, None, None, "numerical-failure")


def probe_row(p, rd, rate_tol, probes=None, mode=STATISTICAL, input_model="gaussian"):
    """The row as the sweep found it when a solve on each probe's own rows
    (probe_verdict) decided every bisection probe, each (R_s, verdict)
    appended to probes: the oracle for the epigraph replay."""
    class Failure(Exception):
        pass

    def feasible(rs):
        verdict = probe_verdict(p, RatePair(rd, rs), mode=mode, input_model=input_model)
        if probes is not None:
            probes.append((rs, verdict))
        if verdict == MAX_ITERATIONS:
            raise Failure()
        return verdict == FEASIBLE

    # As the sweep: R_s = R_D is probed only where the epigraph has no stage,
    # because R_s moves no row.
    staged = next(sdp.epigraph_stages(p, rd, mode, input_model), None) is not None
    try:
        lo, hi = (0.0 if staged else rd), rd
        if not feasible(lo):
            return SweepRow(rd, None, None, None, "infeasible")
        while hi - lo > rate_tol:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
    except Failure:
        return SweepRow(rd, None, None, None, "numerical-failure")
    sol = solve_general(p, RatePair(rd, lo), mode=mode, input_model=input_model)
    if sol.status == OPTIMAL:
        return SweepRow(rd, lo, sol.power, sol.rank1_exact, "optimal")
    if sol.status == RANK1_INFEASIBLE:
        return SweepRow(rd, None, None, None, "rank1-infeasible")
    return SweepRow(rd, None, None, None, "numerical-failure")


def assert_rows_match(rows, expected, continued):
    """rows are expected, to the bit, but for the min_power of a row that the
    sweep continued from an earlier one (continued, from
    continued_solutions): that is an optimum certified to roundoff, not the
    barrier's bits, and matches its power to 1e-14 relative."""
    assert len(rows) == len(expected)
    continued_rd = {r.R_D for r, _ in continued}
    for row, want in zip(rows, expected):
        if row.rd not in continued_rd:
            assert row == want
            continue
        assert dataclasses.replace(row, min_power=None) == dataclasses.replace(want, min_power=None)
        assert row.min_power == pytest.approx(want.min_power, rel=1e-14, abs=0.0)


def finished_epigraph(p, rd, **kwargs):
    """The last of the epigraph stages at rd: the finished path."""
    return list(sdp.epigraph_stages(p, rd, **kwargs))[-1]


def count_row_calls(monkeypatch, extra=()):
    """The names of the sweep's solver entry points, and of the (owner,
    attr) pairs in extra, appended per call. sdp._path is called once per
    barrier run. A final solve is one sweep.solve_general call, and in it
    one sdp._continued_face call when it has an anchor (an earlier row)."""
    calls = []

    def counting(module, attr):
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapped)

    for module, attr in ((sweep, "epigraph_stages"), (sweep, "solve_general"),
                         (sdp, "_continued_face"), (sdp, "_path"),
                         (diag_lp, "solve_diagonal"), (diag_lp, "min_ceiling"), *extra):
        counting(module, attr)
    return calls


# The eavesdropper-free problem (J = 0) that CI sweeps, on the SDP route,
# and its copy with H = I, on the LP route.
NO_EAVESDROPPER = data_problem("no_eavesdropper").problem
NO_EAVESDROPPER_LP = dataclasses.replace(NO_EAVESDROPPER, H=(np.eye(2, dtype=complex),))


def named_problem(name):
    """problems/<name>.json; NO_EAVESDROPPER for None, NO_EAVESDROPPER_LP for
    "j0_lp"."""
    if name is None:
        return NO_EAVESDROPPER
    if name == "j0_lp":
        return NO_EAVESDROPPER_LP
    return load_problem(str(PROBLEMS / f"{name}.json")).problem


# Two orthogonal floors: each alone is within reach of P_T below R_D 0.8,
# both together only below R_D 0.5. At 0.5 and 0.6 the dual path proves them
# infeasible.
TWO_FLOORS = WiretapProblem(
    H=(0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
       0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)),
    Z=(0.01 * np.array([[1, 0.5], [0.5, 1]], dtype=complex),), N0=1.0, epsilon=0.1, P_T=20.0)


# Each of the five origins of a certificate raises through sdp._refute, and
# so under the sdp_infeasible_is_certified check: a floor out of reach of
# P_T, the final solve's dual path, the epigraph's dual path on the two
# orthogonal floors, the LP route's phase I and the epigraph LP's phase I.
@pytest.mark.parametrize("origin, name, rd, rs", [
    ("_unreachable_row", "paper_j1", 2.0, 1.0),
    ("final center", "paper_j1", 1.0, 0.9),
    ("epigraph center", None, 0.5, None),
    ("_lp_route", "paper_j2_diag", 0.9, 0.0),
    ("epigraph_stages", "paper_j2_diag", 0.9, None),
])
def test_every_origin_refutes_through_one_place(origin, name, rd, rs, monkeypatch):
    refute, origins = sdp._refute, []

    def spy(cons, y):
        caller = sys._getframe(1)
        try:
            refute(cons, y)
        except sdp._Refuted:
            kind = caller.f_code.co_name
            if kind == "center":
                kind = f"{'final' if caller.f_locals['self'].e is None else 'epigraph'} center"
            origins.append(kind)
            raise

    monkeypatch.setattr(sdp, "_refute", spy)
    p = TWO_FLOORS if name is None else load_problem(str(PROBLEMS / f"{name}.json")).problem
    if rs is None:
        stages = list(sdp.epigraph_stages(p, rd))
        assert stages[-1] == sdp.Epigraph(math.inf, math.inf, math.inf, math.inf)
    else:
        assert solve_general(p, RatePair(rd, rs)).status == INFEASIBLE
    assert origins == [origin]


class TestSweepBisection:
    # paper_j1 at 1.2, paper_j2 at 1.0 and paper_j2_diag at 0.9 are
    # infeasible at R_s = 0; only a row with no ceiling has rs_max = rd, so
    # the eavesdropper-free problem supplies one on each route. The grids
    # after it run past the first infeasible row, whose proof carries to the
    # rows above it.
    @pytest.mark.parametrize("name, grid", [
        ("paper_j1", [0.5, 1.1, 1.2]),
        ("paper_j2", [0.6, 1.0]),
        ("paper_j2_diag", [0.2, 0.8, 0.9]),
        (None, [0.5]),
        ("paper_j1", [1.1, 1.2, 1.6, 2.0]),
        ("paper_j2_diag", [0.8, 0.9, 1.5]),
        ("j0_lp", [0.5]),
    ])
    def test_rows_match_full_solve_bisection(self, name, grid, monkeypatch):
        p = named_problem(name)
        continued = continued_solutions(monkeypatch)
        rows = sweep_region(p, grid, rate_tol=1e-3).rows
        assert_rows_match(rows, [full_solve_row(p, rd, 1e-3) for rd in grid], continued)
        statuses = {row.status for row in rows}
        assert statuses <= {"optimal", "infeasible"}
        if name in (None, "j0_lp"):
            assert rows[0].rs_max == rows[0].rd
        else:
            assert statuses == {"optimal", "infeasible"}

    def test_one_full_solve_per_feasible_row(self, ref_j1, monkeypatch):
        continued = continued_solutions(monkeypatch)
        calls, solve = [], sweep.solve_general

        def solving(p, r, **kwargs):
            calls.append(r)
            return solve(p, r, **kwargs)

        monkeypatch.setattr(sweep, "solve_general", solving)
        rows = sweep_region(ref_j1, [0.5, 1.2], rate_tol=1e-3).rows
        assert [row.status for row in rows] == ["optimal", "infeasible"]
        assert calls == [RatePair(0.5, rows[0].rs_max)] and continued == []
        # One pass over the grid: each row's final solve, here continued at
        # R_D 1.0 from the row before, comes before the next row's epigraph.
        order = count_row_calls(monkeypatch)
        calls.clear()
        rows = sweep_region(ref_j1, [0.5, 1.0, 1.2], rate_tol=1e-3).rows
        assert [row.status for row in rows] == ["optimal", "optimal", "infeasible"]
        assert calls == [RatePair(0.5, rows[0].rs_max), RatePair(1.0, rows[1].rs_max)]
        assert [r for r, _ in continued] == calls[1:]
        row_calls = [c for c in order if c in ("epigraph_stages", "solve_general", "_continued_face")]
        assert row_calls == ["epigraph_stages", "solve_general", "epigraph_stages",
                             "solve_general", "_continued_face", "epigraph_stages"]

    # Statistical and perfect user CSI (ceiling tail exponent 1/(K+J) and
    # 1/J), Gaussian inputs and QPSK (log2(1 + rho) and the alphabet's MI).
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([3, 4]),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.booleans(), st.sampled_from([0.3, 0.6, 1.0]), st.booleans(),
           st.sampled_from(["gaussian", "qpsk"]))
    # A row whose epigraph points sit strictly inside the floors: b_hi
    # closes on b_lo only once they are scaled down onto them.
    @example(3, 4, 3, 3, True, 1.0, True, "gaussian")
    def test_proven_verdicts_match_probes(self, seed, n, k, j, diagonal, rd, perfect, inputs):
        rng = np.random.default_rng(seed)

        def cov(scale):
            if diagonal:
                return np.diag(rng.uniform(0.2, 2.0, n) * scale).astype(complex)
            return random_psd(rng, n, scale=scale, ridge=0.1)

        p = WiretapProblem(H=tuple(cov(3.0) for _ in range(k)),
                           Z=tuple(cov(0.01) for _ in range(j)),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        mode = perfect_users(
            math.sqrt(1.5) * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
        ) if perfect else STATISTICAL
        model = QPSK_MI if inputs == "qpsk" else "gaussian"
        solver = {"mode": mode, "input_model": model}
        proofs = []

        def recording(epigraph, r):
            verdict = proven_feasibility(epigraph, r)
            proofs.append((r, verdict))
            return verdict

        with mock.patch.object(sweep, "proven_feasibility", recording):
            row, = sweep_region(p, [rd], rate_tol=1e-2, **solver).rows
        assert any(verdict is not None for _, verdict in proofs)
        for r, verdict in proofs:
            if verdict is not None:
                assert probe_verdict(p, r, **solver) == verdict
        assert row == probe_row(p, rd, 1e-2, **solver)

    def test_row_phase1_cannot_start_matches_probe_bisection(self):
        # A thin feasible set: the epigraph's witness meets every row at
        # R_s = 0.8203125 with slacks near 2e-6, where a primal phase I
        # stalled. The dual path needs no interior start, and the final
        # solve at the proven R_s is optimal.
        rng = np.random.default_rng(2769)
        p = WiretapProblem(H=(random_psd(rng, 4, scale=3.0, ridge=0.1),),
                           Z=tuple(random_psd(rng, 4, scale=0.01, ridge=0.1) for _ in range(3)),
                           N0=1.0, epsilon=0.1, P_T=100.0)
        r = RatePair(1.0, 0.8203125)
        assert proven_feasibility(finished_epigraph(p, 1.0), r) == FEASIBLE
        sol = solve_general(p, r)
        assert sol.status == OPTIMAL and sol.power == pytest.approx(3.84912, rel=1e-5)
        assert check_kkt(p, sol.thresholds, sol.W, sol.duals).passes(1e-5)
        row, = sweep_region(p, [1.0], rate_tol=1e-2).rows
        assert row == probe_row(p, 1.0, 1e-2)
        assert row.status == "optimal" and row.rs_max == 0.8203125

    # Two boundary points of thin_set_problem where a primal phase I
    # stalled: seed 54 at R_D 0.3 and seed 63 at R_D 0.6. The row ends at
    # the proven R_s, and the final solve there is optimal.
    @pytest.mark.parametrize("seed, r, power", [
        (54, RatePair(0.3, 0.290625), 0.35289696), (63, RatePair(0.6, 0.35625), 4.55744398),
    ])
    def test_thin_set_rows_end_at_the_proven_rate(self, seed, r, power):
        p = thin_set_problem(seed)
        sol = solve_general(p, r)
        assert sol.status == OPTIMAL and sol.power == pytest.approx(power, rel=1e-6)
        assert check_kkt(p, sol.thresholds, sol.W, sol.duals).passes(1e-5)
        row, = sweep_region(p, [r.R_D], rate_tol=1e-2).rows
        assert row == probe_row(p, r.R_D, 1e-2)
        assert row.status == "optimal" and row.rs_max == r.R_s

    def test_thin_set_seed_90_row_is_optimal(self):
        # The primal barrier ended this row numerical-failure: at its proven
        # R_s a floor with multiplier 2.3e-4, below its slack 4.4e-4, was
        # counted inactive next to a ceiling multiplier of 1.1e3, and the
        # face fit failed.
        p = thin_set_problem(90)
        row, = sweep_region(p, [1.0], rate_tol=1e-2).rows
        assert (row.status, row.rs_max) == ("optimal", 0.9296875)
        assert row.min_power == pytest.approx(5.6995551, rel=1e-8)
        sol = solve_general(p, RatePair(1.0, row.rs_max))
        assert sol.status == OPTIMAL and sol.power == row.min_power
        assert check_kkt(p, sol.thresholds, sol.W, sol.duals, tol=1e-10).passes(1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.6, 1.0]))
    @example(54, 0.3)
    @example(63, 0.6)
    def test_sdp_infeasible_always_certified(self, seed, rd):
        # At every probe of the row's bisection, near the boundary where the
        # feasible sets are thin, solve_general agrees with the epigraph's
        # proof, and its every infeasible verdict carries a certificate that
        # ConstraintSet.farkas accepts.
        p = thin_set_problem(seed)
        proofs = {}

        def recording(epigraph, r):
            proofs[r] = proven_feasibility(epigraph, r)
            return proofs[r]

        with mock.patch.object(sweep, "proven_feasibility", recording):
            sweep_region(p, [rd], rate_tol=1e-2)
        for r, verdict in proofs.items():
            sol = solve_general(p, r)
            if verdict is not None:
                assert (sol.status == INFEASIBLE) == (verdict == INFEASIBLE)
            if sol.status == INFEASIBLE:
                cons = ConstraintSet.build(p, sol.thresholds)
                cert = sol.certificate
                assert cons.farkas(np.r_[cert.lam, cert.mu, cert.nu])[1] > 0.0

    # On paper_j3_diag at R_D 0.2 the LP witness meets its binding floor
    # only once lifted onto it. With no eavesdropper there is no ceiling to
    # bound, so no stage and no probe: the row is the one solve at R_s = R_D.
    @pytest.mark.parametrize("name, rds", [
        ("paper_j1", (0.5, 1.0)), ("paper_j1_diag", (0.5, 1.0)), ("paper_j3_diag", (0.2,)),
        (None, (0.5,)), ("j0_lp", (0.5,)),
    ])
    def test_probe_cost_per_row(self, name, rds, monkeypatch):
        calls = count_row_calls(monkeypatch)
        p = named_problem(name)
        proofs = []

        def recording(epigraph, r):
            proofs.append(r)
            return proven_feasibility(epigraph, r)

        monkeypatch.setattr(sweep, "proven_feasibility", recording)
        for rd in rds:
            calls.clear()
            proofs.clear()
            row = sweep_region(p, [rd], rate_tol=1e-3).rows[0]
            count = {attr: calls.count(attr) for attr in set(calls)}
            probes = []
            assert row == probe_row(p, rd, 1e-3, probes)
            assert count.get("epigraph_stages", 0) == count.get("solve_general", 0) == 1
            assert "_continued_face" not in count
            if name in (None, "j0_lp"):
                assert list(sdp.epigraph_stages(p, rd)) == [] and proofs == []
                assert row.status == "optimal" and row.rs_max == rd
                # The route's one barrier run or simplex, in the solve at (rd, rd).
                solver = "_path" if name is None else "solve_diagonal"
                assert count == {"epigraph_stages": 1, "solve_general": 1, solver: 1}
                continue
            # R_s = 0, then one probe per bisection step on [0, rd).
            assert len(probes) == 1 + math.ceil(math.log2(rd / 1e-3)) <= len(proofs)
            # A barrier run or a simplex: the epigraph and the full solve.
            solver = sum(count.get(attr, 0) for attr in ("_path", "solve_diagonal", "min_ceiling"))
            assert solver <= 2

    # An infeasible suffix: the first infeasible row's epigraph proves the
    # floors and the budget infeasible (a floor out of reach of P_T on
    # paper_j1 at 1.2 and paper_j2 at 1.0, the simplex's phase I on
    # paper_j2_diag at 0.9, the epigraph's own dual path on the two
    # orthogonal floors at 0.5), and the rows above it cost no call at all.
    @pytest.mark.parametrize("name, grid, first", [
        ("paper_j1", [1.1, 1.2, 1.6, 2.0], 1), ("paper_j2", [0.9, 1.0, 1.4], 1),
        ("paper_j2_diag", [0.8, 0.9, 1.5], 1), (None, [0.4, 0.5, 0.6, 0.8], 1),
    ])
    def test_probe_cost_carried_rows(self, name, grid, first, monkeypatch):
        calls = count_row_calls(monkeypatch)
        p = TWO_FLOORS if name is None else load_problem(str(PROBLEMS / f"{name}.json")).problem
        rows = sweep_region(p, grid[:first + 1], rate_tol=1e-3).rows
        solved = list(calls)
        calls.clear()
        carried = sweep_region(p, grid, rate_tol=1e-3).rows
        assert carried[:first + 1] == rows and calls == solved
        calls.clear()
        sweep_region(p, [grid[first]], rate_tol=1e-3)
        assert ("_path" in calls) == (name is None)
        assert rows[first].status == "infeasible" and finished_epigraph(p, grid[first]).b_lo == math.inf
        assert [row.status for row in carried[first + 1:]] == ["infeasible"] * (len(grid) - first - 1)
        assert all(full_solve_row(p, row.rd, 1e-3) == row for row in carried[first:])

    def test_qam16_probes_invert_no_rate(self, monkeypatch):
        # The probes are decided in rate space: per row, thresholds are built
        # (and the MI inverted) only by the epigraph, once, at its first
        # stage, and by the final solve. sweep_region itself builds them
        # once, at the grid's top rate.
        scope, calls, callers = [], [], []

        def scoped(attr, call):
            scope.append(attr)
            try:
                return call()
            finally:
                scope.pop()

        def counting(owner, attr, record):
            original = getattr(owner, attr)

            def wrapped(*args, **kwargs):
                record(attr)
                return scoped(attr, lambda: original(*args, **kwargs))
            monkeypatch.setattr(owner, attr, wrapped)

        def counting_stages(*args, **kwargs):
            calls.append("epigraph_stages")
            stages = original_stages(*args, **kwargs)

            def scoped_stages():
                # The generator builds its thresholds inside next(), not here.
                while (stage := scoped("epigraph_stages", lambda: next(stages, None))) is not None:
                    yield stage
            return scoped_stages()

        original_stages = sweep.epigraph_stages
        monkeypatch.setattr(sweep, "epigraph_stages", counting_stages)
        counting(sweep, "solve_general", calls.append)
        counting(sdp, "_continued_face", calls.append)
        counting(MiEvaluator, "inverse", calls.append)
        counting(sdp, "thresholds_finite_alphabet",
                 lambda attr: callers.append(scope[-1] if scope else "probe"))
        p = load_problem(str(PROBLEMS / "paper_j1.json")).problem
        model = MiEvaluator(qam16())
        statuses = []
        for rd in (0.5, 1.0, 1.5):
            calls.clear()
            callers.clear()
            row, = scoped("sweep_region",
                          lambda: sweep_region(p, [rd], rate_tol=1e-3, input_model=model)).rows
            statuses.append(row.status)
            # The grid check: one build, its two inversions before the row.
            assert callers[0] == "sweep_region"
            check = calls.index("epigraph_stages")
            assert calls[:check] == ["inverse", "inverse"]
            row_calls, row_callers = calls[check:], callers[1:]
            assert row_calls.count("inverse") <= 4
            assert row_callers == [c for c in row_calls
                                   if c in ("epigraph_stages", "solve_general", "_continued_face")]
            assert "_continued_face" not in row_calls
            assert row_callers[0] == "epigraph_stages"
        assert statuses == ["optimal", "optimal", "infeasible"]

    def test_qam16_region_inverts_once_per_threshold_build(self, monkeypatch):
        # A 16-QAM region whose rows after the first continue their epigraph
        # from the row before, where some decline it: each row's epigraph
        # thresholds are built once for the continuation and the barrier
        # stages alike. 48 inversions, two per build: the grid's top rate,
        # the epigraph of each row up to the first infeasible one (12) and
        # the final solve of each optimal row (11). Building a declined row's
        # thresholds again made 52.
        inverse, count = MiEvaluator.inverse, []

        def counting(self, *args):
            count.append(args)
            return inverse(self, *args)
        monkeypatch.setattr(MiEvaluator, "inverse", counting)
        p = load_problem(str(PROBLEMS / "paper_j1.json")).problem
        rows = sweep_region(p, code_rate_grid(0.1, 1.6, 0.1), rate_tol=1e-3,
                            input_model=MiEvaluator(qam16())).rows
        assert [row.status for row in rows] == ["optimal"] * 11 + ["infeasible"] * 5
        assert len(count) == 48

    def test_qam16_sweep_quadrature_count(self, monkeypatch):
        # The sweep_qam16 workload's three sweeps: a quadrature is a memo miss
        # of MiEvaluator.rate. Plain bisection made 220 for the same bytes.
        rate, quadratures = MiEvaluator.rate, []

        def counting(self, rho):
            before = len(self._memo)
            bits = rate(self, rho)
            if len(self._memo) > before:
                quadratures.append(rho)
            return bits
        monkeypatch.setattr(MiEvaluator, "rate", counting)
        out = "".join(run_cli(["sweep", "--problem", str(PROBLEMS / "paper_j1.json"),
                               "--alphabet", "16qam", "--rate-tol", "0.001", "--rd-min", rd,
                               "--rd-max", rd, "--rd-step", "0.5"])[1]
                      for rd in ("0.5", "1.0", "1.5"))
        assert out == (QAM16_SWEEP_J1_GOLDEN["0.5"] + QAM16_SWEEP_J1_GOLDEN["1.0"]
                       + f"{CSV_HEADER}\n1.5,,,,infeasible\n")
        assert len(quadratures) == 108

    def test_epigraph_runs_only_as_far_as_the_probes_need(self, ref_j1, monkeypatch):
        # Each stage's bracket lies inside the one before, and the row pulls
        # no stage after the first that decides all its probes: the Newton
        # steps spent before its final solve are the epigraph's.
        budgets, at_solve, staged, full = [], [], [], []

        class CountingBudget(sdp._NewtonBudget):
            def __init__(self, limit):
                super().__init__(limit)
                budgets.append(self)

        def counting_solve(*args, **kwargs):
            at_solve.append(sum(b.used for b in budgets))
            return solve_general(*args, **kwargs)

        monkeypatch.setattr(sdp, "_NewtonBudget", CountingBudget)
        monkeypatch.setattr(sweep, "solve_general", counting_solve)
        for rd in (0.5, 1.0):
            budgets.clear()
            stages = list(sdp.epigraph_stages(ref_j1, rd))
            full.append(sum(b.used for b in budgets))
            assert len(stages) > 1
            for wide, narrow in zip(stages, stages[1:]):
                assert wide.b_lo <= narrow.b_lo <= narrow.b_hi <= wide.b_hi
                assert wide.gap_lo <= narrow.gap_lo <= narrow.gap_hi <= wide.gap_hi
            budgets.clear()
            at_solve.clear()
            row, = sweep_region(ref_j1, [rd], rate_tol=1e-3).rows
            staged.append(at_solve[0])
            assert row == probe_row(ref_j1, rd, 1e-3)
        assert all(a <= b for a, b in zip(staged, full))
        assert any(a < b for a, b in zip(staged, full))

    def test_undecided_probe_after_last_stage_fails_the_row(self, ref_j1, monkeypatch):
        # The path ends after its first stage, whose bracket still holds a
        # probe of the row's bisection: the row is numerical-failure, with no
        # second solve on that probe and no final solve.
        first = next(sdp.epigraph_stages(ref_j1, 1.0))
        probes = []
        assert probe_row(ref_j1, 1.0, 1e-3, probes).status == "optimal"
        assert any(proven_feasibility(first, RatePair(1.0, rs)) is None for rs, _ in probes)
        monkeypatch.setattr(sweep, "epigraph_stages", lambda *args: iter([first]))
        calls = count_row_calls(monkeypatch)
        row, = sweep_region(ref_j1, [1.0], rate_tol=1e-3).rows
        assert row == SweepRow(1.0, None, None, None, "numerical-failure")
        assert calls == ["epigraph_stages"]

    @pytest.mark.parametrize("cause", ["start", "budget"])
    def test_path_that_decides_nothing_fails_the_row(self, ref_j1, cause, monkeypatch):
        # The epigraph fails before its first stage: the first centering of
        # its path raises, or runs out of a two-step Newton budget. It yields
        # one bracket, [-inf, inf], which decides no probe, so the row is
        # numerical-failure with no final solve.
        def stalling(*args):
            raise sdp._NumericalTrouble("stalled")

        if cause == "start":
            monkeypatch.setattr(sdp._Barrier, "center", stalling)
        else:
            monkeypatch.setattr(sdp, "_MAX_NEWTON", 2)
        stages = list(sdp.epigraph_stages(ref_j1, 1.0))
        assert stages == [sdp.Epigraph(-math.inf, math.inf, 0.0, math.inf)]
        assert all(proven_feasibility(stages[0], RatePair(1.0, rs)) is None
                   for rs in (0.0, 0.25, 0.5, 1.0))
        calls = count_row_calls(monkeypatch)
        row, = sweep_region(ref_j1, [1.0], rate_tol=1e-3).rows
        assert row == SweepRow(1.0, None, None, None, "numerical-failure")
        assert calls[0] == "epigraph_stages"
        assert "solve_general" not in calls and "_continued_face" not in calls

    # An eavesdropper the transmitter can null, Z = 0.01 diag(1, 0), so b* =
    # min Tr(Z W) = 0 over the floor and the budget. At R_s = R_D the rate gap
    # is 0, which no bracket proves feasible, while every R_s below R_D is
    # proven feasible: the row ends optimal within rate_tol below R_D.
    @pytest.mark.parametrize("h, route", [([[1, 0.5], [0.5, 1]], "sdp"), ([[1, 0], [0, 1]], "lp")])
    def test_nullable_eavesdropper_rows_end_below_rd(self, h, route, monkeypatch):
        # The SDP route's problem is the one CI sweeps, as saved; the LP
        # route's is its copy with H = I.
        p = data_problem("nullable").problem
        assert route == "lp" or np.array_equal(p.H[0], h)
        p = dataclasses.replace(p, H=(np.array(h, dtype=complex),))
        assert sdp._route(p, RatePair(0.3, 0.0), STATISTICAL, "gaussian")[1] == route
        continued = continued_solutions(monkeypatch)
        rows = sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2).rows
        assert [row.rs_max for row in rows] == [0.290625, 0.590625, 0.9921875]
        continued_rd = {r.R_D for r, _ in continued}
        for row in rows:
            assert row.status == "optimal" and row.rd - 1e-2 <= row.rs_max < row.rd
            sol = solve_general(p, RatePair(row.rd, row.rs_max))
            assert sol.status == OPTIMAL
            if row.rd in continued_rd:
                # Continued from the row before: certified to roundoff.
                assert sol.power == pytest.approx(row.min_power, rel=1e-14, abs=0.0)
            else:
                assert sol.power == row.min_power
            assert check_kkt(p, sol.thresholds, sol.W, sol.duals).passes(1e-5)

    @pytest.mark.parametrize("name, rd", [
        ("paper_j1", 1.2), ("paper_j2", 1.0), ("paper_j2_diag", 0.9),
    ])
    def test_bracket_decides_rows_infeasible_at_zero(self, name, rd):
        # The floors and the budget alone are infeasible at these code rates:
        # the bracket is proven infinite and decides R_s = 0 as phase I does.
        p = load_problem(str(PROBLEMS / f"{name}.json")).problem
        epigraph = finished_epigraph(p, rd)
        assert epigraph.b_lo == math.inf
        r = RatePair(rd, 0.0)
        assert proven_feasibility(epigraph, r) == probe_verdict(p, r) == INFEASIBLE

    def test_six_sweep_csv_md5(self, monkeypatch):
        # The bytes, and the work that produced them: a change that moves a
        # count does different arithmetic, even where the bytes hold. Newton
        # steps are counted per barrier: the final solves centre to
        # _NEWTON_TOL, the epigraph stages only to _EPIGRAPH_TOL. Each final
        # solve is one solve_general call. On the SDP route it is continued
        # from the row before it (_continued_face) where that is certified
        # ("continued"), else it runs its barrier; on the LP route it runs
        # its simplex. Each row's epigraph is continued likewise where that
        # proves a witness ("continued epigraph", the first bracket of the
        # row's epigraph_stages), and a row pulls a bracket from
        # epigraph_stages ("stage": the continued bracket, a barrier stage,
        # the LP's one bracket or an unreachable row's) only while the
        # brackets it has hold a probe. An evaluation at a y_i <= 0 needs no
        # Cholesky factor.
        calls = count_row_calls(monkeypatch, extra=((sweep, "proven_feasibility"),))
        evaluate, newton_step = sdp._Barrier.evaluate, sdp._Barrier.newton_step
        continuing, bracketing = sdp._continued_face, sdp._continued_bracket
        staging = sweep.epigraph_stages

        def counting_stages(*args):
            stages = staging(*args)

            def counted():
                for stage in stages:
                    calls.append("stage")
                    yield stage
            return counted()

        def counting_bracket(*args):
            calls.append("_continued_bracket")
            bracket = bracketing(*args)
            if bracket is not None:
                calls.append("continued epigraph")
            return bracket

        def counting_evaluate(bar, y):
            calls.append("evaluate")
            if np.all(y > 0.0):
                calls.append("evaluate y > 0")
            return evaluate(bar, y)

        def counting(bar, *args):
            calls.append("final newton_step" if bar.e is None else "epigraph newton_step")
            return newton_step(bar, *args)

        def counting_continued(*args):
            end = continuing(*args)
            if end is not None:
                calls.append("continued")
            return end

        monkeypatch.setattr(sdp._Barrier, "evaluate", counting_evaluate)
        monkeypatch.setattr(sdp._Barrier, "newton_step", counting)
        monkeypatch.setattr(sdp, "_continued_face", counting_continued)
        monkeypatch.setattr(sdp, "_continued_bracket", counting_bracket)
        monkeypatch.setattr(sweep, "epigraph_stages", counting_stages)
        csv = "".join(
            to_csv(sweep_region(load_problem(str(path)).problem,
                                code_rate_grid(0.1, 2.0, 0.1), rate_tol=1e-3))
            for path in sorted(PROBLEMS.glob("*.json")))
        assert hashlib.md5(csv.encode()).hexdigest() == "c36d15b83a028ef18be82305981e9c07"
        # 52 final solves: 27 on the SDP route and 25 on the LP route. Of
        # the 24 SDP-route final solves after a sweep's first, all 24 are
        # continued; the LP route ignores its anchor (its 22 rows after a
        # sweep's first). 3 final solves run the barrier: each SDP sweep's
        # first. At paper_j3
        # R_D 0.3 its first ceiling enters the continued face. The epigraph
        # is continued at those 24 rows (each SDP sweep's first infeasible
        # row has a floor out of reach, refuted before any continuation), and
        # 23 continued brackets prove a witness: at paper_j1 1.1 the budget
        # enters the epigraph's face. paper_j2 at 0.9 has none, though the
        # budget enters there too. 6 epigraph barrier runs: each SDP sweep's
        # first row, paper_j2 at 0.9, and paper_j3 at 0.2 and 0.3, whose
        # continued brackets (45% and 32% of b_hi wide) still hold a probe.
        # 79 brackets pulled: the 23 continued ones, and 56 barrier stages
        # and LP brackets.
        count = {attr: calls.count(attr) for attr in set(calls)}
        assert count == {
            "final newton_step": 217, "epigraph newton_step": 120, "_path": 9,
            "min_ceiling": 28, "solve_diagonal": 25, "solve_general": 52,
            "_continued_face": 24, "continued": 24,
            "_continued_bracket": 24, "continued epigraph": 23, "stage": 79,
            "proven_feasibility": 552, "epigraph_stages": 58, "evaluate": 728,
            "evaluate y > 0": 362}
        # 337 Newton steps in all, final and epigraph.
        assert count["final newton_step"] + count["epigraph newton_step"] == 337

    @pytest.mark.parametrize("status, row_status", [
        (MAX_ITERATIONS, "numerical-failure"),
        (RANK1_INFEASIBLE, "rank1-infeasible"),
    ])
    def test_final_solve_status_sets_row_status(self, ref_j1, monkeypatch, status, row_status):
        monkeypatch.setattr(sweep, "solve_general",
                            lambda p, r, **kwargs: BeamformerSolution(status=status))
        res = sweep_region(ref_j1, [0.5, 1.2], rate_tol=1e-2)
        assert res.rows[0] == SweepRow(0.5, None, None, None, row_status)
        assert res.rows[1].status == "infeasible"
        assert to_csv(res).splitlines()[1] == f"0.5,,,,{row_status}"


def continued_solutions(monkeypatch):
    """(rate pair, solution) of every final solve (sweep.solve_general)
    that sweep_region continues from an earlier row (sdp._continued_face)
    and certifies."""
    continued, certified = [], []
    face, solve = sdp._continued_face, sweep.solve_general

    def continuing(*args):
        end = face(*args)
        certified.append(end is not None)
        return end

    def solving(p, r, **kwargs):
        certified.clear()
        sol = solve(p, r, **kwargs)
        if any(certified):
            continued.append((r, sol))
        return sol

    monkeypatch.setattr(sdp, "_continued_face", continuing)
    monkeypatch.setattr(sweep, "solve_general", solving)
    return continued


# A sweep of a bundled problem (its grid 0.1..2.0), or a sweep over R_D 0.2,
# 0.4, ..., 1.2 of a random-set or thin-set seed.
SWEEP_SETS = ["paper_j1", "paper_j2", "paper_j3", "paper_j2_perfect"]


def sweep_case(case):
    """(problem, mode, input model, grid, rate_tol) of a SWEEP_SETS name or
    a ("random" | "thin", seed) pair."""
    if case == "paper_j2_perfect":
        pf = data_problem(case)
        return pf.problem, pf.csi_mode, "gaussian", code_rate_grid(0.1, 2.0, 0.1), 1e-3
    if isinstance(case, str):
        return named_problem(case), STATISTICAL, "gaussian", code_rate_grid(0.1, 2.0, 0.1), 1e-3
    kind, seed = case
    p, mode, model = random_problem(seed) if kind == "random" else (thin_set_problem(seed),
                                                                    STATISTICAL, "gaussian")
    return p, mode, model, code_rate_grid(0.2, 1.2, 0.2), 1e-2


class TestContinuation:
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.sampled_from(SWEEP_SETS),
                     st.tuples(st.sampled_from(["random", "thin"]), st.integers(0, 10_000))))
    @example("paper_j1")
    @example("paper_j2")
    @example("paper_j3")
    @example("paper_j2_perfect")
    def test_continued_rows_match_solve_general(self, case):
        # Every row that the sweep continues from an earlier one is the
        # barrier's optimum at its rate pair: solve_general's status and
        # rank-1 flag, and its power to 1e-12 relative. Where the cold
        # barrier itself ends max_iterations, the continued point still has
        # to pass the KKT check, which it must pass everywhere.
        p, mode, model, grid, rate_tol = sweep_case(case)
        with pytest.MonkeyPatch.context() as patch:
            continued = continued_solutions(patch)
            rows = sweep_region(p, grid, rate_tol=rate_tol, mode=mode, input_model=model).rows
        by_rd = {row.rd: row for row in rows}
        for r, sol in continued:
            rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, mode=mode, tol=1e-10)
            assert rep.passes(1e-10), (case, r)
            row = by_rd[r.R_D]
            assert row.status == ("optimal" if sol.status == OPTIMAL else "rank1-infeasible")
            alone = solve_general(p, r, mode=mode, input_model=model)
            if alone.status == MAX_ITERATIONS:
                continue
            assert (sol.status, sol.rank1_exact) == (alone.status, alone.rank1_exact), (case, r)
            if alone.power is not None:
                assert sol.power == pytest.approx(alone.power, rel=1e-12, abs=0.0), (case, r)
        if case in ("paper_j1", "paper_j2"):
            # Every final solve after the first is continued.
            assert len(continued) == sum(row.status == "optimal" for row in rows) - 1

    def test_face_change_is_continued(self, monkeypatch):
        # paper_j3's first ceiling is inactive at R_D 0.2 (nu_1 = 0) and
        # active at 0.3: the point that the face system of the row at 0.2
        # reaches at 0.3 violates that ceiling, so the ceiling enters the
        # face (sdp._face_solve), and the row at 0.3 is continued too. Only
        # the first row takes the barrier, the one final solve with a
        # Newton step.
        p = bundled(3)
        continued = continued_solutions(monkeypatch)
        barrier, solve = [], sweep.solve_general

        def solving(p, r, **kwargs):
            sol = solve(p, r, **kwargs)
            if sol.newton_iterations:
                barrier.append(r)
            return sol

        monkeypatch.setattr(sweep, "solve_general", solving)
        rows = sweep_region(p, [0.2, 0.3, 0.4], rate_tol=1e-3).rows
        assert [row.status for row in rows] == ["optimal"] * 3
        rates = [RatePair(row.rd, row.rs_max) for row in rows]
        assert barrier == rates[:1] and [r for r, _ in continued] == rates[1:]
        before, after = (solve_general(p, r) for r in rates[:2])
        face = continued[0][1]
        assert before.duals.nu[0] == 0.0 < face.duals.nu[0]
        assert rows[1].min_power == face.power
        assert face.power == pytest.approx(after.power, rel=1e-14, abs=0.0)
        rep = check_kkt(p, face.thresholds, face.W, face.duals, tol=1e-10)
        assert rep.max_residual() <= 1e-10

    def test_budget_entering_the_epigraph_face_needs_no_barrier(self, monkeypatch):
        # paper_j1's power budget is slack at the optimum of R_D 1.0 and
        # binds the epigraph at 1.1: it enters the continued epigraph's face,
        # whose bracket then decides every probe of the row at 1.1 with no
        # barrier stage (no epigraph centring at all).
        p = bundled(1)
        rds, staged = [], []
        staging, center = sweep.epigraph_stages, sdp._Barrier.center

        def counting_stages(p, rd, *args):
            rds.append(rd)
            return staging(p, rd, *args)

        def counting_center(bar, *args):
            if bar.e is not None:
                staged.append(rds[-1])
            return center(bar, *args)

        monkeypatch.setattr(sweep, "epigraph_stages", counting_stages)
        monkeypatch.setattr(sdp._Barrier, "center", counting_center)
        anchor, row = sweep_region(p, [1.0, 1.1], rate_tol=1e-3).rows
        assert anchor.status == row.status == "optimal"
        assert 1.0 in staged and 1.1 not in staged
        assert solve_general(p, RatePair(1.0, anchor.rs_max)).duals.lam == 0.0
        # The row's final solve is continued too: its power is the
        # barrier's to roundoff.
        want = full_solve_row(p, 1.1, 1e-3)
        assert dataclasses.replace(row, min_power=None) == dataclasses.replace(want, min_power=None)
        assert row.min_power == pytest.approx(want.min_power, rel=1e-14, abs=0.0)

    # The corpus rows (tests/corpus.py) where each face rule fires in a
    # final solve: the row with a negative multiplier leaves the face
    # (sdp._face_solve) in the barrier's refinement at thin 31's R_D 0.3 and
    # in the continuation from the row before at thin 145's 0.6, and a fit
    # that misses _FACE_TOL drops the active row of least y0 / s
    # (sdp._refine_face) at random 67's 1.0.
    @pytest.mark.parametrize("kind, seed, rd, rs, missed", [
        ("thin", 31, 0.3, 0.225, False), ("thin", 145, 0.6, 0.58125, False),
        ("random", 67, 1.0, 0.4765625, True),
    ])
    def test_face_rules_certify_corpus_rows(self, kind, seed, rd, rs, missed, monkeypatch):
        if kind == "thin":
            p, mode, model = thin_set_problem(seed), STATISTICAL, "gaussian"
        else:
            p, mode, model = random_problem(seed)
        rds, fits, solved = [], {}, {}
        staging, newton, solve_row = sweep.epigraph_stages, sdp._face_newton, sweep._solve_row

        def counting_stages(p, rd, *args):
            rds.append(rd)
            return staging(p, rd, *args)

        def fitting(A, u, V, y, e=None):
            out = newton(A, u, V, y, e)
            if e is None:  # a final solve's face
                fits.setdefault(rds[-1], []).append((A.shape[0], out[2] <= sdp._FACE_TOL))
            return out

        def solving(p, rd, *args):
            row, sol, carry = solve_row(p, rd, *args)
            solved[rd] = sol
            return row, sol, carry

        monkeypatch.setattr(sweep, "epigraph_stages", counting_stages)
        monkeypatch.setattr(sdp, "_face_newton", fitting)
        monkeypatch.setattr(sweep, "_solve_row", solving)
        rows = sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2, mode=mode, input_model=model).rows
        row, = (row for row in rows if row.rd == rd)
        assert row.status == "optimal" and row.rs_max == pytest.approx(rs, rel=1e-15)
        drops = [met for (n, met), (m, _) in zip(fits[rd], fits[rd][1:]) if m == n - 1]
        assert (not missed) in drops
        sol = solved[rd]
        rep = check_kkt(p, sol.thresholds, sol.W, sol.duals, mode=mode, tol=1e-10)
        assert rep.max_residual() <= 1e-10 and rep.passes(1e-10)

    def test_boundary_rows_at_rate_tol_1e_7(self, monkeypatch):
        # rate_tol 1e-7 puts each row's final solve on its region boundary,
        # where the cold barrier ends max_iterations on six rows of these
        # sweeps. Continued from the row before, four are certified:
        # paper_j1 at R_D 0.3 and paper_j3 at 0.3, 0.5 and 0.7. paper_j2 at
        # 0.7 is optimal too: the barrier's last bracket, 3.5e-9 bits wide,
        # holds one of its probes, but the epigraph continued from the row
        # before decides them all with no barrier stage (no epigraph
        # centring). paper_j2 at 0.9 stays numerical-failure: its
        # continuation misses _FACE_TOL and its barrier still ends
        # max_iterations.
        grid = code_rate_grid(0.1, 1.1, 0.2)
        expected = {
            "paper_j1": ["optimal"] * 6,
            "paper_j2": ["optimal"] * 4 + ["numerical-failure", "infeasible"],
            "paper_j3": ["optimal"] * 4 + ["infeasible"] * 2,
        }
        mended = {"paper_j1": [0.3], "paper_j2": [0.7], "paper_j3": [0.3, 0.5, 0.7]}
        staging, center = sweep.epigraph_stages, sdp._Barrier.center
        for name, statuses in expected.items():
            p = named_problem(name)
            rds, staged = [], []

            def counting_stages(p, rd, *args):
                rds.append(rd)
                return staging(p, rd, *args)

            def counting_center(bar, *args):
                if bar.e is not None:  # an epigraph barrier stage
                    staged.append(rds[-1])
                return center(bar, *args)

            with pytest.MonkeyPatch.context() as patch:
                continued = continued_solutions(patch)
                patch.setattr(sweep, "epigraph_stages", counting_stages)
                patch.setattr(sdp._Barrier, "center", counting_center)
                rows = sweep_region(p, grid, rate_tol=1e-7).rows
            assert [row.status for row in rows] == statuses, name
            if name == "paper_j2":
                # Alone, with no row before it, the row has only the barrier.
                assert 0.7 not in staged
                row, = sweep_region(p, [0.7], rate_tol=1e-7).rows
                assert row.status == "numerical-failure"
            continued = {r.R_D: (r, sol) for r, sol in continued}
            assert set(mended[name]) <= set(continued), name
            for rd in mended[name]:
                r, sol = continued[rd]
                assert check_kkt(p, sol.thresholds, sol.W, sol.duals, tol=1e-10).passes(1e-10)


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


class TestCli:
    def test_validate_ok(self):
        code, out = run_cli(["validate", "--problem", str(PROBLEMS / "paper_j1.json")])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_bad_file_exit_2(self, tmp_path):
        # A missing field, and a top-level value that is not an object.
        path = tmp_path / "bad.json"
        for text in ('{"N": 1}', "[1, 2]"):
            path.write_text(text)
            code, _ = run_cli(["validate", "--problem", str(path)])
            assert code == 2

    def test_solve_feasible_exit_0(self):
        code, out = run_cli([
            "solve", "--problem", str(PROBLEMS / "paper_j1.json"),
            "--rd", "1.0", "--rs", "0.5",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["rank1_exact"] is True
        assert len(doc["w"]) == 3 and len(doc["w"][0]) == 2
        assert doc["kkt_residual_max"] <= 1e-5
        assert abs(sum(re**2 + im**2 for re, im in doc["w"]) - doc["power"]) < 1e-6

    def test_solve_infeasible_exit_1(self):
        code, out = run_cli([
            "solve", "--problem", str(PROBLEMS / "paper_j1.json"),
            "--rd", "2.0", "--rs", "1.0",
        ])
        assert code == 1
        assert json.loads(out)["status"] == "infeasible"

    def test_solve_out_of_newton_steps_exit_3(self, monkeypatch):
        # Two Newton steps cannot reach the optimum: the solve ends
        # max_iterations, the numerical-failure exit code.
        monkeypatch.setattr(sdp, "_MAX_NEWTON", 2)
        code, out = run_cli([
            "solve", "--problem", str(PROBLEMS / "paper_j1.json"),
            "--rd", "1.0", "--rs", "0.5",
        ])
        assert code == 3
        assert json.loads(out) == {"status": "max_iterations"}

    @pytest.mark.parametrize("field, value", [
        ("H", "NaN"), ("P_T", "Infinity"), ("N0", "Infinity"),
        ("P_T", '{"value": 1e5, "unit": "dB"}'), ("N", "Infinity"),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, field, value):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        if field == "H":
            doc["H"][0][0][0] = ["@", 0.0]
        else:
            doc[field] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', value))
        code, out = run_cli(["validate", "--problem", str(path)])
        assert code == 2 and '"ok": true' not in out
        capsys.readouterr()
        code, _ = run_cli(["solve", "--problem", str(path), "--rd", "0.5", "--rs", "0.1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    # int() would read 3.7 and "3" as 3, and a JSON true as 1: N, K and J
    # must be JSON integers.
    @pytest.mark.parametrize("field, value", [
        ("N", 3.7), ("N", "3"), ("N", True), ("K", 2.0), ("J", "1"), ("J", True),
    ])
    def test_count_not_json_integer_exit_2(self, tmp_path, capsys, field, value):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", "--problem", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {field}: expected a JSON integer")

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(H=5), "H"),
        (lambda doc: doc["H"][0].__setitem__(1, 7), "H[0] row 1"),
        (lambda doc: doc.update(csi_mode={"perfect_users": 3}), "csi_mode.perfect_users"),
    ])
    def test_number_for_list_exit_2(self, tmp_path, capsys, edit, field):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["validate", "--problem", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: expected a list")

    # A JSON integer beyond the float range parses, and float() raises
    # OverflowError on it: each number the file holds names its field.
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["H"][0][1].__setitem__(0, [BIG_INT, 0.0]), "H[0][1]"),
        (lambda doc: doc["Z"][0][0].__setitem__(2, [0.0, BIG_INT]), "Z[0][0]"),
        (lambda doc: doc.update(N0=BIG_INT), "N0"),
        (lambda doc: doc.update(epsilon=BIG_INT), "epsilon"),
        (lambda doc: doc.update(P_T=BIG_INT), "P_T"),
        (lambda doc: doc.update(P_T={"value": BIG_INT, "unit": "dB"}), "P_T value"),
    ])
    def test_int_beyond_float_range_exit_2(self, tmp_path, capsys, edit, field):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", "--problem", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    # float() would read "1.0" and true, and a two-character string would
    # unpack as an [re, im] pair: every number the file holds is a JSON
    # number, and each names its field. So does every other malformed entry:
    # N = 0 (which crashed the solver as a LinalgError), a power entry with
    # no value or an unknown unit, a matrix count, a short matrix row, and a
    # CSI mode that is unknown or has the wrong count or length of channels.
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(N0="1.0"), "N0"),
        (lambda doc: doc.update(epsilon="0.1"), "epsilon"),
        (lambda doc: doc.update(P_T=True), "P_T"),
        (lambda doc: doc.update(P_T={"value": "12", "unit": "dB"}), "P_T value"),
        (lambda doc: doc["H"][0][0].__setitem__(0, "21"), "H[0][0]"),
        (lambda doc: doc["H"][0][0].__setitem__(0, [True, False]), "H[0][0]"),
        pytest.param(lambda doc: doc.update(N=0, H=[[]], Z=[], K=1, J=0), "N", id="N-0"),
        pytest.param(lambda doc: doc.update(P_T={"unit": "dB"}), "P_T", id="P_T-no-value"),
        pytest.param(lambda doc: doc.update(P_T={"value": 1.0, "unit": "W"}), "P_T",
                     id="P_T-unknown-unit"),
        pytest.param(lambda doc: doc["H"].pop(), "H", id="H-count"),
        pytest.param(lambda doc: doc["H"][0][1].pop(), "H[0] row 1", id="H-short-row"),
        pytest.param(lambda doc: doc.update(csi_mode="perfect"), "csi_mode",
                     id="csi_mode-unknown"),
        pytest.param(lambda doc: doc.update(csi_mode={"perfect_users": [[[1.0, 0.0]] * 3]}),
                     "csi_mode.perfect_users", id="perfect_users-count"),
        pytest.param(lambda doc: doc.update(csi_mode={"perfect_users": [[[1.0, 0.0]] * 2] * 2}),
                     "perfect_users[0]", id="perfect_users-length"),
    ])
    def test_number_not_json_number_exit_2(self, tmp_path, capsys, edit, field):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", "--problem", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("alphabet", [
        [[BIG_INT, 0.0], [-1.0, 0.0]], 5, ["10", "01"], [[True, False], [False, True]],
    ])
    def test_alphabet_not_float_pairs_exit_2(self, tmp_path, capsys, alphabet):
        doc = json.loads((PROBLEMS / "paper_j1.json").read_text())
        doc["alphabet"] = alphabet
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["solve", "--problem", str(path), "--rd", "0.5", "--rs", "0.1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: alphabet entries must be [re, im] pairs")

    @pytest.mark.parametrize("text", ["# not JSON\n", "[[1.0, 0.0], [-1.0, 0.0]", "\udcff"])
    def test_alphabet_file_not_json_exit_2(self, tmp_path, capsys, text):
        # Markdown, a truncated list, and bytes that are not UTF-8.
        path = tmp_path / "alphabet.md"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        code, out = run_cli(["mi", "--alphabet", str(path), "--points", "5"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith(f"error: alphabet file {path} is not valid JSON")

    def test_solve_unreachable_floor_exit_1_without_warning(self):
        # a is about 1e156 at R_D 520, far beyond P_T lambda_max(H_k): the
        # floor is refuted before the barrier, whose slacks would overflow.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(["solve", "--problem", str(PROBLEMS / "paper_j1.json"),
                                 "--rd", "520", "--rs", "0"])
        assert code == 1 and json.loads(out)["status"] == "infeasible"
        assert caught == []

    @pytest.mark.parametrize("flag, value", [("--rate-tol", "nan"), ("--rd-max", "inf")])
    def test_sweep_non_finite_flag_exit_2(self, capsys, flag, value):
        args = {"--rd-min": "0.5", "--rd-max": "0.6", "--rd-step": "0.1", "--rate-tol": "1e-3"}
        args[flag] = value
        code, out = run_cli(["sweep", "--problem", str(PROBLEMS / "paper_j1.json"),
                             *(x for item in args.items() for x in item)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_montecarlo_bad_seed_exit_2(self, capsys, seed):
        code, out = run_cli(["montecarlo", "--problem", str(PROBLEMS / "paper_j1.json"),
                             "--rd", "0.8", "--rs", "0.3", "--trials", "1000",
                             "--seed", seed])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: seed") and "Traceback" not in err

    # (1.5, 0.0) is infeasible and (0.8, 0.3) feasible: either way a bad
    # sample stream is rejected before the solve could report on the point.
    @pytest.mark.parametrize("rd, rs", [("1.5", "0.0"), ("0.8", "0.3")])
    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed"), ("--trials", "-5", "trials"), ("--trials", "0", "trials"),
    ])
    def test_montecarlo_bad_stream_exit_2_before_solve(self, capsys, monkeypatch,
                                                      rd, rs, flag, value, message):
        solves = []
        monkeypatch.setattr(wiretap.cli, "solve_general",
                            lambda *args, **kwargs: solves.append(args))
        args = {"--rd": rd, "--rs": rs, "--trials": "1000", "--seed": "0", flag: value}
        code, out = run_cli(["montecarlo", "--problem", str(PROBLEMS / "paper_j1.json"),
                             *(x for item in args.items() for x in item)])
        assert code == 2 and out == "" and solves == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    # Each rate's received-power threshold overflows: exit 2, not a traceback.
    # The last grid's rows below R_D 1024 have finite thresholds, but the
    # first of them is infeasible and its proof would carry to the rest.
    @pytest.mark.parametrize("command, rates", [
        ("solve", ["--rd", "1e6", "--rs", "0"]),
        ("solve", ["--rd", "inf", "--rs", "0"]),
        ("kkt", ["--rd", "1e6", "--rs", "0"]),
        ("montecarlo", ["--rd", "1e6", "--rs", "0", "--trials", "10"]),
        ("sweep", ["--rd-min", "1050", "--rd-max", "1100", "--rd-step", "50"]),
        ("sweep", ["--rd-min", "1000", "--rd-max", "1100", "--rd-step", "50"]),
    ])
    def test_rate_without_finite_threshold_exit_2(self, capsys, command, rates):
        code, out = run_cli([command, "--problem", str(PROBLEMS / "paper_j1.json"), *rates])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    # QPSK carries at most 2 bits. On paper_j1 the rows below R_D 2 are
    # infeasible at its own P_T and feasible at P_T 1e6; the grid is rejected
    # either way, at its top rate, before any row is solved.
    @pytest.mark.parametrize("p_t", [None, 1e6])
    def test_sweep_past_alphabet_capacity_exit_2(self, tmp_path, capsys, monkeypatch, p_t):
        p = load_problem(str(PROBLEMS / "paper_j1.json")).problem
        if p_t is not None:
            p = dataclasses.replace(p, P_T=p_t)
        path = tmp_path / "problem.json"
        save_problem(str(path), p)
        code, out = run_cli(["sweep", "--problem", str(path), "--alphabet", "qpsk",
                             "--rd-min", "1.5", "--rd-max", "2.5", "--rd-step", "0.25"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: R_D = 2.5 is unachievable by an alphabet with capacity 2.0\n")

        def unexpected(*args, **kwargs):
            raise AssertionError("a row was solved")
        monkeypatch.setattr(sweep, "epigraph_stages", unexpected)
        monkeypatch.setattr(sweep, "solve_general", unexpected)
        with pytest.raises(RateUnachievableError):
            sweep_region(p, code_rate_grid(1.5, 2.5, 0.25), input_model=QPSK_MI)

    def test_mi_points_above_grid_limit_exit_2(self, capsys):
        code, out = run_cli(["mi", "--alphabet", "qpsk", "--points", "10000000000000"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_kkt_bad_tol_exit_2(self, capsys, tol):
        code, out = run_cli(["kkt", "--problem", str(PROBLEMS / "paper_j1.json"),
                             "--rd", "1.0", "--rs", "0.5", "--tol", tol])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: tol")

    def test_unknown_flag_exit_2(self):
        code, _ = run_cli(["solve", "--problem", "x.json", "--nope", "1"])
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _ = run_cli(["solve", "--problem", "/does/not/exist.json",
                           "--rd", "1.0", "--rs", "0.5"])
        assert code == 2

    def test_sweep_csv_deterministic(self, tmp_path):
        args = ["sweep", "--problem", str(PROBLEMS / "paper_j1.json"),
                "--rd-min", "0.4", "--rd-max", "0.8", "--rd-step", "0.2"]
        code1, out1 = run_cli(args + ["--output", str(tmp_path / "a.csv")])
        code2, out2 = run_cli(args + ["--output", str(tmp_path / "b.csv")])
        assert code1 == code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "rd,rs_max,min_power,rank1,status"

    def test_montecarlo_byte_identical_runs(self, tmp_path):
        args = ["montecarlo", "--problem", str(PROBLEMS / "paper_j1.json"),
                "--rd", "0.8", "--rs", "0.3", "--trials", "20000", "--seed", "7"]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["p_hat"] >= doc["non_outage_target"] - 3 * doc["ci_halfwidth"]

    def test_montecarlo_golden_output(self):
        # Pinned bytes: chunking and the single draw must not move any count.
        code, out = run_cli(["montecarlo", "--problem", str(PROBLEMS / "paper_j1.json"),
                             "--rd", "1.0", "--rs", "0.5", "--trials", "100000",
                             "--seed", "7"])
        assert code == 0
        assert out == MONTECARLO_J1_GOLDEN

    @pytest.mark.parametrize("command,name,rd,rs,code,golden", [
        ("solve", "paper_j2", "0.6", "0.2", 0, SOLVE_J2_GOLDEN),
        ("solve", "paper_j2_diag", "0.6", "0.2", 0, SOLVE_J2_DIAG_GOLDEN),
        ("solve", "paper_j2", "1.0", "0.5", 1, {"status": "infeasible"}),
        ("solve", "paper_j2_diag", "1.0", "0.5", 1, {"status": "infeasible"}),
        ("kkt", "paper_j1", "1.0", "0.5", 0, KKT_J1_GOLDEN),
    ])
    def test_golden_output(self, command, name, rd, rs, code, golden):
        got_code, out = run_cli([command, "--problem", str(PROBLEMS / f"{name}.json"),
                                 "--rd", rd, "--rs", rs])
        assert got_code == code
        assert out == json.dumps(golden, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("rd", sorted(QAM16_SWEEP_J1_GOLDEN))
    def test_sweep_qam16_golden_output(self, rd):
        code, out = run_cli(["sweep", "--problem", str(PROBLEMS / "paper_j1.json"),
                             "--alphabet", "16qam", "--rate-tol", "0.001",
                             "--rd-min", rd, "--rd-max", rd, "--rd-step", "0.1"])
        assert code == 0
        assert out == QAM16_SWEEP_J1_GOLDEN[rd]

    def test_mi_qam16_golden_output(self):
        code, out = run_cli(["mi", "--alphabet", "16qam", "--rho-min", "0",
                             "--rho-max", "20", "--points", "41"])
        assert code == 0
        assert out == MI_QAM16_GOLDEN

    def test_kkt_subcommand(self):
        code, out = run_cli(["kkt", "--problem", str(PROBLEMS / "paper_j2.json"),
                             "--rd", "0.6", "--rs", "0.2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] is True
        assert doc["rank_W"] == 1

    def test_kkt_tol_reaches_rank_bound(self):
        # scalar_identity is about 1.4e-16, above a tolerance of 1e-20.
        code, out = run_cli(["kkt", "--problem", str(PROBLEMS / "paper_j3.json"),
                             "--rd", "0.5", "--rs", "0.15", "--tol", "1e-20"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["rank_bound_ok"] is False

    def test_mi_subcommand(self, tmp_path):
        out_path = tmp_path / "mi.csv"
        code, _ = run_cli(["mi", "--alphabet", "bpsk", "--rho-min", "0",
                           "--rho-max", "10", "--points", "11",
                           "--output", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "rho,mi_bits"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_solve_with_alphabet(self):
        code, out = run_cli(["solve", "--problem", str(PROBLEMS / "paper_j1.json"),
                             "--rd", "0.5", "--rs", "0.2", "--alphabet", "bpsk"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"

    def test_console_entry_point(self):
        # The subprocess must import the same package as this test, installed
        # or not, so its directory goes first on the child's PYTHONPATH.
        package_root = str(pathlib.Path(wiretap.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, inherited] if inherited else [package_root])}
        proc = subprocess.run(
            [sys.executable, "-m", "wiretap.cli", "validate",
             "--problem", str(PROBLEMS / "paper_j3.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("args", [
        ["kkt", "--problem", "paper_j1.json", "--rd", "1.0", "--rs", "0.5"],
        ["montecarlo", "--problem", "paper_j1.json", "--rd", "1.0", "--rs", "0.5",
         "--trials", "1000", "--seed", "0"],
        ["sweep", "--problem", "paper_j1.json", "--alphabet", "16qam",
         "--rd-min", "0.5", "--rd-max", "1.5", "--rd-step", "0.5"],
        ["solve", "--problem", "paper_j1_diag.json", "--rd", "1.0", "--rs", "0.5"],
        ["sweep", "--problem", "paper_j2_diag.json", "--rd-min", "0.3", "--rd-max", "1.0",
         "--rd-step", "0.7"],
    ], ids=["kkt", "montecarlo", "sweep-16qam", "solve-diag", "sweep-diag"])
    def test_scipy_loads_only_on_the_lp_route(self, tmp_path, args):
        # A fresh interpreter, so no other test's imports are in sys.modules:
        # no command loads any scipy module, the diagonal-LP route included.
        args = [str(PROBLEMS / a) if a.endswith(".json") else a for a in args]
        script = (
            "import json, sys\n"
            "from wiretap.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')]))\n"
        )
        package_root = str(pathlib.Path(wiretap.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, inherited] if inherited else [package_root])}
        proc = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps(args + ["--output", str(tmp_path / "out")])],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]

    def test_solve_perfect_csi_problem(self, tmp_path, ref_j1):
        from wiretap.model import perfect_users

        rng = np.random.default_rng(1)
        hs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        path = tmp_path / "perfect.json"
        save_problem(path, ref_j1, csi_mode=perfect_users(hs))
        code, out = run_cli(["solve", "--problem", str(path),
                             "--rd", "0.8", "--rs", "0.3"])
        assert code == 0
        assert json.loads(out)["status"] == "optimal"

    def test_montecarlo_rejects_perfect_csi(self, tmp_path, ref_j1):
        from wiretap.model import perfect_users

        rng = np.random.default_rng(1)
        hs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(2)]
        path = tmp_path / "perfect.json"
        save_problem(path, ref_j1, csi_mode=perfect_users(hs))
        code, _ = run_cli(["montecarlo", "--problem", str(path),
                           "--rd", "0.8", "--rs", "0.3", "--trials", "1000",
                           "--seed", "1"])
        assert code == 2
