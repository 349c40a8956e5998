"""Achievable (code rate, secrecy rate) region sweep.

For each code rate R_D on an ascending grid, the largest achievable secrecy
rate is found by bisection: raising R_s at fixed R_D lowers the eavesdropper
ceiling b, so the feasible set of the rank relaxation only shrinks and its
feasibility is monotone in R_s. Each row opens one epigraph solve
(sdp.epigraph_stages), a proven bracket on b* = min max_j Tr(Z_j W) over the
floors and the budget, mapped to a bracket on the rate gap R_D - R_s after
each barrier stage. Each probe, R_s = 0 included, is decided by comparing its
gap with the current stage's bracket (sdp.proven_feasibility), with no
threshold or MI inversion. The brackets narrow stage by stage, and the row
pulls the next stage only while a probe's gap lies inside the current one,
so the path runs only as far as the probes need. Only a probe that the
finished path still leaves inside its bracket, or every probe when there are
no stages, runs relaxation_feasibility (the interior start or phase I, or the
diagonal LP). The row then costs one full solve_general, at the largest
feasible R_s found (R_D itself when R_s = R_D is feasible). That solve's
rank-1 recovery is not monotone in R_s, so it is kept out of the bisection.

An infeasible row ends the sweep's solving. When a row's epigraph proves
the floors and the budget infeasible (b_lo = inf: a Farkas certificate, or
HiGHS status 2), every later row is `infeasible` with no solve: the floors
a(R_D) rise with R_D, so the set of W that meets them and the budget only
shrinks up the grid. Such a row builds no thresholds, so the thresholds of
the grid's top R_D are built once before any row: a grid that reaches a
finite alphabet's capacity, or a Gaussian 2^R_D overflow, is rejected
whatever P_T is.

Each row reports the largest feasible R_s (within rate_tol), the minimum
transmit power there, and whether the relaxed solution had numerical rank
one. A row is `infeasible` when the relaxation is infeasible even at
R_s = 0, and `numerical-failure` when a probe or the final solve runs out of
Newton steps. When the final solve's relaxation is feasible but its
principal direction is not a feasible beamformer, the row is
`rank1-infeasible` with no rates or power: the relaxation bounds the region
from outside, so no achievable point is claimed. Rows are solved in grid
order.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .model import STATISTICAL, CsiMode, ModelError, RatePair, WiretapProblem
from .sdp import (
    FEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    RANK1_INFEASIBLE,
    epigraph_stages,
    proven_feasibility,
    rate_thresholds,
    relaxation_feasibility,
    solve_general,
)

ROW_OPTIMAL = "optimal"
ROW_INFEASIBLE = "infeasible"
ROW_NUMERICAL_FAILURE = "numerical-failure"
ROW_RANK1_INFEASIBLE = "rank1-infeasible"

CSV_HEADER = "rd,rs_max,min_power,rank1,status"
MAX_GRID = 10**6   # code rates a grid may hold


@dataclass(frozen=True)
class SweepRow:
    rd: float
    rs_max: float | None
    min_power: float | None
    rank1_exact: bool | None
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    rate_tol: float


class _RowFailure(Exception):
    pass


def _largest_feasible(feasible, rd: float, rate_tol: float) -> float:
    """rd when feasible(rd), else the bisection's largest feasible R_s in
    [0, rd), feasible(0) being known."""
    if feasible(rd):
        return rd
    lo, hi = 0.0, rd
    while hi - lo > rate_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _solve_row(p, rd, rate_tol, mode, input_model) -> tuple[SweepRow, bool]:
    """The row at rd, and whether its epigraph proves the floors and the
    budget infeasible (b_lo = inf), which holds at every larger rd too."""
    stages = epigraph_stages(p, rd, mode, input_model)
    epigraph = next(stages, None)

    def feasible(rs: float) -> bool:
        """The verdict of the first stage whose bracket decides rs, pulling
        stages while it holds rs; relaxation_feasibility's once they run out
        or when there are none. Brackets only narrow, so a verdict never
        changes at a later stage."""
        nonlocal epigraph
        while epigraph is not None:
            verdict = proven_feasibility(epigraph, RatePair(rd, rs))
            if verdict is not None:
                return verdict == FEASIBLE
            later = next(stages, None)
            if later is None:
                break
            epigraph = later
        verdict = relaxation_feasibility(p, RatePair(rd, rs), mode=mode,
                                         input_model=input_model)
        if verdict == MAX_ITERATIONS:
            raise _RowFailure()
        return verdict == FEASIBLE

    try:
        lo = _largest_feasible(feasible, rd, rate_tol) if feasible(0.0) else None
    except _RowFailure:
        return SweepRow(rd, None, None, None, ROW_NUMERICAL_FAILURE), False
    if lo is None:
        carry = epigraph is not None and epigraph.b_lo == math.inf
        return SweepRow(rd, None, None, None, ROW_INFEASIBLE), carry
    sol = solve_general(p, RatePair(rd, lo), mode=mode, input_model=input_model)
    if sol.status == OPTIMAL:
        return SweepRow(rd, lo, sol.power, sol.rank1_exact, ROW_OPTIMAL), False
    status = ROW_RANK1_INFEASIBLE if sol.status == RANK1_INFEASIBLE else ROW_NUMERICAL_FAILURE
    return SweepRow(rd, None, None, None, status), False


def code_rate_grid(rd_min: float, rd_max: float, rd_step: float) -> list[float]:
    """rd_min, rd_min + rd_step, ... <= rd_max, each rounded to 12 decimals so
    accumulated steps land on 0.3, not 0.30000000000000004."""
    if not all(math.isfinite(x) for x in (rd_min, rd_max, rd_step)):
        raise ModelError("rd-min, rd-max and rd-step must be finite")
    if rd_step <= 0 or rd_max < rd_min or rd_min <= 0:
        raise ModelError("need 0 < rd-min <= rd-max and rd-step > 0")
    steps = (rd_max - rd_min) / rd_step
    if not steps < MAX_GRID:
        raise ModelError(f"the code-rate grid would have more than {MAX_GRID} rates")
    grid = []
    rd = rd_min
    # At most the grid's length, even where rd + rd_step rounds back to rd.
    for _ in range(int(steps) + 2):
        if rd > rd_max + 1e-12:
            break
        grid.append(round(rd, 12))
        rd += rd_step
    return grid


def sweep_region(
    p: WiretapProblem,
    rd_grid,
    rate_tol: float = 1e-3,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
) -> SweepResult:
    grid = [float(r) for r in rd_grid]
    if not grid:
        raise ModelError("empty code-rate grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ModelError("code-rate grid must be strictly increasing")
    if not all(math.isfinite(rd) for rd in grid):
        raise ModelError("code rates must be finite")
    if not (math.isfinite(rate_tol) and rate_tol > 0.0):
        raise ModelError(f"rate_tol must be positive and finite: {rate_tol}")
    # Thresholds rise with R_D: the top rate's are finite exactly when every
    # rate's are. Otherwise RateUnachievableError, before any row is solved.
    rate_thresholds(p, RatePair(grid[-1], 0.0), input_model)
    rows, carry = [], False
    for rd in grid:
        if carry:
            # The floors a(R_D) rise with R_D: where they and the budget are
            # proven infeasible, they are at every larger code rate too.
            rows.append(SweepRow(rd, None, None, None, ROW_INFEASIBLE))
        else:
            row, carry = _solve_row(p, rd, rate_tol, mode, input_model)
            rows.append(row)
    return SweepResult(rows=tuple(rows), rate_tol=rate_tol)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.9g}"


def to_csv(result: SweepResult) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in result.rows:
        rank1 = "" if row.rank1_exact is None else ("true" if row.rank1_exact else "false")
        out.write(f"{row.rd:.9g},{_fmt(row.rs_max)},{_fmt(row.min_power)},{rank1},{row.status}\n")
    return out.getvalue()
