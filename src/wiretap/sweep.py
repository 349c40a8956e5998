"""Achievable (code rate, secrecy rate) region sweep.

For each code rate R_D on an ascending grid, the largest achievable secrecy
rate is found by bisection: raising R_s at fixed R_D lowers the eavesdropper
ceiling b, so the feasible set only shrinks and feasibility is monotone in
R_s. Each row reports the largest feasible R_s (within rate_tol), the
minimum transmit power there, and whether the relaxed solution had numerical
rank one. Rows are solved in grid order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .model import STATISTICAL, CsiMode, ModelError, RatePair, WiretapProblem
from .sdp import (
    INFEASIBLE,
    MAX_ITERATIONS,
    RANK1_INFEASIBLE,
    BeamformerSolution,
    SolverOptions,
    solve_general,
)

ROW_OPTIMAL = "optimal"
ROW_INFEASIBLE = "infeasible"
ROW_NUMERICAL_FAILURE = "numerical-failure"

CSV_HEADER = "rd,rs_max,min_power,rank1,status"


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


def _solve_row(p, rd, rate_tol, mode, input_model, options) -> SweepRow:
    def attempt(rs: float) -> BeamformerSolution | None:
        sol = solve_general(p, RatePair(rd, rs), mode=mode,
                            input_model=input_model, options=options)
        if sol.status == MAX_ITERATIONS:
            raise _RowFailure()
        if sol.status in (INFEASIBLE, RANK1_INFEASIBLE):
            return None
        return sol

    try:
        best = attempt(0.0)
        if best is None:
            return SweepRow(rd, None, None, None, ROW_INFEASIBLE)
        top = attempt(rd)
        if top is not None:
            return SweepRow(rd, rd, top.power, top.rank1_exact, ROW_OPTIMAL)
        lo, hi = 0.0, rd
        while hi - lo > rate_tol:
            mid = 0.5 * (lo + hi)
            sol = attempt(mid)
            if sol is None:
                hi = mid
            else:
                lo, best = mid, sol
        return SweepRow(rd, lo, best.power, best.rank1_exact, ROW_OPTIMAL)
    except _RowFailure:
        return SweepRow(rd, None, None, None, ROW_NUMERICAL_FAILURE)


def code_rate_grid(rd_min: float, rd_max: float, rd_step: float) -> list[float]:
    """rd_min, rd_min + rd_step, ... <= rd_max, each rounded to 12 decimals so
    accumulated steps land on 0.3, not 0.30000000000000004."""
    if rd_step <= 0 or rd_max < rd_min or rd_min <= 0:
        raise ModelError("need 0 < rd-min <= rd-max and rd-step > 0")
    grid = []
    rd = rd_min
    while rd <= rd_max + 1e-12:
        grid.append(round(rd, 12))
        rd += rd_step
    return grid


def sweep_region(
    p: WiretapProblem,
    rd_grid,
    rate_tol: float = 1e-3,
    mode: CsiMode = STATISTICAL,
    input_model="gaussian",
    options: SolverOptions | None = None,
) -> SweepResult:
    grid = [float(r) for r in rd_grid]
    if not grid:
        raise ModelError("empty code-rate grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ModelError("code-rate grid must be strictly increasing")
    if rate_tol <= 0.0:
        raise ModelError(f"rate_tol must be positive: {rate_tol}")
    rows = tuple(_solve_row(p, rd, rate_tol, mode, input_model, options) for rd in grid)
    return SweepResult(rows=rows, rate_tol=rate_tol)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.9g}"


def to_csv(result: SweepResult) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in result.rows:
        rank1 = "" if row.rank1_exact is None else ("true" if row.rank1_exact else "false")
        out.write(f"{row.rd:.9g},{_fmt(row.rs_max)},{_fmt(row.min_power)},{rank1},{row.status}\n")
    return out.getvalue()
