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
so the path runs only as far as the probes need. The brackets are the only
decider: a probe that the last stage still leaves inside its bracket makes
the row `numerical-failure`. The row then costs one final solve, at the
largest R_s proven feasible, below R_D: the gap 0 of R_s = R_D is never
above a bracket (rate_bracket maps every b to a gap of 0 or more), so R_D is
not probed. That solve's rank-1 recovery is not monotone in R_s, so it is
kept out of the bisection. A row with no stages is one where R_s moves no
row of the problem (R_D = 0, or no nonzero eavesdropper ceiling): its one
final solve at R_s = R_D decides it, and that solve's status is the row's.

An infeasible row ends the sweep's solving. When a row's epigraph proves
the floors and the budget infeasible (b_lo = inf: a Farkas certificate from
the barrier or from the simplex's phase I), every later row is `infeasible`
with no solve: the floors a(R_D) rise with R_D, so the set of W that meets
them and the budget only shrinks up the grid. Such a row builds no
thresholds, so the thresholds of the grid's top R_D are built once before
any row: a grid that reaches a finite alphabet's capacity, or a Gaussian
2^R_D overflow, is rejected whatever P_T is.

Each row reports the largest feasible R_s (within rate_tol), the minimum
transmit power there, and whether the relaxed solution had numerical rank
one. A row is `infeasible` when the relaxation is infeasible even at
R_s = 0, and `numerical-failure` when the epigraph leaves a probe undecided
or the final solve runs out of Newton steps. When the final solve's
relaxation is feasible but its principal direction is not a feasible
beamformer, the row is `rank1-infeasible` with no rates or power: the
relaxation bounds the region from outside, so no achievable point is
claimed.

A sweep is one pass over the grid: each row's bisection, then at once its
final solve. All final solves share the problem's rows A and differ only in
their thresholds u, so each is first continued from the nearest row before
it with a certified optimum (sdp.continue_face): Newton on that row's
optimal face at the new thresholds, accepted only by the test that earns a
barrier solve OPTIMAL (sdp._face_point). The first row, and a row whose face
changes (a row turning active or inactive), take solve_general's barrier,
and the rows after it continue from there.

That optimum, a final solve on the region's boundary, also starts the next
row's epigraph (sdp.continue_epigraph): Newton on the epigraph's face at
the new floors, whose multipliers and witness prove a bracket as a barrier
stage's do, to roundoff when the face holds. The row decides its probes on
that bracket first, and pulls barrier stages, each met with it, only while
a probe stays inside. A continuation with no witness leaves the row to the
barrier, which proves b_lo = inf where the floors and the budget are
infeasible, so the carry above such a row is the barrier's.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .model import STATISTICAL, CsiMode, ModelError, RatePair, WiretapProblem
from .sdp import (
    FEASIBLE,
    INFEASIBLE,
    OPTIMAL,
    RANK1_INFEASIBLE,
    continue_epigraph,
    continue_face,
    epigraph_constraints,
    epigraph_stages,
    proven_feasibility,
    rate_thresholds,
    routes_to_lp,
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


def _solve_row(p, rd, rate_tol, mode, input_model, anchor):
    """(row, sol, carry): the row at rd; its final solve's solution, or None
    when the epigraph decides the row alone; and whether its epigraph proves
    the floors and the budget infeasible (b_lo = inf), which holds at every
    larger rd too. With stages, one bisection of R_s on [0, rd) by their
    brackets, and the final solve at its lower end; with none, the one solve
    at R_s = rd. anchor is a certified relaxed optimum (one with W) of an
    earlier row, or None. The epigraph is first continued from it
    (continue_epigraph), and the barrier stages are pulled only while that
    bracket holds a probe; the two share the row's one build of its
    thresholds and rows (epigraph_constraints). The final solve is first
    continued from it too (continue_face); when there is none, or the
    continuation is not certified, it is solve_general's own."""
    routed = epigraph_constraints(p, rd, mode, input_model)
    stages = epigraph_stages(p, rd, mode, input_model, routed)
    continued = None if anchor is None else continue_epigraph(p, anchor, routed, mode, input_model)
    epigraph = next(stages, None) if continued is None else continued

    def feasible(rs: float) -> bool:
        """The verdict of the first bracket that decides rs, pulling barrier
        stages while it holds rs, each met with the continued bracket;
        _RowFailure once they run out. Brackets only narrow, so a verdict
        never changes at a later stage."""
        nonlocal epigraph
        while (verdict := proven_feasibility(epigraph, RatePair(rd, rs))) is None:
            stage = next(stages, None)
            if stage is None:
                raise _RowFailure()
            epigraph = stage if continued is None else continued.meet(stage)
        return verdict == FEASIBLE

    if epigraph is None:
        # R_s moves no row: the solve at R_s = R_D decides the row, and its
        # INFEASIBLE holds at R_s = 0 too.
        lo = rd
    else:
        try:
            if not feasible(0.0):
                row = SweepRow(rd, None, None, None, ROW_INFEASIBLE)
                return row, None, epigraph.b_lo == math.inf
            lo, hi = 0.0, rd
            while hi - lo > rate_tol:
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
        except _RowFailure:
            return SweepRow(rd, None, None, None, ROW_NUMERICAL_FAILURE), None, False
    r = RatePair(rd, lo)
    sol = None if anchor is None else continue_face(p, anchor, r, mode, input_model)
    if sol is None:
        sol = solve_general(p, r, mode=mode, input_model=input_model)
    if sol.status == OPTIMAL:
        return SweepRow(rd, lo, sol.power, sol.rank1_exact, ROW_OPTIMAL), sol, False
    if sol.status == INFEASIBLE and epigraph is None:
        return SweepRow(rd, None, None, None, ROW_INFEASIBLE), sol, False
    status = ROW_RANK1_INFEASIBLE if sol.status == RANK1_INFEASIBLE else ROW_NUMERICAL_FAILURE
    return SweepRow(rd, None, None, None, status), sol, False


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
    """One SweepRow per code rate of rd_grid, in grid order.

    rd_grid must be non-empty, strictly increasing and finite (code_rate_grid
    builds one). rate_tol, positive and finite, is the width at which the
    bisection on R_s stops. mode is STATISTICAL or perfect_users(...), and
    input_model is "gaussian" or a finite-alphabet MI evaluator. A bad grid
    or rate_tol raises ModelError, and a top code rate whose thresholds are
    not finite raises RateUnachievableError, before any row is solved.

    Only an `optimal` row carries rs_max (the largest R_s proven feasible,
    below rd; rd only where no nonzero ceiling lets R_s move a row), its
    minimum power and the rank-1 flag. The others are `infeasible` (at
    R_s = 0, or above a row whose floors and budget are proven infeasible),
    `numerical-failure` (a probe the epigraph leaves undecided, or a final
    solve out of Newton steps) and `rank1-infeasible` (the final solve's
    principal direction is not a feasible beamformer).
    """
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
    # anchor: the last certified relaxed optimum (a solution with W), from
    # which the next final solve continues. The LP route has no face to
    # continue.
    rows, carry, anchor, sdp_route = [], False, None, not routes_to_lp(p, mode)
    for rd in grid:
        if carry:
            # The floors a(R_D) rise with R_D: where they and the budget are
            # proven infeasible, they are at every larger code rate too.
            rows.append(SweepRow(rd, None, None, None, ROW_INFEASIBLE))
        else:
            row, sol, carry = _solve_row(p, rd, rate_tol, mode, input_model, anchor)
            rows.append(row)
            if sdp_route and sol is not None and sol.W is not None:
                anchor = sol
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
