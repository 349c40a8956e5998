"""Command-line front end.

Subcommands: validate, solve, sweep, montecarlo, kkt, mi. Results go to
stdout (or --output FILE) as JSON or CSV. Exit codes: 0 success, 1 the
requested point is infeasible, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import montecarlo
from .kkt import check_kkt, rank_bound_check
from .mi import MiEvaluator, load_alphabet
from .model import ModelError, RatePair, validate_problem
from .probfile import ProblemFileError, _mat_pairs, _pairs, load_problem
from .sdp import INFEASIBLE, OPTIMAL, RANK1_INFEASIBLE, solve_general
from .sweep import MAX_GRID, code_rate_grid, sweep_region, to_csv

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, output: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", output)


def _load(args):
    pf = load_problem(args.problem)
    report = validate_problem(pf.problem)
    if not report.ok:
        raise ProblemFileError("; ".join(report.violations))
    return pf


def _input_model(args, pf):
    name = getattr(args, "alphabet", None) or pf.alphabet
    if name is None:
        return "gaussian"
    return MiEvaluator(load_alphabet(name))


def _duals_doc(duals) -> dict:
    return {
        "lam": duals.lam,
        "mu": [float(x) for x in np.atleast_1d(duals.mu)],
        "nu": [float(x) for x in np.atleast_1d(duals.nu)],
        "Lambda": _mat_pairs(duals.Lambda),
    }


def _solution_doc(pf, sol) -> dict:
    report = check_kkt(pf.problem, sol.thresholds, sol.W, sol.duals, mode=pf.csi_mode)
    return {
        "status": sol.status,
        "power": sol.power,
        "w": _pairs(sol.w),
        "rank1_exact": sol.rank1_exact,
        "duals": _duals_doc(sol.duals),
        "kkt_residual_max": report.max_residual(),
    }


def _status_exit(status: str) -> int:
    if status == OPTIMAL:
        return EXIT_OK
    if status in (INFEASIBLE, RANK1_INFEASIBLE):
        return EXIT_INFEASIBLE
    return EXIT_NUMERICAL


def _solve_point(args, report, check=None) -> int:
    """Load the problem file, run check(pf) on the other arguments, solve at
    (--rd, --rs) and write report(pf, sol), or only the status when it is
    not OPTIMAL; returns the status's exit code. The checks run before the
    solve, whose status would otherwise hide them."""
    pf = _load(args)
    if check is not None:
        check(pf)
    sol = solve_general(pf.problem, RatePair(args.rd, args.rs), mode=pf.csi_mode,
                        input_model=_input_model(args, pf))
    _emit_json(report(pf, sol) if sol.status == OPTIMAL else {"status": sol.status}, args.output)
    return _status_exit(sol.status)


def cmd_validate(args) -> int:
    pf = load_problem(args.problem)
    report = validate_problem(pf.problem)
    _emit_json({"ok": report.ok, "violations": list(report.violations)}, args.output)
    return EXIT_OK if report.ok else EXIT_INPUT_ERROR


def cmd_solve(args) -> int:
    return _solve_point(args, _solution_doc)


def cmd_sweep(args) -> int:
    pf = _load(args)
    grid = code_rate_grid(args.rd_min, args.rd_max, args.rd_step)
    result = sweep_region(pf.problem, grid, rate_tol=args.rate_tol,
                          mode=pf.csi_mode, input_model=_input_model(args, pf))
    _emit(to_csv(result), args.output)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    def check(pf):
        if not pf.csi_mode.is_statistical:
            raise ModelError(
                "montecarlo validates the statistical-CSI design; the user links "
                "of a perfect-CSI problem are deterministic"
            )
        if args.trials < 1:
            raise ModelError(f"trials must be at least 1: {args.trials}")
        montecarlo.check_sampling(args.seed, args.trials)

    def report(pf, sol) -> dict:
        powers = montecarlo.received_powers(
            montecarlo.sample_channels(pf.problem, args.seed, args.trials), sol.w)
        est = montecarlo.estimate_non_outage(pf.problem, sol.thresholds, sol.w, powers)
        users, eaves = montecarlo.estimate_individual_probs(sol.thresholds, powers)
        return {
            "status": sol.status,
            "power": sol.power,
            "trials": est.trials,
            "successes": est.successes,
            "p_hat": est.p_hat,
            "ci_halfwidth": est.ci_halfwidth,
            "non_outage_target": 1.0 - pf.problem.epsilon,
            "per_link_prob": sol.thresholds.per_link_prob,
            "per_user_p_hat": [u.p_hat for u in users],
            "per_eave_p_hat": [e.p_hat for e in eaves],
        }

    return _solve_point(args, report, check)


def cmd_kkt(args) -> int:
    def check(pf):
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ModelError(f"tol must be finite and non-negative: {args.tol}")

    def report(pf, sol) -> dict:
        rep = check_kkt(pf.problem, sol.thresholds, sol.W, sol.duals,
                        tol=args.tol, mode=pf.csi_mode)
        doc = {
            "status": sol.status,
            "passes": rep.passes(args.tol),
            "tol": args.tol,
            "primal_feasible": rep.primal_feasible,
            "feasibility_violations": list(rep.feasibility_violations),
            "compl_slack_W": rep.compl_slack_W,
            "slack_power": rep.slack_power,
            "slack_users": [float(x) for x in rep.slack_users],
            "slack_eaves": [float(x) for x in rep.slack_eaves],
            "stationarity_min_eig": rep.stationarity_min_eig,
            "scalar_identity": rep.scalar_identity,
            "rank_W": rep.rank_W,
            "rank_muH": rep.rank_muH,
        }
        if float(np.linalg.norm(sol.W)) > 0.0:
            bound = rank_bound_check(sol.W, sol.duals, pf.problem, sol.thresholds,
                                     tol=args.tol, mode=pf.csi_mode)
            doc["rank_bound_ok"] = bound.ok
            doc["mu_sum"] = bound.mu_sum
        return doc

    return _solve_point(args, report, check)


def cmd_mi(args) -> int:
    ev = MiEvaluator(load_alphabet(args.alphabet))
    if not (0.0 <= args.rho_min < args.rho_max < math.inf and 2 <= args.points <= MAX_GRID):
        raise ModelError(f"need 0 <= rho-min < rho-max < inf and 2 <= points <= {MAX_GRID}")
    rhos = np.linspace(args.rho_min, args.rho_max, args.points)
    lines = ["rho,mi_bits"]
    for rho in rhos:
        lines.append(f"{rho:.9g},{ev(float(rho)):.9g}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap",
        description="Minimum-power beamforming and secrecy-rate regions for "
                    "slow-fading MISO wiretap channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem(sp):
        sp.add_argument("--problem", required=True, help="problem JSON file")
        sp.add_argument("--output", default=None, help="write output here instead of stdout")
        sp.add_argument("--alphabet", default=None,
                        help="finite input alphabet (bpsk/qpsk/8psk/16qam or JSON file)")

    sp = sub.add_parser("validate", help="check a problem file against every invariant")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("solve", help="minimum-power beamformer for one (R_D, R_s) pair")
    add_problem(sp)
    sp.add_argument("--rd", type=float, required=True)
    sp.add_argument("--rs", type=float, required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="achievable-region sweep over a code-rate grid")
    add_problem(sp)
    sp.add_argument("--rd-min", type=float, required=True)
    sp.add_argument("--rd-max", type=float, required=True)
    sp.add_argument("--rd-step", type=float, required=True)
    sp.add_argument("--rate-tol", type=float, default=1e-3)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("montecarlo", help="validate a solved point by fading simulation")
    add_problem(sp)
    sp.add_argument("--rd", type=float, required=True)
    sp.add_argument("--rs", type=float, required=True)
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_montecarlo)

    sp = sub.add_parser("kkt", help="optimality certificate for one solved point")
    add_problem(sp)
    sp.add_argument("--rd", type=float, required=True)
    sp.add_argument("--rs", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(func=cmd_kkt)

    sp = sub.add_parser("mi", help="tabulate mutual information of a finite alphabet")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--rho-min", type=float, default=0.0)
    sp.add_argument("--rho-max", type=float, default=20.0)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_mi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its convention.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ProblemFileError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
