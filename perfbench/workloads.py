"""The benchmark's workloads: the CLI invocations each makes, and the checks
its outputs must pass.

Every invocation goes through ``wiretap.cli.main(argv)`` in-process and gets
only input files. The workload seed fixes the order of the invocations and,
for ``montecarlo``, the fading-stream seed. The solver inputs are otherwise
fixed: the same instances cost the same solves, Newton steps and quadrature
evaluations in every run, so those counts repeat exactly and one reference
file (``reference.json``, made by ``make_reference.py``) covers every seed.

An operation is a sweep row, a ``montecarlo`` invocation or a ``kkt`` solve.
It fails if its invocation raised or exited other than 0, if it reports a
``max_iterations`` or ``numerical-failure`` status, or if it fails a check.
``infeasible`` is an honest verdict and fails only where the reference says
otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import scale
from wiretap import cli
from wiretap.kkt import check_kkt
from wiretap.mi import MiEvaluator, load_alphabet
from wiretap.model import RatePair, WiretapProblem
from wiretap.probfile import load_problem, save_problem
from wiretap.sdp import INFEASIBLE, OPTIMAL, RANK1_INFEASIBLE, solve_general

RATE_TOL = 1e-3
KKT_TOL = 1e-5
POWER_RTOL = 1e-6
MC_TRIALS = 100000
N32_INSTANCE_SEED = 0

BUNDLED = ("paper_j1.json", "paper_j1_diag.json", "paper_j2.json",
           "paper_j2_diag.json", "paper_j3.json", "paper_j3_diag.json")
MC_POINTS = (("paper_j1.json", 1.0, 0.5), ("paper_j2.json", 0.8, 0.4),
             ("paper_j3.json", 0.5, 0.15))
N32_POINTS = ((1.0, 0.5), (1.0, 0.8))


@dataclass(frozen=True)
class Op:
    key: str         # reference key
    argv: tuple
    units: int       # operations this invocation counts for


@dataclass
class OpResult:
    op: Op
    rc: int | None   # None when the invocation raised
    out: str
    err: str
    seconds: float
    captured: list = field(default_factory=list)
    kernel: tuple = ()  # host-speed kernel seconds just before and just after


@dataclass
class Verdict:
    """Failed operations as (pass index, op key, unit index), plus the KKT
    residuals of every solve the checks certified."""

    failed: set = field(default_factory=set)
    residuals: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    def fail(self, where, message: str) -> None:
        self.failed.add(where)
        if len(self.messages) < 20:
            self.messages.append(message)


@contextlib.contextmanager
def capturing(sink: list):
    """Keep every solution the CLI obtains, for outputs that omit the power."""
    original = cli.solve_general

    def solve_general(*args, **kwargs):
        sol = original(*args, **kwargs)
        sink.append(sol)
        return sol

    cli.solve_general = solve_general
    try:
        yield
    finally:
        cli.solve_general = original


def run_op(main, op: Op, capture: bool) -> OpResult:
    """One invocation of ``main(argv)`` with its output kept in memory."""
    out, err, captured = io.StringIO(), io.StringIO(), []
    ctx = capturing(captured) if capture else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), ctx:
            rc = main(list(op.argv))
    except Exception:  # a crash fails the operation, not the run
        rc = None
        err.write(traceback.format_exc())
    return OpResult(op, rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0, captured)


def run_pass(wl: Workload, main, kernel) -> list[OpResult]:
    """Every invocation of the workload once, in order, each timed on its
    own. ``kernel()`` runs before the first invocation and after every one,
    and each result keeps the kernel times on either side of it."""
    results = []
    before = kernel()
    for op in wl.ops:
        r = run_op(main, op, wl.capture_solutions)
        after = kernel()
        r.kernel = (before, after)
        results.append(r)
        before = after
    return results


def median_pass(passes: list[list[OpResult]], scaled: bool) -> float:
    """Sum over the invocations of each one's median time over the passes,
    in reference-host seconds if ``scaled``, else as measured."""
    per_op: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            t = r.seconds * scale(*r.kernel) if scaled else r.seconds
            per_op.setdefault(r.op.key, []).append(t)
    return sum(statistics.median(ts) for ts in per_op.values())


def _close(x: float, ref: float, rtol: float = POWER_RTOL) -> bool:
    return math.isclose(x, ref, rel_tol=rtol, abs_tol=1e-12)


def _certify(v: Verdict, where, pf, rd: float, rs: float, model, power: float) -> None:
    """Independent re-solve at a reported point: optimal, same power, and a
    KKT certificate that passes."""
    sol = solve_general(pf.problem, RatePair(rd, rs), mode=pf.csi_mode, input_model=model)
    if sol.status != OPTIMAL:
        v.fail(where, f"{where}: re-solve at ({rd}, {rs}) is {sol.status}")
        return
    if not _close(sol.power, power):
        v.fail(where, f"{where}: re-solve power {sol.power!r} != reported {power!r}")
    rep = check_kkt(pf.problem, sol.thresholds, sol.W, sol.duals, tol=KKT_TOL, mode=pf.csi_mode)
    v.residuals.append(rep.max_residual())
    if not rep.passes(KKT_TOL):
        v.fail(where, f"{where}: KKT fails at ({rd}, {rs}), residual {rep.max_residual():.3e}")


class Workload:
    name = ""
    capture_solutions = False

    def __init__(self, root: Path, workdir: Path, seed: int, reference: dict):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.reference = reference.get(self.name, {})
        ops = self.make_ops()
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def make_ops(self) -> list[Op]:
        raise NotImplementedError

    def problem_path(self, name: str) -> str:
        return str(self.root / "problems" / name)

    def check(self, passes: list[list[OpResult]]) -> Verdict:
        """Check every pass; the first pass also gets the independent
        oracle, and later passes must repeat its output byte for byte."""
        v = Verdict()
        first = {r.op.key: r for r in passes[0]}
        for i, results in enumerate(passes):
            for r in results:
                if r.rc != 0:
                    for u in range(r.op.units):
                        v.fail((i, r.op.key, u), f"{r.op.key}: exit {r.rc} {r.err.strip()[-300:]}")
                    continue
                if i and r.out != first[r.op.key].out:
                    for u in range(r.op.units):
                        v.fail((i, r.op.key, u), f"{r.op.key}: output differs from the first pass")
                    continue
                try:
                    self.check_result(v, i, r)
                    if i == 0:
                        self.oracle(v, r)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    for u in range(r.op.units):
                        v.fail((i, r.op.key, u), f"{r.op.key}: malformed output ({exc!r})")
        return v

    def check_result(self, v: Verdict, i: int, r: OpResult) -> None:
        raise NotImplementedError

    def oracle(self, v: Verdict, r: OpResult) -> None:
        pass

    def units(self) -> int:
        return sum(op.units for op in self.ops)


def parse_sweep_csv(text: str) -> list[tuple]:
    """(rd, rs_max, min_power, status) rows of a sweep CSV."""
    lines = text.strip().splitlines()
    rows = []
    for line in lines[1:]:
        rd, rs, power, _rank1, status = line.split(",")
        rows.append((float(rd), float(rs) if rs else None,
                     float(power) if power else None, status))
    return rows


class SweepWorkload(Workload):
    """Region sweeps; each row must match the reference status and rs_max,
    re-solve to the reported power with a passing KKT certificate, and be
    infeasible 2 * rate_tol above rs_max."""

    alphabet: str | None = None

    def sweep_argv(self, problem: str, lo: float, hi: float, step: float) -> tuple:
        argv = ["sweep", "--problem", self.problem_path(problem), "--rd-min", repr(lo),
                "--rd-max", repr(hi), "--rd-step", repr(step), "--rate-tol", repr(RATE_TOL)]
        if self.alphabet:
            argv += ["--alphabet", self.alphabet]
        return tuple(argv)

    def check_result(self, v: Verdict, i: int, r: OpResult) -> None:
        ref = self.reference[r.op.key]
        rows = parse_sweep_csv(r.out)
        if len(rows) != len(ref):
            for u in range(r.op.units):
                v.fail((i, r.op.key, u), f"{r.op.key}: {len(rows)} sweep rows, expected {len(ref)}")
            return
        for u, ((rd, rs, _power, status), (ref_rd, ref_status, ref_rs, _)) in enumerate(zip(rows, ref)):
            where = (i, r.op.key, u)
            if not math.isclose(rd, ref_rd, abs_tol=1e-9):
                v.fail(where, f"{r.op.key}: row {u} has rd {rd}, expected {ref_rd}")
            elif status != ref_status:
                v.fail(where, f"{r.op.key} rd={rd}: status {status}, reference {ref_status}")
            elif status == OPTIMAL and abs(rs - ref_rs) > RATE_TOL:
                v.fail(where, f"{r.op.key} rd={rd}: rs_max {rs}, reference {ref_rs}")

    def input_model(self):
        return MiEvaluator(load_alphabet(self.alphabet)) if self.alphabet else "gaussian"

    def oracle(self, v: Verdict, r: OpResult) -> None:
        problem = r.op.argv[r.op.argv.index("--problem") + 1]
        pf = load_problem(problem)
        model = self.input_model()
        for u, (rd, rs, power, status) in enumerate(parse_sweep_csv(r.out)):
            if status != OPTIMAL:
                continue
            where = (0, r.op.key, u)
            _certify(v, where, pf, rd, rs, model, power)
            if rs < rd:
                above = min(rs + 2.0 * RATE_TOL, rd)
                sol = solve_general(pf.problem, RatePair(rd, above), mode=pf.csi_mode,
                                    input_model=model)
                if sol.status not in (INFEASIBLE, RANK1_INFEASIBLE):
                    v.fail(where, f"{r.op.key} rd={rd}: ({rd}, {above}) is {sol.status}, "
                                  f"so rs_max {rs} is not the largest")


class SweepGauss(SweepWorkload):
    name = "sweep_gauss"

    def make_ops(self) -> list[Op]:
        return [Op(p, self.sweep_argv(p, 0.1, 2.0, 0.1), 20) for p in BUNDLED]


class SweepQam16(SweepWorkload):
    name = "sweep_qam16"
    alphabet = "16qam"
    RATES = (0.5, 1.0, 1.5)

    def make_ops(self) -> list[Op]:
        return [Op(f"paper_j1.json@{rd}", self.sweep_argv("paper_j1.json", rd, rd, 0.5), 1)
                for rd in self.RATES]


class MonteCarlo(Workload):
    name = "montecarlo"

    def make_ops(self) -> list[Op]:
        return [Op(f"{p} {rd} {rs}",
                   ("montecarlo", "--problem", self.problem_path(p), "--rd", repr(rd),
                    "--rs", repr(rs), "--trials", str(MC_TRIALS), "--seed", str(self.seed % 2**32)), 1)
                for p, rd, rs in MC_POINTS]

    def check_result(self, v: Verdict, i: int, r: OpResult) -> None:
        where = (i, r.op.key, 0)
        doc = json.loads(r.out)
        ref = self.reference[r.op.key]
        if doc.get("status") != OPTIMAL or doc.get("trials") != MC_TRIALS:
            v.fail(where, f"{r.op.key}: status {doc.get('status')}, trials {doc.get('trials')}")
            return
        if not _close(doc["power"], ref["power"]):
            v.fail(where, f"{r.op.key}: power {doc['power']!r}, reference {ref['power']!r}")
        if doc["p_hat"] < doc["non_outage_target"] - 3.0 * doc["ci_halfwidth"]:
            v.fail(where, f"{r.op.key}: p_hat {doc['p_hat']} below target "
                          f"{doc['non_outage_target']} - 3 CI")
        q = doc["per_link_prob"]
        for p_hat in doc["per_user_p_hat"] + doc["per_eave_p_hat"]:
            ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / MC_TRIALS)
            if p_hat < q - 3.0 * ci:
                v.fail(where, f"{r.op.key}: per-link estimate {p_hat} below {q} - 3 CI")

    def oracle(self, v: Verdict, r: OpResult) -> None:
        doc = json.loads(r.out)
        if doc.get("status") != OPTIMAL:
            return
        p, rd, rs = r.op.key.split()
        _certify(v, (0, r.op.key, 0), load_problem(self.problem_path(p)),
                 float(rd), float(rs), "gaussian", doc["power"])


def random_psd(rng, n, scale=1.0, ridge=0.0):
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = b @ b.conj().T * (scale / n)
    m = m + ridge * scale * np.eye(n)
    return (m + m.conj().T) / 2.0


def n32_problem() -> WiretapProblem:
    """N=32, K=J=3: users at scale 1, eavesdroppers at scale 0.003, ridge 0.1."""
    rng = np.random.default_rng(N32_INSTANCE_SEED)
    h = [random_psd(rng, 32, 1.0, 0.1) for _ in range(3)]
    z = [random_psd(rng, 32, 0.003, 0.1) for _ in range(3)]
    return WiretapProblem(H=h, Z=z, N0=1.0, epsilon=0.1, P_T=30.0)


class SolveN32(Workload):
    name = "solve_n32"
    capture_solutions = True

    def make_ops(self) -> list[Op]:
        path = self.workdir / "n32.json"
        save_problem(str(path), n32_problem())
        return [Op(repr(rs), ("kkt", "--problem", str(path), "--rd", repr(rd), "--rs", repr(rs)), 1)
                for rd, rs in N32_POINTS]

    def check_result(self, v: Verdict, i: int, r: OpResult) -> None:
        where = (i, r.op.key, 0)
        doc = json.loads(r.out)
        if doc.get("status") != OPTIMAL or doc.get("passes") is not True:
            v.fail(where, f"rs={r.op.key}: status {doc.get('status')}, passes {doc.get('passes')}")
            return
        # kkt prints no power, so it is read from the solution the CLI obtained.
        if len(r.captured) != 1 or not _close(r.captured[0].power, self.reference[r.op.key]):
            got = [s.power for s in r.captured]
            v.fail(where, f"rs={r.op.key}: power {got}, reference {self.reference[r.op.key]!r}")
        if i == 0:
            parts = [doc["compl_slack_W"], doc["slack_power"], doc["scalar_identity"],
                     *doc["slack_users"], *doc["slack_eaves"]]
            v.residuals.append(max(parts))


WORKLOADS = {w.name: w for w in (SweepGauss, SweepQam16, MonteCarlo, SolveN32)}
