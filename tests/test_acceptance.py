"""End-to-end acceptance suite for the bundled three-antenna scenarios.

Each test prints one PASS/FAIL line (visible with `pytest -s`). Statistical
checks run on fixed seeds so the suite is a deterministic regression.
"""

import math
import time

import numpy as np
import pytest

from conftest import bundled, random_psd
from oracles import exponentiality_check, mutual_info_mc
from wiretap.constraints import ConstraintSet
from wiretap.diag_lp import solve_diagonal
from wiretap.kkt import check_kkt, rank_bound_check
from wiretap.linalg import numerical_rank
from wiretap.mi import MiEvaluator, bpsk, qpsk
from wiretap.model import RatePair, WiretapProblem, thresholds_gaussian
from wiretap.montecarlo import (
    estimate_non_outage,
    received_powers,
    sample_channels,
)
from wiretap.sdp import solve_general, solve_rank_relaxed
from wiretap.sweep import sweep_region

RD_GRID = [round(0.1 * i, 10) for i in range(1, 21)]  # 0.1 .. 2.0


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    return ok


@pytest.fixture(scope="module")
def region_sweeps():
    """rd-step 0.1 sweeps of the three bundled general instances, timed."""
    t0 = time.monotonic()
    sweeps = {j: sweep_region(bundled(j), RD_GRID, rate_tol=1e-3)
              for j in (1, 2, 3)}
    return sweeps, time.monotonic() - t0


def feasible_rows(result):
    return [row for row in result.rows if row.status == "optimal"]


def test_criterion_1_rank_one_solutions(region_sweeps):
    sweeps, elapsed = region_sweeps
    all_rank1 = all(row.rank1_exact for res in sweeps.values()
                    for row in feasible_rows(res))
    some_feasible = all(len(feasible_rows(res)) >= 5 for res in sweeps.values())
    in_time = elapsed < 120.0
    ok = all_rank1 and some_feasible and in_time
    assert report(1, "every feasible sweep point is rank one", ok,
                  f"sweep of 3 instances took {elapsed:.1f}s")


def test_criterion_2_qualitative_curves(region_sweeps):
    sweeps, _ = region_sweeps
    problems = []
    # min_power non-decreasing along feasible rows
    for j, res in sweeps.items():
        powers = [row.min_power for row in feasible_rows(res)]
        if any(b < a - 1e-6 for a, b in zip(powers, powers[1:])):
            problems.append(f"power not monotone for J={j}")
    # the feasible range ends exactly where the power budget saturates: at the
    # bisected region edge the minimum power is within 1% of P_T, and beyond
    # it no secrecy rate (not even R_s = 0) is achievable
    edge_powers = []
    for j, res in sweeps.items():
        p = bundled(j)
        rows = res.rows
        last_feas = max(i for i, row in enumerate(rows) if row.status == "optimal")
        if any(rows[i].status == "optimal" for i in range(last_feas + 1, len(rows))):
            problems.append(f"feasible row beyond the edge for J={j}")
        lo = rows[last_feas].rd
        hi = rows[last_feas + 1].rd
        power_lo = rows[last_feas].min_power

        def feasible(rd):
            return solve_general(p, RatePair(rd, 0.0)).status == "optimal"

        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                sol = solve_general(p, RatePair(mid, 0.0))
                lo, power_lo = mid, sol.power
            else:
                hi = mid
        edge_powers.append(power_lo / p.P_T)
        if power_lo < 0.99 * p.P_T:
            problems.append(f"edge power {power_lo:.4f} below 99% of P_T for J={j}")
    # J=3 region pointwise inside J=1
    for r1, r3 in zip(sweeps[1].rows, sweeps[3].rows):
        if r3.status == "optimal":
            if r1.status != "optimal":
                problems.append(f"J=3 feasible but J=1 not at rd={r3.rd}")
            elif r3.rs_max > r1.rs_max + sweeps[1].rate_tol:
                problems.append(f"J=3 region outside J=1 at rd={r3.rd}")
    ok = not problems
    assert report(2, "power monotone, edge saturates P_T, J=3 inside J=1", ok,
                  "; ".join(problems) if problems else
                  "edge power/P_T = " + ", ".join(f"{x:.4f}" for x in edge_powers))


def test_criterion_3_outage_guarantee(region_sweeps):
    sweeps, _ = region_sweeps
    # 10 feasible points across the three instances, drawn from the sweeps
    picks = []
    for j, res in sweeps.items():
        rows = feasible_rows(res)
        idx = np.linspace(0, len(rows) - 1, 4 if j == 1 else 3).astype(int)
        for i in idx:
            picks.append((j, rows[i].rd, rows[i].rs_max / 2.0))
    picks = picks[:10]
    assert len(picks) == 10
    failures = []
    for seed, (j, rd, rs) in enumerate(picks, start=100):
        p = bundled(j)
        r = RatePair(rd, rs)
        sol = solve_general(p, r)
        if sol.status != "optimal":
            failures.append(f"J={j} ({rd},{rs}) unexpectedly {sol.status}")
            continue
        powers = received_powers(sample_channels(p, seed, 100_000), sol.w)
        est = estimate_non_outage(p, sol.thresholds, sol.w, powers)
        target = (1.0 - p.epsilon) - 3.0 * est.ci_halfwidth
        if est.p_hat < target:
            failures.append(f"J={j} ({rd:.2f},{rs:.3f}): p_hat={est.p_hat:.4f} < {target:.4f}")
    ok = not failures
    assert report(3, "Monte Carlo non-outage meets 1 - epsilon on 10 points", ok,
                  "; ".join(failures) if failures else "10^5 trials each")


def test_criterion_4_cross_solver_on_diagonal_instances():
    checked = 0
    worst = 0.0
    failures = []
    for j in (1, 2, 3):
        p = bundled(j, diagonal=True)
        for rd in np.linspace(0.05, 1.0, 12):
            r = RatePair(float(rd), float(rd) * 0.25)
            t = thresholds_gaussian(p, r)
            P, _ = solve_diagonal(ConstraintSet.build(p, t))
            sdp = solve_rank_relaxed(p, t)
            if P is None:
                if sdp.status == "optimal":
                    failures.append(f"J={j} rd={rd:.2f}: LP infeasible but SDP optimal")
                continue
            if sdp.status != "optimal":
                failures.append(f"J={j} rd={rd:.2f}: LP optimal but SDP {sdp.status}")
                continue
            total = float(np.sum(P))
            rel = abs(total - sdp.objective) / max(1e-12, total)
            worst = max(worst, rel)
            if rel > 1e-4:
                failures.append(f"J={j} rd={rd:.2f}: rel diff {rel:.2e}")
            checked += 1
    ok = not failures and checked >= 20
    assert report(4, "LP and SDP agree on diagonal instances", ok,
                  f"{checked} points, worst rel diff {worst:.2e}")


def test_criterion_5_grid_search_oracle():
    rank1_checked = 0
    bound_checked = 0
    failures = []
    for trial in range(50):
        rng = np.random.default_rng(9000 + trial)
        k = int(rng.integers(1, 3))
        j = int(rng.integers(0, 2))
        p = WiretapProblem(
            H=tuple(random_psd(rng, 2, ridge=0.3) for _ in range(k)),
            Z=tuple(random_psd(rng, 2, scale=0.01, ridge=0.3) for _ in range(j)),
            N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.5)),
        )
        rd = float(rng.uniform(0.1, 0.6))
        r = RatePair(rd, rd * float(rng.uniform(0.0, 0.5)))
        t = thresholds_gaussian(p, r)
        sol = solve_general(p, r)
        if sol.status == "optimal":
            if sol.rank1_exact:
                oracle = _grid_min_power(p, t)
                if oracle is None:
                    failures.append(f"trial {trial}: solver feasible, grid not")
                elif abs(sol.power - oracle) > 0.01 * oracle:
                    failures.append(
                        f"trial {trial}: power {sol.power:.6f} vs grid {oracle:.6f}")
                else:
                    rank1_checked += 1
            else:
                if sol.power < sol.objective * (1 - 1e-9):
                    failures.append(f"trial {trial}: power below relaxation bound")
                else:
                    bound_checked += 1
    ok = not failures and rank1_checked >= 25
    assert report(5, "solve_general matches a direction-grid brute force", ok,
                  f"{rank1_checked} rank-1 matches, {bound_checked} bound checks"
                  + ("; " + "; ".join(failures[:3]) if failures else ""))


def _grid_min_power(p, t, n_theta=640, n_phi=720):
    th = np.linspace(0.0, np.pi / 2.0, n_theta)
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    w1 = np.cos(tt)
    w2 = np.sin(tt) * np.exp(1j * pp)

    def qform(m):
        return (np.abs(w1) ** 2 * m[0, 0].real + np.abs(w2) ** 2 * m[1, 1].real
                + 2.0 * np.real(np.conj(w1) * w2 * m[0, 1]))

    power = np.zeros_like(tt)
    for m in p.H:
        q = qform(m)
        power = np.maximum(power, np.where(q > 0, t.a / np.maximum(q, 1e-300), np.inf))
    feasible = power <= p.P_T * (1 + 1e-9)
    for m in p.Z:
        feasible &= power * qform(m) <= t.b * (1 + 1e-9) + 1e-12
    if not np.any(feasible):
        return None
    return float(np.min(power[feasible]))


def test_criterion_6_kkt_certificates(region_sweeps):
    sweeps, _ = region_sweeps
    failures = []
    checked = 0
    # solver outputs across the bundled instances
    for j, res in sweeps.items():
        p = bundled(j)
        for row in feasible_rows(res)[::2]:
            r = RatePair(row.rd, row.rs_max / 2.0)
            t = thresholds_gaussian(p, r)
            sol = solve_rank_relaxed(p, t)
            if sol.status != "optimal":
                continue
            rep = check_kkt(p, t, sol.W, sol.duals)
            if not rep.passes(1e-5):
                failures.append(f"J={j} rd={row.rd}: residual {rep.max_residual():.2e}")
            bound = rank_bound_check(sol.W, sol.duals, p, t)
            if not bound.ok:
                failures.append(f"J={j} rd={row.rd}: rank bound {bound}")
            checked += 1
    # randomized instances
    for seed in range(12):
        rng = np.random.default_rng(7000 + seed)
        k, j = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        p = WiretapProblem(
            H=tuple(random_psd(rng, 3, ridge=0.2) for _ in range(k)),
            Z=tuple(random_psd(rng, 3, scale=0.01, ridge=0.2) for _ in range(j)),
            N0=1.0, epsilon=0.1, P_T=float(10 ** rng.uniform(1.0, 1.6)),
        )
        rd = float(rng.uniform(0.1, 0.7))
        t = thresholds_gaussian(p, RatePair(rd, rd * 0.3))
        sol = solve_rank_relaxed(p, t)
        if sol.status != "optimal":
            continue
        rep = check_kkt(p, t, sol.W, sol.duals)
        if not rep.passes(1e-5) or rep.scalar_identity > 1e-5:
            failures.append(f"random {seed}: residual {rep.max_residual():.2e}")
        bound = rank_bound_check(sol.W, sol.duals, p, t)
        if not bound.ok:
            failures.append(f"random {seed}: rank bound violated")
        checked += 1
    # special case: K=1 with rank-one user covariance always gives rank(W)=1
    rank1_cases = 0
    for seed in range(10):
        rng = np.random.default_rng(8000 + seed)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = WiretapProblem(H=(np.outer(v, v.conj()),),
                           Z=(random_psd(rng, 3, scale=0.005, ridge=0.3),),
                           N0=1.0, epsilon=0.1, P_T=200.0)
        t = thresholds_gaussian(p, RatePair(0.4, 0.1))
        sol = solve_rank_relaxed(p, t)
        if sol.status != "optimal":
            continue
        if numerical_rank(sol.W, 1e-6) != 1:
            failures.append(f"special case {seed}: rank != 1")
        rank1_cases += 1
    ok = not failures and checked >= 15 and rank1_cases >= 8
    assert report(6, "KKT residuals, scalar identity and rank bound", ok,
                  f"{checked} certified points, {rank1_cases} rank-one special cases"
                  + ("; " + "; ".join(failures[:3]) if failures else ""))


def test_criterion_7_exponential_distribution_reduction():
    failures = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 5))
        h = random_psd(rng, n, scale=float(rng.uniform(0.5, 4.0)), ridge=0.05)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = WiretapProblem(H=(h,), Z=(), N0=1.0, epsilon=0.1, P_T=1e6)
        rep = exponentiality_check(p, w, sample_channels(p, seed=77 + i, count=100_000), 0)
        if not rep.passed:
            failures.append(
                f"pair {i}: mean_ok={rep.mean_ok} var_ok={rep.var_ok} ks_ok={rep.ks_ok}")
    ok = not failures
    assert report(7, "received powers are exponential (moments + KS at 1%)", ok,
                  "; ".join(failures) if failures else "20 pairs at 10^5 samples")


def test_criterion_8_threshold_formulas():
    p = WiretapProblem(H=(np.eye(2), np.eye(2)), Z=(np.eye(2) * 0.01,),
                       N0=1.0, epsilon=0.1, P_T=10.0)
    t = thresholds_gaussian(p, RatePair(1.0, 0.5))
    # independent closed forms
    a_hand = (2.0**1.0 - 1.0) / (-math.log(0.9) / 3.0)
    b_hand = (2.0**0.5 - 1.0) / (-math.log(1.0 - 0.9 ** (1.0 / 3.0)))
    ok = (abs(t.a - a_hand) <= 1e-6 * a_hand) and (abs(t.b - b_hand) <= 1e-6 * b_hand)
    # Monte Carlo exponential-CDF inversion
    rng = np.random.default_rng(2024)
    n = 400_000
    draws_a = rng.exponential(scale=t.a, size=n)
    p_a = float(np.mean(draws_a >= t.user_power_target))
    ci_a = 1.96 * math.sqrt(p_a * (1 - p_a) / n)
    draws_b = rng.exponential(scale=t.b, size=n)
    p_b = float(np.mean(draws_b <= t.eave_power_target))
    ci_b = 1.96 * math.sqrt(p_b * (1 - p_b) / n)
    ok = ok and abs(p_a - t.per_link_prob) <= 3 * ci_a
    ok = ok and abs(p_b - t.per_link_prob) <= 3 * ci_b
    assert report(8, "threshold closed forms and exponential-tail inversion", ok,
                  f"a={t.a:.6f} (hand {a_hand:.6f}), b={t.b:.6f} (hand {b_hand:.6f})")


def test_criterion_9_finite_alphabet_mutual_information():
    failures = []
    for make, name in ((bpsk, "bpsk"), (qpsk, "qpsk")):
        alph = make()
        ev = MiEvaluator(alph)
        for i, rho in enumerate((0.1, 1.0, 5.0, 20.0)):
            oracle = mutual_info_mc(alph, rho, draws=10**6, seed=300 + i)
            if abs(ev(rho) - oracle) > 1e-3:
                failures.append(f"{name} rho={rho}: |quad - mc| = {abs(ev(rho)-oracle):.2e}")
        grid = np.linspace(0.0, 20.0, 100)
        vals = np.array([ev(float(g)) for g in grid])
        if not np.all(np.diff(vals) > 0):
            failures.append(f"{name}: not strictly increasing")
        if not np.all(np.diff(vals, 2) <= 1e-9):
            failures.append(f"{name}: not concave")
        for rate in (0.1, 0.5 * ev.max_rate, 0.9 * ev.max_rate):
            rho = ev.inverse(rate)
            if abs(ev(rho) - rate) > 1e-8:
                failures.append(f"{name}: inverse round trip off at rate {rate:.3f}")
    ok = not failures
    assert report(9, "finite-alphabet MI vs Monte Carlo, shape, inverse", ok,
                  "; ".join(failures) if failures else
                  "BPSK/QPSK at rho in {0.1, 1, 5, 20}, 10^6 draws")
