"""The row corpus: fixed sets of sweep rows that every solver change is
checked against.

    python tests/corpus.py            # rewrite tests/data/corpus.csv
    python tests/corpus.py --check    # compare with it; exit 1 if a row moved

Three sets, one CSV line per sweep row (set, instance, rd, status, rs_max,
power to 9 significant digits):

- thin: conftest.thin_set_problem seeds 0-149, each swept over R_D 0.3,
  0.6 and 1.0 at rate_tol 1e-2. Strong users, weak eavesdroppers, thin
  feasible sets at the region's boundary.
- random: seeds 0-299 of conftest.random_problem (N in 2, 3, 4, 8; K 1..3;
  J 0..3; full-rank, rank-1 and rank-2 covariances; some diagonal, some
  with perfect user CSI, some with QPSK inputs), each swept over R_D 0.3,
  0.6 and 1.0 at rate_tol 1e-2.
- scaled: paper_j1..3, paper_j1_diag and paper_j2_diag, each unscaled and
  with H, Z and N0, or P_T and N0, multiplied by 1e+-3, 1e+-6 and 1e+-9:
  65 sweeps over R_D 0.1..1.2 at rate_tol 1e-3. Each is the same physical
  problem as its unscaled sweep, so the rows should agree; the run prints
  how many sweeps do (status, rs_max, and power to 1e-9 once unscaled).

--check compares status and rs_max exactly and power to 1e-9 relative, and
prints every row that moved. A change that moves rows regenerates the file,
and its diff is the evidence for them.
"""

from __future__ import annotations

import argparse
import collections
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from conftest import bundled, random_problem, scaled_problem, thin_set_problem  # noqa: E402

from wiretap.sweep import code_rate_grid, sweep_region  # noqa: E402

CORPUS = HERE / "data" / "corpus.csv"
HEADER = "set,instance,rd,status,rs_max,power"
POWER_REL = 1e-9
SCALES = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9)
SCALED = (("paper_j1", 1, False), ("paper_j2", 2, False), ("paper_j3", 3, False),
          ("paper_j1_diag", 1, True), ("paper_j2_diag", 2, True))


def sweeps():
    """(set, instance, rows, power unit) of every sweep of the corpus; power
    unit is what a row's power is divided by to compare it with the unscaled
    sweep's."""
    for seed in range(150):
        rows = sweep_region(thin_set_problem(seed), [0.3, 0.6, 1.0], rate_tol=1e-2).rows
        yield "thin", str(seed), rows, 1.0
    for seed in range(300):
        p, mode, model = random_problem(seed)
        rows = sweep_region(p, [0.3, 0.6, 1.0], rate_tol=1e-2, mode=mode, input_model=model).rows
        yield "random", str(seed), rows, 1.0
    grid = code_rate_grid(0.1, 1.2, 0.1)
    for name, j, diagonal in SCALED:
        p = bundled(j, diagonal)
        yield "scaled", name, sweep_region(p, grid, rate_tol=1e-3).rows, 1.0
        for what in ("hz", "pt"):
            for factor in SCALES:
                rows = sweep_region(scaled_problem(p, what, factor), grid, rate_tol=1e-3).rows
                unit = factor if what == "pt" else 1.0
                yield "scaled", f"{name}/{what}{factor:.0e}", rows, unit


def _fmt(x, spec):
    return "" if x is None else repr(x) if spec == "r" else format(x, spec)


def line(set_name, instance, row):
    return ",".join([set_name, instance, f"{row.rd:.9g}", row.status,
                     _fmt(row.rs_max, "r"), _fmt(row.min_power, ".9g")])


def scaled_agreement(runs):
    """How many scaled sweeps agree row for row with their unscaled sweep:
    status, rs_max, and power to POWER_REL once divided by its unit."""
    base = {inst: rows for inst, rows, _ in runs if "/" not in inst}

    def same(row, ref, unit):
        if (row.status, row.rs_max) != (ref.status, ref.rs_max):
            return False
        if row.min_power is None or ref.min_power is None:
            return row.min_power is ref.min_power
        return math.isclose(row.min_power / unit, ref.min_power, rel_tol=POWER_REL, abs_tol=0.0)

    agree = sum(all(same(r, b, unit) for r, b in zip(rows, base[inst.split("/")[0]]))
                for inst, rows, unit in runs)
    return agree, len(runs)


def moved(old, new):
    """Whether two CSV lines of the same row differ: status or rs_max at all,
    power by more than POWER_REL relative."""
    *key_o, po = old.split(",")
    *key_n, pn = new.split(",")
    if key_o != key_n or (po == "") != (pn == ""):
        return True
    return po != "" and not math.isclose(float(po), float(pn), rel_tol=POWER_REL, abs_tol=0.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed corpus instead of rewriting it")
    ap.add_argument("--corpus", default=str(CORPUS), help="the corpus file (default: %(default)s)")
    args = ap.parse_args(argv)

    lines, counts, scaled = [], collections.defaultdict(collections.Counter), []
    for set_name, instance, rows, unit in sweeps():
        lines += [line(set_name, instance, row) for row in rows]
        counts[set_name].update(row.status for row in rows)
        if set_name == "scaled":
            scaled.append((instance, rows, unit))
    for set_name, c in counts.items():
        print(f"{set_name}: {sum(c.values())} rows, " + ", ".join(
            f"{n} {status}" for status, n in sorted(c.items())))
    print("scaled: %d of %d sweeps agree with their unscaled sweep" % scaled_agreement(scaled))

    path = pathlib.Path(args.corpus)
    if not args.check:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        print(f"wrote {len(lines)} rows to {path}")
        return 0
    committed = path.read_text().splitlines()
    if not committed or committed[0] != HEADER:
        print(f"{path}: header is not {HEADER!r}")
        return 1
    committed = committed[1:]
    changed = [(o, n) for o, n in zip(committed, lines) if moved(o, n)]
    for old, new in changed:
        print(f"moved: {old}\n   now: {new}")
    if len(committed) != len(lines):
        print(f"{path} has {len(committed)} rows, the corpus {len(lines)}")
        return 1
    print(f"{len(changed)} of {len(lines)} rows moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
