#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs the benchmark checks against.

Runs every workload's invocations once on the current tree and records, per
sweep row, the status, rs_max and min_power; per montecarlo point the status
and power; per N=32 solve the power. Regenerate only when a change is meant
to alter these results, and say so in the change.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import wiretap.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(dir=HERE))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(ROOT, workdir, 0, {})
            entry = reference[name] = {}
            for op in wl.ops:
                r = workloads.run_op(wiretap.cli.main, op, wl.capture_solutions)
                if r.rc not in (0, 1):
                    print(f"{name} {op.key}: exit {r.rc}\n{r.err}", file=sys.stderr)
                    return 1
                if isinstance(wl, workloads.SweepWorkload):
                    entry[op.key] = [[rd, status, rs, power]
                                     for rd, rs, power, status in workloads.parse_sweep_csv(r.out)]
                elif isinstance(wl, workloads.MonteCarlo):
                    doc = json.loads(r.out)
                    entry[op.key] = {"status": doc["status"], "power": doc.get("power")}
                else:
                    entry[op.key] = r.captured[0].power
                print(f"{name} {op.key}: {r.seconds:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    # One sweep row per line.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)
    (HERE / "reference.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
