"""Host speed, measured with a fixed kernel that shares no code with wiretap.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third or more within a minute. CPU time tracks wall time, so the drift
comes from the host (clock speed, neighbours on the same cores and memory),
not from the program, and a pass time alone measures the host as much as
the program. So the benchmark runs this kernel before and after every
timed invocation, and scales the invocation's time by ``REFERENCE_S`` over
the mean of the two kernel times: the result is what the invocation would
have taken on a host where the kernel takes ``REFERENCE_S``.

The kernel runs in a helper process (``HostSpeed``), never in the process
that runs wiretap: its large arrays would otherwise change the memory
allocator's state that wiretap then runs in (they halved the time of the
MI quadrature when tried in-process). The measured process and the helper
are pinned to one CPU and take turns, so the kernel sees the host as the
measured code does and never runs beside it.

The kernel has one part for each kind of work the workloads do, because
each kind slows by a different share when the host is busy:

- an interpreter-bound loop over small complex arrays with a small
  Hermitian eigendecomposition now and then (sweep rows, per-trial
  estimation, small-N Newton steps);
- dense 64x64 complex LAPACK and matrix products (N=32 Newton steps);
- vectorised transcendental functions over a 4 MiB complex array, larger
  than a core's private caches (MI quadrature, channel drawing).

Its inputs and work are fixed, so a change to wiretap cannot move it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# The kernel's median time on the machine the baselines in README.md were
# taken on: a 2-vCPU Intel Xeon VM at 2.1 GHz nominal, one BLAS thread.
REFERENCE_S = 0.15


def kernel_seconds() -> float:
    """Run the fixed kernel once and return its wall time."""
    import numpy as np

    rng = np.random.default_rng(12345)
    small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    small = small @ small.conj().T + np.eye(6)
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    dense = g @ g.conj().T / 64 + np.eye(64)
    vec = 0.7 * (rng.normal(size=262144) + 1j * rng.normal(size=262144))
    eye6, eye64 = np.eye(6), np.eye(64)

    t0 = time.perf_counter()
    acc = 0.0
    kept = []
    for i in range(12000):
        v = small[i % 6]
        acc += float(np.real(np.vdot(v, small @ v)))
        kept.append((i, v))
        if i % 40 == 0:
            acc += float(np.linalg.eigh(small + i * 1e-4 * eye6)[0][-1])
    for i in range(40):
        m = dense + i * 1e-3 * eye64
        w, u = np.linalg.eigh(m)
        c = np.linalg.cholesky(m)
        acc += float(w[-1]) + float(np.abs(np.linalg.solve(c, u[:, -1])).sum())
        acc += float(np.real(np.trace(m @ m @ m)))
    for i in range(30):
        acc += float(np.log1p(np.exp(-np.abs(vec + 0.05 * i) ** 2)).sum())
    elapsed = time.perf_counter() - t0

    if not np.isfinite(acc) or len(kept) != 12000:
        raise RuntimeError("host-speed kernel produced a non-finite result")
    return elapsed


def scale(seconds_before: float, seconds_after: float) -> float:
    """Factor that turns a time measured between two kernel runs into
    reference-host seconds."""
    return REFERENCE_S / (0.5 * (seconds_before + seconds_after))


class HostSpeed:
    """The kernel in a helper process; calling the object runs it once and
    returns its time. The caller waits, so the two never run at once.

    Pins the calling process to one CPU for the rest of its life; the
    helper inherits the pinning. Use as a context manager, which stops
    the helper and waits for it."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        try:
            self()  # warm-up: the helper's imports and numpy's lazy set-up
        except BaseException:
            self.close()
            raise

    def __call__(self) -> float:
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()  # end of input ends the helper's loop
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    """Helper loop: one kernel run per input line, its time on stdout."""
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)


if __name__ == "__main__":
    serve()
