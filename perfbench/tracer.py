"""Spans recorded around calls into each wiretap module, from outside it.

Every public callable is wrapped at the name its caller looks up (so
``wiretap.cli.solve_general`` and ``wiretap.sweep.solve_general`` are
wrapped separately) and restored afterwards, which leaves the untraced
passes of a run untouched. Spans stay in memory with a link to the span
that was open when they started; a span's self time is its duration minus
the durations of its children.

The channel sampler is a generator that the estimators consume lazily, so
its work is spread across the estimator's span. It is recorded as one
``montecarlo.draw`` span per generator whose duration is the time spent
inside the generator, parented to the span that consumed it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import threading
import time
from pathlib import Path

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "dur", "attrs")

    def __init__(self, id_, parent, name, start):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.dur = 0.0
        self.attrs = {}


def _solution_attrs(span, sol):
    span.attrs["status"] = sol.status
    span.attrs["certified"] = sol.certificate is not None
    span.attrs["rank1_exact"] = bool(sol.rank1_exact)


def _relaxed_attrs(span, sol):
    span.attrs["newton"] = int(sol.newton_iterations)


def _sweep_attrs(span, result):
    span.attrs["rows"] = len(result.rows)


# (module, attribute as the caller looks it up, span name, result hook)
TARGETS = (
    ("wiretap.cli", "load_problem", "probfile.load", None),
    ("wiretap.cli", "sweep_region", "sweep", _sweep_attrs),
    ("wiretap.cli", "solve_general", "sdp.solve_general", _solution_attrs),
    ("wiretap.cli", "check_kkt", "kkt.check", None),
    ("wiretap.cli", "rank_bound_check", "kkt.rank_bound", None),
    ("wiretap.sweep", "solve_general", "sdp.solve_general", _solution_attrs),
    ("wiretap.sdp", "thresholds_gaussian", "model.thresholds", None),
    ("wiretap.sdp", "thresholds_finite_alphabet", "model.thresholds", None),
    ("wiretap.sdp", "solve_rank_relaxed", "sdp.relaxed", _relaxed_attrs),
    ("wiretap.sdp", "extract_principal_direction", "sdp.rank1", None),
    ("wiretap.sdp", "power_rescale", "sdp.rank1", None),
    ("wiretap.diag_lp", "solve_diagonal", "diag_lp.solve", None),
    ("wiretap.diag_lp", "all_diagonal", "diag_lp.all_diagonal", None),
    ("wiretap.montecarlo", "estimate_non_outage", "montecarlo.estimate", None),
    ("wiretap.montecarlo", "estimate_individual_probs", "montecarlo.estimate", None),
    ("wiretap.mi", "MiEvaluator.rate", "mi.rate", None),
    ("wiretap.mi", "MiEvaluator.inverse", "mi.inverse", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(len(self.spans), stack[-1].id if stack else None, name, _clock())
        self.spans.append(span)
        stack.append(span)
        return span

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = _clock() - span.start
                self._stack().pop()
            if hook is not None:
                hook(span, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Wrap a generator function; time only the work inside the generator.

        The body runs at the first ``next``, so the span open at that moment
        is the consumer and becomes the parent."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(len(self.spans), stack[-1].id if stack else None, name, _clock())
            self.spans.append(span)
            count = 0
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.dur += _clock() - t0
                    count += 1
                    yield item
            finally:
                span.attrs["trials"] = count

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, hook in TARGETS:
                owner, leaf = _resolve(module_name, attr)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, hook))
            mc = importlib.import_module("wiretap.montecarlo")
            saved.append((mc, "sample_channels", mc.sample_channels))
            mc.sample_channels = self.wrap_generator("montecarlo.draw", mc.sample_channels)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path: Path) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
             "dur": s.dur, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n", encoding="utf-8")


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    busy_s sums a layer's span durations; self_s subtracts the time of the
    spans nested directly inside. A ratio whose base is zero reads 0.
    """
    child_time: dict[int, float] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
            children.setdefault(s.parent, []).append(s)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.dur
        self_s[s.name] = self_s.get(s.name, 0.0) + s.dur - child_time.get(s.id, 0.0)

    solves = [s for s in spans if s.name == "sdp.solve_general"]
    routes = {"trivial": 0, "lp": 0, "sdp": 0}
    for s in solves:
        names = {c.name for c in children.get(s.id, ())}
        route = "lp" if "diag_lp.solve" in names else "sdp" if "sdp.relaxed" in names else "trivial"
        routes[route] += 1
    status = {k: 0 for k in ("optimal", "infeasible", "max_iterations", "rank1_infeasible")}
    for s in solves:
        status[s.attrs["status"]] = status.get(s.attrs["status"], 0) + 1
    certified = sum(1 for s in solves if s.attrs["status"] == "infeasible" and s.attrs["certified"])
    rank1 = sum(1 for s in solves if s.attrs["status"] == "optimal" and s.attrs["rank1_exact"])
    newton = sum(s.attrs["newton"] for s in spans if s.name == "sdp.relaxed")
    sweep_ids = {s.id for s in spans if s.name == "sweep"}
    rows = sum(s.attrs["rows"] for s in spans if s.name == "sweep")
    sweep_solves = sum(1 for s in solves if s.parent in sweep_ids)
    trials = sum(s.attrs["trials"] for s in spans if s.name == "montecarlo.draw")

    m = {
        "mi.rate.calls": calls.get("mi.rate", 0),
        "mi.rate.ms_per_call": 1e3 * _ratio(busy.get("mi.rate", 0.0), calls.get("mi.rate", 0)),
        "mi.inverse.calls": calls.get("mi.inverse", 0),
        "mi.inverse.busy_s": busy.get("mi.inverse", 0.0),
        "mi.rate_per_inverse": _ratio(calls.get("mi.rate", 0), calls.get("mi.inverse", 0)),
        "model.thresholds.calls": calls.get("model.thresholds", 0),
        "model.thresholds.self_s": self_s.get("model.thresholds", 0.0),
        "sdp.solve_general.calls": len(solves),
        "sdp.solve_general.busy_s": busy.get("sdp.solve_general", 0.0),
        "sdp.relaxed.calls": calls.get("sdp.relaxed", 0),
        "sdp.relaxed.busy_s": busy.get("sdp.relaxed", 0.0),
        "sdp.newton_steps": newton,
        "sdp.newton_per_solve": _ratio(newton, calls.get("sdp.relaxed", 0)),
        "sdp.ms_per_newton": 1e3 * _ratio(busy.get("sdp.relaxed", 0.0), newton),
        "sdp.infeasible_certified_frac": _ratio(certified, status["infeasible"]),
        "sdp.rank1.busy_s": busy.get("sdp.rank1", 0.0),
        "sdp.rank1_exact_frac": _ratio(rank1, status["optimal"]),
        "diag_lp.solve.calls": calls.get("diag_lp.solve", 0),
        "diag_lp.solve.busy_s": busy.get("diag_lp.solve", 0.0),
        "diag_lp.all_diagonal.busy_s": busy.get("diag_lp.all_diagonal", 0.0),
        "sweep.rows": rows,
        "sweep.solves": sweep_solves,
        "sweep.solves_per_row": _ratio(sweep_solves, rows),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "montecarlo.draw.trials": trials,
        "montecarlo.draw.busy_s": busy.get("montecarlo.draw", 0.0),
        "montecarlo.estimate.self_s": self_s.get("montecarlo.estimate", 0.0),
        "montecarlo.trials_per_s": _ratio(trials, busy.get("montecarlo.estimate", 0.0)),
        "kkt.check.busy_s": busy.get("kkt.check", 0.0),
        "kkt.rank_bound.busy_s": busy.get("kkt.rank_bound", 0.0),
        "probfile.load.busy_s": busy.get("probfile.load", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
    m.update({f"sdp.route.{k}": v for k, v in routes.items()})
    m.update({f"sdp.status.{k}": v for k, v in status.items()})
    return m
