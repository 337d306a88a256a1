"""Timing spans around the public entry points of each decadic module.

The tracer replaces module attributes with wrappers.  Every caller inside
``decadic`` looks these attributes up at call time, so internal calls are
caught without touching the package.  Spans are kept in memory; the
per-layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass

from decadic import cli, polynomial, recurrence, shooting, solvers, verify

WRAPPED = (
    (polynomial, "polynomial", ("det_bipoly", "char_poly", "resultant", "roots")),
    (recurrence, "recurrence", ("main_matrix", "full_system")),
    (solvers, "solvers", ("solve_sturmian", "sturmian_multiplet", "solve_energies",
                          "solve_coupled", "shifted_coupling_poly")),
    (verify, "verify", ("verify_solution", "recurrence_residual")),
    (shooting, "shooting", ("find_eigenvalue", "wronskian_mismatch",
                            "integrate_log_derivative", "solve_ivp")),
    (cli, "cli", ("main",)),
)


def _ivp_counts(sol):
    return {"nfev": int(sol.nfev), "steps": len(sol.t) - 1}


def _solution_count(result):
    return {"solutions": len(result)}


# span name -> what to keep from a successful call's result
EXTRAS = {
    "shooting.solve_ivp": _ivp_counts,
    "solvers.solve_energies": _solution_count,
    "solvers.solve_coupled": _solution_count,
}
SOLVE_ENTRIES = {"solvers.solve_sturmian", "solvers.sturmian_multiplet",
                 "solvers.solve_energies", "solvers.solve_coupled"}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    error: "str | None"
    extra: "dict | None"


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self):
        self._main_stack = self._stack()
        for module, layer, names in WRAPPED:
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, span_name, fn):
        keep = EXTRAS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to the span the main thread
            # has open; that is cli.main, which stays open until its pool
            # has joined, so the main stack cannot shrink under this read
            outer = stack or self._main_stack
            parent = outer[-1] if outer else 0
            span_id = next(self._ids)
            stack.append(span_id)
            error, extra = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    extra = keep(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, span_name, start, end, error, extra))

        return wrapper


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """span_id -> duration minus the time covered by its child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: (s.end - s.start) - _covered(children.get(s.span_id, ()))
            for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The per-layer metrics of BENCHMARK.json, from one run's spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.span_id: s.name for s in spans}
    own = self_times(spans)

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(layer):
        return sum(own[s.span_id] for s in spans if s.name.startswith(layer + "."))

    def extra_sum(name, key):
        return sum(s.extra[key] for s in by_name.get(name, ()) if s.extra)

    solutions = (extra_sum("solvers.solve_energies", "solutions")
                 + extra_sum("solvers.solve_coupled", "solutions"))
    rhs = extra_sum("shooting.solve_ivp", "nfev")
    mismatches = calls("shooting.wronskian_mismatch")
    return {
        "polynomial.det_bipoly.s": total("polynomial.det_bipoly"),
        "polynomial.det_bipoly.calls": calls("polynomial.det_bipoly"),
        "polynomial.char_poly.s": total("polynomial.char_poly"),
        "polynomial.char_poly.calls": calls("polynomial.char_poly"),
        "polynomial.resultant.s": total("polynomial.resultant"),
        "polynomial.resultant.calls": calls("polynomial.resultant"),
        "polynomial.roots.s": total("polynomial.roots"),
        "polynomial.roots.calls": calls("polynomial.roots"),
        "polynomial.roots.errors": sum(1 for s in by_name.get("polynomial.roots", ())
                                       if s.error),
        "recurrence.main_matrix.s": total("recurrence.main_matrix"),
        "recurrence.full_system.s": total("recurrence.full_system"),
        "recurrence.full_system.calls": calls("recurrence.full_system"),
        "solvers.solve.s": sum(s.end - s.start for s in spans if s.name in SOLVE_ENTRIES
                               and names.get(s.parent) not in SOLVE_ENTRIES),
        "solvers.self_s": self_s("solvers"),
        "solvers.shifted_coupling_poly.s": total("solvers.shifted_coupling_poly"),
        "solvers.shifted_coupling_poly.calls": calls("solvers.shifted_coupling_poly"),
        "solvers.accept_ratio": _ratio(solutions, calls("recurrence.full_system")),
        "verify.verify_solution.s": total("verify.verify_solution"),
        "verify.verify_solution.calls": calls("verify.verify_solution"),
        "verify.self_s": self_s("verify"),
        "verify.recurrence_residual.s": total("verify.recurrence_residual"),
        "shooting.find_eigenvalue.s": total("shooting.find_eigenvalue"),
        "shooting.wronskian_mismatch.s": total("shooting.wronskian_mismatch"),
        "shooting.wronskian_mismatch.calls": mismatches,
        "shooting.mismatch_per_eigen": _ratio(mismatches, calls("shooting.find_eigenvalue")),
        "shooting.solve_ivp.s": total("shooting.solve_ivp"),
        "shooting.ode_steps": extra_sum("shooting.solve_ivp", "steps"),
        "shooting.rhs_evals": rhs,
        "shooting.rhs_per_mismatch": _ratio(rhs, mismatches),
        "shooting.pole_errors": sum(1 for s in by_name.get("shooting.integrate_log_derivative", ())
                                    if s.error == "PoleError"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_s("cli"),
    }


def span_records(spans):
    """Spans as plain lists for the run record, start times relative."""
    t0 = min((s.start for s in spans), default=0.0)
    return [[s.span_id, s.parent, s.name, s.start - t0, s.end - t0, s.error, s.extra]
            for s in spans]
