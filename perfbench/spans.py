"""Spans recorded around wallflock's layer boundaries, from outside the package.

`instrument` replaces each boundary function, in the namespace that calls it,
with a wrapper that records a span (name, start, end, parent).  Spans stay in
memory until the run writes them out; `pass_metrics` derives the per-layer
counts and self times of one pass from them.  A boundary that the program no
longer has is reported as missing, and the metrics that need it are left out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, module, attribute path in that module).  Each is patched where
# it is looked up: the integrator calls acceleration/diagnostics/check_domain,
# verify_halfline/verify_interval call integrate, the CLI calls the rest.
BOUNDARIES = (
    ("cli.verify", "wallflock.cli", "_verify"),
    ("cli.sweep_job", "wallflock.cli", "_sweep_job"),
    ("config.parse_config", "wallflock.cli", "parse_config"),
    ("integrator.integrate", "wallflock.verification", "integrate"),
    ("dynamics.acceleration", "wallflock.integrator", "acceleration"),
    ("potentials.check_domain", "wallflock.integrator", "check_domain"),
    ("observables.diagnostics", "wallflock.integrator", "diagnostics"),
    ("verification.report_json", "wallflock.verification", "TheoremReport.to_json"),
)

# Boundaries whose return value's size (characters of JSON) is recorded.
_SIZED = {"verification.report_json"}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    error: str | None = None
    size: int | None = None


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None  # parent of a thread's outermost span
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record `name` around a block; the block's spans become its children."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        outer = self.root
        if not stack:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.root = outer
            self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        sized = name in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            error = size = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, error, size))

        return traced


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Patch every boundary that exists; yields the names of the missing ones."""
    patched, missing = [], []
    try:
        for name, module, path in BOUNDARIES:
            found = _resolve(module, path)
            if found is None:
                missing.append(name)
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, original))
            patched.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


# Per-layer metrics of one pass: name -> (unit, boundaries it needs).
LAYER_METRICS = {
    "dynamics.acceleration.calls": ("count", ("dynamics.acceleration",)),
    "dynamics.acceleration.self_s": ("s", ("dynamics.acceleration",)),
    "potentials.check_domain.calls": ("count", ("potentials.check_domain",)),
    "potentials.check_domain.self_s": ("s", ("potentials.check_domain",)),
    "observables.diagnostics.calls": ("count", ("observables.diagnostics",)),
    "observables.diagnostics.self_s": ("s", ("observables.diagnostics",)),
    "integrator.integrate.self_s": (
        "s",
        ("integrator.integrate", "dynamics.acceleration", "potentials.check_domain",
         "observables.diagnostics"),
    ),
    "integrator.step_attempts": ("count", ("dynamics.acceleration", "potentials.check_domain")),
    "integrator.domain_rejections": ("count", ("dynamics.acceleration", "potentials.check_domain")),
    "integrator.attempts_per_sample": (
        "ratio",
        ("dynamics.acceleration", "potentials.check_domain", "observables.diagnostics",
         "integrator.integrate"),
    ),
    "integrator.us_per_attempt": (
        "us",
        ("dynamics.acceleration", "potentials.check_domain", "observables.diagnostics",
         "integrator.integrate"),
    ),
    "verification.claims_s": ("s", ("cli.verify", "integrator.integrate")),
    "verification.report_json_s": ("s", ("verification.report_json",)),
    "verification.report_json_bytes": ("bytes", ("verification.report_json",)),
    "config.parse_config.calls": ("count", ("config.parse_config",)),
    "config.parse_config.self_s": ("s", ("config.parse_config",)),
    "cli.sweep.job_s": ("s", ("cli.sweep_job",)),
}

# Counts are properties of the inputs and the code; times are medians over passes.
COUNT_METRICS = {name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "ratio", "bytes")}

_DOMAIN = "WallDomainError"


def pass_metrics(spans, missing=()) -> dict:
    """Per-layer metrics of one pass's spans; those needing a missing boundary are absent.

    A step attempt ends in exactly one of: the endpoint check_domain call
    (which may itself reject), or a stage acceleration that raises
    WallDomainError.  So attempts = check_domain calls + acceleration domain
    errors, and with no rejections acceleration calls = 6 x attempts.
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def n(name):
        return len(by[name])

    def self_sum(name):
        return sum(selfs[s.id] for s in by[name])

    def duration(name):
        return sum(s.end - s.start for s in by[name])

    integrate_ids = {s.id for s in by["integrator.integrate"]}
    acc_rejects = sum(s.error == _DOMAIN for s in by["dynamics.acceleration"])
    rejections = acc_rejects + sum(s.error == _DOMAIN for s in by["potentials.check_domain"])
    attempts = n("potentials.check_domain") + acc_rejects
    samples = n("observables.diagnostics") - n("integrator.integrate")
    diag_in_integrate = sum(
        s.end - s.start for s in by["observables.diagnostics"] if s.parent in integrate_ids
    )
    jobs = [s.end - s.start for s in by["cli.sweep_job"]]

    values = {
        "dynamics.acceleration.calls": n("dynamics.acceleration"),
        "dynamics.acceleration.self_s": self_sum("dynamics.acceleration"),
        "potentials.check_domain.calls": n("potentials.check_domain"),
        "potentials.check_domain.self_s": self_sum("potentials.check_domain"),
        "observables.diagnostics.calls": n("observables.diagnostics"),
        "observables.diagnostics.self_s": self_sum("observables.diagnostics"),
        "integrator.integrate.self_s": self_sum("integrator.integrate"),
        "integrator.step_attempts": attempts,
        "integrator.domain_rejections": rejections,
        "integrator.attempts_per_sample": attempts / samples if samples > 0 else 0.0,
        "integrator.us_per_attempt": (
            1e6 * (duration("integrator.integrate") - diag_in_integrate) / attempts
            if attempts
            else 0.0
        ),
        "verification.claims_s": self_sum("cli.verify"),
        "verification.report_json_s": duration("verification.report_json"),
        "verification.report_json_bytes": sum(s.size or 0 for s in by["verification.report_json"]),
        "config.parse_config.calls": n("config.parse_config"),
        "config.parse_config.self_s": self_sum("config.parse_config"),
        "cli.sweep.job_s": statistics.median(jobs) if jobs else 0.0,
    }
    missing = set(missing)
    return {
        name: values[name]
        for name, (_, needs) in LAYER_METRICS.items()
        if not missing.intersection(needs)
    }
