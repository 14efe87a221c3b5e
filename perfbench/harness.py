"""Shared machinery of the repo benchmark.

* :class:`Tracer` -- in-memory spans with self time: a span's seconds
  exclude the spans opened inside it, so the self times of one
  operation add up to the operation's wall time minus a named residual.
* :func:`patched` -- swap an attribute of a module or class for the
  duration of a ``with`` block and restore it exactly afterwards.  The
  traced runs use it to wrap the calls into each layer; untraced runs
  install nothing.
* :func:`measure` -- the timed loop every workload runs through: set-up
  repeated :data:`SETUP_REPEATS` times, then operations until the time
  budget is spent, the correctness gate applied to every operation
  outside its timed region.
* :func:`calibration_seconds` -- the host-speed probe timed around every
  operation (see :data:`REFERENCE_CALIBRATION_S`).
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Set-ups per run (at least): ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Cheap set-ups repeat until this many seconds are spent (at most
#: :data:`SETUP_MAX_REPEATS` times), so their median rests on enough
#: samples to be steady.
SETUP_BUDGET_S = 0.25
SETUP_MAX_REPEATS = 10

#: Seconds :func:`calibration_seconds` takes on an idle reference host
#: (a 2.0 GHz x86-64 vCPU, CPython 3.11).  Shared hosts slow every
#: process on them by up to 2x for seconds to minutes at a time.  The
#: probe is timed right before and right after each timed region, and
#: the region's seconds are scaled by this constant over the probe's
#: mean: end-to-end times read as on the reference host, with the
#: host's drift cancelled.
REFERENCE_CALIBRATION_S = 0.015

_MISSING = object()


def calibration_seconds() -> float:
    """Median of three timings of a fixed loop of small-integer arithmetic.

    It runs no repository code and creates nothing the garbage collector
    tracks, so only the host's speed can change its cost.
    """
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def host_scale(before: float, after: float) -> float:
    """Factor from measured to reference-host seconds, given two probes."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


class Tracer:
    """Spans and counters recorded around the calls into each layer."""

    def __init__(self) -> None:
        #: span name -> self seconds (children excluded)
        self.seconds: Dict[str, float] = defaultdict(float)
        #: span name -> number of spans closed
        self.calls: Counter = Counter()
        #: free-form counters the wrappers record at layer boundaries
        self.counts: Counter = Counter()
        #: engines captured through the engine_provider seam
        self.engines: List[Any] = []
        self._children: List[float] = []

    def timed(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] += elapsed - self._children.pop()
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a ``name`` span."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.timed(name, fn, *args, **kwargs)

        return wrapper

    def span_total(self) -> float:
        return sum(self.seconds.values())


@contextlib.contextmanager
def patched(target: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set ``target.attr = replacement`` for the ``with`` block.

    Restores the attribute exactly: an attribute the target only
    inherited (a method defined on a base class) is deleted again
    instead of being pinned onto the target.
    """
    own = vars(target).get(attr, _MISSING)
    setattr(target, attr, replacement)
    try:
        yield
    finally:
        if own is _MISSING:
            delattr(target, attr)
        else:
            setattr(target, attr, own)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


@dataclass
class Op:
    """One timed operation and what the gate made of it."""

    key: int
    seconds: float
    traced: bool
    #: measured -> reference-host seconds (see REFERENCE_CALIBRATION_S)
    scale: float = 1.0
    output: Any = None
    tracer: Optional[Tracer] = None
    phases: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def calibrated(self) -> float:
        """The operation's seconds on the reference host."""
        return self.seconds * self.scale


@dataclass
class Measurement:
    setup_seconds: List[float]
    #: measured -> reference-host seconds for the set-ups
    setup_scale: float
    ops: List[Op]

    @property
    def untraced(self) -> List[Op]:
        return [op for op in self.ops if not op.traced]

    @property
    def traced(self) -> List[Op]:
        return [op for op in self.ops if op.traced]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.errors)


def per_key_mean(ops: List[Op], value: Callable[[Op], float]) -> float:
    """Mean over instances of the median per instance.

    Workloads that cycle through several generated instances weight
    each instance equally, however many times the time budget let it
    run.
    """
    by_key: Dict[int, List[float]] = defaultdict(list)
    for op in ops:
        by_key[op.key].append(value(op))
    return statistics.fmean(statistics.median(values) for values in by_key.values())


def mean_span_seconds(ops: List[Op], *spans: str) -> float:
    """Mean over traced ``ops`` of the self seconds spent in ``spans``."""
    return statistics.fmean(sum(op.tracer.seconds[span] for span in spans) for op in ops)


def mean_residual_seconds(ops: List[Op]) -> float:
    """Mean over traced ``ops`` of the time no span covered."""
    return statistics.fmean(op.seconds - op.tracer.span_total() for op in ops)


def run_op(workload: Any, key: int, traced: bool) -> Op:
    """Run, time and gate one operation; a raise is a failed operation."""
    tracer = Tracer() if traced else None
    workload.prepare(key)
    gc.collect()
    before = calibration_seconds()
    start = time.perf_counter()
    try:
        output, phases = workload.op(key, tracer)
    except Exception:  # noqa: BLE001 - every failure is counted, not fatal
        op = Op(key, time.perf_counter() - start, traced, tracer=tracer)
        op.errors.append("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    else:
        op = Op(key, time.perf_counter() - start, traced, output=output, tracer=tracer)
        op.phases = phases
    op.scale = host_scale(before, calibration_seconds())
    if not op.errors:
        op.errors.extend(workload.check(key, op.output))
    workload.cleanup(key)
    return op


def measure(workload: Any, seconds: float, trace: bool) -> Measurement:
    """Set up (repeatedly, see :data:`SETUP_REPEATS`), then run operations.

    Untraced runs cycle through the workload's instances until the
    budget is spent and every instance ran once.  Traced runs alternate
    an untraced and a traced operation on the same instance, so the
    tracing overhead is measured pair by pair; they stop once the budget
    is spent (at least one pair).
    """
    setup_seconds: List[float] = []
    before = calibration_seconds()
    while len(setup_seconds) < SETUP_REPEATS or (
        sum(setup_seconds) < SETUP_BUDGET_S and len(setup_seconds) < SETUP_MAX_REPEATS
    ):
        # Collected every time, so the previous set-up's garbage never
        # inflates the peak RSS by an amount that depends on the count.
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - start)
    setup_scale = host_scale(before, calibration_seconds())

    # The set-up's objects (graphs, specs, record pools) outlive every
    # operation: freezing them keeps the collector from re-traversing
    # the benchmark's own heap inside the timed regions.
    gc.collect()
    gc.freeze()
    ops: List[Op] = []
    instances = workload.instances()
    begin = time.perf_counter()
    index = 0
    try:
        while True:
            key = index % instances
            op = run_op(workload, key, traced=False)
            if index >= instances:
                op.output = None  # the gate has seen it; keep the heap flat
            ops.append(op)
            if trace:
                ops.append(run_op(workload, key, traced=True))
            index += 1
            spent = time.perf_counter() - begin
            if spent >= seconds and (trace or index >= instances):
                break
    finally:
        gc.unfreeze()
    return Measurement(setup_seconds, setup_scale, ops)
