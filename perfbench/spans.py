"""In-memory span tracing around calls into the program, from outside it.

A :class:`Tracer` replaces named attributes (module functions or class
methods) with wrappers that record one span per call: name, start, end,
parent span, operation id and whether the call raised.  Wrappers are
installed where the *calling* module looks a name up, so the program's own
code runs unmodified; :meth:`Tracer.close` puts every original back.
Spans stay in memory until :meth:`Tracer.write` is called at the end of a
run.

This module imports nothing outside the standard library, so it can be
loaded (and tested) before the program and numpy are imported.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    op: int  # operation id; -1 for set-up work
    raised: bool


def union_length(intervals) -> int:
    """Total length covered by a set of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> int:
    """The span's duration minus the part of it covered by its children.

    Child intervals are clipped to the parent's interval and merged first,
    so overlapping or nested children are not subtracted twice.
    """
    clipped = [(max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns)) for c in children]
    return (span.end_ns - span.start_ns) - union_length(clipped)


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    raised: int = 0


def aggregate(spans) -> dict[str, LayerStats]:
    """Per span name: call count, busy time, self time and raised calls.

    Busy time is the union of the name's span intervals, so a name that
    re-enters itself is not counted twice.  Self time sums, over the name's
    spans, each span's duration minus what its direct children cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name, group in by_name.items():
        out[name] = LayerStats(
            calls=len(group),
            busy_ns=union_length((s.start_ns, s.end_ns) for s in group),
            self_ns=sum(self_time(s, children[s.sid]) for s in group),
            raised=sum(s.raised for s in group),
        )
    return out


class Tracer:
    """Records spans for every call through the attributes it wraps."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._next_sid = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, probe=None) -> None:
        """Trace calls of ``owner.attr`` from now until :meth:`close`.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.  ``probe(tracer, args, result)``, if given, runs
        after a call returns and adds to :attr:`counters`; a probe that no
        longer fits the result it reads is counted in ``probe_errors``
        instead of failing the call.  A missing attribute is noted in
        :attr:`missing` and skipped, so a program that no longer has the
        name reports zero calls instead of failing.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if attr not in vars(owner):
            self.missing.add(label)
            return
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            sid = tracer._next_sid
            tracer._next_sid += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            raised = True
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
                raised = False
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, span_name, start, end, parent, tracer.op, raised))
            if probe is not None:
                try:
                    probe(tracer, args, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.counters["probe_errors"] += 1
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def write(self, path) -> None:
        """Write every span as one tab-separated line, in completion order."""
        with open(path, "w") as fh:
            fh.write("sid\tname\tstart_ns\tend_ns\tparent\top\traised\n")
            for s in self.spans:
                fh.write(f"{s.sid}\t{s.name}\t{s.start_ns}\t{s.end_ns}\t{s.parent}\t{s.op}\t{int(s.raised)}\n")
