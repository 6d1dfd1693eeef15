"""Span recording and self-time arithmetic for the traced benchmark run.

A span is one call into a layer's public entry point.  The wrappers in
:mod:`perfbench.instrument` record ``(request, span, parent, kind,
start_ns, end_ns, tag)`` into a per-thread ``array`` -- no lock, no
per-span object -- and the spans are grouped and reduced only after the
timed phase, so the post-processing never lands inside measured time.

Parentage comes from a thread-local stack.  A span opened with an empty
stack starts a new request, unless the thread is running work that a
traced thread handed to an executor pool (:meth:`Tracer.call_in_context`),
in which case it joins the submitting span's request as its child.

Self time (:func:`exclusive_times`): at each instant of a request, the
time goes to the spans that are open and have no open child.  When
several such spans overlap -- shard spans running in parallel on pool
threads -- the instant is split equally among them.  A parent's self time
is therefore its duration minus the union of its children's intervals,
parallel children are never double-counted, and the self times of one
request add up exactly to the union of its spans' intervals.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter_ns

_FIELDS = 7  # request, span, parent, kind, start_ns, end_ns, tag


def exclusive_times(spans) -> list[float]:
    """Self time of each span in ``spans``, given as ``(parent, start, end)``.

    ``parent`` is the index of the parent span in ``spans`` or ``None``.
    Returns one float per span, in the same order; the values sum to the
    measure of the union of all the intervals.
    """
    n = len(spans)
    depth = [0] * n
    for i, (parent, _, _) in enumerate(spans):
        hops, p = 0, parent
        while p is not None and hops <= n:
            hops, p = hops + 1, spans[p][0]
        depth[i] = hops
    events = []
    for i, (_, start, end) in enumerate(spans):
        # at equal times: ends before starts; children end before their
        # parents, and parents start before their children
        events.append((start, 1, depth[i], i))
        events.append((end, 0, -depth[i], i))
    events.sort()
    out = [0.0] * n
    active = [False] * n
    finished = [False] * n
    open_children = [0] * n
    leaves: set[int] = set()
    last = None
    for time, is_start, _, i in events:
        if leaves and time > last:
            share = (time - last) / len(leaves)
            for j in leaves:
                out[j] += share
        last = time
        parent = spans[i][0]
        if is_start:
            if finished[i]:
                continue
            active[i] = True
            leaves.add(i)
            if parent is not None and active[parent]:
                if open_children[parent] == 0:
                    leaves.discard(parent)
                open_children[parent] += 1
        elif not active[i]:
            finished[i] = True  # zero-length span: its end sorted first
        else:
            active[i] = False
            leaves.discard(i)
            if parent is not None and active[parent]:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


@dataclass
class TraceSummary:
    """Per-kind totals of one traced phase (times in nanoseconds)."""

    requests: int = 0
    self_ns: Counter = field(default_factory=Counter)
    inclusive_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    tag_sum: Counter = field(default_factory=Counter)
    #: per kind: number of distinct non-zero tags, summed over requests
    distinct_tags: Counter = field(default_factory=Counter)


class Tracer:
    """Records spans from wrapped entry points while :attr:`active` is set."""

    def __init__(self) -> None:
        self.kinds: list[tuple[str, str]] = []
        self.active = False
        self._local = threading.local()
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        self._ids = count(1)

    def kind(self, layer: str, method: str) -> int:
        """The span kind number for ``layer``'s entry point ``method``."""
        if (layer, method) not in self.kinds:
            self.kinds.append((layer, method))
        return self.kinds.index((layer, method))

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.buffer
        except AttributeError:
            local.stack = []
            local.buffer = array("q")
            local.inherited = None
            with self._buffers_lock:
                self._buffers.append(local.buffer)
            return local.stack, local.buffer

    def wrap(self, kind: int, fn, tag=None):
        """``fn`` recording one span of ``kind`` per call.

        ``tag(args)`` gives the span's integer tag (a shard number, a
        block count); spans without one carry ``0``.
        """
        local = self._local
        ids = self._ids
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, buffer = self._thread_state()
            if stack:
                request, parent = stack[-1]
            elif local.inherited is not None:
                request, parent = local.inherited
            else:
                request, parent = next(ids), 0
            span = next(ids)
            stack.append((request, span))
            label = tag(args) if tag is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.extend((request, span, parent, kind, start, end, label))

        traced.__wrapped__ = fn
        return traced

    def current(self):
        """The ``(request, span)`` open on this thread, or ``None``."""
        if not self.active:
            return None
        stack, _ = self._thread_state()
        if stack:
            return stack[-1]
        return self._local.inherited

    def call_in_context(self, context, fn, *args, **kwargs):
        """Run ``fn`` on a pool thread as a child of ``context``."""
        self._thread_state()
        self._local.inherited = context
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    def reset(self) -> None:
        """Drop every recorded span."""
        with self._buffers_lock:
            for buffer in self._buffers:
                del buffer[:]

    def summarize(self) -> TraceSummary:
        """Reduce the recorded spans to per-kind totals, then drop them."""
        by_request: dict[int, list[tuple]] = defaultdict(list)
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for base in range(0, len(buffer), _FIELDS):
                record = tuple(buffer[base : base + _FIELDS])
                by_request[record[0]].append(record)
        self.reset()
        summary = TraceSummary(requests=len(by_request))
        for records in by_request.values():
            index = {record[1]: i for i, record in enumerate(records)}
            times = exclusive_times(
                [(index.get(parent), start, end)
                 for _, _, parent, _, start, end, _ in records]
            )
            tags: dict[int, set[int]] = defaultdict(set)
            for (_, _, _, kind, start, end, label), own in zip(records, times):
                summary.self_ns[kind] += own
                summary.inclusive_ns[kind] += end - start
                summary.calls[kind] += 1
                summary.tag_sum[kind] += label
                if label:
                    tags[kind].add(label)
            for kind, labels in tags.items():
                summary.distinct_tags[kind] += len(labels)
        return summary

