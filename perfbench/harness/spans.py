"""In-memory span recorder, self-time arithmetic and Chrome-trace export.

A span is one call into a layer: its name, start, end (``perf_counter``
seconds, which on Linux read the system-wide monotonic clock, so spans
from the server process and windows measured by the load generator
share one time base), the span that caused it, and free-form
attributes (request id, batch links, counts).  Spans stay in memory
and are written out once, when the traced process exits.

Self time is a span's duration minus the part of its interval that its
children cover.  Children may overlap one another (concurrent requests,
a worker thread), so the covered part is the length of the union of
their intervals, clipped to the parent.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
from time import perf_counter


class Tracer:
    """Collects spans and instant events for one process."""

    def __init__(self) -> None:
        self.spans: list = []  # (id, name, start, end, parent, tid, attrs)
        self.events: list = []  # (time, name, attrs)
        self.meta: dict = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: Open spans: id -> (name, parent, attrs), for attributing
        #: counts to the nearest enclosing span of a given name.
        self._open: dict = {}

    def begin(self, name: str, attrs: "dict | None" = None):
        sid = next(self._ids)
        parent = self._current.get()
        attrs = {} if attrs is None else attrs
        self._open[sid] = (name, parent, attrs)
        token = self._current.set(sid)
        return sid, parent, token, attrs, perf_counter()

    def end(self, handle) -> None:
        end = perf_counter()
        sid, parent, token, attrs, start = handle
        self._current.reset(token)
        name = self._open.pop(sid)[0]
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), attrs)
        )

    def enclosing(self, name: str) -> "dict | None":
        """Attributes of the innermost open span called ``name``."""
        sid = self._current.get()
        while sid is not None:
            entry = self._open.get(sid)
            if entry is None:
                return None
            if entry[0] == name:
                return entry[2]
            sid = entry[1]
        return None

    def bump(self, span_name: str, key: str, amount: float = 1) -> None:
        attrs = self.enclosing(span_name)
        if attrs is not None:
            attrs[key] = attrs.get(key, 0) + amount

    def event(self, name: str, **attrs) -> None:
        self.events.append((perf_counter(), name, attrs))

    # -- output ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome-trace JSON (opens in Perfetto and chrome://tracing)."""
        pid = os.getpid()
        events = []
        for sid, name, start, end, parent, tid, attrs in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, **attrs},
            })
        for t, name, attrs in self.events:
            events.append({
                "name": name, "ph": "i", "s": "p", "pid": pid, "tid": 0,
                "ts": t * 1e6, "args": attrs,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": self.meta}

    def write(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        os.replace(tmp, path)


def load(path: str) -> "tuple[list, list, dict]":
    """Read a trace written by :meth:`Tracer.write` back as
    ``(spans, events, meta)``; span and event times in seconds."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans, events = [], []
    for ev in data["traceEvents"]:
        args = dict(ev.get("args", {}))
        if ev["ph"] == "X":
            sid = args.pop("id")
            parent = args.pop("parent")
            start = ev["ts"] / 1e6
            spans.append((sid, ev["name"], start, start + ev["dur"] / 1e6,
                          parent, ev["tid"], args))
        else:
            events.append((ev["ts"] / 1e6, ev["name"], args))
    return spans, events, data.get("otherData", {})


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> self time (duration minus children's covered union)."""
    children: dict = {}
    for sid, _name, start, end, parent, _tid, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _tid, _attrs in spans
    }
