"""Tracing from outside: wrap public functions at runtime, keep spans.

The benchmark never edits the code it measures. A traced run replaces
each listed public function with a wrapper that records one span —
``[name, start, end, parent, request]`` — in a plain list; the list is
written out once, when the workload ends. ``parent`` is the index of
the span that was open when this one started (-1 at top level) and
``request`` the index of the top-level span it descends from, so all
work done for one batch or one epoch shares an identifier.

A span's *self time* is its duration minus the durations of its direct
children. Per-request functions (``ResultCache.get`` / ``put``) are
deliberately not in the list: a wrapper would outweigh them.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Span recorder; one per traced workload run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self._patched: list[tuple[type, str, Any]] = []

    def wrap(self, owner: type, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper
        (undone by :meth:`uninstall`)."""
        raw = owner.__dict__[attr]
        self._patched.append((owner, attr, raw))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._traced(raw.__func__, name))
        else:
            wrapped = self._traced(raw, name)
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every function :meth:`wrap` replaced."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _traced(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = open_[-1] if open_ else -1
            request = spans[parent][REQUEST] if open_ else index
            span = [name, 0.0, 0.0, parent, request]
            spans.append(span)
            open_.append(index)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()

        return wrapper

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Measured cost of recording one span: a traced no-op against
        the bare no-op, per call (the recorded spans are discarded)."""

        def noop() -> None:
            return None

        traced = self._traced(noop, "calibrate")
        keep = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        del self.spans[keep:]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``
        and the individual ``durations`` (call order)."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            row = out.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[index]
            row["durations"].append(duration)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (index = line number)."""
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "request": span[REQUEST],
                        }
                    )
                )
                out.write("\n")
