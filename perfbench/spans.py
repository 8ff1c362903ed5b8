"""In-memory span recording around the program's public layer functions.

The benchmark never edits the program: it replaces a class attribute
with a wrapper that records one span per call (name, start, end, parent
span, batch id, counts) and then calls the original.  Parents follow
``contextvars``, so spans opened in concurrent asyncio tasks nest under
their own task's caller, not under whatever else is running.  Spans stay
in memory and are written out once, at exit.

A span's *self time* is its duration minus the part of its interval that
its children cover; ``unattributed`` is the part of a window no span
covers.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

#: (span index, batch id) of the innermost open span of this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)

NAME, START, END, PARENT, BATCH, COUNTS = range(6)


class SpanRecorder:
    """Collects spans as ``[name, start, end, parent, batch, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._next_batch = 0

    # ------------------------------------------------------------------
    def new_batch(self) -> int:
        """A fresh batch id (spans of one request or queue item share it)."""
        self._next_batch += 1
        return self._next_batch

    def _open(self, name: str, batch: Optional[int]) -> tuple[int, object]:
        parent, parent_batch = _CURRENT.get()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent,
             batch if batch is not None else parent_batch, None]
        )
        return index, _CURRENT.set((index, self.spans[index][BATCH]))

    def _close(self, index: int, token, counts: Optional[dict]) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[COUNTS] = counts
        _CURRENT.reset(token)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        counts: Optional[Callable] = None,
        batch: Optional[Callable] = None,
        skip: Optional[Callable] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``counts(args, kwargs, result)`` returns a dict stored on the
        span; ``batch(args, kwargs)`` picks the span's batch id (default:
        inherited from the parent); ``skip(args, kwargs)`` true calls the
        original without a span.  A missing attribute is noted in
        :attr:`missing` instead of failing, so the benchmark still runs
        on a program whose layer was renamed.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if skip is not None and skip(args, kwargs):
                    return await original(*args, **kwargs)
                index, token = recorder._open(
                    name, batch(args, kwargs) if batch else None
                )
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    recorder._close(
                        index, token,
                        counts(args, kwargs, result) if counts else None,
                    )

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if skip is not None and skip(args, kwargs):
                    return original(*args, **kwargs)
                index, token = recorder._open(
                    name, batch(args, kwargs) if batch else None
                )
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    recorder._close(
                        index, token,
                        counts(args, kwargs, result) if counts else None,
                    )

        self._restore.append((owner, attr, owner.__dict__.get(attr, original)))
        setattr(owner, attr, wrapper)

    def observe(
        self, owner: object, attr: str, hook: Callable
    ) -> None:
        """Call ``hook(args, kwargs, result, t_end)`` after each call, with
        no span (for waits such as a queue peek, whose duration is idle
        time, not work)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                result = await original(*args, **kwargs)
                hook(args, kwargs, result, time.perf_counter())
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(args, kwargs, result, time.perf_counter())
                return result

        self._restore.append((owner, attr, owner.__dict__.get(attr, original)))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def closed(self) -> list[list]:
        """Spans that ended (an open span at exit has no duration)."""
        return reindex(self.spans, lambda span: span[END] is not None)

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write ``{"spans": [...], ...extra}`` as one JSON document."""
        doc = {"spans": self.closed(), "missing": self.missing}
        doc.update(extra or {})
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
def union_length(
    intervals: Iterable[tuple[float, float]],
    lo: float = float("-inf"),
    hi: float = float("inf"),
) -> float:
    """Total length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), in seconds, indexed like *spans*."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = union_length(children.get(index, ()), span[START], span[END])
        out.append(span[END] - span[START] - covered)
    return out


def unattributed(
    spans: Sequence[list], lo: float, hi: float
) -> float:
    """Seconds of ``[lo, hi]`` that no span covers."""
    return (hi - lo) - union_length(
        ((s[START], s[END]) for s in spans), lo, hi
    )


def reindex(spans: Sequence[list], keep: Callable[[list], bool]) -> list[list]:
    """The spans *keep* selects, with parent links renumbered; a parent
    that was dropped makes the span a root."""
    mapping: dict[int, int] = {}
    out: list[list] = []
    for index, span in enumerate(spans):
        if keep(span):
            mapping[index] = len(out)
            out.append(list(span))
    for span in out:
        span[PARENT] = mapping.get(span[PARENT]) if span[PARENT] is not None else None
    return out


class LayerStats:
    """Per-name aggregates over a span list: calls, total and self time,
    per-call durations and summed counts."""

    def __init__(self, spans: Sequence[list]) -> None:
        selfs = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for span, own in zip(spans, selfs):
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_total[name] += own
            self.durations[name].append(duration)
            for key, value in (span[COUNTS] or {}).items():
                self.counts[name][key] += value

    def count(self, name: str, key: str) -> float:
        """Summed count *key* over all spans called *name*."""
        return self.counts[name][key] if name in self.counts else 0.0

