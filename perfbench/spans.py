"""In-memory host-time spans and their self-time accounting.

A span has a name, a start and end (``perf_counter_ns``), the index of
the span that caused it (``-1`` for a root) and a task id shared by
every span of one item.  Spans are kept in memory and written out once,
when the run ends.  A span's *self time* is its duration minus the part
of that interval its child spans cover; children that overlap (two
client threads under one pass) are merged before subtracting.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    task: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self, name: str, task: Optional[str] = None, parent: Optional[int] = None
    ) -> int:
        """Start a span; its parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        if task is None:
            task = self.spans[parent].task if parent >= 0 else ""
        span = Span(name, time.perf_counter_ns(), parent=parent, task=task)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(
        self, name: str, task: Optional[str] = None, parent: Optional[int] = None
    ) -> Iterator[int]:
        index = self.open(name, task=task, parent=parent)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def write(self, path: Path) -> None:
        """Dump every span as ``[name, start_ns, end_ns, parent, task]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "task"],
                    "spans": [
                        [s.name, s.start_ns, s.end_ns, s.parent, s.task]
                        for s in self.spans
                    ],
                    "counters": dict(self.counters),
                },
                fh,
            )


def _covered_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start_ns, parent.start_ns)
            end = min(span.end_ns, parent.end_ns)
            if end > start:
                children[span.parent].append((start, end))
    return [
        span.duration_ns - _covered_ns(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def root_names(spans: Sequence[Span]) -> List[str]:
    """Name of each span's root ancestor (parents precede children)."""
    roots: List[str] = []
    for span in spans:
        roots.append(span.name if span.parent < 0 else roots[span.parent])
    return roots


def self_seconds_by_name(spans: Sequence[Span], under: str) -> Dict[str, float]:
    """Self seconds per span name, over the spans rooted at ``under``."""
    selves = self_times_ns(spans)
    roots = root_names(spans)
    out: Dict[str, float] = defaultdict(float)
    for span, self_ns, root in zip(spans, selves, roots):
        if root == under:
            out[span.name] += self_ns / 1e9
    return dict(out)
