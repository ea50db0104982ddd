"""Span: a nestable context-manager tracer over ``time.monotonic``.

Spans answer "where did the wall-clock go inside this process" at a
coarser grain than the metric histograms: a span has a name, a duration,
a parent, and children, and the finished tree renders as an indented
text report.  Nesting is tracked per *thread* (the ingest writer thread
and the event loop must not interleave into one tree), via a
``threading.local`` stack — no asyncio-task granularity, which the
single-threaded event loop does not need.

Spans are process-local; only counter deltas move between registries
(see :mod:`repro.obs.registry`).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

__all__ = ["Span", "current_span"]

_STACK = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = []
        _STACK.spans = stack
    return stack


def current_span() -> Optional["Span"]:
    """The innermost open span on this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One timed region; ``with Span("name"):`` nests under the current span.

    Timing uses ``time.monotonic`` so clock steps cannot produce negative
    or inflated durations.  A span may be inspected after exit via
    ``duration``, ``children``, and ``report()``.
    """

    __slots__ = ("name", "parent", "children", "started", "duration")

    def __init__(self, name: str) -> None:
        self.name = name
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.started = 0.0
        self.duration: Optional[float] = None

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            self.parent = stack[-1]
            self.parent.children.append(self)
        stack.append(self)
        self.started = time.monotonic()
        return self

    def __exit__(self, *exc: object) -> None:
        self.duration = time.monotonic() - self.started
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly tree: name, duration_seconds, children."""
        return {
            "name": self.name,
            "duration_seconds": self.duration,
            "children": [child.to_dict() for child in self.children],
        }

    def report(self, indent: int = 0) -> str:
        """Indented multi-line rendering of this span's subtree."""
        duration = "open" if self.duration is None else f"{self.duration:.6f}s"
        lines = ["  " * indent + f"{self.name}: {duration}"]
        for child in self.children:
            lines.append(child.report(indent + 1))
        return "\n".join(lines)
