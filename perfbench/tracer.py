"""Span tracer that measures the library's layers from outside.

The tracer wraps public callables of the library (a method on a class or an
instance, or a function looked up through a module) so that every call
records a span: its layer name, start, end and the span that was open when
it started.  Spans live in memory until the run reports them.  A layer's
*self time* is its duration minus the time its direct child spans cover, so
the self times of one unit add up to the unit's wall time exactly.

Nothing is installed while the tracer is disabled: :meth:`Tracer.wrap` is
then a no-op and :meth:`Tracer.span` yields without recording, so an
untraced run calls the library exactly as a user would.  :meth:`Tracer.close`
(or leaving the ``with`` block) puts every wrapped attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

_MISSING = object()


class Span:
    """One traced call: layer name, interval in ns, parent and child time."""

    __slots__ = ("name", "start", "end", "parent", "child_ns", "count")

    def __init__(self, name: str, start: int, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0
        self.count = 0.0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """Records spans around wrapped callables and explicit ``span`` blocks.

    Parameters
    ----------
    enabled:
        When false the tracer installs nothing and records nothing.
    clock:
        Nanosecond clock; replaceable so the self-tests can drive time.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter_ns) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (yields it, or ``None``)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------ installing
    def wrap(self, owner, attribute: str, name: str, count=None) -> None:
        """Trace every call of ``owner.attribute`` as a span called ``name``.

        ``owner`` is a class, an instance or a module.  ``count``, when
        given, is called as ``count(args, kwargs, result)`` after each call
        and its value is added to the span's ``count`` (work done, such as
        rows swept).  The attribute is restored by :meth:`close`.
        """
        if not self.enabled:
            return
        own = vars(owner).get(attribute, _MISSING) \
            if hasattr(owner, "__dict__") else _MISSING
        target = getattr(owner, attribute)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attribute!r}: static and class "
                            "methods are not supported")

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = target(*args, **kwargs)
                if count is not None:
                    span.count += count(args, kwargs, result)
                return result
            finally:
                self._close(span)

        self._restore.append((owner, attribute, own))
        setattr(owner, attribute, traced)

    def close(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._restore:
            owner, attribute, own = self._restore.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- reporting
    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, total self ns, total duration ns, count."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "count": 0.0})
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["self_ns"] += span.self_ns
            row["total_ns"] += span.duration_ns
            row["count"] += span.count
        return dict(table)
