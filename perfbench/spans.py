"""In-memory wall-clock spans around calls into the program's layers.

The benchmark never edits ``src/``: a traced run wraps public functions
and methods of the program from here, records one span per call
(name, start, end, parent span, operation id), and restores the
originals afterwards.  Spans stay in memory until :meth:`Tracer.dump`.

A span's *self* time is its duration minus the time covered by its
direct child spans.  Children nest on one thread, so they never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "clock"]


def clock() -> float:
    """Wall-clock seconds: the one place the benchmark reads the clock.

    The benchmark measures wall time, and nothing simulated reads this.
    """
    return time.perf_counter()  # repro: noqa-DET001


class Tracer:
    """Records spans; installs and removes call wrappers."""

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent, op]`` per finished span.
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._ids += 1
            return self._ids

    @property
    def op(self):
        """The operation id new spans on this thread are tagged with."""
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    def record(self, name: str, start: float, end: float, op=None) -> None:
        """Add a finished span that had no parent (e.g. a client request)."""
        self.spans.append([self._new_id(), name, start, end, None, op])

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span nested under the current one."""
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str) -> "_Span":
        """A span around a block of code, nested under the current one."""
        return _Span(self, name)

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a spanned version until restore.

        ``on_return(result, args, kwargs)`` runs after each call, for
        counts taken where the work happens (hits, bytes).  Coroutine
        functions get a span from first step to completion with no
        parent: interleaved tasks on one loop share no call stack.
        """
        fn = inspect.getattr_static(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.record(name, start, clock())
                if on_return is not None:
                    on_return(result, args, kwargs)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                if on_return is not None:
                    on_return(result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def wrapping(self, targets):
        """Wrap ``(owner, attr, name[, on_return])`` targets for a block."""
        try:
            for target in targets:
                self.wrap(*target)
            yield self
        finally:
            self.restore()

    # -- reporting ------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: ``{"count", "total_s", "self_s"}``."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, name, start, end, _parent, _op in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def format_table(self, title: str) -> str:
        lines = [
            f"# per-layer spans: {title}",
            f"# {'layer':<36} {'count':>9} {'total_s':>11} {'self_s':>11}",
        ]
        for name, row in sorted(self.table().items()):
            lines.append(
                f"# {name:<36} {row['count']:>9d} "
                f"{row['total_s']:>11.6f} {row['self_s']:>11.6f}"
            )
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (written at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))

    def merge(self, path: Path) -> None:
        """Append spans another process dumped (ids are re-numbered)."""
        doc = json.loads(path.read_text())
        remap: dict[int, int] = {}
        for span_id, *_rest in doc["spans"]:
            remap[span_id] = self._new_id()
        for span_id, name, start, end, parent, op in doc["spans"]:
            self.spans.append(
                [remap[span_id], name, start, end, remap.get(parent), op]
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.id = self.tracer._new_id()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        end = clock()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            [self.id, self.name, self.start, end, self.parent, self.tracer.op]
        )
