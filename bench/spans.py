"""In-memory spans around glefield's public functions, and their arithmetic.

A :class:`Tracer` wraps every public function of the modules it is given and
rebinds the wrapper in every glefield namespace that holds the original
(``glefield.cli.assemble_field`` as well as
``glefield.field_assembly.assemble_field``), so calls are seen whichever name
they go through.  Private helpers and the hot scalar closures built inside a
function (``spectral._scalar_rho`` handed to ``quad``) stay unwrapped: their
time shows up as the self time of the public function that runs them.

Each span is kept as (name, start, end, parent, op id, thread, counters) and
written out only when the run ends.  Spans opened in a worker thread with no
open span of its own take as parent the innermost open span of the thread
that installed the tracer; that is the ``assemble_field`` call that created
the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "thread", "counters", "error")

    def __init__(self, index, name, start, parent, op, thread):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counters = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "i": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "thread": self.thread,
            "counters": self.counters,
            "error": self.error,
        }


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run.

    ``counters`` maps a span name to ``f(args, kwargs, result) -> dict``,
    evaluated after the span's end time is taken, so counting never adds to
    the span it describes.
    """

    def __init__(self, counters=None):
        self.spans: list[Span] = []
        self.op = None
        self._counters = counters or {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].index
        else:
            home = self._home_stack
            parent = home[-1].index if home else None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.op,
                        threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, fn, name: str):
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            self.close(span)
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        return traced

    def install(self, package, modules) -> None:
        """Wrap the public functions of ``package``'s submodules named in ``modules``.

        Every module of the package that binds the original function object,
        under any name, gets the wrapper in its place.
        """
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for short in modules:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{short}.{attr}"))
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
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


def children_of(spans) -> dict:
    kids: dict = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans) -> dict:
    """Span index -> duration minus the union of its children's intervals.

    Children running in different threads may overlap; the union counts the
    overlapped stretch once, so the parent is never charged negative time.
    """
    kids = children_of(spans)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in kids.get(span.index, ())
        )
        out[span.index] = span.duration - covered
    return out


def wall_shares(spans) -> dict:
    """Span index -> self time scaled so that all shares add up to wall time.

    Where sibling subtrees overlap (threads), each is scaled by the union of
    the siblings' intervals over the sum of their durations.  The shares of
    a root span's whole tree then add up to the root's duration.
    """
    kids = children_of(spans)
    selfs = self_times(spans)
    by_index = {s.index: s for s in spans}
    scale = {}
    for index, group in kids.items():
        parent = by_index[index]
        clipped = [(max(c.start, parent.start), min(c.end, parent.end)) for c in group]
        summed = sum(b - a for a, b in clipped)
        scale[index] = union_length(clipped) / summed if summed > 0.0 else 1.0
    weight = {}
    out = {}
    for span in sorted(spans, key=lambda s: s.index):
        w = 1.0
        if span.parent is not None:
            w = weight[span.parent] * scale[span.parent]
        weight[span.index] = w
        out[span.index] = selfs[span.index] * w
    return out


def outermost(spans, names) -> list:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_index = {s.index: s for s in spans}
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and by_index[parent].name not in names:
            parent = by_index[parent].parent
        if parent is None:
            out.append(span)
    return out


def busy(spans, names) -> float:
    """Seconds spent inside the named functions, recursion counted once.

    Calls running at the same time in different threads each count in full,
    so this is thread-busy time, not wall time.
    """
    return sum((s.duration for s in outermost(spans, names)), 0.0)
