"""Spans and counts recorded around the program's public entry points.

The benchmark wraps public functions and methods of the layers from its own
files (:meth:`Tracer.wrap`), runs the traced job, and removes the wrappers
again (:meth:`Tracer.uninstall`).  Each call becomes a span -- name, layer,
start, end, parent span, request id -- kept in memory and written out when
the run ends.  ``on_exit`` hooks record counts at the same boundaries.

Self time is a span's duration minus the part covered by its children; the
self times of all spans under the job span plus the job span's own self time
add up to the job's traced wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- span stack (per thread) -------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: Span | None) -> None:
        """Start this thread's stack under *parent* (for worker threads)."""
        self._local.stack = [parent] if parent is not None else []

    def set_request(self, request: str | None) -> None:
        self._local.request = request

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                layer=layer,
                start=time.perf_counter(),
                parent=parent.id if parent is not None else None,
                request=getattr(self._local, "request", None),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack and stack[-1] is not None and stack[-1].id == span.parent:
            stack[-1].child_s += span.duration

    @contextmanager
    def paused(self):
        """Record no spans or counts on this thread inside the block (checks)."""
        previous = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = previous

    def current(self) -> Span | None:
        """The innermost open span of this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, on_exit=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *owner* is a class or module.  For a module-level function, every
        ``repro`` module that imported the same function object by name is
        patched too, so callers holding their own reference are traced.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "paused", False):
                return func(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_exit is not None:
                on_exit(tracer.counts, result, args, kwargs, span)
            return result

        replacement = classmethod(wrapper) if is_classmethod else wrapper
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is func
            ]
        for target in targets:
            self._patches.append((target, attr, raw if target is owner else func))
            setattr(target, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------

    def descendants(self, root: Span) -> list[Span]:
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: list[Span] = []
        todo = [root.id]
        while todo:
            for child in children.get(todo.pop(), ()):
                out.append(child)
                todo.append(child.id)
        return out

    def self_time(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def dump(self, path: str) -> None:
        """Write every span and count as JSON (one object)."""
        payload = {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "request": s.request,
                    "self_s": s.self_s,
                }
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def untraced(tracer: "Tracer | None"):
    """``tracer.paused()``, or nothing when the run is not traced."""
    return nullcontext() if tracer is None else tracer.paused()
