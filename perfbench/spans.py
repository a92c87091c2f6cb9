"""In-memory span tracing of plotquest layers, wired from outside the package.

A ``Tracer`` replaces module-level names (and class attributes) that one
layer calls another through with wrappers that record a span per call:
name, start, end, parent span and a group id shared by the spans of one
plot or one question. Nothing under ``src/`` is edited; ``Tracer.close``
puts every original back.

A name that no longer exists (say, after a refactor renamed it) is recorded
in ``Tracer.missing`` and skipped, so the run goes on and reports it.
"""

from __future__ import annotations

import functools
import os
import time

# Group roles. OPEN starts a new plot/question group, JOIN stays in the
# group opened last, PASS belongs to the whole pass (no group) and INHERIT
# takes the group of the enclosing span.
OPEN_PLOT, OPEN_QUESTION, JOIN, PASS, INHERIT = "plot", "question", "join", "pass", "inherit"

# One span: (name, start_s, end_s, parent_index, group, ok). parent_index
# is -1 for a root span; ok is False when the call raised.
NAME, START, END, PARENT, GROUP, OK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self.results: dict[str, list] = {}
        self.opened: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._groups: list = []  # group of each open span, parallel to _stack
        self._current = None
        self._next_group = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wiring -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, role: str = INHERIT, keep=None) -> None:
        """Record a span ``name`` around every call made through ``owner.attr``.

        ``owner`` is a module or a class; static methods stay static.
        ``keep(args, kwargs, result)``, when given, stores a small summary of
        each successful call's result in ``self.results[name]``.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        if not callable(func):
            if label not in self.missing:
                self.missing.append(label)
            return
        wrapped = self._recording(func, name, role, keep)
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self._undo.append((owner, attr, raw))

    def count_opens(self, module) -> None:
        """Record the path and mode of every ``open`` made by code in ``module``."""
        opened = self.opened

        def counting_open(file, mode="r", *args, **kwargs):
            opened.append((os.fspath(file), mode))
            return open(file, mode, *args, **kwargs)

        self._undo.append((module, "open", vars(module).get("open")))
        module.open = counting_open

    def close(self) -> None:
        """Put back every wrapped name; a name that was absent is removed."""
        for owner, attr, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans, results and opens; keep the wiring."""
        self.spans = []
        self.results = {}
        self.opened.clear()
        self._stack.clear()
        self._groups.clear()
        self._current = None

    def _recording(self, func, name: str, role: str, keep):
        clock = time.perf_counter
        stack, groups = self._stack, self._groups

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if role in (OPEN_PLOT, OPEN_QUESTION):
                self._next_group += 1
                self._current = group = f"{role}-{self._next_group}"
            elif role == JOIN:
                group = self._current
            elif role == PASS:
                group = None
            else:
                group = groups[-1] if groups else self._current
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            groups.append(group)
            ok = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                groups.pop()
                spans[index] = (name, start, end, parent, group, ok)
                if ok and keep is not None:
                    self.results.setdefault(name, []).append(keep(args, kwargs, result))

        return traced

    def root(self, name: str, func, *args):
        """Call ``func(*args)`` inside a root span ``name``; return its result."""
        return self._recording(func, name, PASS, None)(*args)


def self_times(spans: list) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds], where self time is the span's
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s[NAME], [0, 0.0])
        agg[0] += 1
        agg[1] += (s[END] - s[START]) - child[i]
    return out
