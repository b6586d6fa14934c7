"""Span tracer that instruments a package from outside it.

Wrappers are installed by rebinding a name on its owner (a module or a
class) and :meth:`Tracer.restore` puts every original back.  Each wrapped
call appends one span -- name, start, end and parent -- to flat arrays, so
a traced pass of a few hundred thousand calls stays a few megabytes.
:meth:`Tracer.summary` folds the spans into calls, total time and self time
per name, where self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` may be a function of the call's positional arguments, which
        splits one function's spans by the kind of work a call does.
        ``observe(args, result)`` runs after the span closes, to add counts.
        """
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        ids, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, span_id, clock = self._stack, self._id, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(span_id(name(args)) if fixed is None else fixed)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner: Any, attr: str, key: str) -> None:
        """Count the calls of ``owner.attr`` under ``key`` without a span."""
        fn, counts = getattr(owner, attr), self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self._names}
        for i in range(n):
            dur = self._end[i] - self._start[i]
            row = out[self._names[self._name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {name: (c, total, own) for name, (c, total, own) in out.items()}
