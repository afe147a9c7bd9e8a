"""In-memory span recorder that times fqcc's layers from outside the program.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans are recorded by wrapping public
functions where their callers look them up: a module attribute such as
``fqcc.trotter.peephole_cancel`` (the name ``synthesize_ansatz`` resolves),
or a method on its class such as ``CompiledSum.apply``.  Nothing is wrapped
until ``Recorder.wrap`` is called, so untraced runs pay nothing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    """Spans and counters of one traced job; ``restore`` removes every wrapper."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, attr, name, *, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span called ``name``.

        ``before(*args, **kwargs)`` runs first and its value is handed to
        ``after(token, result, counters)``, which runs when the call returns.
        """
        original = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent]
            if after:
                after(token, result, counters)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write one JSON span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Summary:
    """Totals per span name: call count, inclusive time, self time, durations."""

    def __init__(self, spans):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_total: Counter = Counter()
        self.durations = defaultdict(list)
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_total[name] += own
            self.durations[name].append(end - start)
