"""In-memory span tracer that wraps a program's functions from outside.

`Tracer.wrap` replaces a module function, a method or a classmethod with
a wrapper that records one span per call: [name, start_ns, end_ns,
parent, arm].  `parent` is the index of the enclosing span (-1 at the
top) and `arm` is a label inherited from the nearest ancestor that set
one.  Spans stay in a list until the caller writes them out; `restore`
puts every wrapped attribute back exactly as it was.

Hooks attached to a wrapper turn call arguments and results into work
counts (sites, flips, events, ...), kept per name and per leg (the
top-level span) and per arm, so a time can be divided by the work done
at the same boundary.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ARM = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # recording

    def _open(self, name: str, arm) -> int:
        parent = self._stack[-1] if self._stack else -1
        if arm is None and parent >= 0:
            arm = self.spans[parent][ARM]
        index = len(self.spans)
        self.spans.append([name, 0, 0, parent, arm])
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str, arm=None):
        index = self._open(name, arm)
        record = self.spans[index]
        record[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def leg(self) -> str | None:
        return self.spans[self._stack[0]][NAME] if self._stack else None

    def arm(self):
        return self.spans[self._stack[-1]][ARM] if self._stack else None

    def add(self, key: str, value=1) -> None:
        """Count work at the current boundary, in total, per leg and per arm."""
        self.counts[key] += value
        leg = self.leg()
        if leg is not None:
            self.counts[f"{leg}:{key}"] += value
        arm = self.arm()
        if arm is not None:
            self.counts[f"{arm}:{key}"] += value

    # wrapping

    def wrap(self, owner, attr: str, name: str, pre=None, post=None, arm_of=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        post(tracer, args, result, pre(args)) runs after the span has
        closed but while it is still the current one, so counts it adds
        are filed under the span's leg and arm; arm_of(args) labels the
        span's arm.
        """
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            index = tracer._open(name, arm_of(args) if arm_of else None)
            record = tracer.spans[index]
            record[START] = clock()
            try:
                try:
                    result = func(*args, **kwargs)
                finally:
                    record[END] = clock()
                if post:
                    post(tracer, args, result, before)
            finally:
                tracer._stack.pop()
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part its child spans cover (ns).

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of each span's top-level ancestor (parents precede children)."""
    out: list[int] = []
    for index, record in enumerate(spans):
        parent = record[PARENT]
        out.append(index if parent < 0 else out[parent])
    return out


def totals(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, under the keys used by Tracer.add.

    "<name>.self_s" and "<name>.total_s" sum self time and duration over
    all spans of that name; the same keys prefixed "<leg>:" and "<arm>:"
    restrict the sum to one leg or one arm.  "<name>.calls" counts spans.
    """
    own = self_times(spans)
    top = roots(spans)
    out: dict[str, float] = defaultdict(float)
    for index, record in enumerate(spans):
        name = record[NAME]
        prefixes = ["", f"{spans[top[index]][NAME]}:"]
        if record[ARM] is not None:
            prefixes.append(f"{record[ARM]}:")
        for prefix in prefixes:
            out[f"{prefix}{name}.self_s"] += own[index] / 1e9
            out[f"{prefix}{name}.total_s"] += (record[END] - record[START]) / 1e9
            out[f"{prefix}{name}.calls"] += 1
    return dict(out)
