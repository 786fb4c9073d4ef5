"""Span tracing from outside the program: wrappers installed on the names
the pipeline calls through, kept in memory, and self-time arithmetic.

A span is (name, start, end, parent, recording id). Nested calls record the
enclosing span as parent, so a layer's self time is its duration minus the
durations of its direct children; for every root span the self times of
its subtree sum to the root's duration.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rec: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def root_of(spans: list[Span]) -> list[int]:
    """Index of each span's root span (parents always precede children)."""
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent is None else roots[s.parent])
    return roots


def subtrees(spans: list[Span]) -> list[list[Span]]:
    """The spans under each root, root first, with parents re-indexed
    within the subtree."""
    members: dict[int, list[int]] = defaultdict(list)
    for i, root in enumerate(root_of(spans)):
        members[root].append(i)
    out = []
    for idx in members.values():
        local = {g: n for n, g in enumerate(idx)}
        out.append([
            dataclasses.replace(spans[g], parent=None if n == 0 else local[spans[g].parent])
            for n, g in enumerate(idx)
        ])
    return out


class Tracer:
    """Collects spans and per-recording counters while wrappers are installed.

    `wrap` replaces an attribute of a module, class or instance with a timing
    wrapper; `restore` puts every original back. Wrapping the same function
    under two names (say, `diarkit.audio.stft_magnitude` and the copy the
    pipeline imported) records the same span name for both.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.rec = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def span_wrapper(self, fn, name, counters=None, alloc=False):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.rec)
            self.spans.append(span)
            self._stack.append(idx)
            if alloc:
                tracemalloc.start()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                if alloc:
                    span.counts["alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if counters:
                span.counts.update(counters(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[(self.rec, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def wrap(self, owner, attr, name, counters=None, alloc=False, count_only=False):
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        if count_only:
            wrapper = self.count_wrapper(original, name)
        else:
            wrapper = self.span_wrapper(original, name, counters, alloc)
        setattr(owner, attr, wrapper)

    def install(self, layers) -> None:
        for target, attr, name, opts in layers:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, **opts)

    def restore(self) -> None:
        """Undo every `wrap`, newest first, so stacked wrappers unwind."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def take(self) -> tuple[list[Span], dict]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def layer_totals(spans: list[Span]) -> tuple[dict, dict]:
    """Self seconds, and call counts plus summed span counters, per span name."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        seconds[s.name] += self_s
        counts[s.name + ".calls"] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
    return seconds, counts


def nesting_problems(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Spans that stick out of their parent or overlap a sibling (negative
    self time)."""
    own = self_times(spans)
    problems = [
        f"{s.rec}:{s.name} outside its parent"
        for s in spans
        if s.parent is not None
        and (s.start < spans[s.parent].start or s.end > spans[s.parent].end)
    ]
    problems += [f"{s.rec}:{s.name} has negative self time" for s, t in zip(spans, own) if t < -tol]
    return problems


def span_records(spans: list[Span], pass_no):
    """JSON-ready span dicts; parent is an index into the same pass, which is
    a traced pass's number, "setup" or "alloc"."""
    for i, s in enumerate(spans):
        rec = {"pass": pass_no, "i": i, "name": s.name, "start": s.start, "end": s.end,
               "parent": s.parent, "rec": s.rec}
        if s.counts:
            rec["counts"] = s.counts
        yield rec
