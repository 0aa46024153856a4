"""Span tracing from outside the program.

The benchmark never edits the program. For a traced run it replaces public
functions with timing wrappers at every module attribute where a caller
looks them up (a function imported by name into another module is patched
there too; a method is patched on its class), records one span per call and
puts every original back afterwards.

A span is ``[name id, start ns, end ns, parent index]``. Spans live in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and properly
nested, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (the trace roots)."""
        record = self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._end(record)

    def _begin(self, nid: int) -> list[int]:
        record = [nid, 0, 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _end(self, record: list[int]) -> None:
        record[2] = time.perf_counter_ns()
        self._open.pop()

    def timed(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            record = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


class Patcher:
    """Replaces attributes and remembers how to put each one back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def resolve(target: str):
    """'pkg.module.func' or 'pkg.module.Class.method' -> (owner, attr, value).

    Returns None when the module, class or attribute does not exist, so a
    refactored program still runs with fewer spans.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        value = vars(owner).get(parts[-1], _MISSING)
        return None if value is _MISSING else (owner, parts[-1], value)
    return None


def lookup_sites(value: object, package: str) -> list[tuple[object, str]]:
    """Every module attribute of ``package`` bound to ``value``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, bound in list(vars(module).items()):
            if bound is value:
                sites.append((module, attr))
    return sites


def install(tracer: Tracer, patcher: Patcher, span_targets: Iterable[str],
            count_targets: dict[str, str], package: str) -> list[str]:
    """Wrap every target; return the targets this program does not have.

    A module-level function is wrapped at all of its lookup sites; a method
    only on its class, where instance lookups find it. Span names drop the
    package prefix, so the first component names the layer (module).
    """
    missing = []
    wrap_jobs = [(t, tracer.timed, t.removeprefix(package + ".")) for t in span_targets]
    wrap_jobs += [(t, tracer.counted, key) for t, key in count_targets.items()]
    for target, make, label in wrap_jobs:
        found = resolve(target)
        if found is None:
            missing.append(target)
            continue
        owner, attr, value = found
        wrapped = make(value, label)
        if isinstance(owner, type):
            patcher.set(owner, attr, wrapped)
        else:
            for module, site in lookup_sites(value, package):
                patcher.set(module, site, wrapped)
    return missing


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence[int]]) -> list[int]:
    """Per span: duration minus the durations of its direct children (ns)."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans: Sequence[Sequence[int]]) -> int:
    """Spans that end before they start or stick out of their parent."""
    bad = 0
    for _, start, end, parent in spans:
        if end < start:
            bad += 1
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad += 1
    return bad


def covered_time(spans: Sequence[Sequence[int]], names: Sequence[str],
                 wanted: set[str], under: set[str] | None = None) -> int:
    """Time (ns) inside spans named in ``wanted``, nested ones counted once.

    With ``under`` given, only spans whose direct parent is named in it count.
    """
    total = 0
    nested = [False] * len(spans)        # has an ancestor named in ``wanted``
    for i, (nid, start, end, parent) in enumerate(spans):
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        nested[i] = parent >= 0 and (nested[parent] or parent_name in wanted)
        if names[nid] in wanted and not nested[i] and (under is None or parent_name in under):
            total += end - start
    return total


def count_spans(spans, names, name: str, under: str | None = None) -> int:
    return sum(1 for nid, _, _, parent in spans
               if names[nid] == name
               and (under is None or (parent >= 0 and names[spans[parent][0]] == under)))


def layer_self_times(spans, names, roots: set[str]) -> tuple[dict[str, int], int]:
    """(self ns per layer, self ns of root spans = the benchmark's glue).

    The layer of a span is the first dot-separated part of its name.
    """
    own = self_times(spans)
    layers: dict[str, int] = defaultdict(int)
    glue = 0
    for (nid, *_), ns in zip(spans, own):
        name = names[nid]
        if name in roots:
            glue += ns
        else:
            layers[name.split(".", 1)[0]] += ns
    return dict(layers), glue
