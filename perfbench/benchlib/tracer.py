"""Span recorder and wrapper installer for the traced benchmark run.

The program under test is measured from outside: :class:`Tracer`
replaces public functions and methods of each layer with thin wrappers
that record one span per call (name, start, end, parent span) and,
where a layer's work is a quantity rather than a call, add that quantity
to a named counter.  Nothing in ``src/`` changes.

Module-level functions are often imported by name (``from
repro.common.encoding import encode``); the installer therefore rebinds
*every* attribute of every loaded ``repro.*`` module that refers to the
original function object, and :meth:`Tracer.uninstall` puts each one
back.

Spans are kept in flat arrays in memory and dumped as JSONL when the run
ends.  A span's self time is its duration minus the part covered by its
child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

#: ``sys.modules`` prefix of the program under test.
PACKAGE = "repro"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``.  ``pre(counters, args)`` runs before each call and
    ``measure(counters, args, result)`` after it; both add what the call
    did to the recorder's named counters.  ``count_under`` makes a
    counting-only wrapper: no span, and ``counters[counter]`` counts the
    call only while the innermost open span belongs to that layer (cheap
    enough for the hottest comparisons).
    """

    layer: str
    module: str
    qualname: str
    counter: str | None = None
    measure: Callable | None = None
    pre: Callable | None = None
    count_under: str | None = None

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.qualname}"


class SpanRecorder:
    """Flat in-memory span storage plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        #: Open spans, innermost last; ``-1`` is the root sentinel.
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        """The integer id of span name ``name`` (allocated on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.span_name)

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span (tests and merged server spans)."""
        index = len(self.span_name)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return index

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """``{span name: (calls, total ns, self ns)}`` over finished spans."""
        per_id = self_times(
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        return {self.names[nid]: value for nid, value in per_id.items()}

    def children_of(self, parent: str) -> dict[str, int]:
        """How many spans of each name have a ``parent`` span as direct parent."""
        pid = self._name_ids.get(parent)
        counts: dict[int, int] = defaultdict(int)
        if pid is not None:
            names, parents = self.span_name, self.span_parent
            for i, p in enumerate(parents):
                if p >= 0 and names[p] == pid:
                    counts[names[i]] += 1
        return {self.names[nid]: n for nid, n in counts.items()}

    def dump_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip if ``.gz``)."""
        names = self.names
        if path.endswith(".gz"):
            out = gzip.open(path, "wt", compresslevel=1)
        else:
            out = open(path, "w")
        with out:
            for i in range(len(self.span_name)):
                out.write(
                    f'{{"id":{i},"name":"{names[self.span_name[i]]}",'
                    f'"start_ns":{self.span_start[i]},"end_ns":{self.span_end[i]},'
                    f'"parent":{self.span_parent[i]}}}\n'
                )


def self_times(
    names: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
) -> dict[int, tuple[int, int, int]]:
    """Per name id: ``(calls, total ns, self ns)``.

    Spans are given in start order (a parent precedes its children), as
    the recorder appends them.  Self time is a span's duration minus the
    summed durations of its direct children; children of one span never
    overlap because the program under test is single-threaded per
    process.  Unfinished spans (``end == 0``) are skipped and do not
    count against their parent.
    """
    covered = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0 and ends[i]:
            covered[parent] += ends[i] - starts[i]
    calls: dict[int, int] = defaultdict(int)
    total: dict[int, int] = defaultdict(int)
    own: dict[int, int] = defaultdict(int)
    for i, nid in enumerate(names):
        if not ends[i]:
            continue
        duration = ends[i] - starts[i]
        calls[nid] += 1
        total[nid] += duration
        own[nid] += duration - covered[i]
    return {nid: (calls[nid], total[nid], own[nid]) for nid in calls}


def _program_modules() -> list:
    """Every loaded module of the program under test."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(target: Target):
    """``(owner, attribute name, original object)`` for ``target``."""
    module = sys.modules.get(target.module)
    if module is None:
        __import__(target.module)
        module = sys.modules[target.module]
    if "." in target.qualname:
        class_name, attr = target.qualname.split(".", 1)
        owner = getattr(module, class_name)
        if attr not in owner.__dict__:
            raise AttributeError(f"{target.qualname} is not defined on {class_name}")
        return owner, attr, owner.__dict__[attr]
    return module, target.qualname, getattr(module, target.qualname)


def _span_wrapper(recorder: SpanRecorder, fn, target: Target):
    nid = recorder.name_id(target.span_name)
    names = recorder.span_name
    parents = recorder.span_parent
    starts = recorder.span_start
    ends = recorder.span_end
    stack = recorder.stack
    counters = recorder.counters
    measure = target.measure
    pre = target.pre
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if pre is not None:
            pre(counters, args)
        index = len(names)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0)
        stack.append(index)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()
        if measure is not None:
            measure(counters, args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _count_wrapper(recorder: SpanRecorder, fn, target: Target, layer_ids: set[int]):
    names = recorder.span_name
    stack = recorder.stack
    counters = recorder.counters
    counter = target.counter

    def wrapper(*args, **kwargs):
        top = stack[-1]
        if top >= 0 and names[top] in layer_ids:
            counters[counter] += 1
        return fn(*args, **kwargs)

    return functools.update_wrapper(wrapper, fn)


def _tally_wrapper(recorder: SpanRecorder, fn, target: Target):
    """No span: only the target's counters (the untraced byte counters)."""
    counters = recorder.counters
    measure = target.measure
    pre = target.pre

    def wrapper(*args, **kwargs):
        if pre is not None:
            pre(counters, args)
        result = fn(*args, **kwargs)
        if measure is not None:
            measure(counters, args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


class Tracer:
    """Installs wrappers for a list of :class:`Target` and removes them.

    ``spans=False`` installs tally-only wrappers (counters, no spans) —
    what the untraced run uses for the few quantities it must count.
    """

    def __init__(
        self,
        targets: Iterable[Target],
        recorder: SpanRecorder | None = None,
        spans: bool = True,
    ) -> None:
        self.targets = list(targets)
        self.recorder = recorder or SpanRecorder()
        self.spans = spans
        #: ``(owner, attribute, original)`` in installation order.
        self._saved: list[tuple[object, str, object]] = []
        #: Module-function wrappers: ``id(wrapper) -> (wrapper, original)``.
        self._wrappers: dict[int, tuple[object, object]] = {}

    def install(self) -> "Tracer":
        """Wrap every target; rebinds by-name imports across ``repro.*``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        recorder = self.recorder
        layer_names: dict[str, set[int]] = defaultdict(set)
        span_targets = [t for t in self.targets if t.count_under is None]
        count_targets = [t for t in self.targets if t.count_under is not None]
        try:
            for target in span_targets:
                owner, attr, original = _resolve(target)
                if self.spans:
                    wrapper = _span_wrapper(recorder, original, target)
                    layer_names[target.layer].add(recorder.name_id(target.span_name))
                elif target.pre is not None or target.measure is not None:
                    wrapper = _tally_wrapper(recorder, original, target)
                else:
                    continue
                self._rebind(owner, attr, original, wrapper)
            if self.spans:
                for target in count_targets:
                    owner, attr, original = _resolve(target)
                    wrapper = _count_wrapper(
                        recorder, original, target, layer_names[target.count_under]
                    )
                    self._rebind(owner, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # A module-level function: every repro module that imported it by
        # name holds its own reference to the same object.
        self._wrappers[id(wrapper)] = (wrapper, original)
        for module in _program_modules():
            if module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original object, last change first.

        A module first imported while the tracer was installed bound the
        wrapper by name; those references are put back too.
        """
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._wrappers:
            for module in _program_modules():
                for key, value in list(vars(module).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, key, entry[1])
            self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
