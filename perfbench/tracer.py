"""In-memory span tracer that wraps functions at the attribute their caller looks up.

A module that does ``from .planner import solve`` holds its own reference,
so wrapping ``fistrans.planner.solve`` would miss its calls. The tracer is
therefore given every lookup site of a layer, e.g. ``fistrans:solve`` (the
benchmark's own call) and ``fistrans.scenario_io:solve`` (``build_report``'s
call), and records them under one span name.

Spans are recorded only while a root span is open, so calls made by the
benchmark's own correctness checks are never counted. Times are integer
nanoseconds, which makes the self-time arithmetic exact: over every op, the
self times of its spans add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Called after a recorded call returns, as hook(counters, args, result), to
# add counts taken from the public return value.
Hook = Callable[[Dict[str, float], tuple, object], None]


def _resolve(target: str) -> Optional[Tuple[object, str]]:
    """Owner object and attribute name of ``module:attr.path``, or None if missing."""
    module_name, _, attr_path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records nested spans, with parent links, around wrapped functions.

    Span ``i`` is ``names[name[i]]``, with ``parent[i]`` (``-1`` for the root
    span of an op), ``start[i]`` and ``end[i]`` in nanoseconds and
    ``raised[i]``. The columns are flat arrays, so a run's hundreds of
    thousands of spans add no objects for the garbage collector to scan.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.counters: Dict[str, float] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, targets: Tuple[str, ...], hook: Optional[Hook] = None) -> int:
        """Wrap each target under span ``name``; returns how many were found.

        A missing target is skipped, so a layer the program no longer has
        reports zero calls instead of breaking the benchmark.
        """
        index = self._name_index(name)
        found = 0
        for target in targets:
            site = _resolve(target)
            if site is None:
                continue
            owner, attr = site
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(index, original, hook))
            self._patches.append((owner, attr, original))
            found += 1
        return found

    def _wrapper(self, name_index: int, original: Callable, hook: Optional[Hook]) -> Callable:
        names, parents, starts, ends, raised = self.name, self.parent, self.start, self.end, self.raised
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            index = len(starts)
            names.append(name_index)
            parents.append(stack[-1])
            ends.append(0)
            raised.append(0)
            stack.append(index)
            starts.append(time.perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and zero the counters; the wrappers stay in place."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        for column in (self.name, self.parent, self.start, self.end, self.raised):
            del column[:]
        for name in self.counters:
            self.counters[name] = 0

    def add_span(self, name: str, parent: int, start: int, end: int = 0, raised: bool = False) -> int:
        """Append one span and return its index."""
        self.name.append(self._name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.raised.append(int(raised))
        return len(self.start) - 1

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open the root span of one op; wrapped calls inside it are recorded."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        index = self.add_span(name, -1, time.perf_counter_ns())
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.raised[index] = 1
            raise
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> List[int]:
        """Per-span self time: duration minus the time its direct children cover."""
        child_ns = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child_ns[i] for i in range(len(self.start))]

    def check_nesting(self) -> List[str]:
        """Violations of the span tree: children outside their parent, or
        self times of an op that do not add up to its root's duration."""
        problems = []
        selfs = self.self_times()
        root_of = [0] * len(self.start)
        sums: Dict[int, int] = {}
        for i, parent in enumerate(self.parent):
            if parent < 0:
                root_of[i] = i
            else:
                root_of[i] = root_of[parent]
                if self.start[i] < self.start[parent] or self.end[i] > self.end[parent]:
                    problems.append(f"span {i} ({self.names[self.name[i]]}) lies outside its parent {parent}")
            sums[root_of[i]] = sums.get(root_of[i], 0) + selfs[i]
        for root, total in sums.items():
            duration = self.end[root] - self.start[root]
            if total != duration:
                problems.append(f"op at span {root}: self times sum to {total} ns, root lasted {duration} ns")
        return problems

    def summary(self) -> Dict[str, float]:
        """``S.calls``, ``S.self_ms`` and ``S.raised`` for every wrapped name, plus counters."""
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.raised"] = 0
        for i, self_ns in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += self_ns / 1e6
            out[f"{name}.raised"] += self.raised[i]
        out.update(self.counters)
        return out

    def dump_spans(self) -> dict:
        """Spans as JSON-ready columns."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "raised": self.raised.tolist(),
        }
