"""Outside-in span tracing for the benchmark's traced run.

The program under test carries no spans of its own, so the benchmark
wraps each layer's public entry points from here for the duration of
one traced pass and restores the originals afterwards:

* methods are patched on their class (every instance, including the
  ones ``make_session`` creates before the benchmark sees them);
* functions are patched in *every* ``repro`` module that holds the same
  object, because most importers bind them by name (``from
  repro.core.nd_edge import build_edge_inputs``).  ``repro.core``
  re-exports the function ``nd_edge`` under the name of its module, so
  modules are always reached through :data:`sys.modules`;
* diagnoser instances get an instance attribute shadowing ``diagnose``.

A span records a name, start, end, parent and the op it belongs to.
Spans stay in memory and are written out as JSON lines when the run
ends.  A span's *self* time is its duration minus the time its direct
children cover; the children of one span never overlap because the
benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """An in-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.rows[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if op is not None:
            self.op = op
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, row in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "op": row[OP],
                            "name": row[NAME],
                            "start": row[START],
                            "end": row[END],
                            "parent": row[PARENT],
                        }
                    )
                    + "\n"
                )


def _count_greedy(tracer: Tracer, outcome, args, kwargs) -> None:
    failure_sets = args[0] if args else kwargs.get("failure_sets", ())
    reroute_sets = args[1] if len(args) > 1 else kwargs.get("reroute_sets", ())
    tracer.counts["core.greedy_iterations"] += outcome.iterations
    tracer.counts["core.failure_sets"] += len(failure_sets)
    tracer.counts["core.reroute_sets"] += len(reroute_sets)


#: (module, attribute, span name, counting hook): module-level functions,
#: patched wherever a ``repro`` module holds them.  ``optional`` entries
#: are private helpers that may disappear; they are skipped when absent.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("repro.experiments.runner", "run_scenario", "experiments.score", None, False),
    ("repro.experiments.runner", "covered_ases", "experiments.covered_ases", None, False),
    ("repro.experiments.runner", "_score", "experiments.scoring", None, True),
    ("repro.core.diagnosability", "diagnosability", "core.diagnosability", None, False),
    ("repro.core.nd_edge", "build_edge_inputs", "core.edge_inputs", None, False),
    ("repro.core.hitting_set", "greedy_hitting_set", "core.greedy", _count_greedy, False),
    ("repro.measurement.collector", "take_snapshot", "measurement.snapshot", None, False),
    ("repro.measurement.collector", "collect_control_plane", "measurement.control", None, False),
    ("repro.stream.replay", "build_event_log", "measurement.log_build", None, False),
)

#: (module, class, method, span name): methods patched on their class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.netsim.simulator", "Simulator", "routing", "netsim.converge"),
    ("repro.netsim.simulator", "Simulator", "trace", "netsim.trace"),
    ("repro.experiments.scenarios", "ScenarioSampler", "sample", "experiments.sample"),
    ("repro.core.graph", "InferredGraph", "from_paths", "core.graph"),
)


class Instrumentation:
    """Patch every entry point into ``tracer`` spans; :meth:`restore` undoes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Instrumentation":
        for module_name, attr, name, after, optional in FUNCTIONS:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None and optional:
                continue
            traced = self.tracer.wrap(original, name, after)
            for holder in list(sys.modules.values()):
                if (
                    getattr(holder, "__name__", "").startswith("repro")
                    and holder.__dict__.get(attr) is original
                ):
                    self._patch(holder, attr, traced)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                traced = classmethod(self.tracer.wrap(original.__func__, name))
            else:
                traced = self.tracer.wrap(original, name)
            self._patch(cls, attr, traced)
        return self

    def diagnoser(self, diagnoser, name: str) -> None:
        """Shadow one instance's ``diagnose`` with a traced copy."""
        self._undo.append((diagnoser, "diagnose", None, False))
        diagnoser.diagnose = self.tracer.wrap(diagnoser.diagnose, name)

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr], True))
        setattr(holder, attr, value)

    def restore(self) -> None:
        for holder, attr, original, had in reversed(self._undo):
            if had:
                setattr(holder, attr, original)
            else:
                delattr(holder, attr)
        self._undo.clear()

    def __exit__(self, *exc) -> None:
        self.restore()


class SpanTable:
    """Inclusive and self time per span name, split by root span."""

    def __init__(self, rows: List[list]) -> None:
        n = len(rows)
        child_time = [0.0] * n
        root = list(range(n))
        for index, row in enumerate(rows):
            parent = row[PARENT]
            if parent >= 0:
                child_time[parent] += row[END] - row[START]
                root[index] = root[parent]
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Inclusive duration of each root span, by root name, in order.
        self.roots: Dict[str, List[float]] = defaultdict(list)
        #: Durations of the first span of each name under each root.
        self.first: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        seen = set()
        for index, row in enumerate(rows):
            duration = row[END] - row[START]
            root_name = rows[root[index]][NAME]
            key = (root_name, row[NAME])
            self.total[key] += duration
            self.self_time[key] += duration - child_time[index]
            self.calls[key] += 1
            if row[PARENT] < 0:
                self.roots[row[NAME]].append(duration)
            elif (root[index], row[NAME]) not in seen:
                seen.add((root[index], row[NAME]))
                self.first[key].append(duration)

    def wall(self, root: str) -> float:
        return sum(self.roots.get(root, ()))

    def shares(self, root: str) -> Dict[str, float]:
        """Self-time share of each span name under ``root`` spans.

        The root's own self time is reported as ``unattributed``: time in
        the op that no layer span covers.
        """
        wall = self.wall(root)
        out: Dict[str, float] = {}
        for (root_name, name), value in self.self_time.items():
            if root_name == root and wall > 0:
                out["unattributed" if name == root else name] = value / wall
        return out
