"""In-memory span tracer that times calls into the library from outside it.

The benchmark never edits ``src/``: :func:`instrument` rebinds a list of
public entry points (methods on classes, and module functions under every
name a ``repro`` module imported them as) to thin wrappers that open a span
around the original call, and restores them on exit.  Spans are kept in a
list and written out once the run ends, as plain JSON and as Chrome
trace-event JSON (``chrome://tracing`` or https://ui.perfetto.dev opens it
with nothing to install).

Accounting follows one identity per span: ``total = self + sum(children)``.
A name's inclusive total counts only its outermost occurrence, so a traced
function that re-enters itself is not counted twice.  Whatever wall time no
top-level span covers is reported as the unattributed residual, so a
missing instrument shows up as a number instead of a gap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Nested spans and counters for one workload run.

    Every span records its name, start and end (``perf_counter`` seconds),
    the index of its parent span, the workload and an operation id.  A
    top-level span starts a new operation; nested spans inherit its id, so
    all the work one fit or one served request caused shares an id.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_op += 1
            op = self._next_op
        else:
            op = self.spans[parent]["op"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "workload": self.workload,
            "op": op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- accounting ---------------------------------------------------- #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name inclusive seconds, self seconds and call count."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, record in enumerate(self.spans):
            duration = record["end"] - record["start"]
            entry = out[record["name"]]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not self._has_ancestor_named(i, record["name"]):
                entry["s"] += duration
        return dict(out)

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index]["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def top_level_seconds(self, since: float) -> float:
        """Seconds covered by top-level spans that started at or after ``since``."""
        return sum(
            r["end"] - r["start"]
            for r in self.spans
            if r["parent"] is None and r["start"] >= since
        )

    # -- export -------------------------------------------------------- #
    def write(self, directory: Path, stem: str) -> tuple[Path, Path]:
        """Write ``<stem>.spans.json`` and ``<stem>.trace.json`` (Chrome)."""
        directory.mkdir(parents=True, exist_ok=True)
        origin = min((r["start"] for r in self.spans), default=0.0)
        spans_path = directory / f"{stem}.spans.json"
        spans_path.write_text(
            json.dumps(
                {
                    "workload": self.workload,
                    "spans": [
                        dict(r, id=i, start=r["start"] - origin, end=r["end"] - origin)
                        for i, r in enumerate(self.spans)
                    ],
                    "counters": dict(self.counters),
                }
            )
        )
        events = [
            {
                "name": r["name"],
                "cat": r["name"].split(".")[0],
                "ph": "X",
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": r["op"], "parent": r["parent"], "id": i},
            }
            for i, r in enumerate(self.spans)
        ]
        trace_path = directory / f"{stem}.trace.json"
        trace_path.write_text(
            json.dumps(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"workload": self.workload},
                }
            )
        )
        return spans_path, trace_path


class NullTracer:
    """Tracing off: a span costs one call and records nothing."""

    def span(self, name: str):  # noqa: ARG002
        return contextlib.nullcontext()


def _resolve(dotted: str):
    """``"pkg.mod:Class.attr"`` → (owner object, attribute name)."""
    module_name, _, qualname = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, entry_points):
    """Rebind ``entry_points`` to traced wrappers for the ``with`` body.

    ``entry_points`` holds ``(target, span_name, after)`` triples, where
    ``target`` is ``"module:Class.method"`` or ``"module:function"`` and
    ``after(tracer, args, kwargs, result)`` (or None) records counts taken
    from the call.  A module function is rebound under every name any
    loaded ``repro`` module holds it as, because ``from x import f``
    copies the reference.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target, name, after in entry_points:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = _wrap(tracer, name, original, after)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
