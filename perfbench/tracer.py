"""Spans around the benchmark's calls into the package.

A span records a name (``<module>.<function>`` for a package call, or a
phase: ``setup``, ``signal``, ``cold``), its start and end on the
``perf_counter`` clock, its parent span and a group id shared by every span
of one set-up or one signal. Spans stay in memory until the run writes them.
The untraced run uses ``Untraced``, whose calls add one Python call each.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Untraced:
    group = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.group: str | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "group": self.group,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each span with this name, less the time its children cover."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - children.get(s["id"], 0.0)
                for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.write_text("\n".join(json.dumps(s) for s in self.spans) + "\n", encoding="utf-8")
