"""In-memory spans recorded around the benchmark's calls into conevol.

A span is one call the benchmark makes into a module's public function,
named ``<module>.<function>``.  Spans nest through a stack, so the item
span that wraps a whole benchmark item is the parent of the calls it makes.
Nothing is written while the run is timed; :meth:`Tracer.write` dumps the
spans once the run is over.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterator


class Tracer:
    """Records spans as ``[name, start, end, parent index, item id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, item])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per span name: over all spans, and over spans inside items.

        A span's self time is its duration minus the durations of its
        children; children run one after another, so they never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        in_items: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child_time[index]
            total[name] += own
            if parent is not None and self.spans[parent][0] == "item":
                in_items[name] += own
        return dict(total), dict(in_items)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for :class:`Tracer` on untraced items; records nothing."""

    _null = nullcontext()

    def span(self, name: str, item: str | None = None) -> nullcontext:
        return self._null
