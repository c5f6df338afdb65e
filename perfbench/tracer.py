"""In-memory spans around calls into the program's public functions.

The tracer replaces a function in a module namespace with a wrapper that
records one span per call: name, start, end, parent span and item id. Spans
live in flat arrays while the benchmark runs and are written once at exit.
Nothing under src/ is touched; restore() puts every original function back.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

NO_PARENT = -1
SETUP_ITEM = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.counts: Counter[str] = Counter()
        self.item_id = SETUP_ITEM
        self.label: str | None = None  # the current item's witness, for per-witness counts
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Trace calls made through module.attr under the span name `name`.

        on_result(tracer, result) runs after each call, outside the span, to
        record counts taken from the returned value.
        """
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, on_result))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, on_result):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start_ns)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.item.append(self.item_id)
            self.end_ns.append(0)
            stack.append(idx)
            self.start_ns.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_ns[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is
        single-threaded. No traced function calls another of the same name,
        so busy time is the plain sum of durations.
        """
        n = len(self.start_ns)
        dur = [self.end_ns[i] - self.start_ns[i] for i in range(n)]
        children = [0] * n
        for i in range(n):
            if self.parent[i] != NO_PARENT:
                children[self.parent[i]] += dur[i]
        calls = [0] * len(self.names)
        busy = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            busy[nid] += dur[i]
            own[nid] += dur[i] - children[i]
        return {
            name: (calls[nid], busy[nid] / 1e9, own[nid] / 1e9)
            for nid, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        """One JSON array per span: [name, start_ns, end_ns, parent, item]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self.start_ns)):
                row = [
                    self.names[self.span_name[i]],
                    self.start_ns[i],
                    self.end_ns[i],
                    self.parent[i],
                    self.item[i],
                ]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
