"""In-memory spans recorded around calls into the program.

A span is (name, start, end, parent, run id). Spans stay in memory and are
written once, when the benchmark ends. A span's self time is its duration
minus the time its children cover; children are recorded on the thread that
opened the parent, so they never overlap each other.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        index = len(self.spans)
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, module, names: dict[str, str]):
        """Replace `module.<attr>` with a traced wrapper for the duration.

        `names` maps attribute names to span names. The program's files are
        untouched; only this process's module attributes are swapped.
        """
        originals = {attr: getattr(module, attr) for attr in names}
        try:
            for attr, span_name in names.items():
                setattr(module, attr, self.wrap(originals[attr], span_name))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            count, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (count + 1, total + end - start, own + end - start - child_time[i])
        return out

    def write(self, path: str) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]
        summary = {
            name: {"count": count, "total_s": total, "self_s": own}
            for name, (count, total, own) in self.totals().items()
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "summary": summary, "spans": spans}, fh)
            fh.write("\n")
