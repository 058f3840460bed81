"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent span index, item id).  Spans are
kept in flat arrays while the run lasts and written out once at the end, so
the cost inside the timed loop is two clock reads and a few appends per
call.  With tracing off, `call` is a plain function call.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.span_item = array("q")
        self._stack: list[int] = []
        self.item = -1
        self.item_mark = 0
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as span `name` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_clock())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = _clock()
            self._stack.pop()

    def begin_item(self, item: int) -> None:
        """Tag the spans that follow with `item`."""
        self.item = item
        self.item_mark = len(self.start)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    def mark(self) -> int:
        """Index of the next span; pass to `top_ns` to sum what follows."""
        return len(self.start)

    def top_ns(self, since: int) -> int:
        """Summed duration of the outermost spans recorded since `mark()`."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(since, len(self.start))
            if self.parent[i] < since
        )

    def item_ns(self, names) -> int:
        """Summed duration of the spans called one of `names` since the
        current item began."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(self.item_mark, len(self.start))
            if self.names[self.name[i]] in names
        )

    def summary(self, names) -> dict[str, float]:
        """<name>.calls, <name>.busy_s (self time: span minus child spans)
        and <name>.p50_us (median inclusive span) for every name given."""
        child_ns: dict[int, int] = defaultdict(int)
        durs: dict[str, list[int]] = defaultdict(list)
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            durs[self.names[self.name[i]]].append(d)
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += d
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            self_ns[self.names[self.name[i]]] += d - child_ns.get(i, 0)
        out = {}
        for name in names:
            d = durs.get(name, [])
            out[f"{name}.calls"] = float(len(d))
            out[f"{name}.busy_s"] = self_ns.get(name, 0) / 1e9
            out[f"{name}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write one JSON array per line, gzip-compressed: name, start_ns,
        end_ns, parent, item."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.span_item[i],
                        ],
                        separators=(",", ":"),
                    )
                    + "\n"
                )
