"""In-memory span recorder for the traced run.

A span is (id, parent, op, name, start, end), recorded around one public call
into the package from the benchmark's own code; spans of one operation share
the op id.  Spans stay in memory and are written out once, at the end.

Replayed constituent calls (see ``workloads``) are children of the composite
operation's span without lying inside its interval, so a span's self time is
taken as its duration minus its children's durations, floored at zero.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

ID, PARENT, OP, NAME, START, END = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []

    def begin(self, name: str, op: int, parent: int | None = None) -> int:
        sid = len(self.spans)
        self.spans.append([sid, parent, op, name, time.perf_counter(), None])
        return sid

    def end(self, sid: int) -> float:
        """Close span ``sid`` and return its duration in seconds."""
        span = self.spans[sid]
        span[END] = time.perf_counter()
        return span[END] - span[START]

    def call(self, name: str, op: int, parent: int | None, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; exceptions propagate."""
        sid = self.begin(name, op, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return [max(t, 0.0) for t in own]

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per module (the part of a span name before the dot)."""
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            totals[s[NAME].split(".", 1)[0]] += t
        return dict(totals)

    def dump(self, path: Path) -> None:
        rows = [
            {"id": s[ID], "parent": s[PARENT], "op": s[OP], "name": s[NAME],
             "start_s": s[START], "end_s": s[END], "self_s": t}
            for s, t in zip(self.spans, self.self_times())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
