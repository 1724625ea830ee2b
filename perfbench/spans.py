"""In-memory spans around calls into lorenzlab, written out at the end.

A span records its name, its parent, start and end (perf_counter), how
many program calls it covers and whether it failed.  A span around a loop
of n cheap calls is one span with ``calls=n``, so the tracer's own cost
stays out of per-call figures.  Self time is a span's duration minus the
durations of its direct children (spans here never overlap siblings).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "calls": calls,
            "failed": False,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def stats(self) -> dict[str, dict]:
        """Per span name: spans, calls, busy and self seconds, failures."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict] = {}
        for rec in self.spans:
            busy = rec["end"] - rec["start"]
            st = out.setdefault(
                rec["name"],
                {"spans": 0, "calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0},
            )
            st["spans"] += 1
            st["calls"] += rec["calls"]
            st["busy_s"] += busy
            st["self_s"] += busy - child_time[rec["id"]]
            st["failures"] += rec["failed"]
        return out

    def per_call(self, name: str) -> float:
        """Busy seconds per program call in the closed spans ``name``."""
        done = [r for r in self.spans if r["name"] == name and r["end"] is not None]
        return sum(r["end"] - r["start"] for r in done) / sum(r["calls"] for r in done)



def write(path: Path, provenance: dict, tracers: dict[str, Tracer]) -> None:
    """Write each tracer's per-name stats and raw spans as one JSON file."""
    body = {"provenance": provenance}
    for key, tracer in tracers.items():
        body[key] = {"stats": tracer.stats(), "spans": tracer.spans}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
