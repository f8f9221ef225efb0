"""Spans recorded around the benchmark's own calls into each layer.

There is no instrumentation inside the program yet, so the traced run times
the public call into each layer from outside.  Spans stay in memory and are
written once, when the run ends, as Chrome trace-event JSON (open it in
``chrome://tracing`` or Perfetto) plus a per-layer self-time summary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """In-memory span recorder; spans of one run share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict]:
        """Record one span; nested spans name it as their parent.

        Yields the span record so the caller can attach counts to ``args``.
        """
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "args": dict(args),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        A span's self time is its duration minus the time its direct
        children cover (children never overlap: the benchmark is one thread).
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        summary: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            entry = summary.setdefault(
                span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span["id"]]
        return summary

    def chrome_trace(self, metadata: Optional[Dict] = None) -> Dict:
        """The spans as Chrome trace events (complete events, ``ph: "X"``)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span_id": span["id"],
                    "parent": span["parent"],
                    "run_id": span["run_id"],
                    "start_s": span["start"] - origin,
                    "end_s": span["end"] - origin,
                    **span["args"],
                },
            }
            for span in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, run_id=self.run_id),
        }

    def write(self, directory: Path, stem: str, metadata: Dict) -> Path:
        """Write ``<stem>.trace.json`` and ``<stem>.selftime.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(self.chrome_trace(metadata)))
        (directory / f"{stem}.selftime.json").write_text(
            json.dumps(
                {"run_id": self.run_id, "layers": self.self_times()},
                indent=2,
                sort_keys=True,
            )
        )
        return trace_path
