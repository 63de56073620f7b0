"""In-memory spans around the benchmark's calls into the library.

Spans are recorded from the benchmark's own files, around each call into a
public function of one of the package's modules; the package itself is not
instrumented.  A span is a dict with its name, start, end, parent span index
and op id, plus any work counters the caller attaches (``units``, ``sim_time``,
``longest``).  With tracing off a span only remembers which call raised, so
failures can still be charged to a module.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

MODULES = ("distributions", "busy_period", "renewal", "simulate", "mm1",
           "analysis", "cli")


def module_of(name: str):
    head = name.split(".", 1)[0]
    return head if head in MODULES else None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None            # id stamped on every span opened from now on
        self.failed_in = None     # name of the innermost span that raised
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        rec = dict(counters)
        if self.enabled:
            rec.update(name=name, op=self.op,
                       parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            if self.enabled:
                rec["end"] = time.perf_counter()
                self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
