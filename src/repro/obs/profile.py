"""Wall-clock profiling hooks for the simulator itself.

A hot path can be optimised only against a baseline.  The :class:`Profiler`
measures *host* time -- ``time.perf_counter`` spans around the phases of
``run_simulation`` -- and pairs it with the engine's always-on dispatch
counter to report events processed, events per wall-second, and
per-subsystem time.  It observes the host clock only, never the simulation
clock, so profiling cannot perturb results.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Profiler:
    """Named wall-clock spans plus engine throughput figures."""

    def __init__(self) -> None:
        self.spans: dict[str, float] = {}
        #: Engine callbacks dispatched (copied from ``Simulator.dispatched``).
        self.events_dispatched = 0
        #: Observability events emitted (copied from ``EventBus.emitted``).
        self.events_emitted = 0

    @contextmanager
    def span(self, name: str):
        """Accumulate the wall-clock duration of the enclosed block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + (
                time.perf_counter() - started
            )

    @property
    def events_per_second(self) -> float:
        """Engine callbacks dispatched per wall-second of the ``run`` span."""
        run_seconds = self.spans.get("run", 0.0)
        if run_seconds <= 0.0:
            return 0.0
        return self.events_dispatched / run_seconds

    def render(self) -> str:
        """Plain-text summary, one line per figure."""
        lines = ["profile:"]
        for name, seconds in sorted(self.spans.items()):
            lines.append(f"  {name:<12} {seconds * 1000.0:10.2f} ms")
        lines.append(f"  engine callbacks dispatched: {self.events_dispatched}")
        lines.append(f"  observability events emitted: {self.events_emitted}")
        lines.append(f"  callbacks per wall-second: {self.events_per_second:,.0f}")
        return "\n".join(lines)
