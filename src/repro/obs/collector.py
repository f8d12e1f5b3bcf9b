"""The observability collector: one passive sink for a whole trial.

``ObservabilityCollector`` owns the trial's :class:`~repro.obs.events.EventBus`,
its :class:`~repro.obs.metrics.MetricsRegistry`, and its
:class:`~repro.obs.profile.Profiler`.  ``run_simulation(config, observer=...)``
wires it into every subsystem:

* the **bus** receives every structured event (the collector subscribes to
  the three kinds it derives figures from; the full log kept for the JSONL
  export is its own wildcard subscriber);
* the **slot observer** hook tracks per-node map/reduce slot occupancy and
  semaphore queue depth as time-weighted series;
* the **network observer** hook tracks per-link allocated bandwidth as a
  utilization series and republishes flow start/end on the bus;
* **heartbeat-to-assignment latency** is derived from heartbeat events: for
  every heartbeat that assigned work, the time since that node's previous
  heartbeat -- how long free slots waited beyond a heartbeat boundary.

The collector is strictly passive: it never schedules simulator callbacks,
never draws randomness, and never mutates simulation state, so results are
bit-identical with or without it (asserted by the integration suite).
"""

from __future__ import annotations

from repro.obs.events import WILDCARD, EventBus, ObsEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler


class ObservabilityCollector:
    """Collects events, metrics, and profiling figures for one trial."""

    def __init__(self, keep_events: bool = True) -> None:
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.profiler = Profiler()
        #: Every event emitted, in order (empty when ``keep_events`` is off).
        self.events: list[ObsEvent] = []
        #: Scheduler decision records (the ``sched.decision`` subset).
        self.decisions: list[ObsEvent] = []
        #: Heartbeat-to-assignment latencies, seconds of simulated time.
        self.heartbeat_latencies: list[float] = []
        #: (action, reason) -> count over all scheduler decisions.
        self.decision_counts: dict[tuple[str, str], int] = {}
        self.end_time = 0.0
        self._last_heartbeat: dict[int, float] = {}
        self._slot_capacities: dict[str, int] = {}
        #: Semaphore name -> its (occupancy series, queue-depth series).
        self._slot_series: dict[str, tuple] = {}
        #: Registered link -> (utilization series, capacity).
        self._link_series: dict[str, tuple] = {}
        #: The links the last ``rates_updated`` allocated bandwidth on.
        self._busy_links: tuple[str, ...] = ()
        self.bus.subscribe("heartbeat", self._on_heartbeat)
        self.bus.subscribe("sched.decision", self._on_decision)
        self.bus.subscribe("repair.backlog", self._on_backlog)
        if keep_events:
            self.bus.subscribe(WILDCARD, self.events.append)

    # -- bus subscribers -----------------------------------------------------

    def _on_heartbeat(self, event: ObsEvent) -> None:
        fields = event.fields
        node = fields["node"]
        previous = self._last_heartbeat.get(node)
        assigned = fields.get("assigned_maps", 0) + fields.get("assigned_reduces", 0)
        if previous is not None and assigned > 0:
            self.heartbeat_latencies.append(event.time - previous)
        self._last_heartbeat[node] = event.time

    def _on_decision(self, event: ObsEvent) -> None:
        self.decisions.append(event)
        key = (event.fields.get("action", "?"), event.fields.get("reason", "?"))
        self.decision_counts[key] = self.decision_counts.get(key, 0) + 1

    def _on_backlog(self, event: ObsEvent) -> None:
        depth = event.fields.get("depth", 0)
        self.registry.time_series("repair.backlog").record(event.time, depth)

    # -- slot observer protocol (see repro.sim.resources.Semaphore) ----------

    def slot_changed(
        self, now: float, name: str, in_use: int, capacity: int, queued: int
    ) -> None:
        """A slot semaphore changed occupancy or queue depth."""
        self._slot_capacities[name] = capacity
        series = self._slot_series.get(name)
        if series is None:
            new = self.registry.time_series
            series = self._slot_series[name] = new(f"slot.{name}"), new(f"queue.{name}")
        series[0].record(now, in_use)
        series[1].record(now, queued)

    # -- network observer protocol (see repro.sim.resources) -----------------

    def register_links(self, capacities: dict[str, float]) -> None:
        """Learn the links once, at wiring time; each gets its series now."""
        for link, capacity in capacities.items():
            series = self.registry.time_series(f"link.{link}")
            self._link_series[link] = series, capacity

    def flow_started(self, now: float, links: tuple[str, ...], size: float) -> None:
        """A network flow entered the contention model."""
        self.bus.emit("flow.start", now, links=list(links), size=size)

    def flow_finished(
        self, now: float, links: tuple[str, ...], size: float, duration: float
    ) -> None:
        """A network flow completed."""
        self.bus.emit("flow.end", now, links=list(links), size=size, duration=duration)

    def flow_cancelled(
        self, now: float, links: tuple[str, ...], size: float, moved: float
    ) -> None:
        """A network flow was aborted mid-flight (its source node died)."""
        self.bus.emit("flow.cancel", now, links=list(links), size=size, moved=moved)

    def rates_updated(self, now: float, link_rates: dict[str, float]) -> None:
        """The contention model reallocated bandwidth; record utilization.

        Only the links busy now or at the last settle are touched: any other
        would repeat its zero, which a series drops.  A link never
        registered (a throttle added after wiring) has no series: skipped.
        """
        link_series = self._link_series
        for link in self._busy_links:
            if link not in link_rates and link in link_series:
                link_series[link][0].record(now, 0.0)
        for link, allocated in link_rates.items():
            entry = link_series.get(link)
            if entry is not None:
                series, capacity = entry
                series.record(now, allocated / capacity if capacity > 0 else 0.0)
        self._busy_links = tuple(link_rates)

    # -- lifecycle -----------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close the trial: fix the report window's right edge."""
        self.end_time = now

    # -- reporting -----------------------------------------------------------

    def slot_summary(self, prefix: str) -> list[tuple[str, float, int, float]]:
        """Per-semaphore ``(name, avg_in_use, capacity, utilization)`` rows.

        ``prefix`` selects the slot family (``"map"`` or ``"reduce"``).
        """
        rows = []
        horizon = max(self.end_time, 1e-12)
        for name in sorted(self._slot_capacities):
            if not name.startswith(f"{prefix}:"):
                continue
            average = self._slot_series[name][0].integral(0.0, horizon) / horizon
            capacity = self._slot_capacities[name]
            rows.append(
                (name, average, capacity, average / capacity if capacity else 0.0)
            )
        return rows

    def link_summary(self) -> list[tuple[str, float, float]]:
        """Per-link ``(name, avg_utilization, peak_utilization)`` rows."""
        rows = []
        horizon = max(self.end_time, 1e-12)
        for link, (series, _capacity) in sorted(self._link_series.items()):
            rows.append((link, series.integral(0.0, horizon) / horizon, series.peak()))
        return rows

    def render_utilization_report(self) -> str:
        """The plain-text utilization report (CLI ``--utilization-report``)."""
        lines = [
            "== utilization report ==",
            f"simulated time: {self.end_time:.1f} s",
            f"observability events: {self.bus.emitted}"
            f" ({len(self.bus.counts)} kinds)",
        ]
        for prefix, label in (("map", "map slots"), ("reduce", "reduce slots")):
            rows = self.slot_summary(prefix)
            if not rows:
                continue
            total_avg = sum(row[1] for row in rows)
            total_cap = sum(row[2] for row in rows)
            share = 100.0 * total_avg / total_cap if total_cap else 0.0
            lines.append(
                f"{label}: cluster average {total_avg:.2f}/{total_cap}"
                f" in use ({share:.1f}%)"
            )
            for name, average, capacity, utilization in rows:
                lines.append(
                    f"  {name:<12} avg {average:5.2f}/{capacity}"
                    f"  ({100.0 * utilization:5.1f}%)"
                )
        link_rows = self.link_summary()
        if link_rows:
            lines.append("links (bandwidth utilization):")
            for link, average, peak in link_rows:
                lines.append(
                    f"  {link:<14} avg {100.0 * average:5.1f}%"
                    f"  peak {100.0 * peak:5.1f}%"
                )
        queue_peaks = [
            (name.removeprefix("queue."), series.peak())
            for name, series in sorted(self.registry.series.items())
            if name.startswith("queue.") and series.peak() > 0
        ]
        if queue_peaks:
            lines.append("slot queues (peak depth):")
            for name, peak in queue_peaks:
                lines.append(f"  {name:<12} {peak:.0f}")
        if self.heartbeat_latencies:
            latencies = self.heartbeat_latencies
            lines.append(
                "heartbeat-to-assignment latency: "
                f"n={len(latencies)} mean={sum(latencies) / len(latencies):.2f}s "
                f"max={max(latencies):.2f}s"
            )
        if self.decision_counts:
            lines.append("scheduler decisions (action/reason):")
            for (action, reason), count in sorted(self.decision_counts.items()):
                lines.append(f"  {action:<16} {reason:<20} {count}")
        if self.bus.counts:
            lines.append("events by kind:")
            for kind, count in sorted(self.bus.counts.items()):
                lines.append(f"  {kind:<16} {count}")
        lines.append(self.profiler.render())
        return "\n".join(lines)
