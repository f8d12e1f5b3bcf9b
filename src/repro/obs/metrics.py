"""Time-weighted series for simulation metrics.

The paper's evaluation lives on occupancy/utilization curves: map-slot
timelines (Figures 3-4), rack downlink contention, runtime breakdowns
(Table I).  :class:`TimeWeightedSeries` is the workhorse: a
piecewise-constant signal recorded as breakpoints, with exact integral and
time-weighted average over any window -- precisely what slot occupancy and
link utilization need.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TimeWeightedSeries:
    """A piecewise-constant signal with exact windowed integrals.

    The series holds breakpoints ``(t_i, v_i)``: the signal equals ``v_i``
    on ``[t_i, t_{i+1})`` and the last value extends to +infinity.  The
    signal starts at 0 at time 0.
    ``record`` with a repeated timestamp overwrites the breakpoint (several
    changes at one simulation instant collapse to the final value);
    ``record`` with an unchanged value is dropped, keeping the breakpoint
    list minimal.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = [0.0]
        self._values: list[float] = [0.0]

    def record(self, time: float, value: float) -> None:
        """Set the signal to ``value`` from ``time`` onwards."""
        last_time = self._times[-1]
        if time < last_time:
            raise ValueError(
                f"series {self.name!r}: time {time} precedes last breakpoint {last_time}"
            )
        if time == last_time:
            self._values[-1] = float(value)
            # Collapse a breakpoint that no longer changes anything.
            if len(self._values) > 1 and self._values[-2] == self._values[-1]:
                self._times.pop()
                self._values.pop()
            return
        if value == self._values[-1]:
            return
        self._times.append(time)
        self._values.append(float(value))

    @property
    def value(self) -> float:
        """The signal's current (latest) value."""
        return self._values[-1]

    @property
    def samples(self) -> list[tuple[float, float]]:
        """The breakpoints as ``(time, value)`` pairs."""
        return list(zip(self._times, self._values))

    def integral(self, start: float, end: float) -> float:
        """Exact integral of the signal over ``[start, end]``."""
        if end < start:
            raise ValueError(f"series {self.name!r}: window [{start}, {end}] is reversed")
        if end == start:
            return 0.0
        total = 0.0
        times, values = self._times, self._values
        for index, value in enumerate(values):
            seg_start = times[index]
            seg_end = times[index + 1] if index + 1 < len(times) else end
            lo = max(seg_start, start)
            hi = min(seg_end, end)
            if hi > lo:
                total += value * (hi - lo)
        # The signal extends before the first breakpoint at its initial value.
        if start < times[0]:
            total += values[0] * (min(times[0], end) - start)
        return total

    def average(self, start: float, end: float) -> float:
        """Time-weighted average over ``[start, end]``."""
        if end <= start:
            raise ValueError(f"series {self.name!r}: empty window [{start}, {end}]")
        return self.integral(start, end) / (end - start)

    def peak(self) -> float:
        """Largest value the signal ever took."""
        return max(self._values)


@dataclass
class MetricsRegistry:
    """Named metric instruments, created on first use."""

    series: dict[str, TimeWeightedSeries] = field(default_factory=dict)

    def time_series(self, name: str) -> TimeWeightedSeries:
        """Get or create the time-weighted series ``name``."""
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeWeightedSeries(name=name)
        return instrument
