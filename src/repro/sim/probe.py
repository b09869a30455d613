"""Time-series probes.

Every figure in the paper is a time series — queue length, MACR, per-session
allowed rate.  Components expose their state through :class:`Probe`
(irregularly sampled) or :class:`StepProbe` (piecewise-constant signals such
as queue length), and the analysis layer turns the recorded series into the
tables the benchmark harness prints.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import islice
from operator import add, mul, sub
from typing import Iterable, Iterator


class Probe:
    """Append-only (time, value) series.

    Samples must arrive in non-decreasing time order, which the
    deterministic engine guarantees for any single component.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"probe {self.name!r}: time went backwards "
                f"({time} < {self.times[-1]})")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    @property
    def last(self) -> float:
        """Most recent value (raises IndexError when empty)."""
        return self.values[-1]

    # ------------------------------------------------------------------
    # queries used by the analysis layer
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "Probe":
        """Sub-series with start <= t <= end (copy).

        Times are sorted (record() enforces it), so the window bounds
        are found by bisection and the storage is sliced wholesale —
        O(log n + k) for a k-sample window instead of an O(n) per-
        element scan.  Slicing also preserves the storage kind: a
        StepProbe window keeps its packed arrays.
        """
        out = type(self)(self.name)
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    _NO_DEFAULT = object()

    def value_at(self, time: float,
                 default: float | object = _NO_DEFAULT) -> float:
        """Sample-and-hold interpolation at ``time``.

        Returns the last recorded value at or before ``time``.  With no
        sample that early, returns ``default`` when given, else raises
        ValueError.
        """
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            if default is not Probe._NO_DEFAULT:
                return default  # type: ignore[return-value]
            raise ValueError(
                f"probe {self.name!r} has no sample at or before {time}")
        return self.values[idx]

    def resample(self, times: Iterable[float],
                 default: float | object = _NO_DEFAULT) -> list[float]:
        """Sample-and-hold values at each of ``times``."""
        return [self.value_at(t, default) for t in times]

    def max(self) -> float:
        return max(self.values)

    def min(self) -> float:
        return min(self.values)

    def mean(self) -> float:
        """Plain arithmetic mean of the samples (not time-weighted)."""
        return sum(self.values) / len(self.values)

    def time_average(self, end: float | None = None) -> float:
        """Time-weighted mean, treating the series as sample-and-hold.

        ``end`` extends the final sample's hold period; it defaults to the
        last sample time (in which case the final sample gets no weight).
        """
        if not self.times:
            raise ValueError(f"probe {self.name!r} is empty")
        horizon = self.times[-1] if end is None else end
        if horizon < self.times[-1]:
            return self.window(self.times[0], horizon).time_average(horizon)
        times, values = self.times, self.values
        # v * (t_next - t) per held interval, then the last value held
        # to the horizon, added strictly left to right: reduce(add) is
        # the plain float loop run in C (sum would compensate rounding
        # on Python >= 3.12 and change the last bits)
        total = reduce(add, map(mul, values,
                                map(sub, islice(times, 1, None), times)),
                       0.0)
        total += values[-1] * (horizon - times[-1])
        span = horizon - self.times[0]
        if span <= 0:
            return self.values[-1]
        return total / span


class StepProbe(Probe):
    """Probe for piecewise-constant signals, with redundancy suppression.

    Queue lengths change on every cell; recording each arrival *and* each
    non-change would bloat memory.  ``StepProbe`` drops samples equal to
    the previous value and, when several samples land on the same
    timestamp, keeps only the last one — which is the only observable one
    under sample-and-hold semantics (``value_at`` resolves ties that way),
    so both reductions preserve the series exactly.

    Storage is ``array('d')`` rather than lists: a queue-length probe on
    the hot path records millions of samples, and packed doubles cost a
    quarter of the memory with none of the per-element object overhead.
    The window/iteration/query API is inherited unchanged.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: array = array("d")
        self.values: array = array("d")

    def record(self, time: float, value: float) -> None:
        values = self.values
        if not values:
            self.times.append(time)
            values.append(value)
            return
        # exact compare on purpose: dedup drops bit-identical repeats
        # only — any numeric change, however small, must be recorded
        if values[-1] == value:  # lint: disable=FLT001
            return
        times = self.times
        last = times[-1]
        if time < last:
            raise ValueError(
                f"probe {self.name!r}: time went backwards "
                f"({time} < {last})")
        # exact compare on purpose: only samples at bit-identical
        # timestamps coalesce; the last one is the observable value
        if time == last:  # lint: disable=FLT001
            values[-1] = value
            return
        times.append(time)
        values.append(value)
