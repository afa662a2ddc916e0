"""Regular time series: the lingua franca of the data and model layers.

A :class:`TimeSeries` is a start time, a fixed timestep (seconds) and a
vector of float values (``math.nan`` marks gaps).  It supports the
operations the portal and models need — slicing by time, resampling,
aligning two series, gap filling, elementwise arithmetic — without
pulling in a dataframe dependency.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


class TimeSeries:
    """An evenly spaced series of float values."""

    __slots__ = ("start", "dt", "_values", "units", "name")

    def __init__(self, start: float, dt: float, values: Iterable[float],
                 units: str = "", name: str = ""):
        if dt <= 0:
            raise ValueError("timestep must be positive")
        self.start = float(start)
        self.dt = float(dt)
        self._values = [float(v) for v in values]
        self.units = units
        self.name = name

    @classmethod
    def _wrap_floats(cls, start: float, dt: float, values: List[float],
                     units: str = "", name: str = "") -> "TimeSeries":
        """Adopt ``values`` — already a list of floats — without the
        per-element conversion pass.

        Internal fast path for the ensemble kernels (vectorized
        TOPMODEL, batched FUSE), which hand over ``ndarray.tolist()``
        output or lists built from float arithmetic (guaranteed Python
        floats) for many series per ensemble; the public constructor's
        coercion would double the kernels' result-assembly cost.  The
        caller must not mutate ``values`` afterwards.
        """
        series = cls.__new__(cls)
        series.start = start
        series.dt = dt
        series._values = values
        series.units = units
        series.name = name
        return series

    # -- basics -------------------------------------------------------------

    @property
    def values(self) -> List[float]:
        """Copy of the value vector."""
        return list(self._values)

    @property
    def end(self) -> float:
        """Time just after the last sample."""
        return self.start + self.dt * len(self._values)

    def times(self) -> List[float]:
        """Sample timestamps."""
        return [self.start + i * self.dt for i in range(len(self._values))]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def at(self, time: float) -> float:
        """Value of the interval containing ``time``."""
        index = int((time - self.start) // self.dt)
        if not 0 <= index < len(self._values):
            raise IndexError(f"time {time} outside series "
                             f"[{self.start}, {self.end})")
        return self._values[index]

    def index_at(self, time: float) -> int:
        """Index of the interval containing ``time``."""
        index = int((time - self.start) // self.dt)
        if not 0 <= index < len(self._values):
            raise IndexError(f"time {time} outside series")
        return index

    # -- transformations ---------------------------------------------------------

    def slice(self, begin: float, end: float) -> "TimeSeries":
        """Sub-series covering ``[begin, end)`` (clamped to the series)."""
        first = max(0, int(math.ceil((begin - self.start) / self.dt)))
        last = min(len(self._values),
                   int(math.ceil((end - self.start) / self.dt)))
        if last < first:
            first = last
        return TimeSeries(self.start + first * self.dt, self.dt,
                          self._values[first:last], self.units, self.name)

    def resample(self, new_dt: float,
                 how: str = "mean") -> "TimeSeries":
        """Aggregate to a coarser timestep (``new_dt`` a multiple of dt).

        ``how``: "mean" for intensive quantities (flow, temperature),
        "sum" for extensive ones (rainfall depth), "max" for peaks.
        """
        ratio = new_dt / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("new_dt must be an integer multiple of dt")
        ratio = int(round(ratio))
        reducers: dict = {
            "mean": lambda chunk: sum(chunk) / len(chunk),
            "sum": sum,
            "max": max,
            "min": min,
        }
        if how not in reducers:
            raise ValueError(f"unknown aggregation {how!r}")
        reduce = reducers[how]
        out = []
        for i in range(0, len(self._values) - ratio + 1, ratio):
            chunk = [v for v in self._values[i:i + ratio] if not math.isnan(v)]
            out.append(reduce(chunk) if chunk else math.nan)
        return TimeSeries(self.start, new_dt, out, self.units, self.name)

    def fill_gaps(self, method: str = "interpolate") -> "TimeSeries":
        """Replace NaNs: 'interpolate' linearly, 'zero', or 'hold' last value."""
        values = list(self._values)
        if method == "zero":
            filled = [0.0 if math.isnan(v) else v for v in values]
        elif method == "hold":
            filled, last = [], 0.0
            for v in values:
                if math.isnan(v):
                    filled.append(last)
                else:
                    filled.append(v)
                    last = v
        elif method == "interpolate":
            filled = list(values)
            n = len(filled)
            i = 0
            while i < n:
                if math.isnan(filled[i]):
                    j = i
                    while j < n and math.isnan(filled[j]):
                        j += 1
                    left = filled[i - 1] if i > 0 else (
                        filled[j] if j < n else 0.0)
                    right = filled[j] if j < n else left
                    gap = j - i + 1
                    for k in range(i, j):
                        frac = (k - i + 1) / gap
                        filled[k] = left * (1 - frac) + right * frac
                    i = j
                else:
                    i += 1
        else:
            raise ValueError(f"unknown gap-fill method {method!r}")
        return TimeSeries(self.start, self.dt, filled, self.units, self.name)

    def gap_count(self) -> int:
        """Number of NaN samples."""
        return sum(1 for v in self._values if math.isnan(v))

    def map(self, fn: Callable[[float], float]) -> "TimeSeries":
        """Elementwise transformation (NaNs pass through)."""
        return TimeSeries(self.start, self.dt,
                          [v if math.isnan(v) else fn(v) for v in self._values],
                          self.units, self.name)

    def shift(self, steps: int) -> "TimeSeries":
        """Shift values ``steps`` forward in time, zero-padding the head."""
        if steps < 0:
            raise ValueError("only forward shifts supported")
        padded = [0.0] * steps + self._values[:len(self._values) - steps]
        return TimeSeries(self.start, self.dt, padded, self.units, self.name)

    # -- statistics ----------------------------------------------------------------

    def _clean(self) -> List[float]:
        return [v for v in self._values if not math.isnan(v)]

    def total(self) -> float:
        """Sum of non-NaN values."""
        return sum(self._clean())

    def mean(self) -> float:
        """Mean of non-NaN values (0 when empty)."""
        clean = self._clean()
        return sum(clean) / len(clean) if clean else 0.0

    def maximum(self) -> float:
        """Largest non-NaN value."""
        clean = self._clean()
        if not clean:
            raise ValueError("empty series")
        return max(clean)

    def argmax_time(self) -> float:
        """Timestamp of the largest value."""
        best_i, best_v = 0, -math.inf
        for i, v in enumerate(self._values):
            if not math.isnan(v) and v > best_v:
                best_i, best_v = i, v
        return self.start + best_i * self.dt

    # -- combination -----------------------------------------------------------------

    def aligned_with(self, other: "TimeSeries") -> Tuple["TimeSeries", "TimeSeries"]:
        """Clip both series to their common time span (dt must match)."""
        if abs(self.dt - other.dt) > 1e-9:
            raise ValueError("cannot align series with different timesteps")
        begin = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= begin:
            raise ValueError("series do not overlap")
        return self.slice(begin, end), other.slice(begin, end)

    def _combine(self, other, op) -> "TimeSeries":
        if isinstance(other, TimeSeries):
            a, b = self.aligned_with(other)
            values = [op(x, y) for x, y in zip(a._values, b._values)]
            return TimeSeries(a.start, a.dt, values, self.units, self.name)
        return self.map(lambda v: op(v, other))

    def __add__(self, other):
        return self._combine(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._combine(other, lambda x, y: x - y)

    def __mul__(self, other):
        return self._combine(other, lambda x, y: x * y)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TimeSeries {self.name!r} n={len(self)} dt={self.dt} "
                f"units={self.units!r}>")

    @staticmethod
    def zeros_like(other: "TimeSeries") -> "TimeSeries":
        """A zero series with the same shape as ``other``."""
        return TimeSeries(other.start, other.dt, [0.0] * len(other),
                          other.units, other.name)
