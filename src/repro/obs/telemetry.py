"""The telemetry plane: labeled time series sampled on the simulated clock.

PRs 1–5 left the fabric covered in counters, gauges and histograms —
cache hits, breaker trips, shard queue depths, ledger capacity — but all
of them were end-of-run snapshots: nothing sampled them *over time*,
correlated them with traces, or defined "healthy".  This module closes
that gap:

* :class:`Series` / :class:`SeriesStore` — a bounded store of labeled
  time series (dimensions: ``service``, ``location``, ``shard``,
  ``priority`` — any string label works), queryable by name, label
  subset and time range, with counter-delta and windowed helpers;
* :class:`MetricsScraper` — a periodic process on the simulated clock
  that samples every registered :class:`~repro.sim.metrics.MetricsRegistry`
  (and ad-hoc probes) into the store, including cumulative
  ``<name>.bucket`` series per histogram bucket (the Prometheus ``le``
  convention) so SLOs can window latency distributions exactly;
* :func:`red_view` / :func:`use_view` — derived request-rate/error/
  duration and utilisation/saturation views over the raw series;
* :class:`TelemetryPlane` — the store + scraper + SLO evaluator bundle
  one deployment owns (see :mod:`repro.obs.slo` for the SLO half).

The scraper also meters itself: cumulative *host* seconds spent
scraping (``host_seconds``) is what the observability bench holds under
its <5 % overhead budget, and ``lag()`` is the staleness the admin
console surfaces.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.hub import obs_of
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricsRegistry

#: How many points one series retains (a ring buffer: a 5 s scrape
#: interval keeps one simulated hour at the default).
DEFAULT_MAX_POINTS = 720
#: How many distinct (name, labels) series one store accepts.
DEFAULT_MAX_SERIES = 8192

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_bound(bound: float) -> str:
    """The ``le`` label value of one histogram bucket bound."""
    if math.isinf(bound):
        return "+Inf"
    text = f"{bound:g}"
    return text


class Series:
    """One labeled time series: bounded ``(t, value)`` points.

    Times and values live in parallel sorted lists so every windowed
    query is a :func:`bisect.bisect_right` instead of a ring-buffer
    scan — the SLO evaluator calls :meth:`delta` thousands of times per
    run, and this is what keeps the scraper inside its overhead budget.
    The bound is enforced lazily: the buffer grows to twice
    ``max_points`` and is then halved in one slice, which amortises the
    front-trim to O(1) per append.
    """

    __slots__ = ("name", "labels", "max_points", "_times", "_values",
                 "_trimmed")

    def __init__(self, name: str, labels: Dict[str, str],
                 max_points: int = DEFAULT_MAX_POINTS):
        self.name = name
        self.labels = dict(labels)
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        self._trimmed = False

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (monotonic appends expected)."""
        self._times.append(t)
        self._values.append(float(value))
        if len(self._times) >= 2 * self.max_points:
            del self._times[:self.max_points]
            del self._values[:self.max_points]
            self._trimmed = True

    def points(self, start: Optional[float] = None,
               end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Points with ``start <= t <= end`` (both bounds optional)."""
        lo = 0 if start is None else bisect_left(self._times, start)
        hi = (len(self._times) if end is None
              else bisect_right(self._times, end))
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def latest(self) -> Optional[Tuple[float, float]]:
        """The most recent point, or ``None`` while empty."""
        if not self._times:
            return None
        return (self._times[-1], self._values[-1])

    def prior(self, t: float) -> Optional[Tuple[float, float]]:
        """The most recent point at-or-before ``t``, or ``None``."""
        i = bisect_right(self._times, t)
        if i == 0:
            return None
        return (self._times[i - 1], self._values[i - 1])

    def times(self, start: float, end: float) -> List[float]:
        """Just the sample times in ``[start, end]`` (no tuple packing)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        return self._times[lo:hi]

    def __len__(self) -> int:
        return len(self._times)

    # -- windowed helpers ---------------------------------------------------

    def delta(self, start: float, end: float) -> Optional[float]:
        """Counter growth across ``[start, end]``.

        Uses the last sample at-or-before ``start`` as the baseline when
        one exists; a series whose *first ever* sample falls inside the
        window baselines at zero instead — counters only appear in a
        scrape once first incremented, so their pre-first-sample growth
        belongs to the window.  ``None`` when there is no data at or
        before ``end`` at all; a negative step (counter reset) clamps to
        the post-reset value.
        """
        times = self._times
        hi = bisect_right(times, end)
        if hi == 0:
            return None
        last = self._values[hi - 1]
        lo = bisect_right(times, start)
        if lo > 0:
            baseline = self._values[lo - 1]
        elif self._trimmed:
            # eviction means the earliest retained point may not be the
            # series' birth; only then is a zero baseline wrong
            baseline = self._values[0]
        else:
            baseline = 0.0
        return max(0.0, last - baseline)

    def rate(self, start: float, end: float) -> Optional[float]:
        """Counter growth per second across ``[start, end]``."""
        grown = self.delta(start, end)
        if grown is None or end <= start:
            return None
        return grown / (end - start)

    def mean(self, start: float, end: float) -> Optional[float]:
        """Arithmetic mean of samples inside the window (``None`` if empty)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        if hi <= lo:
            return None
        values = self._values[lo:hi]
        return sum(values) / len(values)

    def fraction_below(self, threshold: float, start: float,
                       end: float) -> Optional[float]:
        """Fraction of in-window samples with ``value <= threshold``."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        if hi <= lo:
            return None
        values = self._values[lo:hi]
        return sum(1 for v in values if v <= threshold) / len(values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Series {self.name} {self.labels} n={len(self._times)}>"


class SeriesStore:
    """Bounded collection of labeled series, keyed by (name, labels).

    At the series bound, *new* series are dropped (and counted in
    ``dropped_series``) rather than evicting live ones — a scrape storm
    of fresh label combinations must not destroy the operator's existing
    dashboards mid-incident.
    """

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES,
                 max_points: int = DEFAULT_MAX_POINTS):
        self.max_series = max_series
        self.max_points = max_points
        self._series: Dict[Tuple[str, LabelSet], Series] = {}
        self.dropped_series = 0
        # label-superset matching is a full scan; the SLO evaluator asks
        # the same questions every tick, so memoise until a new series
        # appears (appends never change which series match)
        self._query_cache: Dict[Tuple[str, LabelSet], List[Series]] = {}

    def record(self, name: str, t: float, value: float,
               **labels: str) -> Optional[Series]:
        """Append one point, creating the series on first sight."""
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self.dropped_series += 1
                return None
            series = Series(name, {k: str(v) for k, v in labels.items()},
                            max_points=self.max_points)
            self._series[key] = series
            self._query_cache.clear()
        series.append(t, value)
        return series

    def get(self, name: str, **labels: str) -> Optional[Series]:
        """The exact series for ``name`` + ``labels``, or ``None``."""
        return self._series.get((name, _label_key(labels)))

    def query(self, name: str, **labels: str) -> List[Series]:
        """Every series of ``name`` whose labels are a superset of ``labels``."""
        wanted = {str(k): str(v) for k, v in labels.items()}
        cache_key = (name, _label_key(wanted))
        cached = self._query_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        out = []
        for (series_name, _key), series in self._series.items():
            if series_name != name:
                continue
            if all(series.labels.get(k) == v for k, v in wanted.items()):
                out.append(series)
        self._query_cache[cache_key] = out
        return list(out)

    def names(self) -> List[str]:
        """Distinct series names, sorted."""
        return sorted({name for name, _ in self._series})

    def series_count(self) -> int:
        """Number of live series."""
        return len(self._series)

    def all_series(self) -> List[Series]:
        """Every live series (a copy of the list)."""
        return list(self._series.values())


class MetricsScraper:
    """Samples registries and probes into a :class:`SeriesStore` periodically.

    Sources are added with :meth:`add_registry` (a whole
    :class:`~repro.sim.metrics.MetricsRegistry`, snapshotted flat, plus
    per-bucket cumulative series for each histogram) or
    :meth:`add_probe` (one named callable).  :meth:`start` spawns the
    scrape loop on the simulated clock; each tick also invokes every
    ``on_scrape`` hook (the SLO evaluator registers itself there).
    """

    def __init__(self, sim: Simulator, store: SeriesStore,
                 interval: float = 5.0):
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.sim = sim
        self.store = store
        self.interval = interval
        self._registries: List[Tuple[Dict[str, str], MetricsRegistry]] = []
        self._probes: List[Tuple[str, Dict[str, str],
                                 Callable[[], Optional[float]]]] = []
        self._hooks: List[Callable[[float], None]] = []
        # source-key -> Series, so steady-state ticks append directly
        # instead of re-sorting label sets through SeriesStore.record
        self._resolved: Dict[Any, Series] = {}
        self._running = False
        self.scrapes = 0
        self.samples = 0
        self.last_scrape_at: Optional[float] = None
        #: cumulative host CPU seconds spent inside scrape ticks — the
        #: overhead the observability bench holds under budget
        self.host_seconds = 0.0

    # -- sources ------------------------------------------------------------

    def add_registry(self, registry: MetricsRegistry,
                     **labels: str) -> None:
        """Sample every metric of ``registry`` under ``labels`` each tick."""
        self._registries.append(({k: str(v) for k, v in labels.items()},
                                 registry))

    def add_probe(self, name: str, fn: Callable[[], Optional[float]],
                  **labels: str) -> None:
        """Sample ``fn()`` into series ``name`` under ``labels`` each tick.

        A probe returning ``None`` records nothing for that tick.
        """
        self._probes.append((name, {k: str(v) for k, v in labels.items()},
                             fn))

    def on_scrape(self, hook: Callable[[float], None]) -> None:
        """Run ``hook(now)`` after every scrape (SLO evaluation, alerts)."""
        self._hooks.append(hook)

    def registries(self) -> List[Tuple[Dict[str, str], MetricsRegistry]]:
        """The registered (labels, registry) sources (a copy)."""
        return list(self._registries)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin scraping every ``interval`` simulated seconds."""
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._loop(), name="obs.scraper")

    def stop(self) -> None:
        """Stop after the current tick."""
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the scrape loop is active."""
        return self._running

    def lag(self, now: Optional[float] = None) -> float:
        """Seconds since the last completed scrape (staleness)."""
        if self.last_scrape_at is None:
            return math.inf
        return (now if now is not None else self.sim.now) - self.last_scrape_at

    def _loop(self):
        while self._running:
            yield self.interval
            if not self._running:
                return
            self.scrape_once()

    # -- one tick -----------------------------------------------------------

    def _record(self, key: Any, name: str, now: float, value: float,
                labels: Dict[str, str]) -> bool:
        """Append via the resolved-series cache; ``False`` if dropped."""
        series = self._resolved.get(key)
        if series is None:
            series = self.store.record(name, now, value, **labels)
            if series is None:
                return False
            self._resolved[key] = series
            return True
        series.append(now, float(value))
        return True

    def scrape_once(self) -> int:
        """Sample every source now; returns the number of points written."""
        # CPU time, not wall: perf_counter would charge the scraper for
        # scheduler preemptions that have nothing to do with its work
        host_start = time.process_time()
        now = self.sim.now
        written = 0
        resolved = self._resolved
        for idx, (labels, registry) in enumerate(self._registries):
            for name, value in registry.snapshot().items():
                series = resolved.get((idx, name))
                if series is not None:
                    series.append(now, float(value))
                    written += 1
                elif self._record((idx, name), name, now, value, labels):
                    written += 1
            for name, hist in registry.each_histogram():
                running = 0
                for bound, count in hist.bucket_counts():
                    running += count
                    series = resolved.get((idx, name, bound))
                    if series is not None:
                        # cumulative bucket: an unchanged count carries
                        # no new information and delta() baselines
                        # through sparse points, so skip the append
                        if series._values[-1] != running:
                            series.append(now, float(running))
                            written += 1
                        continue
                    le = format_bound(bound)
                    if self._record((idx, name, bound), f"{name}.bucket",
                                    now, running, {"le": le, **labels}):
                        written += 1
        for idx, (name, labels, fn) in enumerate(self._probes):
            value = fn()
            if value is None:
                continue
            if self._record(("probe", idx), name, now, float(value), labels):
                written += 1
        self.scrapes += 1
        self.samples += written
        self.last_scrape_at = now
        # self-metering rides in the same store, labeled as its own service
        self._record(("meta", "samples"), "scrape.samples", now,
                     float(written), {"service": "telemetry"})
        self._record(("meta", "series"), "scrape.series", now,
                     float(self.store.series_count()),
                     {"service": "telemetry"})
        for hook in self._hooks:
            hook(now)
        self.host_seconds += time.process_time() - host_start
        return written


# -- derived views -----------------------------------------------------------


def red_view(store: SeriesStore, now: float, window: float = 60.0, *,
             requests: str = "requests", errors: str = "errors",
             duration: str = "request.duration",
             **labels: str) -> Dict[str, Optional[float]]:
    """RED (rate / errors / duration) over the window ending at ``now``.

    ``requests`` and ``errors`` name counter series; ``duration`` names
    a histogram whose scraped ``.p95`` gauge supplies the duration
    figure.  Missing series yield ``None`` fields rather than raising —
    a dashboard renders dashes, it does not crash.
    """
    start = now - window

    def counter_rate(name: str) -> Optional[float]:
        rates = [s.rate(start, now) for s in store.query(name, **labels)]
        rates = [r for r in rates if r is not None]
        if not rates:
            return None
        return sum(rates)

    request_rate = counter_rate(requests)
    error_rate = counter_rate(errors)
    ratio: Optional[float] = None
    if request_rate is not None and error_rate is not None:
        ratio = error_rate / request_rate if request_rate > 0 else 0.0
    p95_series = store.query(f"{duration}.p95", **labels)
    p95_values = [s.mean(start, now) for s in p95_series]
    p95_values = [v for v in p95_values if v is not None]
    return {
        "rate": request_rate,
        "error_rate": error_rate,
        "error_ratio": ratio,
        "duration_p95": max(p95_values) if p95_values else None,
    }


def use_view(store: SeriesStore, now: float, window: float = 60.0, *,
             utilization: str, saturation: str,
             errors: Optional[str] = None,
             **labels: str) -> Dict[str, Optional[float]]:
    """USE (utilisation / saturation / errors) over the trailing window."""
    start = now - window

    def gauge_mean(name: str) -> Optional[float]:
        values = [s.mean(start, now) for s in store.query(name, **labels)]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return sum(values) / len(values)

    error_rate: Optional[float] = None
    if errors is not None:
        rates = [s.rate(start, now) for s in store.query(errors, **labels)]
        rates = [r for r in rates if r is not None]
        error_rate = sum(rates) if rates else None
    return {
        "utilization": gauge_mean(utilization),
        "saturation": gauge_mean(saturation),
        "error_rate": error_rate,
    }


class TelemetryPlane:
    """Store + scraper + SLO evaluation for one deployment.

    Constructed by :meth:`repro.core.evop.Evop.enable_telemetry`, which
    registers every subsystem registry; standalone use (tests, benches)
    just adds sources and SLOs directly.  ``notifier`` (if given)
    receives one payload dict per alert transition — the deployment
    wires it to the push gateway so on-call notification rides the same
    push-vs-poll channel fabric the paper argues for.
    """

    def __init__(self, sim: Simulator, interval: float = 5.0,
                 store: Optional[SeriesStore] = None,
                 notifier: Optional[Callable[[Dict[str, Any]], None]] = None,
                 evaluation_interval: Optional[float] = None):
        from repro.obs.slo import AlertManager  # local: avoid import cycle
        self.sim = sim
        self.store = store if store is not None else SeriesStore()
        self.scraper = MetricsScraper(sim, self.store, interval=interval)
        self.alerts = AlertManager(sim, self.store, notifier=notifier)
        # rules re-check on their own cadence (the Prometheus
        # scrape_interval / evaluation_interval split): sampling stays
        # fine-grained while burn-rate math — the expensive half — runs
        # at a pace that still detects faults well inside any human
        # response time.  30s samples the shortest burn window (60s)
        # twice per span, so nothing an alert could catch slips past.
        self.evaluation_interval = (
            evaluation_interval if evaluation_interval is not None
            else max(interval, 30.0))
        self._last_evaluated: Optional[float] = None
        self.scraper.on_scrape(self._maybe_evaluate)

    def _maybe_evaluate(self, now: float) -> None:
        due = (self._last_evaluated is None
               or now - self._last_evaluated >= self.evaluation_interval
               - 1e-9)
        if due:
            self._last_evaluated = now
            self.alerts.evaluate(now)

    # -- wiring -------------------------------------------------------------

    def watch_registry(self, registry: MetricsRegistry,
                       **labels: str) -> None:
        """Scrape ``registry`` under ``labels`` every tick."""
        self.scraper.add_registry(registry, **labels)

    def watch_probe(self, name: str, fn: Callable[[], Optional[float]],
                    **labels: str) -> None:
        """Scrape ``fn()`` into series ``name`` every tick."""
        self.scraper.add_probe(name, fn, **labels)

    def watch_ensemble_runner(self, runner: Any, **labels: str) -> None:
        """Scrape an :class:`~repro.perf.runner.EnsembleRunner`'s
        backend counters under ``labels``.

        One ``ensemble.runs`` series per backend (labeled
        ``backend=scalar|vector|process-pool``), plus dispatch gauges —
        the same figures ``runner.stats()`` reports and the admin
        console's ``top`` view tails, sampled over time so a sweep's
        backend mix is visible next to its cache and SLO series.
        """
        for backend in getattr(runner, "backend_runs", {}):
            key = f"runs{{backend={backend}}}"
            self.watch_probe(
                "ensemble.runs",
                lambda r=runner, k=key: float(r.stats().get(k, 0)),
                backend=backend, **labels)
        for gauge in ("chunks_dispatched", "chunk_size", "pool_workers"):
            self.watch_probe(
                f"ensemble.{gauge}",
                lambda r=runner, g=gauge: float(r.stats().get(g, 0)),
                **labels)

    def watch_dataplane(self, plane: Any, **labels: str) -> None:
        """Scrape a :class:`~repro.dataplane.plane.DataPlane`'s health.

        Mounts the plane's own probe triples — consumer lag, DLQ depth,
        outbox depth, total stream events — the saturation signals that
        say whether the materialized views are keeping up with ingest
        and whether poison events are accumulating.
        """
        for name, probe_labels, fn in plane.probes():
            self.watch_probe(name, fn, **{**probe_labels, **labels})

    def add_slo(self, slo: Any, windows: Optional[Iterable] = None) -> None:
        """Track ``slo`` with a multi-window burn-rate alert rule."""
        self.alerts.add(slo, windows=windows)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TelemetryPlane":
        """Start the scrape loop; returns self for chaining."""
        self.scraper.start()
        return self

    def stop(self) -> None:
        """Stop scraping (SLO evaluation stops with it)."""
        self.scraper.stop()

    # -- queries ------------------------------------------------------------

    def slo_status(self) -> List[Dict[str, Any]]:
        """Per-SLO state (sli, target, burn rates, alert state)."""
        return self.alerts.status(self.sim.now)

    def firing_alerts(self) -> List[Dict[str, Any]]:
        """Currently firing alerts."""
        return self.alerts.firing()

    def health_score(self) -> float:
        """0–100 composite: 100 healthy, each firing alert / miss deducts."""
        return self.alerts.health_score(self.sim.now)

    def exemplars(self, metric: str,
                  min_value: float = 0.0) -> List[Dict[str, Any]]:
        """Trace exemplars retained by histograms matching ``metric``.

        Searches every watched registry for histograms whose relative
        qualified name equals (or dot-suffixes) ``metric``; returns the
        per-bucket exemplars with ``value >= min_value``, worst first —
        each carries the ``trace_id`` of a real observation, which is
        what lets a bad p99 link straight to a span tree.
        """
        out: List[Dict[str, Any]] = []
        for labels, registry in self.scraper.registries():
            for name, hist in registry.each_histogram():
                if name != metric and not name.endswith(f".{metric}"):
                    continue
                for bound, exemplar in hist.exemplars():
                    if exemplar.get("value", 0.0) < min_value:
                        continue
                    entry = dict(exemplar)
                    entry["metric"] = name
                    entry["le"] = format_bound(bound)
                    entry["labels"] = dict(labels)
                    out.append(entry)
        out.sort(key=lambda e: e.get("value", 0.0), reverse=True)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """The plane's own vitals (for the admin console)."""
        lag = self.scraper.lag()
        return {
            "series": self.store.series_count(),
            "dropped_series": self.store.dropped_series,
            "scrapes": self.scraper.scrapes,
            "samples": self.scraper.samples,
            "interval": self.scraper.interval,
            "lag": lag if math.isfinite(lag) else None,
            "host_seconds": round(self.scraper.host_seconds, 6),
            "health_score": self.health_score(),
            "alerts_firing": [a["alert"] for a in self.firing_alerts()],
        }
