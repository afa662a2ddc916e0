"""Metric definitions: the end-to-end set and the per-layer set.

The names, units and directions here are the ones ``BENCHMARK.json``
lists; ``run.py`` prints exactly these keys.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Tuple

from perfbench.layers import LAYERS

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("cpu_us_per_request", "us"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_s", "s"),
    ("sim_latency_tail_s", "s"),
    ("sim_slo_attainment", "ratio"),
    ("error_ratio", "ratio"),
    ("sim_cost_usd", "USD"),
)

#: The end-to-end metrics the gate compares.  ``error_ratio`` is printed
#: but not gated: it is 0 on every workload, and a metric that reads 0
#: has no share to regress by.
GATED = tuple(name for name, _ in END_TO_END if name != "error_ratio")

#: Top-level ``repro`` packages, for the retained-memory breakdown.
PACKAGES = ("broker", "cloud", "core", "data", "dataplane", "durable",
            "engagement", "geo", "hydrology", "modellib", "obs", "perf",
            "portal", "resilience", "sched", "services", "sim", "tenancy",
            "workflow")

#: Per-layer metrics in simulated, not host, seconds.
SIMULATED = ("sched.queue_wait_p99_s", "cloud.job_wait_p99_s")

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events_per_request", "count/request"),
    ("sim.processes_per_request", "count/request"),
    ("sim.unattributed_share", "ratio"),
    ("services.network_requests_per_request", "count/request"),
    ("services.resolve_us", "us"),
    ("services.read_handler_us", "us"),
    ("services.wps_execute_self_s", "s"),
    ("services.wps_executions", "count"),
    ("services.wps_distinct_input_ratio", "ratio"),
    ("hydrology.fuse_ensemble_s", "s"),
    ("hydrology.fuse_ensemble_calls", "count"),
    ("hydrology.fuse_ensemble_ms_per_call", "ms"),
    ("hydrology.topmodel_run_s", "s"),
    ("hydrology.topmodel_run_calls", "count"),
    ("hydrology.topmodel_run_ms_per_call", "ms"),
    ("broker.least_loaded_us", "us"),
    ("broker.least_loaded_calls_per_placement", "count/request"),
    ("broker.session_scan_us", "us"),
    ("broker.session_scan_calls_per_session", "count/request"),
    ("broker.health_verdict_us", "us"),
    ("broker.cost_growth_ratio", "ratio"),
    ("sched.submit_us", "us"),
    ("sched.queue_wait_p99_s", "s"),
    ("sched.queue_wait_samples", "count"),
    ("sched.shed", "count"),
    ("cloud.submit_us", "us"),
    ("cloud.job_wait_p99_s", "s"),
    ("cloud.job_wait_samples", "count"),
    ("cloud.instances_launched.private", "count"),
    ("cloud.instances_launched.public", "count"),
    ("cloud.instance_peak.private", "count"),
    ("cloud.instance_peak.public", "count"),
    ("dataplane.apply_us", "us"),
    ("dataplane.events_applied", "count"),
    ("dataplane.record_us", "us"),
    ("dataplane.poll_useful_ratio", "ratio"),
    ("dataplane.polls", "count"),
    ("dataplane.lag_max", "count"),
    ("obs.scrape_us", "us"),
    ("obs.scrapes", "count"),
    ("obs.alert_eval_us", "us"),
    ("obs.start_span_us", "us"),
    ("obs.spans_retained", "count"),
    ("tenancy.check_us", "us"),
    ("tenancy.throttled", "count"),
    ("tenancy.push_us", "us"),
    ("resilience.attempts_per_request", "count/request"),
    ("resilience.retries", "count"),
    ("resilience.call_us", "us"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS
          if layer != "sim") + (
    ("sim.share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_kept", "count"),
) + tuple((f"mem.{package}_mb", "MB") for package in PACKAGES) + (
    ("mem.outside_repro_mb", "MB"),
)


# -- percentiles ---------------------------------------------------------------


def percentile(ordered: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q`` percentile of sorted values, and how many lie
    beyond it."""
    if not ordered:
        return 0.0, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: List[float]) -> Tuple[str, float, int]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it.

    Returns (label, value, samples beyond).  With fewer than eleven
    samples no percentile qualifies and the maximum is reported.
    """
    best = ("max", ordered[-1] if ordered else 0.0, 0)
    for label, q in (("p90", 90.0), ("p99", 99.0), ("p99.9", 99.9)):
        value, beyond = percentile(ordered, q)
        if beyond >= 10:
            best = (label, value, beyond)
    return best


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- end-to-end ------------------------------------------------------------------


def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of a run from its untraced rounds.

    Host times are scaled to the reference speed of
    :mod:`perfbench.calibrate`.  Throughput and CPU per request are
    totals over every round, set-up time is the median of every set-up
    of the run, and peak memory the median over the round processes.  Simulated metrics come
    from the first round: every round replays the same seed, and the run
    fails its determinism check if their digests differ.
    """
    sim = rounds[0]["outcome"]
    attempted = sim["attempted"]
    latencies = sim["latencies"]
    p50, _ = percentile(latencies, 50.0)
    setups = [value for r in rounds for value in r["setup_s"]]
    completed = max(1, sum(r["outcome"]["completed"] for r in rounds))
    tail_label, tail_value, tail_beyond = tail(latencies)
    raw_cpu = sum(r["raw_cpu_s"] for r in rounds)
    raw_wall = sum(r["raw_wall_s"] for r in rounds)
    scale = sum(r["cpu_s"] for r in rounds) / raw_cpu if raw_cpu else 1.0
    values = {
        "setup_s": median(setups),
        "requests_per_s": completed / sum(r["wall_s"] for r in rounds),
        "cpu_us_per_request":
            sum(r["cpu_s"] for r in rounds) * 1e6 / completed,
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        "sim_latency_p50_s": p50,
        "sim_latency_tail_s": tail_value,
        "sim_slo_attainment": sim["within_limit"] / max(1, attempted),
        "error_ratio": sim["failed"] / max(1, attempted),
        "sim_cost_usd": sim["cost_usd"],
    }
    notes = {
        "sim_latency_p50_s": f"p50 of {len(latencies)} samples",
        "sim_latency_tail_s": f"{tail_label} of {len(latencies)} samples, "
                              f"{tail_beyond} beyond it",
        "sim_slo_attainment": f"{sim['within_limit']} of {attempted} "
                              f"attempted within the limit",
        "error_ratio": f"{sim['failed']} of {attempted} attempted",
        "sim_cost_usd": f"over {sim['sim_seconds']:.0f} simulated s",
        "setup_s": f"median of {len(setups)} set-ups",
        "requests_per_s": f"{completed} completed over {len(rounds)} "
                          f"rounds; unscaled {completed / raw_wall:.6g}",
        "cpu_us_per_request": f"unscaled {raw_cpu * 1e6 / completed:.6g}; "
                              f"host speed scale {scale:.4f}",
        "peak_rss_mb": f"median of {len(rounds)} round processes",
    }
    return {"values": values, "notes": notes}


# -- per-layer -------------------------------------------------------------------


def _mean_us(stats) -> float:
    return stats.total_ns / stats.calls / 1e3 if stats.calls else 0.0


def per_layer(tracer, probes: Dict[str, Any], completed: int,
              wall_s: float, scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``tracer`` is the round's :class:`~perfbench.layers.LayerTracer`;
    ``probes`` holds what the hooks and the workload recorded; shares
    are of ``wall_s``, the raw host wall time of the timed phase.  Host
    times are multiplied by ``scale``, the round's mean host-speed scale
    (see :mod:`perfbench.calibrate`).
    """
    fn = tracer.function
    per_request = max(1, completed)
    wall = max(1, int(wall_s * 1e9))
    self_ns = tracer.layer_self_ns()
    attributed = sum(self_ns.values())
    connects = fn("repro.broker.resource_broker:ResourceBroker.connect").calls
    scans = [fn(f"repro.broker.sessions:SessionTable.{name}")
             for name in ("active", "waiting", "on_instance")]
    scan_calls = sum(s.calls for s in scans)
    fuse = fn("repro.hydrology.fuse:fuse_ensemble")
    topmodel = fn("repro.hydrology.topmodel:Topmodel.run")
    execute = fn("repro.services.wps:WpsProcess.execute")
    handlers = [s for name, s in tracer.stats.items()
                if name.startswith("route ")]
    handler_calls = sum(s.calls for s in handlers)
    polls = fn("repro.dataplane.consumers:ConsumerGroup.poll_once").calls
    attempts = probes["resilience"]
    values = {
        "sim.events_per_request":
            fn("repro.sim.kernel:Simulator.schedule").calls / per_request,
        "sim.processes_per_request":
            fn("repro.sim.kernel:Simulator.spawn").calls / per_request,
        "sim.unattributed_share": max(0, wall - attributed) / wall,
        "services.network_requests_per_request":
            fn("repro.services.transport:Network.request").calls
            / per_request,
        "services.resolve_us":
            _mean_us(fn("repro.services.rest:RestApi.resolve")),
        "services.read_handler_us":
            sum(s.total_ns for s in handlers) / handler_calls / 1e3
            if handler_calls else 0.0,
        "services.wps_execute_self_s": execute.self_ns / 1e9,
        "services.wps_executions": execute.calls,
        "services.wps_distinct_input_ratio":
            len(probes["wps_inputs"]) / execute.calls
            if execute.calls else 0.0,
        "hydrology.fuse_ensemble_s": fuse.total_ns / 1e9,
        "hydrology.fuse_ensemble_calls": fuse.calls,
        "hydrology.fuse_ensemble_ms_per_call": _mean_us(fuse) / 1e3,
        "hydrology.topmodel_run_s": topmodel.total_ns / 1e9,
        "hydrology.topmodel_run_calls": topmodel.calls,
        "hydrology.topmodel_run_ms_per_call": _mean_us(topmodel) / 1e3,
        "broker.least_loaded_us":
            _mean_us(fn("repro.broker.pool:ManagedService.least_loaded")),
        "broker.least_loaded_calls_per_placement":
            fn("repro.broker.pool:ManagedService.least_loaded").calls
            / max(1, connects),
        "broker.session_scan_us":
            sum(s.total_ns for s in scans) / scan_calls / 1e3
            if scan_calls else 0.0,
        "broker.session_scan_calls_per_session":
            scan_calls / max(1, connects),
        "broker.health_verdict_us":
            _mean_us(fn("repro.broker.health:HealthMonitor.verdict")),
        "broker.cost_growth_ratio": probes["cost_growth_ratio"],
        "sched.submit_us":
            _mean_us(fn("repro.sched.router:ShardedRouter.submit_session")),
        "sched.queue_wait_p99_s": probes["queue_wait_p99_s"],
        "sched.queue_wait_samples": probes["queue_wait_samples"],
        "sched.shed": probes["shed"],
        "cloud.submit_us":
            _mean_us(fn("repro.cloud.instance:Instance.submit")),
        "cloud.job_wait_p99_s": probes["job_wait_p99_s"],
        "cloud.job_wait_samples": probes["job_wait_samples"],
        "dataplane.apply_us":
            _mean_us(fn("repro.dataplane.views:MaterializedView.apply")),
        "dataplane.events_applied":
            fn("repro.dataplane.views:MaterializedView.apply").calls,
        "dataplane.record_us":
            _mean_us(fn("repro.dataplane.outbox:TransactionalOutbox.record")),
        "dataplane.poll_useful_ratio":
            probes["useful_polls"] / polls if polls else 0.0,
        "dataplane.polls": polls,
        "dataplane.lag_max": probes["lag_max"],
        "obs.scrape_us":
            _mean_us(fn("repro.obs.telemetry:MetricsScraper.scrape_once")),
        "obs.scrapes":
            fn("repro.obs.telemetry:MetricsScraper.scrape_once").calls,
        "obs.alert_eval_us":
            _mean_us(fn("repro.obs.slo:AlertManager.evaluate")),
        "obs.start_span_us":
            _mean_us(fn("repro.obs.tracer:Tracer.start_span")),
        "obs.spans_retained": probes["spans_retained"],
        "tenancy.check_us":
            _mean_us(fn("repro.tenancy.ratelimit:RateLimiter.check")),
        "tenancy.throttled": probes["throttled"],
        "tenancy.push_us":
            _mean_us(fn("repro.sched.core:ClassedQueue.push")),
        "resilience.attempts_per_request":
            attempts["attempts"] / attempts["requests"]
            if attempts["requests"] else 0.0,
        "resilience.retries": attempts["retries"],
        "resilience.call_us":
            _mean_us(fn("repro.resilience.client:ResilientClient.call")),
        "trace.spans_kept": len(tracer.spans),
    }
    for location in ("private", "public"):
        values[f"cloud.instances_launched.{location}"] = \
            probes["launched"].get(location, 0)
        values[f"cloud.instance_peak.{location}"] = \
            probes["instance_peak"].get(location, 0)
    for layer in LAYERS:
        values[f"{layer}.share"] = self_ns.get(layer, 0) / wall
    for name, unit in PER_LAYER:
        if unit in ("us", "ms", "s") and name not in SIMULATED:
            values[name] *= scale
    return values


def memory_by_package(snapshot) -> Dict[str, float]:
    """Traced bytes still allocated, grouped by top-level repro package."""
    totals = {f"mem.{package}_mb": 0.0 for package in PACKAGES}
    totals["mem.outside_repro_mb"] = 0.0
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        key = "mem.outside_repro_mb"
        marker = "/src/repro/"
        if marker in filename:
            package = filename.split(marker, 1)[1].split("/", 1)[0]
            if f"mem.{package}_mb" in totals:
                key = f"mem.{package}_mb"
        totals[key] += stat.size / 1e6
    return totals
