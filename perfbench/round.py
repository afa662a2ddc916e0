"""One round of one workload, in a process of its own.

``run.py`` starts this script once per round and reads the JSON object
it prints as its last line.  A round builds a fresh deployment, so each
round's peak memory is its own.  Modes:

* ``plain`` -- untraced; the end-to-end metrics come from these rounds;
* ``layers`` -- the timed phase runs under :class:`LayerTracer`;
* ``memory`` -- the round runs under ``tracemalloc`` and reports the
  memory still allocated at the end, grouped by ``repro`` package.

Usage: ``python3 perfbench/round.py <workload> <seed> <mode> [spans.json]``
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS_PER_ROUND = 3


def _import_paths() -> None:
    """Put the checkout's ``src`` and root first on ``sys.path``.

    Refuses to fall back on any other ``repro``: the benchmark measures
    the source tree it ships with.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no repro sources under {src}")
    sys.path[:0] = [src, ROOT]


def _hooks(evop, probes):
    """Per-call hooks feeding the per-layer metrics that need arguments."""
    sim = evop.sim
    jobs = probes["jobs"]

    def wps_execute(args, kwargs, result):
        process, inputs = args[0], args[1]
        probes["wps_inputs"].add(json.dumps(
            [process.identifier, inputs], sort_keys=True, default=repr))

    def poll_once(args, kwargs, result):
        probes["polls_delivered"] += result
        if result > 0:
            probes["useful_polls"] += 1

    def outbox_record(args, kwargs, result):
        probes["records"] += 1
        lag = probes["records"] - probes["polls_delivered"]
        if lag > probes["lag_max"]:
            probes["lag_max"] = lag

    def instance_submit(args, kwargs, result):
        jobs.append((sim.now, result))

    return {
        "repro.services.wps:WpsProcess.execute": wps_execute,
        "repro.dataplane.consumers:ConsumerGroup.poll_once": poll_once,
        "repro.dataplane.outbox:TransactionalOutbox.record": outbox_record,
        "repro.cloud.instance:Instance.submit": instance_submit,
    }


def _job_waits(jobs):
    """Simulated submit-to-start waits of the jobs that started."""
    waits = []
    for submitted, done in jobs:
        outcome = done.value if done.fired else None
        started = getattr(outcome, "started_at", None)
        if started is not None:
            waits.append(started - submitted)
    return sorted(waits)


def _numpy_state() -> dict:
    """Whether the model kernels run with NumPy, and which version."""
    from repro.data.dem import HAVE_NUMPY
    version = None
    if HAVE_NUMPY:
        import numpy
        version = numpy.__version__
    return {"numpy_on": HAVE_NUMPY, "numpy_version": version}


def run_round(workload_name: str, seed: int, mode: str,
              spans_path: str = "") -> dict:
    from perfbench.calibrate import ScaledClock
    from perfbench.layers import LayerTracer
    from perfbench.metrics import memory_by_package, per_layer, percentile
    from perfbench.workloads import WORKLOADS

    if mode == "memory":
        tracemalloc.start()
    # set up several deployments and drive the last: set-up time is
    # short, so one sample per round would be at the mercy of noise
    setup_s = []
    for index in range(SETUPS_PER_ROUND if mode == "plain" else 1):
        if index:
            del workload
            gc.collect()
        workload = WORKLOADS[workload_name](seed)
        setup_clock = ScaledClock()
        setup_clock.measure(workload.setup)
        setup_s.append(setup_clock.wall_s)

    tracer = None
    probes = {"wps_inputs": set(), "useful_polls": 0, "polls_delivered": 0,
              "records": 0, "lag_max": 0, "jobs": []}
    if mode == "layers":
        tracer = LayerTracer(_hooks(workload.evop, probes))
        tracer.install()
        if workload.evop.read_api is not None:
            for route in workload.evop.read_api.routes:
                # route handlers are closures; wrap them on the route
                tracer.wrap_attribute(route, "handler",
                                      f"route {route.method} {route.pattern}",
                                      "services")

    clock = ScaledClock()
    workload.drive(clock)

    result = {"mode": mode, "setup_s": setup_s, "wall_s": clock.wall_s,
              "cpu_s": clock.cpu_s, "raw_cpu_s": clock.raw_cpu_s,
              "raw_wall_s": clock.raw_wall_s, "chunks": clock.chunks}
    if tracer is not None:
        tracer.uninstall()
    if mode == "memory":
        result["memory"] = memory_by_package(tracemalloc.take_snapshot())
        tracemalloc.stop()

    # the checks may run the simulation on; take its facts before them
    facts = workload.probes()
    failures = workload.check()
    outcome = workload.outcome()
    if tracer is not None:
        waits = _job_waits(probes["jobs"])
        facts["job_wait_p99_s"], _ = percentile(waits, 99.0)
        facts["job_wait_samples"] = len(waits)
        facts.update({key: probes[key]
                      for key in ("useful_polls", "lag_max")})
        facts["wps_inputs"] = probes["wps_inputs"]
        result["layers"] = per_layer(tracer, facts, outcome["completed"],
                                     clock.raw_wall_s, clock.scale)
        if spans_path:
            tracer.write_spans(spans_path)
    result.update({
        "outcome": outcome,
        "failures": failures,
        "numpy": _numpy_state(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    _import_paths()
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    result = run_round(workload, seed, mode,
                       argv[3] if len(argv) == 4 else "")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
