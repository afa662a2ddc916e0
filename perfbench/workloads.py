"""The benchmark's workloads, each driving one ``repro.Evop``.

Every workload is a single-process discrete-event simulation that uses
the deployment only through its public API.  The workload seed drives
arrivals and user choices; ``EvopConfig.seed`` stays fixed, so the same
workload seed always yields the same simulated outputs.

A workload object is used once: ``setup()`` builds, bootstraps and warms
the deployment, ``drive()`` runs the timed phase, ``check()`` verifies
the served outputs and ``outcome()`` summarises what users saw.

* ``flash_crowd`` -- the paper's flood evening (Sections IV-D and VI): a
  burst of modelling-widget users on a small private pool, cloudbursting
  to the public cloud, one replica crashed mid-crowd.  Host time goes to
  the model kernels and the WPS execute path.  Half of the executions
  repeat an earlier input.
* ``flash_crowd_unique`` -- the same crowd with no repeated input.
* ``read_storm`` -- portal readers on the ``/v1`` read API over two
  catchments, with sensor writes flowing through the data plane beside
  them.  No model runs; host time goes to the simulator, the REST stack
  and the data plane.
* ``session_churn`` -- many short portal sessions over a large pre-booted
  estate.  Host time goes to broker placement and session bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import Evop, EvopConfig
from repro.broker.sessions import SessionState
from repro.data.catchments import STUDY_CATCHMENTS
from repro.dataplane.views import recompute_catchment_stats
from repro.hydrology.scenarios import STANDARD_SCENARIOS
from repro.obs.hub import obs_of
from repro.portal.widgets import WIDGET_DEADLINE
from repro.services.client import RestClient
from repro.services.transport import HttpResponse
from repro.tenancy import TenantSpec

from perfbench.calibrate import CHUNK_S, ScaledClock
from perfbench.metrics import percentile

#: Simulated seconds between two counts of live instances.
SAMPLE_S = 15.0
#: Simulated seconds the ledger check waits for launches in flight.
SETTLE_S = 600.0


class Workload:
    """Shared bookkeeping: operations, latencies, served bodies."""

    name = ""
    #: the per-operation latency limit the SLO attainment is judged by
    limit_s = 0.0
    #: what one operation is, for the report
    operation = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.evop: Optional[Evop] = None
        self.attempted = 0
        self.failed = 0
        #: (operation key, simulated latency) of every completed operation
        self.latencies: List[Tuple[str, float]] = []
        #: operation key -> served body, for the digest and the checks
        self.bodies: Dict[str, Any] = {}
        self.cost_start = 0.0
        self.cost_end = 0.0
        self.sim_start = 0.0
        self.sim_end = 0.0
        self.instance_peak: Dict[str, int] = {}
        #: (simulated time, scaled host CPU so far) after every chunk
        self.cpu_timeline: List[Tuple[float, float]] = []
        self._counters_start: Dict[str, float] = {}
        #: host CPU seconds per arrival in the last quarter of arrivals
        #: divided by the first quarter (set by workloads that measure it)
        self.cost_growth_ratio = 0.0

    # -- phases ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self, clock: ScaledClock) -> None:
        """Run the timed phase, measuring host time with ``clock``."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Correctness failures of the run; empty when every check holds."""
        failures = self._check()
        failures.extend(self._check_ledger())
        if self.failed:
            failures.append(f"{self.failed} of {self.attempted} "
                            f"{self.operation}s failed")
        return failures

    def _check(self) -> List[str]:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def _begin_timed_phase(self, operations: int) -> None:
        """Start the timed phase with ``operations`` still to finish."""
        assert self.evop is not None
        self.cost_start = self.evop.cost_report()["total"]
        self.sim_start = self.evop.sim.now
        self._counters_start = self._counters()
        self._sample_instances()
        self._open = operations

    def _finish_one(self) -> None:
        """One operation finished; the last one ends the timed phase.

        The phase ends at the simulated instant the last operation
        finishes, so its cost and span do not depend on how the timed
        phase steps the clock.
        """
        self._open -= 1
        if self._open == 0:
            self.cost_end = self.evop.cost_report()["total"]
            self.sim_end = self.evop.sim.now
            self._counters_end = self._counters()

    def _run_timed_phase(self, clock: ScaledClock) -> None:
        """Advance the simulation until every operation finished.

        The simulation advances one simulated second at a time, in
        chunks of ``CHUNK_S`` host seconds that ``clock`` measures.  Live
        instances are counted every ``SAMPLE_S`` simulated seconds for
        the per-location peak.
        """
        evop = self.evop
        assert evop is not None
        next_sample = [self.sim_start + SAMPLE_S]

        def chunk() -> None:
            deadline = time.perf_counter() + CHUNK_S
            while self._open > 0 and time.perf_counter() < deadline:
                evop.run_for(1.0)
                if evop.sim.now >= next_sample[0]:
                    self._sample_instances()
                    next_sample[0] += SAMPLE_S

        while self._open > 0:
            clock.measure(chunk)
            self.cpu_timeline.append((evop.sim.now, clock.cpu_s))
            if evop.sim.now - self.sim_start > WIDGET_DEADLINE * 4:
                raise RuntimeError(f"{self.name}: operations never finished")

    def _cpu_between(self, begin: float, end: float) -> float:
        """Scaled host CPU spent while the simulation went from ``begin``
        to ``end``, interpolated within the measured chunks."""
        def cumulative(t: float) -> float:
            previous = (self.sim_start, 0.0)
            for point in self.cpu_timeline:
                if point[0] >= t:
                    span = point[0] - previous[0]
                    share = (t - previous[0]) / span if span > 0 else 1.0
                    return previous[1] + share * (point[1] - previous[1])
                previous = point
            return previous[1]
        return cumulative(end) - cumulative(begin)

    def _sample_instances(self) -> None:
        for location, count in self.evop.instances_by_location().items():
            if count > self.instance_peak.get(location, 0):
                self.instance_peak[location] = count

    def _counters(self) -> Dict[str, float]:
        """Cumulative counters the per-layer report takes deltas of."""
        evop = self.evop
        values: Dict[str, float] = {}
        for location in evop.multicloud.locations():
            values[f"launch.{location}"] = sum(
                lb.metrics.counter(f"launch.{location}").value
                for lb in evop.sched.lbs)
        values["shed"] = sum(lb.metrics.counter("sched.shed").value
                             for lb in evop.sched.lbs)
        for name in ("requests", "attempts", "retries"):
            values[name] = evop.resilience_metrics.counter(name).value
        values["throttled"] = (evop.ratelimit.throttled
                               if evop.ratelimit is not None else 0)
        return values

    def probes(self) -> Dict[str, Any]:
        """Simulated per-layer facts of the timed phase."""
        evop = self.evop
        start, end = self._counters_start, self._counters_end
        delta = {key: end[key] - start.get(key, 0) for key in end}
        waits = sorted(session.wait_time for session in evop.sessions.all()
                       if session.created_at >= self.sim_start
                       and session.wait_time is not None)
        wait_p99, _ = percentile(waits, 99.0)
        return {
            "launched": {location: delta.get(f"launch.{location}", 0)
                         for location in evop.multicloud.locations()},
            "instance_peak": dict(self.instance_peak),
            "shed": delta["shed"],
            "throttled": delta["throttled"],
            "resilience": {name: delta[name]
                           for name in ("requests", "attempts", "retries")},
            "queue_wait_p99_s": wait_p99,
            "queue_wait_samples": len(waits),
            "spans_retained": len(obs_of(evop.sim).tracer.spans()),
            "cost_growth_ratio": self.cost_growth_ratio,
        }

    def _check_ledger(self) -> List[str]:
        """Capacity-ledger commitments equal live managed-replica vCPUs.

        Launches in flight hold commitments by design, so the simulation
        first runs on until none is left, for at most ``SETTLE_S``.
        """
        evop = self.evop
        assert evop is not None

        def pending() -> int:
            return sum(service.pending_launches
                       for service in evop.sched.services())

        settle_end = evop.sim.now + SETTLE_S
        while pending() and evop.sim.now < settle_end:
            evop.run_for(10.0)
        if pending():
            return [f"{pending()} launches still in flight {SETTLE_S:.0f} "
                    f"simulated seconds after the run; ledger not checked"]
        live: Dict[str, int] = {}
        for service in evop.sched.services():
            for instance in service.replicas:
                if instance.is_gone:
                    continue
                location = evop.multicloud.location_of(instance,
                                                       default="unknown")
                live[location] = live.get(location, 0) + \
                    instance.flavor.vcpus
        failures = []
        for location in evop.multicloud.locations():
            committed = evop.ledger.committed(location)
            if committed != live.get(location, 0):
                failures.append(
                    f"ledger commits {committed} vCPUs at {location}, "
                    f"live replicas hold {live.get(location, 0)}")
        return failures

    def outcome(self) -> Dict[str, Any]:
        """Simulated outcome: latencies, SLO attainment, cost, digest."""
        latencies = sorted(value for _, value in self.latencies)
        within = sum(1 for value in latencies if value <= self.limit_s)
        return {
            "attempted": self.attempted,
            "completed": len(latencies),
            "failed": self.failed,
            "latencies": latencies,
            "within_limit": within,
            "cost_usd": self.cost_end - self.cost_start,
            "sim_seconds": self.sim_end - self.sim_start,
            "digest": self.digest(latencies),
        }

    def digest(self, latencies: List[float]) -> str:
        """Digest of the simulated outputs: latencies, cost, bodies."""
        material = {
            "latencies": [repr(value) for value in latencies],
            "cost": repr(self.cost_end - self.cost_start),
            "bodies": {key: self.bodies[key] for key in sorted(self.bodies)},
        }
        blob = json.dumps(material, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def stratified(counts: Dict[Any, int], rng: random.Random) -> List[Any]:
    """Each key repeated ``counts[key]`` times, in a seeded order.

    Fixing the counts and letting the seed choose only the order keeps
    the mix identical across seeds, so host cost per operation does not
    swing with a lucky draw.
    """
    items = [key for key, count in counts.items() for _ in range(count)]
    rng.shuffle(items)
    return items


# -- flash_crowd -----------------------------------------------------------------


class FlashCrowd(Workload):
    """A flood-evening crowd of modelling-widget users.

    Open-loop arrivals: ``USERS`` users arrive inside a ``BURST_S``
    window, one at a seeded instant in each equal slice of it.  Each user
    is a closed loop: open the modelling widget, ``load()`` it, then
    press run ``RUNS_PER_USER`` times with a seeded think time of
    ``THINK_S`` between runs.  A quarter of the users run the FUSE
    ensemble, the rest TOPMODEL.  Inputs come from a seeded menu so that
    exactly ``REPEAT_SHARE`` of the executions repeat an earlier input.

    ``REPEAT_SHARE`` = 0.5 is an assumption, not a measurement: neither
    the paper nor its related work gives a share of repeated inputs.
    :class:`FlashCrowdUnique` runs the same crowd with no repeats, so a
    result cache is measured on both sides of its decision.
    """

    name = "flash_crowd"
    limit_s = 300.0
    operation = "model run"

    USERS = 60
    RUNS_PER_USER = 4
    FUSE_USERS = 15
    BURST_S = 300.0
    THINK_S = (30.0, 50.0)
    REPEAT_SHARE = 0.5
    #: the crash lands this far into the burst
    CRASH_AT_S = 150.0
    CATCHMENT = "morland"

    def setup(self) -> None:
        self.evop = Evop(EvopConfig(
            truth_days=5, storm_day=2,
            private_vcpus=8,            # a small university pool
            sessions_per_replica=4,
            autoscale_interval=10.0,
            telemetry_interval=15.0,
            catchments=(self.CATCHMENT,),
        )).bootstrap()
        self.evop.run_for(300.0)        # boot the initial replicas
        self.plan = self._plan()

    def _plan(self) -> List[Tuple[str, List[Dict[str, Any]], float]]:
        """(model, inputs per run, arrival offset) for every user."""
        rng = self.rng
        models = stratified({"fuse": self.FUSE_USERS,
                             "topmodel": self.USERS - self.FUSE_USERS}, rng)
        per_model: Dict[str, List[Dict[str, Any]]] = {}
        for model in ("topmodel", "fuse"):
            runs = models.count(model) * self.RUNS_PER_USER
            distinct = runs - round(runs * self.REPEAT_SHARE)
            menu = self._menu(model, distinct, rng)
            repeats = [rng.choice(menu) for _ in range(runs - distinct)]
            inputs = menu + repeats
            rng.shuffle(inputs)
            per_model[model] = inputs
        # one arrival per slice keeps the crowd's shape, and with it the
        # cloudburst, alike across seeds
        slot = self.BURST_S / self.USERS
        arrivals = [(i + rng.random()) * slot for i in range(self.USERS)]
        plan = []
        for model, arrival in zip(models, arrivals):
            runs = [per_model[model].pop() for _ in range(self.RUNS_PER_USER)]
            plan.append((model, runs, arrival))
        return plan

    @staticmethod
    def _menu(model: str, count: int,
              rng: random.Random) -> List[Dict[str, Any]]:
        """``count`` distinct inputs: a scenario button plus slider values."""
        scenarios = list(STANDARD_SCENARIOS)
        depths = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
        if model == "topmodel":
            knob, values = "m", [8.0, 10.0, 12.0, 16.0, 20.0, 25.0, 30.0,
                                 40.0]
        else:
            knob, values = "k_base", [0.01, 0.02, 0.04, 0.06, 0.08, 0.12]
        grid = [(s, d, v) for s in scenarios for d in depths for v in values]
        chosen = rng.sample(grid, count)
        return [{"scenario": s, "storm_depth_mm": d, knob: v}
                for s, d, v in chosen]

    def drive(self, clock: ScaledClock) -> None:
        evop = self.evop
        assert evop is not None
        self._begin_timed_phase(len(self.plan))
        sim = evop.sim
        tool = evop.left(self.CATCHMENT)
        service = evop.service_name(self.CATCHMENT)
        victim = evop.sched.service_slices(service)[0].serving()[0]
        evop.injector.crash_at(self.CRASH_AT_S, victim,
                               cause="flash-crowd fault")
        #: (run key, planned model, inputs, served outputs)
        self.executions: List[Tuple[str, str, Dict[str, Any], Any]] = []
        for index, (model, runs, arrival) in enumerate(self.plan):
            thinks = [self.rng.uniform(*self.THINK_S) for _ in runs]
            sim.spawn(self._user(tool, index, model, runs, thinks, arrival),
                      name=f"crowd-user-{index}")
        self._run_timed_phase(clock)

    def _user(self, tool, index: int, model: str, runs, thinks,
              arrival: float):
        evop = self.evop
        sim = evop.sim
        yield arrival
        widget = tool.open_modelling_widget(f"visitor-{index}", model=model)
        loaded = yield widget.load()
        if not loaded:
            self.attempted += len(runs)
            self.failed += len(runs)
            evop.rb.disconnect(widget.session)
            self._finish_one()
            return
        # a scenario button snaps only the sliders it defines: reset the
        # rest first, so equal menu choices give equal inputs
        defaults = {name: slider.value
                    for name, slider in widget.sliders.items()}
        for k, (inputs, think) in enumerate(zip(runs, thinks)):
            yield think
            extra = dict(inputs)
            for name, value in defaults.items():
                widget.sliders[name].value = value
            widget.select_scenario(extra.pop("scenario"))
            if "m" in extra:
                widget.set_slider("m", extra.pop("m"))
            key = f"{index:03d}.{k}"
            self.attempted += 1
            run = yield widget.run(**extra)
            if run is None:
                self.failed += 1
                continue
            self.latencies.append((key, run.completed_at - run.requested_at))
            self.bodies[key] = run.outputs
            self.executions.append((key, model, dict(run.inputs),
                                    run.outputs))
        evop.rb.disconnect(widget.session)
        self._finish_one()

    def _check(self) -> List[str]:
        """Served outputs equal a direct execute of the same inputs."""
        evop = self.evop
        catchment = STUDY_CATCHMENTS[self.CATCHMENT]
        oracles = {}
        for model in ("topmodel", "fuse"):
            entry = evop.library.get(f"{model}-{self.CATCHMENT}")
            oracles[model] = entry.process_factory(catchment)
        expected: Dict[str, Dict[str, Any]] = {}
        failures = []
        for key, model, inputs, outputs in self.executions:
            if outputs.get("model") != model:
                failures.append(f"run {key} planned {model} but served "
                                f"{outputs.get('model')!r}")
                continue
            process = oracles[model]
            canonical = json.dumps([model, inputs], sort_keys=True)
            if canonical not in expected:
                expected[canonical] = process.execute(
                    process.validate(inputs))
            want = expected[canonical]
            if set(want) != set(outputs):
                failures.append(f"run {key}: output fields differ")
                continue
            for field in sorted(want):
                if want[field] != outputs[field]:
                    failures.append(f"run {key}: field {field!r} differs "
                                    f"from a direct execute")
                    break
        self.distinct_inputs = len(expected)
        return failures


# -- read_storm ------------------------------------------------------------------


class ReadStorm(Workload):
    """Portal readers on the ``/v1`` read API, with sensor writes beside.

    Open-loop Poisson reads at ``READ_RATE`` per simulated second against
    ``/v1/catchments/{id}/stats`` on two catchments, sent by ``READERS``
    connected portal sessions spread over a few tenants whose rate
    limits are sized so that none is throttled.  Sensor writes arrive as
    their own Poisson stream at a quarter of the read rate and flow
    outbox -> streams -> consumers -> views.
    """

    name = "read_storm"
    limit_s = 0.25
    operation = "read"

    CATCHMENTS = ("morland", "eden")
    READS = 9000
    READ_RATE = 60.0
    WRITE_RATIO = 0.25
    READERS = 24
    TENANTS = (("portal-a", 2.0), ("portal-b", 1.0), ("portal-c", 1.0))
    READ_REPLICAS = 2

    def setup(self) -> None:
        evop = Evop(EvopConfig(
            truth_days=5, storm_day=2,
            telemetry_interval=15.0,
            catchments=self.CATCHMENTS,
        )).bootstrap()
        self.evop = evop
        evop.enable_dataplane()
        # buckets far above any tenant's share of the read rate: the
        # workload measures serving cost, not admission control
        evop.enable_tenancy(specs=[
            TenantSpec(tenant, weight=weight, rate=self.READ_RATE * 10,
                       burst=self.READ_RATE * 10)
            for tenant, weight in self.TENANTS])
        service = evop.expose_read_api(replicas=self.READ_REPLICAS)
        self.sensors = [sensor
                        for catchment in self.CATCHMENTS
                        for sensor in evop.left(catchment).sensors
                        .by_catchment(catchment)]
        tenants = stratified(
            {tenant: self.READERS // len(self.TENANTS)
             for tenant, _ in self.TENANTS}, self.rng)
        self.clients = []
        for index, tenant in enumerate(tenants):
            session = evop.rb.connect(f"reader-{index}", service,
                                      tenant=tenant)
            self.clients.append(RestClient(
                evop.sim, evop.network,
                lambda s=session: s.instance_address,
                resilient=evop.resilient, service="read",
                deadline=WIDGET_DEADLINE, tenant=tenant))
        evop.run_for(300.0)             # boot the read replicas
        for sensor in self.sensors:     # every catchment has a document
            sensor.observe_now()
        evop.run_for(5.0)

    def drive(self, clock: ScaledClock) -> None:
        evop = self.evop
        sim = evop.sim
        # every read, plus the write stream as a whole
        self._begin_timed_phase(self.READS + 1)
        sim.spawn(self._readers(), name="read-arrivals")
        sim.spawn(self._writers(), name="write-arrivals")
        self._run_timed_phase(clock)

    def _readers(self):
        sim = self.evop.sim
        rng = random.Random(self.rng.random())
        for index in range(self.READS):
            yield rng.expovariate(self.READ_RATE)
            client = self.clients[rng.randrange(len(self.clients))]
            catchment = self.CATCHMENTS[rng.randrange(len(self.CATCHMENTS))]
            self.attempted += 1
            sim.spawn(self._read(client, catchment, index), name="read")

    def _read(self, client, catchment: str, index: int):
        sim = self.evop.sim
        due = sim.now
        response = yield client.catchment_stats(catchment)
        if isinstance(response, HttpResponse) and response.ok:
            key = f"{index:06d}"
            self.latencies.append((key, sim.now - due))
            self.bodies[key] = [catchment, response.body["count"],
                                response.body["latestTime"]]
        else:
            self.failed += 1
        self._finish_one()

    def _writers(self):
        rng = random.Random(self.rng.random())
        rate = self.READ_RATE * self.WRITE_RATIO
        for _ in range(round(self.READS * self.WRITE_RATIO)):
            yield rng.expovariate(rate)
            self.sensors[rng.randrange(len(self.sensors))].observe_now()
        self._finish_one()

    def _check(self) -> List[str]:
        """After the plane drains, a final read equals a raw recompute."""
        evop = self.evop
        plane = evop.dataplane
        evop.run_for(10.0)
        failures = []
        if plane.lag() != 0 or plane.outbox.depth() != 0:
            failures.append(f"data plane did not drain: lag {plane.lag()}")
        finals = {}
        for catchment in self.CATCHMENTS:
            finals[catchment] = self.clients[0].catchment_stats(catchment)
        evop.run_for(5.0)
        for catchment, signal in finals.items():
            response = signal.value
            if not (isinstance(response, HttpResponse) and response.ok):
                failures.append(f"final read of {catchment} failed: "
                                f"{response!r}")
                continue
            rows = [{"time": event.payload["time"],
                     "value": event.payload["value"]}
                    for event in plane.streams.stream(
                        f"obs.{catchment}").read(0)]
            want = recompute_catchment_stats(catchment, rows,
                                             plane.stats.window_hours)
            if response.body != want:
                failures.append(f"final {catchment} stats differ from a "
                                f"recompute over the raw stream")
            self.bodies[f"final.{catchment}"] = response.body
        return failures


# -- session_churn ---------------------------------------------------------------


class SessionChurn(Workload):
    """Short portal sessions over a large pre-booted estate.

    Open-loop arrivals: the ``WINDOW_S`` window is cut into ``SLOTS``
    equal slots, and each slot gets an equal share of the ``SESSIONS``
    arrivals at seeded uniform instants (a Poisson process given its
    count per slot), so the session history grows alike across seeds
    while arrivals still overlap at random.  Each
    session is a closed loop: ``rb.connect`` under one of several
    weighted tenants (one flood tenant takes half of the arrivals), one
    ``describe_process`` call, a seeded think time of ``THINK_S``, then
    ``disconnect``.  Telemetry is off.
    """

    name = "session_churn"
    limit_s = 30.0
    operation = "session"

    REPLICAS = 256
    SESSIONS = 320
    WINDOW_S = 240.0
    SLOTS = 32
    THINK_S = (10.0, 50.0)
    CATCHMENT = "morland"
    FLOOD_TENANT = ("flood-watch", 1.0)
    TENANTS = (("agency", 3.0), ("council", 2.0), ("schools", 1.0))

    def setup(self) -> None:
        evop = Evop(EvopConfig(
            truth_days=5, storm_day=2,
            private_vcpus=2 * self.REPLICAS + 8,
            min_replicas=self.REPLICAS,
            max_replicas=self.REPLICAS,
            shards=1,
            catchments=(self.CATCHMENT,),
        )).bootstrap()
        self.evop = evop
        specs = [TenantSpec(tenant, weight=weight)
                 for tenant, weight in (self.FLOOD_TENANT,) + self.TENANTS]
        evop.enable_tenancy(specs=specs)
        evop.run_for(300.0)             # boot the estate

    def drive(self, clock: ScaledClock) -> None:
        evop = self.evop
        sim = evop.sim
        self._begin_timed_phase(self.SESSIONS)
        flood = self.SESSIONS // 2
        rest = self.SESSIONS - flood
        total_weight = sum(weight for _, weight in self.TENANTS)
        counts = {self.FLOOD_TENANT[0]: flood}
        for tenant, weight in self.TENANTS:
            counts[tenant] = int(rest * weight / total_weight)
        counts[self.TENANTS[0][0]] += self.SESSIONS - sum(counts.values())
        self.tenant_plan = stratified(counts, self.rng)
        self.sessions = []
        self.quarter_marks: List[float] = []
        sim.spawn(self._arrivals(), name="session-arrivals")
        self._run_timed_phase(clock)
        # host CPU spent while the last quarter arrived, over the first:
        # above 1 when per-session cost grows with the session history
        marks = self.quarter_marks
        first = self._cpu_between(marks[0], marks[1])
        last = self._cpu_between(marks[3], marks[4])
        self.cost_growth_ratio = last / first if first > 0 else 0.0

    def _arrivals(self):
        rng = random.Random(self.rng.random())
        service = self.evop.service_name(self.CATCHMENT)
        slot = self.WINDOW_S / self.SLOTS
        per_slot = self.SESSIONS // self.SLOTS
        arrivals = [(k + offset) * slot for k in range(self.SLOTS)
                    for offset in sorted(rng.random()
                                         for _ in range(per_slot))]
        quarter = self.SESSIONS // 4
        previous = 0.0
        for index, tenant in enumerate(self.tenant_plan):
            yield arrivals[index] - previous
            previous = arrivals[index]
            if index % quarter == 0:
                self.quarter_marks.append(self.evop.sim.now)
            think = rng.uniform(*self.THINK_S)
            self.attempted += 1
            self.evop.sim.spawn(
                self._session(index, tenant, service, think),
                name="session")
        self.quarter_marks.append(self.evop.sim.now)

    def _session(self, index: int, tenant: str, service: str,
                 think: float):
        evop = self.evop
        sim = evop.sim
        due = sim.now
        session = evop.rb.connect(f"user-{index}", service, tenant=tenant)
        assigns: List[Any] = []
        session.channel.on_client_message(
            lambda frame: assigns.append(frame)
            if frame.get("type") == "session.assign" else None)
        self.sessions.append((session, assigns))
        client = RestClient(sim, evop.network,
                            lambda: session.instance_address,
                            resilient=evop.resilient, service="wps",
                            deadline=WIDGET_DEADLINE, tenant=tenant)
        client.trace = session.trace_context
        response = yield client.describe_process(f"topmodel-{self.CATCHMENT}")
        if isinstance(response, HttpResponse) and response.ok:
            key = f"{index:05d}"
            self.latencies.append((key, sim.now - due))
            self.bodies[key] = [tenant, response.body["identifier"],
                                len(response.body["inputs"])]
        else:
            self.failed += 1
        yield think
        evop.rb.disconnect(session)
        self._finish_one()

    def _check(self) -> List[str]:
        """Each session assigned once (migrations apart), none left ACTIVE.

        The assignment count is what the user's channel received: one
        ``session.assign`` frame per placement, plus one per migration.
        """
        failures = []
        mine = set()
        for session, assigns in self.sessions:
            mine.add(session.session_id)
            placements = len(assigns) - len(session.migrations)
            if placements != 1:
                failures.append(f"{session.session_id} was placed "
                                f"{placements} times")
            if session.state is not SessionState.ENDED:
                failures.append(f"{session.session_id} left "
                                f"{session.state.value} after disconnect")
        still_active = [s for s in self.evop.sessions.active()
                        if s.session_id in mine]
        if still_active:
            failures.append(f"{len(still_active)} sessions still ACTIVE")
        return failures


class FlashCrowdUnique(FlashCrowd):
    """The flash crowd with no repeated input: every execution is new.

    The low-repeat side of :class:`FlashCrowd`: a result cache can only
    add cost here, so its overhead on non-repeating traffic shows.
    """

    name = "flash_crowd_unique"
    REPEAT_SHARE = 0.0


WORKLOADS = {cls.name: cls for cls in (FlashCrowd, FlashCrowdUnique,
                                       ReadStorm, SessionChurn)}
