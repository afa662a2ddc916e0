"""The EVOp deployment facade.

Builds and owns every subsystem; ``bootstrap()`` then reproduces the
Figure 1 data flow: model publication into the Model Library, WPS
services managed by the Load Balancer over the hybrid cloud, sensor
networks feeding the catalogue, and the Resource Broker fronting it all
for portal sessions.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.broker.health import HealthMonitor
from repro.broker.load_balancer import LoadBalancer
from repro.broker.policies import (
    PrivateFirstPolicy,
    PrivateOnlyPolicy,
    PublicOnlyPolicy,
    SchedulingPolicy,
    WorkloadSplitPolicy,
)
from repro.broker.pool import ManagedService
from repro.broker.resource_broker import ResourceBroker
from repro.broker.sessions import SessionTable
from repro.cloud.aws import AwsCloud
from repro.cloud.billing import BillingMeter, PriceTable
from repro.cloud.faults import FaultInjector
from repro.cloud.flavors import MEDIUM, SMALL
from repro.cloud.images import ImageKind, ImageStore
from repro.cloud.multicloud import MultiCloud
from repro.cloud.openstack import OpenStackCloud
from repro.cloud.storage import BlobStore
from repro.core.config import EvopConfig
from repro.data.access import AccessPolicy, GuardedWarehouse, MODEL_RUNNER
from repro.durable.journal import JournalStore
from repro.durable.recovery import RecoveryManager
from repro.data.catalog import AssetCatalog
from repro.data.catchments import Catchment, STUDY_CATCHMENTS
from repro.data.warehouse import DataWarehouse
from repro.data.weather import DesignStorm
from repro.hydrology.timeseries import TimeSeries
from repro.hydrology.topmodel import TopmodelParameters
from repro.modellib.library import CalibrationRecord, ModelLibrary
from repro.modellib.processes import (
    make_fuse_process,
    make_topmodel_process,
    make_water_quality_process,
)
from repro.portal.left import LeftTool
from repro.portal.widgets import WIDGET_RETRY
from repro.obs.hub import obs_of
from repro.obs.slo import SLO
from repro.obs.telemetry import TelemetryPlane
from repro.resilience import ResilientClient
from repro.resilience.client import observed_breakers
from repro.sched import CapacityLedger, ShardedRouter
from repro.services.channels import PushGateway
from repro.services.idempotency import IdempotencyIndex
from repro.services.registry import ServiceRegistry
from repro.services.transport import Network
from repro.sim import MetricsRegistry, RandomStreams, Simulator

_POLICIES: Dict[str, type] = {
    "private-first": PrivateFirstPolicy,
    "workload-split": WorkloadSplitPolicy,
    "private-only": PrivateOnlyPolicy,
    "public-only": PublicOnlyPolicy,
}


class Evop:
    """One simulated EVOp deployment."""

    def __init__(self, config: Optional[EvopConfig] = None):
        self.config = config or EvopConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)

        # hybrid cloud
        self.meter = BillingMeter(self.sim)
        self.meter.register_provider(
            "openstack", PriceTable(dict(self.config.private_prices)))
        self.meter.register_provider(
            "aws", PriceTable(dict(self.config.public_prices),
                              minimum_billed_seconds=60.0))
        self.private = OpenStackCloud(
            self.sim, total_vcpus=self.config.private_vcpus,
            streams=self.streams, meter=self.meter)
        self.public = AwsCloud(
            self.sim, account_instance_limit=self.config.public_account_limit,
            streams=self.streams, meter=self.meter)
        self.multicloud = MultiCloud()
        self.multicloud.register_compute("private", self.private)
        self.multicloud.register_compute("public", self.public)

        # storage + data
        self.storage = BlobStore(self.sim, name="evop-store")
        self.multicloud.register_blobstore("private", self.storage)
        self.warehouse = DataWarehouse(self.storage)
        self.access = AccessPolicy()
        # the view model executions read data through: delegated compute
        # may use restricted datasets without handing them to end users
        self.model_warehouse = GuardedWarehouse(
            self.warehouse, self.access, MODEL_RUNNER)
        self.catalog = AssetCatalog()

        # services fabric
        self.network = Network(self.sim, streams=self.streams)
        self.registry = ServiceRegistry()

        # resilience fabric: one breaker registry and one client shared
        # by every consumer, so a tripped service×location is respected
        # deployment-wide, not per-widget
        self.resilience_metrics = MetricsRegistry(self.sim,
                                                  namespace="resilience")
        self.breakers = observed_breakers(self.sim,
                                          metrics=self.resilience_metrics)
        # widget-grade patience by default: portal sessions would rather
        # wait out provisioning than surface an error page; tighter
        # per-call timeouts/deadlines still apply where callers set them
        self.resilient = ResilientClient(
            self.sim, self.network, service="wps", policy=WIDGET_RETRY,
            streams=self.streams, breakers=self.breakers,
            metrics=self.resilience_metrics)

        # model library
        self.images = ImageStore()
        self.library = ModelLibrary(self.images)

        # infrastructure manager
        self.sessions = SessionTable(self.sim)
        # the monitor's check/fault counters feed the replica-health SLO
        # — the signal that catches single-replica faults the request-
        # level availability ratio dilutes away once the LB fails over
        self.broker_metrics = MetricsRegistry(self.sim, namespace="broker")
        self.monitor = HealthMonitor(
            self.sim, interval=self.config.health_interval,
            window=self.config.health_window, metrics=self.broker_metrics)
        policy_cls = _POLICIES.get(self.config.policy)
        if policy_cls is None:
            raise ValueError(f"unknown policy {self.config.policy!r}; "
                             f"choose from {sorted(_POLICIES)}")
        self.policy: SchedulingPolicy = policy_cls()
        # the scheduling plane: N per-shard Load Balancers (shard 0 is
        # also exposed as ``self.lb`` for single-shard callers) sharing
        # one capacity ledger, fronted by a rendezvous-hashing router;
        # the ledger and router share one registry so the telemetry
        # plane sees the whole plane as the ``sched`` service
        self.sched_metrics = MetricsRegistry(self.sim, namespace="sched")
        self.ledger = CapacityLedger(self.sim, metrics=self.sched_metrics)
        shard_lbs = [
            LoadBalancer(
                self.sim, self.multicloud, self.network, self.sessions,
                self.policy, monitor=self.monitor, registry=self.registry,
                autoscale_interval=self.config.autoscale_interval,
                breakers=self.breakers, shard_id=shard_id,
                ledger=self.ledger)
            for shard_id in range(self.config.shards)]
        self.lb = shard_lbs[0]
        self.sched = ShardedRouter(self.sim, shard_lbs, ledger=self.ledger,
                                   multicloud=self.multicloud,
                                   metrics=self.sched_metrics)
        self.multicloud.attach_resilience(self.breakers)
        self.injector = FaultInjector(self.sim, [self.private, self.public],
                                      streams=self.streams,
                                      network=self.network,
                                      stores={"private": self.storage})

        # durable execution: every journaled run lives in the blob
        # store, and the recovery manager listens to the same health
        # verdicts that drive LB replacement
        self.journals = JournalStore(self.sim, self.storage)
        self.recovery = RecoveryManager(self.sim, self.journals,
                                        monitor=self.monitor)

        # exactly-once at the API edge: one shared idempotency index so
        # a key admitted by any replica of any service is honoured by
        # all of them — a retried Execute lands on a different replica
        # and still replays the original response
        self.idempotency = IdempotencyIndex(
            self.sim, self.storage.create_container("idempotency"))

        self.rb: Optional[ResourceBroker] = None
        self.left_tools: Dict[str, LeftTool] = {}
        self.truths: Dict[str, Dict[str, TimeSeries]] = {}
        self.wps_services: Dict[str, Any] = {}
        self.telemetry: Optional[TelemetryPlane] = None
        self.dataplane: Optional[Any] = None
        self.tenants: Optional[Any] = None
        self.ratelimit: Optional[Any] = None
        self.read_api: Optional[Any] = None
        self._bootstrapped = False

    # -- lifecycle ------------------------------------------------------------------

    def bootstrap(self) -> "Evop":
        """Publish models, start services, deploy sensors, open the RB."""
        if self._bootstrapped:
            return self
        self._gateway_up()
        for name in self.config.catchments:
            catchment = STUDY_CATCHMENTS[name]
            self._publish_models(catchment)
            self._manage_service(catchment)
            self._instrument_catchment(catchment)
        self._bootstrapped = True
        if self.config.telemetry_interval is not None:
            self.enable_telemetry(self.config.telemetry_interval)
        return self

    def run_until(self, t: float) -> float:
        """Advance the simulation to absolute time ``t``."""
        return self.sim.run(until=t)

    def run_for(self, seconds: float) -> float:
        """Advance the simulation by ``seconds``."""
        return self.sim.run(until=self.sim.now + seconds)

    # -- wiring helpers ----------------------------------------------------------------

    def _gateway_up(self) -> None:
        """Boot the Resource Broker's own host and its push gateway."""
        gateway_image = self.images.create("broker-host", ImageKind.GENERIC,
                                           size_gb=1.5)
        gateway_instance = self.private.launch(gateway_image, SMALL)
        self.sim.run(until=self.sim.now + 120.0)
        gateway = PushGateway(self.sim, gateway_instance,
                              streams=self.streams)
        self.rb = ResourceBroker(self.sim, self.sched, self.sessions,
                                 gateway)

    def _publish_models(self, catchment: Catchment) -> None:
        def topmodel_factory(c: Catchment):
            return make_topmodel_process(c, warehouse=self.model_warehouse)

        def fuse_factory(c: Catchment):
            return make_fuse_process(c, warehouse=self.model_warehouse)

        self.library.publish_streamlined(
            f"topmodel-{catchment.name}", catchment, topmodel_factory,
            calibration=CalibrationRecord(
                catchment=catchment.name, objective="NSE", score=0.82,
                parameters={"m": 15.0, "td": 0.5}, iterations=500),
            dataset_ids=(f"{catchment.name}/rainfall",
                         f"{catchment.name}/discharge"),
        )
        self.library.publish_streamlined(
            f"fuse-{catchment.name}", catchment, fuse_factory,
            calibration=CalibrationRecord(
                catchment=catchment.name, objective="NSE", score=0.78,
                parameters={"k_base": 0.02}, iterations=500),
            dataset_ids=(f"{catchment.name}/rainfall",),
            bundle_size_gb=7.0,
        )
        # the stakeholders' next storyboard ships on the incubator path -
        # exactly what the paper calls "a useful testing ground"
        def quality_factory(c: Catchment):
            return make_water_quality_process(
                c, warehouse=self.model_warehouse)

        self.library.publish_experimental(
            f"water-quality-{catchment.name}", catchment, quality_factory,
            install_minutes=6.0)

    def service_name(self, catchment_name: str) -> str:
        """The managed-service name of one catchment's LEFT models."""
        return f"left-{catchment_name}"

    def _manage_service(self, catchment: Catchment) -> None:
        status = self.storage.create_container(f"wps-status-{catchment.name}")
        wps = self.library.build_service(
            self.sim, self.service_name(catchment.name),
            [f"topmodel-{catchment.name}", f"fuse-{catchment.name}",
             f"water-quality-{catchment.name}"],
            status, {catchment.name: catchment})
        wps.api.idempotency = self.idempotency
        self.wps_services[catchment.name] = wps
        image = self.library.image_for(f"topmodel-{catchment.name}")

        def make_server(instance):
            return wps.replica(instance).bind(self.network)

        service = ManagedService(
            name=self.service_name(catchment.name),
            image=image,
            flavor=MEDIUM,
            make_server=make_server,
            purpose="modelling",
            sessions_per_replica=self.config.sessions_per_replica,
            min_replicas=self.config.min_replicas,
            max_replicas=self.config.max_replicas,
        )
        self.sched.manage(service)

    def _instrument_catchment(self, catchment: Catchment) -> None:
        """Generate truth series, deploy sensors, fill the catalogue."""
        hours = self.config.truth_days * 24
        generator = catchment.weather_generator(
            self.streams.fork(catchment.name))
        storm = DesignStorm(
            start_hour=self.config.storm_day * 24,
            duration_hours=8,
            total_depth_mm=self.config.storm_depth_mm)
        rain = generator.rainfall_with_storm(hours, storm,
                                             start_day_of_year=330)
        temperature = generator.temperature(hours, start_day_of_year=330)
        flow = catchment.topmodel().run(
            rain, parameters=TopmodelParameters(q0_mm_h=0.3)).flow
        # stage-discharge: a simple rating curve for the level sensor
        level = flow.map(lambda q: 0.3 + 0.45 * math.sqrt(max(0.0, q)))
        turbidity = flow.map(lambda q: 4.0 + 18.0 * q)
        self.truths[catchment.name] = {
            "rainfall": rain, "temperature": temperature,
            "flow": flow, "level": level, "turbidity": turbidity,
        }
        self.warehouse.put_series(f"{catchment.name}/rainfall", rain,
                                  provenance="synthetic truth")
        self.warehouse.put_series(f"{catchment.name}/discharge", flow,
                                  provenance="synthetic truth")

        def lookup(series: TimeSeries):
            last = series.end - series.dt

            def truth(t: float) -> float:
                return series.at(min(max(t, series.start), last))

            return truth

        assert self.rb is not None
        tool = LeftTool(self.sim, catchment, self.catalog, self.network,
                        self.rb, self.service_name(catchment.name),
                        streams=self.streams, resilient=self.resilient)
        tool.deploy_sensors(
            river_level_truth=lookup(level),
            rainfall_truth=lookup(rain),
            temperature_truth=lookup(temperature),
            turbidity_truth=lookup(turbidity),
        )
        tool.build_catalog()
        self.left_tools[catchment.name] = tool

    def expose_sos(self, catchment_name: Optional[str] = None,
                   replicas: int = 1) -> str:
        """Publish a catchment's sensor network as an OGC SOS service.

        Returns the managed-service name.  Deployed on demand (not at
        bootstrap) so minimal deployments stay minimal; the service is
        LB-managed like any other and serves GetCapabilities /
        DescribeSensor / GetObservation for every in-situ instrument.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        name = catchment_name or self.config.catchments[0]
        service_name = f"sos-{name}"
        if any(s.name == service_name for s in self.sched.services()):
            return service_name
        from repro.cloud.flavors import SMALL
        from repro.services.sos import SosService

        tool = self.left_tools[name]
        sos = SosService(self.sim, service_name, tool.sensors)
        sos_image = self.images.create(f"sos-host-{name}", ImageKind.GENERIC,
                                       size_gb=1.2)

        def make_server(instance):
            return sos.replica(instance).bind(self.network)

        self.sched.manage(ManagedService(
            name=service_name,
            image=sos_image,
            flavor=SMALL,
            make_server=make_server,
            purpose="sensor-data",
            sessions_per_replica=32,
            min_replicas=replicas,
        ))
        return service_name

    # -- the CQRS data plane ------------------------------------------------------------

    def enable_dataplane(self, consumer_count: int = 2,
                         window_hours: float = 24.0):
        """Start the event-sourced data plane and wire every producer.

        Sensor ingests, warehouse writes and WPS run lifecycle events
        flow through transactional outboxes into append-only streams;
        competing consumers fold them into the materialized read models
        served by :meth:`expose_read_api`.  Idempotent: returns the
        existing plane on repeat calls.
        """
        if self.dataplane is not None:
            return self.dataplane
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        from repro.dataplane import DataPlane

        plane = DataPlane(self.sim, self.storage,
                          consumer_count=consumer_count,
                          window_hours=window_hours)
        self.warehouse.attach_outbox(plane.outbox)
        for tool in self.left_tools.values():
            tool.sensors.attach_outbox(plane.outbox)
        for wps in self.wps_services.values():
            wps.attach_outbox(plane.outbox)
        plane.start()
        if self.telemetry is not None:
            self.telemetry.watch_dataplane(plane)
        self.dataplane = plane
        return plane

    def expose_read_api(self, replicas: int = 1) -> str:
        """Publish the materialized views as the managed ``read`` service.

        Deployed on demand like :meth:`expose_sos`; requires
        :meth:`enable_dataplane` (called implicitly here if needed).
        Returns the managed-service name.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        if self.dataplane is None:
            self.enable_dataplane()
        service_name = "read"
        if any(s.name == service_name for s in self.sched.services()):
            return service_name
        from repro.services.readapi import build_read_api
        from repro.services.rest import RestServer

        api = build_read_api(self.sim, self.dataplane,
                             tenants=self.tenants, limiter=self.ratelimit)
        self.read_api = api
        read_image = self.images.create("read-host", ImageKind.GENERIC,
                                        size_gb=1.0)

        def make_server(instance):
            return RestServer(self.sim, api, instance).bind(self.network)

        self.sched.manage(ManagedService(
            name=service_name,
            image=read_image,
            flavor=SMALL,
            make_server=make_server,
            purpose="read-model",
            sessions_per_replica=64,
            min_replicas=replicas,
        ))
        return service_name

    # -- tenancy ------------------------------------------------------------------------

    def enable_tenancy(self, registry: Optional[Any] = None,
                       specs: Optional[List[Any]] = None,
                       default_rate: Optional[float] = None,
                       default_burst: Optional[float] = None,
                       require_tenant: bool = False):
        """Install the tenancy plane: registry, fair lanes, token buckets.

        One :class:`~repro.tenancy.TenantRegistry` (built from ``specs``
        unless an existing ``registry`` is handed in) becomes the single
        source of truth across the layers:

        * every shard Dispatcher starts weighting its per-class DRR
          lanes by the registry's weights and crediting dequeues back
          into its fairness accounting;
        * the capacity ledger enforces each spec's ``vcpu_quota``;
        * every deployed ``/v1`` API (WPS now, the read API when
          :meth:`expose_read_api` runs) validates the ``Tenant`` header
          and admits through a per-tenant token bucket — exhausted
          buckets answer 429 with ``Retry-After``.

        ``require_tenant`` makes the header mandatory (401 without it);
        the default keeps anonymous traffic on the ``default`` tenant.
        Idempotent: returns the existing registry on repeat calls.
        """
        if self.tenants is not None:
            return self.tenants
        from repro.tenancy import RateLimiter, TenantRegistry

        if registry is None:
            registry = TenantRegistry(specs=specs)
        self.tenants = registry
        self.ratelimit = RateLimiter(
            self.sim, registry, default_rate=default_rate,
            default_burst=default_burst, metrics=self.sched_metrics)
        self.sched.attach_tenants(registry)
        for spec in registry:
            if spec.vcpu_quota is not None:
                self.ledger.set_tenant_quota(spec.tenant_id,
                                             spec.vcpu_quota)
        for wps in self.wps_services.values():
            wps.api.tenants = registry
            wps.api.limiter = self.ratelimit
            wps.api.require_tenant = require_tenant
        if self.read_api is not None:
            self.read_api.tenants = registry
            self.read_api.limiter = self.ratelimit
            self.read_api.require_tenant = require_tenant
        return registry

    # -- observability ------------------------------------------------------------------

    def enable_telemetry(self, interval: float = 5.0) -> TelemetryPlane:
        """Start the telemetry plane: scraper, default SLOs, alert fan-out.

        Registers every subsystem registry under service/location/shard
        labels, adds live saturation probes, and declares the default
        SLOs the fleet is operated against:

        * availability — ≥ 99.9 % of resilient-client *attempts* succeed
          (attempt failures are the early signal: retries and failover
          keep final-status error counters flat while the fleet is
          actually impaired);
        * latency — ≥ 95 % of resilient requests complete within 5 s,
          read exactly from the scraped histogram bucket series;
        * freshness — the scraper's own sample stream never gaps.

        Alert transitions emit ``obs.alert.*`` events and broadcast over
        the RB's push gateway when one is up — operators get paged on
        the same channel fabric that pushes sensor readings to widgets.
        """
        if self.telemetry is not None:
            return self.telemetry

        def notify(payload: Dict[str, object]) -> None:
            if self.rb is not None:
                self.rb.gateway.broadcast({"channel": "ops.alerts",
                                           **payload})

        plane = TelemetryPlane(self.sim, interval=interval, notifier=notify)
        plane.watch_registry(self.resilience_metrics, service="resilience")
        plane.watch_registry(self.sched_metrics, service="sched")
        plane.watch_registry(obs_of(self.sim).api_metrics, service="rest")
        for shard, lb in enumerate(self.sched.lbs):
            plane.watch_registry(lb.metrics, service="lb", shard=str(shard))
        for location in ("private", "public"):
            provider = self.private if location == "private" else self.public
            plane.watch_registry(provider.metrics, service="cloud",
                                 location=location)
        if self.rb is not None:
            plane.watch_registry(self.rb.gateway.metrics, service="channels")
        for name, labels, fn in self.sched.probes():
            plane.watch_probe(name, fn, **labels)
        for location in self.multicloud.locations():
            plane.watch_probe(
                "instances",
                lambda loc=location: float(
                    len(self.multicloud.list_nodes(loc))),
                service="cloud", location=location)
        plane.watch_registry(self.broker_metrics, service="broker")
        plane.watch_probe("sessions.active",
                          lambda: float(len(self.sessions.active())),
                          service="broker")
        hub = obs_of(self.sim)
        plane.watch_probe("events.dropped",
                          lambda: float(hub.events.dropped),
                          service="obs")
        plane.watch_probe("spans.dropped",
                          lambda: float(hub.tracer.dropped),
                          service="obs")
        if self.dataplane is not None:
            plane.watch_dataplane(self.dataplane)

        plane.add_slo(SLO.availability(
            "wps-attempt-availability", total="attempts",
            errors="attempt.failures", target=0.999, service="resilience"))
        # one blackholed replica in a pool of many barely moves request
        # availability once the LB routes around it — but it shows in
        # the health-check fault ratio the moment the monitor sees it.
        # The default burn windows suit sustained request ratios; this
        # ratio is zero in steady state and the LB replaces a faulted
        # replica within a couple of verdicts, so the rule gets one
        # high-sensitivity pair: any fault verdict in the last minute,
        # still visible over five, pages.
        plane.add_slo(SLO.availability(
            "replica-health", total="health.checks",
            errors="health.faults", target=0.999, service="broker"),
            windows=((300.0, 60.0, 2.0),))
        plane.add_slo(SLO.latency(
            "wps-request-latency", metric="request.duration",
            threshold=5.0, target=0.95, service="resilience"))
        plane.add_slo(SLO.freshness(
            "telemetry-freshness", series="scrape.samples",
            max_age=3.0 * interval, target=0.99, service="telemetry"))

        self.telemetry = plane.start()
        return plane

    def expose_observability(self, replicas: int = 1) -> str:
        """Publish the telemetry plane as a managed REST service.

        Deployed on demand like :meth:`expose_sos`; requires
        :meth:`enable_telemetry` (called implicitly here if needed).
        Returns the managed-service name.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        if self.telemetry is None:
            self.enable_telemetry()
        service_name = "observability"
        if any(s.name == service_name for s in self.sched.services()):
            return service_name
        from repro.services.obsapi import build_observability_api
        from repro.services.rest import RestServer

        api = build_observability_api(self.sim, self.telemetry,
                                      obs_of(self.sim).tracer)
        obs_image = self.images.create("observability-host",
                                       ImageKind.GENERIC, size_gb=1.0)

        def make_server(instance):
            return RestServer(self.sim, api, instance).bind(self.network)

        self.sched.manage(ManagedService(
            name=service_name,
            image=obs_image,
            flavor=SMALL,
            make_server=make_server,
            purpose="operations",
            sessions_per_replica=16,
            min_replicas=replicas,
        ))
        return service_name

    # -- conveniences -------------------------------------------------------------------

    def left(self, catchment_name: Optional[str] = None) -> LeftTool:
        """The LEFT tool of one catchment (default: the first configured)."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        name = catchment_name or self.config.catchments[0]
        return self.left_tools[name]

    def cost_report(self) -> Dict[str, float]:
        """Accrued cost per provider plus the total."""
        report = self.meter.cost_by_provider()
        report["total"] = sum(report.values())
        return report

    def instances_by_location(self) -> Dict[str, int]:
        """Live instance counts per location."""
        return {location: len(self.multicloud.list_nodes(location))
                for location in self.multicloud.locations()}
