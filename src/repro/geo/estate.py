"""The geo-distributed estate builder.

One :class:`GeoEstate` wires the full stack — providers, blob store,
warehouse, journals, health monitor, recovery, shard LBs, router and a
managed REST service — once per region, then layers the geo control
plane on top: shared :class:`~repro.geo.topology.RegionTopology`,
:class:`~repro.geo.replication.Replicator` (warehouse + run journals),
:class:`~repro.geo.election.LeaderElection` +
:class:`~repro.geo.ledger.GeoLedger`,
:class:`~repro.geo.routing.GeoRouter` (with per-region
:class:`~repro.geo.routing.RegionGuard`s on the REST apis) and the
:class:`~repro.geo.failover.FailoverCoordinator`.

Every region count runs the same wiring: ``regions=1`` is one cell
with its own elected leader, replicator and failover coordinator, not
a separate single-region stack.  ``benchmarks/bench_multi_region.py``
pins that its sessions are placed exactly as on a hand-wired
single-region stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.broker import (
    HealthMonitor,
    LoadBalancer,
    ManagedService,
    PrivateFirstPolicy,
    SessionTable,
)
from repro.cloud import (
    MEDIUM,
    AwsCloud,
    BlobStore,
    Container,
    FaultInjector,
    ImageKind,
    ImageStore,
    MultiCloud,
    OpenStackCloud,
)
from repro.data.warehouse import DataWarehouse
from repro.durable import JournalStore, RecoveryManager
from repro.geo.election import LeaderElection
from repro.geo.failover import FailoverCoordinator
from repro.geo.ledger import GeoLedger
from repro.geo.replication import Replicator
from repro.geo.routing import GeoRouter, RegionGuard
from repro.geo.topology import RegionTopology, qualify
from repro.sched import PriorityClass, ShardedRouter
from repro.services import Network, RestApi, RestServer
from repro.sim import RandomStreams, Simulator

#: Default region names, preference order (the ring).
REGIONS = ("eu-west", "us-east", "ap-south")


@dataclass
class GeoCell:
    """One region's full copy of the stack."""

    region: str
    private: OpenStackCloud
    public: AwsCloud
    store: BlobStore
    warehouse: DataWarehouse
    journals: JournalStore
    monitor: HealthMonitor
    recovery: RecoveryManager
    lbs: List[LoadBalancer]
    router: ShardedRouter
    api: RestApi
    service: ManagedService
    guard: Optional[RegionGuard] = None
    providers: List[object] = field(default_factory=list)


class GeoEstate:
    """1–3 regions of the full stack; with 2–3, any single one is
    expendable."""

    def __init__(self, regions: Union[int, Sequence[str]] = 1,
                 shards_per_region: int = 1,
                 private_vcpus: int = 64, sessions_per_replica: int = 4,
                 min_replicas: int = 1, max_replicas: int = 16,
                 autoscale_interval: float = 10.0,
                 health_interval: float = 5.0,
                 capacity: Optional[Dict[str, int]] = None,
                 replication_interval: float = 5.0,
                 election_ttl: float = 10.0,
                 election_check: float = 1.0,
                 failover_interval: float = 2.0,
                 spillover_depth: Optional[int] = None,
                 service_name: str = "portal", seed: int = 42):
        if isinstance(regions, int):
            if not 1 <= regions <= len(REGIONS):
                raise ValueError(f"regions must be 1..{len(REGIONS)}")
            names = list(REGIONS[:regions])
        else:
            names = list(regions)
        self.service_name = service_name

        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.multi = MultiCloud()
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        self.topology = RegionTopology(self.sim, names)
        self.images = ImageStore()
        self.image = self.images.create(service_name, ImageKind.GENERIC,
                                        size_gb=1.0)

        global_capacity: Optional[Dict[str, int]] = None
        if capacity is not None:
            global_capacity = {qualify(region, location): vcpus
                               for region in names
                               for location, vcpus in capacity.items()}
        self.cells: Dict[str, GeoCell] = {}
        election_leases: Dict[str, Container] = {}
        all_providers: List[object] = []

        for region in names:
            private = OpenStackCloud(self.sim, total_vcpus=private_vcpus,
                                     streams=self.streams,
                                     name=f"openstack-{region}")
            public = AwsCloud(self.sim, streams=self.streams,
                              name=f"aws-{region}")
            store = BlobStore(self.sim, name=f"{region}-store")
            self.multi.register_compute(qualify(region, "private"), private,
                                        region=region)
            self.multi.register_compute(qualify(region, "public"), public,
                                        region=region)
            self.multi.register_blobstore(qualify(region, "private"), store,
                                          region=region)
            election_leases[region] = store.create_container("geo-election")
            all_providers.extend([private, public])
            self.cells[region] = GeoCell(
                region=region, private=private, public=public, store=store,
                warehouse=DataWarehouse(store),
                journals=JournalStore(self.sim, store),
                monitor=HealthMonitor(self.sim, interval=health_interval,
                                      window=3),
                recovery=None, lbs=[], router=None, api=None, service=None,
                providers=[private, public])

        self.election = LeaderElection(
            self.sim, self.topology, election_leases,
            ttl=election_ttl, check_interval=election_check)
        self.geo_ledger = GeoLedger(self.sim, self.election, self.topology,
                                    capacity=global_capacity)
        for region in names:
            self.geo_ledger.add_region(region)

        for region in names:
            cell = self.cells[region]
            cell.recovery = RecoveryManager(self.sim, cell.journals,
                                            monitor=cell.monitor)
            scoped = self.multi.scoped(region)
            handle = self.geo_ledger.handle(region)
            cell.lbs = [LoadBalancer(self.sim, scoped, self.network,
                                     self.sessions, PrivateFirstPolicy(),
                                     monitor=cell.monitor,
                                     autoscale_interval=autoscale_interval,
                                     shard_id=shard, ledger=handle)
                        for shard in range(shards_per_region)]
            cell.router = ShardedRouter(self.sim, cell.lbs, ledger=handle,
                                        multicloud=scoped)
            cell.api = RestApi(self.service_name)
            cell.api.get("/ping", lambda req, p: {"pong": True})
            cell.service = ManagedService(
                name=self.service_name, image=self.image, flavor=MEDIUM,
                make_server=self._server_factory(cell),
                sessions_per_replica=sessions_per_replica,
                min_replicas=min_replicas, max_replicas=max_replicas)

        self.replicator = Replicator(self.sim, self.topology,
                                     interval=replication_interval)
        for region in names:
            self.replicator.add_site(region, self.cells[region].store)
        for container in (DataWarehouse.CONTAINER, "run-journals",
                          "run-journals-payloads"):
            self.replicator.replicate(container)

        self.failover = FailoverCoordinator(self.sim, self.topology,
                                            None, self.sessions,
                                            check_interval=failover_interval)
        for region in names:
            cell = self.cells[region]
            self.failover.add_region(region, cell.monitor, cell.providers,
                                     cell.store, recovery=cell.recovery)
        self.injector = FaultInjector(self.sim, all_providers,
                                      streams=self.streams,
                                      network=self.network)
        for region in names:
            self.injector.register_region(
                region, self.cells[region].providers,
                [self.cells[region].store])

        self.geo_router = GeoRouter(
            self.sim, self.topology,
            {region: cell.router for region, cell in self.cells.items()},
            spillover_depth=spillover_depth)
        for region, cell in self.cells.items():
            cell.guard = RegionGuard(self.geo_router, region)
            cell.api.guard = cell.guard
        self._started = False

    def _server_factory(self, cell: GeoCell):
        return lambda inst: RestServer(self.sim, cell.api, inst) \
            .bind(self.network)

    # -- lifecycle -----------------------------------------------------------

    def manage(self, initial_replicas: Optional[int] = None) -> "GeoEstate":
        """Put every region's service under router management."""
        for cell in self.cells.values():
            cell.router.manage(cell.service, initial_replicas)
        return self

    def start(self) -> "GeoEstate":
        """Start the geo control-plane processes."""
        if self._started:
            return self
        self._started = True
        self.failover.georouter = self.geo_router
        self.election.start()
        self.replicator.start()
        self.failover.start()
        return self

    def warm(self, until: float = 300.0,
             initial_replicas: Optional[int] = None) -> "GeoEstate":
        """Manage, start and run until every region serves."""
        self.manage(initial_replicas)
        self.start()
        self.sim.run(until=until)
        return self

    # -- traffic -------------------------------------------------------------

    def submit(self, user_name: str, origin: Optional[str] = None,
               priority: PriorityClass = PriorityClass.INTERACTIVE):
        """Create a session and route it; returns the session."""
        session = self.sessions.create(user_name)
        self.geo_router.submit_session(session, self.service_name,
                                       priority=priority, origin=origin)
        return session

    def regions(self) -> List[str]:
        """The estate's regions in ring order."""
        return self.topology.regions()
