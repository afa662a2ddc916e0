"""Geo-distributed estate: replication, election, ledger, failover."""

import pytest

from repro.cloud import BlobStore, MultiCloud, OpenStackCloud
from repro.cloud.errors import CloudError
from repro.geo import (
    GeoEstate,
    GeoLedger,
    GeoRouter,
    LeaderElection,
    RegionGuard,
    RegionStatus,
    RegionTopology,
    Replicator,
    VersionVector,
    qualify,
)
from repro.hydrology.timeseries import TimeSeries
from repro.resilience.policy import RetryPolicy
from repro.services.transport import HttpRequest
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


# -- topology ----------------------------------------------------------------


def test_topology_ring_and_status(sim):
    topo = RegionTopology(sim, ["a", "b", "c"])
    assert topo.nearest("b") == ["b", "c", "a"]
    assert topo.nearest(None) == ["a", "b", "c"]
    topo.mark("a", RegionStatus.DOWN)
    assert topo.is_down("a")
    assert topo.available() == ["b", "c"]
    assert topo.nearest_available("a") == "b"
    assert len(topo.transitions) == 1


def test_topology_rejects_duplicates(sim):
    with pytest.raises(ValueError):
        RegionTopology(sim, ["a", "a"])
    with pytest.raises(ValueError):
        RegionTopology(sim, [])


# -- multicloud regions (satellite: duplicate registration) ------------------


def test_multicloud_duplicate_blobstore_raises(sim):
    multi = MultiCloud()
    store = BlobStore(sim, name="s1")
    multi.register_blobstore("private", store)
    with pytest.raises(ValueError):
        multi.register_blobstore("private", BlobStore(sim, name="s2"))


def test_multicloud_scoped_view_translates_labels(sim):
    multi = MultiCloud()
    eu = OpenStackCloud(sim, total_vcpus=8, name="os-eu")
    us = OpenStackCloud(sim, total_vcpus=8, name="os-us")
    multi.register_compute("eu/private", eu, region="eu")
    multi.register_compute("us/private", us, region="us")
    assert multi.regions() == ["eu", "us"]
    scoped = multi.scoped("eu")
    assert scoped.locations() == ["private"]
    assert scoped.compute("private") is eu
    assert scoped.qualify("private") == "eu/private"
    with pytest.raises(CloudError):
        multi.scoped("ap")


# -- version vectors ---------------------------------------------------------


def test_version_vector_algebra():
    a = VersionVector.of({}).increment("eu").increment("eu")
    b = VersionVector.of({}).increment("us")
    assert a.get("eu") == 2 and a.get("us") == 0
    assert a.concurrent(b) and b.concurrent(a)
    merged = a.merge(b)
    assert merged.descends(a) and merged.descends(b)
    assert merged.increment("eu").descends(merged)
    assert not a.descends(merged)


# -- replication -------------------------------------------------------------


def _two_sites(sim, interval=5.0):
    topo = RegionTopology(sim, ["eu", "us"])
    stores = {r: BlobStore(sim, name=f"{r}-store") for r in topo.regions()}
    repl = Replicator(sim, topo, interval=interval)
    for region, store in stores.items():
        repl.add_site(region, store)
    repl.replicate("data")
    for store in stores.values():
        store.create_container("data")
    return topo, stores, repl


def test_replicator_ships_within_one_interval(sim):
    _, stores, repl = _two_sites(sim, interval=5.0)
    repl.start()
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=20.0)
    assert stores["us"].container("data").get("k").payload == {"v": 1}
    # RPO: lag never exceeds one replication interval
    assert 0 < repl.max_lag() <= 5.0


def test_replicator_converges_concurrent_writes(sim):
    _, stores, repl = _two_sites(sim)
    repl.start()
    sim.run(until=6.0)
    stores["eu"].container("data").put("k", {"site": "eu"})
    stores["us"].container("data").put("k", {"site": "us"})
    sim.run(until=30.0)
    eu = stores["eu"].container("data").get("k").payload
    us = stores["us"].container("data").get("k").payload
    assert eu == us
    assert repl.conflicts >= 1


def test_replicator_skips_faulted_site_then_catches_up(sim):
    _, stores, repl = _two_sites(sim, interval=2.0)
    repl.start()
    stores["us"].set_fault("unavailable")
    stores["eu"].container("data").put("k", {"v": 1})
    sim.run(until=10.0)
    stores["us"].clear_fault()
    sim.run(until=20.0)
    assert stores["us"].container("data").get("k").payload == {"v": 1}


# -- leader election ---------------------------------------------------------


def _election(sim, regions=("eu", "us", "ap"), ttl=6.0):
    topo = RegionTopology(sim, list(regions))
    stores = {r: BlobStore(sim, name=f"{r}-store") for r in regions}
    leases = {r: stores[r].create_container("geo-election")
              for r in regions}
    election = LeaderElection(sim, topo, leases, ttl=ttl,
                              check_interval=1.0)
    return topo, stores, election


def test_election_elects_nearest_and_renews(sim):
    topo, _, election = _election(sim)
    election.start()
    sim.run(until=30.0)
    assert election.leader() == "eu"
    assert election.term == 1
    assert len(election.elections) == 1      # renewed, not re-elected


def test_election_storage_stays_bounded(sim):
    # renewals rewrite the lease blob: two simulated hours of half-TTL
    # renewals leave one blob per region, not one record per renewal
    topo, stores, election = _election(sim)
    election.start()
    sim.run(until=7200.0)
    assert election.leader() == "eu"
    for region in topo.regions():
        assert len(stores[region].container("geo-election").list()) == 1


def test_reelection_within_bound_and_term_grows(sim):
    topo, _, election = _election(sim, ttl=6.0)
    election.start()
    sim.run(until=10.0)
    topo.mark("eu", RegionStatus.DOWN)
    down_at = sim.now
    sim.run(until=down_at + election.reelection_bound + 1.0)
    assert election.leader() == "us"
    assert election.term == 2
    _, elected_at = (election.elections[-1][1],
                     election.elections[-1][0])
    assert elected_at - down_at <= election.reelection_bound


# -- geo ledger (satellite: leader hand-off, fencing, no double commit) ------


def _geo_ledger(sim, capacity=8):
    topo, stores, election = _election(sim)
    election.start()
    cap = {qualify(r, "private"): capacity for r in topo.regions()}
    geo = GeoLedger(sim, election, topo, capacity=cap)
    for region in topo.regions():
        geo.add_region(region)
    sim.run(until=5.0)
    return topo, election, geo


def test_ledger_leader_handoff_no_double_commit(sim):
    topo, election, geo = _geo_ledger(sim, capacity=8)
    handle = geo.handle("eu")
    assert handle.admit("private", 4)
    handle.commit("private", 4)
    # leader region dies mid-admission: until re-election, admissions
    # are refused — never guessed
    topo.mark("eu", RegionStatus.DOWN)
    assert geo.admit(qualify("eu", "private"), 4) is False
    assert geo.no_leader_refusals == 1
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert election.leader() == "us"
    # the new leader's replica already holds the fact: the remaining
    # headroom is 4, so 8 more would double-commit and must be refused
    assert geo.admit(qualify("eu", "private"), 8) is False
    assert geo.admit(qualify("eu", "private"), 4) is True
    geo.commit(qualify("eu", "private"), 4)
    assert geo.committed(qualify("eu", "private")) == 8
    assert geo.overcommits == 0


def test_ledger_fences_stale_leader_grant(sim):
    topo, election, geo = _geo_ledger(sim)
    stale_term = election.term
    topo.mark("eu", RegionStatus.DOWN)
    sim.run(until=sim.now + election.reelection_bound + 1.0)
    assert election.term > stale_term
    # the deposed leader's in-flight decision arrives late: fenced
    assert geo.admit_as("eu", stale_term, qualify("us", "private"), 1) is False
    assert geo.fenced == 1
    leader = election.leader()
    assert geo.admit_as(leader, election.term,
                        qualify("us", "private"), 1) is True


# -- geo routing -------------------------------------------------------------


class _StubRouter:
    def __init__(self):
        self.submitted = []
        self.depth = 0

    def submit_session(self, session, service, priority=None):
        self.submitted.append(session)
        return 0

    def depths(self):
        return {0: {"portal": {"interactive": self.depth}}}


class _StubSession:
    _ids = iter(range(10**6))

    def __init__(self):
        self.session_id = f"s-{next(self._ids)}"
        self.priority = None


def test_georouter_single_region_serves_and_stamps(sim):
    topo = RegionTopology(sim, ["only"])
    router = _StubRouter()
    geo = GeoRouter(sim, topo, {"only": router})
    session = _StubSession()
    assert geo.submit_session(session, "portal") == "only"
    assert router.submitted == [session]
    # one region runs the general rules: the session is stamped home
    assert session.region == "only"


def test_georouter_sticky_nearest_and_spillover(sim):
    topo = RegionTopology(sim, ["eu", "us", "ap"])
    routers = {r: _StubRouter() for r in topo.regions()}
    geo = GeoRouter(sim, topo, routers, spillover_depth=2)
    s1 = _StubSession()
    assert geo.submit_session(s1, "portal", origin="us") == "us"
    assert s1.region == "us"
    # sticky: resubmission goes home even from another origin
    assert geo.submit_session(s1, "portal", origin="ap") == "us"
    # brownout: queue past the bound spills to the next on the ring
    routers["us"].depth = 3
    s2 = _StubSession()
    assert geo.submit_session(s2, "portal", origin="us") == "ap"
    assert geo.spillovers == 1
    # every region browned out: nearest not-DOWN still serves
    for router in routers.values():
        router.depth = 3
    s3 = _StubSession()
    assert geo.submit_session(s3, "portal", origin="eu") == "eu"
    # all DOWN: refused
    for region in topo.regions():
        topo.mark(region, RegionStatus.DOWN)
    assert geo.submit_session(_StubSession(), "portal", origin="eu") is None
    assert geo.refused == 1


def test_region_guard_sheds_v1_with_problem_503(sim):
    topo = RegionTopology(sim, ["eu", "us"])
    routers = {r: _StubRouter() for r in topo.regions()}
    geo = GeoRouter(sim, topo, routers)
    guard = RegionGuard(geo, "eu", retry_after=15.0)
    request = HttpRequest("GET", "/v1/ping")
    # healthy: silent
    assert guard(request) is None
    topo.mark("eu", RegionStatus.DEGRADED)
    # degraded but a healthy sibling exists: still silent
    assert guard(request) is None
    topo.mark("us", RegionStatus.DOWN)
    denial = guard(request)
    assert denial.status == 503
    assert denial.headers["Retry-After"] == "15"
    assert denial.body["retryable"] is True
    assert denial.body["region"] == "eu"
    # RFC-7807 body drives the client retry classification
    assert RetryPolicy().should_retry(denial, safe=False) is True
    # unversioned paths are never shed
    assert guard(HttpRequest("GET", "/ping")) is None


# -- region chaos fault (satellite) ------------------------------------------


def test_region_outage_and_heal(sim):
    estate = GeoEstate(regions=2, private_vcpus=16).warm(until=80.0)
    region = estate.regions()[0]
    cell = estate.cells[region]
    serving = sum(len(p.serving_instances()) for p in cell.providers)
    assert serving >= 1
    estate.injector.region_outage(region)
    assert cell.store.faulted
    assert all(len(p.serving_instances()) == 0 for p in cell.providers)
    with pytest.raises(CloudError):
        cell.private.launch(estate.image,
                            next(iter(cell.private.flavors.values()))
                            if hasattr(cell.private, "flavors") else None)
    estate.injector.heal_region(region)
    assert not cell.store.faulted
    kinds = [f.kind for f in estate.injector.injected]
    assert "region_outage" in kinds and "heal_region" in kinds


# -- end-to-end failover -----------------------------------------------------


def test_two_region_failover_replaces_sessions(sim):
    estate = GeoEstate(regions=2, replication_interval=4.0).warm(until=100.0)
    regions = estate.regions()
    sessions = [estate.submit(f"u{i}", origin=regions[i % 2])
                for i in range(4)]
    estate.sim.run(until=140.0)
    assert all(s.state.value == "active" for s in sessions)
    victim = regions[0]
    survivor = regions[1]
    estate.cells[victim].warehouse.put_series(
        "obs", TimeSeries(0.0, 1.0, [1.0, 2.0]))
    estate.sim.run(until=150.0)
    estate.injector.region_outage(victim)
    estate.sim.run(until=250.0)
    report = estate.failover.reports[-1]
    assert report.region == victim
    assert report.adopter == survivor
    assert report.sessions_replaced == report.sessions_detached
    assert report.resettled_at is not None
    # every session serves from the survivor now
    assert all(s.state.value == "active" and s.region == survivor
               for s in sessions)
    # replicated warehouse data readable in the survivor (bounded RPO)
    series = estate.cells[survivor].warehouse.get_series("obs")
    assert series.values == [1.0, 2.0]
    assert estate.geo_ledger.overcommits == 0


def test_estate_single_region_runs_clean():
    estate = GeoEstate(regions=1).warm(until=100.0)
    session = estate.submit("alice")
    estate.sim.run(until=150.0)
    assert session.state.value == "active"
    # one region runs the geo control plane too, and leads itself
    assert estate.election.leader() == estate.regions()[0]


def test_single_region_recovers_from_outage():
    estate = GeoEstate(regions=1).warm(until=100.0)
    region = estate.regions()[0]
    cell = estate.cells[region]
    before = estate.submit("alice")
    estate.sim.run(until=150.0)
    estate.injector.region_outage(region)
    estate.sim.run(until=200.0)
    assert estate.topology.is_down(region)
    assert estate.election.leader() is None
    estate.injector.heal_region(region)
    estate.sim.run(until=400.0)
    # with no survivor the healed region rejoins, elects itself and
    # relaunches; its own queued session and a new one both serve
    assert estate.election.leader() == region
    assert sum(len(p.serving_instances()) for p in cell.providers) >= 1
    after = estate.submit("bob")
    estate.sim.run(until=450.0)
    assert after.state.value == "active" and after.region == region
    assert before.state.value == "active"
    assert estate.failover.reports[-1].restored_at is not None
