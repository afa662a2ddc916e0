"""First-class tenancy: DRR fairness, token buckets, the /v1 boundary.

Pins the refactor's load-bearing guarantees:

* deficit round robin is work-conserving, weighted within one quantum,
  and byte-for-byte FIFO with a single lane (the pre-tenancy path);
* the token bucket is a pure function of simulation time — admission
  decisions and ``Retry-After`` are deterministic;
* the ``Tenant`` header contract at the boundary: 400 malformed, 403
  strict-unknown, 401 missing-under-require, 429 with ``Retry-After``
  and ``X-RateLimit-*`` on exhaustion;
* idempotency keys are tenant-scoped — the same key from two tenants
  never replays across the boundary;
* per-tenant vcpu quotas in the capacity ledger, shed/guard events
  stamped with the tenant, and the admin console's tenants section.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import (
    HealthMonitor,
    LoadBalancer,
    ManagedService,
    PrivateFirstPolicy,
    ResourceBroker,
    SessionTable,
)
from repro.cloud import (
    AwsCloud,
    BlobStore,
    ImageKind,
    ImageStore,
    MEDIUM,
    MultiCloud,
    OpenStackCloud,
)
from repro.core.evop import Evop
from repro.core.admin import AdminConsole
from repro.geo import GeoRouter, RegionGuard, RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.sched import (
    CapacityLedger,
    ClassedQueue,
    Dispatcher,
    PriorityClass,
    ShardedRouter,
)
from repro.services import Network, PushGateway, RestApi, RestServer
from repro.services.idempotency import IdempotencyIndex, request_fingerprint
from repro.services.transport import HttpRequest
from repro.sim import RandomStreams, Simulator
from repro.tenancy import (
    DEFAULT_TENANT,
    RateLimiter,
    TENANT_HEADER,
    TenantContext,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    extract_tenant,
    inject_tenant,
    jain_index,
    valid_tenant_id,
)


def _advance(sim, seconds):
    """Move the simulation clock forward even with an empty agenda."""
    sim.schedule(seconds, lambda: None)
    sim.run(until=sim.now + seconds)


# -- identity and fairness math ----------------------------------------------


def test_tenant_id_validation():
    assert valid_tenant_id("org-1")
    assert valid_tenant_id("a")
    assert valid_tenant_id("flood_corp-2")
    assert not valid_tenant_id("")
    assert not valid_tenant_id("-leading-dash")
    assert not valid_tenant_id("Uppercase")
    assert not valid_tenant_id("has space")
    assert not valid_tenant_id("x" * 65)
    assert not valid_tenant_id(None)
    assert not valid_tenant_id(42)


def test_tenant_context_validates_and_freezes():
    context = TenantContext.anonymous()
    assert context.tenant_id == DEFAULT_TENANT
    assert context.weight == 1.0
    with pytest.raises(ValueError):
        TenantContext(tenant_id="Not Valid")
    with pytest.raises(ValueError):
        TenantContext(tenant_id="ok", weight=0.0)


def test_inject_extract_roundtrip():
    headers = inject_tenant("org-a", {"Accept": "application/json"})
    assert headers[TENANT_HEADER] == "org-a"
    assert extract_tenant(headers) == "org-a"
    assert extract_tenant(inject_tenant(None)) is None
    assert extract_tenant(None) is None


def test_jain_index_edges():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=20))
def test_jain_index_bounds_and_scale_invariance(shares):
    value = jain_index(shares)
    assert 1.0 / len(shares) - 1e-9 <= value <= 1.0 + 1e-9
    if sum(shares) > 0:
        scaled = jain_index([3.5 * x for x in shares])
        assert scaled == pytest.approx(value)


# -- DRR class-queue properties ----------------------------------------------


_tenant_ids = st.sampled_from(["org-a", "org-b", "org-c", "org-d"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(), max_size=60),
       st.lists(st.integers(min_value=0, max_value=5), max_size=20))
def test_single_lane_is_fifo(items, pop_pattern):
    """Without tenants the queue is byte-for-byte the old FIFO."""
    queue = ClassedQueue()
    model = deque()
    iterator = iter(items)
    for burst in pop_pattern:
        try:
            item = next(iterator)
        except StopIteration:
            break
        queue.push(item)
        model.append(item)
        for _ in range(burst):
            got = queue.pop()
            want = model.popleft() if model else None
            if want is None:
                assert got is None
            else:
                assert got == (want, PriorityClass.INTERACTIVE)
    for item in iterator:
        queue.push(item)
        model.append(item)
    while model:
        assert queue.pop() == (model.popleft(), PriorityClass.INTERACTIVE)
    assert queue.pop() is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_tenant_ids,
                          st.sampled_from(list(PriorityClass)),
                          st.integers()),
                max_size=80))
def test_drain_is_work_conserving_and_lane_fifo(pushes):
    """Everything pushed comes back out, FIFO within (class, tenant)."""
    queue = ClassedQueue()
    expected_lanes = {}
    for tenant, cls, item in pushes:
        assert queue.push(item, cls, tenant=tenant)
        expected_lanes.setdefault((cls, tenant), deque()).append(item)
    assert queue.depth() == len(pushes)
    served_classes = []
    while True:
        entry = queue.pop_ex()
        if entry is None:
            break
        item, cls, tenant = entry
        served_classes.append(cls)
        lane = expected_lanes[(cls, tenant)]
        assert item == lane.popleft()
    assert all(not lane for lane in expected_lanes.values())
    assert queue.depth() == 0
    # strict priority: every INTERACTIVE before any WORKFLOW before BATCH
    assert served_classes == sorted(served_classes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=6))
def test_weighted_share_exact_with_integer_quanta(wa, wb, rounds):
    """Backlogged integer-weight lanes split rounds exactly wa : wb."""
    queue = ClassedQueue()
    total = rounds * (wa + wb)
    for i in range(2 * total):
        queue.push(("a", i), tenant="org-a", weight=float(wa))
        queue.push(("b", i), tenant="org-b", weight=float(wb))
    served = {"org-a": 0, "org-b": 0}
    for _ in range(total):
        _, _, tenant = queue.pop_ex()
        served[tenant] += 1
    assert served["org-a"] == rounds * wa
    assert served["org-b"] == rounds * wb


def test_fractional_weight_accrues_across_rounds():
    """A weight-0.5 lane is served once every two rounds, not starved."""
    queue = ClassedQueue()
    for i in range(20):
        queue.push(("slow", i), tenant="slow", weight=0.5)
        queue.push(("fast", i), tenant="fast", weight=1.0)
    order = [queue.pop_ex()[2] for _ in range(12)]
    assert order.count("slow") == 4
    assert order.count("fast") == 8
    # the slow lane is interleaved, never pushed to the end
    assert "slow" in order[:3]


def test_front_push_served_next_and_promotes_tenant():
    queue = ClassedQueue()
    for i in range(3):
        queue.push(("a", i), tenant="org-a")
        queue.push(("b", i), tenant="org-b")
    first = queue.pop_ex()
    assert first[0] == ("a", 0)
    # a displaced item re-enters at the head of its lane and rotation
    queue.push(("a", "displaced"), tenant="org-a", front=True)
    assert queue.pop_ex()[0] == ("a", "displaced")


def test_projected_items_match_actual_service_order():
    queue = ClassedQueue()
    for i in range(4):
        queue.push(("a", i), tenant="org-a", weight=2.0)
        queue.push(("b", i), tenant="org-b", weight=1.0)
    projection = queue.items(PriorityClass.INTERACTIVE)
    actual = []
    while queue.depth():
        actual.append(queue.pop()[0])
    assert projection == actual


def test_bounded_class_sheds_and_attributes_tenant():
    queue = ClassedQueue(bounds={PriorityClass.BATCH: 2})
    assert queue.push("x", PriorityClass.BATCH, tenant="org-a")
    assert queue.push("y", PriorityClass.BATCH, tenant="org-b")
    assert not queue.push("z", PriorityClass.BATCH, tenant="org-b")
    assert queue.shed[PriorityClass.BATCH] == 1
    assert queue.shed_by_tenant == {"org-b": 1}
    # unbounded classes never shed
    assert queue.push("i", PriorityClass.INTERACTIVE, tenant="org-b")


def test_emptied_lane_forfeits_deficit():
    """Credit never outlives a backlog: a returning lane starts fresh."""
    queue = ClassedQueue()
    queue.push("a1", tenant="org-a", weight=4.0)
    queue.push("b1", tenant="org-b", weight=1.0)
    queue.push("b2", tenant="org-b")
    assert queue.pop_ex()[2] == "org-a"     # banked 4, spent 1, lane empty
    assert queue.pop_ex()[2] == "org-b"
    queue.push("a2", tenant="org-a")
    queue.push("b3", tenant="org-b")
    # org-a's leftover 3.0 deficit died with its lane: org-b is not
    # locked out while org-a spends stale credit
    order = [queue.pop_ex()[2] for _ in range(3)]
    assert order.count("org-b") == 2


def test_dispatcher_records_service_in_registry():
    sim = Simulator()
    registry = TenantRegistry(specs=[TenantSpec("org-a", weight=2.0),
                                     TenantSpec("org-b")])
    dispatcher = Dispatcher(sim, tenants=registry)
    dispatcher.register("svc")
    for i in range(6):
        dispatcher.enqueue("svc", f"a{i}", tenant="org-a")
        dispatcher.enqueue("svc", f"b{i}", tenant="org-b")
    for _ in range(6):
        dispatcher.dequeue("svc")
    # weight 2 tenant legitimately served 2:1 — fairness still 1.0
    assert registry.served == {"org-a": 4.0, "org-b": 2.0}
    assert registry.fairness(["org-a", "org-b"]) == pytest.approx(1.0)
    assert dispatcher.tenant_depths() == {"org-a": 2, "org-b": 4}


# -- token bucket and rate limiter -------------------------------------------


def test_token_bucket_is_deterministic_on_sim_time():
    sim = Simulator()
    bucket = TokenBucket(sim, rate=1.0, burst=3.0)
    assert bucket.level() == 3.0
    assert all(bucket.try_take() for _ in range(3))
    assert not bucket.try_take()
    assert bucket.retry_after() == pytest.approx(1.0)
    _advance(sim, 1.0)
    assert bucket.try_take()
    assert not bucket.try_take()
    _advance(sim, 100.0)
    assert bucket.level() == 3.0    # capped at burst


def test_rate_decision_headers():
    limiter = RateLimiter(Simulator(), default_rate=2.0, default_burst=4.0)
    allowed = limiter.check("org-a")
    assert allowed.allowed
    headers = allowed.headers()
    assert headers["X-RateLimit-Limit"] == "4"
    assert "Retry-After" not in headers
    for _ in range(3):
        limiter.check("org-a")
    denied = limiter.check("org-a")
    assert not denied.allowed
    headers = denied.headers()
    assert float(headers["Retry-After"]) >= 1.0
    assert headers["X-RateLimit-Remaining"] == "0"
    assert limiter.allowed == 4 and limiter.throttled == 1


def test_rate_limiter_spec_overrides_and_unlimited_default():
    sim = Simulator()
    registry = TenantRegistry(specs=[TenantSpec("metered", rate=1.0,
                                                burst=2.0)])
    limiter = RateLimiter(sim, registry)
    # no default rate: unregistered tenants and anonymous are unlimited
    assert all(limiter.check(None).allowed for _ in range(50))
    assert all(limiter.check("stranger").allowed for _ in range(50))
    assert limiter.fill("stranger") is None
    assert limiter.check("metered").allowed
    assert limiter.check("metered").allowed
    assert not limiter.check("metered").allowed
    snapshot = limiter.snapshot()
    assert snapshot["buckets"]["metered"]["burst"] == 2.0
    assert snapshot["throttled"] == 1


# -- registry ----------------------------------------------------------------


def test_registry_membership_and_default_policy():
    registry = TenantRegistry()
    assert registry.known(DEFAULT_TENANT)
    assert not registry.known("stranger")
    assert registry.weight_of("stranger") == 1.0
    assert registry.quota_of("stranger") is None
    registry.register(TenantSpec("vip", weight=3.0, vcpu_quota=8.0))
    assert registry.weight_of("vip") == 3.0
    assert registry.quota_of("vip") == 8.0
    assert "vip" in registry.tenants()


def test_registry_snapshot_includes_unregistered_served():
    registry = TenantRegistry()
    registry.record_service("drive-by", 5.0)
    snapshot = registry.snapshot()
    assert snapshot["drive-by"]["served"] == 5.0
    assert snapshot["drive-by"]["weight"] == 1.0


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("Bad Tenant")
    with pytest.raises(ValueError):
        TenantSpec("ok", weight=-1.0)
    with pytest.raises(ValueError):
        TenantSpec("ok", rate=0.0)


# -- capacity ledger tenant quotas -------------------------------------------


def test_ledger_enforces_tenant_quota():
    sim = Simulator()
    ledger = CapacityLedger(sim, tenant_quotas={"org-a": 8.0})
    assert ledger.admit("private", 4, tenant="org-a")
    ledger.commit("private", 4, tenant="org-a")
    assert ledger.admit("private", 4, tenant="org-a")
    ledger.commit("private", 4, tenant="org-a")
    # quota spent: the next launch is refused estate-wide
    assert not ledger.admit("private", 4, tenant="org-a")
    assert not ledger.admit("public", 4, tenant="org-a")
    assert ledger.tenant_refusals == 2
    # other tenants and unattributed launches are untouched
    assert ledger.admit("private", 4, tenant="org-b")
    assert ledger.admit("private", 4)
    ledger.release("private", 4, tenant="org-a")
    assert ledger.admit("private", 4, tenant="org-a")
    assert ledger.committed_by_tenant() == {"org-a": 4}


def test_ledger_quota_set_and_clear():
    ledger = CapacityLedger(Simulator())
    ledger.set_tenant_quota("org-a", 2.0)
    assert not ledger.admit("private", 4, tenant="org-a")
    ledger.set_tenant_quota("org-a", None)
    assert ledger.admit("private", 4, tenant="org-a")


# -- tenant-scoped idempotency -----------------------------------------------


def test_idempotency_keys_are_tenant_scoped():
    sim = Simulator()
    store = BlobStore(sim, name="idem-test")
    index = IdempotencyIndex(sim, store.create_container("idempotency"))
    fp = request_fingerprint("POST", "/runs", {"x": 1})

    first = index.admit("key-1", fp, tenant="org-a")
    assert first.kind == "fresh"
    assert index.record("key-1", first.epoch, 200, {"run": 1},
                        tenant="org-a")
    # the same key from another tenant is an unrelated fresh request
    other = index.admit("key-1", fp, tenant="org-b")
    assert other.kind == "fresh"
    # and from no tenant at all: the pre-tenancy namespace, also fresh
    anonymous = index.admit("key-1", fp)
    assert anonymous.kind == "fresh"
    # the same tenant retrying replays the original
    retry = index.admit("key-1", fp, tenant="org-a")
    assert retry.kind == "replay"
    assert retry.response["body"] == {"run": 1}
    assert index.replays == 1
    # conflicts are tenant-scoped too
    conflict = index.admit("key-1",
                           request_fingerprint("POST", "/runs", {"x": 2}),
                           tenant="org-a")
    assert conflict.kind == "conflict"
    index.forget("key-1", tenant="org-b")
    assert index.admit("key-1", fp, tenant="org-b").kind == "fresh"


# -- the /v1 boundary ---------------------------------------------------------


class _Rig:
    """One serving replica behind the scheduling plane."""

    def __init__(self, replicas=1, sessions_per_replica=4,
                 strict_capacity=False):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=7)
        self.private = OpenStackCloud(self.sim, total_vcpus=64,
                                      streams=self.streams)
        self.public = AwsCloud(self.sim, streams=self.streams)
        self.multi = MultiCloud()
        self.multi.register_compute("private", self.private)
        self.multi.register_compute("public", self.public)
        self.network = Network(self.sim, streams=self.streams)
        self.sessions = SessionTable(self.sim)
        self.monitor = HealthMonitor(self.sim, interval=1.0e9, window=3)
        self.lbs = [LoadBalancer(self.sim, self.multi, self.network,
                                 self.sessions, PrivateFirstPolicy(),
                                 monitor=self.monitor,
                                 autoscale_interval=5.0,
                                 strict_capacity=strict_capacity)]
        self.lb = self.lbs[0]
        self.sched = ShardedRouter(self.sim, self.lbs, multicloud=self.multi)
        self.images = ImageStore()
        image = self.images.create("portal", ImageKind.GENERIC, size_gb=1.0)
        self.api = RestApi("svc")
        self.api.get("/ping", lambda req, p: {"pong": True})
        self.sched.manage(ManagedService(
            name="svc", image=image, flavor=MEDIUM,
            make_server=lambda inst: RestServer(
                self.sim, self.api, inst).bind(self.network),
            sessions_per_replica=sessions_per_replica,
            min_replicas=replicas, max_replicas=replicas))
        self.sim.run(until=600.0)
        self.address = self.sched.services()[0].serving()[0].address

    def call(self, headers=None, path="/v1/ping"):
        signal = self.network.request(
            self.address, HttpRequest("GET", path, headers=headers or {}))
        self.sim.run(until=self.sim.now + 10.0)
        return signal.value


def test_boundary_passes_valid_tenant_and_labels_metrics():
    rig = _Rig()
    registry = TenantRegistry(specs=[TenantSpec("org-a")])
    rig.api.tenants = registry
    rig.api.limiter = RateLimiter(rig.sim, registry)
    response = rig.call({TENANT_HEADER: "org-a"})
    assert response.status == 200
    metrics = obs_of(rig.sim).api_metrics.sub("svc")
    assert metrics.counter("requests{tenant=org-a}").value == 1


def test_boundary_rejects_malformed_tenant():
    rig = _Rig()
    rig.api.tenants = TenantRegistry()
    response = rig.call({TENANT_HEADER: "Not A Tenant!"})
    assert response.status == 400
    assert response.body["type"].endswith("invalid-tenant")


def test_boundary_strict_registry_refuses_unknown():
    rig = _Rig()
    rig.api.tenants = TenantRegistry(specs=[TenantSpec("org-a")],
                                     strict=True)
    assert rig.call({TENANT_HEADER: "org-a"}).status == 200
    denied = rig.call({TENANT_HEADER: "stranger"})
    assert denied.status == 403
    assert denied.body["type"].endswith("unknown-tenant")
    # permissive mode admits the same stranger on default policy
    rig.api.tenants.strict = False
    assert rig.call({TENANT_HEADER: "stranger"}).status == 200


def test_boundary_requires_tenant_when_configured():
    rig = _Rig()
    rig.api.tenants = TenantRegistry()
    rig.api.require_tenant = True
    denied = rig.call()
    assert denied.status == 401
    assert denied.body["type"].endswith("tenant-required")
    assert rig.call({TENANT_HEADER: "org-a"}).status == 200


def test_boundary_throttles_with_retry_after_and_ratelimit_headers():
    rig = _Rig()
    registry = TenantRegistry(specs=[TenantSpec("burst", rate=0.5,
                                                burst=2.0)])
    rig.api.tenants = registry
    rig.api.limiter = RateLimiter(rig.sim, registry)
    signals = []

    def fire(delay, headers):
        rig.sim.schedule(delay, lambda: signals.append(rig.network.request(
            rig.address, HttpRequest("GET", "/v1/ping", headers=headers))))

    # four rapid-fire requests against a burst of 2 (refill is 0.5/s,
    # far too slow to matter over 0.6s), plus one from another tenant
    for i in range(4):
        fire(0.2 * i, {TENANT_HEADER: "burst"})
    fire(0.7, {TENANT_HEADER: "org-other"})
    rig.sim.run(until=rig.sim.now + 10.0)
    statuses = [s.value.status for s in signals[:4]]
    assert statuses == [200, 200, 429, 429]
    denied = signals[2].value
    assert denied.body["type"].endswith("rate-limited")
    assert denied.body["retryable"] is True
    assert denied.body["tenant"] == "burst"
    assert float(denied.headers["Retry-After"]) >= 1.0
    assert denied.headers["X-RateLimit-Limit"] == "2"
    # other tenants ride their own buckets
    assert signals[4].value.status == 200
    # and the bucket refills with simulation time
    _advance(rig.sim, 30.0)
    assert rig.call({TENANT_HEADER: "burst"}).status == 200
    metrics = obs_of(rig.sim).api_metrics.sub("svc")
    assert metrics.counter("throttled{tenant=burst}").value == 2


def test_sessions_carry_tenant_through_broker_and_shed_events():
    rig = _Rig(replicas=1, sessions_per_replica=2, strict_capacity=True)
    registry = TenantRegistry(specs=[TenantSpec("org-a"),
                                     TenantSpec("org-b")])
    rig.sched.attach_tenants(registry)
    gateway = PushGateway(rig.sim, rig.sched.services()[0].serving()[0],
                          streams=rig.streams)
    rb = ResourceBroker(rig.sim, rig.sched, rig.sessions, gateway)
    events = obs_of(rig.sim).events
    session = rb.connect("farmer-1", "svc", tenant="org-a")
    assert session.tenant == "org-a"
    connects = events.events("rb.connect")
    assert connects and connects[-1].fields["tenant"] == "org-a"
    # fill the replica, then queue one per tenant: depths are per tenant
    rb.connect("farmer-2", "svc", tenant="org-a")
    rb.connect("farmer-3", "svc", tenant="org-a")
    rb.connect("eng-1", "svc", tenant="org-b")
    depths = rig.sched.tenant_depths()
    assert depths.get("org-a") == 1 and depths.get("org-b") == 1
    assert registry.served["org-a"] == 2.0


def test_dispatcher_shed_event_stamps_tenant():
    sim = Simulator()
    dispatcher = Dispatcher(sim, bounds={PriorityClass.BATCH: 1})
    dispatcher.register("svc")
    assert dispatcher.enqueue("svc", "x", PriorityClass.BATCH,
                              tenant="org-a")
    assert not dispatcher.enqueue("svc", "y", PriorityClass.BATCH,
                                  tenant="org-b")
    shed = obs_of(sim).events.events("sched.shed")
    assert shed and shed[-1].fields["tenant"] == "org-b"
    assert dispatcher.shed_by_tenant() == {"org-b": 1}
    # untenanted sheds are attributed to the default principal
    assert not dispatcher.enqueue("svc", "z", PriorityClass.BATCH)
    shed = obs_of(sim).events.events("sched.shed")
    assert shed[-1].fields["tenant"] == DEFAULT_TENANT


def test_region_guard_stamps_tenant_on_503():
    sim = Simulator()
    topo = RegionTopology(sim, ["eu", "us"])

    class _StubRouter:
        def submit_session(self, *a, **k):
            return 0

    geo = GeoRouter(sim, topo, {r: _StubRouter() for r in topo.regions()})
    guard = RegionGuard(geo, "eu", retry_after=15.0)
    topo.mark("eu", RegionStatus.DEGRADED)
    topo.mark("us", RegionStatus.DOWN)
    denial = guard(HttpRequest("GET", "/v1/ping",
                               headers={TENANT_HEADER: "org-a"}))
    assert denial.status == 503
    assert denial.body["tenant"] == "org-a"
    assert guard.shed_by_tenant == {"org-a": 1}
    # anonymous sheds land on the default principal
    guard(HttpRequest("GET", "/v1/ping"))
    assert guard.shed_by_tenant[DEFAULT_TENANT] == 1
    sheds = obs_of(sim).events.events("geo.guard.shed")
    assert len(sheds) == 2 and sheds[0].fields["tenant"] == "org-a"


# -- the deployment facade and admin console ---------------------------------


def test_evop_enable_tenancy_and_admin_console_section():
    evop = Evop()
    console = AdminConsole(evop)
    assert console.status()["tenancy"] == {"enabled": False}
    registry = evop.enable_tenancy(
        specs=[TenantSpec("org-a", weight=2.0, rate=5.0, vcpu_quota=8.0)])
    # idempotent: repeat calls return the installed registry
    assert evop.enable_tenancy() is registry
    assert evop.sched.tenants is registry
    assert evop.ledger.tenant_quotas == {"org-a": 8.0}
    registry.record_service("org-a", 4.0)
    evop.ratelimit.check("org-a")
    status = console.status()["tenancy"]
    assert status["enabled"]
    assert status["tenants"]["org-a"]["weight"] == 2.0
    assert status["tenants"]["org-a"]["served"] == 4.0
    assert status["tenants"]["org-a"]["bucket"]["burst"] == 5.0
    assert DEFAULT_TENANT in status["tenants"]
    rendered = console.render()
    assert "tenants: fairness=" in rendered
    assert "org-a" in rendered
