"""Region-aware session routing: nearest-healthy with sticky sessions.

The :class:`GeoRouter` sits above the per-region
:class:`~repro.sched.router.ShardedRouter`s.  Placement rules, in
order:

* **sticky** — a session that already has a home region goes back
  there while the region is healthy (the portal's session state is
  tiny, but the user's datasets and traces live in the regional
  warehouse, so locality matters);
* **nearest-healthy** — otherwise the closest region (topology ring
  order from the session's origin) that is healthy and not browned
  out wins;
* **spillover on brownout** — a DEGRADED region, or a healthy one
  whose scheduling queues exceed ``spillover_depth``, is skipped and
  the session spills to the next region on the ring;
* **last resort** — if every region is browned out, the nearest
  not-DOWN region still takes the session (serving slowly beats
  refusing).

A single region runs the same rules: its only region serves every
session it does not refuse.

:class:`RegionGuard` is the REST-side enforcement (satellite: RFC-7807
``503`` + ``Retry-After`` on ``/v1`` routes when the serving region is
degraded *and* no region can absorb the spillover).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geo.topology import RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.sched.core import PriorityClass
from repro.services.envelope import problem
from repro.services.rest import API_VERSION
from repro.services.transport import HttpRequest, HttpResponse
from repro.tenancy.context import DEFAULT_TENANT, TENANT_HEADER
from repro.sim import Simulator


class GeoRouter:
    """Routes sessions to regions, then delegates to the region's plane."""

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 routers: Dict[str, object],
                 spillover_depth: Optional[int] = None, metrics=None):
        self.sim = sim
        self.topology = topology
        self.routers = dict(routers)
        for region in topology.regions():
            if region not in self.routers:
                raise ValueError(f"region {region!r} has no router")
        self.spillover_depth = spillover_depth
        self.metrics = metrics
        self.spillovers = 0
        self.refused = 0

    def router(self, region: str):
        """The region's ShardedRouter."""
        return self.routers[region]

    # -- placement -----------------------------------------------------------

    def submit_session(self, session, service_name: str,
                       priority: PriorityClass = PriorityClass.INTERACTIVE,
                       origin: Optional[str] = None) -> Optional[str]:
        """Place a session; returns the serving region (None if refused).

        ``origin`` is where the user is; a session that was already
        placed is sticky to its previous region instead.
        """
        home = getattr(session, "region", None) or origin
        region = self.pick_region(home)
        if region is None:
            self.refused += 1
            self._count("refused")
            obs_of(self.sim).events.emit("geo.route.refused",
                                         session=session.session_id)
            return None
        if home is not None and region != home:
            self.spillovers += 1
            self._count("spillover")
            obs_of(self.sim).events.emit("geo.route.spillover",
                                         session=session.session_id,
                                         origin=home, region=region)
        session.region = region
        session.geo_service = service_name
        self.routers[region].submit_session(session, service_name,
                                            priority=priority)
        return region

    def pick_region(self, origin: Optional[str] = None) -> Optional[str]:
        """Nearest healthy un-browned-out region; any survivor failing that."""
        ring = self.topology.nearest(origin)
        for region in ring:
            if self.topology.status(region) is RegionStatus.HEALTHY \
                    and not self.browned_out(region):
                return region
        for region in ring:
            if self.topology.status(region) is not RegionStatus.DOWN:
                return region
        return None

    def browned_out(self, region: str) -> bool:
        """Whether a region's scheduling queues are past the spill bound."""
        if self.spillover_depth is None:
            return False
        return self._queue_depth(region) > self.spillover_depth

    def spillover_target(self, origin: str) -> Optional[str]:
        """A healthy region (other than ``origin``) with headroom, or None.

        This is the question the REST guard asks: "if I shed this
        request, is there anywhere better for the retry to land?"
        """
        for region in self.topology.nearest(origin):
            if region == origin:
                continue
            if self.topology.status(region) is RegionStatus.HEALTHY \
                    and not self.browned_out(region):
                return region
        return None

    def _queue_depth(self, region: str) -> int:
        per_shard = self.routers[region].depths()
        return sum(count
                   for per_service in per_shard.values()
                   for counts in per_service.values()
                   for count in counts.values())

    # -- failover ------------------------------------------------------------

    def replace(self, sessions) -> List[Tuple[object, str]]:
        """Re-place detached sessions after a region loss.

        Each session keeps its service and priority; stickiness to the
        dead home region is overridden by :meth:`pick_region` skipping
        DOWN regions.  Returns ``(session, new_region)`` pairs.
        """
        placed: List[Tuple[object, str]] = []
        for session in sessions:
            service = getattr(session, "geo_service", None)
            if service is None:
                continue
            home = getattr(session, "region", None)
            region = self.pick_region(home)
            if region is None:
                self.refused += 1
                continue
            priority = session.priority or PriorityClass.INTERACTIVE
            session.region = region
            self.routers[region].submit_session(session, service,
                                                priority=priority)
            self._count("failover_replaced")
            placed.append((session, region))
        return placed

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()


class RegionGuard:
    """Sheds ``/v1`` traffic while a region is degraded and spill-less.

    Installed as a :class:`~repro.services.rest.RestApi` guard on a
    region's api.  While the serving region is impaired *and*
    :meth:`GeoRouter.spillover_target` finds nowhere better, requests
    are answered with an RFC-7807 ``503`` problem document carrying
    ``Retry-After`` and ``retryable: true`` — exactly what
    :class:`~repro.resilience.policy.RetryPolicy` needs to classify the
    response as worth backing off for, instead of an ad-hoc error.

    While a healthy spillover target exists the guard stays silent:
    existing sessions keep being served and new placement is the
    router's job, not the request path's.
    """

    def __init__(self, georouter: GeoRouter, region: str,
                 retry_after: float = 15.0):
        self.georouter = georouter
        self.region = region
        self.retry_after = retry_after
        self.shed = 0
        #: sheds attributed to the billing principal that suffered them
        self.shed_by_tenant: Dict[str, int] = {}

    def __call__(self, request: HttpRequest) -> Optional[HttpResponse]:
        if not request.path.startswith(f"/{API_VERSION}"):
            return None
        status = self.georouter.topology.status(self.region)
        if status is RegionStatus.HEALTHY:
            return None
        if self.georouter.spillover_target(self.region) is not None:
            return None
        self.shed += 1
        tenant = request.headers.get(TENANT_HEADER) or DEFAULT_TENANT
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1
        obs_of(self.georouter.sim).events.emit(
            "geo.guard.shed", region=self.region, status=status.value,
            path=request.path, tenant=tenant)
        body = problem(
            503, "region degraded",
            f"region {self.region} is {status.value} and no healthy "
            f"region can absorb spillover; retry after "
            f"{self.retry_after:.0f}s",
            retryable=True, type_slug="region-degraded",
            region=self.region, tenant=tenant)
        return HttpResponse(status=503, body=body,
                            headers={"Retry-After":
                                     f"{self.retry_after:.0f}"})
