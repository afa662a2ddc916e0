"""Leases-based leader election across regional lease tables.

The geo capacity ledger needs exactly one decision-maker at a time.
Rather than invent a consensus protocol, the election reuses the
durable lease primitive (:class:`~repro.durable.lease.ClaimTable`):
every region holds one election lease blob (named after the cluster)
in its own blob store, and the coordinator writes the same claim into
every reachable region's copy.  The *merged* view — the claim with the
highest ``(epoch, expires)`` across reachable regions — is the
cluster's truth, so a candidate campaigning while the old leader's
lease is still live anywhere is refused by the lease table's own
claim rules.  Renewal rewrites the blob, so each region stores one
election blob however long the estate runs.

Fencing: every successful campaign advances a monotonic **term**
(never below any lease epoch it acquired).  Ledger writes carry the
term they were issued under; a leader that lost its region keeps its
old term, and its in-flight decisions are rejected (see
:class:`~repro.geo.ledger.GeoLedger`).

Bounded re-election: the leader renews at half-TTL; after a leader
region dies, its last renewal expires within ``ttl``, the takeover
grace adds :data:`ELECTION_GRACE`, and the next coordinator check
(every ``check_interval``) elects a survivor — so re-election lands
within ``ttl + ELECTION_GRACE + check_interval`` of the loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.errors import StorageUnavailable
from repro.cloud.storage import Container
from repro.durable.lease import ClaimTable
from repro.geo.topology import RegionStatus, RegionTopology
from repro.obs.hub import obs_of
from repro.sim import Simulator

#: Seconds past lease expiry before a takeover campaign starts (the
#: same idea as recovery's LEASE_GRACE: absorb clock-edge races).
ELECTION_GRACE = 0.5


class LeaderElection:
    """Elects one leader region via replicated durable leases.

    ``leases`` maps each region to the blob container holding that
    region's copy of the election lease.
    """

    def __init__(self, sim: Simulator, topology: RegionTopology,
                 leases: Dict[str, Container],
                 cluster: str = "capacity-ledger",
                 ttl: float = 10.0, check_interval: float = 1.0):
        self.sim = sim
        self.topology = topology
        self.cluster = cluster
        self.ttl = ttl
        self.check_interval = check_interval
        self._tables: Dict[str, ClaimTable] = {
            region: ClaimTable(sim, container, ttl=ttl)
            for region, container in leases.items()}
        #: the monotonic fencing token ledger writes carry
        self.term = 0
        self.leader_region: Optional[str] = None
        #: (time, leader, term) per successful campaign
        self.elections: List[Tuple[float, str, int]] = []
        self._started = False

    # -- wiring --------------------------------------------------------------

    def start(self) -> "LeaderElection":
        """Run the first campaign now and keep checking forever."""
        if self._started:
            return self
        self._started = True
        self.step()

        def coordinator():
            while True:
                yield self.check_interval
                self.step()

        self.sim.spawn(coordinator(), name="geo-election")
        return self

    @property
    def reelection_bound(self) -> float:
        """Worst-case seconds from leader-region loss to a new leader."""
        return self.ttl + ELECTION_GRACE + self.check_interval

    # -- queries -------------------------------------------------------------

    def leader(self) -> Optional[str]:
        """The region holding a live lease right now (or ``None``).

        A holder whose region is DOWN does not count: it cannot be
        exercising leadership, and treating its grant as void the
        moment the verdict lands shrinks the split-brain surface to
        zero — at the price of refusing admissions until the lease
        lapses and a survivor campaigns.
        """
        lease = self._merged_lease()
        if lease is not None and self.sim.now < lease["expires"] \
                and self.topology.status(lease["owner"]) \
                is not RegionStatus.DOWN:
            return lease["owner"]
        return None

    def _merged_lease(self) -> Optional[Dict[str, Any]]:
        best: Optional[Dict[str, Any]] = None
        for table in self._reachable():
            try:
                lease = table.read(self.cluster)
            except StorageUnavailable:
                continue
            if lease is None:
                continue
            if best is None or (lease["epoch"], lease["expires"]) > \
                    (best["epoch"], best["expires"]):
                best = lease
        return best

    def _reachable(self) -> List[ClaimTable]:
        return [table for region, table in self._tables.items()
                if self.topology.status(region) is not RegionStatus.DOWN]

    # -- the coordinator step ------------------------------------------------

    def step(self) -> Optional[str]:
        """One election check; returns the current leader (or None)."""
        now = self.sim.now
        lease = self._merged_lease()
        if lease is not None and now < lease["expires"]:
            holder = lease["owner"]
            if self.topology.status(holder) is RegionStatus.DOWN:
                # the lease must lapse before anyone may take over —
                # this wait is exactly what bounds the no-leader window
                self.leader_region = None
                return None
            self.leader_region = holder
            if lease["expires"] - now <= self.ttl / 2.0:
                self._claim_everywhere(holder)
            return holder
        if lease is not None and now < lease["expires"] + ELECTION_GRACE:
            self.leader_region = None
            return None
        candidate = self.topology.nearest_available()
        if candidate is None:
            self.leader_region = None
            return None
        return self._campaign(candidate)

    def _campaign(self, candidate: str) -> Optional[str]:
        epochs = self._claim_everywhere(candidate)
        if not epochs:
            self.leader_region = None
            return None
        self.term = max(self.term + 1, max(epochs))
        self.leader_region = candidate
        self.elections.append((self.sim.now, candidate, self.term))
        obs_of(self.sim).events.emit("geo.leader.elected",
                                     cluster=self.cluster, leader=candidate,
                                     term=self.term)
        return candidate

    def _claim_everywhere(self, owner: str) -> List[int]:
        """Claim (or renew) ``owner``'s lease in every reachable region.

        Returns the epochs won.  A region still showing another owner's
        live lease refuses; a healed region's stale, expired lease is
        taken over, which converges the site without disturbing the
        cluster term.
        """
        epochs: List[int] = []
        for table in self._reachable():
            try:
                epoch = table.claim(self.cluster, owner)
            except StorageUnavailable:
                continue
            if epoch is not None:
                epochs.append(epoch)
        return epochs
