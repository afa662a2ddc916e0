"""repro.geo — the geo-distributed estate.

Runs the full stack across 1–3 simulated regions; with 2–3, any single
region is expendable:

* :mod:`repro.geo.topology` — the shared region map: status verdicts,
  ring-ordered proximity, transition history.
* :mod:`repro.geo.replication` — async blob/warehouse replication on
  the journal substrate, vector-versioned, with measurable lag
  (the RPO knob).
* :mod:`repro.geo.election` — leases-based leader election on the
  durable lease table (one lease blob per region); monotonic terms are
  the fencing tokens.
* :mod:`repro.geo.ledger` — the replicated
  :class:`~repro.sched.ledger.CapacityLedger`: leader-only admission,
  fan-out facts, fenced stale grants, never a double-commit.
* :mod:`repro.geo.routing` — nearest-healthy sticky session routing
  with brownout spillover, plus the RFC-7807 ``503`` region guard.
* :mod:`repro.geo.failover` — whole-region verdicts, session
  evacuation, durable-run re-adoption, measured RTO.
* :mod:`repro.geo.estate` — the builder that wires it all, the same
  way at every region count.
"""

from repro.geo.election import ELECTION_GRACE, LeaderElection
from repro.geo.estate import REGIONS, GeoCell, GeoEstate
from repro.geo.failover import FailoverCoordinator, FailoverReport
from repro.geo.ledger import GeoLedger, RegionLedgerHandle
from repro.geo.replication import Replicator, ShippedRecord, VersionVector
from repro.geo.routing import GeoRouter, RegionGuard
from repro.geo.topology import (
    RegionStatus,
    RegionTopology,
    RegionTransition,
    qualify,
)

__all__ = [
    "ELECTION_GRACE",
    "FailoverCoordinator",
    "FailoverReport",
    "GeoCell",
    "GeoEstate",
    "GeoLedger",
    "GeoRouter",
    "LeaderElection",
    "REGIONS",
    "RegionGuard",
    "RegionLedgerHandle",
    "RegionStatus",
    "RegionTopology",
    "RegionTransition",
    "Replicator",
    "ShippedRecord",
    "VersionVector",
    "qualify",
]
