"""The scheduling plane: one placement/dispatch substrate.

Every dispatch path in the deployment — portal session placement
(broker), workflow stage dispatch, ensemble/batch sweeps — funnels
through this package instead of bolting onto a single FIFO inside the
Load Balancer:

* :class:`~repro.sched.core.Dispatcher` — the provider-neutral core:
  priority classes (interactive portal sessions > workflow stages >
  batch sweeps), per-class bounded queues with per-tenant
  deficit-round-robin lanes (weighted-fair within each class), and the
  ``sched.submit``/``sched.place`` spans that make every queueing
  decision observable;
* :class:`~repro.sched.ledger.CapacityLedger` — global capacity and
  cloudburst accounting shared by every control-plane shard, so
  quota decisions stay correct when the plane is sharded;
* :class:`~repro.sched.router.ShardedRouter` — rendezvous-hashes
  sessions and runs onto N control-plane shards (each a slimmed
  per-shard Load Balancer), the scaling move the hybrid-cloud EVO
  experience paper calls for when one broker becomes the choke point.

Import order matters: :mod:`repro.broker.load_balancer` imports
``repro.sched.core``, and :mod:`repro.sched.router` is imported last so
the cycle never bites.
"""

from repro.sched.core import (
    ClassedQueue,
    Dispatcher,
    InFlightGate,
    PlacementPolicy,
    PriorityClass,
)
from repro.sched.ledger import CapacityLedger
from repro.sched.router import ShardedRouter, rendezvous_shard

__all__ = [
    "CapacityLedger",
    "ClassedQueue",
    "Dispatcher",
    "InFlightGate",
    "PlacementPolicy",
    "PriorityClass",
    "ShardedRouter",
    "rendezvous_shard",
]
