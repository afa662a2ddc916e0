"""Durable execution: journaled runs that survive their executor.

The paper's portal promises stakeholders a submitted experiment
*completes*; PR 3's resilience fabric hardened the client path, and
this package hardens the work itself:

* :mod:`repro.durable.journal` — write-ahead :class:`RunJournal` on the
  blob store (CRC records, fsync points, torn-tail truncation, leases
  with fencing epochs) and the :class:`JournalStore` namespace.
* :mod:`repro.durable.lease` — :class:`ClaimTable`: named one-blob
  leases with TTL expiry and epoch fencing.
* :mod:`repro.durable.state` — pure journal replay into
  :class:`RunState`; consistent for every record prefix.
* :mod:`repro.durable.recovery` — :class:`RecoveryManager`: orphan
  scanning, lease-expiry-safe re-adoption on replacement executors.
* :mod:`repro.durable.ensemble` — :class:`DurableSweep`: checkpointed
  parameter sweeps with exactly-once effect publication.
"""

from repro.durable.ensemble import DurableSweep
from repro.durable.journal import (
    ADOPTED,
    CHECKPOINT,
    DONE,
    EFFECT,
    FAILED,
    Fenced,
    JournalRecord,
    JournalStore,
    LEASE,
    LeaseError,
    LeaseState,
    RunJournal,
    SCHEDULED,
    STARTED,
    jsonable,
)
from repro.durable.lease import ClaimTable
from repro.durable.recovery import RecoveryManager, RecoveryReport
from repro.durable.state import RunState, StageState, replay

__all__ = [
    "ADOPTED",
    "CHECKPOINT",
    "ClaimTable",
    "DONE",
    "DurableSweep",
    "EFFECT",
    "FAILED",
    "Fenced",
    "JournalRecord",
    "JournalStore",
    "LEASE",
    "LeaseError",
    "LeaseState",
    "RecoveryManager",
    "RecoveryReport",
    "RunJournal",
    "RunState",
    "SCHEDULED",
    "STARTED",
    "StageState",
    "jsonable",
    "replay",
]
