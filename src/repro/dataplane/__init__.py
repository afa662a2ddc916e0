"""Event-sourced data plane: outbox → streams → consumers → views.

The portal is read-dominated: a million stakeholders polling catchment
statistics would recompute the same aggregates from raw warehouse rows
over and over.  This package turns every sensor ingest and run effect
into an append-only event stream on the durable journal substrate
(:mod:`repro.durable.journal`), and maintains *materialized read
models* — per-catchment rolling stats, latest-observation tables, a
run-summary index — updated incrementally by competing consumers so a
read is a dictionary lookup, never a recomputation.

The pieces, in data-flow order:

* :class:`TransactionalOutbox` — writers (warehouse, sensor networks,
  WPS) record events in the same step as their data write;
* :class:`OutboxRelay` — drains the outbox into per-partition
  :class:`EventStream`\\ s (CRC-checked, torn-tail-truncating, replayable);
* :class:`ConsumerGroup` — competing consumers with stream claims on
  the durable lease table (:class:`~repro.durable.lease.ClaimTable`),
  at-least-once delivery, and a :class:`DeadLetterQueue` for poison
  events;
* :mod:`~repro.dataplane.views` — the materialized views, deduplicating
  by stream sequence so redelivery is harmless;
* :class:`DataPlane` — the facade wiring all of it, rebuildable from
  replay, served by :mod:`repro.services.readapi`.
"""

from repro.dataplane.consumers import ConsumerGroup, DeadLetterQueue
from repro.dataplane.events import Event
from repro.dataplane.outbox import OutboxEntry, OutboxRelay, TransactionalOutbox
from repro.dataplane.plane import DataPlane
from repro.dataplane.stream import EventStream, StreamSet
from repro.dataplane.views import (
    CatchmentStatsView,
    LatestObservationView,
    MaterializedView,
    RunSummaryView,
    fold_values,
    recompute_catchment_stats,
    stats_document,
)

__all__ = [
    "CatchmentStatsView",
    "ConsumerGroup",
    "DataPlane",
    "DeadLetterQueue",
    "Event",
    "EventStream",
    "LatestObservationView",
    "MaterializedView",
    "OutboxEntry",
    "OutboxRelay",
    "RunSummaryView",
    "StreamSet",
    "TransactionalOutbox",
    "fold_values",
    "recompute_catchment_stats",
    "stats_document",
]
