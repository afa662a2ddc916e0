"""Competing consumers: lease-claimed streams, redelivery, dead letters.

Several consumer instances share the work of applying streams to the
materialized views.  Coordination is the durable lease table
(:class:`~repro.durable.lease.ClaimTable`): a consumer *claims* a
stream by writing a lease blob with a TTL and a monotonically-increasing
epoch; a dead consumer's claim expires and a peer takes over with a
higher epoch, fencing any late writes from the previous holder.

Delivery is at-least-once — a consumer can die after applying an event
but before committing its cursor, so the next holder redelivers.  The
views deduplicate by ``(stream, seq)``, making the apply idempotent.

A *poison* event (one whose apply raises, deterministically) must not
stall the partition: after ``max_attempts`` deliveries it is parked in
the :class:`DeadLetterQueue` and the cursor advances past it.  Parked
events stay durable and inspectable, and can be redriven after a fix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.cloud.errors import BlobNotFound
from repro.cloud.storage import Container
from repro.dataplane.events import Event
from repro.dataplane.stream import StreamSet
from repro.durable.lease import ClaimTable
from repro.obs.hub import obs_of
from repro.sim import Simulator

#: Deliveries before an event is declared poison and parked.
MAX_ATTEMPTS = 3

class DeadLetterQueue:
    """Durable parking lot for poison events."""

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container
        self.parked = 0

    def park(self, event: Event, error: str, attempts: int) -> None:
        """Park a poison event, keeping the failure context."""
        key = f"dlq/{event.stream}/{event.seq:08d}"
        self._container.put(key, {
            "event": event.to_document(),
            "error": error,
            "attempts": attempts,
            "parked_at": self.sim.now,
        })
        self.parked += 1
        obs_of(self.sim).events.emit(
            "dataplane.dlq.parked", stream=event.stream, seq=event.seq,
            event_kind=event.kind, error=error, attempts=attempts)

    def depth(self) -> int:
        """How many events are parked."""
        return len(self._container.list(prefix="dlq/"))

    def entries(self) -> List[Dict[str, Any]]:
        """Every parked entry, oldest key first."""
        return [self._container.get(k).payload
                for k in self._container.list(prefix="dlq/")]

    def redrive(self, apply: Callable[[Event], None]) -> int:
        """Re-apply parked events through ``apply``; drop the ones that
        now succeed.  Returns how many were drained."""
        drained = 0
        for key in self._container.list(prefix="dlq/"):
            doc = self._container.get(key).payload["event"]
            event = Event(stream=doc["stream"], seq=doc["seq"],
                          time=doc["time"], kind=doc["kind"],
                          key=doc["key"], payload=doc["payload"])
            try:
                apply(event)
            except Exception:  # noqa: BLE001 - still poison, keep parked
                continue
            self._container.delete(key)
            drained += 1
        return drained


class ConsumerGroup:
    """One consumer instance of the competing group.

    Every instance shares the claim table, cursor blobs and DLQ through
    the plane's container; ``poll_once`` claims whatever streams are
    free and drains them, so running several instances splits the
    partitions without any further coordination.
    """

    def __init__(self, sim: Simulator, name: str, streams: StreamSet,
                 claims: ClaimTable, dlq: DeadLetterQueue,
                 container: Container,
                 apply: Callable[[Event], None],
                 max_attempts: int = MAX_ATTEMPTS,
                 poll_interval: float = 0.5):
        self.sim = sim
        self.name = name
        self.streams = streams
        self.claims = claims
        self.dlq = dlq
        self.apply = apply
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self._container = container
        self._epochs: Dict[str, int] = {}
        self.delivered = 0
        self.redelivered = 0
        self._stopped = False

    # -- durable cursors & attempt counts ------------------------------------

    def _cursor_key(self, stream: str) -> str:
        return f"cursors/{stream}"

    def committed_cursor(self, stream: str) -> int:
        """The first sequence not yet durably applied for ``stream``."""
        try:
            return self._container.get(self._cursor_key(stream)).payload
        except BlobNotFound:
            return 0

    def _commit_cursor(self, stream: str, seq: int, epoch: int) -> None:
        # Fenced commit: a holder that lost its claim must not move the
        # cursor under the new holder's feet.
        if not self.claims.holds(stream, self.name, epoch):
            return
        self._container.put(self._cursor_key(stream), seq)

    def _attempts_key(self, stream: str, seq: int) -> str:
        return f"attempts/{stream}/{seq:08d}"

    def _attempts(self, stream: str, seq: int) -> int:
        try:
            return self._container.get(
                self._attempts_key(stream, seq)).payload
        except BlobNotFound:
            return 0

    def _bump_attempts(self, stream: str, seq: int) -> int:
        count = self._attempts(stream, seq) + 1
        self._container.put(self._attempts_key(stream, seq), count)
        return count

    def _clear_attempts(self, stream: str, seq: int) -> None:
        try:
            self._container.delete(self._attempts_key(stream, seq))
        except BlobNotFound:
            pass

    # -- the drain loop ------------------------------------------------------

    def poll_once(self) -> int:
        """Claim free streams and drain them; returns events applied."""
        applied = 0
        for stream_name in self.streams.names():
            epoch = self._epochs.get(stream_name)
            if epoch is None or not self.claims.renew(
                    stream_name, self.name, epoch):
                epoch = self.claims.claim(stream_name, self.name)
                if epoch is None:
                    self._epochs.pop(stream_name, None)
                    continue
                self._epochs[stream_name] = epoch
            applied += self._drain_stream(stream_name, epoch)
        return applied

    def _drain_stream(self, stream_name: str, epoch: int) -> int:
        stream = self.streams.stream(stream_name)
        cursor = self.committed_cursor(stream_name)
        applied = 0
        for event in stream.read(from_seq=cursor):
            attempts = self._bump_attempts(stream_name, event.seq)
            if attempts > 1:
                self.redelivered += 1
            try:
                self.apply(event)
            except Exception as exc:  # noqa: BLE001 - poison isolation
                if attempts >= self.max_attempts:
                    self.dlq.park(event, error=repr(exc), attempts=attempts)
                    self._clear_attempts(stream_name, event.seq)
                    # Advance past the poison event: the partition must
                    # not stall behind one bad record.
                    cursor = event.seq + 1
                    self._commit_cursor(stream_name, cursor, epoch)
                    continue
                # Leave the cursor where it is; the event redelivers on
                # the next poll (ours or a peer's after failover).
                break
            self.delivered += 1
            applied += 1
            self._clear_attempts(stream_name, event.seq)
            cursor = event.seq + 1
            self._commit_cursor(stream_name, cursor, epoch)
        return applied

    def lag(self) -> int:
        """Undelivered events across all streams (consumer lag)."""
        return sum(
            max(0, self.streams.stream(name).head
                - self.committed_cursor(name))
            for name in self.streams.names())

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the background poll loop."""
        self._stopped = False
        self.sim.spawn(self._run(), name=f"consumer-{self.name}")

    def stop(self) -> None:
        """Stop polling and release held claims (graceful shutdown)."""
        self._stopped = True
        for stream_name in list(self._epochs):
            self.claims.release(stream_name, self.name)
            self._epochs.pop(stream_name, None)

    def crash(self) -> None:
        """Stop polling *without* releasing claims (failure injection):
        peers must wait out the claim TTL before taking over."""
        self._stopped = True
        self._epochs.clear()

    def _run(self):
        obs_of(self.sim).events.emit(
            "dataplane.consumer.started", consumer=self.name)
        while not self._stopped:
            self.poll_once()
            yield self.poll_interval
