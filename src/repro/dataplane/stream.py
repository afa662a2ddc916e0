"""Append-only event streams on the durable journal substrate.

An :class:`EventStream` is a sequence of CRC-checked records in a blob
container — the same record format, keying scheme (``<name>/<seq>``)
and torn-tail truncation the write-ahead run journal uses, so every
storage fault the chaos harness can inject applies to event streams
too, and a reopened stream exposes exactly what its writers made
durable.

Streams are *partitions*: observation events are partitioned per
catchment, run events live on one ``runs`` stream.  Consumers claim
whole streams (see :mod:`~repro.dataplane.consumers`), so ordering is
total within a stream and undefined across streams — which is why
views must key their state by the event's partition (documented on
:class:`~repro.dataplane.events.Event`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cloud.storage import Container
from repro.dataplane.events import Event
from repro.durable.journal import EVENT, JournalRecord, jsonable, replay_log
from repro.obs.hub import obs_of
from repro.sim import Simulator


class EventStream:
    """One append-only, durable, replayable event partition."""

    def __init__(self, sim: Simulator, container: Container, name: str):
        if "/" in name:
            raise ValueError(f"stream name {name!r} must not contain '/'")
        self.sim = sim
        self.name = name
        self._container = container
        self._events: List[Event] = []
        self._tokens: set = set()
        self.truncated_records = 0
        self.deduplicated = 0
        self._load()

    # -- durability ---------------------------------------------------------

    def _key(self, seq: int) -> str:
        return f"{self.name}/{seq:08d}"

    def _load(self) -> None:
        """Replay the container, truncating any torn tail (open path)."""
        good, dropped = replay_log(self._container, self.name)
        if dropped:
            self.truncated_records += len(dropped)
            obs_of(self.sim).events.emit(
                "dataplane.stream.truncated", stream=self.name,
                dropped=len(dropped), first_bad=dropped[0])
        for record in good:
            self._absorb(record)

    def _absorb(self, record: JournalRecord) -> Event:
        data = record.payload
        event = Event(stream=self.name, seq=record.seq, time=record.time,
                      kind=data["kind"], key=data.get("key", ""),
                      payload=data.get("data", {}))
        self._events.append(event)
        token = data.get("token")
        if token is not None:
            self._tokens.add(token)
        return event

    # -- append / read ------------------------------------------------------

    @property
    def head(self) -> int:
        """The sequence number the next appended event will take."""
        return len(self._events)

    def append(self, kind: str, key: str = "",
               token: Optional[str] = None,
               payload: Optional[Dict] = None) -> Optional[Event]:
        """Append one durable event; returns it (or ``None`` if deduped).

        ``token`` is the publisher's dedup token (the outbox sequence):
        re-publishing after a relay crash between append and
        mark-published is absorbed here, making outbox→stream
        publication effectively exactly-once.
        """
        if token is not None and token in self._tokens:
            self.deduplicated += 1
            return None
        data = dict(payload or {})
        ok, canonical_data = jsonable(data)
        if not ok:
            raise ValueError(
                f"stream {self.name}: event payload for kind {kind!r} is "
                f"not JSON-serialisable")
        record = JournalRecord(
            seq=self.head, time=self.sim.now, run_id=self.name, kind=EVENT,
            payload={"kind": kind, "key": key, "data": canonical_data,
                     "token": token})
        self._container.put(self._key(record.seq), record.to_text())
        return self._absorb(record)

    def read(self, from_seq: int = 0,
             limit: Optional[int] = None) -> List[Event]:
        """Events with ``seq >= from_seq``, oldest first, up to ``limit``."""
        if limit is None:
            return self._events[from_seq:]
        return self._events[from_seq:from_seq + limit]

    def replay(self) -> Iterator[Event]:
        """Every durable event, oldest first (the backfill path)."""
        return iter(list(self._events))

    def __len__(self) -> int:
        return len(self._events)


class StreamSet:
    """All streams of one data plane, sharing a container.

    Streams are created lazily on first publish and rediscovered from
    the container on open, so a restarted plane sees every partition
    its predecessor wrote.
    """

    def __init__(self, sim: Simulator, container: Container):
        self.sim = sim
        self._container = container
        self._streams: Dict[str, EventStream] = {}
        for key in container.list():
            name = key.split("/", 1)[0]
            if name not in self._streams:
                self._streams[name] = EventStream(sim, container, name)

    def stream(self, name: str) -> EventStream:
        """The named stream, created (empty) if it does not exist."""
        found = self._streams.get(name)
        if found is None:
            found = EventStream(self.sim, self._container, name)
            self._streams[name] = found
        return found

    def names(self) -> List[str]:
        """All stream names, sorted."""
        return sorted(self._streams)

    def total_events(self) -> int:
        """Durable events across every stream."""
        return sum(len(s) for s in self._streams.values())
