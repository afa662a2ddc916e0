"""Write-ahead run journal on the simulated blob store.

Durable execution starts from one primitive: an append-only journal of
run lifecycle records that outlives the executor that wrote it.  The
journal lives in :class:`~repro.cloud.storage.BlobStore` containers
(one blob per record, keyed ``<run_id>/<seq>``), so everything the
fault injector can do to storage — outages, torn writes — applies to
the journal too, and recovery reads exactly what a crashed executor
managed to make durable.

Semantics:

* **fsync points** — ``append(..., sync=False)`` buffers in executor
  memory; only ``sync()`` makes records durable.  An executor crash
  (:meth:`RunJournal.crash`) loses the unsynced tail, and may leave the
  first in-flight record *torn* (partially written).
* **CRC-checked records** — every record carries a CRC32 of its
  canonical JSON text; a torn or corrupt record fails verification.
* **torn-tail truncation on open** — :meth:`JournalStore.open` replays
  blobs in sequence order and truncates at the first record that fails
  CRC or breaks the sequence, deleting it and everything after it.
* **leases** — journal-recorded ownership with simulated-clock expiry
  and fencing epochs.  ``sync()`` refuses to append over records a new
  owner wrote (:class:`Fenced`), so a healed-from-blackhole executor
  can never scribble on a run that was re-adopted while it was dark.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.errors import BlobNotFound
from repro.cloud.storage import BlobStore, Container
from repro.obs.hub import obs_of
from repro.sim import Simulator

# -- record kinds -----------------------------------------------------------

#: A run was submitted: workflow name + parameters (write-ahead).
SCHEDULED = "SCHEDULED"
#: An executor began (or re-began) executing the run.
STARTED = "STARTED"
#: A recovery executor took over an orphaned run.
ADOPTED = "ADOPTED"
#: Progress made durable: a completed stage or an ensemble checkpoint.
CHECKPOINT = "CHECKPOINT"
#: An externally visible effect was applied (dedup key inside).
EFFECT = "EFFECT"
#: Ownership: who may execute this run, until when, at which epoch.
LEASE = "LEASE"
#: Terminal success / terminal failure.
DONE = "DONE"
FAILED = "FAILED"
#: A data-plane stream event (see :mod:`repro.dataplane.stream`): the
#: event-sourced ingest path reuses the journal's CRC-checked record
#: format and torn-tail truncation, with the stream name in the
#: ``run_id`` slot and one durable blob per event.
EVENT = "EVENT"

KINDS = (SCHEDULED, STARTED, ADOPTED, CHECKPOINT, EFFECT, LEASE, DONE,
         FAILED, EVENT)


class LeaseError(RuntimeError):
    """Lease acquisition or renewal failed (held or lost)."""


class Fenced(LeaseError):
    """A write was refused because another owner appended first."""


def jsonable(value: Any) -> Tuple[bool, Any]:
    """``(True, value)`` when ``value`` survives a JSON round trip.

    Journal payloads must be replayable from bytes; anything without a
    JSON form is journaled by ``repr`` only and marked non-replayable.
    """
    try:
        return True, json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return False, None


@dataclass(frozen=True)
class JournalRecord:
    """One durable (or to-be-durable) journal entry."""

    seq: int
    time: float
    run_id: str
    kind: str
    payload: Dict[str, Any]

    def to_text(self) -> str:
        """Serialise with a trailing CRC over the canonical JSON body."""
        body = json.dumps(
            {"seq": self.seq, "t": self.time, "run": self.run_id,
             "kind": self.kind, "payload": self.payload},
            sort_keys=True, separators=(",", ":"))
        return f"{body}|crc={zlib.crc32(body.encode()):08x}"

    @classmethod
    def parse(cls, text: Any) -> Optional["JournalRecord"]:
        """Parse and CRC-verify; ``None`` for torn/corrupt records."""
        if not isinstance(text, str) or "|crc=" not in text:
            return None
        body, _, crc_hex = text.rpartition("|crc=")
        try:
            if int(crc_hex, 16) != zlib.crc32(body.encode()):
                return None
            raw = json.loads(body)
            return cls(seq=raw["seq"], time=raw["t"], run_id=raw["run"],
                       kind=raw["kind"], payload=raw["payload"])
        except (ValueError, KeyError, TypeError):
            return None


def _safe_parse(container: Container, key: str) -> Optional[JournalRecord]:
    try:
        return JournalRecord.parse(container.get(key).payload)
    except BlobNotFound:  # pragma: no cover - defensive
        return None


def replay_log(container: Container,
               name: str) -> Tuple[List[JournalRecord], List[str]]:
    """Replay the ``<name>/<seq>`` records, truncating any torn tail.

    Records are accepted in key order while each passes its CRC and
    carries the next sequence number.  The first record that does not,
    and every key after it, is deleted from ``container``.  Returns the
    accepted records and the dropped keys (empty for a clean log).
    """
    keys = container.list(prefix=f"{name}/")
    good: List[JournalRecord] = []
    for key in keys:
        record = _safe_parse(container, key)
        if record is None or record.seq != len(good):
            break
        good.append(record)
    dropped = keys[len(good):]
    for key in dropped:
        try:
            container.delete(key)
        except BlobNotFound:  # pragma: no cover - defensive
            pass
    return good, dropped


@dataclass(frozen=True)
class LeaseState:
    """The journal's current view of run ownership."""

    owner: str
    epoch: int
    expires: float
    ttl: float

    def held_at(self, now: float) -> bool:
        """Whether the lease is still live at ``now``."""
        return now < self.expires


class RunJournal:
    """The write-ahead journal of one run.

    Create via :class:`JournalStore` (``create``/``open``), never
    directly — opening is where torn-tail truncation happens.
    """

    def __init__(self, sim: Simulator, container: Container,
                 run_id: str):
        self.sim = sim
        self._container = container
        self.run_id = run_id
        self._records: List[JournalRecord] = []   # durable + verified
        self._tail: List[JournalRecord] = []      # appended, unsynced
        self._mine: set = set()                   # seqs this writer synced
        self._lease: Optional[LeaseState] = None
        self.truncated_records = 0

    # -- load / refresh ------------------------------------------------------

    def _key(self, seq: int) -> str:
        return f"{self.run_id}/{seq:08d}"

    def _load(self) -> None:
        """Replay the store, truncating the torn tail (open path)."""
        good, dropped = replay_log(self._container, self.run_id)
        if dropped:
            self.truncated_records += len(dropped)
            obs_of(self.sim).events.emit(
                "durable.journal.truncated", run=self.run_id,
                dropped=len(dropped), first_bad=dropped[0])
        self._records = good
        for record in good:
            self._apply(record)

    def _refresh(self) -> int:
        """Absorb records another writer appended since we last looked."""
        top = self._records[-1].seq if self._records else -1
        keys = self._container.list(prefix=f"{self.run_id}/")
        absorbed = 0
        foreign = 0
        for key in keys:
            try:
                seq = int(key.rsplit("/", 1)[1])
            except (IndexError, ValueError):  # pragma: no cover
                continue
            if seq <= top:
                continue
            record = _safe_parse(self._container, key)
            if record is None or record.seq != top + 1:
                break
            self._records.append(record)
            self._apply(record)
            top = record.seq
            absorbed += 1
            if record.seq not in self._mine:
                foreign += 1
        return foreign

    # -- append / sync -------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended record will take."""
        base = self._records[-1].seq + 1 if self._records else 0
        return base + len(self._tail)

    def append(self, kind: str, sync: bool = True,
               **payload: Any) -> JournalRecord:
        """Append a record; with ``sync`` (default) it is durable now."""
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        record = JournalRecord(seq=self.next_seq, time=self.sim.now,
                               run_id=self.run_id, kind=kind,
                               payload=dict(payload))
        self._tail.append(record)
        if sync:
            self.sync()
        return record

    def sync(self) -> int:
        """Make buffered records durable; returns how many were written.

        Before writing, the journal re-reads the store tail: records a
        *different* writer appended since our last look mean the lease
        moved — the write is refused with :class:`Fenced` and the local
        buffer dropped, so a stale executor cannot corrupt the journal.
        """
        foreign = self._refresh()
        if not self._tail:
            return 0
        if foreign:
            self._tail.clear()
            obs_of(self.sim).events.emit("durable.journal.fenced",
                                         run=self.run_id)
            raise Fenced(f"run {self.run_id}: journal advanced by another "
                         f"owner; this executor is fenced")
        written = 0
        base = self._records[-1].seq + 1 if self._records else 0
        for offset, record in enumerate(self._tail):
            renumbered = JournalRecord(
                seq=base + offset, time=record.time, run_id=record.run_id,
                kind=record.kind, payload=record.payload)
            self._container.put(self._key(renumbered.seq),
                                renumbered.to_text())
            self._mine.add(renumbered.seq)
            self._records.append(renumbered)
            self._apply(renumbered)
            written += 1
        self._tail.clear()
        return written

    def crash(self, torn: bool = False) -> int:
        """Simulate executor death mid-write; returns records lost.

        The unsynced tail evaporates with the executor's memory.  With
        ``torn``, the first lost record was in flight to the store when
        the power went: a truncated (CRC-failing) blob is left behind
        for the next open to detect and truncate.
        """
        lost = len(self._tail)
        if torn and self._tail:
            record = self._tail[0]
            base = self._records[-1].seq + 1 if self._records else 0
            text = JournalRecord(seq=base, time=record.time,
                                 run_id=record.run_id, kind=record.kind,
                                 payload=record.payload).to_text()
            self._container.put(self._key(base),
                                text[: max(1, (2 * len(text)) // 3)])
            obs_of(self.sim).events.emit("durable.journal.torn",
                                         run=self.run_id, seq=base)
        self._tail.clear()
        return lost

    def records(self) -> List[JournalRecord]:
        """Durable records, oldest first (unsynced tail excluded)."""
        return list(self._records)

    def pending(self) -> int:
        """Appended-but-unsynced records (lost on crash)."""
        return len(self._tail)

    # -- lease protocol ------------------------------------------------------

    def lease(self) -> Optional[LeaseState]:
        """The current lease record (refreshes from the store first)."""
        self._refresh()
        return self._lease

    def owner_at(self, now: Optional[float] = None) -> Optional[str]:
        """Who holds the run at ``now`` (default: the simulated clock)."""
        state = self.lease()
        when = self.sim.now if now is None else now
        if state is not None and state.held_at(when):
            return state.owner
        return None

    def acquire(self, owner: str, ttl: float) -> int:
        """Take (or retake) the lease; returns the fencing epoch.

        Refused with :class:`LeaseError` while a *different* owner's
        lease is unexpired.  Taking over an expired or released lease
        bumps the epoch, which is what fences the previous owner.
        """
        self._refresh()
        now = self.sim.now
        current = self._lease
        if (current is not None and current.owner != owner
                and current.held_at(now)):
            raise LeaseError(
                f"run {self.run_id} leased by {current.owner!r} until "
                f"t={current.expires:.1f} (now t={now:.1f})")
        if current is None:
            epoch = 1
        elif current.owner == owner:
            epoch = current.epoch
        else:
            epoch = current.epoch + 1
        self.append(LEASE, owner=owner, epoch=epoch,
                    expires=now + ttl, ttl=ttl)
        obs_of(self.sim).events.emit("durable.lease.acquired",
                                     run=self.run_id, owner=owner,
                                     epoch=epoch, ttl=ttl)
        return epoch

    def renew(self, owner: str, ttl: float) -> int:
        """Extend the lease; :class:`LeaseError` if it moved on."""
        self._refresh()
        current = self._lease
        if current is None or current.owner != owner:
            holder = current.owner if current else None
            raise LeaseError(f"run {self.run_id}: lease lost "
                             f"(now held by {holder!r})")
        self.append(LEASE, owner=owner, epoch=current.epoch,
                    expires=self.sim.now + ttl, ttl=ttl)
        return current.epoch

    def release(self, owner: str) -> None:
        """Give the lease up early (expires immediately); idempotent."""
        self._refresh()
        current = self._lease
        if current is None or current.owner != owner:
            return
        self.append(LEASE, owner=owner, epoch=current.epoch,
                    expires=self.sim.now, ttl=0.0)

    def _apply(self, record: JournalRecord) -> None:
        if record.kind == LEASE:
            p = record.payload
            self._lease = LeaseState(owner=p["owner"], epoch=p["epoch"],
                                     expires=p["expires"], ttl=p["ttl"])


class JournalStore:
    """A namespace of run journals plus their bulky payloads.

    Journals hold small CRC-checked records; checkpoint result sets and
    other large values go to a sibling payload container and are
    referenced from records by key — the usual WAL/blob split.
    """

    def __init__(self, sim: Simulator, blobstore: BlobStore,
                 name: str = "run-journals"):
        self.sim = sim
        self.name = name
        self._journals = blobstore.create_container(name)
        self._payloads = blobstore.create_container(f"{name}-payloads")

    # -- journals ------------------------------------------------------------

    def exists(self, run_id: str) -> bool:
        """Whether a journal for ``run_id`` has any durable record."""
        return bool(self._journals.list(prefix=f"{run_id}/"))

    def create(self, run_id: str) -> RunJournal:
        """A fresh journal (the run must not already have one)."""
        if self.exists(run_id):
            raise ValueError(f"journal for run {run_id!r} already exists")
        return RunJournal(self.sim, self._journals, run_id)

    def open(self, run_id: str) -> RunJournal:
        """Open an existing journal, truncating any torn tail."""
        journal = RunJournal(self.sim, self._journals, run_id)
        journal._load()
        return journal

    def open_or_create(self, run_id: str) -> RunJournal:
        """Open when records exist, else a fresh journal."""
        return self.open(run_id) if self.exists(run_id) \
            else self.create(run_id)

    def run_ids(self) -> List[str]:
        """Every run with at least one durable record, sorted."""
        return sorted({key.split("/", 1)[0]
                       for key in self._journals.list()})

    # -- payloads ------------------------------------------------------------

    def put_payload(self, key: str, value: Any) -> str:
        """Store a bulky value; returns the key for journal reference."""
        self._payloads.put(key, value)
        return key

    def get_payload(self, key: str) -> Any:
        """Fetch a previously stored payload."""
        return self._payloads.get(key).payload

    def has_payload(self, key: str) -> bool:
        """Whether ``key`` was stored (and survived faults)."""
        return self._payloads.exists(key)
