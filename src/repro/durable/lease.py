"""Durable named leases: one blob per lease, TTL expiry, epoch fencing.

A :class:`ClaimTable` keeps one small blob per leased name in a blob
container.  Claiming writes ``{owner, epoch, expires}``; a live claim by
another owner refuses; an expired or absent claim is taken over with a
bumped epoch, which fences the previous holder's late writes.  Renewal
rewrites the same blob, so a lease costs one blob however long it is
held.

Competing data-plane consumers claim their streams here, and the geo
leader election keeps one lease per region here.  Each operation is
read-then-put, which is atomic because the simulator runs one callback
at a time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cloud.errors import BlobNotFound
from repro.cloud.storage import Container
from repro.sim import Simulator

#: How long a claim lives without renewal.
CLAIM_TTL = 30.0


class ClaimTable:
    """Durable named leases with TTL expiry and epoch fencing."""

    def __init__(self, sim: Simulator, container: Container,
                 ttl: float = CLAIM_TTL):
        self.sim = sim
        self.ttl = ttl
        self._container = container

    @staticmethod
    def _key(name: str) -> str:
        return f"claims/{name}"

    def read(self, name: str) -> Optional[Dict[str, Any]]:
        """The stored ``{owner, epoch, expires}`` record, live or not."""
        try:
            return self._container.get(self._key(name)).payload
        except BlobNotFound:
            return None

    def claim(self, name: str, owner: str) -> Optional[int]:
        """Try to claim ``name``; returns the epoch held, or ``None``.

        A live claim by another owner refuses; an expired or absent
        claim is taken over with a bumped epoch (fencing the old
        holder's late commits).
        """
        current = self.read(name)
        now = self.sim.now
        if current is not None:
            alive = current["expires"] > now
            if alive and current["owner"] != owner:
                return None
            epoch = current["epoch"] + (0 if current["owner"] == owner
                                        and alive else 1)
        else:
            epoch = 0
        self._container.put(self._key(name), {
            "owner": owner, "epoch": epoch, "expires": now + self.ttl})
        return epoch

    def renew(self, name: str, owner: str, epoch: int) -> bool:
        """Extend a held claim; ``False`` if it was lost (fenced)."""
        current = self.read(name)
        if (current is None or current["owner"] != owner
                or current["epoch"] != epoch):
            return False
        self._container.put(self._key(name), {
            "owner": owner, "epoch": epoch,
            "expires": self.sim.now + self.ttl})
        return True

    def holds(self, name: str, owner: str, epoch: int) -> bool:
        """Whether ``owner`` still holds ``name`` at ``epoch``."""
        current = self.read(name)
        return (current is not None and current["owner"] == owner
                and current["epoch"] == epoch
                and current["expires"] > self.sim.now)

    def release(self, name: str, owner: str) -> None:
        """Drop a claim so peers can take the lease immediately."""
        current = self.read(name)
        if current is not None and current["owner"] == owner:
            try:
                self._container.delete(self._key(name))
            except BlobNotFound:  # pragma: no cover - defensive
                pass

    def owner_of(self, name: str) -> Optional[str]:
        """The live holder of ``name``, if any."""
        current = self.read(name)
        if current is None or current["expires"] <= self.sim.now:
            return None
        return current["owner"]
