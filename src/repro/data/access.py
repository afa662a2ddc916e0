"""Access control and delegation over warehoused data.

One of the quieter but sharpest claims in Sections III-B and VI: XaaS
"allows for the data to be used in models and simulations without
necessarily giving it away to the users, thus avoiding some of the
delicate aspects of data ownership".

:class:`AccessPolicy` implements that delegation model:

* datasets may be **restricted**: raw access only for the owner and
  principals on the grant list;
* the **model-execution principal** holds a *delegated-compute* grant:
  it may read restricted data to drive a model, but only derived
  aggregates leave the service — the raw series never crosses the wire
  to an unauthorised user.

:class:`GuardedWarehouse` wraps a :class:`~repro.data.warehouse.DataWarehouse`
with the policy, and is what access-aware services consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.data.warehouse import DataWarehouse
from repro.hydrology.timeseries import TimeSeries

#: The principal model-execution services act as.
MODEL_RUNNER = "service:model-runner"


class AccessDenied(PermissionError):
    """Raised when a principal may not read a restricted dataset."""


@dataclass
class DatasetAcl:
    """Ownership and grants of one dataset."""

    owner: str
    restricted: bool = False
    readers: Set[str] = field(default_factory=set)
    delegated_compute: bool = True   # model runner may use it

    def may_read(self, principal: Optional[str]) -> bool:
        """Whether ``principal`` may fetch the raw series."""
        if not self.restricted:
            return True
        if principal is None:
            return False
        if principal == self.owner or principal in self.readers:
            return True
        if principal == MODEL_RUNNER and self.delegated_compute:
            return True
        return False


class AccessPolicy:
    """ACL registry keyed by dataset id."""

    def __init__(self) -> None:
        self._acls: Dict[str, DatasetAcl] = {}
        self.audit_log: List[Dict] = []

    def register(self, dataset_id: str, owner: str,
                 restricted: bool = False,
                 delegated_compute: bool = True) -> DatasetAcl:
        """Declare ownership of a dataset."""
        acl = DatasetAcl(owner=owner, restricted=restricted,
                         delegated_compute=delegated_compute)
        self._acls[dataset_id] = acl
        return acl

    def grant(self, dataset_id: str, reader: str,
              granted_by: str) -> None:
        """Owner grants raw read access to another principal."""
        acl = self._acls[dataset_id]
        if granted_by != acl.owner:
            raise AccessDenied(
                f"only the owner ({acl.owner}) may grant access")
        acl.readers.add(reader)

    def revoke(self, dataset_id: str, reader: str, revoked_by: str) -> None:
        """Owner revokes a grant (idempotent)."""
        acl = self._acls[dataset_id]
        if revoked_by != acl.owner:
            raise AccessDenied(
                f"only the owner ({acl.owner}) may revoke access")
        acl.readers.discard(reader)

    def check(self, dataset_id: str, principal: Optional[str]) -> None:
        """Raise :class:`AccessDenied` unless the read is allowed.

        Unregistered datasets are public (legacy open data).  Every
        decision is audited.
        """
        acl = self._acls.get(dataset_id)
        allowed = acl is None or acl.may_read(principal)
        self.audit_log.append({
            "dataset": dataset_id,
            "principal": principal,
            "allowed": allowed,
        })
        if not allowed:
            raise AccessDenied(
                f"{principal!r} may not read restricted dataset "
                f"{dataset_id!r}")


class GuardedWarehouse:
    """A warehouse view bound to one principal.

    Passed to the WPS processes as their data source: the processes run
    as :data:`MODEL_RUNNER` and so can *use* restricted data, while a
    portal download endpoint bound to the end user's principal cannot.
    """

    def __init__(self, warehouse: DataWarehouse, policy: AccessPolicy,
                 principal: Optional[str]):
        self._warehouse = warehouse
        self._policy = policy
        self.principal = principal

    def as_principal(self, principal: Optional[str]) -> "GuardedWarehouse":
        """The same warehouse viewed as another principal."""
        return GuardedWarehouse(self._warehouse, self._policy, principal)

    def get_series(self, dataset_id: str) -> TimeSeries:
        """Fetch a series, enforcing the ACL."""
        self._policy.check(dataset_id, self.principal)
        return self._warehouse.get_series(dataset_id)

    def etag_of(self, dataset_id: str) -> str:
        """Revalidation token, guarded like the data it validates."""
        self._policy.check(dataset_id, self.principal)
        return self._warehouse.etag_of(dataset_id)

    def put_series(self, dataset_id: str, series: TimeSeries,
                   provenance: str = "", restricted: bool = False) -> None:
        """Store a series owned by this principal."""
        if self.principal is None:
            raise AccessDenied("anonymous principals may not write")
        self._warehouse.put_series(dataset_id, series, provenance=provenance)
        self._policy.register(dataset_id, owner=self.principal,
                              restricted=restricted)

    def exists(self, dataset_id: str) -> bool:
        """Whether the dataset exists (existence is not secret)."""
        return self._warehouse.exists(dataset_id)

    def list(self, prefix: str = "") -> List[str]:
        """Dataset ids (ids are not secret; contents are)."""
        return self._warehouse.list(prefix)

    def describe(self, dataset_id: str) -> Dict[str, str]:
        """Metadata, ACL-checked like the data itself."""
        self._policy.check(dataset_id, self.principal)
        return self._warehouse.describe(dataset_id)
