"""Configuration of an EVOp deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class EvopConfig:
    """Tunables of the simulated deployment.

    The defaults describe the pilot: a modest university OpenStack pool,
    an unbounded AWS account, private-first scheduling, and the Morland
    catchment instrumented for LEFT.
    """

    seed: int = 42
    private_vcpus: int = 16
    public_account_limit: Optional[int] = None
    policy: str = "private-first"   # see repro.broker.policies
    autoscale_interval: float = 15.0
    health_interval: float = 5.0
    health_window: int = 3
    sessions_per_replica: int = 8
    min_replicas: int = 1
    max_replicas: int = 64
    #: control-plane shards in the scheduling plane (repro.sched):
    #: sessions and runs rendezvous-hash across N slimmed per-shard
    #: Load Balancers; one shard places exactly as a single LB would
    shards: int = 1
    #: scrape interval (simulated seconds) of the telemetry plane; None
    #: leaves telemetry off until enable_telemetry() is called
    telemetry_interval: Optional[float] = None
    catchments: Tuple[str, ...] = ("morland",)
    truth_days: int = 30            # horizon of the synthetic sensor truths
    storm_day: int = 14             # design storm injected mid-horizon
    storm_depth_mm: float = 60.0
    #: hourly prices per flavor, private cloud (amortised energy cost)
    private_prices: Dict[str, float] = field(default_factory=lambda: {
        "small": 0.02, "medium": 0.04, "large": 0.08})
    #: hourly prices per flavor, public cloud (on-demand)
    public_prices: Dict[str, float] = field(default_factory=lambda: {
        "small": 0.05, "medium": 0.10, "large": 0.20})

    def __post_init__(self) -> None:
        if self.private_vcpus <= 0:
            raise ValueError("private_vcpus must be positive")
        if self.truth_days <= 0 or not 0 <= self.storm_day < self.truth_days:
            raise ValueError("storm_day must fall inside truth_days")
        if self.sessions_per_replica <= 0:
            raise ValueError("sessions_per_replica must be positive")
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.telemetry_interval is not None \
                and self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
