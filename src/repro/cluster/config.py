"""Configuration for multi-instance cluster serving.

A cluster runs N serving-engine replicas (each a full multi-GPU host with
its own PCIe links and AttentionStore partition) behind a session router.
:class:`ClusterConfig` sizes the cluster and names the routing policy;
:class:`RouterName` enumerates the available routers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class RouterName(str, Enum):
    """Session-routing policies for a serving cluster.

    * ``ROUND_ROBIN`` — scatter every request over the replicas in turn,
      ignoring both load and cache placement (the locality-oblivious
      baseline: over partitioned stores it destroys the hit rate).
    * ``LEAST_LOADED`` — send each request to the replica with the fewest
      queued + admitted tokens, ignoring cache placement.
    * ``AFFINITY`` — cache-aware routing: send a session back to the
      replica whose AttentionStore holds its KV, spilling to the least
      loaded replica (with KV migration over the inter-host network) only
      when the home replica is overloaded.
    """

    ROUND_ROBIN = "rr"
    LEAST_LOADED = "least-loaded"
    AFFINITY = "affinity"


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Sizing and routing knobs for a serving cluster.

    ``net_bandwidth`` models the effective inter-host link used for KV
    migrations (default ~100 Gb Ethernet).  ``affinity_spill_tokens`` is
    the load imbalance — home-replica load minus minimum replica load, in
    tokens — above which the affinity router gives up locality and spills
    a session to the least-loaded replica.  ``partition_store`` divides
    the configured DRAM/SSD store capacity evenly across replicas (each
    host owns a private shard, as in a real deployment); when False every
    replica gets the full configured capacity.

    The failover knobs govern recovery from scheduled replica crashes
    (:class:`~repro.faults.ReplicaFaultSchedule`).  With ``failover``
    True (the default), turns orphaned by a crash are re-routed to a
    healthy replica after ``failover_detection_s``, retrying with
    exponential backoff (``failover_backoff_s`` doubling per attempt,
    capped at ``failover_backoff_cap_s``) while no replica is routable;
    the new home recomputes the session history.  With ``failover``
    False (naive restart), orphaned turns wait out the downtime and are
    resubmitted to the restarted replica, whose surviving SSD KV is
    re-admitted.  ``drain_poll_s`` is how often a draining replica
    re-checks for idle sessions it can migrate out.
    """

    n_instances: int = 1
    router: RouterName = RouterName.AFFINITY
    net_bandwidth: float = 12.5e9
    affinity_spill_tokens: int = 16384
    partition_store: bool = True
    failover: bool = True
    failover_detection_s: float = 0.5
    failover_backoff_s: float = 0.5
    failover_backoff_cap_s: float = 8.0
    drain_poll_s: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "net_bandwidth",
            "failover_detection_s",
            "failover_backoff_s",
            "failover_backoff_cap_s",
            "drain_poll_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in (
            "n_instances",
            "net_bandwidth",
            "failover_backoff_s",
            "drain_poll_s",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("affinity_spill_tokens", "failover_detection_s"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.failover_backoff_cap_s < self.failover_backoff_s:
            raise ValueError(
                f"failover_backoff_cap_s ({self.failover_backoff_cap_s}) "
                f"must be >= failover_backoff_s ({self.failover_backoff_s})"
            )
