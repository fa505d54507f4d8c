"""The seeded, deterministic fault injector.

One :class:`FaultInjector` per run owns a dedicated ``random.Random`` so
fault decisions are a pure function of (config, decision order) — two runs
with the same trace and fault profile inject identical faults.  It
implements the channel fault-hook protocol (``transfer_fails`` /
``bandwidth_factor``) consulted by :class:`repro.sim.Channel`, plus the
per-save corruption/loss draws consulted by the store.
"""

from __future__ import annotations

import random

from .config import FaultConfig


class FaultInjector:
    """Draws fault decisions from one seeded RNG."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)

    def _draw(self, rate: float) -> bool:
        """One decision at ``rate``; a zero rate draws nothing, so a fault
        class that is off does not shift the others' decision streams."""
        return rate > 0.0 and self._rng.random() < rate

    # ------------------------------------------------------------------
    # Channel fault-hook protocol
    # ------------------------------------------------------------------
    def _rate_for(self, channel: str) -> float:
        if channel == "ssd":
            return self.config.ssd_fault_rate
        if channel.startswith("pcie"):
            return self.config.pcie_fault_rate
        if channel == "cluster-net":
            return self.config.net_fault_rate
        return 0.0

    def transfer_fails(self, channel: str, now: float) -> bool:
        """Decide whether this transfer suffers a transient failure."""
        return self._draw(self._rate_for(channel))

    def bandwidth_factor(self, channel: str, now: float) -> float:
        """Effective-bandwidth multiplier at ``now`` (degradation windows).

        Deterministic in time — no RNG is consumed, so adding or removing
        windows does not shift the other fault classes' decision streams.
        """
        factor = 1.0
        for window in self.config.degraded_windows:
            if window.channel == channel and window.active(now):
                factor = min(factor, window.factor)
        return factor

    # ------------------------------------------------------------------
    # Store save-time decisions
    # ------------------------------------------------------------------
    def corrupts_save(self) -> bool:
        """Decide whether a just-saved KV item is corrupt on next load."""
        return self._draw(self.config.corruption_rate)

    def loses_save(self) -> bool:
        """Decide whether a just-saved KV item is silently lost."""
        return self._draw(self.config.loss_rate)
