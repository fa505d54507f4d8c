"""Per-tier health tracking: a consecutive-failure circuit breaker.

Repeated transfer failures against a tier (in practice the SSD) trip the
breaker: the tier is bypassed entirely — demotions degrade to drops, disk
hits degrade to recompute fallbacks — instead of burning the retry budget
on every operation against a sick device.  After ``cooldown`` seconds the
breaker half-opens and lets probe operations through; the first success
closes it again.
"""

from __future__ import annotations

from enum import Enum


class BreakerState(str, Enum):
    """Circuit-breaker states (classic closed / open / half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class TierHealth:
    """Tracks one tier's failure history and gates access to it."""

    def __init__(self, threshold: int, cooldown: float) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._opened_at = 0.0

    def allows(self, now: float) -> bool:
        """Whether an operation against the tier may proceed at ``now``.

        An open breaker half-opens once the cooldown has elapsed, letting
        recovery probes through.
        """
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        return True

    def record_failure(self, now: float) -> bool:
        """Register a failed operation; return True when this trips
        (or, from half-open, re-trips) the breaker."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # The recovery probe failed: re-open for another cooldown.
            self.state = BreakerState.OPEN
            self._opened_at = now
            return True
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = BreakerState.OPEN
            self._opened_at = now
            return True
        return False

    def record_success(self) -> bool:
        """Register a successful operation; return True on recovery
        (a non-closed breaker closing again)."""
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            return True
        return False
