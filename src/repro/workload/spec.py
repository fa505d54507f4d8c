"""Statistical specification of a ShareGPT-like workload.

The real ShareGPT dataset is not shipped with this reproduction; instead we
generate synthetic traces whose marginals match the statistics the paper
publishes about ShareGPT:

* 73 % of conversations are multi-turn (Figure 2a);
* the mean number of turns per conversation is 5.75 (Section 4.2);
* 47 % of sessions exceed 2K tokens and 30 % exceed 4K (Figure 2b);
* session arrivals follow a Poisson process with rate λ (Section 4.1,
  default λ = 1.0 sessions/second).

Turn counts are drawn as: single-turn with probability ``1 - p_multi``,
otherwise ``2 + Geometric(p_turn)`` capped at ``max_turns`` (the paper's
Figure 2a excludes conversations over 40 turns).  Per-turn question and
answer lengths are lognormal, which reproduces the heavy right tail of the
session-length distribution in Figure 2b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LognormalSpec:
    """A lognormal distribution parameterised by its underlying normal."""

    mu: float
    sigma: float
    minimum: int = 1
    maximum: int = 8192

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.minimum < 1:
            raise ValueError(f"minimum must be >= 1, got {self.minimum}")
        if self.maximum < self.minimum:
            raise ValueError("maximum must be >= minimum")

    @property
    def mean(self) -> float:
        """Mean of the (untruncated) lognormal."""
        return math.exp(self.mu + self.sigma**2 / 2.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs defining a synthetic multi-turn conversation workload.

    Attributes:
        n_sessions: number of conversation sessions to generate.
        arrival_rate: Poisson session-arrival rate (sessions/second).
        p_multi_turn: probability a conversation has more than one turn.
        mean_turns: target mean turns per conversation (drives the geometric
            parameter of the multi-turn branch).
        max_turns: truncation point for the turn-count distribution.
        q_tokens: distribution of user-message lengths.
        a_tokens: distribution of response lengths.
        think_time_mean: mean user think time between turns, seconds.
        think_time_sigma: lognormal sigma of the think time.
        seed: RNG seed for reproducible traces.
        shared_prefix_fraction: fraction of sessions whose first turn
            starts with a fleet-shared prefix (system prompt / few-shot
            template / RAG preamble).  0 disables sharing entirely and
            generates byte-identical traces to a spec without the knob.
        shared_prefix_len: tokens in each shared prefix template, added
            on top of the drawn first-turn question length.
        n_shared_prefixes: number of distinct prefix templates the
            sharing sessions draw from (uniformly).
    """

    n_sessions: int = 9000
    arrival_rate: float = 1.0
    p_multi_turn: float = 0.73
    mean_turns: float = 5.75
    max_turns: int = 40
    q_tokens: LognormalSpec = LognormalSpec(mu=4.4, sigma=0.9, minimum=4, maximum=4096)
    a_tokens: LognormalSpec = LognormalSpec(mu=5.52, sigma=1.1, minimum=8, maximum=4096)
    think_time_mean: float = 60.0
    think_time_sigma: float = 0.8
    seed: int = 2024
    shared_prefix_fraction: float = 0.0
    shared_prefix_len: int = 0
    n_shared_prefixes: int = 1

    def __post_init__(self) -> None:
        for name in (
            "arrival_rate",
            "p_multi_turn",
            "mean_turns",
            "think_time_mean",
            "think_time_sigma",
            "shared_prefix_fraction",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_sessions <= 0:
            raise ValueError(f"n_sessions must be positive, got {self.n_sessions}")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if not (0.0 <= self.p_multi_turn <= 1.0):
            raise ValueError(
                f"p_multi_turn must be in [0, 1], got {self.p_multi_turn}"
            )
        if self.max_turns < 2:
            raise ValueError(f"max_turns must be >= 2, got {self.max_turns}")
        if self.mean_turns <= 1.0:
            raise ValueError(f"mean_turns must exceed 1, got {self.mean_turns}")
        if self.multi_turn_mean < 2.0:
            raise ValueError(
                "mean_turns is too small for the configured p_multi_turn: the "
                "multi-turn branch would need a mean below 2 turns"
            )
        if self.think_time_mean <= 0:
            raise ValueError(
                f"think_time_mean must be positive, got {self.think_time_mean}"
            )
        if not (0.0 <= self.shared_prefix_fraction <= 1.0):
            raise ValueError(
                "shared_prefix_fraction must be in [0, 1], got "
                f"{self.shared_prefix_fraction}"
            )
        if self.shared_prefix_len < 0:
            raise ValueError(
                f"shared_prefix_len must be >= 0, got {self.shared_prefix_len}"
            )
        if self.shared_prefix_fraction > 0 and self.shared_prefix_len == 0:
            raise ValueError(
                "shared_prefix_fraction > 0 requires a positive "
                "shared_prefix_len"
            )
        if self.n_shared_prefixes < 1:
            raise ValueError(
                f"n_shared_prefixes must be >= 1, got {self.n_shared_prefixes}"
            )

    @property
    def multi_turn_mean(self) -> float:
        """Mean turn count of the multi-turn branch implied by the targets.

        With ``E[turns] = (1 - p) * 1 + p * m`` solved for ``m``.
        """
        if self.p_multi_turn == 0:
            return 2.0
        return (self.mean_turns - (1.0 - self.p_multi_turn)) / self.p_multi_turn

    @property
    def geometric_p(self) -> float:
        """Success probability of the ``2 + Geometric(p)`` turn draw.

        A geometric on {0, 1, ...} with success probability p has mean
        ``(1 - p) / p``; we need ``2 + (1 - p) / p = multi_turn_mean``.
        """
        return 1.0 / (self.multi_turn_mean - 1.0)

    @property
    def think_time_mu(self) -> float:
        """Underlying-normal mu giving the configured lognormal mean."""
        return math.log(self.think_time_mean) - self.think_time_sigma**2 / 2.0
