"""Tests for workload specification and synthetic trace generation."""

import math

import numpy as np
import pytest

from repro.workload import (
    LognormalSpec,
    WorkloadSpec,
    fraction_multi_turn,
    generate_trace,
    mean_turns,
    session_length_survival,
)


class TestLognormalSpec:
    def test_mean(self):
        spec = LognormalSpec(mu=0.0, sigma=1.0)
        assert spec.mean == pytest.approx(math.exp(0.5))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            LognormalSpec(mu=0.0, sigma=0.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="maximum"):
            LognormalSpec(mu=0.0, sigma=1.0, minimum=10, maximum=5)


class TestWorkloadSpec:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec()
        assert spec.p_multi_turn == 0.73
        assert spec.mean_turns == 5.75
        assert spec.arrival_rate == 1.0

    def test_multi_turn_mean_consistency(self):
        spec = WorkloadSpec()
        # E[turns] = (1-p)*1 + p*m must recover the configured mean.
        recovered = (
            (1 - spec.p_multi_turn) + spec.p_multi_turn * spec.multi_turn_mean
        )
        assert recovered == pytest.approx(spec.mean_turns)

    def test_geometric_p_in_unit_interval(self):
        spec = WorkloadSpec()
        assert 0.0 < spec.geometric_p <= 1.0

    def test_rejects_bad_arrival_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            WorkloadSpec(arrival_rate=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "arrival_rate",
            "p_multi_turn",
            "mean_turns",
            "think_time_mean",
            "think_time_sigma",
            "shared_prefix_fraction",
        ],
    )
    def test_rejects_non_finite_float(self, field, value):
        # A NaN rate used to fail later, naming arrival_time instead; an
        # infinite one was accepted.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkloadSpec(**{field: value})

    def test_rejects_bad_p_multi(self):
        with pytest.raises(ValueError, match="p_multi_turn"):
            WorkloadSpec(p_multi_turn=1.5)

    def test_rejects_tiny_mean_turns(self):
        with pytest.raises(ValueError):
            WorkloadSpec(mean_turns=1.0)

    def test_think_time_mu_recovers_mean(self):
        spec = WorkloadSpec(think_time_mean=60.0, think_time_sigma=0.8)
        implied = math.exp(spec.think_time_mu + spec.think_time_sigma**2 / 2)
        assert implied == pytest.approx(60.0)


class TestGenerator:
    def test_session_count(self):
        assert len(generate_trace(n_sessions=25, seed=3)) == 25

    def test_deterministic_for_seed(self):
        a = generate_trace(n_sessions=30, seed=5)
        b = generate_trace(n_sessions=30, seed=5)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generate_trace(n_sessions=30, seed=5)
        b = generate_trace(n_sessions=30, seed=6)
        assert a.to_json() != b.to_json()

    def test_arrivals_increase(self):
        trace = generate_trace(n_sessions=50, seed=1)
        arrivals = [c.arrival_time for c in trace]
        assert arrivals == sorted(arrivals)

    def test_first_turn_has_no_think_time(self):
        trace = generate_trace(n_sessions=50, seed=1)
        assert all(c.turns[0].think_time == 0.0 for c in trace)

    def test_later_turns_have_think_time(self):
        trace = generate_trace(n_sessions=50, seed=1)
        laters = [t.think_time for c in trace for t in c.turns[1:]]
        assert laters and all(t > 0 for t in laters)

    def test_turn_cap_respected(self):
        trace = generate_trace(n_sessions=300, seed=2, max_turns=10)
        assert max(c.n_turns for c in trace) <= 10

    def test_token_bounds_respected(self):
        spec = WorkloadSpec(n_sessions=100, seed=4)
        trace = generate_trace(spec)
        for conv in trace:
            for turn in conv.turns:
                assert spec.q_tokens.minimum <= turn.q_tokens <= spec.q_tokens.maximum
                assert spec.a_tokens.minimum <= turn.a_tokens <= spec.a_tokens.maximum

    def test_marginals_match_paper_statistics(self):
        """The paper's ShareGPT marginals (Section 2.3 / Figure 2)."""
        trace = generate_trace(n_sessions=4000, seed=11)
        assert fraction_multi_turn(trace) == pytest.approx(0.73, abs=0.03)
        assert mean_turns(trace) == pytest.approx(5.75, abs=0.35)
        survival = session_length_survival(trace, [2048, 4096])
        assert survival[2048] == pytest.approx(0.47, abs=0.06)
        assert survival[4096] == pytest.approx(0.30, abs=0.06)

    def test_poisson_arrival_rate(self):
        trace = generate_trace(n_sessions=4000, seed=11, arrival_rate=2.0)
        span = trace.conversations[-1].arrival_time
        assert 4000 / span == pytest.approx(2.0, rel=0.1)
