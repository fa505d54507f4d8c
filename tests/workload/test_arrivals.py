"""Session arrivals: the paper's Poisson process (Section 4.1)."""

import numpy as np
import pytest

from repro.workload import generate_trace


def arrival_times(n_sessions: int, rate: float = 2.0) -> np.ndarray:
    trace = generate_trace(n_sessions=n_sessions, seed=0, arrival_rate=rate)
    return np.array([conv.arrival_time for conv in trace])


class TestPoissonArrivals:
    def test_monotone_increasing(self):
        times = arrival_times(500)
        assert np.all(np.diff(times) > 0)

    def test_mean_rate(self):
        times = arrival_times(20_000)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            generate_trace(n_sessions=10, arrival_rate=0.0)
        with pytest.raises(ValueError, match="n_sessions"):
            generate_trace(n_sessions=0, arrival_rate=1.0)
