"""Property-based tests pitting the Crommelin formula against Lindley.

The M/D/1 analysis underpins the Figures 9-11 analytical bounds; these
properties check it against an independent computation (the Lindley
waiting-time recursion) across randomized utilizations and service
times, plus structural facts that must hold for any stable queue.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.md1 import (
    md1_delay_ccdf,
    md1_mean_wait,
    md1_wait_cdf,
)


class TestAgainstLindley:
    @settings(max_examples=10, deadline=None)
    @given(rho=st.floats(min_value=0.1, max_value=0.85),
           service=st.floats(min_value=1e-4, max_value=1e-2),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_cdf_within_sampling_error(self, rho, service, seed):
        # Successive Lindley waits are strongly correlated near rho = 0.85,
        # so the sample must be long for its empirical CDF to sit reliably
        # within 0.03 of the formula: at 30,000 customers about one run in
        # twenty misses by sampling error alone; at 300,000 the worst miss
        # over 100 seeds is about 0.015.
        lam = rho / service
        rng = random.Random(seed)
        wait = 0.0
        waits = []
        for _ in range(300_000):
            gap = -math.log(rng.random()) / lam
            wait = max(0.0, wait + service - gap)
            waits.append(wait)
        waits.sort()
        import bisect
        for quantile in (0.25, 0.5, 1.0, 2.0, 4.0):
            t = quantile * service
            empirical = bisect.bisect_right(waits, t) / len(waits)
            formula = md1_wait_cdf(t, lam, service)
            assert formula == pytest.approx(empirical, abs=0.03)


class TestStructure:
    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.95),
           service=st.floats(min_value=1e-5, max_value=1.0))
    def test_atom_at_zero_is_one_minus_rho(self, rho, service):
        lam = rho / service
        assert md1_wait_cdf(0.0, lam, service) == pytest.approx(
            1.0 - rho, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.9),
           service=st.floats(min_value=1e-4, max_value=1e-1))
    def test_mean_wait_increases_with_utilization(self, rho, service):
        lam = rho / service
        higher = min(rho + 0.05, 0.95) / service
        assert md1_mean_wait(higher, service) > md1_mean_wait(
            lam, service)

    @settings(max_examples=20, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.9),
           service=st.floats(min_value=1e-4, max_value=1e-1),
           k=st.integers(min_value=1, max_value=20))
    def test_delay_ccdf_decreasing_in_t(self, rho, service, k):
        lam = rho / service
        earlier = md1_delay_ccdf(k * service / 2, lam, service)
        later = md1_delay_ccdf((k + 1) * service / 2, lam, service)
        assert later <= earlier + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(service=st.floats(min_value=1e-4, max_value=1e-1))
    def test_delay_certain_below_one_service_time(self, service):
        lam = 0.5 / service
        assert md1_delay_ccdf(0.5 * service, lam, service) == \
            pytest.approx(1.0)
