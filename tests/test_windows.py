"""Unit tests for the sim-time sliding-window estimators and drift
detectors behind the health monitor (`repro.obs.windows`).

The detector tests run on *synthetic* traces with seeded RNGs so the
false-positive and detection-delay bounds they pin are deterministic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.windows import (
    Cusum,
    OccupancyWindow,
    PageHinkley,
    RateWindow,
    SlidingWindow,
    chi2_sf,
    g_test,
)


class TestSlidingWindow:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ObsError):
            SlidingWindow(0.0)

    def test_evicts_aged_samples(self):
        w = SlidingWindow(horizon=10.0)
        w.add(0.0, 1.0)
        w.add(5.0, 2.0)
        w.add(14.0, 3.0)
        assert w.values() == [2.0, 3.0]  # the t=0 sample aged out

    def test_empty_window_degrades_gracefully(self):
        w = SlidingWindow(horizon=1.0)
        assert w.values() == []

    def test_max_samples_caps_memory(self):
        w = SlidingWindow(horizon=1e9, max_samples=8)
        for i in range(100):
            w.add(float(i), float(i))
        assert len(w.values()) == 8


class TestRateWindow:
    def test_regular_stream_rate(self):
        w = RateWindow(horizon=50.0)
        for i in range(1, 501):
            w.observe(i * 0.1)  # 10 events per time unit
        assert w.rate(50.0) == pytest.approx(10.0, rel=0.05)

    def test_rate_decays_when_stream_stops(self):
        w = RateWindow(horizon=10.0)
        for i in range(1, 101):
            w.observe(i * 0.1)
        busy = w.rate(10.0)
        assert w.rate(25.0) < busy / 2

    def test_count_is_a_running_total(self):
        """The count equals a recount of the window, through age
        eviction (advance) and ring overflow (``max_samples``)."""
        w = RateWindow(horizon=10.0, max_samples=4)
        assert w.count == 0 and isinstance(w.count, int)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):  # the ring drops 0, 1
            w.observe(t)
            assert w.count == sum(w._window.values())
        assert w.count == 4.0
        w.advance(13.5)  # ages out t=2 and t=3
        assert w.count == sum(w._window.values()) == 2.0
        w.advance(100.0)
        assert w.count == 0 and isinstance(w.count, int)
        w.observe(100.0)
        assert w.count == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(("observe", "advance")),
                      st.floats(0.0, 8.0, allow_nan=False)),
            max_size=80),
        horizon=st.floats(0.5, 20.0),
        max_samples=st.integers(1, 12),
    )
    def test_count_equals_the_sum_of_the_window(self, steps, horizon,
                                                 max_samples):
        w = RateWindow(horizon=horizon, max_samples=max_samples)
        now = 0.0
        for op, dt in steps:
            now += dt
            if op == "observe":
                w.observe(now)
            else:
                w.advance(now)
            assert w.count == sum(w._window.values())
            assert w.count == len(w._window.values())


class TestOccupancyWindow:
    def test_histogram_is_time_weighted(self):
        w = OccupancyWindow(horizon=100.0)
        w.set_level(0.0, 0)
        w.set_level(4.0, 2)   # 4 units at level 0
        w.set_level(10.0, 1)  # 6 units at level 2
        hist = w.histogram(12.0)  # open segment: 2 units at level 1
        assert hist[0] == pytest.approx(4.0)
        assert hist[2] == pytest.approx(6.0)
        assert hist[1] == pytest.approx(2.0)

    def test_jump_counts_count_closed_segments(self):
        w = OccupancyWindow(horizon=100.0)
        w.set_level(0.0, 0)
        w.set_level(1.0, 1)
        w.set_level(2.0, 0)
        w.set_level(3.0, 1)
        counts = w.jump_counts()
        assert counts[0] == 2 and counts[1] == 1

    def test_window_evicts_old_segments(self):
        w = OccupancyWindow(horizon=5.0)
        w.set_level(0.0, 3)
        w.set_level(2.0, 0)
        w.set_level(20.0, 1)
        hist = w.histogram(21.0)
        assert 3 not in hist  # the early level-3 dwell aged out


class TestCusum:
    def test_no_drift_bounded_false_positives(self):
        # Standardized conformant stream: Exp(1) gaps as the monitor
        # feeds it.  Winsorized at 8 like the monitor's default.
        rng = random.Random(7)
        alarms = 0
        for _ in range(20):
            c = Cusum(target=1.0, k=0.5, h=24.0)
            for _ in range(2000):
                if c.update(min(rng.expovariate(1.0), 8.0)):
                    alarms += 1
                    break
        assert alarms == 0

    def test_detects_rate_increase_quickly(self):
        # Rate steps 1 -> 8: normalized gaps drop to mean 1/8.
        rng = random.Random(1)
        delays = []
        for _ in range(10):
            c = Cusum(target=1.0, k=0.5, h=24.0)
            for _ in range(500):
                c.update(min(rng.expovariate(1.0), 8.0))
            assert not c.tripped
            n = 0
            while not c.update(min(rng.expovariate(8.0), 8.0)):
                n += 1
                assert n < 500
            delays.append(n)
        assert max(delays) < 120  # tens of events, not hundreds
        assert c.direction == "down"

    def test_latches(self):
        c = Cusum(target=0.0, k=0.0, h=1.0)
        c.update(5.0)
        assert c.tripped
        c.update(0.0)
        assert c.tripped  # s_pos only drains by k=0 here, stays up


class TestPageHinkley:
    def test_warmup_suppresses_early_alarms(self):
        ph = PageHinkley(delta=0.0, threshold=0.5, min_samples=10)
        for x in (0.0, 100.0):
            ph.update(x)
        assert not ph.tripped  # statistic is huge but warm-up holds

    def test_no_drift_bounded_false_positives(self):
        rng = random.Random(11)
        alarms = 0
        for _ in range(20):
            ph = PageHinkley(delta=0.5, threshold=25.0, min_samples=30)
            for _ in range(2000):
                if ph.update(rng.gauss(0.0, 1.0)):
                    alarms += 1
                    break
        assert alarms == 0

    @pytest.mark.parametrize("shift,direction", [(3.0, "up"),
                                                 (-3.0, "down")])
    def test_detects_mean_shift_both_sides(self, shift, direction):
        rng = random.Random(3)
        ph = PageHinkley(delta=0.5, threshold=25.0, min_samples=30)
        for _ in range(500):
            ph.update(rng.gauss(0.0, 1.0))
        assert not ph.tripped
        n = 0
        while not ph.update(rng.gauss(shift, 1.0)):
            n += 1
            assert n < 200
        assert ph.direction == direction


class TestChi2Sf:
    def test_boundaries(self):
        assert chi2_sf(0.0, 5) == pytest.approx(1.0)
        assert chi2_sf(1e9, 5) == pytest.approx(0.0, abs=1e-12)

    def test_known_quantile(self):
        # chi2 with 1 df: P(X > 3.841) ~ 0.05
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=0.005)

    def test_monotone_decreasing(self):
        values = [chi2_sf(x, 4) for x in (0.0, 2.0, 6.0, 12.0)]
        assert values == sorted(values, reverse=True)


class TestGTest:
    EXPECTED = [0.5, 0.3, 0.15, 0.05]

    def test_conformant_sample_not_rejected(self):
        rng = random.Random(5)
        counts = {}
        for _ in range(1000):
            u, cum = rng.random(), 0.0
            for level, p in enumerate(self.EXPECTED):
                cum += p
                if u <= cum:
                    counts[level] = counts.get(level, 0) + 1
                    break
        result = g_test(counts, self.EXPECTED)
        assert result is not None
        assert result.p_value > 1e-4

    def test_shifted_sample_rejected(self):
        # Mass piled onto the tail the model calls rare.
        result = g_test({3: 500, 0: 500}, self.EXPECTED)
        assert result is not None
        assert result.p_value < 1e-10

    def test_levels_beyond_support_fold_into_last_cell(self):
        inside = g_test({3: 100, 0: 900}, self.EXPECTED)
        beyond = g_test({9: 100, 0: 900}, self.EXPECTED)
        assert inside is not None and beyond is not None
        assert beyond.statistic == pytest.approx(inside.statistic)

    def test_pools_sparse_cells(self):
        # Tiny n: the rare cells pool with neighbours instead of
        # blowing up the chi-square approximation.
        result = g_test({0: 3, 1: 2}, self.EXPECTED)
        assert result is None or result.df <= 3

    def test_degenerate_inputs_return_none(self):
        assert g_test({}, self.EXPECTED) is None
        assert g_test({0: 10}, [1.0]) is None
        assert g_test({0: 0, 1: 0}, self.EXPECTED) is None
