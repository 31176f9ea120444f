"""Tests for the rate-degradation families f and g."""

import pytest

from repro.markov.degradation import (
    RateFunction,
    constant,
    fig4_cases,
    inverse_k,
    power_law,
)


class TestFamilies:
    def test_constant(self):
        f = constant(15.0)
        assert f(1) == f(10) == 15.0

    def test_inverse_k(self):
        f = inverse_k(15.0)
        assert f(1) == 15.0
        assert f(3) == 5.0

    def test_power_law(self):
        f = power_law(16.0, 0.5)
        assert f(1) == 16.0
        assert f(4) == pytest.approx(8.0)

    def test_power_law_zero_alpha_is_constant(self):
        f = power_law(10.0, 0.0)
        assert f(7) == 10.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            inverse_k(1.0)(0)

    def test_negative_rate_rejected(self):
        bad = RateFunction("bad", 1.0, lambda b, k: b - k)
        with pytest.raises(ValueError, match="negative"):
            bad(5)

    @pytest.mark.parametrize("factory", [
        lambda: constant(9.0),
        lambda: inverse_k(9.0),
        lambda: power_law(9.0, 0.3),
    ])
    def test_non_increasing(self, factory):
        f = factory()
        values = [f(k) for k in range(1, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestFig4Cases:
    def test_four_panels(self):
        cases = fig4_cases(15.0, 20.0)
        assert set(cases) == {"a", "b", "c", "d"}

    def test_panel_shapes(self):
        cases = fig4_cases(15.0, 20.0)
        f_a, g_a = cases["a"]
        assert f_a(30) > 15.0 / 2      # very slow degradation
        f_b, g_b = cases["b"]
        assert f_b(3) == 5.0 and g_b(4) == 5.0
        f_c, g_c = cases["c"]
        assert f_c(10) == 15.0 and g_c(10) == 2.0   # only ξ degrades
        f_d, g_d = cases["d"]
        assert f_d(10) == 1.5 and g_d(10) == 20.0   # only μ degrades

    def test_base_rates_respected(self):
        for f, g in fig4_cases(7.0, 9.0).values():
            assert f(1) == 7.0
            assert g(1) == 9.0


class TestAdversarialInputs:
    """Hostile corners: extreme queue depths, boundary parameters, and
    the non-increasing law under randomly drawn bases (the shared
    strategy palette from repro.scenarios.generate)."""

    def test_huge_queue_depths_stay_finite_and_nonnegative(self):
        for fn in (constant(15.0), inverse_k(15.0),
                   power_law(15.0, 0.5)):
            for k in (1, 10**3, 10**6, 10**9):
                rate = fn(k)
                assert rate >= 0.0
                assert rate <= fn.base

    def test_negative_base_is_caught_on_call(self):
        fn = inverse_k(-5.0)
        with pytest.raises(ValueError):
            fn(1)

    def test_k_zero_and_negative_rejected_by_every_family(self):
        for fn in (constant(1.0), inverse_k(1.0), power_law(1.0, 0.3)):
            for bad in (0, -1, -10**9):
                with pytest.raises(ValueError):
                    fn(bad)

class TestNonIncreasingProperty:
    """The paper's standing assumption μ_1 ≥ μ_2 ≥ ... holds for every
    family at every drawn base rate — checked by property."""

    def test_all_families_non_increasing_over_drawn_bases(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings

        from repro.scenarios.generate import service_rates

        @settings(max_examples=40, deadline=None)
        @given(base=service_rates)
        def inner(base):
            for fn in (constant(base), inverse_k(base),
                       power_law(base, 0.05), power_law(base, 1.0)):
                rates = [fn(k) for k in range(1, 40)]
                assert all(a >= b - 1e-12
                           for a, b in zip(rates, rates[1:])), fn.name

        inner()
