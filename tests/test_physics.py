"""Tests for the closed-form cooling relations.

Frozen expected values are computed from independent arithmetic on the
defining formulas (exact fractions where the 2*pi factors cancel), not by
calling the functions under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidebandlimit.physics import (
    CoolingPoint,
    RedDetuningError,
    SystemParams,
    backaction_limit,
    cooling_point,
    occupation_from_ratio,
    optimal_detuning,
    regime_boundaries,
    sideband_ratio,
    steady_state_occupation,
    temperature_from_occupation,
    thermal_occupation,
)

TWO_PI = 2.0 * math.pi

# Reference device constants used throughout the suite.
KAPPA_HZ = 2.6e6
OMEGA_M_HZ = 1.48e6
GAMMA_0_HZ = 0.18
EFFICIENCY = 0.04


@pytest.fixture
def params():
    return SystemParams.from_hz(KAPPA_HZ, OMEGA_M_HZ, GAMMA_0_HZ, EFFICIENCY)


class TestSystemParams:
    def test_from_hz_applies_two_pi(self, params):
        assert params.kappa == pytest.approx(TWO_PI * 2.6e6, rel=1e-15)
        assert params.omega_m == pytest.approx(TWO_PI * 1.48e6, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=-1.0, omega_m=1.0, gamma_0=0.1, efficiency=0.5),
            dict(kappa=1.0, omega_m=0.0, gamma_0=0.1, efficiency=0.5),
            dict(kappa=1.0, omega_m=1.0, gamma_0=0.0, efficiency=0.5),
            dict(kappa=1.0, omega_m=1.0, gamma_0=0.1, efficiency=0.0),
            dict(kappa=1.0, omega_m=1.0, gamma_0=0.1, efficiency=1.5),
            # high-Q assumption: gamma_0 must stay below omega_m
            dict(kappa=1.0, omega_m=1.0, gamma_0=2.0, efficiency=0.5),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)


class TestSidebandRatio:
    def test_reference_detuning(self, params):
        # ((2.6/2)^2 + 0.14^2) / ((2.6/2)^2 + 3.10^2) = 1.7096/11.3 (2*pi cancels)
        expected = 1.7096 / 11.3
        s = sideband_ratio(-TWO_PI * 1.62e6, params)
        assert s == pytest.approx(expected, rel=1e-12)
        assert s == pytest.approx(0.1513, abs=5e-5)

    def test_far_detuned_limit(self, params):
        s = sideband_ratio(-TWO_PI * 1e12, params)
        assert s == pytest.approx(1.0, abs=1e-5)

    def test_resolved_sideband_suppression(self):
        narrow = SystemParams.from_hz(1.0, OMEGA_M_HZ, GAMMA_0_HZ, EFFICIENCY)
        s = sideband_ratio(-narrow.omega_m, narrow)
        assert s < 1e-11

    def test_rejects_non_negative_detuning(self, params):
        for delta in (0.0, 1e6):
            with pytest.raises(RedDetuningError):
                sideband_ratio(delta, params)

    def test_array_input(self, params):
        deltas = -TWO_PI * np.array([0.5e6, 1.62e6, 2.5e6])
        s = sideband_ratio(deltas, params)
        assert s.shape == (3,)
        assert np.all((s > 0) & (s < 1))


class TestBackactionLimit:
    def test_reference_detuning(self, params):
        # 1.7096 / (4 * 1.48 * 1.62) = 1.7096/9.5904, the "0.18" device value
        expected = 1.7096 / 9.5904
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        assert n_ba == pytest.approx(expected, rel=1e-12)
        assert n_ba == pytest.approx(0.178, abs=1e-3)

    def test_on_sideband_equals_resolved_limit(self, params):
        # at delta = -omega_m the (omega_m + delta) term vanishes exactly
        n_ba = backaction_limit(-params.omega_m, params)
        assert n_ba == pytest.approx((params.kappa / (4 * params.omega_m)) ** 2, rel=1e-14)

    def test_half_mhz_detuning(self, params):
        # (0.98^2 + 1.3^2) / (4 * 1.48 * 0.5) = 2.6504/2.96
        assert backaction_limit(-TWO_PI * 0.5e6, params) == pytest.approx(
            2.6504 / 2.96, rel=1e-12
        )

    def test_rejects_heating_regime(self, params):
        with pytest.raises(RedDetuningError, match="red detuning"):
            backaction_limit(0.0, params)

    @given(delta_mhz=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_identity_with_sideband_ratio(self, delta_mhz):
        params = SystemParams.from_hz(KAPPA_HZ, OMEGA_M_HZ, GAMMA_0_HZ, EFFICIENCY)
        delta = -TWO_PI * delta_mhz * 1e6
        s = sideband_ratio(delta, params)
        assert backaction_limit(delta, params) == pytest.approx(
            s / (1.0 - s), rel=1e-12
        )


class TestOptimalDetuning:
    def test_reference_values(self, params):
        delta_opt, n_ba_min = optimal_detuning(params)
        assert delta_opt == pytest.approx(-TWO_PI * 1.96987309e6, rel=1e-8)
        # equals (sqrt(1 + (kappa/2 omega_m)^2) - 1) / 2
        alt = (math.sqrt(1.0 + (2.6 / 2.96) ** 2) - 1.0) / 2.0
        assert n_ba_min == pytest.approx(alt, rel=1e-12)
        assert n_ba_min == pytest.approx(0.1655, abs=5e-5)

    def test_narrow_cavity_limit(self):
        params = SystemParams.from_hz(1e-3, OMEGA_M_HZ, 1e-4, EFFICIENCY)
        delta_opt, _ = optimal_detuning(params)
        assert delta_opt == pytest.approx(-params.omega_m, rel=1e-9)

    def test_matches_brute_force_argmin(self, params):
        # independent grid-scan oracle over (-4 omega_m, -0.01 omega_m)
        grid = np.linspace(-4 * params.omega_m, -0.01 * params.omega_m, 100_000)
        values = backaction_limit(grid, params)
        brute = grid[np.argmin(values)]
        delta_opt, n_ba_min = optimal_detuning(params)
        step = grid[1] - grid[0]
        assert abs(delta_opt - brute) <= step
        assert n_ba_min <= values.min() + 1e-15


class TestSteadyStateOccupation:
    def test_no_cooling_returns_bath(self):
        assert steady_state_occupation(5068.0, 0.18, 0.178, 0.0) == 5068.0

    def test_reference_point(self):
        # (5068 * 0.18 + 0.178 * 30000) / 30000.18, plain arithmetic
        expected = (5068.0 * 0.18 + 0.178 * 30000.0) / (0.18 + 30000.0)
        got = steady_state_occupation(5068.0, 0.18, 0.178, 30000.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.209, abs=1e-3)

    def test_strong_cooling_limit(self):
        got = steady_state_occupation(5068.0, 0.18, 0.178, 1e15)
        assert got == pytest.approx(0.178, rel=1e-9)

    @given(
        n0=st.floats(min_value=1e-3, max_value=1e6),
        n_ba=st.floats(min_value=0.0, max_value=1e3),
        gamma_0=st.floats(min_value=1e-3, max_value=1e3),
        gamma_opt=st.floats(min_value=0.0, max_value=1e9),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_inputs(self, n0, n_ba, gamma_0, gamma_opt):
        n_bar = steady_state_occupation(n0, gamma_0, n_ba, gamma_opt)
        lo, hi = min(n0, n_ba), max(n0, n_ba)
        assert lo - 1e-12 * hi <= n_bar <= hi * (1 + 1e-12)

    @given(
        n0=st.floats(min_value=1.0, max_value=1e6),
        n_ba=st.floats(min_value=1e-3, max_value=0.99),
        gamma_0=st.floats(min_value=1e-3, max_value=10.0),
        gamma_opt=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_decreasing_when_cooling(self, n0, n_ba, gamma_0, gamma_opt):
        a = steady_state_occupation(n0, gamma_0, n_ba, gamma_opt)
        b = steady_state_occupation(n0, gamma_0, n_ba, gamma_opt * 2.0)
        if n0 > n_ba:
            assert b <= a
        elif n0 < n_ba:
            assert b >= a


class TestOccupationFromRatio:
    def test_round_trip(self):
        n, s = 0.20, 1.7096 / 11.3
        r = s * (1.0 + 1.0 / n)
        assert occupation_from_ratio(r, s) == pytest.approx(n, rel=1e-12)

    def test_equal_sidebands_reproduce_backaction_limit(self, params):
        s = sideband_ratio(-TWO_PI * 1.62e6, params)
        assert occupation_from_ratio(1.0, s) == pytest.approx(
            backaction_limit(-TWO_PI * 1.62e6, params), rel=1e-12
        )

    def test_large_ratio_limit(self):
        assert occupation_from_ratio(1e12, 0.15) < 2e-13

    def test_unphysical_ratio_flagged(self):
        assert math.isnan(occupation_from_ratio(0.10, 0.15))

    @given(
        n=st.floats(min_value=1e-3, max_value=1e6),
        s=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=500, deadline=None)
    def test_inversion_property(self, n, s):
        assert occupation_from_ratio(s * (1.0 + 1.0 / n), s) == pytest.approx(n, rel=1e-9)


class TestThermalOccupation:
    def test_bath_temperature(self, params):
        # k_B * 0.36 / (hbar * 2 pi * 1.48e6), CODATA constants
        expected = 1.380649e-23 * 0.36 / (1.054571817e-34 * TWO_PI * 1.48e6)
        n0 = thermal_occupation(0.36, params.omega_m)
        assert n0 == pytest.approx(expected, rel=1e-12)
        assert n0 == pytest.approx(5.07e3, rel=2e-3)

    def test_cryostat_temperature(self, params):
        assert thermal_occupation(0.07, params.omega_m) == pytest.approx(985.5, abs=0.1)

    def test_round_trip(self, params):
        t = temperature_from_occupation(thermal_occupation(0.36, params.omega_m), params.omega_m)
        assert t == pytest.approx(0.36, rel=1e-14)

    def test_rejects_non_positive(self, params):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, params.omega_m)
        with pytest.raises(ValueError):
            temperature_from_occupation(-1.0, params.omega_m)


class TestRamanRates:
    def test_per_quantum_rates(self, params):
        point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
        s = 1.7096 / 11.3
        assert point.rate_antistokes_per_quantum == pytest.approx(
            TWO_PI * 30e3 / (1 - s), rel=1e-12
        )
        assert point.rate_antistokes_per_quantum == pytest.approx(TWO_PI * 35.35e3, rel=1e-4)
        assert point.rate_stokes_per_quantum == pytest.approx(TWO_PI * 5.348e3, rel=1e-4)

    def test_detailed_balance_at_backaction_limit(self, params):
        point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
        g_plus = point.rate_stokes_per_quantum * (point.n_ba + 1.0)
        g_minus = point.rate_antistokes_per_quantum * point.n_ba
        assert g_plus == pytest.approx(g_minus, rel=1e-12)

    @given(delta_mhz=st.floats(min_value=0.05, max_value=5.0),
           gamma_opt=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_rate_difference_is_gamma_opt(self, delta_mhz, gamma_opt):
        params = SystemParams.from_hz(KAPPA_HZ, OMEGA_M_HZ, GAMMA_0_HZ, EFFICIENCY)
        point = cooling_point(params, -TWO_PI * delta_mhz * 1e6, gamma_opt)
        diff = point.rate_antistokes_per_quantum - point.rate_stokes_per_quantum
        assert diff == pytest.approx(gamma_opt, rel=1e-12)


class TestRegimeBoundaries:
    def test_reference_values(self, params):
        n0 = thermal_occupation(0.36, params.omega_m)
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        b = regime_boundaries(n0, n_ba, 0.18)
        assert b.onset == 0.18
        assert b.ground_state == pytest.approx(912.3, abs=0.1)
        assert b.backaction == pytest.approx(5.118e3, rel=1e-3)

    def test_degenerate_flagged(self):
        b = regime_boundaries(1.0, 1.0, 0.18)
        assert b.ground_state == pytest.approx(b.backaction)

    def test_occupation_at_backaction_boundary(self, params):
        # substituting gamma_opt = (n0/n_ba) gamma_0 into the rate equation
        # gives 2 n0 n_ba / (n0 + n_ba) ~ 2 n_ba for n_ba << n0
        n0 = thermal_occupation(0.36, params.omega_m)
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        b = regime_boundaries(n0, n_ba, 0.18)
        n_bar = steady_state_occupation(n0, 0.18, n_ba, b.backaction)
        assert n_bar == pytest.approx(2.0 * n0 * n_ba / (n0 + n_ba), rel=1e-12)
        assert n_bar == pytest.approx(2.0 * n_ba, rel=1e-3)


class TestCoolingPoint:
    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="s_ratio"):
            CoolingPoint(detuning=-1.0, gamma_opt=1.0, s_ratio=1.0)
        with pytest.raises(ValueError, match="gamma_opt"):
            CoolingPoint(detuning=-1.0, gamma_opt=-1.0, s_ratio=0.5)

    def test_rejects_blue_detuning(self, params):
        with pytest.raises(RedDetuningError):
            cooling_point(params, +1.0, 1.0)
