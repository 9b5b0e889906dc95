"""Tests for the analytic heterodyne spectrum model and bias diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidebandlimit.physics import (
    SystemParams,
    cooling_point,
    occupation_from_ratio,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.spectra import (
    LASER_NOISE_OCCUPATION_SCALE,
    HeterodyneSpectrum,
    SpectrumModel,
    apparent_sideband_bias,
    build_model,
    evaluate_psd,
    laser_noise_bias,
    lorentzian,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def params():
    return SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)


@pytest.fixture
def reference(params):
    """The device's final operating point: strongest drive near -1.62 MHz."""
    point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
    n0 = thermal_occupation(0.36, params.omega_m)
    n_bar = steady_state_occupation(n0, params.gamma_0, point.n_ba, point.gamma_opt)
    return params, point, n_bar


class TestBuildModel:
    def test_peak_heights(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        # plug-in arithmetic: 4 * eps * A_minus * n / gamma_eff etc.
        gamma_eff = params.gamma_0 + point.gamma_opt
        expected_as = 4 * 0.04 * point.rate_antistokes_per_quantum * n_bar / gamma_eff
        expected_s = 4 * 0.04 * point.rate_stokes_per_quantum * (n_bar + 1) / gamma_eff
        assert model.peak_antistokes == pytest.approx(expected_as, rel=1e-12)
        assert model.peak_stokes == pytest.approx(expected_s, rel=1e-12)
        # frozen values for the reference point (n_bar = 0.20867)
        assert model.peak_antistokes == pytest.approx(0.0393387, rel=1e-5)
        assert model.peak_stokes == pytest.approx(0.0344733, rel=1e-5)

    def test_equal_peaks_at_backaction_limit(self, reference):
        params, point, _ = reference
        model = build_model(params, point, point.n_ba)
        assert model.peak_stokes == pytest.approx(model.peak_antistokes, rel=1e-12)

    def test_classical_limit_ratio_approaches_s(self, reference):
        params, point, _ = reference
        model = build_model(params, point, 1e7)
        ratio = model.peak_stokes / model.peak_antistokes
        assert ratio == pytest.approx(point.s_ratio, rel=1e-6)

    @given(
        n_bar=st.floats(min_value=1e-3, max_value=1e5),
        gamma_opt_hz=st.floats(min_value=1.0, max_value=3e4),
        delta_mhz=st.floats(min_value=0.2, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_ratio_law_and_inversion(self, n_bar, gamma_opt_hz, delta_mhz):
        params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
        point = cooling_point(params, -TWO_PI * delta_mhz * 1e6, TWO_PI * gamma_opt_hz)
        model = build_model(params, point, n_bar)
        ratio = model.peak_stokes / model.peak_antistokes
        assert ratio == pytest.approx(
            point.s_ratio * (n_bar + 1.0) / n_bar, rel=1e-10
        )
        recovered = occupation_from_ratio(ratio, point.s_ratio)
        assert recovered == pytest.approx(n_bar, rel=1e-10)

    def test_background_raises_floor(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar, background_fraction=0.05)
        assert model.floor == pytest.approx(1.05)

    def test_rejects_floor_below_shot_noise(self, reference):
        params, point, n_bar = reference
        with pytest.raises(ValueError, match="floor"):
            build_model(params, point, n_bar, background_fraction=-0.01)

    def test_rejects_negative_occupation(self, reference):
        params, point, _ = reference
        with pytest.raises(ValueError):
            build_model(params, point, -0.1)


class TestEvaluatePsd:
    def test_peak_evaluation(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        at_peak = evaluate_psd(model, np.array([model.omega_m]))[0]
        leak = model.peak_stokes * lorentzian(
            model.omega_m, -model.omega_m, model.gamma_eff
        )
        assert at_peak == pytest.approx(model.floor + model.peak_antistokes + leak, rel=1e-12)
        assert leak < 1e-4 * model.peak_antistokes

    def test_far_tail_returns_to_floor(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        omega = model.omega_m + 1e3 * model.gamma_eff
        tail = evaluate_psd(model, np.array([omega, -omega]))
        assert np.all(np.abs(tail - model.floor) < 1e-4)

    def test_area_matches_analytic(self, reference):
        # quadrature of (psd - floor) vs (pi gamma_eff / 2)(sum of peaks)
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        span = model.omega_m + 700 * model.gamma_eff
        omega = np.arange(-span, span, model.gamma_eff / 50.0)
        area = np.trapezoid(evaluate_psd(model, omega) - model.floor, omega)
        expected = (
            math.pi * model.gamma_eff / 2.0
            * (model.peak_stokes + model.peak_antistokes)
        )
        assert area == pytest.approx(expected, rel=1e-3)

    def test_floor_normalization_off_resonance(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        lo = model.omega_m + 300 * model.gamma_eff
        omega = np.linspace(lo, lo + 700 * model.gamma_eff, 2001)
        median = np.median(evaluate_psd(model, omega))
        assert abs(median - model.floor) < 1e-6

    def test_mirror_symmetry_for_equal_sidebands(self):
        model = SpectrumModel(
            omega_m=1e6,
            gamma_eff=1e3,
            peak_stokes=2.5,
            peak_antistokes=2.5,
            floor=1.0,
        )
        omega = np.linspace(0.1e6, 2e6, 501)
        assert evaluate_psd(model, omega) == pytest.approx(evaluate_psd(model, -omega))

    def test_rejects_empty_grid(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        with pytest.raises(ValueError):
            evaluate_psd(model, np.array([]))


class TestHeterodyneSpectrum:
    def test_sparse_record_addresses_grid_bins(self):
        spec = HeterodyneSpectrum(
            f_lo=0.0, resolution=1.0, psd=np.ones(5), n_avg=1,
            index=np.array([1, 2, 6, 7, 9]), grid_bins=12,
        )
        assert spec.n_bins == 5
        assert spec.f_lo + (spec.grid_bins - 1) * spec.resolution == 11.0
        assert spec.frequencies == pytest.approx([1.0, 2.0, 6.0, 7.0, 9.0])

    def test_full_record_is_the_default_index(self):
        spec = HeterodyneSpectrum(f_lo=-2.0, resolution=0.5, psd=np.ones(9), n_avg=1)
        assert np.array_equal(spec.index, np.arange(9))
        assert spec.grid_bins == 9

    @pytest.mark.parametrize(
        "index, grid_bins",
        [([0, 2, 2], 5), ([3, 1, 4], 5), ([-1, 0, 1], 5), ([0, 1, 5], 5), ([0.0, 1.0, 2.0], 5)],
    )
    def test_rejects_bad_index(self, index, grid_bins):
        with pytest.raises(ValueError, match="index"):
            HeterodyneSpectrum(
                f_lo=0.0, resolution=1.0, psd=np.ones(3), n_avg=1,
                index=np.array(index), grid_bins=grid_bins,
            )

    def test_rejects_negative_psd(self):
        with pytest.raises(ValueError):
            HeterodyneSpectrum(f_lo=0.0, resolution=1.0, psd=np.array([1.0, -1.0]), n_avg=1)


class TestApparentSidebandBias:
    def test_zero_background_zero_bias(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        assert apparent_sideband_bias(model, 0.0) == 0.0

    def test_common_scaling_preserves_ratio(self, reference):
        # the first-order effect of the misnormalization is a common
        # factor on both amplitudes, which cancels exactly in the ratio
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        for b in (0.01, 0.2):
            scaled_ratio = (model.peak_stokes / (1 + b)) / (model.peak_antistokes / (1 + b))
            assert scaled_ratio == pytest.approx(
                model.peak_stokes / model.peak_antistokes, rel=1e-15
            )

    def test_bias_grows_with_background(self, reference):
        params, point, n_bar = reference
        model = build_model(params, point, n_bar)
        biases = [apparent_sideband_bias(model, b) for b in (0.0005, 0.001, 0.002)]
        assert 0 < biases[0] < biases[1] < biases[2]

    def test_requires_physics_metadata(self):
        bare = SpectrumModel(
            omega_m=1e6, gamma_eff=1e3, peak_stokes=1.0, peak_antistokes=2.0,
            floor=1.0,
        )
        with pytest.raises(ValueError, match="metadata"):
            apparent_sideband_bias(bare, 0.01)


class TestLaserNoiseBias:
    def test_zero_noise_zero_bias(self):
        assert laser_noise_bias(0.0, 0.0) == 0.0

    def test_reference_calibration(self):
        # independently measured noise levels: 0.2% amplitude, 2% phase
        bias = laser_noise_bias(0.002, 0.02)
        assert abs(bias) == pytest.approx(0.006, abs=1e-9)

    def test_linearity_in_each_fraction(self):
        # finite-difference check of the perturbative model
        base = laser_noise_bias(0.01, 0.01)
        d_amp = laser_noise_bias(0.02, 0.01) - base
        d_phase = laser_noise_bias(0.01, 0.02) - base
        half_amp = laser_noise_bias(0.015, 0.01) - base
        assert half_amp == pytest.approx(0.5 * d_amp, rel=1e-9)
        assert d_amp == pytest.approx(d_phase, rel=1e-9)

    def test_rejects_negative_fractions(self):
        with pytest.raises(ValueError):
            laser_noise_bias(-0.1, 0.0)

    @pytest.mark.parametrize(
        "amp, phase",
        [(0.0, 0.0), (0.002, 0.02), (0.01, 0.0), (0.0, 0.3), (0.123, 0.0456)],
    )
    def test_closed_form_is_exact(self, amp, phase):
        # The inverted ratio s (n + 1 + c) / (n + c) reads n + c exactly, so
        # the shift is the scaled noise sum, bit for bit.
        expected = LASER_NOISE_OCCUPATION_SCALE * (amp + phase)
        assert laser_noise_bias(amp, phase) == expected
