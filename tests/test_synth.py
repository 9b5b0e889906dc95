"""Tests for synthetic spectra and the time-domain oscillator oracle.

Statistical assertions run against pinned seeds: the tolerances were
chosen for the distributions involved and the seeds fixed once, so these
are regression tests, not flaky hypothesis checks.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import curve_fit

from sidebandlimit.physics import (
    SystemParams,
    cooling_point,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.spectra import (
    BINS_PER_LINEWIDTH,
    SPAN_LINEWIDTHS,
    build_model,
    evaluate_psd,
    lorentzian,
)
from sidebandlimit.synth import (
    OscillatorRecord,
    estimate_psd,
    simulate_oscillator,
    synthesize_spectrum,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def model():
    params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
    point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
    n0 = thermal_occupation(0.36, params.omega_m)
    n_bar = steady_state_occupation(n0, params.gamma_0, point.n_ba, point.gamma_opt)
    return build_model(params, point, n_bar)


@pytest.fixture
def narrow_model():
    """Weak-drive point: narrow sidebands leave a wide off-resonant slab."""
    params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
    point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 300.0)
    n0 = thermal_occupation(0.36, params.omega_m)
    n_bar = steady_state_occupation(n0, params.gamma_0, point.n_ba, point.gamma_opt)
    return build_model(params, point, n_bar)


def _full_grid(model):
    """``(f_lo, resolution, grid_bins, index)`` of every bin across both spans."""
    span = model.omega_m + SPAN_LINEWIDTHS * model.gamma_eff
    resolution = model.gamma_eff / BINS_PER_LINEWIDTH
    return -span, resolution, math.floor(2 * span / resolution) + 1, None


class TestSynthesizeSpectrum:
    def test_deterministic_for_fixed_seed(self, model):
        a = synthesize_spectrum(model, _full_grid(model), 100.0, 1234)
        b = synthesize_spectrum(model, _full_grid(model), 100.0, 1234)
        assert np.array_equal(a.psd, b.psd)
        c = synthesize_spectrum(model, _full_grid(model), 100.0, 1235)
        assert not np.array_equal(a.psd, c.psd)

    def test_seed_sequence_children_accepted(self, model):
        root = np.random.SeedSequence(7)
        children = root.spawn(2)
        specs = [
            synthesize_spectrum(model, _full_grid(model), 50.0, child)
            for child in children
        ]
        assert not np.array_equal(specs[0].psd, specs[1].psd)
        # sibling streams are uncorrelated
        draws = [spec.psd / evaluate_psd(model, spec.frequencies) for spec in specs]
        assert abs(np.corrcoef(*draws)[0, 1]) < 4 / math.sqrt(draws[0].size)

    def test_stream_is_numpy_standard_gamma(self, model):
        # the stream's definition: the model at the stored bins times one
        # standard_gamma call of the record's seed, in synthesize_spectrum's order
        seed = np.random.SeedSequence(1801, spawn_key=(3, 11))
        index = np.arange(40, 2000, 7)
        f_lo, resolution, grid_bins, _ = _full_grid(model)
        grid, n_avg = (f_lo, resolution, grid_bins, index), 26_296.0
        psd = evaluate_psd(model, f_lo + resolution * index)
        draws = np.random.default_rng(seed).standard_gamma(n_avg, index.size)
        spec = synthesize_spectrum(model, grid, n_avg, seed)
        assert np.array_equal(spec.index, index)
        assert np.array_equal(spec.psd, draws * (psd / n_avg))
        noiseless = synthesize_spectrum(model, grid, math.inf, seed)
        assert np.array_equal(noiseless.psd, psd)

    def test_noiseless_mode_returns_model(self, model):
        spec = synthesize_spectrum(model, _full_grid(model), math.inf, 0)
        assert spec.psd == pytest.approx(evaluate_psd(model, spec.frequencies), rel=1e-15)

    def test_mean_converges_at_large_averaging(self, model):
        spec = synthesize_spectrum(model, _full_grid(model), 1e6, 5)
        mean_model = evaluate_psd(model, spec.frequencies)
        # off-resonant slab: flat model, 5-sigma band on the grand mean
        sel = spec.frequencies > model.omega_m + 10 * model.gamma_eff
        n = sel.sum()
        sigma_grand = np.mean(mean_model[sel]) / math.sqrt(1e6 * n)
        assert abs(spec.psd[sel].mean() - mean_model[sel].mean()) < 5 * sigma_grand

    def test_bin_variance_follows_gamma_law(self, narrow_model):
        # variance ~ model^2 / n_avg over an off-resonant window
        model = narrow_model
        spec = synthesize_spectrum(model, _full_grid(model), 100.0, 11)
        sel = np.abs(spec.frequencies) < model.omega_m - 100 * model.gamma_eff
        values = spec.psd[sel][:10_000]
        assert values.size == 10_000
        expected_var = model.floor**2 / 100.0
        assert np.var(values, ddof=1) == pytest.approx(expected_var, rel=0.10)

    @pytest.mark.parametrize("n_avg", [1.0, 4.0, 100.0, 26_296.0, 4.7e7])
    def test_off_resonant_bins_pass_ks_against_gamma_law(self, narrow_model, n_avg):
        # fixed-seed regression at the 1e-3 level, 1e4 off-resonant bins
        model = narrow_model
        spec = synthesize_spectrum(model, _full_grid(model), n_avg, 20250810)
        sel = np.abs(spec.frequencies) < model.omega_m - 100 * model.gamma_eff
        values = spec.psd[sel][:10_000]
        result = stats.kstest(values, "gamma", args=(n_avg, 0.0, model.floor / n_avg))
        assert result.pvalue > 1e-3
        # adjacent bins are uncorrelated
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert abs(lag1) < 4 / math.sqrt(values.size)

    @pytest.mark.parametrize(
        "n_avg, seed", [(1.0, 1), (4.0, 2), (100.0, 3), (26_296.0, 4), (4.7e7, 5)]
    )
    def test_draws_hold_gamma_moments(self, narrow_model, n_avg, seed):
        # every bin of the record, divided by its model value, is a Gamma(n_avg)
        # draw: mean and variance within 4 sigma of their estimates
        model = narrow_model
        spec = synthesize_spectrum(model, _full_grid(model), n_avg, seed)
        draws = spec.psd / (evaluate_psd(model, spec.frequencies) / n_avg)
        n = draws.size
        assert n > 100_000
        sigma_mean = math.sqrt(n_avg / n)
        assert abs(draws.mean() - n_avg) < 4 * sigma_mean
        sigma_var = n_avg * math.sqrt((2.0 + 6.0 / n_avg) / n)
        assert abs(draws.var(ddof=1) - n_avg) < 4 * sigma_var

    def test_rejects_grid_missing_a_sideband(self, model):
        _, resolution, grid_bins, _ = _full_grid(model)
        grid = (0.0, resolution, grid_bins // 2 + 1, None)
        with pytest.raises(ValueError, match="span both sidebands"):
            synthesize_spectrum(model, grid, 10.0, 0)

    def test_cost_follows_recorded_bins_not_grid(self, narrow_model):
        # 4096 bins of a 2e10-bin grid: nothing is drawn for the others
        model = narrow_model
        span = model.omega_m + SPAN_LINEWIDTHS * model.gamma_eff
        grid_bins = 2 * 10**10 + 1
        index = np.unique(np.random.default_rng(8).integers(0, grid_bins, 4200))[:4096]
        tracemalloc.start()
        try:
            spec = synthesize_spectrum(model, (-span, span / 1e10, grid_bins, index), 1e4, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert spec.psd.size == 4096 and np.all(spec.psd > 0)


class TestSynthesisValidation:
    @pytest.mark.parametrize("n_avg", [0.5, 0.0, math.nan])
    def test_rejects_low_averaging(self, model, n_avg):
        # n_avg = 0 must stop before the draw divides by it
        with pytest.raises(ValueError, match="n_avg"):
            synthesize_spectrum(model, (-1.0, 0.1, 21, None), n_avg, 0)

    def test_rejects_empty_span(self, model):
        for grid_bins in (0, 1):
            with pytest.raises(ValueError, match="span both sidebands"):
                synthesize_spectrum(model, (1.0, 0.1, grid_bins, None), 1000.0, 0)


class TestSimulateOscillator:
    # scaled-down mode keeps unit-test records short; the acceptance
    # suite exercises the device-scale numbers
    OMEGA_M = TWO_PI * 50e3
    GAMMA = TWO_PI * 5e2

    def _record(self, n_target, duration, seed=3):
        return simulate_oscillator(
            self.GAMMA, self.OMEGA_M, n_target, duration, sample_rate=5e6, seed=seed
        )

    def test_stationary_occupation(self):
        # 1e4 correlation times; sample variance of |alpha|^2 -> n_target
        tau = 2.0 / self.GAMMA
        record = self._record(3.5, 1e4 * tau)
        occupancy = np.mean(np.abs(record.values) ** 2)
        assert occupancy == pytest.approx(3.5, rel=0.03)

    def test_autocorrelation_decay_time(self):
        tau = 2.0 / self.GAMMA
        record = self._record(1.0, 5e3 * tau, seed=4)
        values = record.values
        max_lag = int(1.5 * tau / record.dt)
        lags = np.linspace(1, max_lag, 24).astype(int)
        acf = np.array(
            [np.abs(np.mean(np.conj(values[:-lag]) * values[lag:])) for lag in lags]
        )
        acf /= np.mean(np.abs(values) ** 2)
        slope = np.polyfit(lags * record.dt, np.log(acf), 1)[0]
        assert -1.0 / slope == pytest.approx(tau, rel=0.05)

    def test_zero_target_gives_silent_record(self):
        record = self._record(0.0, 0.01)
        assert np.all(record.values == 0)

    def test_rejects_coarse_step(self):
        # above the 4x sideband floor but below 10 samples per radian
        with pytest.raises(ValueError, match="too coarse"):
            simulate_oscillator(self.GAMMA, TWO_PI * 5e6, 1.0, 0.01, sample_rate=3e7)

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            simulate_oscillator(TWO_PI * 50.0, TWO_PI * 40e3, 1.0, 0.01, sample_rate=1e5)

    def test_deterministic(self):
        a = self._record(1.0, 0.05)
        b = self._record(1.0, 0.05)
        assert np.array_equal(a.values, b.values)


class TestEstimatePsd:
    def test_real_sinusoid_concentrates_power(self):
        fs = 1e5
        f0 = 1e4  # on-bin for nperseg = 1000
        t = np.arange(200_000) / fs
        record = OscillatorRecord(dt=1 / fs, values=(2.0 * np.cos(TWO_PI * f0 * t)).astype(complex))
        spec = estimate_psd(record, segment_length=1000, overlap=0.0)
        freqs_hz = spec.frequencies / TWO_PI
        df = spec.resolution / TWO_PI
        power = spec.psd * df
        near = np.abs(np.abs(freqs_hz) - f0) < 3 * df
        assert power[near].sum() == pytest.approx(2.0**2 / 2.0, rel=1e-2)
        assert power[~near].sum() < 1e-4

    def test_white_noise_density(self):
        fs = 1e5
        rng = np.random.default_rng(9)
        record = OscillatorRecord(dt=1 / fs, values=rng.standard_normal(400_000).astype(complex))
        spec = estimate_psd(record, segment_length=512, overlap=0.5)
        assert np.mean(spec.psd) == pytest.approx(1.0 / fs, rel=0.02)
        # flat: halves agree
        half = spec.n_bins // 2
        assert np.mean(spec.psd[:half]) == pytest.approx(np.mean(spec.psd[half:]), rel=0.05)

    def test_parseval_on_oscillator_record(self):
        omega_m, gamma = TWO_PI * 50e3, TWO_PI * 2e3
        record = simulate_oscillator(gamma, omega_m, 2.0, 0.5, sample_rate=5e6, seed=6)
        spec = estimate_psd(record, segment_length=4096, overlap=0.5)
        integral = spec.psd.sum() * spec.resolution / TWO_PI
        variance = np.mean(np.abs(record.values) ** 2)
        assert integral == pytest.approx(variance, rel=5e-3)

    def test_oscillator_spectrum_matches_analytic_lorentzian(self):
        # oracle equivalence at reduced scale: width and area within 3%
        omega_m, gamma = TWO_PI * 50e3, TWO_PI * 4e3
        n_target = 2.0
        tau = 2.0 / gamma
        record = simulate_oscillator(
            gamma, omega_m, n_target, 1e4 * tau, sample_rate=5e6, seed=12
        )
        spec = estimate_psd(record, segment_length=16384, overlap=0.5)

        def shape(omega, peak, center, fwhm):
            return peak * lorentzian(omega, center, fwhm)

        sel = np.abs(spec.frequencies - omega_m) < 20 * gamma
        popt, _ = curve_fit(
            shape,
            spec.frequencies[sel],
            spec.psd[sel],
            p0=[spec.psd[sel].max(), omega_m, gamma],
        )
        peak, center, width = popt
        assert width == pytest.approx(gamma, rel=0.03)
        assert center == pytest.approx(omega_m, abs=0.05 * gamma)
        # two-sided area (per-Hz density integrated over Hz) equals n_target
        area = peak * math.pi * width / 2.0 / TWO_PI
        assert area == pytest.approx(n_target, rel=0.03)

    def test_reports_effective_averages(self):
        fs = 1e5
        rng = np.random.default_rng(10)
        record = OscillatorRecord(dt=1 / fs, values=rng.standard_normal(100_000).astype(complex))
        no_overlap = estimate_psd(record, segment_length=1000, overlap=0.0)
        assert no_overlap.n_avg == pytest.approx(100, abs=1)
        overlapped = estimate_psd(record, segment_length=1000, overlap=0.5)
        # overlapping Hann segments are correlated: fewer effective averages
        assert 100 < overlapped.n_avg < 199

    def test_rejects_degenerate_segmentation(self):
        record = OscillatorRecord(dt=1e-5, values=np.ones(100, dtype=complex))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_psd(record, segment_length=1000)
        with pytest.raises(ValueError, match="overlap"):
            estimate_psd(record, segment_length=50, overlap=1.0)
