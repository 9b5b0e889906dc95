"""Tests for the sideband-fitting and ratio-thermometry chain.

Monte-Carlo assertions run against pinned seeds with tolerances sized for
the statistics involved; they are regression tests, not flaky checks.
Cooling-curve fits are exercised on fabricated ratio series where
spectra are not needed, to keep the suite fast.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sidebandlimit.physics import (
    SystemParams,
    backaction_limit,
    cooling_point,
    occupation_from_ratio,
    sideband_ratio,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.config import default_config
from sidebandlimit.io import read_spectrum_csv, write_spectrum_csv
from sidebandlimit.pipeline import plan_curve
from sidebandlimit.spectra import (
    HeterodyneSpectrum,
    acquisition_index,
    build_model,
    evaluate_psd,
)
from sidebandlimit.synth import SynthConfig, synthesize_spectrum
from sidebandlimit.analysis import (
    AnalysisError,
    InsufficientVisibilityError,
    SpectrumCoverageError,
    detuning_sweep_summary,
    fit_cooling_curve,
    fit_sidebands,
    occupation_series,
    ratio_series,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def params():
    return SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)


@pytest.fixture(scope="module")
def bath_occupation(params):
    return thermal_occupation(0.36, params.omega_m)


def make_model(params, n0, gamma_opt_hz, background_fraction=0.0, delta_hz=-1.62e6):
    point = cooling_point(params, TWO_PI * delta_hz, TWO_PI * gamma_opt_hz)
    n_bar = steady_state_occupation(n0, params.gamma_0, point.n_ba, point.gamma_opt)
    return point, n_bar, build_model(params, point, n_bar, background_fraction)


def synthesize(model, n_avg, seed=0, bins_per_linewidth=14.0, margin=80.0):
    span = model.omega_m + margin * model.gamma_eff
    config = SynthConfig(
        f_lo=-span,
        f_hi=span,
        resolution=model.gamma_eff / bins_per_linewidth,
        n_avg=n_avg,
        seed=seed,
    )
    return synthesize_spectrum(model, config)


class TestFitSidebands:
    def test_noiseless_round_trip(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        fit = fit_sidebands(synthesize(model, math.inf))
        assert fit.omega_m_fit == pytest.approx(model.omega_m, rel=1e-6)
        assert fit.gamma_eff_fit == pytest.approx(model.gamma_eff, rel=1e-6)
        assert fit.amp_stokes == pytest.approx(model.peak_stokes, rel=1e-6)
        assert fit.amp_antistokes == pytest.approx(model.peak_antistokes, rel=1e-6)
        assert fit.floor_fit == pytest.approx(model.floor, rel=1e-6)

    def test_amplitude_ratio_unbiased_over_seeds(self, params, bath_occupation):
        # Monte-Carlo at the strongest-drive point: ratio bias < 0.2 sigma
        point, n_bar, model = make_model(params, bath_occupation, 30e3)
        truth = point.s_ratio * (n_bar + 1.0) / n_bar
        ratios = []
        for seed in range(120):
            spectrum = synthesize(
                model, 26000.0, seed=np.random.SeedSequence(entropy=42, spawn_key=(seed,))
            )
            ratios.append(fit_sidebands(spectrum).amplitude_ratio())
        ratios = np.array(ratios)
        sigma = ratios.std(ddof=1)
        assert abs(ratios.mean() - truth) < 0.2 * sigma

    def test_free_floor_absorbs_substrate_background(self, params, bath_occupation):
        # elevated floor: ratio unbiased, normalized amplitudes sit low
        point, n_bar, clean = make_model(params, bath_occupation, 30e3)
        _, _, raised = make_model(params, bath_occupation, 30e3, background_fraction=0.05)
        fit = fit_sidebands(synthesize(raised, math.inf))
        assert fit.floor_fit == pytest.approx(1.05, rel=1e-9)
        assert fit.amplitude_ratio() == pytest.approx(
            clean.peak_stokes / clean.peak_antistokes, rel=1e-9
        )
        assert fit.amp_antistokes / fit.floor_fit < clean.peak_antistokes
        assert fit.amp_stokes / fit.floor_fit < clean.peak_stokes

    def test_zero_amplitude_gives_nan_ratio_without_warnings(
        self, params, bath_occupation
    ):
        # an amplitude at its bound of 0 measures no ratio
        _, _, model = make_model(params, bath_occupation, 30e3)
        fit = fit_sidebands(synthesize(model, math.inf))
        for amplitude in ("amp_stokes", "amp_antistokes"):
            zeroed = replace(fit, **{amplitude: 0.0})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert math.isnan(zeroed.amplitude_ratio())
                assert math.isnan(zeroed.ratio_variance())
        ratio, sigma = ratio_series([replace(fit, amp_antistokes=0.0)])
        assert math.isnan(ratio[0]) and math.isnan(sigma[0])

    def test_line_shape_uncertainties_match_scatter_at_strong_drive(self):
        # the 30 kHz point of the default curve: J^T J there has a condition
        # number near 1e16, so a covariance taken from it truncates both
        # sigmas to nearly 0 against a scatter of about 5e3 and 1.4e4 rad/s
        config = default_config()
        fits = []
        for seed in range(1, 61):
            plan = plan_curve(config, config.detunings_hz[0], seed)[-1]
            fits.append(fit_sidebands(synthesize_spectrum(plan.model, plan.synth)))
        assert plan.gamma_opt_hz == 30e3
        for k, attr in ((0, "omega_m_fit"), (1, "gamma_eff_fit")):
            scatter = np.std([getattr(f, attr) for f in fits], ddof=1)
            reported = np.mean([math.sqrt(f.covariance[k, k]) for f in fits])
            assert 0.7 <= reported / scatter <= 1.3, attr

    def test_zero_bin_raises_analysis_error(self, params, bath_occupation):
        # the Gamma bin law has no zero, so a fitted bin at 0 is bad input
        _, _, model = make_model(params, bath_occupation, 30e3)
        # a band wide enough that its lowest bin opens the fitted floor sample
        spectrum = synthesize(model, 5000.0, seed=3, margin=200.0)
        psd = spectrum.psd.copy()
        psd[0] = 0.0
        with pytest.raises(AnalysisError, match="not positive"):
            fit_sidebands(replace(spectrum, psd=psd))

    def test_scaling_entire_spectrum_leaves_occupation_unchanged(
        self, params, bath_occupation
    ):
        # thermometry depends only on ratios: a global gain drops out
        point, n_bar, model = make_model(params, bath_occupation, 30e3)
        spectrum = synthesize(model, 5000.0, seed=77)
        n_ref = occupation_from_ratio(
            fit_sidebands(spectrum).amplitude_ratio(), point.s_ratio
        ).n_bar
        for k in (0.37, 12.0):
            scaled = HeterodyneSpectrum(
                f_lo=spectrum.f_lo,
                resolution=spectrum.resolution,
                psd=spectrum.psd * k,
                n_avg=spectrum.n_avg,
            )
            n_scaled = occupation_from_ratio(
                fit_sidebands(scaled).amplitude_ratio(), point.s_ratio
            ).n_bar
            assert n_scaled == pytest.approx(n_ref, rel=1e-6)

    def test_insufficient_visibility_raises(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        with pytest.raises(InsufficientVisibilityError):
            fit_sidebands(synthesize(model, 1.0, seed=5))

    def test_one_sided_spectrum_raises_coverage_error(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        full = synthesize(model, math.inf)
        # keep only the anti-Stokes half plus a sliver of negative band
        sl = full.index_range(-0.2 * model.omega_m, full.f_hi)
        truncated = HeterodyneSpectrum(
            f_lo=full.frequencies_at(sl)[0],
            resolution=full.resolution,
            psd=full.psd[sl],
            n_avg=full.n_avg,
        )
        with pytest.raises(SpectrumCoverageError):
            fit_sidebands(truncated)

    def test_under_resolved_spectrum_raises(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        with pytest.raises(SpectrumCoverageError, match="under-resolved"):
            fit_sidebands(synthesize(model, math.inf, bins_per_linewidth=2.0))

    def test_nonconvergence_carries_best_state(
        self, params, bath_occupation, monkeypatch
    ):
        from sidebandlimit import analysis
        from sidebandlimit.analysis import FitConvergenceError

        _, _, model = make_model(params, bath_occupation, 30e3)
        spectrum = synthesize(model, 5000.0, seed=3)
        monkeypatch.setattr(analysis, "_MAX_EVALS", 3)
        with pytest.raises(FitConvergenceError) as excinfo:
            fit_sidebands(spectrum)
        best = excinfo.value.best
        assert best is not None
        assert best.gamma_eff_fit > 0
        assert best.n_bins_used > 0


def _full_grid_record(params, n0, gamma_opt_hz, n_avg, seed):
    """Noisy full-grid record built without the synthesis module."""
    _, _, model = make_model(params, n0, gamma_opt_hz, background_fraction=0.002775)
    res = model.gamma_eff / 14
    half = math.ceil((model.omega_m + 80 * model.gamma_eff) / res)
    freqs = res * np.arange(-half, half + 1)
    draws = np.random.default_rng(seed).standard_gamma(n_avg, freqs.size)
    return HeterodyneSpectrum(
        f_lo=-half * res,
        resolution=res,
        psd=evaluate_psd(model, freqs) * draws / n_avg,
        n_avg=n_avg,
    )


class TestRecordLayouts:
    # Exact fits of two full-grid records written and read back as v1:
    # records that store every bin must keep fitting to these numbers.
    PINNED = {
        2100.0: (
            2.0e5, 5,
            (9299131.39020191, 13153.807630635696, 0.04699115237125555,
             0.11630985867489546, 1.0027808359551105, 0.9755346067916083, 8250),
            4.292622668037681e-05,
        ),
        30000.0: (
            2.6e4, 6,
            (9299267.045958497, 158148.46572733944, 0.037809711080901476,
             0.044886297455804657, 1.0029159642449845, 0.9923561342352879, 3183),
            0.003778031138957393,
        ),
    }

    @pytest.mark.parametrize("gamma_opt_hz", sorted(PINNED))
    def test_full_grid_v1_fit_is_pinned(
        self, params, bath_occupation, tmp_path, gamma_opt_hz
    ):
        n_avg, seed, expected, ratio_variance = self.PINNED[gamma_opt_hz]
        record = _full_grid_record(params, bath_occupation, gamma_opt_hz, n_avg, seed)
        path = tmp_path / "full.csv"
        write_spectrum_csv(path, record, {"gamma_opt_hz": gamma_opt_hz})
        assert path.read_text().startswith("# sidebandlimit-spectrum v1 ")
        fit = fit_sidebands(read_spectrum_csv(path)[0])
        got = (
            fit.omega_m_fit, fit.gamma_eff_fit, fit.amp_stokes, fit.amp_antistokes,
            fit.floor_fit, fit.residual_norm, fit.n_bins_used,
        )
        assert got == expected
        assert fit.ratio_variance() == ratio_variance

    @pytest.mark.parametrize("gamma_opt_hz", [3.0, 227.0, 30e3])
    def test_sparse_record_fits_like_full_grid(self, params, bath_occupation, gamma_opt_hz):
        # noiseless: the recorded spans and floor sample pin the same optimum
        _, _, model = make_model(params, bath_occupation, gamma_opt_hz)
        res = model.gamma_eff / 14
        half = math.ceil((model.omega_m + 80 * model.gamma_eff) / res)
        config = SynthConfig(f_lo=-half * res, f_hi=half * res, resolution=res, n_avg=math.inf)
        index = acquisition_index(model, config.f_lo, res, config.grid_bins, 80.0)
        sparse = fit_sidebands(synthesize_spectrum(model, replace(config, index=index)))
        assert index.size < 10_000
        for got, truth in (
            (sparse.omega_m_fit, model.omega_m),
            (sparse.gamma_eff_fit, model.gamma_eff),
            (sparse.amp_stokes, model.peak_stokes),
            (sparse.amp_antistokes, model.peak_antistokes),
            (sparse.floor_fit, model.floor),
        ):
            assert got == pytest.approx(truth, rel=1e-6)
        if gamma_opt_hz >= 227.0:  # a full grid at 3 Hz holds 12M bins
            full = fit_sidebands(synthesize_spectrum(model, config))
            assert sparse.amplitude_ratio() == pytest.approx(
                full.amplitude_ratio(), rel=1e-9
            )
            assert sparse.n_bins_used == pytest.approx(full.n_bins_used, rel=0.05)


def _fit_series(params, n0, gamma_opt_hz_list, n_avg_base, entropy):
    """Synthesize and fit a cooling series, returning (gamma_opt, fit) pairs."""
    series = []
    for i, g_hz in enumerate(gamma_opt_hz_list):
        point, n_bar, model = make_model(params, n0, g_hz)
        n_avg = (
            math.inf
            if math.isinf(n_avg_base)
            else math.ceil(n_avg_base * min(n_bar + 1.0, 51.0) ** 2)
        )
        spectrum = synthesize(
            model,
            float(n_avg),
            seed=np.random.SeedSequence(entropy=entropy, spawn_key=(i,)),
        )
        series.append((point.gamma_opt, fit_sidebands(spectrum)))
    return series


GRID_FAST_HZ = (200.0, 743.0, 2760.0, 10253.0, 30000.0)


def _reduce(params, series):
    """Joint cooling-curve fit of (gamma_opt, fit) pairs."""
    ratio, sigma_ratio = ratio_series([f for _, f in series])
    return fit_cooling_curve(
        [g for g, _ in series], ratio, sigma_ratio, params.gamma_0, params.omega_m
    )


class TestEstimateS:
    """The susceptibility ratio s from the joint cooling-curve fit."""

    def test_noiseless_series_recovers_s(self, params, bath_occupation):
        series = _fit_series(params, bath_occupation, GRID_FAST_HZ, math.inf, 0)
        curve = _reduce(params, series)
        s_true = cooling_point(params, -TWO_PI * 1.62e6, 1.0).s_ratio
        assert curve.s_hat == pytest.approx(s_true, rel=1e-7)
        assert "no_classical_points" in curve.flags  # grid starts at 200 Hz

    def test_classical_plateau_mean(self, params):
        # all points deep in the classical regime: R is constant and the
        # windowed mean applies
        n0 = 5068.0
        series = _fit_series(params, n0, (2.0, 5.0, 8.0, 12.0), math.inf, 0)
        curve = _reduce(params, series)
        ratios = [f.amplitude_ratio() for _, f in series]
        assert curve.s_classical is not None
        assert curve.s_classical == pytest.approx(np.mean(ratios), rel=1e-4)
        assert "no_classical_points" not in curve.flags

    def test_naive_mean_overestimates_where_global_fit_does_not(
        self, params, bath_occupation
    ):
        # series reaching the backaction regime: R rises to ~1 at strong
        # drive, so the plain average is far above s while the
        # rate-equation fit stays on it
        series = _fit_series(params, bath_occupation, GRID_FAST_HZ, math.inf, 0)
        curve = _reduce(params, series)
        s_true = cooling_point(params, -TWO_PI * 1.62e6, 1.0).s_ratio
        naive = np.mean([f.amplitude_ratio() for _, f in series])
        assert naive > s_true * 1.5
        assert curve.s_hat == pytest.approx(s_true, rel=1e-6)

    def test_requires_three_points(self, params, bath_occupation):
        # three free parameters need at least four ratios
        series = _fit_series(params, bath_occupation, (30e3,), math.inf, 0)
        with pytest.raises(AnalysisError, match="at least 4"):
            _reduce(params, series)


class TestOccupationSeries:
    def test_noiseless_exact_inversion(self, params, bath_occupation):
        series = _fit_series(params, bath_occupation, GRID_FAST_HZ, math.inf, 0)
        curve = _reduce(params, series)
        gamma_opt = [g for g, _ in series]
        ratio, sigma_ratio = ratio_series([f for _, f in series])
        points = occupation_series(
            gamma_opt, ratio, sigma_ratio, curve.s_hat, curve.sigma_s
        )
        for g, point in zip(gamma_opt, points):
            n_truth = steady_state_occupation(
                bath_occupation,
                params.gamma_0,
                backaction_limit(-TWO_PI * 1.62e6, params),
                g,
            )
            assert point.n_bar == pytest.approx(n_truth, rel=1e-6)
            assert not point.flags

    def test_unphysical_ratio_carried_through_flagged(self, params, bath_occupation):
        series = _fit_series(params, bath_occupation, GRID_FAST_HZ, math.inf, 0)
        curve = _reduce(params, series)
        # fabricate one fit whose ratio fluctuated below s
        good = series[-1][1]
        bad = replace(good, amp_stokes=good.amp_antistokes * curve.s_hat * 0.9)
        series = series + [(series[-1][0], bad)]
        ratio, sigma_ratio = ratio_series([f for _, f in series])
        points = occupation_series(
            [g for g, _ in series], ratio, sigma_ratio, curve.s_hat, curve.sigma_s
        )
        assert points[-1].flags == ("unphysical_ratio",)
        assert math.isnan(points[-1].n_bar)
        assert math.isnan(points[-1].sigma_n)
        assert len(points) == len(series)

    def test_sigma_shrinks_with_doubled_averaging(self, params, bath_occupation):
        # doubling n_avg shrinks the occupation scatter by about sqrt(2)
        point, n_bar, model = make_model(params, bath_occupation, 30e3)
        sigmas = []
        for n_avg in (8000.0, 16000.0):
            values = [
                occupation_from_ratio(
                    fit_sidebands(
                        synthesize(
                            model,
                            n_avg,
                            seed=np.random.SeedSequence(entropy=3, spawn_key=(s,)),
                        )
                    ).amplitude_ratio(),
                    point.s_ratio,
                ).n_bar
                for s in range(36)
            ]
            sigmas.append(np.std(values, ddof=1))
        ratio = sigmas[0] / sigmas[1]
        assert 1.15 < ratio < 1.75

    def test_one_sigma_interval_covers_truth_at_nominal_rate(
        self, params, bath_occupation
    ):
        # 500 seeds at the strongest-drive point: 68% +- 5% coverage
        point, n_bar, model = make_model(params, bath_occupation, 30e3)
        est_sigma_s = 0.0  # isolate the per-point interval calibration
        covered = 0
        for seed in range(500):
            fit = fit_sidebands(
                synthesize(
                    model,
                    26000.0,
                    seed=np.random.SeedSequence(entropy=20250810, spawn_key=(seed,)),
                )
            )
            out = occupation_from_ratio(fit.amplitude_ratio(), point.s_ratio)
            sigma_n = (
                math.sqrt(fit.ratio_variance()) * out.n_bar**2 / point.s_ratio
            )
            covered += abs(out.n_bar - n_bar) <= sigma_n
        assert 0.63 <= covered / 500 <= 0.73


S_REF = 0.1512920  # closed-form s at -1.62 MHz


def _fabricated_ratios(params, n0, n_ba, gamma_hz, rel_sigma, entropy=None, s=S_REF):
    """Ratio series R = s (1 + 1/n) from the rate equation, optionally noisy.

    sigma_R carries a relative occupation error ``rel_sigma`` into the
    ratio: sigma_R = s rel_sigma / n.
    """
    gamma_opt = TWO_PI * np.asarray(gamma_hz, dtype=float)
    n = np.array(
        [steady_state_occupation(n0, params.gamma_0, n_ba, g) for g in gamma_opt]
    )
    ratio = s * (1.0 + 1.0 / n)
    sigma = s * max(rel_sigma, 1e-9) / n
    if entropy is not None:
        ratio = ratio + np.random.default_rng(entropy).normal(0.0, sigma)
    return gamma_opt, ratio, sigma


GRID_FULL_HZ = tuple(np.geomspace(1.0, 30000.0, 20))


class TestFitCoolingCurve:
    def test_noiseless_round_trip(self, params, bath_occupation):
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        series = _fabricated_ratios(params, bath_occupation, n_ba, GRID_FULL_HZ, 0.0)
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        assert curve.n0_fit == pytest.approx(bath_occupation, rel=2e-2)
        assert curve.n_ba_fit == pytest.approx(n_ba, rel=2e-2)
        assert curve.t0_fit == pytest.approx(0.36, rel=2e-2)
        assert "n_ba_unidentifiable" not in curve.flags

    def test_floor_above_backaction_value_recovered(self, params, bath_occupation):
        # an extra heating channel lifts the floor above s / (1 - s): the
        # fit must not tie n_ba to s
        n_ba = S_REF / (1.0 - S_REF) + 0.05
        series = _fabricated_ratios(params, bath_occupation, n_ba, GRID_FULL_HZ, 0.0)
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        assert curve.s_hat == pytest.approx(S_REF, rel=1e-6)
        assert curve.n_ba_fit == pytest.approx(n_ba, rel=1e-6)

    def test_noisy_recovery_within_intervals(self, params, bath_occupation):
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        series = _fabricated_ratios(
            params, bath_occupation, n_ba, GRID_FULL_HZ, 0.05, entropy=11
        )
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        assert abs(curve.n0_fit - bath_occupation) < 3 * curve.sigma_n0
        assert abs(curve.n_ba_fit - n_ba) < 3 * curve.sigma_n_ba
        assert abs(curve.t0_fit - 0.36) < 3 * curve.sigma_t0

    def test_fitted_curve_monotone_and_saturating(self, params, bath_occupation):
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        series = _fabricated_ratios(
            params, bath_occupation, n_ba, GRID_FULL_HZ, 0.05, entropy=3
        )
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        grid = TWO_PI * np.geomspace(1.0, 1e7, 200)
        values = [
            steady_state_occupation(curve.n0_fit, params.gamma_0, curve.n_ba_fit, g)
            for g in grid
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(curve.n_ba_fit, rel=1e-2)

    def test_classical_only_data_flags_unidentifiable_floor(
        self, params, bath_occupation
    ):
        # all points sit where thermal motion dominates by >= 2 orders of
        # magnitude, so the saturation floor is lost in the noise
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        series = _fabricated_ratios(
            params, bath_occupation, n_ba, (1.0, 3.0, 9.0, 27.0, 81.0), 0.05,
            entropy=5,
        )
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        assert "n_ba_unidentifiable" in curve.flags
        assert 2.0 * curve.sigma_n_ba >= curve.n_ba_fit

    def test_excludes_flagged_points_but_keeps_them(self, params, bath_occupation):
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        gamma_opt, ratio, sigma = _fabricated_ratios(
            params, bath_occupation, n_ba, GRID_FULL_HZ, 0.0
        )
        ratio[7] = sigma[7] = math.nan  # a point that measured no ratio
        curve = fit_cooling_curve(
            gamma_opt, ratio, sigma, params.gamma_0, params.omega_m
        )
        points = occupation_series(gamma_opt, ratio, sigma, curve.s_hat, curve.sigma_s)
        assert len(points) == len(gamma_opt)
        assert points[7].flags == ("unphysical_ratio",)
        assert curve.n_ba_fit == pytest.approx(n_ba, rel=2e-2)

    def test_requires_four_usable_points(self, params, bath_occupation):
        n_ba = 0.178
        series = _fabricated_ratios(
            params, bath_occupation, n_ba, (10.0, 100.0, 1000.0), 0.0
        )
        with pytest.raises(AnalysisError, match="at least 4"):
            fit_cooling_curve(*series, params.gamma_0, params.omega_m)


class TestDetuningSweepSummary:
    # closed-form floors for the five standard detunings (independent
    # arithmetic on the susceptibility quotient, in MHz where 2 pi cancels)
    EXPECTED = {
        -0.5e6: 2.6504 / 2.96,
        -1.0e6: 1.9204 / 5.92,
        -1.62e6: 1.7096 / 9.5904,
        -1.97e6: 1.9301 / 11.6624,
        -2.5e6: 2.7304 / 14.8,
    }

    def _curve_for(self, params, n0, delta_hz, rel_sigma=0.0, entropy=None):
        delta = TWO_PI * delta_hz
        n_ba = backaction_limit(delta, params)
        series = _fabricated_ratios(
            params, n0, n_ba, GRID_FULL_HZ, rel_sigma, entropy=entropy,
            s=sideband_ratio(delta, params),
        )
        return fit_cooling_curve(
            *series, params.gamma_0, params.omega_m, n_ba_predicted=n_ba
        )

    def test_five_point_sweep_tracks_closed_form(self, params, bath_occupation):
        results = {
            TWO_PI * d: self._curve_for(params, bath_occupation, d)
            for d in self.EXPECTED
        }
        summary = detuning_sweep_summary(results, params.omega_m)
        for row in summary.rows:
            delta_hz = row.detuning / TWO_PI
            expected = next(
                v for k, v in self.EXPECTED.items() if math.isclose(k, delta_hz)
            )
            assert row.n_ba_predicted == pytest.approx(expected, rel=1e-10)
            assert row.min_n_bar == pytest.approx(expected, rel=2e-2)
        # global minimum at the grid point nearest the optimal detuning
        assert summary.global_min_detuning == pytest.approx(-TWO_PI * 1.97e6)

    def test_near_divergence_flagged(self, params, bath_occupation):
        delta = -TWO_PI * 0.05e6
        n_ba = backaction_limit(delta, params)
        assert n_ba == pytest.approx(3.7349 / 0.296, rel=1e-10)  # = 12.618
        curve = self._curve_for(params, bath_occupation, -0.05e6)
        summary = detuning_sweep_summary({delta: curve}, params.omega_m)
        assert "near_divergence" in summary.rows[0].flags
        assert "degenerate_sweep" in summary.flags

    def test_single_detuning_is_degenerate_but_valid(self, params, bath_occupation):
        delta = -TWO_PI * 1.62e6
        summary = detuning_sweep_summary(
            {delta: self._curve_for(params, bath_occupation, -1.62e6)},
            params.omega_m,
        )
        assert len(summary.rows) == 1
        assert summary.global_min_detuning == delta
