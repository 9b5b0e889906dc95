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
from scipy.ndimage import uniform_filter1d

from sidebandlimit.physics import (
    SystemParams,
    backaction_limit,
    cooling_point,
    occupation_from_ratio,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.config import default_config
from sidebandlimit.io import read_spectrum_csv, write_spectrum_csv
from sidebandlimit import spectra
from sidebandlimit.pipeline import N_AVG_OCCUPATION_CAP, plan_curve, record_point
from sidebandlimit.spectra import (
    BINS_PER_LINEWIDTH,
    SPAN_LINEWIDTHS,
    WINDOW_LINEWIDTHS,
    HeterodyneSpectrum,
    acquisition_grid,
    build_model,
    evaluate_psd,
    lorentzian,
)
from sidebandlimit.synth import synthesize_spectrum
from sidebandlimit.analysis import (
    _SMOOTH_WIDTH,
    _STALL_TOL,
    AnalysisError,
    InsufficientVisibilityError,
    _covariance,
    _deviance,
    _fit_indices,
    _initial_guess,
    _smooth,
    _solve_bounded,
    SpectrumCoverageError,
    fit_cooling_curve,
    fit_sidebands,
    occupation_series,
    ratio_series,
)

from spectrum_v1 import write_v1_csv

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


def synthesize(model, n_avg, seed=0, bins_per_linewidth=BINS_PER_LINEWIDTH):
    span = model.omega_m + SPAN_LINEWIDTHS * model.gamma_eff
    resolution = model.gamma_eff / bins_per_linewidth
    # through +span, or the bin within rounding of it
    grid_bins = math.floor(2 * span / resolution * (1 + 1e-12)) + 1
    return synthesize_spectrum(model, (-span, resolution, grid_bins, None), n_avg, seed)


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

    @pytest.mark.parametrize("gamma_opt_hz", [227.0, 2100.0, 30e3])
    def test_noiseless_fit_reaches_the_truth_to_round_off(
        self, params, bath_occupation, gamma_opt_hz
    ):
        _, _, model = make_model(params, bath_occupation, gamma_opt_hz)
        fit = fit_sidebands(synthesize(model, math.inf))
        for got, truth in (
            (fit.omega_m_fit, model.omega_m),
            (fit.gamma_eff_fit, model.gamma_eff),
            (fit.amp_stokes, model.peak_stokes),
            (fit.amp_antistokes, model.peak_antistokes),
            (fit.floor_fit, model.floor),
        ):
            assert got == pytest.approx(truth, rel=1e-12, abs=0.0)

    def test_amplitude_on_its_bound(self, params, bath_occupation):
        # no anti-Stokes line, and the record dips where it would be by 5
        # standard errors of its amplitude: the unconstrained optimum is
        # negative, so the fit holds that amplitude at its bound of 0 and
        # still fits the rest
        _, _, model = make_model(params, bath_occupation, 227.0)
        model = replace(model, peak_antistokes=0.0)
        spectrum = synthesize(model, 5000.0, seed=3)
        depth = 5.0 * math.sqrt(fit_sidebands(spectrum).covariance[3, 3])
        dip = depth * lorentzian(spectrum.frequencies, model.omega_m, model.gamma_eff)
        fit = fit_sidebands(replace(spectrum, psd=spectrum.psd * (1.0 - dip / model.floor)))
        assert fit.amp_antistokes == 0.0
        got = (fit.omega_m_fit, fit.gamma_eff_fit, fit.amp_stokes, fit.floor_fit)
        truth = (model.omega_m, model.gamma_eff, model.peak_stokes, model.floor)
        sigma = np.sqrt(np.diag(fit.covariance))[[0, 1, 2, 4]]
        assert np.all(np.abs(np.subtract(got, truth)) < 4 * sigma)
        ratio, sigma_ratio = ratio_series([fit])
        assert math.isnan(ratio[0]) and math.isnan(sigma_ratio[0])

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
            fits.append(fit_sidebands(record_point(plan)))
        assert plan.gamma_opt_hz == 30e3
        for k, attr in ((0, "omega_m_fit"), (1, "gamma_eff_fit")):
            scatter = np.std([getattr(f, attr) for f in fits], ddof=1)
            reported = np.mean([math.sqrt(f.covariance[k, k]) for f in fits])
            assert 0.7 <= reported / scatter <= 1.3, attr

    def test_zero_bin_raises_analysis_error(self, params, bath_occupation):
        # the Gamma bin law has no zero, so a fitted bin at 0 is bad input
        _, _, model = make_model(params, bath_occupation, 30e3)
        # a bin half the fit window out from the anti-Stokes line, inside
        # the fitted window at floor level
        spectrum = synthesize(model, 5000.0, seed=3)
        psd = spectrum.psd.copy()
        target = model.omega_m + 0.5 * WINDOW_LINEWIDTHS * model.gamma_eff
        psd[np.argmin(np.abs(spectrum.frequencies - target))] = 0.0
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
        )
        for k in (0.37, 12.0):
            scaled = HeterodyneSpectrum(
                f_lo=spectrum.f_lo,
                resolution=spectrum.resolution,
                psd=spectrum.psd * k,
                n_avg=spectrum.n_avg,
            )
            n_scaled = occupation_from_ratio(
                fit_sidebands(scaled).amplitude_ratio(), point.s_ratio
            )
            assert n_scaled == pytest.approx(n_ref, rel=1e-6)

    def test_record_beyond_float_range_raises_analysis_error(self):
        # a default record scaled by 1e305 overflows the Jacobian; the fit
        # fails there instead of handing inf to the covariance's SVD
        config = default_config()
        spectrum = record_point(plan_curve(config, config.detunings_hz[0], 1)[0])
        scaled = replace(spectrum, psd=spectrum.psd * 1e305)
        with pytest.raises(AnalysisError, match="not finite"):
            fit_sidebands(scaled)

    def test_insufficient_visibility_raises(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        with pytest.raises(InsufficientVisibilityError):
            fit_sidebands(synthesize(model, 1.0, seed=5))

    def test_one_sided_spectrum_raises_coverage_error(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        full = synthesize(model, math.inf)
        # keep only the anti-Stokes half plus a sliver of negative band
        kept = full.frequencies >= -0.2 * model.omega_m
        truncated = HeterodyneSpectrum(
            f_lo=full.frequencies[kept][0],
            resolution=full.resolution,
            psd=full.psd[kept],
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


class TestDevianceJacobian:
    """The analytic residual Jacobian against central differences."""

    @staticmethod
    def _check(spectrum, p):
        window = WINDOW_LINEWIDTHS * p[1]
        idx = _fit_indices(spectrum, p[0], window)
        args = (spectrum.frequencies[idx], spectrum.psd[idx], min(spectrum.n_avg, 1e12))
        jac = _deviance(p, *args)[1]()
        assert jac.shape == (idx.size, 5)
        steps = 1e-5 * np.array([p[1], p[1], p[4], p[4], p[4]])
        for k, h in enumerate(steps):
            up, down = p.copy(), p.copy()
            up[k] += h
            down[k] -= h
            numeric = (_deviance(up, *args)[0] - _deviance(down, *args)[0]) / (2 * h)
            scale = np.abs(numeric).max()
            assert np.abs(jac[:, k] - numeric).max() <= 1e-6 * scale, k
        return args

    @staticmethod
    def _truth(model):
        return np.array(
            [model.omega_m, model.gamma_eff, model.peak_stokes, model.peak_antistokes,
             model.floor]
        )

    def test_noisy_record(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        p = self._truth(model) * np.array([1.0 + 1e-4, 1.02, 0.97, 1.03, 1.001])
        self._check(synthesize(model, 5000.0, seed=3), p)

    def test_noiseless_record_takes_the_series_branch(self, params, bath_occupation):
        # at the truth every bin has data/model - 1 near 0, where d/r is 0/0
        _, _, model = make_model(params, bath_occupation, 30e3)
        p = self._truth(model)
        freqs, data, n_w = self._check(synthesize(model, math.inf), p)
        d = data / evaluate_psd(model, freqs) - 1.0
        assert np.all(np.abs(d) < 1e-4)
        assert np.all(np.isfinite(_deviance(p, freqs, data, n_w)[1]()))

    def test_amplitude_at_its_bound(self, params, bath_occupation):
        _, _, model = make_model(params, bath_occupation, 30e3)
        p = self._truth(model)
        p[3] = 0.0
        self._check(synthesize(model, 5000.0, seed=4), p)


def test_solver_returns_the_residuals_and_jacobian_of_its_point():
    # Rosenbrock's valley with the minimum (1, 1) cut off by x[0] <= 0.5:
    # the solve must reject trials on the way and end on the bound.  A
    # trial is kept exactly when it lowers the best sum of squares so far.
    best = [math.inf]
    kept = [0]
    rejected = [0]
    built = [0]

    def fun(x):
        r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        cost = r @ r
        if cost < best[0]:
            best[0] = cost
            kept[0] += 1
        else:
            rejected[0] += 1

        def jacobian():
            built[0] += 1
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        return r, jacobian

    x, r, jac, converged = _solve_bounded(
        fun, np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([0.5, 2.0])
    )
    assert converged
    assert rejected[0] >= 1
    # x0 counts as kept: one build for it and one per kept step
    assert built[0] == kept[0]
    assert x[0] == 0.5
    r_at_x, jacobian_at_x = fun(x)
    assert np.array_equal(r, r_at_x)
    assert np.array_equal(jac, jacobian_at_x())


def _assert_stalls_without_repeats(calls, x):
    """``calls`` holds each (point, sum of squares) in evaluation order, and
    ``x`` the point the solve returned.  A trial is kept exactly when it
    lowers the best sum of squares so far.
    """
    kept, best, previous = calls[0][0], calls[0][1], None
    for trial, cost in calls[1:]:
        assert not np.array_equal(trial, kept)  # no evaluation at the kept point
        if cost < best:
            kept, best, previous = trial, cost, best
    # the last evaluation is the point returned, a kept step that stalled
    assert np.array_equal(calls[-1][0], x)
    assert calls[-1][1] == best
    assert previous - best <= _STALL_TOL * previous


def test_bounded_solve_ends_on_the_stall_rule_without_repeats():
    # the bounded Rosenbrock valley of the test above
    calls = []

    def fun(x):
        r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        calls.append((x.copy(), r @ r))
        return r, lambda: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    x, _, _, converged = _solve_bounded(
        fun, np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([0.5, 2.0])
    )
    assert converged
    assert x[0] == 0.5
    _assert_stalls_without_repeats(calls, x)


def test_sideband_fit_ends_on_the_stall_rule_without_repeats(monkeypatch):
    from sidebandlimit import analysis

    calls = []

    def deviance(p, *args):
        r, jacobian = _deviance(p, *args)
        calls.append((p.copy(), r @ r))
        return r, jacobian

    # the 3.4 kHz point of the default curve: a solve that ran on to a
    # 1e-14 stall, retrying until lam passed 1e16, evaluates 14 trials there
    # that equal its kept point
    plan = plan_curve(default_config(), -1.62e6, 1)[15]
    record = record_point(plan)
    monkeypatch.setattr(analysis, "_deviance", deviance)
    fit = fit_sidebands(record)
    x = np.array(
        [fit.omega_m_fit, fit.gamma_eff_fit, fit.amp_stokes, fit.amp_antistokes, fit.floor_fit]
    )
    _assert_stalls_without_repeats(calls, x)


def test_nonconvergence_names_the_evaluation_budget(params, bath_occupation, monkeypatch):
    from sidebandlimit import analysis
    from sidebandlimit.analysis import FitConvergenceError

    _, _, model = make_model(params, bath_occupation, 30e3)
    monkeypatch.setattr(analysis, "_MAX_EVALS", 3)
    with pytest.raises(FitConvergenceError, match="budget of 3 evaluations"):
        fit_sidebands(synthesize(model, 5000.0, seed=3))


def test_fit_indices_merge_matches_unique_on_every_default_plan():
    # 20 gamma_eff < omega_m on every default plan, so a 75 kHz drive is
    # added: its window, 20 x 75 kHz = 1.5 MHz, exceeds omega_m = 1.48 MHz
    # and the two sideband windows overlap and share positions
    config = default_config()
    config = replace(config, gamma_opt_grid_hz=(*config.gamma_opt_grid_hz, 75e3))
    overlapping = 0
    for index, detuning_hz in enumerate(config.detunings_hz):
        for plan in plan_curve(config, detuning_hz, 1, index):
            spectrum = record_point(plan)
            omega_m, window = plan.model.omega_m, WINDOW_LINEWIDTHS * plan.model.gamma_eff
            # the symmetric grid's beat note is its middle bin
            beat, res = spectrum.grid_bins // 2, spectrum.resolution
            line, half = round(omega_m / res), round(window / res)
            parts = np.concatenate([
                np.arange(beat - line - half, beat - line + half + 1),
                np.arange(beat + line - half, beat + line + half + 1),
            ])
            bins = np.unique(parts)
            overlapping += bins.size < parts.size
            expected = np.searchsorted(spectrum.index, bins)
            np.testing.assert_array_equal(spectrum.index[expected], bins)
            # an unsigned index, which a record may hold, picks the same bins
            for record in (spectrum, replace(spectrum, index=spectrum.index.astype(np.uint32))):
                np.testing.assert_array_equal(
                    _fit_indices(record, omega_m, window), expected
                )
    assert overlapping > 0


def test_fit_windows_are_mirrored_whole_bins_whatever_the_record_layout(monkeypatch):
    # On every noiseless default plan, around the initial guess of the span
    # record: the fit reads the same grid bins, counted from the beat note,
    # from that record and from the same grid recorded 80 linewidths out,
    # and its Stokes bins mirror its anti-Stokes bins.
    config = default_config()
    plans = [
        plan
        for index, detuning_hz in enumerate(config.detunings_hz)
        for plan in plan_curve(config, detuning_hz, 1, index, noiseless=True)
    ]

    def fitted_bins(record, omega_m0, gamma0):
        idx = _fit_indices(record, omega_m0, WINDOW_LINEWIDTHS * gamma0)
        return record.index[idx] - record.grid_bins // 2

    guesses, narrow = [], []
    for plan in plans:
        record = record_point(plan)
        guesses.append(_initial_guess(record)[:2])
        narrow.append(fitted_bins(record, *guesses[-1]))
    monkeypatch.setattr(spectra, "SPAN_LINEWIDTHS", 80.0)
    for plan, guess, bins in zip(plans, guesses, narrow):
        np.testing.assert_array_equal(fitted_bins(record_point(plan), *guess), bins)
        np.testing.assert_array_equal(-bins[::-1], bins)


# The fit-window half-widths, in linewidths, that the window was chosen from.
WINDOW_CHOICES = (10.0, 15.0, 20.0, 30.0, 40.0, 60.0)


def _ratio_variance_at_truth(spectrum, model, omega_m0, gamma0, half_width):
    """(sigma_R / R)^2 from the Fisher information on the bins the fit reads.

    The noiseless record at the truth has data = mu, where the deviance
    Jacobian is -sqrt(n_avg) grad(mu) / mu: its Gram matrix is the
    Gamma(n_avg) Fisher information n_avg sum grad(mu) grad(mu)^T / mu^2,
    and the fit's covariance is its inverse.  n_avg = 1 here, which
    cancels in any ratio of two windows.
    """
    idx = _fit_indices(spectrum, omega_m0, half_width * gamma0)
    p = np.array([model.omega_m, model.gamma_eff, model.peak_stokes,
                  model.peak_antistokes, model.floor])
    jac = _deviance(p, spectrum.frequencies[idx], spectrum.psd[idx], 1.0)[1]()
    cov = _covariance(jac)
    a_s, a_as = p[2], p[3]
    return cov[2, 2] / a_s**2 + cov[3, 3] / a_as**2 - 2.0 * cov[2, 3] / (a_s * a_as)


def test_window_is_the_narrowest_within_one_percent_of_sixty_linewidths(monkeypatch):
    # On every noiseless default plan: sigma_R on the windows the fit reads,
    # around the initial guess's omega_m0 at its gamma0 times the half-width,
    # against a 60-linewidth window's.  The recorded span holds the first
    # two; the third is read from the same grid recorded 80 linewidths out.
    config = default_config()
    narrower = max(w for w in WINDOW_CHOICES if w < WINDOW_LINEWIDTHS)
    plans = [
        plan
        for index, detuning_hz in enumerate(config.detunings_hz)
        for plan in plan_curve(config, detuning_hz, 1, index, noiseless=True)
    ]
    worst = {WINDOW_LINEWIDTHS: 1.0, narrower: 1.0}
    guesses, variances = [], []
    for plan in plans:
        record = record_point(plan)
        guesses.append(_initial_guess(record)[:2])
        variances.append(
            {w: _ratio_variance_at_truth(record, plan.model, *guesses[-1], w) for w in worst}
        )
    monkeypatch.setattr(spectra, "SPAN_LINEWIDTHS", 80.0)
    for plan, guess, variance in zip(plans, guesses, variances):
        wide = record_point(plan)
        reference = _ratio_variance_at_truth(wide, plan.model, *guess, 60.0)
        for half_width in worst:
            worst[half_width] = max(worst[half_width], math.sqrt(variance[half_width] / reference))
    assert worst[WINDOW_LINEWIDTHS] <= 1.01
    assert worst[narrower] > 1.01


def test_initial_floor_reads_the_tails_of_every_default_plan():
    # The guess reads the quarter of stored bins farthest from both lines,
    # 20 to 27 linewidths out on a span-only record.  A unit Lorentzian has
    # fallen only to 1/(1 + 4 * 20**2) = 6e-4 there, and at the weakest
    # drive at -0.5 MHz the anti-Stokes peak stands 198x above the floor,
    # so its tail lifts those bins by up to 12% and their median by 6.4%.
    # Fitted with both tails' asymptotes, the floor reads at most 3.3e-5
    # high on every default plan, and never low: the exact tails fall below
    # their asymptotes, which raises the intercept.  The solver frees the
    # floor, so the guess only has to start it.
    config = default_config()
    for index, detuning_hz in enumerate(config.detunings_hz):
        for plan in plan_curve(config, detuning_hz, 1, index, noiseless=True):
            floor0 = _initial_guess(record_point(plan))[4]
            assert plan.model.floor <= floor0 <= 1.01 * plan.model.floor


@pytest.mark.parametrize("size", [1, 2, 6, 7, 8, 7411])
def test_smooth_matches_uniform_filter1d_bit_for_bit(size):
    # the stored runs the initial guess smooths, shorter than the width too
    rng = np.random.default_rng(size)
    for scale in (1e-6, 1.0, 1e4):
        values = scale * rng.standard_gamma(30.0, size) / 30.0
        got = _smooth(values, _SMOOTH_WIDTH)
        assert got.tolist() == uniform_filter1d(values, _SMOOTH_WIDTH, mode="nearest").tolist()


def _full_grid_record(params, n0, gamma_opt_hz, n_avg, seed):
    """Noisy full-grid record built without the synthesis module."""
    _, _, model = make_model(params, n0, gamma_opt_hz, background_fraction=0.002775)
    f_lo, res, grid_bins, _ = acquisition_grid(model)
    half = grid_bins // 2
    freqs = res * np.arange(-half, half + 1)
    draws = np.random.default_rng(seed).standard_gamma(n_avg, freqs.size)
    return HeterodyneSpectrum(
        f_lo=f_lo,
        resolution=res,
        psd=evaluate_psd(model, freqs) * draws / n_avg,
        n_avg=n_avg,
    )


class TestRecordLayouts:
    # Exact fits of two full-grid records written and read back as v1, the
    # format external full-grid data use: records that store every bin must
    # keep fitting to these numbers, from a v1 file or from a v2 one.
    PINNED = {
        2100.0: (
            2.0e5, 5,
            (9299163.121992582, 12980.842449937903, 0.047134757980915425,
             0.1160855747150483, 1.002806785590245, 0.9254650190105049, 1282),
            4.414681139841181e-05,
        ),
        30000.0: (
            2.6e4, 6,
            (9297217.532368774, 201120.39190123774, 0.034258726531614415,
             0.038459757920274444, 1.002894358203924, 1.000437521110463, 1362),
            0.004217617348235869,
        ),
    }

    @pytest.mark.parametrize("gamma_opt_hz", sorted(PINNED))
    def test_full_grid_v1_fit_is_pinned(
        self, params, bath_occupation, tmp_path, gamma_opt_hz
    ):
        n_avg, seed, expected, ratio_variance = self.PINNED[gamma_opt_hz]
        record = _full_grid_record(params, bath_occupation, gamma_opt_hz, n_avg, seed)
        v1, v2 = tmp_path / "full_v1.csv", tmp_path / "full_v2.csv"
        write_v1_csv(v1, record, {"gamma_opt_hz": gamma_opt_hz})
        write_spectrum_csv(v2, record, {"gamma_opt_hz": gamma_opt_hz})
        assert v1.read_text().startswith("# sidebandlimit-spectrum v1 ")
        assert v2.read_text().startswith("# sidebandlimit-spectrum v2 ")
        for path in (v1, v2):
            fit = fit_sidebands(read_spectrum_csv(path)[0])
            got = (
                fit.omega_m_fit, fit.gamma_eff_fit, fit.amp_stokes, fit.amp_antistokes,
                fit.floor_fit, fit.residual_norm, fit.n_bins_used,
            )
            assert got == expected
            assert fit.ratio_variance() == ratio_variance

    # Exact fits of two default-acquisition records, the two sideband spans
    # at the pipeline's averaging, written and read back as v2.
    PINNED_V2 = {
        200.0: (
            592134.0, 7,
            (9299113.416905947, 1257.883111432786, 0.16352490923259094,
             0.8922093077534758, 1.0026678896531669, 0.97940460503677, 1282),
            2.669967063269678e-07,
        ),
        30000.0: (
            26296.0, 8,
            (9297291.871801276, 187716.13872484482, 0.03165570258622151,
             0.04170797731972155, 1.0027416803557199, 1.0384546860080663, 1362),
            0.003337331257330586,
        ),
    }

    @pytest.mark.parametrize("gamma_opt_hz", sorted(PINNED_V2))
    def test_default_acquisition_v2_fit_is_pinned(
        self, params, bath_occupation, tmp_path, gamma_opt_hz
    ):
        n_avg, seed, expected, ratio_variance = self.PINNED_V2[gamma_opt_hz]
        _, n_bar, model = make_model(
            params, bath_occupation, gamma_opt_hz, background_fraction=0.002775
        )
        assert n_avg == math.ceil(18000.0 * min(n_bar + 1.0, N_AVG_OCCUPATION_CAP + 1.0) ** 2)
        f_lo, res, grid_bins, index = acquisition_grid(model)
        record = synthesize_spectrum(model, (f_lo, res, grid_bins, index), n_avg, seed)
        path = tmp_path / "zoomed.csv"
        write_spectrum_csv(path, record, {"gamma_opt_hz": gamma_opt_hz})
        assert path.read_text().startswith("# sidebandlimit-spectrum v2 ")
        fit = fit_sidebands(read_spectrum_csv(path)[0])
        got = (
            fit.omega_m_fit, fit.gamma_eff_fit, fit.amp_stokes, fit.amp_antistokes,
            fit.floor_fit, fit.residual_norm, fit.n_bins_used,
        )
        assert got == expected
        assert fit.ratio_variance() == ratio_variance

    @pytest.mark.parametrize("gamma_opt_hz", [3.0, 227.0, 30e3])
    def test_sparse_record_fits_like_full_grid(self, params, bath_occupation, gamma_opt_hz):
        # noiseless: the two recorded spans pin the same optimum
        _, _, model = make_model(params, bath_occupation, gamma_opt_hz)
        f_lo, res, grid_bins, index = acquisition_grid(model)
        sparse = fit_sidebands(
            synthesize_spectrum(model, (f_lo, res, grid_bins, index), math.inf, 0)
        )
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
            full = fit_sidebands(
                synthesize_spectrum(model, (f_lo, res, grid_bins, None), math.inf, 0)
            )
            assert sparse.amplitude_ratio() == pytest.approx(
                full.amplitude_ratio(), rel=1e-9
            )
            assert sparse.n_bins_used == full.n_bins_used


def _fit_series(params, n0, gamma_opt_hz_list, n_avg_base, entropy):
    """Synthesize and fit a cooling series, returning (gamma_opt, fit) pairs.

    A noiseless series records the two sideband spans of
    ``acquisition_grid``, as the pipeline does, since a full grid at a few
    Hz of drive holds millions of bins; a noisy one records the full grid.
    """
    series = []
    for i, g_hz in enumerate(gamma_opt_hz_list):
        point, n_bar, model = make_model(params, n0, g_hz)
        seed = np.random.SeedSequence(entropy=entropy, spawn_key=(i,))
        if math.isinf(n_avg_base):
            spectrum = synthesize_spectrum(model, acquisition_grid(model), math.inf, seed)
        else:
            n_avg = math.ceil(n_avg_base * min(n_bar + 1.0, N_AVG_OCCUPATION_CAP + 1.0) ** 2)
            spectrum = synthesize(model, float(n_avg), seed=seed)
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
        points = occupation_series(ratio, sigma_ratio, curve.s_hat, curve.sigma_s)
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
        points = occupation_series(ratio, sigma_ratio, curve.s_hat, curve.sigma_s)
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
                )
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
            n_fit = occupation_from_ratio(fit.amplitude_ratio(), point.s_ratio)
            sigma_n = math.sqrt(fit.ratio_variance()) * n_fit**2 / point.s_ratio
            covered += abs(n_fit - n_bar) <= sigma_n
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

    def test_floor_on_its_bound_is_flagged(self, params, bath_occupation):
        # ratios of a floor below the bound of 1e-12, measured to 1e-12 of
        # their size: the fit pins n_ba to the bound, where its sigma says
        # nothing, and must flag it
        gamma_opt = TWO_PI * np.asarray(GRID_FULL_HZ)
        n = (bath_occupation * params.gamma_0 - 0.02 * gamma_opt) / (
            params.gamma_0 + gamma_opt
        )
        ratio = S_REF * (1.0 + 1.0 / n)
        curve = fit_cooling_curve(
            gamma_opt, ratio, S_REF * 1e-12 / n, params.gamma_0, params.omega_m
        )
        assert curve.n_ba_fit == 1e-12
        assert 2.0 * curve.sigma_n_ba < curve.n_ba_fit
        assert "n_ba_unidentifiable" in curve.flags
        assert "s_unidentifiable" not in curve.flags
        assert "n0_unidentifiable" not in curve.flags

    @pytest.mark.parametrize("n_ba", [0.0, 1e-6])
    @pytest.mark.parametrize("n0", [1e6, 1e8, 1e10])
    def test_runaway_bath_returns_and_flags_unresolved_floor(self, params, n0, n_ba):
        # so hot a bath that n_bar >> n_ba at every drive: the n_ba column
        # of the Jacobian is nearly 0, and the solve must still end
        series = _fabricated_ratios(params, n0, n_ba, GRID_FULL_HZ, 0.0)
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        assert abs(curve.n_ba_fit - n_ba) <= 3.0 * curve.sigma_n_ba + 1e-12
        if 2.0 * curve.sigma_n_ba >= n_ba:
            assert "n_ba_unidentifiable" in curve.flags

    def test_excludes_flagged_points_but_keeps_them(self, params, bath_occupation):
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        gamma_opt, ratio, sigma = _fabricated_ratios(
            params, bath_occupation, n_ba, GRID_FULL_HZ, 0.0
        )
        ratio[7] = sigma[7] = math.nan  # a point that measured no ratio
        curve = fit_cooling_curve(
            gamma_opt, ratio, sigma, params.gamma_0, params.omega_m
        )
        points = occupation_series(ratio, sigma, curve.s_hat, curve.sigma_s)
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
