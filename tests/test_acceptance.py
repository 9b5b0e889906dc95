"""Acceptance suite: one test per exit criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-3 and 6-8
are exact or property-based and finish in seconds to a minute.  Criteria
4 and 5 are statistical reproductions on synthetic data with the default
device parameters (the underlying experimental records are not
available); they run a 100-seed ensemble at the reference detuning and a
16-seed ensemble at each of the five detunings, with pinned master seeds,
sharing the reference curves through a module fixture.

Criterion 4 reads "recovered final n_bar" as the fitted saturation floor
of the cooling curve (the minimum occupancy the curve fit infers, the
quantity the detuning sweep plots), whose ground truth is the closed-form
0.1783: the literal final-point occupation is 0.2087 by criterion 3's own
arithmetic and cannot have mean within 0.01 of 0.178.  Its scatter is
checked against the ensemble-mean reported uncertainty; the stated 0.02
target applies to the final-point occupation scatter, which is also
checked directly.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sidebandlimit.analysis import fit_sidebands
from sidebandlimit.config import default_config
from sidebandlimit.physics import (
    SystemParams,
    backaction_limit,
    cooling_point,
    occupation_from_ratio,
    optimal_detuning,
    sideband_ratio,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.pipeline import run_cooling_curve
from sidebandlimit.spectra import (
    BINS_PER_LINEWIDTH,
    SPAN_LINEWIDTHS,
    HeterodyneSpectrum,
    apparent_sideband_bias,
    build_model,
    laser_noise_bias,
    lorentzian,
)
from sidebandlimit.synth import estimate_psd, simulate_oscillator, synthesize_spectrum

TWO_PI = 2.0 * math.pi

KAPPA = TWO_PI * 2.6e6
OMEGA_M = TWO_PI * 1.48e6
DELTA_REF = -TWO_PI * 1.62e6
N_BA_REF = 0.1782615949282616  # closed form at the reference detuning

PARAMS = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


def test_criterion_1_backaction_limit_value():
    """Closed-form backaction limit at the reference detuning."""
    n_ba = backaction_limit(DELTA_REF, PARAMS)
    passed = abs(n_ba - 0.178) <= 1e-3
    report(1, passed, f"n_ba(-1.62 MHz) = {n_ba:.6f}, target 0.178 +- 0.001")
    assert passed


def test_criterion_2_optimal_detuning():
    """Optimal detuning against a brute-force grid scan of the closed form."""
    delta_opt, n_ba_min = optimal_detuning(PARAMS)
    grid = np.linspace(-4 * OMEGA_M, -0.01 * OMEGA_M, 100_000)
    brute = grid[np.argmin(backaction_limit(grid, PARAMS))]
    rel_gap = abs(delta_opt - brute) / abs(brute)
    passed = (
        rel_gap <= 1e-3
        and abs(delta_opt / TWO_PI - (-1.970e6)) <= 0.001e6
        and abs(n_ba_min - 0.1655) <= 5e-4
    )
    report(
        2,
        passed,
        f"delta_opt = {delta_opt / TWO_PI / 1e6:.4f} MHz "
        f"(brute force {brute / TWO_PI / 1e6:.4f} MHz, rel gap {rel_gap:.2e}), "
        f"n_ba_min = {n_ba_min:.5f}, target 0.1655 +- 0.0005",
    )
    assert passed


def test_criterion_3_saturation_occupancy():
    """Rate equation at the strongest drive with matched rate units."""
    n0 = thermal_occupation(0.36, OMEGA_M)
    n_bar = steady_state_occupation(n0, 0.18, 0.178, 30e3)
    passed = abs(n_bar - 0.209) <= 2e-3
    report(
        3,
        passed,
        f"n_bar(n0={n0:.1f}, gamma_0=0.18 Hz, n_ba=0.178, gamma_opt=30 kHz) "
        f"= {n_bar:.4f}, target 0.209 +- 0.002",
    )
    assert passed


def _curve_statistics(seed: int, detuning_index: int = 0):
    config = default_config()
    detuning_hz = config.detunings_hz[detuning_index]
    (run,) = run_cooling_curve(config, [(detuning_index, detuning_hz)], master_seed=seed)
    final = run.occupation[-1]
    return (
        run.curve.n_ba_fit,
        run.curve.sigma_n_ba,
        final.n_bar,
        final.sigma_n,
        "n_ba_unidentifiable" in run.curve.flags,
    )


@pytest.fixture(scope="module")
def curve_pool():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def reference_curves(curve_pool):
    """Criterion 4's curves: seeds 1-100 at -1.62 MHz (detuning_index 0)."""
    return np.array(list(curve_pool.map(_curve_statistics, range(1, 101))))


def test_criterion_4_cooling_curve_ensemble(reference_curves):
    """100-seed statistical reproduction of the full cooling experiment."""
    rows = reference_curves
    floor = rows[:, 0]
    floor_reported = rows[:, 1]
    final = rows[:, 2]
    unidentifiable = int(rows[:, 4].sum())

    mean_ok = abs(floor.mean() - 0.178) <= 0.01
    final_sigma = final.std(ddof=1)
    final_sigma_ok = 0.7 * 0.02 <= final_sigma <= 1.3 * 0.02
    floor_sigma = floor.std(ddof=1)
    floor_calibration = floor_sigma / floor_reported.mean()
    floor_sigma_ok = 0.7 <= floor_calibration <= 1.3
    passed = mean_ok and final_sigma_ok and floor_sigma_ok and not unidentifiable
    report(
        4,
        passed,
        f"recovered floor mean {floor.mean():.4f} (target 0.178 +- 0.01), "
        f"final-point scatter {final_sigma:.4f} (target 0.02 +- 30%), "
        f"floor scatter {floor_sigma:.4f} vs reported "
        f"{floor_reported.mean():.4f} (ratio {floor_calibration:.2f}, "
        f"band 0.7-1.3), {unidentifiable} of {len(rows)} floors unidentifiable",
    )
    assert passed


# Criterion 5 judges ensemble means, not one noise realization: K pinned
# seeds per detuning (fixed before any result was seen), each detuning's
# mean floor against the closed form in units of sigma / sqrt(K), where
# sigma is the mean reported floor uncertainty (criterion 4 checks that
# it matches the scatter).  The five z are gated together at a
# false-alarm rate of 1e-4 (the chi-square bound) and one by one.  A
# floor whose sigma grows without bound drives its z to 0, so no curve
# may carry the n_ba_unidentifiable flag either.
SWEEP_SEEDS = range(1, 17)
SWEEP_CHI2_MAX = 25.74  # chi2 quantile, 5 degrees of freedom, 1 - 1e-4
SWEEP_Z_MAX = 4.0


def test_criterion_5_detuning_sweep_shape(curve_pool, reference_curves):
    """Ensemble-mean sweep floors track the closed form, minimum at -1.97 MHz."""
    config = default_config()
    params = config.system_params()
    k = len(SWEEP_SEEDS)
    tasks = [
        (seed, index)
        for index in range(1, len(config.detunings_hz))
        for seed in SWEEP_SEEDS
    ]
    rows = np.array(list(curve_pool.map(_curve_statistics, *zip(*tasks))))
    curves = {0: reference_curves[:k]}  # the -1.62 MHz row: seeds 1-16
    for index in range(1, len(config.detunings_hz)):
        curves[index] = rows[(index - 1) * k : index * k]
    unidentifiable = int(sum(c[:, 4].sum() for c in curves.values()))

    means = {}
    chi2 = 0.0
    z_ok = True
    lines = []
    for index, d_hz in sorted(
        enumerate(config.detunings_hz), key=lambda item: item[1]
    ):
        mean = curves[index][:, 0].mean()
        sigma_mean = curves[index][:, 1].mean() / math.sqrt(k)
        closed = float(backaction_limit(TWO_PI * d_hz, params))
        z = (mean - closed) / sigma_mean
        means[d_hz] = mean
        chi2 += z * z
        z_ok &= abs(z) <= SWEEP_Z_MAX
        lines.append(
            f"{d_hz / 1e6:+.2f} MHz: mean fit {mean:.4f} +- {sigma_mean:.4f}, "
            f"closed form {closed:.4f}, z {z:+.2f}"
        )
    best = min(means, key=means.get)
    minimum_ok = best == -1.97e6
    passed = chi2 <= SWEEP_CHI2_MAX and z_ok and minimum_ok and not unidentifiable
    report(
        5,
        passed,
        f"{k}-seed ensemble floors track the closed form: sum z^2 "
        f"{chi2:.2f} (<= {SWEEP_CHI2_MAX}), every |z| <= {SWEEP_Z_MAX:g} "
        f"{'ok' if z_ok else 'violated'}; the minimum mean sits at "
        f"{best / 1e6:+.2f} MHz (optimal grid point -1.97 MHz); "
        f"{unidentifiable} of {len(curves) * k} floors unidentifiable\n    "
        + "\n    ".join(lines),
    )
    assert passed


def test_criterion_6_oracle_equivalence():
    """Time-domain oscillator periodogram vs the analytic Lorentzian."""
    from scipy.optimize import curve_fit

    gamma_eff = TWO_PI * 30e3
    n_target = 2.0
    tau = 2.0 / gamma_eff
    record = simulate_oscillator(
        gamma_eff, OMEGA_M, n_target, 1e4 * tau, sample_rate=1.0e8, seed=20250810
    )
    spectrum = estimate_psd(record, segment_length=32768, overlap=0.5)

    sel = np.abs(spectrum.frequencies - OMEGA_M) < 20 * gamma_eff
    popt, _ = curve_fit(
        lambda w, peak, center, fwhm: peak * lorentzian(w, center, fwhm),
        spectrum.frequencies[sel],
        spectrum.psd[sel],
        p0=[spectrum.psd[sel].max(), OMEGA_M, gamma_eff],
    )
    peak, _, width = popt
    area = peak * math.pi * width / 2.0 / TWO_PI  # per-Hz density integral
    width_err = abs(width - gamma_eff) / gamma_eff
    area_err = abs(area - n_target) / n_target
    passed = width_err <= 0.03 and area_err <= 0.03
    report(
        6,
        passed,
        f"record of 1e4 correlation times: width off by {width_err:.2%}, "
        f"area off by {area_err:.2%} (tolerance 3%)",
    )
    assert passed


def test_criterion_7_thermometry_identities():
    """Property suite: inversion, identity, rate-equation bounds, scaling."""
    rng = np.random.default_rng(20250810)

    # inversion round-trip over eight decades of occupation
    n = 10 ** rng.uniform(-3, 6, size=3000)
    s = rng.uniform(0.01, 0.99, size=3000)
    recovered = np.array(
        [occupation_from_ratio(si * (1 + 1 / ni), si) for ni, si in zip(n, s)]
    )
    inversion_err = np.max(np.abs(recovered - n) / n)

    # backaction limit equals s / (1 - s) identically
    deltas = -(10 ** rng.uniform(4.0, 7.5, size=3000)) * TWO_PI
    s_vals = sideband_ratio(deltas, PARAMS)
    identity_err = np.max(
        np.abs(backaction_limit(deltas, PARAMS) - s_vals / (1 - s_vals))
        / (s_vals / (1 - s_vals))
    )

    # rate-equation bounds and monotonicity on randomized inputs
    bounds_ok = True
    monotone_ok = True
    for _ in range(3000):
        n0 = 10 ** rng.uniform(-2, 5)
        n_ba = 10 ** rng.uniform(-3, 2)
        g0 = 10 ** rng.uniform(-2, 2)
        g1 = 10 ** rng.uniform(-1, 7)
        value = steady_state_occupation(n0, g0, n_ba, g1)
        lo, hi = min(n0, n_ba), max(n0, n_ba)
        bounds_ok &= lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)
        stronger = steady_state_occupation(n0, g0, n_ba, 2 * g1)
        if n0 > n_ba:
            monotone_ok &= stronger <= value * (1 + 1e-12)
        elif n0 < n_ba:
            monotone_ok &= stronger >= value * (1 - 1e-12)

    # scaling an entire spectrum leaves the inferred occupation unchanged
    point = cooling_point(PARAMS, DELTA_REF, TWO_PI * 30e3)
    n_bar = steady_state_occupation(
        thermal_occupation(0.36, OMEGA_M), PARAMS.gamma_0, point.n_ba, point.gamma_opt
    )
    model = build_model(PARAMS, point, n_bar)
    span = model.omega_m + SPAN_LINEWIDTHS * model.gamma_eff
    resolution = model.gamma_eff / BINS_PER_LINEWIDTH
    grid_bins = math.floor(2 * span / resolution) + 1
    spectrum = synthesize_spectrum(model, (-span, resolution, grid_bins, None), 20000.0, 7)
    reference = occupation_from_ratio(
        fit_sidebands(spectrum).amplitude_ratio(), point.s_ratio
    )
    scaling_err = 0.0
    for k in (0.2, 5.0):
        scaled = HeterodyneSpectrum(
            f_lo=spectrum.f_lo,
            resolution=spectrum.resolution,
            psd=spectrum.psd * k,
            n_avg=spectrum.n_avg,
        )
        value = occupation_from_ratio(
            fit_sidebands(scaled).amplitude_ratio(), point.s_ratio
        )
        scaling_err = max(scaling_err, abs(value - reference) / reference)

    passed = (
        inversion_err <= 1e-9
        and identity_err <= 1e-12
        and bounds_ok
        and monotone_ok
        and scaling_err <= 1e-6
    )
    report(
        7,
        passed,
        f"inversion round-trip max rel err {inversion_err:.2e} (<= 1e-9), "
        f"floor identity max rel err {identity_err:.2e} (<= 1e-12), "
        f"rate-equation bounds {'ok' if bounds_ok else 'violated'}, "
        f"monotonicity {'ok' if monotone_ok else 'violated'}, "
        f"spectrum-scaling max rel err {scaling_err:.2e} (<= 1e-6)",
    )
    assert passed


def test_criterion_8_systematics_magnitudes():
    """Both calibrated systematics channels reproduce ~0.006-phonon shifts."""
    config = default_config()
    point = cooling_point(PARAMS, DELTA_REF, TWO_PI * 30e3)
    n_bar = steady_state_occupation(
        thermal_occupation(0.36, OMEGA_M), PARAMS.gamma_0, point.n_ba, point.gamma_opt
    )
    model = build_model(
        PARAMS, point, n_bar,
        background_fraction=config.systematics.background_fraction,
    )
    laser = laser_noise_bias(
        config.systematics.amp_noise, config.systematics.phase_noise
    )
    substrate = apparent_sideband_bias(
        model, config.systematics.background_fraction
    )
    laser_ok = abs(abs(laser) - 0.006) <= 1e-3
    substrate_ok = abs(abs(substrate) - 0.006) <= 1e-3
    passed = laser_ok and substrate_ok
    report(
        8,
        passed,
        f"laser channel {laser:+.4f} phonons at measured noise (0.2%, 2%), "
        f"substrate channel {substrate:+.4f} phonons at calibrated "
        f"b = {config.systematics.background_fraction}; "
        "calibrated reproductions of the 0.006-phonon scale",
    )
    assert passed
