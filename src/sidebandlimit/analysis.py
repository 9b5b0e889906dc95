"""Ratio thermometry on heterodyne sideband spectra.

The chain mirrors how the measurement is actually reduced:

1. :func:`fit_sidebands` -- the two-Lorentzian model with a shared
   center offset and linewidth, independent amplitudes and a free floor,
   fitted by maximum likelihood under the Gamma(n_avg) bin-noise law:
   one bounded solve on Gamma deviance residuals.
2. :func:`ratio_series` -- each fit's amplitude ratio R and its
   uncertainty.
3. :func:`fit_cooling_curve` -- one weighted fit of the measured ratios,
   R = s (1 + 1/n_bar) with the two-bath rate equation for n_bar and
   (s, n0, n_ba) free, giving the susceptibility ratio, the bath
   occupation and temperature, and the saturation floor; the mean ratio
   of the classical-window points cross-checks s.
4. :func:`occupation_series` -- per-point occupations for the reports,
   inverted with the fitted s, with first-order uncertainties.
5. :func:`detuning_sweep_summary` -- the saturation floor versus detuning
   compared against the closed-form backaction limit.

A fit that measures no ratio (an amplitude at its bound of 0) is left
out of the curve fit.  It, and any point whose ratio fell at or below
``s``, is carried through flagged, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.optimize import least_squares

from sidebandlimit.physics import (
    CLASSICAL_OCCUPATION,
    occupation_from_ratio,
    temperature_from_occupation,
)
from sidebandlimit.spectra import (
    WINDOW_LINEWIDTHS,
    HeterodyneSpectrum,
    floor_sample,
    two_lorentzian,
)

# Cap applied to n_avg so the noiseless (n_avg = inf) mode keeps the
# fit residuals and the floor-noise estimate finite.
_MAX_WEIGHT_AVERAGES = 1e12

_GRADIENT_TOL = 1e-10
_MAX_EVALS = 2000


class AnalysisError(RuntimeError):
    """Base class for measurement-reduction failures."""


class SpectrumCoverageError(AnalysisError):
    """Spectrum does not cover both sidebands at adequate resolution."""


class InsufficientVisibilityError(AnalysisError):
    """No sideband rises above the noise of the averaged floor."""


class FitConvergenceError(AnalysisError):
    """Bounded-iteration fit did not reach the gradient tolerance.

    Carries the best-so-far parameter state in ``best``.
    """

    def __init__(self, message: str, best: "SidebandFit | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SidebandFit:
    """Result of the simultaneous two-sideband fit.

    ``covariance`` is the 5x5 parameter covariance in the order
    (omega_m, gamma_eff, amp_stokes, amp_antistokes, floor).
    ``residual_norm`` is the Gamma deviance per degree of freedom, which
    reads about 1 when the bins follow the Gamma(n_avg) law.
    """

    omega_m_fit: float
    gamma_eff_fit: float
    amp_stokes: float
    amp_antistokes: float
    floor_fit: float
    covariance: np.ndarray
    residual_norm: float
    n_bins_used: int

    def __post_init__(self) -> None:
        if not self.gamma_eff_fit > 0:
            raise ValueError("fitted linewidth must be positive")
        if self.amp_stokes < 0 or self.amp_antistokes < 0:
            raise ValueError("fitted amplitudes must be non-negative")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (5, 5):
            raise ValueError("covariance must be 5x5")
        if not np.allclose(cov, cov.T, rtol=1e-8, atol=0.0):
            raise ValueError("covariance must be symmetric")

    def amplitude_ratio(self) -> float:
        """Stokes / anti-Stokes amplitude ratio R; NaN if an amplitude is 0."""
        if self.amp_stokes == 0 or self.amp_antistokes == 0:
            return math.nan
        return self.amp_stokes / self.amp_antistokes

    def ratio_variance(self) -> float:
        """First-order variance of the amplitude ratio; NaN if an amplitude is 0."""
        a_s, a_as = self.amp_stokes, self.amp_antistokes
        r = self.amplitude_ratio()
        if math.isnan(r):
            return r
        c = self.covariance
        return r * r * (
            c[2, 2] / (a_s * a_s)
            + c[3, 3] / (a_as * a_as)
            - 2.0 * c[2, 3] / (a_s * a_as)
        )


def _covariance(jac: np.ndarray) -> np.ndarray:
    """Gauss-Newton parameter covariance (J^T J)^+ from the residual Jacobian.

    Formed as pinv(J) pinv(J)^T: forming J^T J first squares the
    condition number, and pinv then drops the least-constrained
    directions, reporting nearly zero variance where it is largest.
    """
    pinv = np.linalg.pinv(jac)
    return pinv @ pinv.T


def _smooth(values: np.ndarray, width: int) -> np.ndarray:
    return uniform_filter1d(values, size=width, mode="nearest")


def _smooth_runs(spectrum: HeterodyneSpectrum, width: int) -> np.ndarray:
    """Boxcar-smooth each run of adjacent stored bins on its own.

    A full record is one run.  Isolated floor-sample bins keep their value.
    """
    psd = spectrum.psd
    smooth = psd.copy()
    breaks = np.flatnonzero(np.diff(spectrum.index) != 1) + 1
    starts = np.concatenate([[0], breaks])
    stops = np.concatenate([breaks, [psd.size]])
    runs = stops - starts > 1
    for a, b in zip(starts[runs].tolist(), stops[runs].tolist()):
        smooth[a:b] = _smooth(psd[a:b], width)
    return smooth


def _half_max_width(
    values: np.ndarray, bins: np.ndarray, peak_idx: int, floor: float, step: float
) -> float:
    """FWHM from half-max crossings around a peak, in frequency units.

    ``bins`` holds the grid bin of each entry of ``values``.
    """
    half = floor + 0.5 * (values[peak_idx] - floor)
    left = peak_idx
    while left > 0 and values[left] > half:
        left -= 1
    right = peak_idx
    while right < values.size - 1 and values[right] > half:
        right += 1
    return max(bins[right] - bins[left], 2) * step


@dataclass(frozen=True)
class _InitGuess:
    omega_m: float
    gamma_eff: float
    amp_stokes: float
    amp_antistokes: float
    floor: float


_SMOOTH_WIDTH = 7


def _initial_guess(spectrum: HeterodyneSpectrum) -> _InitGuess:
    """Deterministic data-driven starting point.

    Floor from the median of the stored bins in the outer frequency
    quartiles of the grid.  The sideband offset comes from the maximum of
    the stored spectrum folded about the beat note, where the two mirrored
    peaks add coherently while noise maxima have to coincide across both
    halves; width from the half-max crossings around the folded peak.
    Every step reads stored bins only, so its cost follows the record,
    not the grid.
    """
    psd = spectrum.psd
    index = spectrum.index
    n = spectrum.grid_bins
    quart = max(n // 4, 1)
    lo_end, hi_start = np.searchsorted(index, [quart, n - quart])
    stride = max(1, (lo_end + psd.size - hi_start) // 200_000)
    outer = np.concatenate([psd[:lo_end:stride], psd[hi_start::stride]])
    floor0 = float(np.median(outer))
    # The Gamma bin law is skewed at low averaging: the mean, not the
    # median, estimates the floor level the noise scales with.
    floor_mean = float(np.mean(outer))
    smooth = _smooth_runs(spectrum, _SMOOTH_WIDTH)

    # Fold the band about zero.  On a uniform grid the bin mirrored from
    # index i sits at M - i with constant M; fold the stored bins above
    # the beat note whose mirror is stored too.
    res = spectrum.resolution
    i_zero = int(round(-spectrum.f_lo / res))
    mirror = int(round(-2.0 * spectrum.f_lo / res))
    n_fold = min(n - 1 - i_zero, mirror - i_zero)
    if i_zero < 0 or mirror - i_zero >= n or n_fold < 10:
        raise SpectrumCoverageError(
            "spectrum must extend to both sides of the beat note to cover "
            "both mechanical sidebands"
        )
    p0, p1 = np.searchsorted(index, [i_zero + 1, i_zero + n_fold])
    pos = np.arange(p0, p1)
    mirrored = mirror - index[pos]
    neg = np.minimum(np.searchsorted(index, mirrored), index.size - 1)
    paired = index[neg] == mirrored
    pos, neg = pos[paired], neg[paired]
    if not pos.size:
        raise SpectrumCoverageError(
            "spectrum stores no mirrored bin pairs about the beat note"
        )
    pos_view = smooth[pos]
    neg_view = smooth[neg]
    folded = pos_view + neg_view

    k = int(np.argmax(folded))
    omega_m0 = spectrum.f_lo + index[pos[k]] * res
    peak_pos = pos_view[k] - floor0
    peak_neg = neg_view[k] - floor0

    # Locating the pair requires the folded peak to clear the expected
    # extreme of pure floor noise over this many bins.
    noise = floor_mean / math.sqrt(
        min(spectrum.n_avg, _MAX_WEIGHT_AVERAGES) * _SMOOTH_WIDTH
    )
    extreme = math.sqrt(2.0 * math.log(max(folded.size, 3))) + 2.0
    if (pos_view[k] - floor_mean) + (neg_view[k] - floor_mean) < (
        extreme * math.sqrt(2.0) * noise
    ):
        raise InsufficientVisibilityError(
            "no sideband rises above the averaged noise floor"
        )
    # A band truncated short of the sidebands only ever shows the rising
    # Lorentzian tail, whose folded maximum sits at the fold edge.
    if k >= folded.size - 1 - max(3, _SMOOTH_WIDTH):
        raise SpectrumCoverageError(
            "spectrum does not bracket the mechanical sidebands "
            f"(folded maximum at the band edge, offset {omega_m0:.6g} rad/s)"
        )

    gamma0 = _half_max_width(folded, index[pos], k, 2.0 * floor0, res)
    if gamma0 < (_SMOOTH_WIDTH + 2.0) * res:
        raise SpectrumCoverageError(
            "sideband under-resolved: need >= 10 bins per linewidth, "
            f"estimated width {gamma0:.6g} rad/s at resolution {res:.6g} rad/s"
        )
    return _InitGuess(
        omega_m=omega_m0,
        gamma_eff=gamma0,
        amp_stokes=max(peak_neg, 1e-12 * floor0),
        amp_antistokes=max(peak_pos, 1e-12 * floor0),
        floor=floor0,
    )


def _fit_indices(
    spectrum: HeterodyneSpectrum, omega_m: float, window: float
) -> np.ndarray:
    """Stored bins the fit reads: both sideband windows plus a strided floor sample.

    Returns positions into ``spectrum.psd``.
    """
    sl_pos = spectrum.index_range(omega_m - window, omega_m + window)
    sl_neg = spectrum.index_range(-omega_m - window, -omega_m + window)
    window_idx = np.concatenate(
        [np.arange(sl_neg.start, sl_neg.stop), np.arange(sl_pos.start, sl_pos.stop)]
    )
    if window_idx.size < 20:
        raise SpectrumCoverageError("sideband windows contain too few bins")
    floor_idx = floor_sample(
        spectrum.index_range, spectrum.f_lo, spectrum.f_hi, omega_m, window
    )
    return np.unique(np.concatenate([window_idx, floor_idx]))


def fit_sidebands(spectrum: HeterodyneSpectrum) -> SidebandFit:
    """Simultaneous maximum-likelihood fit of both mechanical sidebands.

    Shared center offset and linewidth, independent amplitudes, free
    floor, always started from the data-driven :func:`_initial_guess`.
    One bounded solve minimizes the Gamma(n_avg) deviance of the fitted
    bins, so the result is the maximum-likelihood fit under the bin-noise
    law.  Raises :class:`AnalysisError` if a fitted bin is not positive
    (the Gamma law has no zero), and :class:`FitConvergenceError`
    (carrying the best-so-far state) if the bounded optimizer stops
    without reaching the gradient tolerance.
    """
    guess = _initial_guess(spectrum)

    window = WINDOW_LINEWIDTHS * guess.gamma_eff
    idx = _fit_indices(spectrum, guess.omega_m, window)
    freqs = spectrum.frequencies_at(idx)
    data = spectrum.psd[idx]
    if not np.all(data > 0):
        raise AnalysisError(
            "a fitted spectrum bin is not positive, and the Gamma bin-noise "
            "law needs positive power"
        )
    n_w = min(spectrum.n_avg, _MAX_WEIGHT_AVERAGES)

    x0 = np.array(
        [
            guess.omega_m,
            guess.gamma_eff,
            guess.amp_stokes,
            guess.amp_antistokes,
            guess.floor,
        ]
    )
    lower = np.array([guess.omega_m - 2 * window, 1e-3 * guess.gamma_eff, 0.0, 0.0, 1e-12])
    upper = np.array([guess.omega_m + 2 * window, 1e3 * guess.gamma_eff, np.inf, np.inf, np.inf])
    x0 = np.clip(x0, lower, upper)

    def residual(p):
        # Signed Gamma deviance residuals: their sum of squares is the
        # Gamma(n_avg) deviance, minimized at the maximum-likelihood fit.
        d = data / two_lorentzian(freqs, *p) - 1.0
        return np.copysign(np.sqrt(2.0 * n_w * (d - np.log1p(d))), d)

    result = least_squares(
        residual,
        x0,
        bounds=(lower, upper),
        x_scale="jac",
        ftol=1e-14,
        xtol=1e-14,
        gtol=_GRADIENT_TOL,
        max_nfev=_MAX_EVALS,
    )
    x = result.x
    dof = max(idx.size - 5, 1)
    covariance = _covariance(result.jac)
    fit = SidebandFit(
        omega_m_fit=float(x[0]),
        gamma_eff_fit=float(x[1]),
        amp_stokes=float(x[2]),
        amp_antistokes=float(x[3]),
        floor_fit=float(x[4]),
        covariance=covariance,
        residual_norm=float(2.0 * result.cost / dof),
        n_bins_used=int(idx.size),
    )
    if result.status == 0:
        raise FitConvergenceError(
            f"sideband fit stopped after {_MAX_EVALS} evaluations without "
            f"reaching gradient tolerance {_GRADIENT_TOL:g}",
            best=fit,
        )
    # Whole-record visibility: neither fitted amplitude beats its own
    # uncertainty when the record carries no usable sideband signal.
    snr = max(
        fit.amp_stokes / math.sqrt(max(covariance[2, 2], 1e-300)),
        fit.amp_antistokes / math.sqrt(max(covariance[3, 3], 1e-300)),
    )
    if snr < 1.0:
        raise InsufficientVisibilityError(
            f"fitted sideband amplitudes below their uncertainties (SNR {snr:.2g} < 1)"
        )
    return fit


def ratio_series(fits: Sequence[SidebandFit]) -> tuple[list[float], list[float]]:
    """Measured amplitude ratio R and its uncertainty for each fit.

    Both are NaN where a fitted amplitude sits at its bound of 0 or the
    ratio variance is not finite: such a fit measures no ratio.
    """
    ratio = [math.nan] * len(fits)
    sigma = [math.nan] * len(fits)
    for i, fit in enumerate(fits):
        var = fit.ratio_variance()
        if math.isfinite(var):
            ratio[i] = fit.amplitude_ratio()
            sigma[i] = math.sqrt(max(var, 1e-300))
    return ratio, sigma


@dataclass(frozen=True)
class CoolingCurveResult:
    """Joint fit of a cooling curve's sideband ratios.

    ``s_classical`` and ``sigma_classical`` hold the mean ratio over the
    classical window (occupation above CLASSICAL_OCCUPATION), a
    cross-check on ``s_hat``; both are None when no point lies there.
    """

    s_hat: float
    sigma_s: float
    n0_fit: float
    sigma_n0: float
    n_ba_fit: float
    sigma_n_ba: float
    t0_fit: float  # kelvin
    sigma_t0: float
    s_classical: float | None = None
    sigma_classical: float | None = None
    n_ba_predicted: float | None = None
    flags: tuple[str, ...] = ()


def fit_cooling_curve(
    gamma_opt: Sequence[float],
    ratio: Sequence[float],
    sigma_ratio: Sequence[float],
    gamma_0: float,
    omega_m: float,
    *,
    n_ba_predicted: float | None = None,
) -> CoolingCurveResult:
    """One weighted fit of R = s (1 + 1/n_bar) with (s, n0, n_ba) free.

    n_bar follows the two-bath rate equation at each drive's optical
    damping; ``gamma_0`` is fixed, as measured independently (e.g. by
    ringdown).  Weights are the measured sigma_R.  Points without a
    positive, finite ratio and uncertainty are left out.  s, n0, n_ba and
    their uncertainties all come from this one fit.  A degenerate drive
    span, an unconstrained floor or a classical-window mean at odds with
    s are reported through flags rather than a failure.
    """
    gamma_opt = np.asarray(gamma_opt, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    sigma = np.asarray(sigma_ratio, dtype=float)
    ok = np.isfinite(ratio) & np.isfinite(sigma) & (ratio > 0) & (sigma > 0)
    gamma_opt, ratio, sigma = gamma_opt[ok], ratio[ok], sigma[ok]
    if gamma_opt.size < 4:
        raise AnalysisError(
            "need at least 4 valid sideband ratios to fit (s, n0, n_ba), "
            f"got {gamma_opt.size}"
        )
    flags: list[str] = []
    if gamma_opt.max() < 10.0 * gamma_opt.min():
        flags.append("narrow_drive_span")

    def residual(x):
        s, n0, n_ba = x
        n_bar = (n0 * gamma_0 + n_ba * gamma_opt) / (gamma_0 + gamma_opt)
        return (s * (1.0 + 1.0 / n_bar) - ratio) / sigma

    # Start just below the smallest ratio, with n0 from the weakest drive
    # and the floor where the mode meets the optical bath (R = 1).
    s0 = min(0.999 * ratio.min(), 1.0 - 1e-9)
    weakest = np.argmin(gamma_opt)
    n0_start = (gamma_0 + gamma_opt[weakest]) / (
        gamma_0 * max(ratio[weakest] / s0 - 1.0, 1e-9)
    )
    x0 = np.array([s0, max(n0_start, 1.0), s0 / (1.0 - s0)])
    result = least_squares(
        residual,
        x0,
        bounds=([1e-9, 1e-12, 1e-12], [1.0 - 1e-9, np.inf, np.inf]),
        x_scale=x0,
        ftol=1e-14,
        xtol=1e-14,
        gtol=1e-10,
        max_nfev=_MAX_EVALS,
    )
    if result.status == 0:
        raise AnalysisError("cooling-curve fit did not converge")
    s_hat, n0_fit, n_ba_fit = (float(v) for v in result.x)
    cov = _covariance(result.jac)
    sigma_s, sigma_n0, sigma_n_ba = (math.sqrt(v) for v in np.diag(cov))

    # Classical window: ratios within the bosonic correction 1/n of s at
    # the occupation threshold (a ratio at or below s counts as classical).
    classical = ratio < s_hat * (1.0 + 1.0 / CLASSICAL_OCCUPATION)
    s_classical = sigma_classical = None
    if classical.any():
        s_classical = float(np.mean(ratio[classical]))
        sigma_classical = float(
            math.sqrt(np.sum(sigma[classical] ** 2)) / classical.sum()
        )
        # The classical mean sits above s by up to that correction; alarm
        # only beyond the allowance plus 3 sigma.
        gap = abs(s_hat - s_classical)
        allowance = s_hat / CLASSICAL_OCCUPATION
        if gap > allowance + 3.0 * math.hypot(sigma_s, sigma_classical):
            flags.append("s_estimators_disagree")
    else:
        flags.append("no_classical_points")
    if 2.0 * sigma_n_ba >= n_ba_fit:
        flags.append("n_ba_unidentifiable")
    if n0_fit <= n_ba_fit:
        flags.append("not_a_cooling_dataset")

    t0_fit = temperature_from_occupation(n0_fit, omega_m)
    return CoolingCurveResult(
        s_hat=s_hat,
        sigma_s=sigma_s,
        n0_fit=n0_fit,
        sigma_n0=sigma_n0,
        n_ba_fit=n_ba_fit,
        sigma_n_ba=sigma_n_ba,
        t0_fit=t0_fit,
        sigma_t0=t0_fit * sigma_n0 / n0_fit,
        s_classical=s_classical,
        sigma_classical=sigma_classical,
        n_ba_predicted=n_ba_predicted,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class OccupationPoint:
    """One cooling-curve point: occupation inferred at a drive setting."""

    gamma_opt: float  # rad/s
    n_bar: float  # phonons (NaN when flagged)
    sigma_n: float  # phonons
    flags: tuple[str, ...] = ()


def occupation_series(
    gamma_opt: Sequence[float],
    ratio: Sequence[float],
    sigma_ratio: Sequence[float],
    s: float,
    sigma_s: float,
) -> list[OccupationPoint]:
    """Per-point occupations n = 1 / (R/s - 1) for the reports.

    ``s`` and ``sigma_s`` come from the cooling-curve fit, which reads the
    ratios themselves.  Uncertainties are first order in sigma_R and
    sigma_s.  A point without a measured ratio, or with R <= s, is flagged
    ``unphysical_ratio`` and carried through with NaN occupation.
    """
    points: list[OccupationPoint] = []
    for g, r, sigma_r in zip(gamma_opt, ratio, sigma_ratio):
        out = occupation_from_ratio(r, s) if r > 0 else None
        if out is None or out.unphysical:
            points.append(
                OccupationPoint(g, math.nan, math.nan, flags=("unphysical_ratio",))
            )
            continue
        n = out.n_bar
        sigma_n = math.hypot(n * n / s * sigma_r, n * (n + 1.0) / s * sigma_s)
        points.append(OccupationPoint(g, n, sigma_n))
    return points


# Detunings closer to the cavity than this fraction of omega_m sit in the
# region where the backaction limit is blowing up toward the resonance.
_NEAR_DIVERGENCE_FRACTION = 0.1


@dataclass(frozen=True)
class SweepRow:
    detuning: float  # rad/s
    min_n_bar: float  # fitted saturation floor
    sigma: float
    n_ba_predicted: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepSummary:
    """Fitted cooling floors versus detuning, against the closed form."""

    rows: tuple[SweepRow, ...]
    global_min_detuning: float
    flags: tuple[str, ...] = ()


def detuning_sweep_summary(
    results: Mapping[float, CoolingCurveResult], omega_m: float
) -> SweepSummary:
    """Tabulate fitted floors against the predicted backaction limit."""
    if not results:
        raise AnalysisError("sweep summary needs at least one detuning")
    flags: list[str] = []
    if len(results) < 3:
        flags.append("degenerate_sweep")
    rows = []
    for detuning in sorted(results):
        curve = results[detuning]
        row_flags = list(curve.flags)
        if abs(detuning) < _NEAR_DIVERGENCE_FRACTION * omega_m:
            row_flags.append("near_divergence")
        predicted = (
            curve.n_ba_predicted
            if curve.n_ba_predicted is not None
            else math.nan
        )
        rows.append(
            SweepRow(
                detuning=detuning,
                min_n_bar=curve.n_ba_fit,
                sigma=curve.sigma_n_ba,
                n_ba_predicted=predicted,
                flags=tuple(row_flags),
            )
        )
    best = min(rows, key=lambda r: r.min_n_bar)
    return SweepSummary(
        rows=tuple(rows), global_min_detuning=best.detuning, flags=tuple(flags)
    )
