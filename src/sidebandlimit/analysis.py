"""Ratio thermometry on heterodyne sideband spectra.

The chain mirrors how the measurement is actually reduced:

1. :func:`fit_sidebands` -- the two-Lorentzian model with a shared
   center offset and linewidth, independent amplitudes and a free floor,
   fitted by maximum likelihood under the Gamma(n_avg) bin-noise law:
   one bounded solve on Gamma deviance residuals, which
   :func:`_deviance` returns with their Jacobian in closed form, built
   only where the solver keeps a step.  Both fits here use the one
   bounded least-squares solver, :func:`_solve_bounded`.
2. :func:`ratio_series` -- each fit's amplitude ratio R and its
   uncertainty.
3. :func:`fit_cooling_curve` -- one weighted fit of the measured ratios,
   R = s (1 + 1/n_bar) with the two-bath rate equation for n_bar and
   (s, n0, n_ba) free, giving the susceptibility ratio, the bath
   occupation and temperature, and the saturation floor; the mean ratio
   of the classical-window points cross-checks s.
4. :func:`occupation_series` -- per-point occupations for the reports,
   inverted with the fitted s, with first-order uncertainties.

A fit that measures no ratio (an amplitude at its bound of 0) is left
out of the curve fit.  It, and any point whose ratio fell at or below
``s``, is carried through flagged, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sidebandlimit.physics import (
    CLASSICAL_OCCUPATION,
    occupation_from_ratio,
    temperature_from_occupation,
)
from sidebandlimit.spectra import WINDOW_LINEWIDTHS, HeterodyneSpectrum, lorentzian

# Cap applied to n_avg so the noiseless (n_avg = inf) mode keeps the
# fit residuals and the floor-noise estimate finite.
_MAX_WEIGHT_AVERAGES = 1e12

_STALL_TOL = 1e-10  # a relative fall of the sum of squares that ends a solve
_MAX_EVALS = 2000

# Where |d| = |data/model - 1| is below this, the Jacobian takes d/r, the
# ratio of d to its deviance residual, from its series (1 + d/3)/sqrt(n):
# the direct quotient is 0/0 at d = 0 and loses digits near it.
_SERIES_BELOW = 1e-4


class AnalysisError(RuntimeError):
    """Base class for measurement-reduction failures."""


class SpectrumCoverageError(AnalysisError):
    """Spectrum does not cover both sidebands at adequate resolution."""


class InsufficientVisibilityError(AnalysisError):
    """No sideband rises above the noise of the averaged floor."""


class FitConvergenceError(AnalysisError):
    """Bounded-iteration fit used up its evaluation budget before it stopped.

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
    """Running mean over ``width`` bins, the ends extended with the end values.

    Summed as scipy.ndimage.uniform_filter1d(mode="nearest") sums, the
    first window from the left and then one bin in and one out per step,
    so the two agree bit for bit.
    """
    half = width // 2
    padded = np.concatenate(
        [np.full(half, values[0]), values, np.full(width - 1 - half, values[-1])]
    )
    steps = np.concatenate([padded[:width], padded[width:] - padded[:-width]])
    return np.cumsum(steps)[width - 1 :] / width


def _smooth_runs(spectrum: HeterodyneSpectrum, width: int) -> np.ndarray:
    """Boxcar-smooth each run of adjacent stored bins on its own.

    A full record is one run, a zoomed record one per sideband span (or
    one, where the spans overlap).  A stored bin with no stored neighbour
    keeps its value.
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


_SMOOTH_WIDTH = 7


def _initial_guess(spectrum: HeterodyneSpectrum) -> np.ndarray:
    """Deterministic data-driven starting point, in the sideband fit's
    parameter order (omega_m, gamma_eff, amp_stokes, amp_antistokes, floor).

    The sideband offset comes from the maximum of the stored spectrum
    folded about the beat note, where the two mirrored peaks add
    coherently while noise maxima have to coincide across both halves.
    The floor is read from the quarter of stored bins farthest from both
    located lines, net of the Lorentzian tails that still reach them;
    width from the half-max crossings around the folded peak.  Every step
    reads stored bins only, so its cost follows the record, not the grid.
    """
    psd = spectrum.psd
    index = spectrum.index
    n = spectrum.grid_bins
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
    # A band truncated short of the sidebands only ever shows the rising
    # Lorentzian tail, whose folded maximum sits at the fold edge; the
    # tails the floor is read net of need a line inside the band.
    if k >= folded.size - 1 - max(3, _SMOOTH_WIDTH):
        raise SpectrumCoverageError(
            "spectrum does not bracket the mechanical sidebands "
            f"(folded maximum at the band edge, offset {omega_m0:.6g} rad/s)"
        )
    # The floor: the quarter of stored bins farthest from both lines, which
    # each line's tail still lifts by its asymptote c / (f -+ omega_m)^2.  It
    # is the intercept of a linear least-squares fit of the floor and both
    # asymptotes to that band: no width estimate, and as a mean, not a
    # median, the level the skewed Gamma bin noise scales with.  The
    # asymptotes are centered on the folded peak's vertex (a parabola through
    # its top three bins); centered half a bin off, their odd term would pull
    # the intercept below the floor.
    a, b, c = folded[max(k - 1, 0)], folded[k], folded[min(k + 1, folded.size - 1)]
    center = omega_m0 + (0.5 * (a - c) / (a - 2.0 * b + c) * res if a + c < 2.0 * b else 0.0)
    freqs = spectrum.frequencies
    distance = np.abs(np.abs(freqs) - omega_m0)
    cut = np.partition(distance, 3 * psd.size // 4)[3 * psd.size // 4]
    far = distance >= cut
    tails = cut / (freqs[far, None] + [center, -center])
    design = np.column_stack([np.ones(tails.shape[0]), tails * tails])
    floor0 = float(np.linalg.lstsq(design, psd[far], rcond=None)[0][0])
    peak_pos = pos_view[k] - floor0
    peak_neg = neg_view[k] - floor0

    # Locating the pair requires the folded peak to clear the expected
    # extreme of pure floor noise over this many bins.
    noise = floor0 / math.sqrt(
        min(spectrum.n_avg, _MAX_WEIGHT_AVERAGES) * _SMOOTH_WIDTH
    )
    extreme = math.sqrt(2.0 * math.log(max(folded.size, 3))) + 2.0
    if peak_pos + peak_neg < extreme * math.sqrt(2.0) * noise:
        raise InsufficientVisibilityError(
            "no sideband rises above the averaged noise floor"
        )
    gamma0 = _half_max_width(folded, index[pos], k, 2.0 * floor0, res)
    if gamma0 < (_SMOOTH_WIDTH + 2.0) * res:
        raise SpectrumCoverageError(
            "sideband under-resolved: need >= 10 bins per linewidth, "
            f"estimated width {gamma0:.6g} rad/s at resolution {res:.6g} rad/s"
        )
    return np.array(
        [omega_m0, gamma0, max(peak_neg, 1e-12 * floor0), max(peak_pos, 1e-12 * floor0), floor0]
    )


def _fit_indices(
    spectrum: HeterodyneSpectrum, omega_m: float, window: float
) -> np.ndarray:
    """Stored bins the fit reads: both sideband windows, whose outer bins
    sit at floor level, in whole grid bins about the line's bin and its
    mirror about the beat note (by the rule :func:`_initial_guess` folds
    with), so the same grid bins are read whatever else a record stores.

    Returns positions into ``spectrum.psd``.
    """
    line = round((omega_m - spectrum.f_lo) / spectrum.resolution)
    mirror = round(-2.0 * spectrum.f_lo / spectrum.resolution) - line
    half = round(window / spectrum.resolution)
    index = spectrum.index.astype(np.int64, copy=False)
    # the windows overlap once line - mirror <= 2 * half; the mask merges them
    idx = np.flatnonzero((np.abs(index - line) <= half) | (np.abs(index - mirror) <= half))
    if idx.size < 20:
        raise SpectrumCoverageError("sideband windows contain too few bins")
    return idx


def _deviance(p, freqs, data, n_w):
    """Signed Gamma deviance residuals r of the model ``p`` at the fitted
    bins, and ``jacobian()``, which returns their analytic Jacobian,
    shape (m, 5).

    The sum of squares of r is the Gamma(n_w) deviance, minimized at the
    maximum-likelihood fit.  The model mu is summed as
    :func:`~sidebandlimit.spectra.evaluate_psd` sums it, from the
    unit-peak Lorentzians L at the Stokes center -omega_m and the
    anti-Stokes center +omega_m; the sum is written out here, not called,
    because ``jacobian()`` reuses L and both peak terms.  It reuses this
    pass's arrays, so a trial the solver rejects never pays for it: with h =
    gamma/2 and x = omega - center, dL/dgamma = 2 L (1 - L) / gamma and
    dL/dcenter = 2 x L^2 / h^2, and with d = data/mu - 1, dr/dmu = -n_w
    (d/r) / mu.  It builds a (5, m) array and returns it transposed.
    """
    omega_m, gamma, amp_stokes, amp_antistokes, floor = p
    l_s = lorentzian(freqs, -omega_m, gamma)
    l_as = lorentzian(freqs, omega_m, gamma)
    peak_s = amp_stokes * l_s
    peak_as = amp_antistokes * l_as
    mu = floor + peak_s + peak_as
    d = data / mu - 1.0
    r = np.copysign(np.sqrt(2.0 * n_w * (d - np.log1p(d))), d)

    def jacobian():
        # the quotient's 0/0 at d = 0 is overwritten by its series
        with np.errstate(divide="ignore", invalid="ignore"):
            d_over_r = d / r
        series = np.abs(d) < _SERIES_BELOW
        if series.any():
            d_over_r[series] = (1.0 + d[series] / 3.0) / math.sqrt(n_w)
        dr_dmu = (-n_w / mu) * d_over_r
        x_s = freqs + omega_m
        x_as = freqs - omega_m
        center = amp_antistokes * x_as * l_as * l_as - amp_stokes * x_s * l_s * l_s
        width = peak_s * (1.0 - l_s) + peak_as * (1.0 - l_as)
        jac = np.empty((5, d.size))
        np.multiply((2.0 / (0.5 * gamma) ** 2) * center, dr_dmu, out=jac[0])
        np.multiply((2.0 / gamma) * width, dr_dmu, out=jac[1])
        np.multiply(l_s, dr_dmu, out=jac[2])
        np.multiply(l_as, dr_dmu, out=jac[3])
        jac[4] = dr_dmu
        return jac.T

    return r, jacobian


def _solve_bounded(fun, x0, lower, upper):
    """Minimize ||r||^2 over the box lower <= x <= upper, where
    ``fun(x)`` returns the residuals r and a callable that returns their
    Jacobian J, called only at x0 and at each kept step.

    Projected Levenberg-Marquardt (More, LNM 630 (1978); Kanzow, Yamashita
    & Fukushima, J. Comput. Appl. Math. 172, 375 (2004)) in the units of
    the Jacobian's current column norms.  Each step solves
    (J^T J + lam I) dx = -J^T r over the free parameters -- those not
    held on a bound by a gradient pushing outward -- and is clipped to
    the box; it is kept if the sum of squares falls, and lam then falls
    by 3, else lam rises by 4 and the step is retried.  Nearly every solve
    ends on the stall rule, a kept step that lowers the sum of squares by
    at most _STALL_TOL of it; one also stops when the clipped trial equals
    x, or lam exceeds 1e16, or at once if r or J is not finite at x0.

    Returns (x, r, J, converged) at the best point reached, with the r and
    J that ``fun`` gave there; converged is False only when _MAX_EVALS
    calls of ``fun`` ran out first.
    """
    max_evals = _MAX_EVALS  # read per call, so a patched budget applies
    x = x0
    # a start beyond float range is returned before its overflow can warn
    with np.errstate(over="ignore", invalid="ignore"):
        r, jacobian = fun(x)
        J = jacobian()
    if not (np.isfinite(r).all() and np.isfinite(J).all()):
        return x, r, J, True
    cost = r @ r
    evals = 1
    lam = 1e-3
    while True:
        g = J.T @ r
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        norms = np.linalg.norm(J[:, free], axis=0)
        norms[norms == 0] = 1.0
        g_free = g[free] / norms
        J_free = J[:, free] / norms
        normal = J_free.T @ J_free
        diagonal = normal.diagonal().copy()
        while True:
            if evals >= max_evals:
                return x, r, J, False
            np.fill_diagonal(normal, diagonal + lam)
            step = np.linalg.solve(normal, -g_free)
            trial = x.copy()
            trial[free] += step / norms
            trial = np.clip(trial, lower, upper)
            if np.array_equal(trial, x):
                return x, r, J, True
            del jacobian  # free the last point's arrays before evaluating the next
            r_trial, jacobian = fun(trial)
            evals += 1
            cost_trial = r_trial @ r_trial
            if cost_trial < cost:
                break
            lam *= 4.0
            if lam > 1e16:
                return x, r, J, True
        lam /= 3.0
        x, r, previous, cost = trial, r_trial, cost, cost_trial
        J = jacobian()
        if previous - cost <= _STALL_TOL * previous:
            return x, r, J, True


def fit_sidebands(spectrum: HeterodyneSpectrum) -> SidebandFit:
    """Simultaneous maximum-likelihood fit of both mechanical sidebands.

    Shared center offset and linewidth, independent amplitudes, free
    floor, always started from the data-driven :func:`_initial_guess`.
    It reads the bins within ``WINDOW_LINEWIDTHS`` times the guess's width
    of each line, in whole grid bins (:func:`_fit_indices`); that width reads
    16/14 to 17/14 of the true linewidth on noiseless default records, so the
    windows reach 22.9 or 24.3 linewidths.
    One bounded solve minimizes the Gamma(n_avg) deviance of the fitted
    bins, so the result is the maximum-likelihood fit under the bin-noise
    law.  The solver takes the analytic Jacobian of those residuals, and
    the covariance comes from it at the optimum.  Raises
    :class:`AnalysisError` if a fitted bin is not positive (the Gamma law
    has no zero) or if the residuals or their Jacobian are not finite at
    the solve's start, before any step and any numpy warning, or at its
    result (a record beyond float range), and :class:`FitConvergenceError`
    (carrying the best-so-far state) if the solve uses up its budget of
    ``_MAX_EVALS`` evaluations before it stops.
    """
    x0 = _initial_guess(spectrum)
    omega_m0, gamma0 = x0[0], x0[1]
    window = WINDOW_LINEWIDTHS * gamma0
    idx = _fit_indices(spectrum, omega_m0, window)
    freqs = spectrum.frequencies[idx]
    data = spectrum.psd[idx]
    if not np.all(data > 0):
        raise AnalysisError(
            "a fitted spectrum bin is not positive, and the Gamma bin-noise "
            "law needs positive power"
        )
    n_w = min(spectrum.n_avg, _MAX_WEIGHT_AVERAGES)

    lower = np.array([omega_m0 - 2 * window, 1e-3 * gamma0, 0.0, 0.0, 1e-12])
    upper = np.array([omega_m0 + 2 * window, 1e3 * gamma0, np.inf, np.inf, np.inf])
    x, r, jac, converged = _solve_bounded(
        lambda p: _deviance(p, freqs, data, n_w), np.clip(x0, lower, upper), lower, upper
    )
    if not (np.isfinite(r).all() and np.isfinite(jac).all()):
        raise AnalysisError("the sideband fit's residuals or Jacobian are not finite")
    dof = max(idx.size - 5, 1)
    covariance = _covariance(jac)
    fit = SidebandFit(
        omega_m_fit=float(x[0]),
        gamma_eff_fit=float(x[1]),
        amp_stokes=float(x[2]),
        amp_antistokes=float(x[3]),
        floor_fit=float(x[4]),
        covariance=covariance,
        residual_norm=float(r @ r / dof),
        n_bins_used=int(idx.size),
    )
    if not converged:
        raise FitConvergenceError(
            f"sideband fit used its budget of {_MAX_EVALS} evaluations before it stopped",
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
    flags: tuple[str, ...] = ()


# Bounds on (s, n0, n_ba) in the cooling-curve fit.
_CURVE_LOWER = np.array([1e-9, 1e-12, 1e-12])
_CURVE_UPPER = np.array([1.0 - 1e-9, np.inf, np.inf])


def fit_cooling_curve(
    gamma_opt: Sequence[float],
    ratio: Sequence[float],
    sigma_ratio: Sequence[float],
    gamma_0: float,
    omega_m: float,
) -> CoolingCurveResult:
    """One weighted fit of R = s (1 + 1/n_bar) with (s, n0, n_ba) free.

    n_bar follows the two-bath rate equation at each drive's optical
    damping; ``gamma_0`` is fixed, as measured independently (e.g. by
    ringdown).  Weights are the measured sigma_R.  Points without a
    positive, finite ratio and uncertainty are left out.  s, n0, n_ba and
    their uncertainties all come from this one fit.  A degenerate drive
    span, an unconstrained floor, a parameter held on its bound or a
    classical-window mean at odds with s are reported through flags
    rather than a failure.
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

    damping = gamma_0 + gamma_opt

    def residual(x):
        """Weighted residuals and their Jacobian's builder in (s, n0, n_ba)."""
        s, n0, n_ba = x
        n_bar = (n0 * gamma_0 + n_ba * gamma_opt) / damping

        def jacobian():
            slope = -s / (damping * n_bar * n_bar * sigma)  # (dr/dn_bar) / damping
            return np.column_stack(
                [(1.0 + 1.0 / n_bar) / sigma, slope * gamma_0, slope * gamma_opt]
            )

        return (s * (1.0 + 1.0 / n_bar) - ratio) / sigma, jacobian

    # Start just below the smallest ratio, with n0 from the weakest drive
    # and the floor where the mode meets the optical bath (R = 1).
    s0 = min(0.999 * ratio.min(), 1.0 - 1e-9)
    weakest = np.argmin(gamma_opt)
    n0_start = (gamma_0 + gamma_opt[weakest]) / (
        gamma_0 * max(ratio[weakest] / s0 - 1.0, 1e-9)
    )
    x0 = np.array([s0, max(n0_start, 1.0), s0 / (1.0 - s0)])
    x, _, jac, converged = _solve_bounded(residual, x0, _CURVE_LOWER, _CURVE_UPPER)
    if not converged:
        raise AnalysisError("cooling-curve fit did not converge")
    s_hat, n0_fit, n_ba_fit = (float(v) for v in x)
    cov = _covariance(jac)
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
    # A parameter held on a bound has no sigma that means anything: the
    # Jacobian there can report nearly none.  Compare with the bound itself.
    on_bound = (x == _CURVE_LOWER) | (x == _CURVE_UPPER)
    if on_bound[0]:
        flags.append("s_unidentifiable")
    if on_bound[1]:
        flags.append("n0_unidentifiable")
    if on_bound[2] or 2.0 * sigma_n_ba >= n_ba_fit:
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
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class OccupationPoint:
    """One cooling-curve point: occupation inferred at a drive setting."""

    n_bar: float  # phonons (NaN when flagged)
    sigma_n: float  # phonons
    flags: tuple[str, ...] = ()


def occupation_series(
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
    for r, sigma_r in zip(ratio, sigma_ratio):
        n = occupation_from_ratio(r, s) if r > 0 else math.nan
        if math.isnan(n):
            points.append(
                OccupationPoint(math.nan, math.nan, flags=("unphysical_ratio",))
            )
            continue
        sigma_n = math.hypot(n * n / s * sigma_r, n * (n + 1.0) / s * sigma_s)
        points.append(OccupationPoint(n, sigma_n))
    return points
