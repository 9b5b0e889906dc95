"""Ratio thermometry on heterodyne sideband spectra.

The chain mirrors how the measurement is actually reduced:

1. :func:`fit_sidebands` -- weighted nonlinear least squares of the
   two-Lorentzian model with a shared center offset and linewidth,
   independent amplitudes and a free floor.  Weights follow the Gamma
   bin-noise law (variance = model^2 / n_avg), iteratively reweighted.
2. :func:`estimate_s` -- the susceptibility-only amplitude ratio ``s``,
   from the zero-damping extrapolation of the per-point ratios.
3. :func:`occupation_series` -- per-point occupations via the ratio
   inversion, with first-order uncertainty propagation.
4. :func:`fit_cooling_curve` -- the two-bath rate-equation fit giving the
   bath occupation, its temperature, and the saturation floor.
5. :func:`detuning_sweep_summary` -- the saturation floor versus detuning
   compared against the closed-form backaction limit.

Unphysical points (measured ratio at or below ``s``) are carried through
flagged and excluded from fits, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares

from sidebandlimit.physics import (
    CLASSICAL_OCCUPATION,
    occupation_from_ratio,
    steady_state_occupation,
    temperature_from_occupation,
)
from sidebandlimit.spectra import (
    WINDOW_LINEWIDTHS,
    HeterodyneSpectrum,
    floor_sample,
    two_lorentzian,
)

# Cap applied to n_avg when building fit weights so the noiseless
# (n_avg = inf) mode keeps finite weights.
_MAX_WEIGHT_AVERAGES = 1e12

# Reweighting passes of the iterated Gamma-variance fit.
_IRLS_ROUNDS = 3

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


_PARAM_NAMES = ("omega_m", "gamma_eff", "amp_stokes", "amp_antistokes", "floor")


@dataclass(frozen=True)
class SidebandFit:
    """Result of the simultaneous two-sideband fit.

    ``covariance`` is the 5x5 parameter covariance in the order
    (omega_m, gamma_eff, amp_stokes, amp_antistokes, floor).
    ``residual_norm`` is the reduced chi-square of the weighted fit.
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
        """Stokes / anti-Stokes amplitude ratio R."""
        return self.amp_stokes / self.amp_antistokes

    def ratio_variance(self) -> float:
        """First-order variance of the amplitude ratio."""
        a_s, a_as = self.amp_stokes, self.amp_antistokes
        r = a_s / a_as
        c = self.covariance
        return r * r * (
            c[2, 2] / (a_s * a_s)
            + c[3, 3] / (a_as * a_as)
            - 2.0 * c[2, 3] / (a_s * a_as)
        )


def _psd_projection(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and clip the tiny negative eigenvalues pinv can leave."""
    sym = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    return (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T


def _smooth(values: np.ndarray, width: int) -> np.ndarray:
    from scipy.ndimage import uniform_filter1d

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
    """Simultaneous weighted fit of both mechanical sidebands.

    Shared center offset and linewidth, independent amplitudes, free
    floor, always started from the data-driven :func:`_initial_guess`.
    Bin weights follow the Gamma noise law sigma = model / sqrt(n_avg)
    and are re-derived from the running model (:data:`_IRLS_ROUNDS`
    passes).  Raises :class:`FitConvergenceError` (carrying the
    best-so-far state) if the bounded optimizer stops without reaching
    the gradient tolerance.
    """
    guess = _initial_guess(spectrum)

    window = WINDOW_LINEWIDTHS * guess.gamma_eff
    idx = _fit_indices(spectrum, guess.omega_m, window)
    freqs = spectrum.frequencies_at(idx)
    data = spectrum.psd[idx]
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
    x_scale = np.array(
        [
            guess.gamma_eff,
            guess.gamma_eff,
            max(guess.amp_stokes, 1e-6 * guess.floor),
            max(guess.amp_antistokes, 1e-6 * guess.floor),
            guess.floor,
        ]
    )

    x = x0
    result = None
    for _ in range(_IRLS_ROUNDS):
        sigma = two_lorentzian(freqs, *x) / math.sqrt(n_w)

        def residual(p, sigma=sigma):
            return (two_lorentzian(freqs, *p) - data) / sigma

        result = least_squares(
            residual,
            x,
            bounds=(lower, upper),
            x_scale=x_scale,
            ftol=1e-14,
            xtol=1e-14,
            gtol=_GRADIENT_TOL,
            max_nfev=_MAX_EVALS,
        )
        x = result.x

    dof = max(idx.size - 5, 1)
    jtj = result.jac.T @ result.jac
    covariance = _psd_projection(np.linalg.pinv(jtj))
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


@dataclass(frozen=True)
class SRatioEstimate:
    """Susceptibility ratio extrapolated to zero optical damping.

    ``s_hat`` comes from the global fit of R(gamma_opt) with the
    rate-equation occupation substituted (the primary estimator);
    ``s_classical`` is the weighted mean of R over points in the
    classical window (occupation > CLASSICAL_OCCUPATION), reported as a
    cross-check when such points exist.
    """

    s_hat: float
    sigma_s: float
    n0_hat: float
    sigma_n0: float
    s_classical: float | None
    sigma_classical: float | None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.s_hat < 1:
            raise ValueError(f"s_hat must be in (0, 1), got {self.s_hat}")


def _ratio_series(
    series: Sequence[tuple[float, SidebandFit]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gamma_opt = np.array([g for g, _ in series], dtype=float)
    ratios = np.array([f.amplitude_ratio() for _, f in series])
    sigma = np.sqrt([max(f.ratio_variance(), 1e-300) for _, f in series])
    ok = np.isfinite(ratios) & np.isfinite(sigma) & (ratios > 0)
    return gamma_opt[ok], ratios[ok], sigma[ok]


def estimate_s(
    series: Sequence[tuple[float, SidebandFit]], gamma_0: float
) -> SRatioEstimate:
    """Extrapolate the amplitude ratio to gamma_opt = 0.

    Two estimators are computed: (a) the weighted mean of R over points
    whose provisional occupation exceeds the classical threshold, and
    (b) a weighted fit of R(gamma_opt) = s (1 + 1/n_bar(gamma_opt)) with
    the rate equation substituted for n_bar and (s, n0) free.  (b) is the
    primary result; a greater than 3 sigma disagreement is flagged.
    """
    gamma_opt, ratios, sigma = _ratio_series(series)
    if gamma_opt.size < 3:
        raise AnalysisError(
            f"need at least 3 valid sideband fits to estimate s, got {gamma_opt.size}"
        )
    flags: list[str] = []

    def ratio_model(x):
        s, n0 = x
        n_ba = s / (1.0 - s)
        n_bar = (n0 * gamma_0 + n_ba * gamma_opt) / (gamma_0 + gamma_opt)
        return s * (1.0 + 1.0 / n_bar)

    s0 = min(0.999 * ratios.min(), 1.0 - 1e-9)
    n0_guess = (gamma_0 + gamma_opt.min()) / (
        gamma_0 * max(ratios[np.argmin(gamma_opt)] / s0 - 1.0, 1e-9)
    )
    x0 = np.array([s0, max(n0_guess, 1.0)])
    result = least_squares(
        lambda x: (ratio_model(x) - ratios) / sigma,
        x0,
        bounds=(np.array([1e-9, 1e-12]), np.array([1.0 - 1e-9, np.inf])),
        x_scale=x0,
        ftol=1e-14,
        xtol=1e-14,
        gtol=1e-10,
        max_nfev=_MAX_EVALS,
    )
    if result.status == 0:
        raise AnalysisError("ratio extrapolation did not converge")
    cov = np.linalg.pinv(result.jac.T @ result.jac)
    s_hat = float(result.x[0])
    sigma_s = float(math.sqrt(max(cov[0, 0], 0.0)))

    # Classical window for the cross-check: provisional occupations from
    # the primary fit's s (a ratio at or below s means an effectively
    # classical, fluctuation-dominated point).
    with np.errstate(divide="ignore"):
        n_prov = np.where(
            ratios > s_hat, 1.0 / np.maximum(ratios / s_hat - 1.0, 1e-300), np.inf
        )
    classical = n_prov > CLASSICAL_OCCUPATION
    if classical.any():
        count = int(classical.sum())
        s_classical = float(np.mean(ratios[classical]))
        sigma_classical = float(
            math.sqrt(np.sum(sigma[classical] ** 2)) / count
        )
    else:
        s_classical = None
        sigma_classical = None
        flags.append("no_classical_points")

    if s_classical is not None:
        # The classical mean sits above s by up to the bosonic correction
        # the window tolerates (1/n at the threshold); alarm only beyond
        # that allowance plus 3 sigma.
        gap = abs(s_hat - s_classical)
        allowance = s_hat / CLASSICAL_OCCUPATION
        combined = math.hypot(sigma_s, sigma_classical)
        if gap > allowance + 3.0 * combined:
            flags.append("s_estimators_disagree")

    return SRatioEstimate(
        s_hat=s_hat,
        sigma_s=sigma_s,
        n0_hat=float(result.x[1]),
        sigma_n0=float(math.sqrt(max(cov[1, 1], 0.0))),
        s_classical=s_classical,
        sigma_classical=sigma_classical,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class OccupationPoint:
    """One cooling-curve point: occupation inferred at a drive setting.

    ``sigma_r`` keeps the underlying ratio uncertainty so downstream fits
    can re-derive weights from a model occupation instead of the measured
    one (measured-sigma weights bias rate-equation fits low, because a
    downward fluctuation also shrinks its own error bar).
    """

    gamma_opt: float  # rad/s
    n_bar: float  # phonons (NaN when flagged unphysical)
    sigma_n: float  # phonons
    sigma_r: float = math.nan  # uncertainty of the amplitude ratio
    flags: tuple[str, ...] = ()

    @property
    def usable(self) -> bool:
        return (
            not self.flags
            and math.isfinite(self.n_bar)
            and math.isfinite(self.sigma_n)
            and self.sigma_n > 0
        )


def occupation_series(
    series: Sequence[tuple[float, SidebandFit]], s_est: SRatioEstimate
) -> list[OccupationPoint]:
    """Per-point occupations from the fitted ratios and the extrapolated s.

    Uncertainties are first order in the amplitude covariance and the
    uncertainty of ``s_hat``.  Points with R <= s are flagged
    ``unphysical_ratio`` and carried through with NaN occupation.
    """
    s, var_s = s_est.s_hat, s_est.sigma_s**2
    points: list[OccupationPoint] = []
    for gamma_opt, fit in series:
        r = fit.amplitude_ratio()
        var_r = fit.ratio_variance()
        out = occupation_from_ratio(r, s)
        if out.unphysical:
            points.append(
                OccupationPoint(
                    gamma_opt=gamma_opt,
                    n_bar=math.nan,
                    sigma_n=math.nan,
                    flags=("unphysical_ratio",),
                )
            )
            continue
        n = out.n_bar
        dn_dr = n * n / s
        dn_ds = n * (n + 1.0) / s
        sigma_n = math.sqrt(dn_dr**2 * var_r + dn_ds**2 * var_s)
        points.append(
            OccupationPoint(
                gamma_opt=gamma_opt,
                n_bar=n,
                sigma_n=sigma_n,
                sigma_r=math.sqrt(var_r),
            )
        )
    return points


@dataclass(frozen=True)
class CoolingCurveResult:
    """Rate-equation fit of a cooling curve and its derived quantities."""

    points: tuple[OccupationPoint, ...]
    s_hat: float
    sigma_s: float
    n0_fit: float
    sigma_n0: float
    n_ba_fit: float
    sigma_n_ba: float
    t0_fit: float  # kelvin
    sigma_t0: float
    gamma_0: float  # rad/s, fixed input
    omega_m: float  # rad/s
    n_ba_predicted: float | None = None
    flags: tuple[str, ...] = ()

    def occupation_at(self, gamma_opt: float) -> float:
        """Fitted curve evaluated at a drive setting."""
        return steady_state_occupation(
            self.n0_fit, self.gamma_0, self.n_ba_fit, gamma_opt
        )


def fit_cooling_curve(
    points: Sequence[OccupationPoint],
    gamma_0: float,
    omega_m: float,
    *,
    s_hat: float = math.nan,
    sigma_s: float = math.nan,
    n_ba_predicted: float | None = None,
) -> CoolingCurveResult:
    """Weighted fit of the two-bath rate equation with (n0, n_ba) free.

    ``gamma_0`` is fixed: it is measured independently, e.g. by ringdown.
    Flagged points are excluded from the fit but retained in the result.
    A degenerate drive span or an unconstrained floor is reported through
    flags rather than a failure.
    """
    usable = [p for p in points if p.usable]
    if len(usable) < 4:
        raise AnalysisError(
            f"need at least 4 usable points to fit a cooling curve, got {len(usable)}"
        )
    gamma_opt = np.array([p.gamma_opt for p in usable])
    n_bar = np.array([p.n_bar for p in usable])
    sigma_meas = np.array([p.sigma_n for p in usable])
    sigma_ratio = np.array([p.sigma_r for p in usable])
    flags: list[str] = []
    if gamma_opt.max() < 10.0 * gamma_opt.min():
        flags.append("narrow_drive_span")

    # Weights from the measured occupation first, then re-derived from the
    # fitted curve: sigma_n scales as n^2, so measured-sigma weights favor
    # downward fluctuations and pull the fit low.
    reweight = (
        math.isfinite(s_hat)
        and 0 < s_hat < 1
        and bool(np.all(np.isfinite(sigma_ratio)))
    )
    var_s = sigma_s**2 if math.isfinite(sigma_s) else 0.0

    n_ba0 = max(n_bar.min(), 1e-9)
    n0_guess = max(
        n_bar.max() * (gamma_0 + gamma_opt[np.argmax(n_bar)]) / gamma_0, 10.0 * n_ba0
    )
    x = np.array([n0_guess, n_ba0])
    sigma = sigma_meas
    result = None
    for _ in range(3 if reweight else 1):

        def residual(p, sigma=sigma):
            model = (p[0] * gamma_0 + p[1] * gamma_opt) / (gamma_0 + gamma_opt)
            return (model - n_bar) / sigma

        result = least_squares(
            residual,
            x,
            bounds=(np.zeros(2), np.full(2, np.inf)),
            x_scale=np.maximum(x, 1e-9),
            ftol=1e-14,
            xtol=1e-14,
            gtol=1e-10,
            max_nfev=_MAX_EVALS,
        )
        if result.status == 0:
            raise AnalysisError("cooling-curve fit did not converge")
        x = result.x
        if reweight:
            m = np.maximum(
                (x[0] * gamma_0 + x[1] * gamma_opt) / (gamma_0 + gamma_opt), 1e-12
            )
            sigma = np.sqrt(
                (m * m / s_hat) ** 2 * sigma_ratio**2
                + (m * (m + 1.0) / s_hat) ** 2 * var_s
            )
    cov = np.linalg.pinv(result.jac.T @ result.jac)
    n0_fit, n_ba_fit = float(result.x[0]), float(result.x[1])
    sigma_n0 = float(math.sqrt(max(cov[0, 0], 0.0)))
    sigma_n_ba = float(math.sqrt(max(cov[1, 1], 0.0)))

    if 2.0 * sigma_n_ba >= max(n_ba_fit, 1e-300):
        flags.append("n_ba_unidentifiable")
    if n0_fit <= n_ba_fit:
        flags.append("not_a_cooling_dataset")

    t0_fit = temperature_from_occupation(max(n0_fit, 1e-300), omega_m)
    sigma_t0 = t0_fit * sigma_n0 / n0_fit if n0_fit > 0 else math.inf
    return CoolingCurveResult(
        points=tuple(points),
        s_hat=s_hat,
        sigma_s=sigma_s,
        n0_fit=n0_fit,
        sigma_n0=sigma_n0,
        n_ba_fit=n_ba_fit,
        sigma_n_ba=sigma_n_ba,
        t0_fit=t0_fit,
        sigma_t0=sigma_t0,
        gamma_0=gamma_0,
        omega_m=omega_m,
        n_ba_predicted=n_ba_predicted,
        flags=tuple(flags),
    )


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
