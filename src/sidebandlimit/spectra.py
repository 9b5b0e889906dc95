"""Analytic heterodyne power-spectral-density model.

A cooled mechanical mode shows up in the heterodyne spectrum as two
Lorentzian sidebands riding on a flat photodetection floor.  Spectra are
expressed in shot-noise units (off-resonant floor of the ideal detector
equals 1) on a frequency axis relative to the heterodyne beat note: the
Stokes sideband sits at ``-omega_m`` and the anti-Stokes sideband at
``+omega_m``.

Only the sideband amplitude *ratio* carries the thermometry; the absolute
peak height convention is fixed by ``PEAK_HEIGHT_NORM`` below.

A measured or synthesized record (:class:`HeterodyneSpectrum`) lives on a
uniform grid and stores any sorted subset of its bins.  An acquisition
zoomed on the sidebands records a span around each line
(:func:`acquisition_grid`), so its size does not grow as the lines narrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from sidebandlimit.physics import CoolingPoint, SystemParams, occupation_from_ratio

# Line-center transduction constant: peak height = 4 * efficiency * flux /
# linewidth, the standard weak-coupling heterodyne result.  A pure
# convention here; every inferred quantity depends only on the ratio of
# the two peaks.
PEAK_HEIGHT_NORM = 4.0

# Single calibrated scale of the classical laser-noise model: converts the
# summed amplitude + phase noise fraction (relative to shot noise) into an
# equivalent occupation shift.  Calibrated once so that the independently
# measured noise levels of the reference device (0.2% amplitude, 2% phase)
# shift the inferred occupation by 0.006 phonons at its final operating
# point; not an ab-initio prediction.
LASER_NOISE_OCCUPATION_SCALE = 0.006 / 0.022

# Acquisition geometry: bins per linewidth, and the half-widths in linewidths
# of the fit window (the narrowest whose Fisher sigma_R is within 1% of a
# 60-linewidth window's, as a test checks) and of the recorded span.  The fit
# scales the window by the initial guess's width, which reads 16/14 to 17/14
# of the true linewidth on noiseless default records, and lays it out in
# whole grid bins, mirrored about the beat note: 320 or 340 bins (22.9 or
# 24.3 linewidths) either side of each line, overlapping the span's outer
# quarter (from 20 linewidths out), where the initial guess reads its floor.
BINS_PER_LINEWIDTH = 14
WINDOW_LINEWIDTHS = 20.0
SPAN_LINEWIDTHS = WINDOW_LINEWIDTHS / 0.75


def lorentzian(omega, center: float, fwhm: float):
    """Unit-peak Lorentzian (fwhm/2)^2 / ((omega - center)^2 + (fwhm/2)^2)."""
    half = 0.5 * fwhm
    return half**2 / ((np.asarray(omega, dtype=float) - center) ** 2 + half**2)


@dataclass(frozen=True)
class SpectrumModel:
    """Two mechanical sidebands over a flat floor, in shot-noise units.

    ``s_ratio`` and ``n_bar`` record the generating physics when the model
    was built by :func:`build_model`; they are metadata for the systematics
    diagnostics, not free parameters of the lineshape.
    """

    omega_m: float  # sideband offset from the beat note (rad/s)
    gamma_eff: float  # effective mechanical linewidth gamma_0 + gamma_opt (rad/s)
    peak_stokes: float  # Stokes peak height (shot-noise units)
    peak_antistokes: float  # anti-Stokes peak height (shot-noise units)
    floor: float  # off-resonant level: 1 plus any substrate-mode excess
    s_ratio: float | None = None
    n_bar: float | None = None

    def __post_init__(self) -> None:
        if not self.gamma_eff > 0:
            raise ValueError(f"gamma_eff must be positive, got {self.gamma_eff}")
        if self.peak_stokes < 0 or self.peak_antistokes < 0:
            raise ValueError("peak heights must be non-negative")
        if not self.floor >= 1:
            raise ValueError(f"floor must be >= 1, got {self.floor}")


@dataclass(frozen=True)
class HeterodyneSpectrum:
    """A heterodyne PSD record on a uniform frequency grid.

    The grid is ``f_lo + i * resolution`` for ``0 <= i < grid_bins``
    (rad/s, relative to the beat note) and is never materialized.
    ``index`` lists, in ascending order, the grid bins the record stores:
    ``psd[k]`` is the value of bin ``index[k]``.  A full record stores
    every bin, which is what omitting ``index`` means; an acquisition
    zoomed on the sidebands stores only the spans around them
    (:func:`acquisition_grid`).
    """

    f_lo: float  # grid bin 0 (rad/s)
    resolution: float  # bin spacing (rad/s)
    psd: np.ndarray  # PSD of the stored bins (shot-noise units, or 1/Hz for estimates)
    n_avg: float  # averaged periodograms behind each bin (>= 1)
    index: np.ndarray | None = None  # stored grid bins, ascending (default: all)
    grid_bins: int | None = None  # grid extent (default: one past the last stored bin)

    def __post_init__(self) -> None:
        if not self.resolution > 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if not self.n_avg >= 1:
            raise ValueError(f"n_avg must be >= 1, got {self.n_avg}")
        if self.psd.ndim != 1 or self.psd.size < 2:
            raise ValueError("psd must be a 1-d array with at least two bins")
        if np.any(self.psd < 0) or not np.all(np.isfinite(self.psd)):
            raise ValueError("psd values must be finite and non-negative")
        index = np.arange(self.psd.size) if self.index is None else np.asarray(self.index)
        if index.shape != self.psd.shape or index.dtype.kind not in "iu":
            raise ValueError("index must hold one integer grid bin per psd value")
        grid_bins = int(index[-1]) + 1 if self.grid_bins is None else int(self.grid_bins)
        if index[0] < 0 or index[-1] >= grid_bins or np.any(np.diff(index) <= 0):
            raise ValueError(
                f"index must be strictly increasing within the grid [0, {grid_bins})"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "grid_bins", grid_bins)

    @property
    def n_bins(self) -> int:
        """Stored bins."""
        return self.psd.size

    @property
    def frequencies(self) -> np.ndarray:
        """Frequencies of the stored bins (rad/s)."""
        return self.f_lo + self.resolution * self.index


def build_model(
    params: SystemParams,
    point: CoolingPoint,
    n_bar: float,
    background_fraction: float = 0.0,
) -> SpectrumModel:
    """Predict the heterodyne spectrum for a drive setting and occupation.

    Anti-Stokes flux is ``A- * n_bar`` and Stokes flux ``A+ * (n_bar + 1)``;
    peak heights follow by the line-center convention ``PEAK_HEIGHT_NORM *
    efficiency * flux / gamma_eff``.  Their ratio is then
    ``s * (n_bar + 1) / n_bar`` -- the thermometry-bearing quantity.
    """
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    gamma_eff = params.gamma_0 + point.gamma_opt
    scale = PEAK_HEIGHT_NORM * params.efficiency / gamma_eff
    return SpectrumModel(
        omega_m=params.omega_m,
        gamma_eff=gamma_eff,
        peak_stokes=scale * point.rate_stokes_per_quantum * (n_bar + 1.0),
        peak_antistokes=scale * point.rate_antistokes_per_quantum * n_bar,
        floor=1.0 + background_fraction,
        s_ratio=point.s_ratio,
        n_bar=n_bar,
    )


def evaluate_psd(model: SpectrumModel, frequencies) -> np.ndarray:
    """Model PSD on a frequency grid (rad/s, relative to the beat note).

    The one place the sideband lineshape is written: the flat floor plus a
    unit-peak Lorentzian of width ``gamma_eff`` at each sideband.
    """
    omega = np.asarray(frequencies, dtype=float)
    if omega.size == 0:
        raise ValueError("frequency grid is empty")
    if not np.all(np.isfinite(omega)):
        raise ValueError("frequency grid must be finite")
    return (
        model.floor
        + model.peak_stokes * lorentzian(omega, -model.omega_m, model.gamma_eff)
        + model.peak_antistokes * lorentzian(omega, +model.omega_m, model.gamma_eff)
    )


def acquisition_grid(model: SpectrumModel) -> tuple[float, float, int, np.ndarray]:
    """``(f_lo, resolution, grid_bins, index)`` of an acquisition zoomed on the sidebands.

    The grid's ``2h + 1`` bins run from ``-h`` to ``+h`` resolutions, so
    bin ``2h - i`` mirrors bin ``i``.  ``index`` lists, ascending, the bins
    of the two mirrored spans, at most ``2 * (2 * SPAN_LINEWIDTHS *
    BINS_PER_LINEWIDTH + 1)`` however narrow the lines are.
    """
    resolution = model.gamma_eff / BINS_PER_LINEWIDTH
    half = SPAN_LINEWIDTHS * model.gamma_eff
    h = math.ceil((model.omega_m + half) / resolution)
    f_lo, grid_bins = -h * resolution, 2 * h + 1
    # the grid bins in [omega_m - half, omega_m + half]
    start = max(0, math.ceil((model.omega_m - half - f_lo) / resolution))
    stop = min(grid_bins, math.floor((model.omega_m + half - f_lo) / resolution) + 1)
    anti_stokes = np.arange(start, max(start, stop))
    bins = np.sort(np.concatenate([2 * h - anti_stokes, anti_stokes]))
    # the spans overlap once they are wider than the sideband offset; drop
    # the bins they share (np.union1d would import numpy.ma, about 1 MiB)
    return f_lo, resolution, grid_bins, bins[np.concatenate([[True], np.diff(bins) > 0])]


def apparent_sideband_bias(model: SpectrumModel, background_fraction: float) -> float:
    """Occupation shift from normalizing to a substrate-elevated floor.

    Substrate modes sit away from the mechanical sidebands and raise the
    off-resonant level used for shot-noise normalization to
    ``1 + background_fraction`` while the floor directly under the
    sidebands stays at the true shot-noise level.  An analysis that
    divides by the elevated level and then reads amplitudes against an
    assumed floor of exactly 1 sees both sidebands shrunk by the common
    factor (which cancels in the ratio) plus a small flat deficit that
    leaks into both fitted amplitudes equally and biases the ratio at
    second order.  This function pushes a noiseless spectrum through that
    chain and returns the resulting occupation shift.
    """
    if background_fraction < 0:
        raise ValueError("background_fraction must be >= 0")
    if model.s_ratio is None or model.n_bar is None:
        raise ValueError(
            "model carries no generating-physics metadata (s_ratio, n_bar); "
            "build it with build_model to use the systematics diagnostics"
        )
    if background_fraction == 0.0:
        return 0.0

    # the model on a unit floor over both sideband windows, and the amplitude design
    omega_m, gamma = model.omega_m, model.gamma_eff
    half = WINDOW_LINEWIDTHS * gamma
    step = gamma / BINS_PER_LINEWIDTH
    offsets = np.arange(-half, half + 0.5 * step, step)
    omega = np.concatenate([offsets - omega_m, offsets + omega_m])
    design = np.column_stack(
        [lorentzian(omega, -omega_m, gamma), lorentzian(omega, +omega_m, gamma)]
    )
    normalized = evaluate_psd(replace(model, floor=1.0), omega) / (1.0 + background_fraction)
    amp_stokes, amp_antistokes = np.linalg.lstsq(
        design, normalized - 1.0, rcond=None
    )[0]
    if amp_stokes <= 0 or amp_antistokes <= 0:
        return math.nan
    return occupation_from_ratio(amp_stokes / amp_antistokes, model.s_ratio) - model.n_bar


def laser_noise_bias(amp_noise: float, phase_noise: float) -> float:
    """Occupation shift induced by classical noise on the cooling laser.

    First-order model: classical amplitude and phase noise contaminate the
    two sidebands coherently with the same cavity susceptibility weights as
    the Raman-scattered signal, i.e. in proportion (1, s).  In units of the
    anti-Stokes signal per phonon the contamination adds ``c =
    LASER_NOISE_OCCUPATION_SCALE * (amp_noise + phase_noise)`` quanta to
    both sidebands, so the inverted ratio ``s (n + 1 + c) / (n + c)`` reads
    ``n + c``: the shift is ``c`` itself, whatever the detuning (through
    ``s``) and the occupation.  The scale is calibrated, not derived; see
    the constant's note.
    """
    if amp_noise < 0 or phase_noise < 0:
        raise ValueError("noise fractions must be >= 0")
    return LASER_NOISE_OCCUPATION_SCALE * (amp_noise + phase_noise)
