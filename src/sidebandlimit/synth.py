"""Synthetic measurement data with realistic finite-averaging noise.

Two independent routes produce spectra:

* :func:`synthesize_spectrum` draws each bin of an analytic model from the
  exact n_avg-averaged-periodogram law (a Gamma distribution), preserving
  the skew of low-average data.  Bins of an averaged periodogram are
  independent, so it evaluates and stores only the grid bins a plan asks
  for -- the pipeline asks for the two sideband spans the fit reads,
  which keeps memory and model cost flat as the lines narrow.
* :func:`simulate_oscillator` plus :func:`estimate_psd` build a spectrum
  the long way, from a time-domain stochastic oscillator record, and serve
  as an oracle for the spectral analysis chain.  The time-domain route
  covers lineshape, width and area only; sideband asymmetry is a quantum
  effect injected at the frequency-domain model level.

Determinism: a fixed seed yields bit-identical output regardless of how
work is scheduled.  Sweeps derive one seed per spectrum from (master
seed, sweep index, point index) via `numpy.random.SeedSequence` spawn
keys.  A record's variates depend on its seed and its stored bins: numpy's
Gamma sampler draws them in one call, and its stream is fixed for a given
numpy build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sidebandlimit.physics import TWO_PI
from sidebandlimit.spectra import HeterodyneSpectrum, SpectrumModel, evaluate_psd

# Coverage demanded of a synthesis grid around each sideband.
_MIN_SPAN_LINEWIDTHS = 3.0


@dataclass(frozen=True)
class OscillatorRecord:
    """Demodulated complex quadrature record of the mechanical mode."""

    dt: float  # sample spacing (s)
    values: np.ndarray  # complex amplitude, |values|^2 in phonon units

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.values.ndim != 1:
            raise ValueError("record must be 1-d")


def synthesize_spectrum(
    model: SpectrumModel,
    grid: tuple[float, float, int, np.ndarray | None],
    n_avg: float,
    seed: int | np.random.SeedSequence,
) -> HeterodyneSpectrum:
    """Draw a noisy spectrum from the model at the requested grid bins.

    ``grid`` is ``(f_lo, resolution, grid_bins, index)``, as
    :func:`acquisition_grid` returns it: the grid is ``f_lo + i *
    resolution`` for ``0 <= i < grid_bins``, as in
    :class:`HeterodyneSpectrum`, and ``index`` names the grid bins to
    synthesize, ascending, or is ``None`` for every bin.  Each bin is an
    independent Gamma(n_avg) variate with mean equal to the model PSD there
    -- the exact distribution of an average of n_avg exponential periodogram
    bins.  ``n_avg = inf`` returns the model evaluated at the bins.
    ``seed`` is an integer or a `numpy.random.SeedSequence` (the pipeline
    passes per-point children of the master seed).
    """
    f_lo, resolution, grid_bins, index = grid
    if not n_avg >= 1:
        raise ValueError(f"n_avg must be >= 1, got {n_avg}")
    edge = model.omega_m + _MIN_SPAN_LINEWIDTHS * model.gamma_eff
    f_hi = f_lo + (grid_bins - 1) * resolution
    if not (f_lo <= -edge and f_hi >= edge):
        raise ValueError(
            "synthesis grid must span both sidebands: need at least "
            f"[{-edge:.6g}, {edge:.6g}] rad/s, got [{f_lo:.6g}, {f_hi:.6g}]"
        )
    index = np.arange(grid_bins) if index is None else np.asarray(index)
    psd = evaluate_psd(model, f_lo + resolution * index)
    if not math.isinf(n_avg):
        psd = np.random.default_rng(seed).standard_gamma(n_avg, index.size) * (psd / n_avg)
    return HeterodyneSpectrum(
        f_lo=f_lo,
        resolution=resolution,
        psd=psd,
        n_avg=n_avg,
        index=index,
        grid_bins=grid_bins,
    )


def simulate_oscillator(
    gamma_eff: float,
    omega_m: float,
    n_target: float,
    duration: float,
    sample_rate: float,
    seed: int | np.random.SeedSequence = 0,
) -> OscillatorRecord:
    """Integrate a complex Ornstein-Uhlenbeck oscillator record.

    The amplitude decays at gamma_eff / 2, rotates at +omega_m relative to
    the beat note, and is driven so the stationary mean of |amplitude|^2
    is ``n_target``.  The record lasts ``duration`` seconds at
    ``sample_rate`` samples per second.  Uses the exact one-step update,
    so the statistics are correct for any stable step; steps coarser than
    0.1 / omega_m are rejected because they no longer resolve the rotation.
    """
    if not 0 < gamma_eff < 0.1 * omega_m:
        raise ValueError(
            "need gamma_eff well below omega_m (high-Q demodulated record)"
        )
    if n_target < 0:
        raise ValueError(f"n_target must be >= 0, got {n_target}")
    if sample_rate <= 4.0 * omega_m / TWO_PI:
        raise ValueError("sample_rate must exceed four times the sideband frequency")
    dt = 1.0 / sample_rate
    if dt > 0.1 / omega_m:
        raise ValueError(
            f"integration step too coarse: dt={dt:.3g} s exceeds 0.1/omega_m"
        )
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("record would be shorter than two samples")
    if n_target == 0.0:
        return OscillatorRecord(dt=dt, values=np.zeros(n, dtype=complex))

    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    phi = np.exp((1j * omega_m - 0.5 * gamma_eff) * dt)
    # stationary AR(1): var(step noise) = n_target * (1 - |phi|^2)
    step_var = n_target * (1.0 - math.exp(-gamma_eff * dt))
    alpha0 = math.sqrt(n_target / 2.0) * complex(
        rng.standard_normal(), rng.standard_normal()
    )
    noise = math.sqrt(step_var / 2.0) * (
        rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    )
    values = np.empty(n, dtype=complex)
    values[0] = alpha0
    values[1:], _ = lfilter([1.0], [1.0, -phi], noise, zi=[phi * alpha0])
    return OscillatorRecord(dt=dt, values=values)


def estimate_psd(
    record: OscillatorRecord, segment_length: int, overlap: float = 0.5
) -> HeterodyneSpectrum:
    """Averaged windowed periodogram (Welch, Hann taper) of a record.

    Returns a two-sided PSD in units of 1/Hz on a rad/s axis, so that
    ``sum(psd) * resolution / (2 pi)`` equals the record variance up to
    the windowing correction.  The reported ``n_avg`` is the effective
    number of independent averages after accounting for segment overlap.
    """
    n = record.values.size
    if not 0 <= overlap < 1:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    if not 2 <= segment_length <= n:
        raise ValueError(
            f"degenerate segmentation: segment_length={segment_length} "
            f"for a record of {n} samples"
        )
    from scipy.signal import welch

    noverlap = int(round(overlap * segment_length))
    if noverlap >= segment_length:
        noverlap = segment_length - 1
    fs = 1.0 / record.dt
    freqs_hz, psd = welch(
        record.values,
        fs=fs,
        window="hann",
        nperseg=segment_length,
        noverlap=noverlap,
        detrend=False,
        return_onesided=False,
        scaling="density",
    )
    order = np.argsort(freqs_hz)
    freqs_hz = freqs_hz[order]
    psd = np.maximum(psd[order].real, 0.0)

    step = segment_length - noverlap
    n_segments = 1 + (n - segment_length) // step
    n_avg_eff = _effective_averages(segment_length, step, n_segments)
    return HeterodyneSpectrum(
        f_lo=TWO_PI * float(freqs_hz[0]),
        resolution=TWO_PI * fs / segment_length,
        psd=psd,
        n_avg=max(1.0, n_avg_eff),
    )


def _effective_averages(nperseg: int, step: int, n_segments: int) -> float:
    """Welch's effective average count for overlapping Hann segments."""
    if n_segments <= 1:
        return float(max(n_segments, 1))
    from scipy.signal.windows import hann

    w = hann(nperseg, sym=False)
    denom = float(np.sum(w * w))
    correction = 0.0
    m = 1
    while m * step < nperseg:
        c = float(np.sum(w[m * step :] * w[: nperseg - m * step])) / denom
        correction += 2.0 * (1.0 - m / n_segments) * c * c
        m += 1
    return n_segments / (1.0 + correction)
