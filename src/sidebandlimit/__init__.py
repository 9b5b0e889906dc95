"""Sideband-cooling simulator and Raman-ratio thermometry toolkit.

Models Stokes/anti-Stokes scattering of a red-detuned drive in an
optomechanical cavity, synthesizes heterodyne sideband spectra with
realistic averaging noise, and runs the ratio-thermometry pipeline that
recovers phonon occupation, bath temperature and the backaction limit.
"""

from sidebandlimit.physics import (
    CoolingPoint,
    RedDetuningError,
    RegimeBoundaries,
    SystemParams,
    backaction_limit,
    cooling_point,
    occupation_from_ratio,
    optimal_detuning,
    regime_boundaries,
    sideband_ratio,
    steady_state_occupation,
    temperature_from_occupation,
    thermal_occupation,
)
from sidebandlimit.spectra import (
    HeterodyneSpectrum,
    SpectrumModel,
    apparent_sideband_bias,
    build_model,
    evaluate_psd,
    laser_noise_bias,
    lorentzian,
)
from sidebandlimit.synth import (
    OscillatorRecord,
    SynthConfig,
    estimate_psd,
    simulate_oscillator,
    synthesize_spectrum,
)
from sidebandlimit.analysis import (
    CoolingCurveResult,
    FitConvergenceError,
    InsufficientVisibilityError,
    OccupationPoint,
    SidebandFit,
    SpectrumCoverageError,
    detuning_sweep_summary,
    fit_cooling_curve,
    fit_sidebands,
)

__version__ = "0.1.0"
