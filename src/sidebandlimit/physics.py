"""Closed-form relations for optomechanical sideband cooling.

Everything here is a pure function of its inputs.  All frequencies and
rates are angular (rad/s) unless the name carries an ``_hz`` suffix;
conversion from ordinary frequency happens at the configuration boundary
(see :mod:`sidebandlimit.config`).  The steady-state occupation formula is
convention independent because rates only enter through ratios.

Sign convention: ``delta < 0`` is a red-detuned drive.  The anti-Stokes
susceptibility weight involves ``delta + omega_m`` and the Stokes weight
``delta - omega_m``; the resolved-sideband cancellation at
``delta = -omega_m`` pins the convention and is covered by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# CODATA 2018, exact by SI definition.  Compiled in for reproducibility.
BOLTZMANN = 1.380649e-23  # J/K
HBAR = 1.054571817e-34  # J s

TWO_PI = 2.0 * math.pi

# Occupation above which the bosonic (n+1)/n correction is below 2%.
CLASSICAL_OCCUPATION = 50.0


class RedDetuningError(ValueError):
    """Raised when an operation requires a red-detuned drive (delta < 0)."""


@dataclass(frozen=True)
class SystemParams:
    """Fixed cavity and mechanical-mode constants.

    Parameters
    ----------
    kappa : float
        Cavity full linewidth (rad/s).
    omega_m : float
        Mechanical resonance frequency (rad/s).
    gamma_0 : float
        Intrinsic mechanical damping (rad/s).
    efficiency : float
        Total detection efficiency, in (0, 1].
    """

    kappa: float
    omega_m: float
    gamma_0: float
    efficiency: float

    def __post_init__(self) -> None:
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.omega_m > 0:
            raise ValueError(f"omega_m must be positive, got {self.omega_m}")
        if not self.gamma_0 > 0:
            raise ValueError(f"gamma_0 must be positive, got {self.gamma_0}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(
                f"efficiency must be in (0, 1], got {self.efficiency}"
            )
        if not self.gamma_0 < self.omega_m:
            raise ValueError(
                "gamma_0 must be well below omega_m (high-Q mode assumed); "
                f"got gamma_0={self.gamma_0}, omega_m={self.omega_m}"
            )

    @classmethod
    def from_hz(
        cls, kappa_hz: float, omega_m_hz: float, gamma_0_hz: float, efficiency: float
    ) -> "SystemParams":
        """Build from ordinary frequencies (Hz), applying the 2*pi once."""
        return cls(
            kappa=TWO_PI * kappa_hz,
            omega_m=TWO_PI * omega_m_hz,
            gamma_0=TWO_PI * gamma_0_hz,
            efficiency=efficiency,
        )


@dataclass(frozen=True)
class CoolingPoint:
    """One drive setting of the cooling laser and its derived rates.

    ``rate_antistokes_per_quantum`` (A-) and ``rate_stokes_per_quantum``
    (A+) are the per-phonon scattering rates; the physical rates at
    occupation ``n`` are ``A- * n`` (anti-Stokes) and ``A+ * (n + 1)``
    (Stokes).  A- = gamma_opt / (1 - s) and A+ = s * A-, so that
    A- - A+ = gamma_opt exactly and detailed balance holds at n_ba.
    """

    detuning: float  # rad/s, < 0
    gamma_opt: float  # rad/s
    s_ratio: float  # Stokes/anti-Stokes susceptibility weight ratio

    def __post_init__(self) -> None:
        if not self.detuning < 0:
            raise RedDetuningError(
                f"red detuning required, got delta={self.detuning}"
            )
        if self.gamma_opt < 0:
            raise ValueError(f"gamma_opt must be >= 0, got {self.gamma_opt}")
        if not 0 < self.s_ratio < 1:
            raise ValueError(f"s_ratio must be in (0, 1), got {self.s_ratio}")

    @property
    def n_ba(self) -> float:
        """Backaction-limited occupation s / (1 - s) (phonons)."""
        return self.s_ratio / (1.0 - self.s_ratio)

    @property
    def rate_antistokes_per_quantum(self) -> float:
        """A- (rad/s)."""
        return self.gamma_opt / (1.0 - self.s_ratio)

    @property
    def rate_stokes_per_quantum(self) -> float:
        """A+ (rad/s)."""
        return self.s_ratio * self.rate_antistokes_per_quantum


def _check_red_detuned(delta) -> None:
    if np.any(np.asarray(delta) >= 0):
        raise RedDetuningError(
            "red detuning required (delta < 0); the heating regime is not modeled"
        )


def sideband_ratio(delta, params: SystemParams):
    """Stokes/anti-Stokes amplitude ratio set by cavity susceptibility alone.

    s = [(kappa/2)^2 + (delta + omega_m)^2] / [(kappa/2)^2 + (delta - omega_m)^2]

    Accepts a scalar or array of detunings (rad/s, all < 0) and returns
    values in (0, 1).
    """
    _check_red_detuned(delta)
    delta = np.asarray(delta, dtype=float)
    half_k_sq = (params.kappa / 2.0) ** 2
    s = (half_k_sq + (delta + params.omega_m) ** 2) / (
        half_k_sq + (delta - params.omega_m) ** 2
    )
    return s if s.ndim else float(s)


def backaction_limit(delta, params: SystemParams):
    """Minimum occupation reachable by sideband cooling at detuning ``delta``.

    n_ba = -[(omega_m + delta)^2 + (kappa/2)^2] / (4 * omega_m * delta)

    Diverges as delta -> 0-, so non-negative detunings are rejected.
    Equals ``s / (1 - s)`` with ``s = sideband_ratio(delta)`` identically.
    """
    _check_red_detuned(delta)
    delta = np.asarray(delta, dtype=float)
    n_ba = -(
        ((params.omega_m + delta) ** 2 + (params.kappa / 2.0) ** 2)
        / (4.0 * params.omega_m * delta)
    )
    return n_ba if n_ba.ndim else float(n_ba)


def optimal_detuning(params: SystemParams) -> tuple[float, float]:
    """Detuning minimizing the backaction limit, and the minimum itself.

    Returns
    -------
    (delta_opt, n_ba_min) : tuple of float
        delta_opt = -omega_m * sqrt(1 + kappa^2 / (4 omega_m^2)), in rad/s,
        and the backaction limit evaluated there.
    """
    ratio = params.kappa / (2.0 * params.omega_m)
    delta_opt = -params.omega_m * math.sqrt(1.0 + ratio**2)
    return delta_opt, backaction_limit(delta_opt, params)


def steady_state_occupation(
    n0: float, gamma_0: float, n_ba: float, gamma_opt: float
) -> float:
    """Steady-state occupation of a mode damped by both baths.

    n_bar = (n0 * gamma_0 + n_ba * gamma_opt) / (gamma_0 + gamma_opt)

    Rates may be in any single consistent unit (they enter as ratios).
    The result always lies between min(n0, n_ba) and max(n0, n_ba).
    """
    if min(n0, n_ba, gamma_opt) < 0 or not gamma_0 > 0:
        raise ValueError("occupations and rates must be non-negative, gamma_0 > 0")
    return (n0 * gamma_0 + n_ba * gamma_opt) / (gamma_0 + gamma_opt)


def occupation_from_ratio(r: float, s: float) -> float:
    """Invert the sideband amplitude ratio into an occupation.

    1 / n_bar = r / s - 1, valid for r > s.  A ratio at or below the
    susceptibility floor ``s`` (a statistical fluctuation) gives NaN, and
    the caller decides how to treat the point.
    """
    if not 0 < s < 1:
        raise ValueError(f"s must be in (0, 1), got {s}")
    if not r > 0:
        raise ValueError(f"ratio must be positive, got {r}")
    return 1.0 / (r / s - 1.0) if r > s else math.nan


def thermal_occupation(t: float, omega_m: float) -> float:
    """High-temperature bath occupation n0 = k_B T / (hbar omega_m)."""
    if not t > 0:
        raise ValueError(f"temperature must be positive, got {t}")
    return BOLTZMANN * t / (HBAR * omega_m)


def temperature_from_occupation(n0: float, omega_m: float) -> float:
    """Exact inverse of :func:`thermal_occupation`."""
    if not n0 > 0:
        raise ValueError(f"occupation must be positive, got {n0}")
    return n0 * HBAR * omega_m / BOLTZMANN


class RegimeBoundaries(NamedTuple):
    """Optical-damping crossovers of the cooling curve.

    onset : cooling becomes significant (gamma_opt ~ gamma_0)
    ground_state : mode approaches the ground state (gamma_opt ~ n0 gamma_0)
    backaction : backaction and thermal motion contribute equally
                 (gamma_opt ~ (n0 / n_ba) gamma_0)
    """

    onset: float
    ground_state: float
    backaction: float


def regime_boundaries(
    n0: float, n_ba: float, gamma_0: float
) -> RegimeBoundaries:
    """The three gamma_opt crossovers separating the cooling regimes."""
    if min(n0, n_ba, gamma_0) <= 0:
        raise ValueError("n0, n_ba and gamma_0 must all be positive")
    return RegimeBoundaries(
        onset=gamma_0,
        ground_state=n0 * gamma_0,
        backaction=(n0 / n_ba) * gamma_0,
    )


def cooling_point(
    params: SystemParams, detuning: float, gamma_opt: float
) -> CoolingPoint:
    """The drive setting at ``detuning``, with its susceptibility ratio."""
    return CoolingPoint(detuning, gamma_opt, sideband_ratio(detuning, params))
