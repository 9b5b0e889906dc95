"""Experiment configuration: a single JSON document, all frequencies in Hz.

Values are quoted the way device parameters usually are (ordinary
frequency); each is converted to the package's internal angular units
exactly once, where it is used (``system_params`` for the device
constants, curve planning for the detunings and the drive grid).
Configurations round-trip losslessly through ``to_dict``/``from_dict``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from sidebandlimit.physics import TWO_PI, SystemParams, sideband_ratio


class ConfigError(ValueError):
    """Configuration validation failure, naming the offending field."""


@dataclass(frozen=True)
class SystemConfig:
    kappa_hz: float = 2.6e6
    omega_m_hz: float = 1.48e6
    gamma_0_hz: float = 0.18
    efficiency: float = 0.04


@dataclass(frozen=True)
class SynthesisConfig:
    # Base of the per-point averaging (pipeline.N_AVG_OCCUPATION_CAP), set
    # for a final-point occupation uncertainty of about 0.02 phonons.
    n_avg_base: float = 18000.0


@dataclass(frozen=True)
class SystematicsConfig:
    # background_fraction is calibrated so the misnormalization diagnostic
    # reproduces a 0.006-phonon shift at the reference operating point;
    # amp/phase noise are the independently measured device levels.
    background_fraction: float = 0.002775
    amp_noise: float = 0.002
    phase_noise: float = 0.02


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    detunings_hz: tuple[float, ...] = (-1.62e6, -0.5e6, -1.0e6, -1.97e6, -2.5e6)
    gamma_opt_grid_hz: tuple[float, ...] = field(
        default_factory=lambda: tuple(float(g) for g in np.geomspace(1.0, 30000.0, 20))
    )
    bath_temperature_k: float = 0.36
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    systematics: SystematicsConfig = field(default_factory=SystematicsConfig)
    output_dir: str = "out"
    seed: int = 1

    def system_params(self) -> SystemParams:
        s = self.system
        return SystemParams.from_hz(s.kappa_hz, s.omega_m_hz, s.gamma_0_hz, s.efficiency)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["detunings_hz"] = list(self.detunings_hz)
        out["gamma_opt_grid_hz"] = list(self.gamma_opt_grid_hz)
        return out

    def hash_dict(self) -> dict:
        """The experiment definition: everything except runtime plumbing.

        The seed is reported separately in every output and the output
        directory has no bearing on the data, so neither participates in
        the configuration hash.
        """
        out = self.to_dict()
        out.pop("output_dir")
        out.pop("seed")
        return out


def _require(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{name}: {message}")


def _pick(data, name: str, cls):
    _require(isinstance(data, dict), name, "expected a JSON object")
    extra = set(data) - {f for f in cls.__dataclass_fields__}
    _require(not extra, name, f"unknown fields {sorted(extra)}")
    return cls(**data)


def from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a configuration from a plain dictionary."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    extra = set(data) - known
    _require(not extra, "config", f"unknown fields {sorted(extra)}")

    merged = dict(data)
    for name, cls in (
        ("system", SystemConfig),
        ("synthesis", SynthesisConfig),
        ("systematics", SystematicsConfig),
    ):
        if name in merged:
            merged[name] = _pick(merged[name], f"config.{name}", cls)
    for name in ("detunings_hz", "gamma_opt_grid_hz"):
        if name in merged:
            try:
                merged[name] = tuple(float(v) for v in merged[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config.{name}: expected numbers ({exc})") from exc
    config = ExperimentConfig(**merged)
    validate(config)
    return config


def _leaves(data, name: str):
    """``(field name, value)`` for every set leaf of nested settings.

    Only dicts and tuples (the sequence fields) are walked, so a JSON list
    where one number belongs is a leaf, and is rejected as one.
    """
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaves(value, f"{name}.{key}")
    elif isinstance(data, tuple):
        for i, value in enumerate(data):
            yield from _leaves(value, f"{name}[{i}]")
    elif data is not None:
        yield name, data


def detuning_problem(detuning_hz: float, config: ExperimentConfig) -> str | None:
    """Why no curve of ``config``'s system can be planned at ``detuning_hz``, else None.

    A detuning must be finite and red, and its sideband ratio s in (0, 1),
    as n_ba = s / (1 - s) needs: s rounds to 1 where the detuning is tiny,
    or huge against kappa_hz and omega_m_hz.
    """
    if not -math.inf < detuning_hz < 0:
        return f"must be finite and negative (red), got {detuning_hz}"
    with np.errstate(over="ignore", invalid="ignore"):
        s = sideband_ratio(TWO_PI * detuning_hz, config.system_params())
    if not 0 < s < 1:
        return f"gives sideband ratio s = {s}, outside (0, 1), at {detuning_hz}"
    return None


def drive_problem(gamma_opt_hz: float, config: ExperimentConfig) -> str | None:
    """Why ``gamma_opt_hz`` is no drive of ``config``'s system, else None.

    A drive must be finite and positive, and leave the mode high-Q: its
    linewidth gamma_0_hz + gamma_opt_hz stays below omega_m_hz.
    """
    if not 0 < gamma_opt_hz < math.inf:
        return f"must be finite and positive, got {gamma_opt_hz}"
    if not config.system.gamma_0_hz + gamma_opt_hz < config.system.omega_m_hz:
        return f"must keep gamma_0_hz + gamma_opt_hz below omega_m_hz (high-Q), got {gamma_opt_hz}"
    return None


def validate(config: ExperimentConfig) -> None:
    settings = asdict(config)
    del settings["output_dir"]  # the one setting that is not a number
    for name, value in _leaves(settings, "config"):
        _require(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value),
            name,
            f"must be a finite number, got {value!r}",
        )
    s = config.system
    _require(s.kappa_hz > 0, "config.system.kappa_hz", "must be positive")
    _require(s.omega_m_hz > 0, "config.system.omega_m_hz", "must be positive")
    _require(s.gamma_0_hz > 0, "config.system.gamma_0_hz", "must be positive")
    _require(
        s.gamma_0_hz < s.omega_m_hz,
        "config.system.gamma_0_hz",
        f"must be below omega_m_hz (a high-Q mode), got {s.gamma_0_hz}",
    )
    _require(
        0 < s.efficiency <= 1, "config.system.efficiency", "must be in (0, 1]"
    )
    _require(
        len(config.detunings_hz) > 0, "config.detunings_hz", "must not be empty"
    )
    for i, d in enumerate(config.detunings_hz):
        problem = detuning_problem(d, config)
        _require(problem is None, f"config.detunings_hz[{i}]", problem)
        # a sweep reports its curves by detuning, so a repeat would overwrite one
        _require(
            d not in config.detunings_hz[:i],
            f"config.detunings_hz[{i}]",
            f"repeats {d}, listed earlier",
        )
    _require(
        len(config.gamma_opt_grid_hz) > 0,
        "config.gamma_opt_grid_hz",
        "must not be empty",
    )
    for i, g in enumerate(config.gamma_opt_grid_hz):
        problem = drive_problem(g, config)
        _require(problem is None, f"config.gamma_opt_grid_hz[{i}]", problem)
        # `fit` orders spectra by drive, so `cool` must too for its outputs to match
        _require(
            i == 0 or g > config.gamma_opt_grid_hz[i - 1],
            f"config.gamma_opt_grid_hz[{i}]",
            f"must be strictly increasing, got {g} after {config.gamma_opt_grid_hz[i - 1]}",
        )
    _require(
        config.bath_temperature_k > 0, "config.bath_temperature_k", "must be positive"
    )
    syn = config.synthesis
    _require(syn.n_avg_base >= 1, "config.synthesis.n_avg_base", "must be >= 1")
    sys_ = config.systematics
    _require(
        sys_.background_fraction >= 0,
        "config.systematics.background_fraction",
        "must be >= 0",
    )
    _require(
        sys_.amp_noise >= 0 and sys_.phase_noise >= 0,
        "config.systematics.amp_noise/phase_noise",
        "must be >= 0",
    )
    _require(isinstance(config.seed, int), "config.seed", "must be an integer")
    _require(config.seed >= 0, "config.seed", f"must be >= 0, got {config.seed}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    path = Path(path)
    try:
        path.write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror})") from exc


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
