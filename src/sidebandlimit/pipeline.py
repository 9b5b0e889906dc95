"""Cooling-experiment orchestration shared by the command-line front end.

A cooling curve is planned point by point from the configuration: the
drive grid fixes each point's optical damping, the rate equation predicts
its occupation, and synthesis settings follow: averaging scaled with
occupation, and the grid and recorded spans of ``acquisition_grid``.
Points own independent RNG streams derived from ``(master seed, detuning
index, point index)``, so any execution order -- including process pools
-- reproduces identical data.

Curves, the points of ``synth`` and the files ``fit`` reads fan out
through one generator, ``run_points``, which yields each task's result in
item order: at one job through the builtin ``map`` in this process,
otherwise from a pool of at most ``jobs`` workers and no more than the
tasks, whose queued tasks are cancelled however the generator stops.
``run_cooling_curve`` runs the curves of ``cool`` and ``sweep`` alike: each
curve is one task, ``run_curve``, which plans, synthesizes, fits and reduces
it where it runs, so the process that queues the curves only collects each
``CurveRun``.  A plan stores only its independent values; one that saves its
spectrum also names the file and its header.

``cool``, ``fit`` and every curve of ``sweep`` share one path: a
synthesized or a read spectrum becomes a ``PointOutcome`` in
``fit_outcome``, and a curve's outcomes become the ``CurveRun`` that
``run_cooling_curve`` and ``analyze_spectrum_files`` return in
``reduce_curve``.  Records carry the configured ``gamma_opt_hz``; only
``analyze_outcomes`` converts it to rad/s.  Given the detuning,
``reduce_curve`` also adds the closed-form floor ``n_ba_predicted`` and both
systematics; ``detuning_sweep_summary`` tabulates the reduced curves for ``sweep``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sidebandlimit.analysis import (
    AnalysisError,
    CoolingCurveResult,
    OccupationPoint,
    SidebandFit,
    fit_cooling_curve,
    fit_sidebands,
    occupation_series,
    ratio_series,
)
from sidebandlimit.config import ConfigError, ExperimentConfig, detuning_problem, drive_problem
from sidebandlimit.io import (
    SchemaError,
    config_hash,
    metadata_number,
    read_spectrum_csv,
    read_spectrum_header,
    write_spectrum_csv,
)
from sidebandlimit.physics import (
    TWO_PI,
    SystemParams,
    backaction_limit,
    cooling_point,
    regime_boundaries,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.spectra import (
    HeterodyneSpectrum,
    SpectrumModel,
    acquisition_grid,
    apparent_sideband_bias,
    build_model,
    laser_noise_bias,
)
from sidebandlimit.synth import synthesize_spectrum

# A point averages n_avg_base * min(n_bar + 1, cap + 1)^2 periodograms:
# longer acquisition where the asymmetry is fractionally tiny, up to a cap.
N_AVG_OCCUPATION_CAP = 50.0


def _point_model(
    config: ExperimentConfig, detuning_hz: float, gamma_opt_hz: float
) -> SpectrumModel:
    """Noiseless spectrum of one drive setting at its steady-state occupation."""
    params = config.system_params()
    gamma_opt = TWO_PI * gamma_opt_hz
    n0 = thermal_occupation(config.bath_temperature_k, params.omega_m)
    point = cooling_point(params, TWO_PI * detuning_hz, gamma_opt)
    n_bar = steady_state_occupation(n0, params.gamma_0, point.n_ba, gamma_opt)
    return build_model(
        params, point, n_bar, background_fraction=config.systematics.background_fraction
    )


@dataclass(frozen=True)
class PointPlan:
    """Everything needed to synthesize and fit one cooling-curve point.

    A plan keeps its independent values, and ``record_point`` lays out
    its ``acquisition_grid``, so a plan holds a few hundred bytes, not its
    bins.  A plan whose spectrum is saved names its file,
    ``path``, and the ``header`` written there; otherwise both are None.
    """

    index: int
    gamma_opt_hz: float
    model: SpectrumModel
    n_avg: float
    seed: np.random.SeedSequence
    path: Path | None = None
    header: dict | None = None


@dataclass(frozen=True)
class PointOutcome:
    """Fit result (or recorded failure) for one point, and the name errors give it."""

    name: str
    gamma_opt_hz: float
    fit: SidebandFit | None = None
    error: str | None = None


def plan_curve(
    config: ExperimentConfig,
    detuning_hz: float,
    master_seed: int,
    detuning_index: int = 0,
    noiseless: bool = False,
    spectra_dir: str | None = None,
) -> list[PointPlan]:
    """Lay out every drive setting's plan for one curve, saving into ``spectra_dir`` if given."""
    if spectra_dir is not None:
        curve_header = {
            "detuning_hz": detuning_hz,
            "seed": master_seed,
            "detuning_index": detuning_index,
            "config_hash": config_hash(config.hash_dict()),
        }
    plans = []
    for i, gamma_opt_hz in enumerate(config.gamma_opt_grid_hz):
        model = _point_model(config, detuning_hz, gamma_opt_hz)
        factor = min(model.n_bar + 1.0, N_AVG_OCCUPATION_CAP + 1.0) ** 2
        n_avg = math.inf if noiseless else float(math.ceil(config.synthesis.n_avg_base * factor))
        seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(detuning_index, i))
        path = header = None
        if spectra_dir is not None:
            path = Path(spectra_dir) / f"point_{i:02d}.csv"
            header = {**curve_header, "gamma_opt_hz": gamma_opt_hz, "point_index": i}
        plans.append(PointPlan(i, gamma_opt_hz, model, n_avg, seed, path, header))
    return plans


def record_point(plan: PointPlan) -> HeterodyneSpectrum:
    """Synthesize one point and, if its plan names a file, write it there."""
    spectrum = synthesize_spectrum(
        plan.model, acquisition_grid(plan.model), plan.n_avg, plan.seed
    )
    if plan.path is not None:
        plan.path.parent.mkdir(parents=True, exist_ok=True)
        write_spectrum_csv(plan.path, spectrum, plan.header)
    return spectrum


def run_point(plan: PointPlan) -> PointOutcome:
    """Synthesize one point, save it if its plan says so, and fit it."""
    spectrum = record_point(plan)
    name = f"point {plan.index} (gamma_opt = {plan.gamma_opt_hz:.6g} Hz)"
    return fit_outcome(spectrum, name, plan.gamma_opt_hz)


def fit_outcome(
    spectrum: HeterodyneSpectrum, name: str, gamma_opt_hz: float
) -> PointOutcome:
    """Fit one spectrum; a failed fit is recorded, not raised."""
    try:
        fit, error = fit_sidebands(spectrum), None
    except AnalysisError as exc:
        fit, error = None, f"{type(exc).__name__}: {exc}"
    return PointOutcome(name, gamma_opt_hz, fit, error)


def run_points(task: Callable, items: Sequence, jobs: int) -> Iterator:
    """Yield ``task(item)`` for every item, in item order, on up to ``jobs`` workers.

    At one worker each task runs here, through the builtin ``map``, as its
    result is read, and nothing loads ``multiprocessing``.  Otherwise the
    first result read queues every task on a pool of no more than
    ``min(jobs, len(items))`` workers.  The first task to raise, in item
    order, raises here.  However the generator stops -- a raising task, an
    interrupt, or the caller closing it -- the tasks still queued are
    cancelled, not waited for.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(task, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(task, items)
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class CurveRun:
    """One analyzed cooling curve plus its diagnostics."""

    detuning_hz: float | None
    seed: int | None  # master seed that drew the spectra, when known
    outcomes: tuple[PointOutcome, ...]
    occupation: tuple[OccupationPoint, ...]
    curve: CoolingCurveResult
    flags: tuple[str, ...]
    n_ba_predicted: float | None = None
    bias_laser: float | None = None
    bias_substrate: float | None = None


def analyze_outcomes(
    outcomes: list[PointOutcome], params: SystemParams
) -> tuple[list[OccupationPoint], CoolingCurveResult, tuple[str, ...]]:
    """Reduce per-point fits to a cooling curve; failures stay flagged."""
    fitted = [o for o in outcomes if o.fit is not None]
    gamma_opt = [TWO_PI * o.gamma_opt_hz for o in fitted]
    ratio, sigma_ratio = ratio_series([o.fit for o in fitted])
    curve = fit_cooling_curve(gamma_opt, ratio, sigma_ratio, params.gamma_0, params.omega_m)
    points = iter(occupation_series(ratio, sigma_ratio, curve.s_hat, curve.sigma_s))
    occupation = [
        next(points)
        if o.fit is not None
        else OccupationPoint(math.nan, math.nan, flags=("fit_failed",))
        for o in outcomes
    ]

    flags = list(curve.flags)
    top = TWO_PI * max(o.gamma_opt_hz for o in outcomes)
    bounds = regime_boundaries(curve.n0_fit, curve.n_ba_fit, params.gamma_0)
    if top < bounds.ground_state:
        flags.append("classical_regime_only")
    elif top >= bounds.backaction:
        flags.append("backaction_limited")
    else:
        flags.append("ground_state_regime")
    return occupation, curve, tuple(flags)


def systematics_biases(
    config: ExperimentConfig, detuning_hz: float, gamma_opt_top_hz: float
) -> tuple[float, float]:
    """Predicted occupation shifts of both systematics channels.

    Evaluated from the configuration alone, so analyses of synthesized
    and of re-read data report the same numbers: the laser channel from
    the noise levels only, the substrate channel at the strongest drive
    setting.
    """
    sysc = config.systematics
    model = _point_model(config, detuning_hz, gamma_opt_top_hz)
    return (
        laser_noise_bias(sysc.amp_noise, sysc.phase_noise),
        apparent_sideband_bias(model, sysc.background_fraction),
    )


def reduce_curve(
    outcomes: list[PointOutcome],
    config: ExperimentConfig,
    detuning_hz: float | None,
    seed: int | None,
) -> CurveRun:
    """Reduce one curve's outcomes; the closed form and the systematics need a detuning.

    An error that stops the reduction names each failed point.
    """
    params = config.system_params()
    try:
        occupation, curve, flags = analyze_outcomes(outcomes, params)
    except AnalysisError as exc:
        failed = "".join(f"\n  {o.name} failed: {o.error}" for o in outcomes if o.fit is None)
        raise AnalysisError(f"{exc}{failed}") from exc
    n_ba_predicted = bias_laser = bias_substrate = None
    if detuning_hz is not None:
        n_ba_predicted = backaction_limit(TWO_PI * detuning_hz, params)
        bias_laser, bias_substrate = systematics_biases(
            config, detuning_hz, max(o.gamma_opt_hz for o in outcomes)
        )
    return CurveRun(
        detuning_hz=detuning_hz,
        seed=seed,
        outcomes=tuple(outcomes),
        occupation=tuple(occupation),
        curve=curve,
        flags=flags,
        n_ba_predicted=n_ba_predicted,
        bias_laser=bias_laser,
        bias_substrate=bias_substrate,
    )


# Detunings closer to the cavity than this fraction of omega_m sit in the
# region where the backaction limit is blowing up toward the resonance.
_NEAR_DIVERGENCE_FRACTION = 0.1


def detuning_sweep_summary(runs: Sequence[CurveRun], omega_m_hz: float) -> dict:
    """Fitted floors against the closed form, in order of detuning.

    Returns the ``rows``, ``global_min_detuning_hz`` (None without a row)
    and ``flags`` of ``sweep.json``.
    """
    rows = []
    for run in sorted(runs, key=lambda run: run.detuning_hz):
        flags = list(run.curve.flags)
        if abs(run.detuning_hz) < _NEAR_DIVERGENCE_FRACTION * omega_m_hz:
            flags.append("near_divergence")
        rows.append(
            {
                "detuning_hz": run.detuning_hz,
                "min_n_bar": run.curve.n_ba_fit,
                "sigma": run.curve.sigma_n_ba,
                "n_ba_predicted": run.n_ba_predicted,
                "flags": flags,
            }
        )
    best = min(rows, key=lambda row: row["min_n_bar"], default=None)
    return {
        "rows": rows,
        "global_min_detuning_hz": None if best is None else best["detuning_hz"],
        "flags": ["degenerate_sweep"] if len(rows) < 3 else [],
    }


def run_curve(task: tuple) -> CurveRun | AnalysisError:
    """Plan, synthesize, fit and reduce one curve, where this task runs.

    ``task`` is ``(config, master_seed, noiseless, detuning index,
    detuning_hz, spectra_dir)``.  A reduction that raises ``AnalysisError``
    returns that error in place of the ``CurveRun``.
    """
    config, master_seed, noiseless, index, detuning_hz, spectra_dir = task
    plans = plan_curve(config, detuning_hz, master_seed, index, noiseless, spectra_dir)
    outcomes = [run_point(plan) for plan in plans]
    try:
        return reduce_curve(outcomes, config, detuning_hz, master_seed)
    except AnalysisError as exc:
        return exc


def run_cooling_curve(
    config: ExperimentConfig,
    curves: Sequence[tuple[int, float]],
    master_seed: int,
    noiseless: bool = False,
    spectra_dirs: Sequence[str] | None = None,
    jobs: int = 1,
) -> list[CurveRun | AnalysisError]:
    """Synthesize, fit and reduce one cooling curve per ``(detuning index, detuning_hz)``.

    Each curve is one ``run_curve`` task, and one ``run_points`` call runs
    them on up to ``jobs`` workers; a curve that raises cancels the curves
    still queued.  A curve whose reduction raises ``AnalysisError`` gets
    that error in place of its ``CurveRun``.  Given ``spectra_dirs``, one
    per curve, each point's spectrum is written there.
    """
    dirs = spectra_dirs if spectra_dirs is not None else [None] * len(curves)
    tasks = [
        (config, master_seed, noiseless, index, detuning_hz, spectra_dir)
        for (index, detuning_hz), spectra_dir in zip(curves, dirs)
    ]
    return list(run_points(run_curve, tasks, jobs))


# Optional header keys that name the curve a file belongs to: key, type, noun.
_IDENTITY_KEYS = (
    ("detuning_hz", float, "detuning"),
    ("seed", int, "seed"),
    ("config_hash", str, "configuration"),
)


def read_identity(path, config: ExperimentConfig) -> dict:
    """A spectrum file's identity keys, read and checked from its header alone.

    The header must name a ``gamma_opt_hz`` that ``drive_problem`` accepts,
    and a ``detuning_hz``, if any, that ``detuning_problem`` accepts, both
    on ``config``'s system.
    """
    metadata = read_spectrum_header(path)
    gamma_opt_hz = metadata_number(path, metadata, "gamma_opt_hz")
    identity = {
        key: metadata_number(path, metadata, key, kind)
        for key, kind, _ in _IDENTITY_KEYS
        if key in metadata
    }
    detuning_hz, seed = identity.get("detuning_hz"), identity.get("seed", 0)
    if problem := drive_problem(gamma_opt_hz, config):
        raise SchemaError(path, 1, f"gamma_opt_hz {problem}")
    if detuning_hz is not None and (problem := detuning_problem(detuning_hz, config)):
        raise SchemaError(path, 1, f"detuning_hz {problem}")
    if seed < 0:
        raise SchemaError(path, 1, f"seed must be a non-negative integer, got {seed}")
    return identity


def read_and_fit(path) -> PointOutcome:
    """Read one spectrum file, whose header ``read_identity`` checked, and fit it."""
    spectrum, metadata = read_spectrum_csv(path)
    gamma_opt_hz = metadata_number(path, metadata, "gamma_opt_hz")
    return fit_outcome(spectrum, f"input {path}", gamma_opt_hz)


def analyze_spectrum_files(
    files: list, config: ExperimentConfig, jobs: int = 1, seed: int | None = None
) -> CurveRun:
    """Run the reduction chain on externally provided spectrum files.

    Files must follow the spectra CSV schema and carry a ``gamma_opt_hz``
    that ``drive_problem`` accepts.  The identity keys are optional: a
    ``detuning_hz`` that ``detuning_problem`` accepts only feeds the
    closed-form comparison value, a non-negative ``seed`` becomes the run's
    seed, and a ``config_hash`` is only compared, but files naming two values
    of any of them are not one curve, and a ``seed`` the caller names must be
    theirs.  Every header is checked, in input order, before any file is
    fitted, so those errors cost no fit; a schema error names the first bad
    header, else the first bad file.  The files are read and fitted through
    ``run_points`` on up to ``jobs`` workers.
    """
    identities = [read_identity(path, config) for path in files]
    identity = {}
    for key, _, noun in _IDENTITY_KEYS:
        first_at: dict = {}
        for path, named in zip(files, identities):
            if key in named:
                first_at.setdefault(named[key], str(path))
        if len(first_at) > 1:
            (v_a, file_a), (v_b, file_b) = list(first_at.items())[:2]
            raise SchemaError(
                file_b,
                None,
                f"{key} {v_b!r} differs from {v_a!r} in {file_a}; "
                f"spectra of one curve must share one {noun}",
            )
        identity[key] = next(iter(first_at), None)
    if seed is not None and identity["seed"] not in (None, seed):
        raise ConfigError(f"seed {seed} differs from seed {identity['seed']} that drew the spectra")
    outcomes = sorted(run_points(read_and_fit, files, jobs), key=lambda o: o.gamma_opt_hz)
    return reduce_curve(outcomes, config, identity["detuning_hz"], identity["seed"])
