"""Config-driven command-line front end.

Subcommands::

    model   derived quantities for each configured detuning
    cool    synthesize + analyze one cooling curve
    sweep   cooling curves across all configured detunings
    fit     analyze externally provided spectrum CSV files
    synth   synthesis only (writes spectrum CSV files)

Every output is deterministic for a given configuration and seed,
independent of ``--jobs``.  The seed is resolved in priority order:
``--seed``, the ``SIDEBAND_LIMIT_SEED`` environment variable, then the
configuration file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

# One BLAS thread per process, set before numpy is first imported: the
# workers of a pool already share the cores.  A value the user sets wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from sidebandlimit import __version__
from sidebandlimit.analysis import AnalysisError
from sidebandlimit.config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    detuning_problem,
    load_config,
    save_config,
)
from sidebandlimit.io import (
    SWEEP_COLUMNS,
    SchemaError,
    config_hash,
    write_points_csv,
    write_report_json,
)
from sidebandlimit.physics import (
    TWO_PI,
    backaction_limit,
    optimal_detuning,
    regime_boundaries,
    sideband_ratio,
    thermal_occupation,
)
from sidebandlimit.pipeline import (
    CurveRun,
    analyze_spectrum_files,
    detuning_sweep_summary,
    plan_curve,
    record_point,
    run_cooling_curve,
    run_points,
)

SEED_ENV_VAR = "SIDEBAND_LIMIT_SEED"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sideband-limit",
        description="Sideband-cooling simulator and ratio-thermometry pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes, at most one per curve of sweep, spectrum of synth "
            "or file of fit; cool runs its one curve here",
        )

    # argparse reads "-1.62e6" after a space as an option, so the value is joined by "="
    detuning_help = "override detuning, negative, in Hz: --detuning=HZ"

    p_model = sub.add_parser("model", help="print derived quantities")
    p_model.add_argument("--config", type=Path, help="JSON configuration file")
    p_model.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_cool = sub.add_parser("cool", help="run one cooling curve")
    common(p_cool)
    p_cool.add_argument("--detuning", type=float, help=detuning_help)
    p_cool.add_argument(
        "--no-noise", action="store_true", help="noiseless analytic synthesis"
    )
    p_cool.add_argument(
        "--save-spectra",
        action="store_true",
        help="persist the recorded spectra (the two sideband spans)",
    )

    p_sweep = sub.add_parser("sweep", help="cooling curves across all detunings")
    common(p_sweep)
    p_sweep.add_argument("--no-noise", action="store_true")
    p_sweep.add_argument("--save-spectra", action="store_true")

    p_fit = sub.add_parser("fit", help="analyze existing spectrum CSV files")
    common(p_fit)
    p_fit.add_argument("inputs", nargs="+", type=Path, help="spectrum CSV files")

    p_synth = sub.add_parser("synth", help="synthesize spectra without analysis")
    common(p_synth)
    p_synth.add_argument("--detuning", type=float, help=detuning_help)
    p_synth.add_argument("--no-noise", action="store_true")

    p_init = sub.add_parser("init-config", help="write the default configuration")
    p_init.add_argument("path", type=Path)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else default_config()
    if getattr(args, "out", None) is not None:
        config = replace(config, output_dir=str(args.out))
    return config


def _resolve_seed(args, default: int | None) -> int | None:
    """``--seed``, else ``SIDEBAND_LIMIT_SEED``, else ``default``, which is not checked."""
    if args.seed is not None:
        source, seed = "--seed", args.seed
    elif (env := os.environ.get(SEED_ENV_VAR)) is not None:
        try:
            source, seed = SEED_ENV_VAR, int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR}: not an integer ({env!r})") from exc
    else:
        return default
    if seed < 0:
        raise ConfigError(f"{source}: must be a non-negative integer, got {seed}")
    return seed


def _resolve_detuning_hz(args, config: ExperimentConfig) -> float:
    if getattr(args, "detuning", None) is not None:
        if problem := detuning_problem(args.detuning, config):
            raise ConfigError(f"--detuning: {problem}")
        return args.detuning
    return config.detunings_hz[0]


def _detuning_label(detuning_hz: float) -> str:
    return f"{detuning_hz:.10g}Hz"


def _output_dir(path: Path) -> Path:
    """Create the output directory ``path``; one that cannot be made is a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot create ({exc.strerror})") from exc
    return path


def _write_curve_outputs(
    run: CurveRun, config: ExperimentConfig, seed: int, out_dir: Path, prefix: str = ""
) -> bool:
    """Write one curve's files and name each failed point on stderr; True if none failed."""
    _output_dir(out_dir)
    rows = [
        {
            "gamma_opt_hz": o.gamma_opt_hz,
            "n_bar": p.n_bar,
            "sigma_n": p.sigma_n,
            "flags": list(p.flags),
        }
        for o, p in zip(run.outcomes, run.occupation)
    ]
    write_points_csv(out_dir / "points.csv", rows)
    curve = run.curve
    report = {
        "schema": "sidebandlimit-cool v1",
        "seed": seed,
        "config_hash": config_hash(config.hash_dict()),
        "parameters": {
            "detuning_hz": run.detuning_hz,
            "system": asdict(config.system),
            "bath_temperature_k": config.bath_temperature_k,
        },
        "estimates": {
            "s_hat": curve.s_hat,
            "s_classical": curve.s_classical,
            "n0": curve.n0_fit,
            "n_ba": curve.n_ba_fit,
            "t0_k": curve.t0_fit,
            "n_ba_predicted": run.n_ba_predicted,
        },
        "uncertainties": {
            "sigma_s": curve.sigma_s,
            "sigma_s_classical": curve.sigma_classical,
            "sigma_n0": curve.sigma_n0,
            "sigma_n_ba": curve.sigma_n_ba,
            "sigma_t0_k": curve.sigma_t0,
        },
        "systematics": {
            "delta_n_laser": run.bias_laser,
            "delta_n_substrate": run.bias_substrate,
        },
        "flags": sorted(set(run.flags)),
        "points": rows,
    }
    write_report_json(out_dir / "summary.json", report)
    failed = [o for o in run.outcomes if o.fit is None]
    for outcome in failed:
        print(f"{prefix}{outcome.name} failed: {outcome.error}", file=sys.stderr)
    return not failed


def _finish_curve(run: CurveRun, config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    """Write and print one curve; returns the exit code."""
    clean = _write_curve_outputs(run, config, seed, out_dir)
    curve = run.curve
    print(f"s_hat = {curve.s_hat:.6f} +- {curve.sigma_s:.2g}")
    print(f"n0 = {curve.n0_fit:.4g} +- {curve.sigma_n0:.2g}")
    print(f"t0 = {curve.t0_fit * 1e3:.1f} +- {curve.sigma_t0 * 1e3:.1f} mK")
    closed_form = "" if run.n_ba_predicted is None else f" (closed form {run.n_ba_predicted:.4f})"
    print(f"n_ba = {curve.n_ba_fit:.4f} +- {curve.sigma_n_ba:.4f}{closed_form}")
    print(f"flags: {', '.join(sorted(set(run.flags))) or 'none'}")
    print(f"outputs in {out_dir}")
    return EXIT_OK if clean else EXIT_FAILURE


def _cmd_model(args) -> int:
    config = _resolve_config(args)
    params = config.system_params()
    n0 = thermal_occupation(config.bath_temperature_k, params.omega_m)
    delta_opt, n_ba_min = optimal_detuning(params)
    rows = []
    for detuning_hz in config.detunings_hz:
        detuning = TWO_PI * detuning_hz
        s = sideband_ratio(detuning, params)
        n_ba = backaction_limit(detuning, params)
        bounds = regime_boundaries(n0, n_ba, params.gamma_0)
        rows.append(
            {
                "detuning_hz": detuning_hz,
                "s": s,
                "n_ba": n_ba,
                "gamma_opt_onset_hz": bounds.onset / TWO_PI,
                "gamma_opt_ground_state_hz": bounds.ground_state / TWO_PI,
                "gamma_opt_backaction_hz": bounds.backaction / TWO_PI,
            }
        )
    payload = {
        "config_hash": config_hash(config.hash_dict()),
        "n0": n0,
        "bath_temperature_k": config.bath_temperature_k,
        "delta_opt_hz": delta_opt / TWO_PI,
        "n_ba_min": n_ba_min,
        "detunings": rows,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return EXIT_OK
    print(f"bath occupation n0 = {n0:.1f} at {config.bath_temperature_k * 1e3:.0f} mK")
    print(f"optimal detuning = {delta_opt / TWO_PI / 1e6:.4f} MHz, n_ba_min = {n_ba_min:.4f}")
    print("detuning_MHz      s     n_ba   onset_Hz  ground_Hz  backaction_Hz")
    for row in rows:
        print(
            f"{row['detuning_hz'] / 1e6:12.4f} {row['s']:.4f} {row['n_ba']:8.4f} "
            f"{row['gamma_opt_onset_hz']:9.3g} {row['gamma_opt_ground_state_hz']:10.4g} "
            f"{row['gamma_opt_backaction_hz']:13.4g}"
        )
    return EXIT_OK


def _cmd_cool(args) -> int:
    config = _resolve_config(args)
    seed = _resolve_seed(args, config.seed)
    detuning_hz = _resolve_detuning_hz(args, config)
    out_dir = Path(config.output_dir) / f"cool_{_detuning_label(detuning_hz)}"
    spectra_dirs = [str(_output_dir(out_dir / "spectra"))] if args.save_spectra else None
    (run,) = run_cooling_curve(
        config, [(0, detuning_hz)], seed, args.no_noise, spectra_dirs, args.jobs
    )
    if isinstance(run, AnalysisError):
        raise run
    return _finish_curve(run, config, seed, out_dir)


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    seed = _resolve_seed(args, config.seed)
    out_root = _output_dir(Path(config.output_dir) / "sweep")

    curves = list(enumerate(config.detunings_hz))
    out_dirs = [out_root / f"d{i:02d}_{_detuning_label(d)}" for i, d in curves]
    spectra_dirs = None
    if args.save_spectra:
        spectra_dirs = [str(_output_dir(d / "spectra")) for d in out_dirs]
    runs = run_cooling_curve(config, curves, seed, args.no_noise, spectra_dirs, args.jobs)

    errors = {}
    clean = True
    for (_, detuning_hz), out_dir, run in zip(curves, out_dirs, runs):
        label = _detuning_label(detuning_hz)
        if isinstance(run, AnalysisError):
            errors[detuning_hz] = f"{type(run).__name__}: {run}"
            print(f"detuning {label}: failed: {run}", file=sys.stderr)
            continue
        clean &= _write_curve_outputs(run, config, seed, out_dir, f"detuning {label}: ")

    fitted = [run for run in runs if isinstance(run, CurveRun)]
    summary = detuning_sweep_summary(fitted, config.system.omega_m_hz)
    rows = summary["rows"]
    write_points_csv(out_root / "sweep_summary.csv", rows, SWEEP_COLUMNS)
    write_report_json(
        out_root / "sweep.json",
        {
            "schema": "sidebandlimit-sweep v1",
            "seed": seed,
            "config_hash": config_hash(config.hash_dict()),
            **summary,
            "errors": {_detuning_label(d): message for d, message in errors.items()},
        },
    )
    if rows:
        print("detuning_MHz  min_n_bar   sigma    closed_form")
    for row in rows:
        print(
            f"{row['detuning_hz'] / 1e6:12.4f} {row['min_n_bar']:9.4f} "
            f"{row['sigma']:8.4f} {row['n_ba_predicted']:11.4f}"
        )
    minimum = summary["global_min_detuning_hz"]
    lead = "" if minimum is None else f"global minimum at {minimum / 1e6:.4f} MHz; "
    print(f"{lead}outputs in {out_root}")
    return EXIT_OK if clean and not errors else EXIT_FAILURE


def _cmd_fit(args) -> int:
    config = _resolve_config(args)
    # the seed that drew the spectra, when they name it, else cool's rule
    explicit = _resolve_seed(args, None)
    run = analyze_spectrum_files(args.inputs, config, args.jobs, explicit)
    seed = next(s for s in (explicit, run.seed, config.seed) if s is not None)
    detuning_hz = run.detuning_hz
    label = "external" if detuning_hz is None else _detuning_label(detuning_hz)
    out_dir = Path(config.output_dir) / f"cool_{label}"
    return _finish_curve(run, config, seed, out_dir)


def _cmd_synth(args) -> int:
    config = _resolve_config(args)
    seed = _resolve_seed(args, config.seed)
    detuning_hz = _resolve_detuning_hz(args, config)
    out_dir = Path(config.output_dir) / f"synth_{_detuning_label(detuning_hz)}"
    plans = plan_curve(config, detuning_hz, seed, 0, args.no_noise, str(out_dir))
    _output_dir(out_dir)
    for _ in run_points(record_point, plans, args.jobs):
        pass
    print(f"wrote {len(plans)} spectra to {out_dir}")
    return EXIT_OK


def _cmd_init_config(args) -> int:
    save_config(default_config(), args.path)
    print(f"wrote default configuration to {args.path}")
    return EXIT_OK


_COMMANDS = {
    "model": _cmd_model,
    "cool": _cmd_cool,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
    "synth": _cmd_synth,
    "init-config": _cmd_init_config,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"argument --jobs: must be a positive integer, got {args.jobs}")
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AnalysisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
