"""Measure the estimator's bias and coverage over seeded default curves.

Usage::

    python3 tools/floor_stats.py SRC OUT --seeds A-B [--jobs N]

Imports ``sidebandlimit`` from the tree at ``SRC`` (its ``src``
directory).  For every seed from A through B and every detuning of the
default configuration (its index in ``detunings_hz`` is the curve's
detuning index, as in ``sweep``), it plans the curve with ``plan_curve``,
fits each point with ``run_point`` and reduces the curve with
``analyze_outcomes``, one curve per task through the tree's
``run_points`` on up to N worker processes, and takes the closed form from
``backaction_limit``.
It writes to ``OUT`` a JSON of:

* ``detunings`` and ``pooled``: the floor's z = (n_ba - closed form) /
  sigma_n_ba, as its mean with the standard error of that mean, its std
  (ddof 0), the shares of |z| <= 1 and <= 2, and the curves whose floor is
  flagged ``n_ba_unidentifiable``;
* ``drives``: per drive of the grid, the mean and std (ddof 0) of the ratio pulls
  (R - R_true) / sigma_R against the rate equation's R_true, the mean
  Gamma deviance per degree of freedom of the sideband fits, and the mean
  count of bins they fitted, which shows any change of the fit windows;
* ``failed_fits``: each point whose fit failed and each curve whose
  reduction failed.

The file is the same, byte for byte, for any N, so two trees' outputs can
be compared with ``diff``::

    python3 tools/floor_stats.py parent/ /tmp/a.json --seeds 201-400 --jobs 2
    python3 tools/floor_stats.py . /tmp/b.json --seeds 201-400 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def curve_stats(task: tuple[int, int]) -> dict:
    """Fit the default curve of one ``(seed, detuning index)``; its floor, pulls and failures."""
    seed, detuning_index = task
    from sidebandlimit.analysis import AnalysisError
    from sidebandlimit.config import default_config
    from sidebandlimit.physics import TWO_PI, backaction_limit
    from sidebandlimit.pipeline import analyze_outcomes, plan_curve, run_point

    config = default_config()
    detuning_hz = config.detunings_hz[detuning_index]
    plans = plan_curve(config, detuning_hz, seed, detuning_index)
    outcomes = [run_point(plan) for plan in plans]
    points = []
    for plan, outcome in zip(plans, outcomes):
        fit = outcome.fit
        if fit is None:
            points.append({"error": outcome.error})
            continue
        model = plan.model
        r_true = model.peak_stokes / model.peak_antistokes
        variance = fit.ratio_variance()
        pull = (
            (fit.amplitude_ratio() - r_true) / math.sqrt(variance)
            if math.isfinite(variance) and variance > 0
            else None
        )
        points.append({"pull": pull, "deviance": fit.residual_norm, "bins": fit.n_bins_used})
    curve = {"seed": seed, "detuning_hz": detuning_hz, "points": points}
    params = config.system_params()
    try:
        _, fitted, flags = analyze_outcomes(outcomes, params)
    except AnalysisError as exc:
        curve["error"] = f"{type(exc).__name__}: {exc}"
        return curve
    closed_form = backaction_limit(TWO_PI * detuning_hz, params)
    curve["z"] = (fitted.n_ba_fit - closed_form) / fitted.sigma_n_ba
    curve["flagged"] = "n_ba_unidentifiable" in flags
    return curve


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and population std (ddof 0); None for an empty sample."""
    n = len(values)
    if n == 0:
        return None, None
    mean = math.fsum(values) / n
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


def floor_summary(curves: list[dict]) -> dict:
    """z statistics of the curves that reduced."""
    z = [c["z"] for c in curves if "z" in c]
    mean, std = _mean_std(z)
    return {
        "curves": len(curves),
        "reduced": len(z),
        "mean_z": mean,
        # std / sqrt(n - 1): the sample std (ddof 1) over sqrt(n)
        "mean_z_stderr": std / math.sqrt(len(z) - 1) if len(z) > 1 else None,
        "z_std": std,
        "coverage_1sigma": sum(abs(v) <= 1.0 for v in z) / len(z) if z else None,
        "coverage_2sigma": sum(abs(v) <= 2.0 for v in z) / len(z) if z else None,
        "flagged": sum(c.get("flagged", False) for c in curves),
    }


def drive_summary(curves: list[dict], drives: list[float]) -> list[dict]:
    """Ratio pulls, deviance and bins fitted per drive, over every curve."""
    rows = []
    for i, gamma_opt_hz in enumerate(drives):
        fitted = [c["points"][i] for c in curves if "error" not in c["points"][i]]
        pulls = [p["pull"] for p in fitted if p["pull"] is not None]
        pull_mean, pull_std = _mean_std(pulls)
        deviance_mean, _ = _mean_std([p["deviance"] for p in fitted])
        bins_mean, _ = _mean_std([p["bins"] for p in fitted])
        rows.append(
            {
                "gamma_opt_hz": gamma_opt_hz,
                "fits": len(fitted),
                "pulls": len(pulls),
                "pull_mean": pull_mean,
                "pull_std": pull_std,
                "deviance_per_dof_mean": deviance_mean,
                "bins_fitted_mean": bins_mean,
            }
        )
    return rows


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="source tree to import sidebandlimit from")
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be a positive integer, got {args.jobs}")

    # import sidebandlimit from SRC, writing no cache files there; forked
    # workers inherit the path
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from sidebandlimit.config import default_config
    from sidebandlimit.pipeline import run_points

    config = default_config()
    tasks = [(seed, d) for d in range(len(config.detunings_hz)) for seed in args.seeds]
    curves = list(run_points(curve_stats, tasks, args.jobs))

    detunings = []
    for detuning_hz in config.detunings_hz:
        row = floor_summary([c for c in curves if c["detuning_hz"] == detuning_hz])
        detunings.append({"detuning_hz": detuning_hz, **row})
    failed = [
        {"seed": c["seed"], "detuning_hz": c["detuning_hz"], "point": i, "error": p["error"]}
        for c in curves
        for i, p in enumerate(c["points"])
        if "error" in p
    ]
    failed += [
        {"seed": c["seed"], "detuning_hz": c["detuning_hz"], "point": None, "error": c["error"]}
        for c in curves
        if "error" in c
    ]
    report = {
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "pooled": floor_summary(curves),
        "detunings": detunings,
        "drives": drive_summary(curves, list(config.gamma_opt_grid_hz)),
        "failed_fits": failed,
    }
    args.out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
