"""The benchmark's workloads: configuration, CLI steps and correctness gates.

Each workload's configuration is derived from ``default_config()``; only
the seed comes from the benchmark's command line.

* ``curve_full`` -- ``cool`` on the default configuration, serial.  The
  headline command; synthesis of 89,176,305 bins dominates it.
* ``sweep_strong`` -- ``sweep --jobs 2`` over 40 detunings with the ten
  drive points at or above 200 Hz (18,235,240 bins).  400 small points
  pushed through the process pool, so the solve and the fan-out dominate.
* ``refit_saved`` -- ``cool --save-spectra`` then ``fit`` on the written
  files, with the 13 drive points at or above 40 Hz (2,239,774 bins,
  about 82 MiB of CSV).  It writes and then reads the same data.

Statistical gates compare a fitted floor with the closed form at five
reported sigma (a false alarm about once in 1.7 million comparisons).  A
two-sigma gate, as the acceptance tests use at their pinned seeds, would
fail a correct program on about one seed in twenty, and the benchmark runs
many seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from sidebandlimit.config import ExperimentConfig, default_config

N_SIGMA = 5.0
# Upper 1e-6 tail of chi-square with 40 degrees of freedom.
SWEEP_CHI2_LIMIT = 97.65
CLOSED_FORM_N_BA = 0.17826


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "cool" or "sweep"
    jobs: int
    check: Callable[[Path], list[str]]  # correctness problems in the outputs
    min_drive_hz: float | None = None
    detunings: int = 0
    refit: bool = False  # save the spectra, then ``fit`` them

    def config(self) -> ExperimentConfig:
        config = default_config()
        if self.min_drive_hz is not None:
            grid = tuple(g for g in config.gamma_opt_grid_hz if g >= self.min_drive_hz)
            config = replace(config, gamma_opt_grid_hz=grid)
        if self.detunings:
            sweep = np.linspace(-0.5e6, -2.5e6, self.detunings)
            config = replace(config, detunings_hz=tuple(float(d) for d in sweep))
        return config

    def points(self, config: ExperimentConfig) -> int:
        """Point fits one repetition attempts."""
        curves = len(config.detunings_hz) if self.command == "sweep" else 1
        return len(config.gamma_opt_grid_hz) * curves * (2 if self.refit else 1)

    def steps(self, config_path: Path, out: Path, seed: int, jobs: int) -> list[list[str]]:
        common = ["--config", str(config_path), "--seed", str(seed), "--jobs", str(jobs)]
        if not self.refit:
            return [[self.command, *common, "--out", str(out)]]
        return [
            [self.command, *common, "--save-spectra", "--out", str(out)],
            ["fit", *common, "--out", str(out / "refit"), f"glob:{out}/cool_*/spectra/point_*.csv"],
        ]


def _one(paths) -> Path:
    paths = list(paths)
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one output directory, found {paths}")
    return paths[0]


def summaries(out: Path) -> list[dict]:
    """Every ``summary.json`` a repetition wrote, in a fixed order."""
    return [json.loads(p.read_text()) for p in sorted(out.rglob("summary.json"))]


def _check_curve(out: Path) -> list[str]:
    (summary,) = summaries(out)
    est, unc = summary["estimates"], summary["uncertainties"]
    problems = []
    if round(est["n_ba_predicted"], 5) != CLOSED_FORM_N_BA:
        problems.append(f"closed-form floor {est['n_ba_predicted']} is not {CLOSED_FORM_N_BA}")
    flagged = [p for p in summary["points"] if p["flags"]]
    if flagged:
        problems.append(f"{len(flagged)} flagged points: {[p['flags'] for p in flagged]}")
    gap = abs(est["n_ba"] - est["n_ba_predicted"])
    if not gap <= N_SIGMA * unc["sigma_n_ba"]:
        problems.append(f"floor {est['n_ba']} +- {unc['sigma_n_ba']} off the closed form")
    return problems


def _check_sweep(out: Path) -> list[str]:
    sweep = json.loads((out / "sweep" / "sweep.json").read_text())
    problems = [f"errors: {sweep['errors']}"] if sweep["errors"] else []
    z = [(r["min_n_bar"] - r["n_ba_predicted"]) / r["sigma"] for r in sweep["rows"]]
    if len(z) != 40:
        return problems + [f"{len(z)} sweep rows, expected 40"]
    if not max(abs(v) for v in z) <= N_SIGMA:
        problems.append(f"a floor sits {max(map(abs, z)):.2f} sigma off the closed form")
    if not sum(v * v for v in z) <= SWEEP_CHI2_LIMIT:
        problems.append(f"floors scatter about the closed form with chi2 {sum(v * v for v in z):.1f}")
    if not abs(sum(z)) / math.sqrt(len(z)) <= N_SIGMA:
        problems.append(f"floors are biased off the closed form (mean z {sum(z) / len(z):+.3f})")
    return problems


def _check_refit(out: Path) -> list[str]:
    cool = _one(out.glob("cool_*"))
    refit = _one((out / "refit").glob("cool_*"))
    return [
        f"fit's {name} differs from cool's"
        for name in ("summary.json", "points.csv")
        if (cool / name).read_bytes() != (refit / name).read_bytes()
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve_full", "cool", jobs=1, check=_check_curve),
        Workload("sweep_strong", "sweep", jobs=2, check=_check_sweep, min_drive_hz=200.0, detunings=40),
        Workload("refit_saved", "cool", jobs=1, check=_check_refit, min_drive_hz=40.0, refit=True),
    )
}
