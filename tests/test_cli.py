"""End-to-end tests of the command-line front end on a reduced grid.

The drive grid here starts at 700 Hz so synthesis grids stay small; the
full-scale defaults are exercised by the acceptance suite.
"""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sidebandlimit
from sidebandlimit import pipeline
from sidebandlimit.analysis import fit_sidebands
from sidebandlimit.cli import main
from sidebandlimit.config import ConfigError, default_config, from_dict, load_config
from sidebandlimit.io import read_spectrum_csv, write_spectrum_csv
from sidebandlimit.physics import (
    SystemParams,
    backaction_limit,
    cooling_point,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.spectra import (
    BINS_PER_LINEWIDTH,
    SPAN_LINEWIDTHS,
    WINDOW_LINEWIDTHS,
    HeterodyneSpectrum,
    build_model,
)
from sidebandlimit.synth import synthesize_spectrum

from points_csv import read_points_csv

TWO_PI = 2.0 * math.pi

SMALL_GRID_HZ = [700.0, 2100.0, 6300.0, 15000.0, 30000.0]


@pytest.fixture
def small_config(tmp_path):
    # averaged enough that every point fits on any seed: at n_avg_base
    # 1500 the strong-drive sidebands miss the visibility check on about
    # a third of the seeds, and `cool` then exits 1
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "detunings_hz": [-1.62e6, -0.5e6],
                "gamma_opt_grid_hz": SMALL_GRID_HZ,
                "synthesis": {"n_avg_base": 6000.0},
                "output_dir": str(tmp_path / "out"),
                "seed": 11,
            }
        )
    )
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestModelCommand:
    def test_reports_reference_quantities(self, capsys):
        assert run_cli("model", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_opt_hz"] == pytest.approx(-1.9698731e6, rel=1e-6)
        assert payload["n_ba_min"] == pytest.approx(0.16549767, rel=1e-6)
        assert payload["n0"] == pytest.approx(5068.4, rel=1e-4)
        by_detuning = {row["detuning_hz"]: row for row in payload["detunings"]}
        ref = by_detuning[-1.62e6]
        assert ref["n_ba"] == pytest.approx(0.1782616, rel=1e-6)
        assert ref["s"] == pytest.approx(0.1512920, rel=1e-6)
        assert ref["gamma_opt_onset_hz"] == pytest.approx(0.18)
        assert ref["gamma_opt_ground_state_hz"] == pytest.approx(912.3, rel=1e-3)
        assert ref["gamma_opt_backaction_hz"] == pytest.approx(5117.8, rel=1e-3)

    def test_text_output_lists_detunings(self, capsys):
        assert run_cli("model") == 0
        out = capsys.readouterr().out
        assert "optimal detuning" in out
        assert "-1.6200" in out

    @pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--out", "dir"), ("--jobs", "2")])
    def test_takes_no_run_options(self, flag, value, capsys):
        # model draws nothing, writes nothing and runs no workers
        with pytest.raises(SystemExit) as exit_:
            run_cli("model", flag, value)
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err


class TestCoolCommand:
    def test_reduced_curve_recovers_floor(self, small_config, tmp_path, capsys):
        assert run_cli("cool", "--config", small_config) == 0
        out_dir = tmp_path / "out" / "cool_-1620000Hz"
        report = json.loads((out_dir / "summary.json").read_text())
        assert report["schema"] == "sidebandlimit-cool v1"
        assert report["seed"] == 11
        params = load_config(small_config).system_params()
        assert report["estimates"]["n_ba_predicted"] == backaction_limit(
            TWO_PI * -1.62e6, params
        )
        assert (
            abs(report["estimates"]["n_ba"] - 0.17826)
            < 4 * report["uncertainties"]["sigma_n_ba"]
        )
        assert "backaction_limited" in report["flags"]
        points = read_points_csv(out_dir / "points.csv")
        assert len(points) == len(SMALL_GRID_HZ)

    def test_noiseless_curve_matches_rate_equation(self, small_config, tmp_path):
        assert run_cli("cool", "--config", small_config, "--no-noise") == 0
        out_dir = tmp_path / "out" / "cool_-1620000Hz"
        report = json.loads((out_dir / "summary.json").read_text())
        params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
        n0 = thermal_occupation(0.36, params.omega_m)
        n_ba = backaction_limit(-TWO_PI * 1.62e6, params)
        assert report["estimates"]["n_ba"] == pytest.approx(n_ba, rel=1e-4)
        assert report["estimates"]["n0"] == pytest.approx(n0, rel=1e-4)
        assert report["estimates"]["t0_k"] == pytest.approx(0.36, rel=1e-4)
        for row in read_points_csv(out_dir / "points.csv"):
            truth = steady_state_occupation(
                n0, params.gamma_0, n_ba, TWO_PI * row["gamma_opt_hz"]
            )
            assert row["n_bar"] == pytest.approx(truth, rel=1e-4)

    def test_reproducible_across_jobs(self, small_config, tmp_path):
        assert run_cli("cool", "--config", small_config, "--out", tmp_path / "a") == 0
        assert (
            run_cli(
                "cool", "--config", small_config, "--out", tmp_path / "b", "--jobs", 2
            )
            == 0
        )
        for name in ("points.csv", "summary.json"):
            a = (tmp_path / "a" / "cool_-1620000Hz" / name).read_bytes()
            b = (tmp_path / "b" / "cool_-1620000Hz" / name).read_bytes()
            assert a == b

    def test_seed_changes_data(self, small_config, tmp_path):
        run_cli("cool", "--config", small_config, "--out", tmp_path / "a")
        run_cli("cool", "--config", small_config, "--out", tmp_path / "b", "--seed", 99)
        a = json.loads((tmp_path / "a" / "cool_-1620000Hz" / "summary.json").read_text())
        b = json.loads((tmp_path / "b" / "cool_-1620000Hz" / "summary.json").read_text())
        assert a["estimates"]["n_ba"] != b["estimates"]["n_ba"]
        assert a["config_hash"] == b["config_hash"]

    def test_seed_env_fallback(self, small_config, tmp_path, monkeypatch):
        run_cli("cool", "--config", small_config, "--out", tmp_path / "a", "--seed", 99)
        monkeypatch.setenv("SIDEBAND_LIMIT_SEED", "99")
        run_cli("cool", "--config", small_config, "--out", tmp_path / "b")
        a = (tmp_path / "a" / "cool_-1620000Hz" / "points.csv").read_bytes()
        b = (tmp_path / "b" / "cool_-1620000Hz" / "points.csv").read_bytes()
        assert a == b

    def test_detuning_override(self, small_config, tmp_path):
        # argparse takes "-5e5" after a space for an option; joined by "=" it is a value
        params = load_config(small_config).system_params()
        for detuning in (["--detuning", "-500000"], ["--detuning=-5e5"]):
            assert run_cli("cool", "--config", small_config, *detuning) == 0
            report = json.loads(
                (tmp_path / "out" / "cool_-500000Hz" / "summary.json").read_text()
            )
            assert report["estimates"]["n_ba_predicted"] == backaction_limit(
                TWO_PI * -0.5e6, params
            )

    def test_rejects_blue_detuning_override(self, small_config):
        assert run_cli("cool", "--config", small_config, "--detuning", "500000") == 2

    def test_classical_only_grid_is_flagged(self, tmp_path):
        # grid capped below the ground-state boundary (~912 Hz): the
        # floor is unidentifiable and the report says so
        config = tmp_path / "classical.json"
        config.write_text(
            json.dumps(
                {
                    "detunings_hz": [-1.62e6],
                    "gamma_opt_grid_hz": [30.0, 80.0, 200.0, 450.0, 800.0],
                    "synthesis": {"n_avg_base": 400.0},
                    "output_dir": str(tmp_path / "out"),
                    "seed": 3,
                }
            )
        )
        assert run_cli("cool", "--config", config) == 0
        report = json.loads(
            (tmp_path / "out" / "cool_-1620000Hz" / "summary.json").read_text()
        )
        assert "classical_regime_only" in report["flags"]
        assert "n_ba_unidentifiable" in report["flags"]


class TestComposition:
    def test_fit_on_saved_spectra_is_bit_identical(self, small_config, tmp_path):
        assert run_cli("cool", "--config", small_config, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        assert len(spectra) == len(SMALL_GRID_HZ)
        assert (
            run_cli("fit", "--config", small_config, "--out", tmp_path / "refit", *spectra)
            == 0
        )
        for name in ("points.csv", "summary.json"):
            direct = (tmp_path / "out" / "cool_-1620000Hz" / name).read_bytes()
            refit = (tmp_path / "refit" / "cool_-1620000Hz" / name).read_bytes()
            assert direct == refit


    def test_default_config_save_then_fit_is_bit_identical(self, tmp_path, monkeypatch):
        # no config file: the drive grid comes from default_config()
        monkeypatch.chdir(tmp_path)
        assert run_cli("cool", "--save-spectra", "--out", tmp_path / "a") == 0
        spectra = sorted((tmp_path / "a" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        assert len(spectra) == 20
        assert run_cli("fit", "--out", tmp_path / "b", *spectra) == 0
        for name in ("points.csv", "summary.json"):
            direct = (tmp_path / "a" / "cool_-1620000Hz" / name).read_bytes()
            refit = (tmp_path / "b" / "cool_-1620000Hz" / name).read_bytes()
            assert direct == refit
        points = read_points_csv(tmp_path / "a" / "cool_-1620000Hz" / "points.csv")
        assert points[0]["gamma_opt_hz"] == 1.0

    def test_fit_reports_the_seed_that_drew_its_spectra(self, small_config, tmp_path):
        # the configuration names seed 11; the spectra say seed=7
        assert run_cli("cool", "--config", small_config, "--seed", 7, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        assert run_cli("fit", "--config", small_config, "--out", tmp_path / "refit", *spectra) == 0
        for name in ("points.csv", "summary.json"):
            direct = (tmp_path / "out" / "cool_-1620000Hz" / name).read_bytes()
            refit = (tmp_path / "refit" / "cool_-1620000Hz" / name).read_bytes()
            assert direct == refit

    def test_fit_with_another_seed_is_a_usage_error(
        self, small_config, tmp_path, monkeypatch, capsys
    ):
        assert run_cli("cool", "--config", small_config, "--seed", 7, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        capsys.readouterr()
        refit = tmp_path / "refit"
        assert run_cli("fit", "--config", small_config, "--seed", 8, "--out", refit, *spectra) == 2
        assert "seed 8 differs from seed 7" in capsys.readouterr().err
        monkeypatch.setenv("SIDEBAND_LIMIT_SEED", "8")
        assert run_cli("fit", "--config", small_config, "--out", refit, *spectra) == 2
        assert "seed 8 differs from seed 7" in capsys.readouterr().err
        assert not refit.exists()

    def test_identity_errors_exit_before_any_fit(
        self, small_config, tmp_path, monkeypatch, capsys
    ):
        # the headers' detunings and seeds, and a named seed, are checked
        # before any file is fitted
        for seed, detuning in ((7, -1.62e6), (8, -1.62e6), (7, -1.0e6)):
            out = tmp_path / f"seed{seed}"
            argv = ["synth", "--config", small_config, "--seed", seed, "--out", out]
            assert run_cli(*argv, "--detuning", detuning) == 0
        first = sorted((tmp_path / "seed7" / "synth_-1620000Hz").glob("*.csv"))
        other_seed = sorted((tmp_path / "seed8" / "synth_-1620000Hz").glob("*.csv"))
        other_detuning = sorted((tmp_path / "seed7" / "synth_-1000000Hz").glob("*.csv"))
        fitted = []

        def recording_fit(spectrum):
            fitted.append(spectrum)
            return fit_sidebands(spectrum)

        monkeypatch.setattr(pipeline, "fit_sidebands", recording_fit)
        refit = ["--config", small_config, "--out", tmp_path / "refit"]
        for argv in (
            [*first, *other_seed],
            [*first, *other_detuning],
            ["--seed", 8, *first],
        ):
            assert run_cli("fit", *refit, *argv) == 2
            assert "differs from" in capsys.readouterr().err
        monkeypatch.setenv("SIDEBAND_LIMIT_SEED", "8")
        assert run_cli("fit", *refit, *first) == 2
        assert fitted == []
        assert not (tmp_path / "refit").exists()
        monkeypatch.delenv("SIDEBAND_LIMIT_SEED")
        assert run_cli("fit", *refit, *first) == 0
        assert len(fitted) == len(first)


# A fresh interpreter runs cool, fit and sweep and prints every scipy
# module loaded, and whether numpy.ma is: importing scipy would cost most
# of a short run's start-up, and numpy.ma about 1.3 MiB of peak memory.
_NO_SCIPY_SCRIPT = """
import glob, sys
from sidebandlimit.cli import main
config, out = sys.argv[1:]
codes = [
    main(["cool", "--config", config, "--out", out, "--save-spectra"]),
    main(["fit", "--config", config, "--out", out + "/refit",
          *sorted(glob.glob(out + "/cool_*/spectra/*.csv"))]),
    main(["sweep", "--config", config, "--out", out]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      "numpy.ma" in sys.modules)
"""


def test_commands_load_no_scipy(small_config, tmp_path):
    src = Path(sidebandlimit.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(small_config), str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] [] False"


# A fresh interpreter logs the process of every fit and reduction of a
# two-worker sweep, and prints its exit code, its own pid and whether it
# loaded numpy.random.  Forked workers inherit the logging wrappers.
_WORKER_SCRIPT = """
import os, sys
from sidebandlimit.cli import main
from sidebandlimit import pipeline

config, out, log = sys.argv[1:]

def logged(name, inner):
    def call(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{name} {os.getpid()}\\n")
        return inner(*args, **kwargs)
    return call

for name in ("fit_sidebands", "reduce_curve"):
    setattr(pipeline, name, logged(name, getattr(pipeline, name)))
code = main(["sweep", "--config", config, "--out", out, "--jobs", "2"])
print(code, os.getpid(), "numpy.random" in sys.modules)
"""


def test_sweep_fits_and_reduces_every_curve_in_a_worker(small_config, tmp_path):
    log = tmp_path / "calls.log"
    done = subprocess.run(
        [sys.executable, "-c", _WORKER_SCRIPT, str(small_config), str(tmp_path / "run"), str(log)],
        env={**os.environ, "PYTHONPATH": str(Path(sidebandlimit.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    code, parent, loaded_random = done.stdout.splitlines()[-1].split()
    assert (code, loaded_random) == ("0", "False")
    calls = [line.split() for line in log.read_text().splitlines()]
    curves = len(json.loads(small_config.read_text())["detunings_hz"])
    assert sorted(name for name, _ in calls) == (
        ["fit_sidebands"] * curves * len(SMALL_GRID_HZ) + ["reduce_curve"] * curves
    )
    assert parent not in {pid for _, pid in calls}


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_blas_threads_default_to_one_unless_set():
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(Path(sidebandlimit.__file__).resolve().parents[1])
    env["OMP_NUM_THREADS"] = "3"
    script = f"import os, sidebandlimit.cli; print([os.environ[k] for k in {_BLAS_VARS}])"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "['1', '3', '1']\n"


# A fresh interpreter imports the package root and prints its version and
# every sidebandlimit submodule and numpy module that import loaded.
_ROOT_IMPORT_SCRIPT = """
import sys
import sidebandlimit
print(sidebandlimit.__version__, sorted(
    m for m in sys.modules if m.startswith("sidebandlimit.") or m.split(".")[0] == "numpy"
))
"""


def test_package_root_imports_no_module():
    env = {**os.environ, "PYTHONPATH": str(Path(sidebandlimit.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _ROOT_IMPORT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0.1.0 []"
    version = subprocess.run(
        [sys.executable, "-m", "sidebandlimit.cli", "--version"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert version.stdout == "0.1.0\n"


class TestFitCommand:
    def test_missing_gamma_opt_metadata_is_named(self, small_config, tmp_path, capsys):
        spectrum = HeterodyneSpectrum(
            f_lo=-1e7, resolution=1e4, psd=np.ones(2001), n_avg=10.0
        )
        path = tmp_path / "orphan.csv"
        write_spectrum_csv(path, spectrum, {"detuning_hz": -1.62e6})
        assert run_cli("fit", "--config", small_config, path) == 2
        assert "gamma_opt_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "metadata, message",
        [
            pytest.param(
                {"gamma_opt_hz": "np.float64(1.0)"},
                "malformed metadata value for 'gamma_opt_hz'",
                id="repr",
            ),
            # a drive must be finite and positive, a detuning finite and red
            pytest.param({"gamma_opt_hz": -44.6}, "gamma_opt_hz", id="negative-drive"),
            pytest.param({"gamma_opt_hz": 0.0}, "gamma_opt_hz", id="zero-drive"),
            pytest.param({"gamma_opt_hz": math.nan}, "gamma_opt_hz", id="nan-drive"),
            pytest.param({"gamma_opt_hz": math.inf}, "gamma_opt_hz", id="inf-drive"),
            pytest.param(
                {"gamma_opt_hz": 300.0, "detuning_hz": 1.62e6}, "detuning_hz", id="blue-detuning"
            ),
            pytest.param(
                {"gamma_opt_hz": 300.0, "detuning_hz": 0.0}, "detuning_hz", id="zero-detuning"
            ),
            pytest.param(
                {"gamma_opt_hz": 300.0, "detuning_hz": math.inf}, "detuning_hz", id="inf-detuning"
            ),
            pytest.param(
                {"gamma_opt_hz": 300.0, "detuning_hz": math.nan}, "detuning_hz", id="nan-detuning"
            ),
            # s rounds to 1, and a drive's linewidth reaches omega_m
            pytest.param(
                {"gamma_opt_hz": 300.0, "detuning_hz": -1e-300}, "detuning_hz", id="unit-s-detuning"
            ),
            pytest.param({"gamma_opt_hz": 1e300}, "gamma_opt_hz", id="drive-past-omega_m"),
            # a seed, as on the command line, is a non-negative integer
            pytest.param({"gamma_opt_hz": 300.0, "seed": -3}, "seed", id="negative-seed"),
            pytest.param(
                {"gamma_opt_hz": 300.0, "seed": 7.5},
                "malformed metadata value for 'seed'",
                id="fractional-seed",
            ),
        ],
    )
    def test_malformed_metadata_value_is_a_schema_error(
        self, small_config, tmp_path, capsys, metadata, message
    ):
        spectrum = HeterodyneSpectrum(
            f_lo=-1e7, resolution=1e4, psd=np.ones(2001), n_avg=10.0
        )
        path = tmp_path / "repr.csv"
        write_spectrum_csv(path, spectrum, metadata)
        assert run_cli("fit", "--config", small_config, "--out", tmp_path / "refit", path) == 2
        err = capsys.readouterr().err
        assert "repr.csv" in err and message in err
        assert not (tmp_path / "refit").exists()

    def test_truncated_spectrum_reports_coverage_failure(
        self, small_config, tmp_path, capsys
    ):
        # four good points plus one spectrum that misses the Stokes side
        assert run_cli("cool", "--config", small_config, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
        point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
        model = build_model(params, point, 0.2)
        span = model.omega_m + SPAN_LINEWIDTHS * model.gamma_eff
        resolution = model.gamma_eff / BINS_PER_LINEWIDTH
        grid_bins = math.floor(2 * span / resolution) + 1
        full = synthesize_spectrum(model, (-span, resolution, grid_bins, None), math.inf, 0)
        kept = full.frequencies >= -0.2 * model.omega_m
        truncated = HeterodyneSpectrum(
            f_lo=full.frequencies[kept][0],
            resolution=full.resolution,
            psd=full.psd[kept],
            n_avg=full.n_avg,
        )
        bad = tmp_path / "truncated.csv"
        write_spectrum_csv(
            bad, truncated, {"gamma_opt_hz": 30000.0, "detuning_hz": -1.62e6}
        )
        code = run_cli(
            "fit", "--config", small_config, "--out", tmp_path / "refit",
            *spectra[:-1], bad,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "truncated.csv" in err
        assert "SpectrumCoverage" in err or "sideband" in err

    def test_zero_floor_bin_fails_that_input(self, small_config, tmp_path, capsys):
        # the point is kept and flagged, and `fit` exits 1 naming the input
        assert run_cli("cool", "--config", small_config, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        # a bin half the fit window out from the anti-Stokes line, inside
        # the fitted window at floor level
        model = pipeline.plan_curve(load_config(small_config), -1.62e6, 11)[0].model
        spectrum, metadata = read_spectrum_csv(spectra[0])
        psd = spectrum.psd.copy()
        target = model.omega_m + 0.5 * WINDOW_LINEWIDTHS * model.gamma_eff
        psd[np.argmin(np.abs(spectrum.frequencies - target))] = 0.0
        bad = tmp_path / "zero_floor.csv"
        write_spectrum_csv(bad, replace(spectrum, psd=psd), metadata)
        code = run_cli(
            "fit", "--config", small_config, "--out", tmp_path / "refit",
            bad, *spectra[1:],
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "zero_floor.csv" in err and "not positive" in err
        points = read_points_csv(tmp_path / "refit" / "cool_-1620000Hz" / "points.csv")
        assert len(points) == len(SMALL_GRID_HZ)
        assert "fit_failed" in points[0]["flags"]


    def test_spectra_of_two_detunings_are_a_schema_error(
        self, small_config, tmp_path, capsys
    ):
        # two curves' spectra are not one curve: exit 2, nothing written
        for detuning in (-1.62e6, -1.0e6):
            assert run_cli("synth", "--config", small_config, "--detuning", detuning) == 0
        first = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        second = sorted((tmp_path / "out" / "synth_-1000000Hz").glob("*.csv"))
        refit = tmp_path / "refit"
        assert run_cli("fit", "--config", small_config, "--out", refit, *first, *second) == 2
        err = capsys.readouterr().err
        assert "-1620000.0" in err and "-1000000.0" in err
        assert str(first[0]) in err and str(second[0]) in err
        assert not refit.exists()

    def test_spectra_of_two_seeds_are_a_schema_error(self, small_config, tmp_path, capsys):
        for seed in (7, 8):
            out = tmp_path / f"seed{seed}"
            assert run_cli("synth", "--config", small_config, "--seed", seed, "--out", out) == 0
        first = sorted((tmp_path / "seed7" / "synth_-1620000Hz").glob("*.csv"))
        second = sorted((tmp_path / "seed8" / "synth_-1620000Hz").glob("*.csv"))
        refit = tmp_path / "refit"
        assert run_cli("fit", "--config", small_config, "--out", refit, *first, *second) == 2
        err = capsys.readouterr().err
        assert "seed 8 differs from 7" in err
        assert str(first[0]) in err and str(second[0]) in err
        assert not refit.exists()

    def test_spectra_of_two_configurations_are_a_schema_error(
        self, small_config, tmp_path, capsys
    ):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**json.loads(small_config.read_text()), "synthesis": {}}))
        for config, out in ((small_config, tmp_path / "a"), (other, tmp_path / "b")):
            assert run_cli("synth", "--config", config, "--seed", 3, "--out", out) == 0
        first = sorted((tmp_path / "a" / "synth_-1620000Hz").glob("*.csv"))
        second = sorted((tmp_path / "b" / "synth_-1620000Hz").glob("*.csv"))
        refit = tmp_path / "refit"
        assert run_cli("fit", "--config", small_config, "--out", refit, *first, *second) == 2
        err = capsys.readouterr().err
        assert "spectra of one curve must share one configuration" in err
        assert str(first[0]) in err and str(second[0]) in err
        assert not refit.exists()

    def test_output_dir_that_is_not_a_string_is_a_usage_error(
        self, small_config, tmp_path, capsys
    ):
        assert run_cli("synth", "--config", small_config) == 0
        spectra = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        config = json.loads(small_config.read_text())
        small_config.write_text(json.dumps({**config, "output_dir": None}))
        capsys.readouterr()
        assert run_cli("fit", "--config", small_config, *spectra) == 2
        assert capsys.readouterr().err == "error: config.output_dir: must be a string, got None\n"

    def test_output_independent_of_jobs(self, small_config, tmp_path, monkeypatch):
        pools = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        assert run_cli("synth", "--config", small_config) == 0
        spectra = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        pools.clear()
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("fit", "--config", small_config, "--out", out, "--jobs", jobs,
                           *spectra) == 0
        assert len(pools) == 1
        for name in ("points.csv", "summary.json"):
            one = (tmp_path / "jobs1" / "cool_-1620000Hz" / name).read_bytes()
            two = (tmp_path / "jobs2" / "cool_-1620000Hz" / name).read_bytes()
            assert one == two

    def test_first_bad_input_is_named_across_jobs(self, small_config, tmp_path, capsys):
        assert run_cli("synth", "--config", small_config) == 0
        spectra = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        orphan = tmp_path / "orphan.csv"
        spectrum, _ = read_spectrum_csv(spectra[0])
        write_spectrum_csv(orphan, spectrum, {"detuning_hz": -1.62e6})
        garbled = tmp_path / "garbled.csv"
        garbled.write_text("not a spectrum\n")
        capsys.readouterr()
        for jobs in (1, 2):
            argv = ["fit", "--config", small_config, "--jobs", jobs]
            assert run_cli(*argv, spectra[0], orphan, spectra[1], garbled) == 2
            err = capsys.readouterr().err
            assert "orphan.csv" in err and "garbled.csv" not in err


@pytest.mark.parametrize(
    "command, name",
    [
        ("cool", "nope.json"),
        ("fit", "nope.csv"),
        ("fit", "spectra"),
        # a \xff byte: at a config's start, or in a spectrum's header or on
        # its data row 20, which the header read decodes with it
        ("cool", "binary.json"),
        ("model", "binary.json"),
        ("fit", "binary_header.csv"),
        ("fit --jobs 2", "binary_row20.csv"),
    ],
)
def test_unreadable_input_is_a_usage_error(command, name, tmp_path):
    # a missing file, a directory, or a file that is not UTF-8 text exits 2
    # naming it, without a traceback
    (tmp_path / "spectra").mkdir()
    (tmp_path / "binary.json").write_bytes(b"\xff{}")
    spectrum = HeterodyneSpectrum(f_lo=-1e7, resolution=1e4, psd=np.ones(2001), n_avg=10.0)
    for line, binary in (
        (0, tmp_path / "binary_header.csv"), (21, tmp_path / "binary_row20.csv")
    ):
        write_spectrum_csv(binary, spectrum, {"gamma_opt_hz": 300.0})
        lines = binary.read_bytes().split(b"\n")
        lines[line] += b"\xff"
        binary.write_bytes(b"\n".join(lines))
    path = tmp_path / name
    src = Path(sidebandlimit.__file__).resolve().parents[1]
    done = subprocess.run(
        [
            sys.executable, "-m", "sidebandlimit.cli", *command.split(),
            *([str(path)] if command.startswith("fit") else ["--config", str(path)]),
        ],
        cwd=tmp_path,  # where the default output_dir, "out", would be made
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert f"error: {path}: cannot read" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, path",
    [
        (["init-config", "missing/c.json"], "missing/c.json"),
        (["init-config", "blocker/c.json"], "blocker/c.json"),
        (["cool", "--out", "blocker"], "blocker"),
        (["cool", "--out", "blocker", "--save-spectra", "--jobs", "2"], "blocker"),
        (["sweep", "--out", "blocker"], "blocker"),
        (["synth", "--out", "blocker"], "blocker"),
        (["fit", "--out", "blocker"], "blocker"),
    ],
)
def test_unwritable_output_is_a_usage_error(argv, path, small_config, tmp_path):
    # an output under a missing directory, or under a file, exits 2 naming
    # it, without a traceback from this process or from a worker
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    config = [] if argv[0] == "init-config" else ["--config", str(small_config)]
    if argv[0] == "fit":
        assert run_cli("synth", "--config", small_config) == 0
        config += sorted(str(p) for p in (tmp_path / "out").glob("synth_*/*.csv"))
    src = Path(sidebandlimit.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "sidebandlimit.cli", *argv, *config],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {path}")
    assert "Traceback" not in done.stderr


class TestUnreducibleCurve:
    @pytest.fixture
    def thin_config(self, tmp_path):
        # averaged so little that at seed 1 the three strongest drives at
        # -1.62 MHz fail their visibility check, leaving 2 of the 4 ratios
        # the reduction needs; the -1 MHz curve still reduces
        path = tmp_path / "thin.json"
        path.write_text(
            json.dumps(
                {
                    "detunings_hz": [-1.62e6, -1.0e6],
                    "gamma_opt_grid_hz": SMALL_GRID_HZ,
                    "synthesis": {"n_avg_base": 300.0},
                    "output_dir": str(tmp_path / "out"),
                    "seed": 1,
                }
            )
        )
        return path

    def test_error_names_each_failed_point(self, thin_config, tmp_path, capsys):
        assert run_cli("cool", "--config", thin_config, "--save-spectra") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: AnalysisError: need at least 4")
        expected = [
            f"  point {i} (gamma_opt = {SMALL_GRID_HZ[i]:.6g} Hz) failed: "
            "InsufficientVisibilityError"
            for i in (2, 3, 4)
        ]
        named = [line for line in err.splitlines() if " failed: " in line]
        assert [line.split(": no ")[0] for line in named] == expected

        # `fit` on the spectra the failed `cool` wrote names the input files
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        assert len(spectra) == len(SMALL_GRID_HZ)
        assert run_cli("fit", "--config", thin_config, "--out", tmp_path / "b", *spectra) == 1
        err = capsys.readouterr().err
        named = [line for line in err.splitlines() if " failed: " in line]
        assert [line.split(" failed: ")[0] for line in named] == [
            f"  input {path}" for path in spectra[2:]
        ]

        # `sweep` keeps the other curve and records the same text
        assert run_cli("sweep", "--config", thin_config) == 1
        sweep = json.loads((tmp_path / "out" / "sweep" / "sweep.json").read_text())
        assert [row["detuning_hz"] for row in sweep["rows"]] == [-1.0e6]
        error = sweep["errors"]["-1620000Hz"]
        assert error.startswith("AnalysisError: need at least 4")
        assert [line.split(": no ")[0] for line in error.splitlines()[1:]] == expected

    def test_sweep_with_a_failed_curve_is_identical_across_jobs(
        self, thin_config, tmp_path, capsys
    ):
        # the failed curve's error comes back from the queue in its place
        runs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("sweep", "--config", thin_config, "--out", out, "--jobs", jobs) == 1
            root = out / "sweep"
            tree = {
                str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }
            runs.append((tree, capsys.readouterr().err))
        (tree, err), (tree2, err2) = runs
        assert tree == tree2 and err == err2
        assert json.loads(tree["sweep.json"])["errors"].keys() == {"-1620000Hz"}
        assert err.startswith("detuning -1620000Hz: failed: need at least 4")


    def test_sweep_whose_every_curve_fails_still_writes_its_report(
        self, thin_config, tmp_path, capsys
    ):
        data = json.loads(thin_config.read_text())
        thin_config.write_text(json.dumps({**data, "detunings_hz": [-1.62e6]}))
        assert run_cli("sweep", "--config", thin_config) == 1
        sweep_dir = tmp_path / "out" / "sweep"
        sweep = json.loads((sweep_dir / "sweep.json").read_text())
        assert sweep["rows"] == []
        assert sweep["global_min_detuning_hz"] is None
        assert sweep["errors"]["-1620000Hz"].startswith("AnalysisError: need at least 4")
        assert (sweep_dir / "sweep_summary.csv").read_text() == (
            "detuning_hz,min_n_bar,sigma,n_ba_predicted,flags\n"
        )
        out = capsys.readouterr().out
        assert "global minimum" not in out
        # no table header without a row under it
        assert out.splitlines() == [f"outputs in {sweep_dir}"]


class TestSweepCommand:
    def test_failed_points_are_named_and_fail_the_run(self, tmp_path, capsys):
        # averaged so little that at seed 1 every curve reduces but keeps
        # fit_failed points: the four strongest drives at -1.62 MHz and the
        # three strongest at -1 and -2 MHz
        config = tmp_path / "thin.json"
        config.write_text(
            json.dumps(
                {
                    "detunings_hz": [-1.62e6, -1.0e6, -2.0e6],
                    "gamma_opt_grid_hz": [1.0, 10.0, 100.0, *SMALL_GRID_HZ],
                    "synthesis": {"n_avg_base": 40.0},
                    "output_dir": str(tmp_path / "out"),
                    "seed": 1,
                }
            )
        )
        assert run_cli("sweep", "--config", config) == 1
        named = [line.split(" failed: ")[0] for line in capsys.readouterr().err.splitlines()]
        sweep = tmp_path / "out" / "sweep"
        assert len(json.loads((sweep / "sweep.json").read_text())["rows"]) == 3
        expected = []
        failures = []
        for curve in sorted(sweep.glob("d*_*Hz")):
            label = curve.name.split("_", 1)[1]
            points = read_points_csv(curve / "points.csv")
            failed = [i for i, p in enumerate(points) if "fit_failed" in p["flags"]]
            failures.append(failed)
            expected += [
                f"detuning {label}: point {i} "
                f"(gamma_opt = {points[i]['gamma_opt_hz']:.6g} Hz)"
                for i in failed
            ]
        assert failures == [[4, 5, 6, 7], [5, 6, 7], [5, 6, 7]]
        assert named == expected

    def test_two_detuning_sweep(self, small_config, tmp_path, capsys):
        assert run_cli("sweep", "--config", small_config) == 0
        sweep = json.loads((tmp_path / "out" / "sweep" / "sweep.json").read_text())
        assert sweep["schema"] == "sidebandlimit-sweep v1"
        assert [row["detuning_hz"] for row in sweep["rows"]] == [-1.62e6, -0.5e6]
        params = load_config(small_config).system_params()
        for row in sweep["rows"]:
            assert row["n_ba_predicted"] == backaction_limit(
                TWO_PI * row["detuning_hz"], params
            )
        assert sweep["global_min_detuning_hz"] == pytest.approx(-1.62e6)
        csv_lines = (tmp_path / "out" / "sweep" / "sweep_summary.csv").read_text()
        assert csv_lines.splitlines()[0] == (
            "detuning_hz,min_n_bar,sigma,n_ba_predicted,flags"
        )

    def test_one_pool_and_identical_outputs_across_jobs(
        self, small_config, tmp_path, monkeypatch
    ):
        pools = []
        init = ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
        trees = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("sweep", "--config", small_config, "--out", out, "--jobs", jobs) == 0
            root = out / "sweep"
            trees.append(
                {
                    str(path.relative_to(root)): path.read_bytes()
                    for path in sorted(root.rglob("*"))
                    if path.is_file()
                }
            )
        # one pool for the whole two-detuning sweep, none when serial
        assert len(pools) == 1
        assert sorted(trees[0]) == sorted(trees[1])
        basenames = [name.rsplit("/", 1)[-1] for name in trees[0]]
        assert basenames.count("points.csv") == basenames.count("summary.json") == 2
        assert {"sweep.json", "sweep_summary.csv"} <= set(trees[0])
        assert trees[0] == trees[1]


class TestSynthCommand:
    def test_writes_readable_spectra(self, small_config, tmp_path):
        assert run_cli("synth", "--config", small_config) == 0
        files = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        assert len(files) == len(SMALL_GRID_HZ)
        spectrum, metadata = read_spectrum_csv(files[0])
        assert float(metadata["gamma_opt_hz"]) == SMALL_GRID_HZ[0]
        assert float(metadata["detuning_hz"]) == -1.62e6
        assert spectrum.n_bins > 1000

    def test_output_independent_of_jobs(self, small_config, tmp_path):
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli("synth", "--config", small_config, "--out", out, "--jobs", jobs) == 0
        one = sorted((tmp_path / "jobs1" / "synth_-1620000Hz").glob("*.csv"))
        two = sorted((tmp_path / "jobs2" / "synth_-1620000Hz").glob("*.csv"))
        assert [p.name for p in one] == [p.name for p in two]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(one, two))

    def test_writes_the_spectra_cool_saves(self, small_config, tmp_path):
        # both writers name and head each file from the same plan_curve
        assert run_cli("synth", "--config", small_config, "--seed", 7) == 0
        assert run_cli("cool", "--config", small_config, "--seed", 7, "--save-spectra") == 0
        synth = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        cool = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        assert [p.name for p in synth] == [p.name for p in cool]
        assert len(synth) == len(SMALL_GRID_HZ)
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(synth, cool))

    def test_writes_without_fitting(self, small_config, tmp_path, monkeypatch):
        def no_fit(spectrum):
            raise AssertionError("synth must not fit the spectra it writes")

        monkeypatch.setattr(pipeline, "fit_sidebands", no_fit)
        assert run_cli("synth", "--config", small_config, "--jobs", 1) == 0
        files = list((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))
        assert len(files) == len(SMALL_GRID_HZ)


class TestConfigHandling:
    def test_init_config_round_trip(self, tmp_path):
        path = tmp_path / "default.json"
        assert run_cli("init-config", path) == 0
        loaded = load_config(path)
        assert loaded == default_config()

    def test_config_round_trips_through_dict(self):
        config = default_config()
        assert from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"system": {"kappa_hz": -1.0}}, "kappa_hz"),
            ({"detunings_hz": [1.0e6]}, "detunings_hz[0]"),
            ({"gamma_opt_grid_hz": []}, "gamma_opt_grid_hz"),
            ({"synthesis": {"bins_per_linewidth": 4.0}}, "bins_per_linewidth"),
            ({"systematics": {"amp_noise": -0.1}}, "amp_noise"),
            ({"unknown_key": 1}, "unknown"),
        ],
    )
    def test_validation_names_offending_field(self, patch, field):
        data = default_config().to_dict()
        for key, value in patch.items():
            if isinstance(value, dict):
                data[key].update(value)
            else:
                data[key] = value
        with pytest.raises(ConfigError, match=field.split("[")[0]):
            from_dict(data)

    @pytest.mark.parametrize(
        "argv, patch",
        [
            (["cool", "--detuning", "nan"], {}),
            (["model"], {"detunings_hz": ["a"]}),
            (["model"], {"seed": "x"}),
            (["model"], {"system": 5}),
            (["model"], {"system": {"kappa_hz": math.inf}}),
            (["model"], {"system": {"kappa_hz": [2.6e6]}}),
            (["model"], {"detunings_hz": [-math.inf]}),
            (["model"], {"gamma_opt_grid_hz": [math.inf]}),
            (["cool", "--seed", "-1"], {}),
            (["cool"], {"seed": -4}),
            (["model"], {"system": {"gamma_0_hz": 2e6}}),
            (["cool"], {"system": {"gamma_0_hz": 1.48e6}}),
            (["cool"], {"detunings_hz": [-1e-300]}),
            (["cool"], {"system": {"kappa_hz": 1e20}}),
            (["cool", "--detuning=-1e-300"], {}),
            (["cool"], {"gamma_opt_grid_hz": [1.0, 1e300]}),
            (["synth"], {"gamma_opt_grid_hz": [1.0, 1e300]}),
            (["cool"], {"output_dir": 5}),
            (["synth"], {"output_dir": None}),
            (["sweep"], {"output_dir": ["a"]}),
        ],
    )
    def test_malformed_or_non_finite_input_is_a_usage_error(
        self, argv, patch, tmp_path, capsys
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **patch}))
        assert run_cli(*argv, "--config", path) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "patch, name",
        [
            ({"bath_temperature_k": None}, "config.bath_temperature_k"),
            ({"system": {"kappa_hz": None}}, "config.system.kappa_hz"),
            ({"synthesis": {"n_avg_base": None}}, "config.synthesis.n_avg_base"),
        ],
    )
    def test_null_setting_is_a_usage_error_naming_it(self, patch, name, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(patch))
        assert run_cli("model", "--config", path) == 2
        assert capsys.readouterr().err == f"error: {name}: must be a finite number, got None\n"

    @pytest.mark.parametrize(
        "argv, patch, name",
        [
            (["cool"], {"detunings_hz": [-1.62e6, -1e-300]}, "config.detunings_hz[1]"),
            (["sweep"], {"system": {"kappa_hz": 1e20}}, "config.detunings_hz[0]"),
            (["synth", "--detuning=-1e-300"], {}, "--detuning"),
            (["cool"], {"gamma_opt_grid_hz": [1.0, 1e300]}, "config.gamma_opt_grid_hz[1]"),
            (["cool"], {"gamma_opt_grid_hz": [1.0, 1.48e6]}, "config.gamma_opt_grid_hz[1]"),
        ],
    )
    def test_unplannable_detuning_or_drive_names_its_source(
        self, argv, patch, name, tmp_path, capsys
    ):
        # s must round below 1, and gamma_0 + gamma_opt must stay below omega_m
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **patch}))
        assert run_cli(*argv, "--config", path) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}: ")
        assert not (tmp_path / "out").exists()

    def test_bath_beyond_float_range_fails_each_point(self, tmp_path, capsys):
        # the weak drives' fits of a 1e300 K bath overflow: each failure is
        # named and the command exits 1, where it hung in the covariance's SVD
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"output_dir": str(tmp_path / "out"), "bath_temperature_k": 1e300})
        )
        assert run_cli("cool", "--config", path) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "point 0 (gamma_opt = 1 Hz) failed: AnalysisError: " in err
        assert "not finite" in err

    def test_bath_beyond_float_range_prints_no_numpy_warning(self, tmp_path):
        # a fresh interpreter keeps numpy's default warning filters, so an
        # overflow at the fit's start would reach stderr as a RuntimeWarning
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"output_dir": str(tmp_path / "out"), "bath_temperature_k": 1e300})
        )
        src = Path(sidebandlimit.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "sidebandlimit.cli", "cool", "--config", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1
        failed = [line.split(" (")[0] for line in done.stderr.splitlines()]
        assert failed == [f"point {i}" for i in range(8)]
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize(
        "command, name, values, where",
        [
            ("cool", "gamma_opt_grid_hz", [6300.0, 700.0, 2100.0, 15000.0, 30000.0], "[1]"),
            ("cool", "gamma_opt_grid_hz", [700.0, 2100.0, 2100.0, 15000.0], "[2]"),
            ("sweep", "detunings_hz", [-1.62e6, -0.5e6, -1.62e6], "[2]"),
        ],
    )
    def test_unordered_grid_or_repeated_detuning_is_a_usage_error(
        self, command, name, values, where, small_config, capsys
    ):
        # `fit` orders spectra by drive and a sweep reports curves by
        # detuning, so either would write outputs that disagree
        data = json.loads(small_config.read_text())
        data[name] = values
        small_config.write_text(json.dumps(data))
        assert run_cli(command, "--config", small_config) == 2
        assert capsys.readouterr().err.startswith(f"error: config.{name}{where}: ")
        assert not Path(data["output_dir"]).exists()

    @pytest.mark.parametrize(
        "command, section, name, value",
        [
            ("cool", "synthesis", "bins_per_linewidth", BINS_PER_LINEWIDTH),
            ("sweep", "synthesis", "grid_margin_linewidths", SPAN_LINEWIDTHS),
            ("synth", "synthesis", "n_avg_occupation_cap", pipeline.N_AVG_OCCUPATION_CAP),
            ("synth", "synthesis", "oracle_duration_s", 1.0),
            ("cool", None, "power_scale_hz_per_uw", 1.0),
        ],
    )
    def test_deleted_field_is_a_usage_error(
        self, command, section, name, value, small_config, capsys
    ):
        # fields that were settings once and are constants or gone now: a
        # file that still sets one, even to the value it always held, is refused
        data = json.loads(small_config.read_text())
        (data[section] if section else data)[name] = value
        small_config.write_text(json.dumps(data))
        assert run_cli(command, "--config", small_config) == 2
        err = capsys.readouterr().err
        where = f"config.{section}" if section else "config"
        assert err.startswith(f"error: {where}: unknown fields ['{name}']")
        assert not Path(data["output_dir"]).exists()

    @pytest.mark.parametrize(
        "command, value", [("cool", "not-a-number"), ("synth", "-2")]
    )
    def test_invalid_env_seed_rejected(
        self, command, value, small_config, monkeypatch, capsys
    ):
        monkeypatch.setenv("SIDEBAND_LIMIT_SEED", value)
        assert run_cli(command, "--config", small_config) == 2
        assert "SIDEBAND_LIMIT_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_a_usage_error(self, jobs, small_config, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("cool", "--config", small_config, "--jobs", jobs)
        assert exit_.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class _InlinePool(Executor):
    """A synchronous stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, task, *args):
        future = Future()
        future.set_result(task(*args))
        return future


def test_pool_opens_no_more_workers_than_tasks(small_config, tmp_path, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    for command in ("cool", "sweep", "synth"):
        assert run_cli(command, "--config", small_config, "--jobs", 64) == 0
    spectra = sorted((tmp_path / "out" / "synth_-1620000Hz").glob("*.csv"))[:4]
    assert run_cli("fit", "--config", small_config, "--jobs", 64, *spectra) == 0
    grid = len(SMALL_GRID_HZ)
    # cool runs its one curve here; sweep queues its two curves on one pool
    assert _InlinePool.sizes == [2, grid, 4]
