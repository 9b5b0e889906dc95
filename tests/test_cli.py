"""End-to-end tests of the command-line front end on a reduced grid.

The drive grid here starts at 700 Hz so synthesis grids stay small; the
full-scale defaults are exercised by the acceptance suite.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from sidebandlimit import pipeline
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
from sidebandlimit.spectra import HeterodyneSpectrum, build_model
from sidebandlimit.synth import SynthConfig, synthesize_spectrum

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


class TestCoolCommand:
    def test_reduced_curve_recovers_floor(self, small_config, tmp_path, capsys):
        assert run_cli("cool", "--config", small_config) == 0
        out_dir = tmp_path / "out" / "cool_-1620000Hz"
        report = json.loads((out_dir / "summary.json").read_text())
        assert report["schema"] == "sidebandlimit-cool v1"
        assert report["seed"] == 11
        assert report["estimates"]["n_ba_predicted"] == pytest.approx(0.17826, rel=1e-4)
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
        assert (
            run_cli("cool", "--config", small_config, "--detuning", "-500000") == 0
        )
        report = json.loads(
            (tmp_path / "out" / "cool_-500000Hz" / "summary.json").read_text()
        )
        assert report["estimates"]["n_ba_predicted"] == pytest.approx(0.89541, rel=1e-4)

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


class TestFitCommand:
    def test_missing_gamma_opt_metadata_is_named(self, small_config, tmp_path, capsys):
        spectrum = HeterodyneSpectrum(
            f_lo=-1e7, resolution=1e4, psd=np.ones(2001), n_avg=10.0
        )
        path = tmp_path / "orphan.csv"
        write_spectrum_csv(path, spectrum, {"detuning_hz": -1.62e6})
        assert run_cli("fit", "--config", small_config, path) == 2
        assert "gamma_opt_hz" in capsys.readouterr().err

    def test_malformed_metadata_value_is_a_schema_error(self, small_config, tmp_path, capsys):
        spectrum = HeterodyneSpectrum(
            f_lo=-1e7, resolution=1e4, psd=np.ones(2001), n_avg=10.0
        )
        path = tmp_path / "repr.csv"
        write_spectrum_csv(path, spectrum, {"gamma_opt_hz": "np.float64(1.0)"})
        assert run_cli("fit", "--config", small_config, path) == 2
        assert "repr.csv" in capsys.readouterr().err

    def test_truncated_spectrum_reports_coverage_failure(
        self, small_config, tmp_path, capsys
    ):
        # four good points plus one spectrum that misses the Stokes side
        assert run_cli("cool", "--config", small_config, "--save-spectra") == 0
        spectra = sorted((tmp_path / "out" / "cool_-1620000Hz" / "spectra").glob("*.csv"))
        params = SystemParams.from_hz(2.6e6, 1.48e6, 0.18, 0.04)
        point = cooling_point(params, -TWO_PI * 1.62e6, TWO_PI * 30e3)
        model = build_model(params, point, 0.2)
        full = synthesize_spectrum(
            model,
            SynthConfig(
                f_lo=-(model.omega_m + 80 * model.gamma_eff),
                f_hi=model.omega_m + 80 * model.gamma_eff,
                resolution=model.gamma_eff / 14,
                n_avg=math.inf,
            ),
        )
        sl = full.index_range(-0.2 * model.omega_m, full.f_hi)
        truncated = HeterodyneSpectrum(
            f_lo=full.frequencies_at(sl)[0],
            resolution=full.resolution,
            psd=full.psd[sl],
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
        # at the weakest drive the fit reads every stored floor bin between
        # the sidebands, the one at the beat note among them
        spectrum, metadata = read_spectrum_csv(spectra[0])
        psd = spectrum.psd.copy()
        psd[np.argmin(np.abs(spectrum.frequencies_at(slice(None))))] = 0.0
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


class TestSweepCommand:
    def test_two_detuning_sweep(self, small_config, tmp_path, capsys):
        assert run_cli("sweep", "--config", small_config) == 0
        sweep = json.loads((tmp_path / "out" / "sweep" / "sweep.json").read_text())
        assert sweep["schema"] == "sidebandlimit-sweep v1"
        assert len(sweep["rows"]) == 2
        by_detuning = {row["detuning_hz"]: row for row in sweep["rows"]}
        assert by_detuning[-1.62e6]["n_ba_predicted"] == pytest.approx(
            0.17826, rel=1e-4
        )
        assert by_detuning[-0.5e6]["n_ba_predicted"] == pytest.approx(0.89541, rel=1e-4)
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
        ],
    )
    def test_malformed_or_non_finite_input_is_a_usage_error(
        self, argv, patch, tmp_path, capsys
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **patch}))
        assert run_cli(*argv, "--config", path) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_env_seed_rejected(self, small_config, monkeypatch, capsys):
        monkeypatch.setenv("SIDEBAND_LIMIT_SEED", "not-a-number")
        assert run_cli("cool", "--config", small_config) == 2
        assert "SIDEBAND_LIMIT_SEED" in capsys.readouterr().err
