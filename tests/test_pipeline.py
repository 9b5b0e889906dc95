"""Tests for cooling-curve planning and orchestration."""

import functools
import math
import pickle
import time
from concurrent.futures import Executor
from dataclasses import replace

import numpy as np
import pytest

from sidebandlimit import pipeline
from sidebandlimit.analysis import fit_cooling_curve
from sidebandlimit.config import default_config, from_dict
from sidebandlimit.physics import (
    SystemParams,
    backaction_limit,
    sideband_ratio,
    steady_state_occupation,
    thermal_occupation,
)
from sidebandlimit.pipeline import (
    N_AVG_OCCUPATION_CAP,
    CurveRun,
    analyze_outcomes,
    detuning_sweep_summary,
    plan_curve,
    record_point,
    run_cooling_curve,
    run_point,
    run_points,
    systematics_biases,
)
from sidebandlimit.spectra import BINS_PER_LINEWIDTH, SPAN_LINEWIDTHS, acquisition_grid

from test_analysis import GRID_FULL_HZ, _fabricated_ratios

TWO_PI = 2.0 * math.pi


@pytest.fixture
def config():
    return from_dict(
        {
            "gamma_opt_grid_hz": [700.0, 2100.0, 6300.0, 15000.0, 30000.0],
            "synthesis": {"n_avg_base": 800.0},
        }
    )


@pytest.fixture
def reducible_config(config):
    """The five-point curve averaged enough to reduce on any seed.

    At n_avg_base 800 the strong-drive sidebands fail their visibility
    check on most seeds, which leaves fewer than the 4 fits the reduction
    needs; at 3200 every seed tried reduces.
    """
    return replace(config, synthesis=replace(config.synthesis, n_avg_base=3200.0))


@pytest.fixture
def many_curves():
    """Thirty default curves: far more than two workers and their call queue
    of three can hold, so a pool that is left early has curves to cancel."""
    return from_dict({"detunings_hz": [-0.5e6 - 0.07e6 * i for i in range(30)]})


class TestPlanCurve:
    def test_plans_follow_the_grid(self, config):
        plans = plan_curve(config, config.detunings_hz[0], master_seed=1)
        assert [p.gamma_opt_hz for p in plans] == list(config.gamma_opt_grid_hz)
        params = config.system_params()
        n0 = thermal_occupation(0.36, params.omega_m)
        n_ba = 0.1782615949282616  # closed form at -1.62 MHz
        for plan in plans:
            assert plan.model.n_bar == pytest.approx(
                steady_state_occupation(
                    n0, params.gamma_0, n_ba, TWO_PI * plan.gamma_opt_hz
                ),
                rel=1e-9,
            )

    def test_averaging_schedule_scales_with_occupation(self, config):
        plans = plan_curve(config, config.detunings_hz[0], master_seed=1)
        base = config.synthesis.n_avg_base
        for plan in plans:
            factor = min(plan.model.n_bar + 1.0, N_AVG_OCCUPATION_CAP + 1.0) ** 2
            assert plan.n_avg == math.ceil(base * factor)
        # stronger drive -> lower occupation -> less averaging
        assert plans[-1].n_avg < plans[0].n_avg

    def test_grid_resolution_tracks_linewidth(self, config):
        plans = plan_curve(config, config.detunings_hz[0], master_seed=1)
        for plan in plans:
            f_lo, resolution, grid_bins, _ = acquisition_grid(plan.model)
            assert resolution == pytest.approx(plan.model.gamma_eff / BINS_PER_LINEWIDTH)
            margin = SPAN_LINEWIDTHS * plan.model.gamma_eff
            assert -f_lo >= plan.model.omega_m + 0.99 * margin
            # the grid is symmetric: its last bin sits at exactly -f_lo
            last = f_lo + (grid_bins - 1) * resolution
            assert last == -f_lo

    def test_recorded_bins_do_not_grow_as_lines_narrow(self):
        # weakest (1 Hz) and strongest (30 kHz) drive of the default curve
        plans = plan_curve(default_config(), -1.62e6, master_seed=1)
        grids = [acquisition_grid(p.model) for p in plans]
        (_, _, weak_bins, weak), (_, _, _, strong) = grids[0], grids[-1]
        assert weak_bins > 1000 * weak.size
        assert weak.size < 3 * strong.size
        assert sum(grid[3].size for grid in grids) < 250_000

    def test_recorded_spans_mirror_about_the_beat_note(self, config):
        for plan in plan_curve(config, config.detunings_hz[0], master_seed=1):
            model = plan.model
            f_lo, resolution, grid_bins, index = acquisition_grid(model)
            grid = np.arange(grid_bins)
            freqs = f_lo + resolution * grid
            near = (SPAN_LINEWIDTHS - 1) * model.gamma_eff
            span = grid[np.abs(np.abs(freqs) - model.omega_m) <= near]
            # every bin of both spans is stored, and so is its mirror image
            assert np.isin(span, index).all()
            assert np.isin(grid_bins - 1 - span, index).all()

    def test_recorded_bins_lie_within_the_spans(self):
        # nothing is recorded beyond the two spans around the sidebands
        config = default_config()
        most = 2 * (2 * SPAN_LINEWIDTHS * BINS_PER_LINEWIDTH + 1)
        for index, detuning_hz in enumerate(config.detunings_hz):
            for plan in plan_curve(config, detuning_hz, 1, index):
                model = plan.model
                f_lo, resolution, _, bins = acquisition_grid(model)
                freqs = f_lo + resolution * bins
                half = SPAN_LINEWIDTHS * model.gamma_eff
                from_line = np.abs(np.abs(freqs) - model.omega_m)
                assert from_line.max() <= half + 1e-6 * resolution
                assert bins.size <= most

    def test_noiseless_plans(self, config):
        plans = plan_curve(config, config.detunings_hz[0], 1, noiseless=True)
        assert all(math.isinf(p.n_avg) for p in plans)

    def test_point_streams_are_independent(self, config):
        plans = plan_curve(config, config.detunings_hz[0], master_seed=1)
        a = record_point(plans[3])
        b = record_point(plans[4])
        assert a.n_bins != b.n_bins or not np.array_equal(a.psd, b.psd)
        again = record_point(plans[3])
        assert np.array_equal(a.psd, again.psd)

    def test_plans_pickle_small(self):
        # a queued sweep holds every plan of every curve in the parent until
        # its point is done, so a plan must not carry its grid's bins
        config = default_config()
        for index, detuning_hz in enumerate(config.detunings_hz):
            for plan in plan_curve(config, detuning_hz, 1, index):
                assert len(pickle.dumps(plan)) < 2048

    def test_detuning_index_changes_streams(self, config):
        detuning_hz = config.detunings_hz[0]
        a = plan_curve(config, detuning_hz, master_seed=1, detuning_index=0)
        b = plan_curve(config, detuning_hz, master_seed=1, detuning_index=1)
        sa = record_point(a[0])
        sb = record_point(b[0])
        assert not np.array_equal(sa.psd, sb.psd)


class _RecordingPool(Executor):
    """An in-process stand-in for ProcessPoolExecutor that logs each submit
    and each result read."""

    log: list = []

    def __init__(self, max_workers):
        pass

    def submit(self, task, *args):
        self.log.append("submit")
        return _Done(self.log, task(*args))


class _Done:
    def __init__(self, log, value):
        self.log, self.value = log, value

    def result(self, timeout=None):
        self.log.append("result")
        return self.value

    def cancel(self):
        return False


def _fail_or_mark(item, marks):
    if item == 0:
        raise ValueError("first task fails")
    time.sleep(0.05)
    (marks / f"{item}").touch()


class TestRunCoolingCurve:
    def test_results_deterministic_across_jobs(self, reducible_config):
        config = reducible_config
        detuning_hz = config.detunings_hz[0]
        (one,) = run_cooling_curve(config, [(0, detuning_hz)], master_seed=4)
        (two,) = run_cooling_curve(config, [(0, detuning_hz)], master_seed=4, jobs=2)
        assert one.curve.n_ba_fit == two.curve.n_ba_fit
        assert one.curve.n0_fit == two.curve.n0_fit
        assert one.curve.s_hat == two.curve.s_hat

    def test_every_curve_is_queued_before_any_result_is_read(
        self, reducible_config, monkeypatch
    ):
        config = reducible_config
        curves = list(enumerate(config.detunings_hz[:2]))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "log", [])
        runs = run_cooling_curve(config, curves, master_seed=4, jobs=2)
        assert _RecordingPool.log == ["submit"] * len(curves) + ["result"] * len(curves)
        # each curve keeps its own detuning index, so its own streams
        for (index, detuning_hz), run in zip(curves, runs):
            (alone,) = run_cooling_curve(config, [(index, detuning_hz)], master_seed=4)
            assert run.detuning_hz == detuning_hz
            assert run.curve.n_ba_fit == alone.curve.n_ba_fit

    def test_raising_task_cancels_queued_tasks(self, tmp_path):
        # without cancelling, leaving the pool would wait for all 40 tasks
        items = range(41)
        with pytest.raises(ValueError, match="first task fails"):
            list(run_points(functools.partial(_fail_or_mark, marks=tmp_path), items, jobs=2))
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(items) // 2

    def test_failing_point_cancels_later_curves(self, many_curves, tmp_path):
        # every point of curve 0 raises, as its spectra directory is a file;
        # only the curves a worker holds or its call queue has taken still
        # run, and leaving the pool cancels the rest
        config = many_curves
        curves = list(enumerate(config.detunings_hz))
        blocked, written = tmp_path / "blocked", tmp_path / "written"
        blocked.touch()
        dirs = [str(blocked)] + [str(written / f"d{index}") for index, _ in curves[1:]]
        with pytest.raises(FileExistsError):
            run_cooling_curve(config, curves, 4, spectra_dirs=dirs, jobs=2)
        ran = len(list(written.glob("d*/*.csv")))
        assert ran < (len(curves) - 1) * len(config.gamma_opt_grid_hz) // 2

    def test_raising_reduction_cancels_queued_points(self, many_curves, tmp_path, monkeypatch):
        # curve 0 raises on reduction, in its worker, while the pool holds
        # the later curves; leaving the pool cancels those not yet taken
        def fail(outcomes, config, detuning_hz, seed):
            raise ValueError("reduction interrupted")

        monkeypatch.setattr(pipeline, "reduce_curve", fail)
        config = many_curves
        curves = list(enumerate(config.detunings_hz))
        dirs = [str(tmp_path / f"d{index}") for index, _ in curves]
        # the kept traceback keeps run_cooling_curve's frame alive, so only
        # an explicit shutdown, not garbage collection, can stop the pool here
        with pytest.raises(ValueError, match="reduction interrupted") as raised:
            run_cooling_curve(config, curves, 4, spectra_dirs=dirs, jobs=2)
        ran = len(list(tmp_path.glob("d*/*.csv")))
        assert ran < len(curves) * len(config.gamma_opt_grid_hz) // 2
        # the pool is shut down: no worker writes another file
        time.sleep(0.2)
        assert len(list(tmp_path.glob("d*/*.csv"))) == ran
        assert raised.tb is not None

    def test_reports_systematics_biases(self, reducible_config):
        config = reducible_config
        detuning_hz = config.detunings_hz[0]
        (run,) = run_cooling_curve(config, [(0, detuning_hz)], master_seed=4)
        laser, substrate = systematics_biases(config, detuning_hz, 30e3)
        assert run.bias_laser == pytest.approx(laser)
        assert run.bias_substrate == pytest.approx(substrate)
        assert abs(laser) == pytest.approx(0.006, abs=2e-3)
        assert abs(substrate) == pytest.approx(0.006, abs=2e-3)

    def test_laser_channel_is_the_calibrated_constant(self):
        # The laser channel depends on the noise levels alone: the reference
        # levels give exactly the calibrated 0.006 phonons at every detuning.
        config = default_config()
        for detuning_hz in config.detunings_hz:
            assert systematics_biases(config, detuning_hz, 30e3)[0] == 0.006


class TestAnalyzeOutcomes:
    def test_fit_without_a_ratio_is_flagged_not_fatal(self):
        # a fitted amplitude at its bound of 0 measures no ratio: the point
        # is carried flagged and the curve is fitted from the others
        grid = [700.0, 1400.0, 2800.0, 6300.0, 15000.0, 30000.0]
        config = from_dict({"gamma_opt_grid_hz": grid})
        plans = plan_curve(config, -1.62e6, master_seed=1, noiseless=True)
        outcomes = [run_point(plan) for plan in plans]
        for i, amplitude in ((1, "amp_stokes"), (4, "amp_antistokes")):
            fit = replace(outcomes[i].fit, **{amplitude: 0.0})
            outcomes[i] = replace(outcomes[i], fit=fit)
        occupation, curve, _ = analyze_outcomes(outcomes, config.system_params())
        for i, point in enumerate(occupation):
            if i in (1, 4):
                assert point.flags == ("unphysical_ratio",)
                assert math.isnan(point.n_bar) and math.isnan(point.sigma_n)
            else:
                assert not point.flags
        assert curve.n_ba_fit == pytest.approx(0.1782615949282616, rel=1e-4)


class TestDetuningSweepSummary:
    # closed-form floors for the five standard detunings (independent
    # arithmetic on the susceptibility quotient, in MHz where 2 pi cancels)
    EXPECTED = {
        -0.5e6: 2.6504 / 2.96,
        -1.0e6: 1.9204 / 5.92,
        -1.62e6: 1.7096 / 9.5904,
        -1.97e6: 1.9301 / 11.6624,
        -2.5e6: 2.7304 / 14.8,
    }
    OMEGA_M_HZ = 1.48e6

    @classmethod
    def _run_for(cls, delta_hz):
        """A reduced curve fitted to the noiseless ratios of the rate equation."""
        params = SystemParams.from_hz(2.6e6, cls.OMEGA_M_HZ, 0.18, 0.04)
        n0 = thermal_occupation(0.36, params.omega_m)
        delta = TWO_PI * delta_hz
        n_ba = backaction_limit(delta, params)
        series = _fabricated_ratios(
            params, n0, n_ba, GRID_FULL_HZ, 0.0, s=sideband_ratio(delta, params)
        )
        curve = fit_cooling_curve(*series, params.gamma_0, params.omega_m)
        return CurveRun(delta_hz, None, (), (), curve, curve.flags, n_ba_predicted=n_ba)

    def test_five_point_sweep_tracks_closed_form(self):
        runs = [self._run_for(d) for d in self.EXPECTED]
        summary = detuning_sweep_summary(runs, self.OMEGA_M_HZ)
        assert [row["detuning_hz"] for row in summary["rows"]] == sorted(self.EXPECTED)
        for row in summary["rows"]:
            expected = self.EXPECTED[row["detuning_hz"]]
            assert row["n_ba_predicted"] == pytest.approx(expected, rel=1e-10)
            assert row["min_n_bar"] == pytest.approx(expected, rel=2e-2)
        # global minimum at the grid point nearest the optimal detuning
        assert summary["global_min_detuning_hz"] == pytest.approx(-1.97e6)

    def test_near_divergence_flagged(self):
        run = self._run_for(-0.05e6)
        assert run.n_ba_predicted == pytest.approx(3.7349 / 0.296, rel=1e-10)  # = 12.618
        summary = detuning_sweep_summary([run], self.OMEGA_M_HZ)
        assert "near_divergence" in summary["rows"][0]["flags"]
        assert "degenerate_sweep" in summary["flags"]

    def test_single_detuning_is_degenerate_but_valid(self):
        summary = detuning_sweep_summary([self._run_for(-1.62e6)], self.OMEGA_M_HZ)
        assert len(summary["rows"]) == 1
        assert summary["global_min_detuning_hz"] == -1.62e6


class TestModuleDefaults:
    def test_default_config_matches_reference_device(self):
        config = default_config()
        assert config.system.kappa_hz == 2.6e6
        assert config.system.omega_m_hz == 1.48e6
        assert config.system.gamma_0_hz == 0.18
        assert config.system.efficiency == 0.04
        assert config.bath_temperature_k == 0.36
        assert len(config.gamma_opt_grid_hz) == 20
        assert config.gamma_opt_grid_hz[0] == pytest.approx(1.0)
        assert config.gamma_opt_grid_hz[-1] == pytest.approx(30000.0)
        assert -1.62e6 in config.detunings_hz
        assert -1.97e6 in config.detunings_hz
