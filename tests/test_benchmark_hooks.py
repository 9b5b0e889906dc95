"""The benchmark's traced run still reaches every layer it measures.

``perfbench/traced.py`` times the program by wrapping module globals of
``sidebandlimit.cli`` and ``sidebandlimit.pipeline``.  A refactor that
stops calling a layer through its global leaves that layer unmeasured
without failing anything else, so this runs the traced steps on a small
curve and checks the spans they record.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID_HZ = [700.0, 2100.0, 6300.0, 15000.0, 30000.0]
DETUNINGS_HZ = [-1.62e6, -0.5e6]
LAYERS = (
    "config.load",
    "curve",
    "pipeline.plan",
    "synth.synthesize",
    "io.write",
    "io.read",
    "analysis.fit",
    "pipeline.reduce",
)
# every module global that traced.install wraps, by the span's call field
CALLS = (
    "load_config",
    "run_cooling_curve",
    "analyze_spectrum_files",
    "write_points_csv",
    "write_report_json",
    "detuning_sweep_summary",
    "plan_curve",
    "synthesize_spectrum",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "fit_sidebands",
    "analyze_outcomes",
    "systematics_biases",
)
# spans that enclose layer calls rather than measure one
ENCLOSING = ("step", "curve")


def test_traced_run_covers_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "detunings_hz": DETUNINGS_HZ,
                "gamma_opt_grid_hz": GRID_HZ,
                "synthesis": {"n_avg_base": 6000.0},
                "seed": 11,
            }
        )
    )
    out = tmp_path / "out"
    common = ["--config", str(config), "--jobs", "1"]
    spec = {
        "src": str(ROOT / "src"),
        "spans": str(tmp_path / "spans.json"),
        "steps": [
            ["cool", *common, "--save-spectra", "--out", str(out)],
            ["fit", *common, "--out", str(out / "refit"),
             f"glob:{out}/cool_*/spectra/point_*.csv"],
            ["sweep", *common, "--out", str(out)],
        ],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(tmp_path / "spec.json")],
        check=True,
        capture_output=True,
    )
    traced = json.loads((tmp_path / "spans.json").read_text())
    assert traced["codes"] == [0, 0, 0]

    spans = traced["spans"]
    names = [s["name"] for s in spans]
    for layer in LAYERS:
        assert layer in names, f"no {layer} span"
    # a layer can hold several calls, so each wrapped call must record its own
    calls = [s.get("call") for s in spans]
    for call in CALLS:
        assert call in calls, f"no span from {call}"
    # sweep, the third step, tabulates its curves once, through cli's global
    assert [s["step"] for s in spans if s.get("call") == "detuning_sweep_summary"] == [2]
    # cool, fit on its spectra, then one curve per detuning
    assert names.count("analysis.fit") == len(GRID_HZ) * (2 + len(DETUNINGS_HZ))
    # cool and sweep synthesize and plan; fit reads what cool saved
    assert names.count("synth.synthesize") == len(GRID_HZ) * (1 + len(DETUNINGS_HZ))
    assert names.count("io.read") == len(GRID_HZ)
    assert names.count("pipeline.plan") == 1 + len(DETUNINGS_HZ)
    for span in spans:
        if span["name"] in ENCLOSING or span["parent"] is None:
            continue
        parent = spans[span["parent"]]["name"]
        assert parent in ENCLOSING, f"{span['name']} span inside {parent}"
