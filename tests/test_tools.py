"""Tests of the measurement scripts under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_floor_stats_is_identical_for_any_jobs(tmp_path):
    # seeds 1-2 at each default detuning, in this process and on two workers
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "floor_stats.py"), str(ROOT), str(out),
             "--seeds", "1-2", "--jobs", str(jobs)],
            check=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["seeds"] == [1, 2]
    assert [row["curves"] for row in report["detunings"]] == [2] * 5
    assert report["pooled"]["reduced"] == 10
    assert [row["fits"] for row in report["drives"]] == [10] * 20
    assert all(row["bins_fitted_mean"] > 0 for row in report["drives"])
    assert report["failed_fits"] == []


def test_output_tree_compare_reports_moves_by_number(tmp_path):
    def tree(name, n_ba, n_bar, stderr):
        root = tmp_path / name
        curve = root / "default" / "jobs1" / "cool" / "files" / "cool_-1620000Hz"
        curve.mkdir(parents=True)
        summary = {"estimates": {"n_ba": n_ba}, "flags": [],
                   "uncertainties": {"sigma_n_ba": 0.01}}
        (curve / "summary.json").write_text(json.dumps(summary))
        (curve / "points.csv").write_text(f"gamma_opt_hz,n_bar,flags\n1.0,{n_bar!r},\n")
        (root / "default" / "jobs1" / "cool" / "stderr").write_text(stderr)
        (root / "default" / "model").write_text("same\n")
        return root

    a = tree("a", 0.17, 750.0, "")
    b = tree("b", 0.1700001, 750.0015, "warning\n")
    (a / "only_a").write_text("")

    def compare(*trees):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "output_tree.py"), "compare", *map(str, trees)],
            capture_output=True, text=True,
        )

    done = compare(a, b)
    assert done.returncode == 1
    curve = "default/jobs1/cool/files/cool_-1620000Hz"
    assert done.stdout.splitlines() == [
        "files: 5, 2 differ by number only, 2 otherwise",
        f"largest relative move: 2e-06 ({curve}/points.csv)",
        f"largest floor move: 1e-05 sigma_n_ba ({curve}/summary.json)",
        "differs: default/jobs1/cool/stderr",
        "only in A: only_a",
    ]
    same = compare(a, a)
    assert same.returncode == 0
    assert same.stdout.splitlines()[0] == "files: 5, 0 differ by number only, 0 otherwise"
