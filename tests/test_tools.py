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
