"""End-to-end and per-layer benchmark of the ``sideband-limit`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload curve_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes

``--trace 0`` measures the end-to-end metrics.  A run starts with set-up
only launches of the CLI; the first is reported apart, the rest give
``setup_s`` samples.  Then warm repetitions run for about ``--seconds``,
at least one.  Every repetition is a fresh ``rep.py`` process that
launches the CLI steps as ``sideband-limit`` processes in a fresh output
directory, deleted afterwards.  The metrics are medians over them.

``--trace 1`` measures the per-layer metrics.  It runs the workload once
untraced, once untraced at the other ``--jobs`` value (1 or 2), and once
through ``traced.py``, the same CLI steps at ``--jobs 1`` with spans
around the package's public calls; all three must write identical files.
``--seconds`` does not apply to it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (point fits) and ``metrics``.  Results with run
conditions and spans are kept in ``.perfbench_out/``; scratch output goes
to ``.perfbench_tmp/``.  Both lie inside the checkout and are ignored by
git.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
RESULTS = ROOT / ".perfbench_out"
MIB = float(1 << 20)
# Set-up-only launches per --trace 0 run, after the first one.
SETUP_LAUNCHES = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "floor_sigma": "phonon",
}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _tree_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def run_conditions() -> dict:
    """Machine, versions and source revision, recorded with every result."""
    rev = None  # an exported checkout has no git metadata; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    mem_kib = next(
        int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
        if line.startswith("MemTotal:")
    )
    return {
        "git_rev": rev,
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_gib": mem_kib / MIB,
        "disk_free_gib": shutil.disk_usage(ROOT).free / (MIB * 1024),
    }


class Bench:
    """One workload: its config file, scratch space and launchers."""

    def __init__(self, workload, scratch: Path):
        from sidebandlimit.config import save_config

        self.workload = workload
        self.scratch = scratch
        self.config = workload.config()
        self.config_path = scratch / "config.json"
        save_config(self.config, self.config_path)

    def repetition(self, seed: int, jobs: int, setup_launches: int = 0) -> dict:
        """Run the workload's CLI steps once in a fresh rep.py process.

        With ``setup_launches`` it instead launches the first step that
        many times, each stopping after set-up.  The output directory is
        left for the caller to check and delete.
        """
        from workloads import summaries

        rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=self.scratch))
        out, logs = rep_dir / "out", rep_dir / "logs"
        logs.mkdir()
        steps = self.workload.steps(self.config_path, out, seed, jobs)
        if setup_launches:
            steps = [["--setup-only", *steps[0]]] * setup_launches
        spec = {
            "python": sys.executable,
            "cli_proc": str(HERE / "cli_proc.py"),
            "src": str(SRC),
            "logs": str(logs),
            "steps": steps,
        }
        (rep_dir / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(rep_dir / "spec.json")],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"rep.py exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        steps_run = result["steps"]
        ok = len(steps_run) == len(steps) and all(s["rc"] == 0 and "end" in s for s in steps_run)
        rep = {
            "dir": rep_dir,
            "out": out,
            "ok": ok,
            "setup_s": [s["setup_done"] - s["launch"] for s in steps_run if "setup_done" in s],
            "wall_s": sum(s["end"] - s["setup_done"] for s in steps_run if "end" in s),
            "peak_rss_mb": result["maxrss_kib"] * 1024 / MIB,
            "problems": [] if ok else [f"a CLI step failed; see {logs}"],
        }
        if ok and not setup_launches:
            try:
                rep["problems"] = self.workload.check(out)
                written = summaries(out)
            except (OSError, ValueError, KeyError) as exc:
                rep.update(ok=False, problems=[f"unreadable outputs: {exc!r}"])
                return rep
            rep["output_mb"] = _tree_bytes(out) / MIB
            rep["sigma_n_ba"] = [s["uncertainties"]["sigma_n_ba"] for s in written]
            rep["failed_points"] = sum(
                "fit_failed" in p["flags"] for s in written for p in s["points"]
            )
        return rep

    def traced(self, seed: int) -> dict:
        """The CLI steps at ``--jobs 1`` in one traced ``-X importtime`` process."""
        out = self.scratch / "traced"
        out.mkdir()
        spec = {
            "src": str(SRC),
            "spans": str(out / "spans.json"),
            "steps": self.workload.steps(self.config_path, out / "out", seed, 1),
        }
        (out / "spec.json").write_text(json.dumps(spec))
        stderr_path = out / "stderr.log"
        with stderr_path.open("w") as stderr:
            launch = time.monotonic()
            rc = subprocess.run(
                [sys.executable, "-X", "importtime", str(HERE / "traced.py"), str(out / "spec.json")],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            ).returncode
        if rc != 0:
            raise RuntimeError(f"traced run exited {rc}: {stderr_path.read_text()[-2000:]}")
        traced = json.loads((out / "spans.json").read_text())
        traced["launch"] = launch
        traced["deps_import_s"] = _deps_import_s(stderr_path.read_text())
        traced["out"] = out / "out"
        traced["ok"] = traced["codes"] == [0] * len(spec["steps"])
        return traced


def _deps_import_s(stderr: str) -> float:
    """numpy and scipy import time inside ``import sidebandlimit.cli``.

    ``-X importtime`` prints one line per module after its imports finish,
    indented by nesting depth.  Rebuild the tree and add the cumulative
    time of each numpy/scipy module whose importer is not one itself.
    """
    from traced import IMPORT_BEGIN, IMPORT_END

    lines = stderr.split(IMPORT_BEGIN, 1)[1].split(IMPORT_END, 1)[0].splitlines()
    pending: list[tuple[int, str, int, list]] = []
    for line in lines:
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def deps_us(node) -> int:
        _, name, cumulative, children = node
        if name.split(".")[0] in ("numpy", "scipy"):
            return cumulative
        return sum(deps_us(child) for child in children)

    return sum(deps_us(node) for node in pending) / 1e6


def _failed_points(rep: dict, per_rep: int) -> int:
    """A failed step or check fails every point of the repetition."""
    return per_rep if rep["problems"] or not rep["ok"] else rep["failed_points"]


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of repetition ``rep``: ``--seed`` itself, then a new input set each.

    Timings hardly depend on the seed, but ``floor_sigma`` does; averaging
    it over the repetitions' seeds steadies it.
    """
    return seed + 1_000_003 * rep


def end_to_end(bench: Bench, seed: int, seconds: float) -> dict:
    """Set-up launches, then warm repetitions for about ``seconds``.

    The run's first launch is the one that meets cold caches in a fresh
    checkout (bytecode not yet compiled, libraries not yet in the page
    cache), so every run reports its set-up time apart and leaves it out
    of ``setup_s``.  A further warm repetition starts while the time spent
    on repetitions plus half the last one is below ``seconds``.
    """
    workload = bench.workload
    per_rep = workload.points(bench.config)
    launches = bench.repetition(seed, workload.jobs, setup_launches=1 + SETUP_LAUNCHES)
    shutil.rmtree(launches["dir"])
    if not launches["ok"]:
        raise RuntimeError(f"set-up launches failed: {launches['problems']}")
    first_setup_s, *setup_samples = launches["setup_s"]
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start + reps[-1]["elapsed"] / 2 < seconds:
        began = time.monotonic()
        rep = bench.repetition(rep_seed(seed, len(reps)), workload.jobs)
        rep["elapsed"] = time.monotonic() - began
        shutil.rmtree(rep["dir"])
        reps.append(rep)
        setup_samples += rep["setup_s"]
    good = [rep for rep in reps if rep["ok"]]
    if not good:
        raise RuntimeError(f"no repetition succeeded: {reps[0]['problems']}")
    metrics = {
        "setup_s": _median(setup_samples),
        "wall_s": _median([rep["wall_s"] for rep in good]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in good]),
        "output_mb": _median([rep["output_mb"] for rep in good]),
        "floor_sigma": statistics.fmean(s for rep in good for s in rep["sigma_n_ba"]),
    }
    keys = ("wall_s", "setup_s", "peak_rss_mb", "output_mb", "ok")
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": per_rep * len(reps),
        "failed": sum(_failed_points(rep, per_rep) for rep in reps),
        "problems": [p for rep in reps for p in rep["problems"]],
        "first_setup_s": first_setup_s,
        "reps": [{k: rep.get(k) for k in keys} for rep in reps],
        "setup_samples": setup_samples,
    }


def per_layer(bench: Bench, seed: int) -> dict:
    """Untraced at --jobs 1 and 2, then traced; all three write the same files."""
    workload = bench.workload
    per_rep = workload.points(bench.config)
    first = bench.repetition(seed, workload.jobs)
    other = bench.repetition(seed, 2 if workload.jobs == 1 else 1)
    traced = bench.traced(seed)
    problems = first["problems"] + other["problems"]
    if not traced["ok"]:
        problems.append(f"a traced CLI step failed with exit codes {traced['codes']}")
    if first["ok"]:
        expected = _tree_digest(first["out"])
        if other["ok"] and _tree_digest(other["out"]) != expected:
            problems.append("outputs depend on --jobs")
        if traced["ok"] and _tree_digest(traced["out"]) != expected:
            problems.append("the traced run's outputs differ from the untraced run's")
    shutil.rmtree(first["dir"])
    shutil.rmtree(other["dir"])

    serial, pooled = (first, other) if workload.jobs == 1 else (other, first)
    metrics = _layer_metrics(traced, serial["wall_s"], pooled["wall_s"])
    failed = sum(_failed_points(rep, per_rep) for rep in (first, other))
    failed += int(metrics["analysis.fit_failures"]["value"]) if traced["ok"] else per_rep
    return {
        "metrics": metrics,
        "attempted": 3 * per_rep,
        "failed": failed,
        "problems": problems,
        "untraced_wall_s": {"jobs1": serial["wall_s"], "jobs2": pooled["wall_s"]},
        "spans": traced["spans"],
    }


def _layer_metrics(traced: dict, wall_serial: float, wall_pooled: float) -> dict:
    spans = traced["spans"]

    def pick(name, **match):
        return [s for s in spans if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def busy(items):
        return sum(s["end"] - s["start"] for s in items)

    # Layer spans never nest in one another; "step" and "curve" enclose them.
    layers = [s for s in spans if s["name"] not in ("step", "curve")]
    work_s = busy(layers) - busy(pick("cli.import"))
    synth = pick("synth.synthesize")
    fits = pick("analysis.fit")
    fit_ms = [1e3 * (s["end"] - s["start"]) for s in fits]
    first_fits = pick("analysis.fit", source="synthesized")
    point_busy = busy(synth) + busy(pick("io.write", kind="spectrum")) + busy(first_fits)
    # Point phase at --jobs 2, taking the rest of the run as the serial run's.
    point_phase = point_busy + wall_pooled - wall_serial
    writes = pick("io.write")
    reads = pick("io.read") + pick("config.load")  # every input file the CLI reads
    write_s, write_b = busy(writes), sum(s["bytes"] for s in writes)
    read_s, read_b = busy(reads), sum(s["bytes"] for s in reads)
    bins = sum(s["bins"] for s in synth)
    bins_fitted = sum(s.get("bins_used", 0) for s in first_fits)
    deps = traced["deps_import_s"]
    values = {
        "cli.deps_import_s": (deps, "s"),
        "cli.import_s": (busy(pick("cli.import")) - deps, "s"),
        "config.load_s": (busy(pick("config.load")), "s"),
        "pipeline.plan_s": (busy(pick("pipeline.plan")), "s"),
        "pipeline.reduce_s": (busy(pick("pipeline.reduce")), "s"),
        "pipeline.fanout_efficiency": (point_busy / (2 * point_phase), "ratio"),
        "pipeline.fanout_overhead_s": (point_phase - point_busy / 2, "s"),
        "synth.busy_s": (busy(synth), "s"),
        "synth.bins": (bins, "count"),
        "synth.ns_per_bin": (1e9 * busy(synth) / bins, "ns/bin"),
        "synth.max_spectrum_mb": (max(s["bytes"] for s in synth) / MIB, "MiB"),
        "analysis.fit_busy_s": (busy(fits), "s"),
        "analysis.fit_ms_per_point.p50": (statistics.median(fit_ms), "ms"),
        "analysis.fit_ms_per_point.tail": (statistics.quantiles(fit_ms, n=10)[-1], "ms"),
        "analysis.bins_fitted": (bins_fitted, "count"),
        "analysis.useful_bin_ratio": (bins_fitted / bins, "ratio"),
        "analysis.fit_failures": (sum(s["failed"] for s in fits), "count"),
        "analysis.reduced_chi2": (
            _median([s["reduced_chi2"] for s in fits if not s["failed"]]), "ratio"
        ),
        "io.write_s": (write_s, "s"),
        "io.write_mb": (write_b / MIB, "MiB"),
        "io.write_mb_per_s": (write_b / MIB / write_s, "MiB/s"),
        "io.read_s": (read_s, "s"),
        "io.read_mb_per_s": (read_b / MIB / read_s, "MiB/s"),
        "cli.residual_s": (wall_serial - work_s, "s"),
        "trace.coverage": (busy(layers) / (traced["end"] - traced["launch"]), "ratio"),
        "trace.overhead_s": (busy(pick("step")) - wall_serial, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    bench_scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    try:
        bench = Bench(WORKLOADS[name], bench_scratch)
        result = per_layer(bench, seed) if trace else end_to_end(bench, seed, seconds)
    finally:
        shutil.rmtree(bench_scratch, ignore_errors=True)
    result["correct"] = not result["problems"]
    return result


def _print_block(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.6g}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"   {metric:34s} {shown} {entry['unit']}")
    if "reps" in result:
        print(f"   first launch (not in setup_s; cold in a fresh checkout): "
              f"set-up {result['first_setup_s']:.6g} s")
        print(f"   {len(result['reps'])} warm repetitions, {len(result['setup_samples'])} set-up samples")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="curve_full, sweep_strong, refit_saved or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sidebandlimit" / "cli.py").is_file():
        print(f"error: no sidebandlimit sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    TMP.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    conditions = run_conditions()
    print("conditions:", json.dumps(conditions, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            result = run_workload(name, args.seed, args.seconds, trace)
            _print_block(f"{name} trace={int(trace)}", result)
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": int(trace), "conditions": conditions, **result}
            path = RESULTS / f"{name}_seed{args.seed}_trace{int(trace)}.json"
            path.write_text(json.dumps(record, indent=1, default=str))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
