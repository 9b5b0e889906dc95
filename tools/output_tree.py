"""Write every output of a fixed command matrix, so two source trees can be diffed.

Usage::

    python3 tools/output_tree.py SRC OUT

Runs ``sideband-limit`` from the tree at ``SRC`` (its ``src`` directory)
over a fixed matrix and writes the results under ``OUT``, which must not
exist yet.  The matrix is ``cool``, ``cool --save-spectra``, ``fit`` of
the saved spectra, ``cool --no-noise``, ``synth`` and ``sweep``, each at
``--jobs`` 1 and 2 with ``--seed 7``, plus ``model`` and ``model --json``,
on the default configuration (no ``--config``) and on the configurations
of the benchmark's workloads in ``SRC/perfbench/workloads.py``, and one
``init-config``.

Each command gets a directory ``OUT/<config>/jobs<N>/<command>`` holding
the files it wrote under ``files/`` plus ``exit_code``, ``stdout`` and
``stderr``; ``model`` records under ``OUT/<config>/<command>``, and
``init-config`` writes ``OUT/init-config/config.json`` beside its record.
Commands run with the directory above their record as the working
directory and take relative paths, so the printed paths match between
trees, and ``diff -r`` of two outputs compares everything::

    python3 tools/output_tree.py parent/ /tmp/a
    python3 tools/output_tree.py . /tmp/b
    diff -r /tmp/a /tmp/b && echo identical
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from pathlib import Path

SEED = "7"
JOBS = (1, 2)
# (directory, arguments); model takes no --seed, --jobs or --out
MODEL_COMMANDS = (("model", ["model"]), ("model_json", ["model", "--json"]))
# (directory, arguments after the command's --out); "fit" reads cool_save's spectra
COMMANDS = (
    ("cool", ["cool"]),
    ("cool_save", ["cool", "--save-spectra"]),
    ("fit", ["fit"]),
    ("cool_no_noise", ["cool", "--no-noise"]),
    ("synth", ["synth"]),
    ("sweep", ["sweep"]),
)


def workload_configs(src: Path, out: Path) -> dict[str, Path | None]:
    """The configuration file of each configuration name, None for the default.

    The workloads' configurations are written to ``out``.
    """
    sys.dont_write_bytecode = True  # leave no cache files in SRC
    sys.path[:0] = [str(src / "src"), str(src / "perfbench")]
    from sidebandlimit.config import save_config
    from workloads import WORKLOADS

    configs = {"default": None}
    for name, workload in WORKLOADS.items():
        configs[name] = out / f"{name}.json"
        save_config(workload.config(), configs[name])
    return configs


def run(cwd: Path, name: str, argv: list[str], env: dict) -> None:
    """Run one command in ``cwd`` and keep its exit code and streams in ``cwd/name``."""
    record = cwd / name
    record.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "sidebandlimit.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    (record / "exit_code").write_text(f"{done.returncode}\n")
    (record / "stdout").write_text(done.stdout)
    (record / "stderr").write_text(done.stderr)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    env.pop("SIDEBAND_LIMIT_SEED", None)
    run(out, "init-config", ["init-config", "init-config/config.json"], env)
    for config, path in workload_configs(src, out).items():
        (out / config).mkdir()
        for name, argv in MODEL_COMMANDS:
            config_args = [] if path is None else ["--config", f"../{path.name}"]
            run(out / config, name, [*argv, *config_args], env)
        for jobs in JOBS:
            cwd = out / config / f"jobs{jobs}"
            cwd.mkdir()
            config_args = [] if path is None else ["--config", f"../../{path.name}"]
            for name, (command, *flags) in COMMANDS:
                argv = [command, *config_args, "--seed", SEED, "--jobs", str(jobs),
                        "--out", f"{name}/files", *flags]
                if name == "fit":
                    argv += sorted(
                        os.path.relpath(p, cwd)
                        for p in glob.glob(str(cwd / "cool_save/files/cool_*/spectra/*.csv"))
                    )
                run(cwd, name, argv, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
