"""Write every output of a fixed command matrix, so two source trees can be diffed.

Usage::

    python3 tools/output_tree.py SRC OUT
    python3 tools/output_tree.py compare A B

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

Where a change moves fitted numbers on purpose, the compare form states
by how much::

    python3 tools/output_tree.py compare /tmp/a /tmp/b

It reads every JSON and CSV file of both trees as numbers in a fixed
layout and prints the largest relative move of any number, the largest
move of a fitted floor (``estimates.n_ba`` of each ``summary.json``) in
units of A's ``uncertainties.sigma_n_ba``, and every other file that
differs or is in one tree only.  It exits 0 when the trees are identical
and 1 when any file differs.
"""

from __future__ import annotations

import glob
import json
import math
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


def _layout(value, numbers: list[float]):
    """``value`` with each number replaced by "#" and appended to ``numbers``."""
    if isinstance(value, dict):
        return {key: _layout(item, numbers) for key, item in value.items()}
    if isinstance(value, list):
        return [_layout(item, numbers) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
        return "#"
    return value


def _cell(text: str, numbers: list[float]) -> str:
    try:
        numbers.append(float(text))
    except ValueError:
        return text
    return "#"


def read_numbers(path: Path) -> tuple[object, list[float]]:
    """A JSON or CSV file's layout, with its numbers as "#", and the numbers in order."""
    numbers: list[float] = []
    text = path.read_text()
    if path.suffix == ".json":
        return _layout(json.loads(text), numbers), numbers
    rows = [[_cell(cell, numbers) for cell in line.split(",")] for line in text.splitlines()]
    return rows, numbers


def relative_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a and not math.isnan(b) else math.inf


def floor_move(a: Path, b: Path) -> float:
    """|n_ba(B) - n_ba(A)| in units of A's sigma_n_ba; 0 where a summary has no floor."""
    old, new = (json.loads(p.read_text()) for p in (a, b))
    try:
        shift = new["estimates"]["n_ba"] - old["estimates"]["n_ba"]
        return abs(shift) / old["uncertainties"]["sigma_n_ba"]
    except (KeyError, TypeError, ZeroDivisionError):
        return 0.0


def compare(a: Path, b: Path) -> int:
    """Print how the files of tree ``b`` differ from those of ``a``; 1 if any does."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    moves, floors, other = [(0.0, "-")], [(0.0, "-")], []
    for name in sorted(files):
        left, right = a / name, b / name
        if not (left.is_file() and right.is_file()):
            other.append(f"only in {'A' if left.is_file() else 'B'}: {name}")
            continue
        if left.read_bytes() == right.read_bytes():
            continue
        if name.suffix in (".json", ".csv"):
            (layout, old), (new_layout, new) = read_numbers(left), read_numbers(right)
            if layout == new_layout:
                moves.append((max(map(relative_move, old, new), default=0.0), str(name)))
                if name.name == "summary.json":
                    floors.append((floor_move(left, right), str(name)))
                continue
        other.append(f"differs: {name}")
    print(f"files: {len(files)}, {len(moves) - 1} differ by number only, "
          f"{len(other)} otherwise")
    print("largest relative move: %.3g (%s)" % max(moves))
    print("largest floor move: %.3g sigma_n_ba (%s)" % max(floors))
    for line in other:
        print(line)
    return int(len(moves) > 1 or bool(other))


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return compare(Path(sys.argv[2]), Path(sys.argv[3]))
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
