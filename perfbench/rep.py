"""One benchmark repetition, run as a fresh process.

Usage::

    python3 rep.py SPEC_JSON

The spec names the interpreter, ``cli_proc.py``, the source directory, a
log directory and a list of CLI argument lists.  The steps run one after
another, each in its own ``sideband-limit`` process; a step whose
arguments hold ``glob:PATTERN`` gets the sorted matching paths there.  A
failed step ends the repetition.

Peak memory comes from ``getrusage(RUSAGE_CHILDREN)`` once every step has
been waited for.  Its ``ru_maxrss`` is the largest resident set of any
single descendant that has been waited for -- the CLI processes and the
pool workers they joined -- not the sum over processes that ran at the
same time.  This process starts fresh for each repetition, so no earlier
repetition's maximum leaks in, and it imports nothing large itself.
"""

import glob
import json
import resource
import subprocess
import sys
import time
from pathlib import Path


def expand(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        out.extend(sorted(glob.glob(arg[5:])) if arg.startswith("glob:") else [arg])
    return out


def run() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    logs = Path(spec["logs"])
    steps = []
    for i, argv in enumerate(spec["steps"]):
        timings = logs / f"step{i}.json"
        with open(logs / f"step{i}.log", "w") as log:
            launch = time.monotonic()
            rc = subprocess.run(
                [spec["python"], spec["cli_proc"], str(timings), spec["src"], *expand(argv)],
                stdout=log,
                stderr=subprocess.STDOUT,
            ).returncode
        step = {"rc": rc, "launch": launch}
        if timings.exists():
            step.update(json.loads(timings.read_text()))
        steps.append(step)
        if rc != 0:
            break
    maxrss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"steps": steps, "maxrss_kib": maxrss_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
