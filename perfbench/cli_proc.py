"""Run one ``sideband-limit`` command and record when its set-up ended.

Usage::

    python3 cli_proc.py TIMINGS_JSON SRC_DIR [--setup-only] CLI_ARGS...

This is the ``sideband-limit`` console script with two clock readings
added from outside the package: set-up ends once ``sidebandlimit.cli`` is
imported and the ``--config`` file is loaded, and the command ends when
``main`` returns.  Both readings are ``time.monotonic()``, which is one
system-wide clock on Linux, so the parent can subtract its own launch
time.  ``--setup-only`` stops after set-up.
"""

import json
import sys
import time


def run() -> int:
    timings_path, src, *argv = sys.argv[1:]
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    sys.path.insert(0, src)
    from sidebandlimit.cli import main
    from sidebandlimit.config import load_config

    load_config(argv[argv.index("--config") + 1])
    setup_done = time.monotonic()
    rc = 0 if setup_only else main(argv)
    end = time.monotonic()
    with open(timings_path, "w") as handle:
        json.dump({"setup_done": setup_done, "end": end}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(run())
