"""Run a workload's CLI steps in one process, with spans around public calls.

Usage::

    python3 -X importtime traced.py SPEC_JSON

The spec names the source directory, the ``spans.json`` path and the CLI
argument lists (``glob:PATTERN`` arguments as in ``rep.py``).  The
process imports ``sidebandlimit.cli`` and then calls its ``main`` once per
step, at ``--jobs 1``, so the traced run is the real code path and writes
the same files as an untraced run.

Spans come from wrappers installed from outside the package, on the
module globals the CLI reaches its layers through::

    cli:      load_config, run_cooling_curve, analyze_spectrum_files,
              write_points_csv, write_report_json, detuning_sweep_summary
    pipeline: plan_curve, synthesize_spectrum, write_spectrum_csv,
              read_spectrum_csv, fit_sidebands, analyze_outcomes,
              systematics_biases

Each span (name, start, end, parent, step, curve id and counts) is kept
in memory and written to ``spans.json`` at the end.  A span inherits the
step and curve of the span open around it.  The numpy/scipy share of the
``cli.import`` span is read by the caller from the ``-X importtime``
lines between the two stderr markers.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from rep import expand

IMPORT_BEGIN = "@@perfbench import begin"
IMPORT_END = "@@perfbench import end"
INHERITED = ("step", "curve", "source")


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **fields):
        parent = self.spans[self._open[-1]] if self._open else {}
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **{k: parent[k] for k in INHERITED if k in parent},
            **fields,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None, **fields) -> None:
        """Replace ``module.attr`` by a spanned call.

        ``before(args, kwargs)`` and ``after(args, result)`` return fields
        for the span; ``after`` runs only when the call returns.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            extra = before(args, kwargs) if before else {}
            with self.span(name, call=attr, **fields, **extra) as record:
                result = inner(*args, **kwargs)
                if after is not None:
                    record.update(after(args, result))
                return result

        setattr(module, attr, spanned)


def _file_bytes(args, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _spectrum(args, spectrum) -> dict:
    return {"bins": spectrum.n_bins, "bytes": spectrum.psd.nbytes}


def _fit(args, fit) -> dict:
    return {"failed": 0, "bins_used": fit.n_bins_used, "reduced_chi2": fit.residual_norm}


def install(tracer: Tracer, cli, pipeline) -> None:
    """Wrap every layer call the CLI makes, from its module globals."""
    wrap = tracer.wrap
    wrap(cli, "load_config", "config.load", after=_file_bytes)
    wrap(cli, "run_cooling_curve", "curve", source="synthesized",
         before=lambda args, kwargs: {"curve": kwargs.get("detuning_index", 0)})
    wrap(cli, "analyze_spectrum_files", "curve", source="files", curve=0)
    wrap(cli, "write_points_csv", "io.write", after=_file_bytes, kind="points")
    wrap(cli, "write_report_json", "io.write", after=_file_bytes, kind="report")
    wrap(cli, "detuning_sweep_summary", "pipeline.reduce")
    wrap(pipeline, "plan_curve", "pipeline.plan")
    wrap(pipeline, "synthesize_spectrum", "synth.synthesize", after=_spectrum)
    wrap(pipeline, "write_spectrum_csv", "io.write", after=_file_bytes, kind="spectrum")
    wrap(pipeline, "read_spectrum_csv", "io.read", after=_file_bytes, kind="spectrum")
    # An AnalysisError raised by the fit leaves the span at failed=1.
    wrap(pipeline, "fit_sidebands", "analysis.fit", after=_fit, failed=1)
    wrap(pipeline, "analyze_outcomes", "pipeline.reduce")
    wrap(pipeline, "systematics_biases", "pipeline.reduce")


def run() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = Tracer()
    sys.path.insert(0, spec["src"])
    print(IMPORT_BEGIN, file=sys.stderr, flush=True)
    with tracer.span("cli.import"):
        import sidebandlimit.cli as cli
    print(IMPORT_END, file=sys.stderr, flush=True)

    from sidebandlimit import pipeline

    install(tracer, cli, pipeline)
    codes = []
    for step, argv in enumerate(spec["steps"]):
        with tracer.span("step", step=step):
            codes.append(cli.main(expand(argv)))
        if codes[-1] != 0:
            break
    end = time.monotonic()
    Path(spec["spans"]).write_text(json.dumps({"end": end, "codes": codes, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
