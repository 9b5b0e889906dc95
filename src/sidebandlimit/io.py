"""CSV and JSON schemas for spectra, points and reports.

All files are deterministic for a given configuration and seed: spectrum
floats are written as ``%.17g`` (17 significant digits, enough to read
every double back exactly), other floats as their round-trip ``repr``,
JSON keys are sorted, and no timestamps or environment details are
embedded.  Oscillator time series, the time-domain oracle's input, stay
in memory and have no file format.

Spectrum CSV schema (one file per spectrum).  A record that stores only
some bins of its grid -- the two sideband spans a zoomed acquisition
keeps -- is written as v2, with the grid bin of each row::

    # sidebandlimit-spectrum v2 key=value key=value ...
    bin,frequency_hz,psd_sn
    110954,-1.6199...e6,1.0023...

A record that stores every bin of its grid is written as v1, without the
bin column (row ``i`` is bin ``i``)::

    # sidebandlimit-spectrum v1 key=value key=value ...
    frequency_hz,psd_sn
    -1.6199...e6,1.0023...

Both versions are read.  The header metadata carries the exact grid
(``f_lo_rad``, ``resolution_rad``, and for v2 ``grid_bins``), the
averaging count, the number of rows (``n_bins``) and the drive context
(``gamma_opt_hz``, ``detuning_hz``), so an analysis of the file is
bit-identical to an analysis of the in-memory spectrum it was written
from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from sidebandlimit.physics import TWO_PI
from sidebandlimit.spectra import HeterodyneSpectrum

SPECTRUM_MAGIC = "sidebandlimit-spectrum v1"
SPECTRUM_MAGIC_V2 = "sidebandlimit-spectrum v2"
SPECTRUM_COLUMNS = "frequency_hz,psd_sn"
SPECTRUM_COLUMNS_V2 = "bin,frequency_hz,psd_sn"
POINTS_COLUMNS = "gamma_opt_hz,n_bar,sigma_n,flags"
SWEEP_COLUMNS = "detuning_hz,min_n_bar,sigma,n_ba_predicted,flags"
# Spectrum rows are formatted this many at a time, which bounds the Python
# objects alive at once whatever the record's length (chunks of 512 rows
# raised the peak resident set of a save by about 0.3 MiB).
_CHUNK_ROWS = 128


class SchemaError(ValueError):
    """A file does not conform to the documented schema."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message

    def __reduce__(self):
        # rebuilt from its parts when a worker process raises it
        return type(self), (self.path, self.line, self.message)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_metadata(metadata: Mapping[str, Any]) -> str:
    parts = [f"{key}={_format_value(metadata[key])}" for key in sorted(metadata)]
    return " ".join(parts)


def _parse_metadata(path, line: str) -> tuple[str, dict[str, str]]:
    """Header magic and ``key=value`` items of a spectrum file's first line."""
    if not line.startswith("#"):
        raise SchemaError(path, 1, "missing metadata header line")
    words = line[1:].split()
    magic = " ".join(words[:2])
    if magic not in (SPECTRUM_MAGIC, SPECTRUM_MAGIC_V2):
        raise SchemaError(
            path, 1, f"expected header magic '{SPECTRUM_MAGIC}' or '{SPECTRUM_MAGIC_V2}'"
        )
    metadata: dict[str, str] = {}
    for item in words[2:]:
        if "=" not in item:
            raise SchemaError(path, 1, f"malformed metadata item {item!r}")
        key, value = item.split("=", 1)
        metadata[key] = value
    return magic, metadata


def metadata_number(path, metadata: Mapping[str, str], key: str, kind: type = float):
    """Header value ``key`` as a ``kind``; a missing or malformed value names its key."""
    if key not in metadata:
        raise SchemaError(path, 1, f"missing required metadata key {key!r}")
    try:
        return kind(metadata[key])
    except ValueError as exc:
        raise SchemaError(path, 1, f"malformed metadata value for {key!r}: {exc}") from exc


def _open(path):
    """A spectrum file opened for reading; one that cannot be is a schema error."""
    try:
        return Path(path).open("r")
    except OSError as exc:
        raise SchemaError(path, None, f"cannot read ({exc.strerror})") from exc


def read_spectrum_header(path) -> dict[str, str]:
    """The ``key=value`` items of a spectrum file's header, without reading its rows."""
    with _open(path) as handle:
        return _parse_metadata(path, handle.readline())[1]


def write_spectrum_csv(
    path, spectrum: HeterodyneSpectrum, metadata: Mapping[str, Any] | None = None
) -> None:
    """Write a spectrum with its exact grid and context in the header.

    A record storing its whole grid is written as v1, any other as v2.
    """
    full = spectrum.n_bins == spectrum.grid_bins
    meta = dict(metadata or {})
    meta.update(
        f_lo_rad=float(spectrum.f_lo),
        resolution_rad=float(spectrum.resolution),
        n_avg=float(spectrum.n_avg),
        n_bins=spectrum.n_bins,
    )
    columns = [spectrum.frequencies / TWO_PI, spectrum.psd]
    row = "%.17g,%.17g\n"
    if full:
        magic, header = SPECTRUM_MAGIC, SPECTRUM_COLUMNS
    else:
        magic, header = SPECTRUM_MAGIC_V2, SPECTRUM_COLUMNS_V2
        meta["grid_bins"] = spectrum.grid_bins
        columns.insert(0, spectrum.index)
        row = "%d," + row
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# {magic} {_format_metadata(meta)}\n")
        handle.write(header + "\n")
        for start in range(0, spectrum.n_bins, _CHUNK_ROWS):
            cells = (column[start : start + _CHUNK_ROWS].tolist() for column in columns)
            handle.write("".join(map(row.__mod__, zip(*cells))))


def read_spectrum_csv(path) -> tuple[HeterodyneSpectrum, dict[str, str]]:
    """Read a v1 or v2 spectrum file, validating the schema with line numbers."""
    path = Path(path)
    with _open(path) as handle:
        magic, metadata = _parse_metadata(path, handle.readline())
        v2 = magic == SPECTRUM_MAGIC_V2
        expected = SPECTRUM_COLUMNS_V2 if v2 else SPECTRUM_COLUMNS
        columns = handle.readline().strip()
        if columns != expected:
            raise SchemaError(
                path, 2, f"expected column header {expected!r}, got {columns!r}"
            )
        try:
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SchemaError(path, None, f"malformed data row: {exc}") from exc

    f_lo = metadata_number(path, metadata, "f_lo_rad")
    resolution = metadata_number(path, metadata, "resolution_rad")
    n_avg = metadata_number(path, metadata, "n_avg")
    n_bins = metadata_number(path, metadata, "n_bins", int)
    grid_bins = metadata_number(path, metadata, "grid_bins", int) if v2 else None
    if table.shape[0] != n_bins:
        raise SchemaError(
            path,
            3,
            f"expected {n_bins} data rows per metadata, found {table.shape[0]}",
        )
    n_columns = expected.count(",") + 1
    if table.shape[1] != n_columns:
        raise SchemaError(path, 3, f"expected exactly {n_columns} columns")
    index = None
    if v2:
        index = table[:, 0].astype(np.int64)
        if not np.array_equal(index, table[:, 0]):
            raise SchemaError(path, 3, "bin column must hold integers")
    try:
        spectrum = HeterodyneSpectrum(
            f_lo=f_lo,
            resolution=resolution,
            psd=table[:, -1].copy(),
            n_avg=n_avg,
            index=index,
            grid_bins=grid_bins,
        )
    except ValueError as exc:
        raise SchemaError(path, 3, str(exc)) from exc
    # The frequency column is displayed in Hz; verify it matches the grid.
    expected_hz = spectrum.frequencies / TWO_PI
    if not np.allclose(table[:, -2], expected_hz, rtol=1e-9, atol=0.0):
        raise SchemaError(path, 3, "frequency column does not match the header grid")
    return spectrum, metadata


def write_points_csv(
    path, rows: Iterable[Mapping[str, Any]], columns: str = POINTS_COLUMNS
) -> None:
    """Write a results table: per-point thermometry, or a sweep's per-curve rows.

    Each row carries the named ``columns``: values with round-trip
    ``repr``, and ``flags`` as a semicolon-joined string (empty when clean).
    """
    names = columns.split(",")
    with Path(path).open("w") as handle:
        handle.write(columns + "\n")
        for row in rows:
            cells = (";".join(row.get(n, ())) if n == "flags" else repr(row[n]) for n in names)
            handle.write(",".join(cells) + "\n")


def write_report_json(path, report: Mapping[str, Any]) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def config_hash(config_dict: Mapping[str, Any]) -> str:
    """Stable short hash of a configuration dictionary."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
