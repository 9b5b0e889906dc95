"""Writer for v1 spectrum files, a format the program reads but no longer writes.

A v1 file stores every bin of its grid without the bin column: row ``i``
is bin ``i``.  Tests write one by hand to check what the reader makes of
it; the magic, the column header and the row format are spelled out here
rather than taken from the program.
"""

from pathlib import Path

import numpy as np

from sidebandlimit.physics import TWO_PI


def write_v1_csv(path, spectrum, metadata=None) -> None:
    """Write a full-grid ``spectrum`` as v1, header items sorted by key."""
    assert spectrum.n_bins == spectrum.grid_bins, "a v1 file stores every bin of its grid"
    meta = dict(
        metadata or {},
        f_lo_rad=float(spectrum.f_lo),
        resolution_rad=float(spectrum.resolution),
        n_avg=float(spectrum.n_avg),
        n_bins=spectrum.n_bins,
    )
    items = " ".join(
        f"{key}={meta[key]!r}" if isinstance(meta[key], float) else f"{key}={meta[key]}"
        for key in sorted(meta)
    )
    with Path(path).open("w") as handle:
        handle.write(f"# sidebandlimit-spectrum v1 {items}\n")
        handle.write("frequency_hz,psd_sn\n")
        rows = np.column_stack([spectrum.frequencies / TWO_PI, spectrum.psd])
        np.savetxt(handle, rows, fmt="%.17g", delimiter=",")
