"""Reader for ``points.csv``, the per-point thermometry table.

The program only writes this file; tests read it back to check what was
written.
"""

from pathlib import Path
from typing import Any

from sidebandlimit.io import POINTS_COLUMNS, SchemaError


def read_points_csv(path) -> list[dict[str, Any]]:
    path = Path(path)
    rows: list[dict[str, Any]] = []
    with path.open("r") as handle:
        header = handle.readline().strip()
        if header != POINTS_COLUMNS:
            raise SchemaError(path, 1, f"expected header {POINTS_COLUMNS!r}")
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise SchemaError(path, number, "expected 4 comma-separated fields")
            try:
                rows.append(
                    dict(
                        gamma_opt_hz=float(parts[0]),
                        n_bar=float(parts[1]),
                        sigma_n=float(parts[2]),
                        flags=tuple(f for f in parts[3].split(";") if f),
                    )
                )
            except ValueError as exc:
                raise SchemaError(path, number, f"malformed number: {exc}") from exc
    return rows
