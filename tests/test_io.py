"""Tests for file schemas: spectra CSV, points CSV, reports, hashing."""

import io
import math

import numpy as np
import pytest

from sidebandlimit.io import (
    _CHUNK_ROWS,
    POINTS_COLUMNS,
    SPECTRUM_COLUMNS_V2,
    SchemaError,
    config_hash,
    read_spectrum_csv,
    write_points_csv,
    write_spectrum_csv,
)
from sidebandlimit.spectra import HeterodyneSpectrum

from points_csv import read_points_csv
from spectrum_v1 import write_v1_csv


@pytest.fixture
def spectrum():
    rng = np.random.default_rng(5)
    return HeterodyneSpectrum(
        f_lo=-1.23456789e7,
        resolution=987.654321,
        psd=1.0 + rng.random(400),
        n_avg=250.0,
    )


class TestSpectrumFiles:
    def test_round_trip_is_bit_exact(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum, {"gamma_opt_hz": 300.0, "seed": 7})
        back, metadata = read_spectrum_csv(path)
        assert np.array_equal(back.psd, spectrum.psd)
        assert back.f_lo == spectrum.f_lo
        assert back.resolution == spectrum.resolution
        assert back.n_avg == spectrum.n_avg
        assert metadata["gamma_opt_hz"] == "300.0"
        assert metadata["seed"] == "7"

    def test_header_schema_is_pinned(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum, {"gamma_opt_hz": 300.0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# sidebandlimit-spectrum v2 ")
        assert lines[1] == SPECTRUM_COLUMNS_V2

    def test_v1_file_reads_as_its_v2_record(self, tmp_path, spectrum):
        # v1 is still read: a hand-written full-grid file gives the record,
        # bit for bit, that the file written from it as v2 gives
        v1, v2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        write_v1_csv(v1, spectrum, {"gamma_opt_hz": 300.0})
        write_spectrum_csv(v2, spectrum, {"gamma_opt_hz": 300.0})
        (from_v1, meta_v1), (from_v2, meta_v2) = read_spectrum_csv(v1), read_spectrum_csv(v2)
        assert from_v2.psd.tobytes() == spectrum.psd.tobytes()
        for name in ("psd", "index"):
            one, two = getattr(from_v1, name), getattr(from_v2, name)
            assert one.dtype == two.dtype and one.tobytes() == two.tobytes()
        for name in ("f_lo", "resolution", "n_avg", "grid_bins"):
            assert getattr(from_v1, name) == getattr(from_v2, name) == getattr(spectrum, name)
        assert meta_v1 == {k: v for k, v in meta_v2.items() if k != "grid_bins"}

    def test_missing_header_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,psd_sn\n1.0,1.0\n")
        with pytest.raises(SchemaError, match=r"bad\.csv:1"):
            read_spectrum_csv(path)

    def test_wrong_columns_line_number(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum)
        lines = path.read_text().splitlines()
        lines[1] = "frequency,power"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"spec\.csv:2"):
            read_spectrum_csv(path)

    def test_missing_required_metadata_named(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum)
        text = path.read_text().replace(" n_avg=250.0", "")
        path.write_text(text)
        with pytest.raises(SchemaError, match="n_avg"):
            read_spectrum_csv(path)

    def test_malformed_metadata_value_named(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum)
        text = path.read_text().replace(" resolution_rad=987.654321", " resolution_rad=1e3Hz")
        path.write_text(text)
        with pytest.raises(SchemaError, match=r"spec\.csv:1: malformed metadata value for 'resolution_rad'"):
            read_spectrum_csv(path)

    def test_repeated_metadata_key_named(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum, {"seed": 8})
        path.write_text(path.read_text().replace(" seed=8", " seed=8 seed=7"))
        with pytest.raises(SchemaError, match=r"spec\.csv:1: metadata key 'seed' appears twice"):
            read_spectrum_csv(path)

    def test_truncated_data_detected(self, tmp_path, spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spectrum)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(SchemaError, match="data rows"):
            read_spectrum_csv(path)


@pytest.fixture
def sparse_spectrum():
    rng = np.random.default_rng(6)
    index = np.concatenate([np.arange(40, 90), np.arange(300, 3000, 97), np.arange(3910, 3960)])
    return HeterodyneSpectrum(
        f_lo=-1.23456789e7,
        resolution=987.654321,
        psd=1.0 + rng.random(index.size),
        n_avg=250.0,
        index=index,
        grid_bins=4001,
    )


class TestSparseSpectrumFiles:
    def test_round_trip_is_bit_exact(self, tmp_path, sparse_spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, sparse_spectrum, {"gamma_opt_hz": 300.0})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# sidebandlimit-spectrum v2 ")
        assert lines[1] == SPECTRUM_COLUMNS_V2
        assert lines[2].startswith("40,")
        back, metadata = read_spectrum_csv(path)
        assert np.array_equal(back.psd, sparse_spectrum.psd)
        assert np.array_equal(back.index, sparse_spectrum.index)
        assert back.grid_bins == 4001
        assert back.f_lo == sparse_spectrum.f_lo
        assert back.resolution == sparse_spectrum.resolution
        assert back.n_avg == sparse_spectrum.n_avg
        assert metadata["gamma_opt_hz"] == "300.0"

    def test_non_integer_bin_rejected(self, tmp_path, sparse_spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, sparse_spectrum)
        lines = path.read_text().splitlines()
        lines[2] = "40.5" + lines[2][2:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="integers"):
            read_spectrum_csv(path)

    def test_bin_outside_grid_rejected(self, tmp_path, sparse_spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, sparse_spectrum)
        path.write_text(path.read_text().replace("grid_bins=4001", "grid_bins=3000"))
        with pytest.raises(SchemaError, match=r"spec\.csv:3"):
            read_spectrum_csv(path)

    def test_missing_grid_extent_named(self, tmp_path, sparse_spectrum):
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, sparse_spectrum)
        path.write_text(path.read_text().replace(" grid_bins=4001", ""))
        with pytest.raises(SchemaError, match="grid_bins"):
            read_spectrum_csv(path)


# psd values at the edges of the double range, each written in several rows
EDGE_PSD = [0.0, 5e-324, 1e-300, 0.1, 1e308]


def _edge_psd(size, seed):
    psd = 10.0 ** np.random.default_rng(seed).uniform(-300.0, 300.0, size)
    psd[: len(EDGE_PSD)] = EDGE_PSD
    psd[size // 2 : size // 2 + len(EDGE_PSD)] = EDGE_PSD
    psd[-len(EDGE_PSD) :] = EDGE_PSD
    return psd


class TestSpectrumBytes:
    """The spectrum writer against np.savetxt's bytes, the format it replaced."""

    @staticmethod
    def _data_rows(path, columns, fmt):
        written = path.read_text().split("\n", 2)[2]
        reference = io.StringIO()
        np.savetxt(reference, np.column_stack(columns), fmt=fmt, delimiter=",")
        return written, reference.getvalue()

    def test_full_record_matches_savetxt(self, tmp_path):
        size = 2 * _CHUNK_ROWS + 77
        spectrum = HeterodyneSpectrum(
            f_lo=-1.23456789e7, resolution=987.654321, psd=_edge_psd(size, 8), n_avg=250.0
        )
        path = tmp_path / "full.csv"
        write_spectrum_csv(path, spectrum)
        written, reference = self._data_rows(
            path,
            [np.arange(size), spectrum.frequencies / (2.0 * math.pi), spectrum.psd],
            ["%d", "%.17g", "%.17g"],
        )
        assert written.count("\n") == size
        assert written == reference

    def test_zoomed_record_matches_savetxt(self, tmp_path):
        size = 2 * _CHUNK_ROWS + 77
        index = np.concatenate([np.arange(100, 100 + size - 3), 2**31 + np.arange(3) * 5])
        spectrum = HeterodyneSpectrum(
            f_lo=-1.5e9,
            resolution=1.5,
            psd=_edge_psd(size, 9),
            n_avg=250.0,
            index=index,
            grid_bins=2**31 + 20,
        )
        path = tmp_path / "zoomed.csv"
        write_spectrum_csv(path, spectrum)
        written, reference = self._data_rows(
            path,
            [spectrum.index, spectrum.frequencies / (2.0 * math.pi), spectrum.psd],
            ["%d", "%.17g", "%.17g"],
        )
        assert written.count("\n") == size
        assert written.splitlines()[-1].startswith(f"{2**31 + 10},")
        assert written == reference


class TestPointsFiles:
    def test_round_trip(self, tmp_path):
        rows = [
            dict(gamma_opt_hz=1.0, n_bar=773.25, sigma_n=2.5, flags=()),
            dict(gamma_opt_hz=30.0, n_bar=math.nan, sigma_n=math.nan,
                 flags=("unphysical_ratio",)),
        ]
        path = tmp_path / "points.csv"
        write_points_csv(path, rows)
        assert path.read_text().splitlines()[0] == POINTS_COLUMNS
        back = read_points_csv(path)
        assert back[0]["n_bar"] == 773.25
        assert back[1]["flags"] == ("unphysical_ratio",)
        assert math.isnan(back[1]["n_bar"])

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(POINTS_COLUMNS + "\n1.0,2.0\n")
        with pytest.raises(SchemaError, match=r"points\.csv:2"):
            read_points_csv(path)


class TestConfigHash:
    def test_stable_and_order_independent(self):
        a = {"x": 1.5, "y": [1, 2, 3], "z": {"k": "v"}}
        b = {"z": {"k": "v"}, "y": [1, 2, 3], "x": 1.5}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16

    def test_sensitive_to_values(self):
        assert config_hash({"x": 1.0}) != config_hash({"x": 1.0000001})
