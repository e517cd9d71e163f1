"""Tests for the sweep CSV export."""

import io

import pytest

from repro.core import Sweep, api
from repro.errors import ConfigurationError
from repro.machine import ideal


def tiny_sweep():
    return Sweep(
        ideal(nodes=2, cores_per_node=8),
        sizes=[4096, 8192],
        ranks=[4],
        algorithms=["scatter_ring_native", "scatter_ring_opt"],
    )


class TestCsv:
    def test_header_and_rows(self):
        text = tiny_sweep().to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("algorithm,nranks,nbytes,time_s,bandwidth_mib")
        assert len(lines) == 1 + 2 * 2  # header + algorithms x sizes

    def test_values_parse_back(self):
        sweep = tiny_sweep()
        text = sweep.to_csv()
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        for row in rows:
            algo, nranks, nbytes, time_s = row[0], int(row[1]), int(row[2]), float(row[3])
            rec = sweep.record(algo, nranks, nbytes)
            # .9e keeps 10 significant digits: round-trips to <1e-9 rel.
            assert time_s == pytest.approx(rec.time, rel=1e-9)

    def test_time_format_is_stable_scientific(self):
        text = tiny_sweep().to_csv()
        for line in text.strip().splitlines()[1:]:
            time_col = line.split(",")[3]
            mantissa, _, exponent = time_col.partition("e")
            assert len(mantissa) == 11 and exponent  # d.ddddddddde±dd
            assert float(time_col) > 0

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "sweep.csv"
        tiny_sweep().to_csv(str(path))
        assert path.read_text().startswith("algorithm,")

    def test_write_to_fileobj(self):
        buf = io.StringIO()
        tiny_sweep().to_csv(buf)
        assert buf.getvalue().startswith("algorithm,")

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            tiny_sweep().to_csv(42)

    def test_counts_split_sums(self):
        text = tiny_sweep().to_csv()
        for line in text.strip().splitlines()[1:]:
            cols = line.split(",")
            messages, intra, inter = int(cols[5]), int(cols[7]), int(cols[8])
            assert intra + inter == messages


class TestUniformEngineSchema:
    def test_engine_column_present(self):
        text = tiny_sweep().to_csv()
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "engine"
        for line in lines[1:]:
            assert line.split(",")[-1] in ("des", "replay")

    def test_mixed_engine_rows_share_schema(self, monkeypatch):
        # Rows produced by different engines must agree column-for-column:
        # same width, same header order, telemetry a given engine does not
        # collect rendered as zeros rather than dropped.
        replay_rows = tiny_sweep().to_csv().strip().splitlines()
        monkeypatch.setattr(api, "_is_static", lambda *a: False)
        des_rows = tiny_sweep().to_csv().strip().splitlines()
        assert replay_rows[0] == des_rows[0]  # identical header
        n_cols = len(replay_rows[0].split(","))
        for rep_line, des_line in zip(replay_rows[1:], des_rows[1:]):
            rep_cols, des_cols = rep_line.split(","), des_line.split(",")
            assert len(rep_cols) == len(des_cols) == n_cols
            # engine-independent columns are bitwise identical
            assert rep_cols[:9] == des_cols[:9]
        assert {line.split(",")[-1] for line in replay_rows[1:]} == {"replay"}
        assert {line.split(",")[-1] for line in des_rows[1:]} == {"des"}

    def test_csv_row_covers_every_field(self):
        sweep = tiny_sweep()
        rec = sweep.record("scatter_ring_opt", 4, 4096)
        row = Sweep.csv_row(rec)
        assert tuple(row) == Sweep.CSV_FIELDS
        assert all(isinstance(v, str) for v in row.values())
