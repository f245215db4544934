import numpy as np
import pytest

from modecast.core import (
    DataError,
    TimeSeries,
    derive_seed,
    load_csv,
    minmax_normalize,
    spawn_rng,
    write_csv,
)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries([])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            TimeSeries([1.0, np.nan, 2.0])
        with pytest.raises(DataError):
            TimeSeries([1.0, np.inf])

    def test_labels_must_match_length(self):
        with pytest.raises(DataError):
            TimeSeries([1.0, 2.0], labels=["a"])

    def test_values_immutable(self):
        ts = TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestLoadCsv:
    def test_row_count_equals_length(self, tmp_path):
        path = tmp_path / "annual.csv"
        path.write_text("\n".join(f"{1996 + i},{8382 + 100 * i}" for i in range(21)) + "\n")
        series = load_csv(path, column=2)
        assert len(series) == 21
        assert series.labels[0] == "1996"
        assert series.values[0] == 8382.0

    def test_blank_cell_reports_row(self, tmp_path):
        rows = [f"{i},{i * 10}" for i in range(1, 11)]
        rows[6] = "7,"  # row 7 has an empty value cell
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 7"):
            load_csv(path, column=2)

    def test_bad_cell_reports_its_line_past_blank_rows(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("value\n1\n\n\n2\nx\n")
        with pytest.raises(DataError, match="row 6, column 1: cannot parse 'x'"):
            load_csv(path, has_header=True)

    @pytest.mark.parametrize("raw", [b"1\n\xff\n2\n", b'1\n"' + b"9" * 140_000 + b'"\n'],
                             ids=["not-utf8", "field-over-csv-limit"])
    def test_unreadable_file_is_data_error(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="cannot read .* as UTF-8 CSV"):
            load_csv(path)

    def test_table_actuals_fixture(self, data_dir):
        series = load_csv(data_dir / "vtf_table1_actuals.csv", column=2, has_header=True)
        assert series.values.tolist() == [34.0, 37.0, 36.0, 41.0, 48.0, 39.0, 38.0, 34.0]
        assert series.labels == tuple(str(t) for t in range(121, 129))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_column_by_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("year,tonnes\n1996,10\n1997,20\n")
        series = load_csv(path, column="tonnes", has_header=True)
        assert series.values.tolist() == [10.0, 20.0]

    def test_unknown_column_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("year,tonnes\n1996,10\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, column="vessels", has_header=True)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.normal(size=50) * rng.uniform(0.01, 1e6))
        path = tmp_path / "roundtrip.csv"
        write_csv(series, path)
        back = load_csv(path, column=1)
        assert np.array_equal(back.values, series.values)


class TestMinMax:
    def test_affine_endpoints(self):
        scaled, scale = minmax_normalize(TimeSeries([2.0, 4.0, 6.0]))
        assert scaled.values.tolist() == [0.0, 0.5, 1.0]
        assert (scale.lo, scale.hi) == (2.0, 6.0)
        assert not scale.degenerate

    def test_constant_maps_to_half(self):
        scaled, scale = minmax_normalize(TimeSeries([5.0, 5.0, 5.0]))
        assert scaled.values.tolist() == [0.5, 0.5, 0.5]
        assert scale.degenerate
        assert scale.inverse(np.array([0.1, 0.9])).tolist() == [5.0, 5.0]

    def test_range_beyond_float_is_data_error(self):
        with pytest.raises(DataError, match="exceeds the float range"):
            minmax_normalize(TimeSeries([-1e308, 1e308]))

    def test_inverse_beyond_float_is_data_error(self):
        _, scale = minmax_normalize(TimeSeries([-1.7e308, 0.0]))
        assert scale.inverse(np.array([0.0, 1.0])).tolist() == [-1.7e308, 0.0]
        with pytest.raises(DataError, match="beyond the float range"):
            scale.inverse(np.array([-0.1]))

    def test_roundtrip_identity(self):
        x = np.array([1.3, -2.7, 0.0])
        scaled, scale = minmax_normalize(TimeSeries(x))
        assert np.max(np.abs(scale.inverse(scaled.values) - x)) < 1e-12

    def test_roundtrip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-100, 100, rng.integers(2, 40))
            if x.max() == x.min():
                continue
            scaled, scale = minmax_normalize(TimeSeries(x))
            assert scaled.values.min() >= 0.0 and scaled.values.max() <= 1.0
            assert np.max(np.abs(scale.inverse(scaled.values) - x)) < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError):
            minmax_normalize(TimeSeries([1.0]))


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_spawn_rng_streams(self):
        a = spawn_rng(7, 0).normal(size=5)
        b = spawn_rng(7, 0).normal(size=5)
        c = spawn_rng(7, 1).normal(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
