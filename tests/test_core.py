import re

import numpy as np
import pytest

from modecast.core import (
    DataError,
    Decomposition,
    MinMaxScale,
    TimeSeries,
    derive_seed,
    load_csv,
    minmax_normalize,
    spawn_rng,
)
from modecast.decomposition import EemdConfig, SiftConfig, SiftStats
from modecast.dtw import point_distance
from modecast.grouping import GroupingConfig, TrainingSet
from modecast.pipeline import ForecastResult, FrameworkSpec
from modecast.predictors import PredictorConfig, TrainedModel


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

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "nan", "\u20031"],
                             ids=["underscore", "arabic-indic-digit", "nan", "em-space"])
    def test_only_plain_decimal_text_is_a_number(self, tmp_path, cell):
        path = tmp_path / "odd.csv"
        path.write_text(f"value\n1\n{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"row 3, column 1: cannot parse {cell!r}")):
            load_csv(path, has_header=True)

    def test_plain_decimal_forms_load(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text(" +1.5e3 ,\t-2.\n.25,x\n-0,x\n7E-1,x\n", encoding="utf-8")
        assert load_csv(path).values.tolist() == [1500.0, 0.25, -0.0, 0.7]

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

    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    def test_byte_order_mark_before_a_value_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("10\n20\n", encoding="utf-8-sig")
        assert load_csv(path).values.tolist() == [10.0, 20.0]

    def test_byte_order_mark_before_a_header_is_skipped(self, tmp_path):
        path = tmp_path / "bom_named.csv"
        path.write_text("year,tonnes\n1996,10\n1997,20\n", encoding="utf-8-sig")
        assert load_csv(path, column="year", has_header=True).values.tolist() == [1996.0, 1997.0]


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
        assert scale == MinMaxScale(5.0, 5.0)  # degeneracy is derived, not given

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


class TestDecomposition:
    def test_length_is_the_residuals(self):
        residual = TimeSeries([0.0, 0.5, 1.0])
        assert Decomposition((TimeSeries([1.0, -1.0, 1.0]),), residual).source_length == 3
        with pytest.raises(ValueError, match="imf 2 length 2 != source length 3"):
            Decomposition((TimeSeries([1.0, -1.0, 1.0]), TimeSeries([1.0, -1.0])), residual)

    def test_names_follow_components(self):
        residual = TimeSeries([0.0, 0.5, 1.0])
        imfs = (TimeSeries([1.0, -1.0, 1.0]), TimeSeries([0.5, 0.0, -0.5]))
        assert Decomposition(imfs, residual).names() == ["imf_1", "imf_2", "residual"]
        assert Decomposition((), residual).names() == ["residual"]

    def test_sift_stats_count_the_imfs(self):
        """One sift record per IMF, or None; a record is neither compared
        nor shown."""
        residual = TimeSeries([0.0, 0.5, 1.0])
        imfs = (TimeSeries([1.0, -1.0, 1.0]),)
        record = SiftStats(iterations=3, sd_at_stop=0.1, converged=True, stop_reason="sd")
        kept = Decomposition(imfs, residual, sift_stats=(record,))
        assert kept.sift_stats == (record,)
        assert kept == Decomposition(imfs, residual) and "sift_stats" not in repr(kept)
        assert Decomposition((), residual, sift_stats=()).sift_stats == ()
        for stats in ((), (record, record)):
            with pytest.raises(ValueError, match=f"^{len(stats)} sift_stats for 1 imfs$"):
                Decomposition(imfs, residual, sift_stats=stats)


def _model(**arrays):
    return TrainedModel(**{"kind": "BPNN", "input_length": 2, "hidden_units": 1,
                           "weights": np.zeros(5), **arrays})


def _training_set(**arrays):
    return TrainingSet(**{"inputs": np.zeros((3, 2)), "targets": np.zeros(3),
                          "offsets": [1, 2, 3], **arrays})


# per value type and array field: (the shape and dtype of the caller's
# array, the array the type keeps when built from it)
OWNERS = {
    "TimeSeries.values": ((4,), np.float64, lambda a: TimeSeries(a).values),
    "TrainingSet.inputs": ((3, 2), np.float64, lambda a: _training_set(inputs=a).inputs),
    "TrainingSet.targets": ((3,), np.float64, lambda a: _training_set(targets=a).targets),
    "TrainingSet.offsets": ((3,), np.int64, lambda a: _training_set(offsets=a).offsets),
    "TrainedModel.weights": ((5,), np.float64, lambda a: _model(weights=a).weights),
    "TrainedModel.training_loss_curve": (
        (6,), np.float64, lambda a: _model(training_loss_curve=a).training_loss_curve),
    "ForecastResult.per_component": (
        (4,), np.float64, lambda a: ForecastResult((("a", a),), {}).per_component[0][1]),
}


@pytest.mark.parametrize("shape, dtype, kept_from", OWNERS.values(), ids=OWNERS)
def test_value_types_keep_a_read_only_copy(shape, dtype, kept_from):
    """The type keeps its own read-only C-contiguous copy; the caller's
    C-contiguous array of the field's dtype stays writeable and unchanged."""
    given = np.arange(1, 1 + np.prod(shape), dtype=dtype).reshape(shape)
    kept = kept_from(given)
    assert given.flags.writeable
    assert np.array_equal(given, np.arange(1, 1 + np.prod(shape), dtype=dtype).reshape(shape))
    assert kept.dtype == dtype
    assert not np.shares_memory(kept, given)
    assert kept.tobytes() == given.tobytes() and kept.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        kept[...] = 0.0
    given[...] = 0.0
    assert kept.tobytes() != given.tobytes()


COUNTS = {
    "segment_length": lambda v: GroupingConfig(segment_length=v),
    "group_size": lambda v: GroupingConfig(group_size=v),
    "epochs": lambda v: PredictorConfig(epochs=v),
    "hidden_units": lambda v: PredictorConfig(hidden_units=v),
    "max_imfs": lambda v: SiftConfig(max_imfs=v),
    "max_sift_iterations": lambda v: SiftConfig(max_sift_iterations=v),
    "ensemble_size": lambda v: EemdConfig(ensemble_size=v),
    "horizon": lambda v: FrameworkSpec(horizon=v),
    "split P": lambda v: FrameworkSpec(split=(v, 2)),
}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_must_be_integers(name):
    """A count that is not an integer is a ValueError naming it when the
    config is built; numpy integers are integers, and a bool is not."""
    COUNTS[name](np.int64(4))
    for value in (4.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            COUNTS[name](value)


MINIMA = {"segment_length": 2, "group_size": 1, "epochs": 1, "hidden_units": 1, "max_imfs": 1,
          "max_sift_iterations": 1, "ensemble_size": 1, "horizon": 1, "split P": 0}


@pytest.mark.parametrize("name", COUNTS)
def test_counts_have_a_minimum(name):
    """A count below its minimum is a ValueError naming the count, its
    minimum and the value; the minimum itself is accepted."""
    low = MINIMA[name]
    COUNTS[name](low)
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        COUNTS[name](low - 1)


def test_split_must_be_a_pair():
    with pytest.raises(ValueError, match=r'split must be "auto" or a \(P, Q\) pair, got 3'):
        FrameworkSpec(split=3)
    with pytest.raises(ValueError, match="^split Q must be >= 1, got 0$"):
        FrameworkSpec(split=(1, 0))


REALS = {
    "dtw_weight": lambda v: GroupingConfig(dtw_weight=v),
    "threshold_alpha": lambda v: GroupingConfig(threshold_alpha=v),
    "sd_threshold": lambda v: SiftConfig(sd_threshold=v),
    "learning_rate": lambda v: PredictorConfig(learning_rate=v),
    "grnn_sigma": lambda v: PredictorConfig(grnn_sigma=v),
    "weight": lambda v: point_distance(1.0, 2.0, v),
}


@pytest.mark.parametrize("name", REALS)
def test_positive_reals_have_one_rule(name):
    """A positive real is any real number in (0, largest float], numpy's
    and integers included; a bool, a string, 0, a negative, NaN, an
    infinity and an integer beyond the float range are each a ValueError
    naming the field and the value."""
    for value in (np.float64(0.5), 2, 1e-3):
        REALS[name](value)
    for value in (True, False, "0.1", None, 0, -1.5, float("nan"), float("inf"),
                  -float("inf"), 10**400):
        message = f"{name} must be positive and finite, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            REALS[name](value)


def test_noise_amplitude_is_a_nonnegative_real():
    """The noise amplitude follows the positive reals' rule with 0 allowed:
    a bool, a string and None are each a ValueError, as a negative, NaN,
    an infinity and an integer beyond the float range are."""
    for value in (0, 0.0, np.float64(0.2), 1):
        EemdConfig(noise_amplitude=value)
    for value in (True, False, "0.2", None, -0.1, float("nan"), float("inf"), 10**400):
        message = f"noise_amplitude must be finite and >= 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EemdConfig(noise_amplitude=value)


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
