import numpy as np
import pytest

from modecast.grouping import TrainingSet, sliding_window_set
from modecast.core import TimeSeries
from modecast.predictors import (
    ForecastSession,
    PredictorConfig,
    TrainingDivergedError,
    gradient_check,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    train,
)


def make_set(inputs, targets):
    inputs = np.asarray(inputs, dtype=np.float64)
    return TrainingSet(
        inputs=inputs,
        targets=np.asarray(targets, dtype=np.float64),
        provenance=tuple((i + 1, 0.0) for i in range(inputs.shape[0])),
    )


def random_set(rng, n_pairs=4, length=3):
    return make_set(rng.normal(size=(n_pairs, length)), rng.normal(size=n_pairs))


class TestGrnn:
    def test_interpolation_limit(self):
        model = train(make_set([[0.0], [1.0]], [0.0, 1.0]),
                      PredictorConfig(kind="GRNN", grnn_sigma=0.01))
        assert abs(predict(model, [0.0])) < 1e-6

    def test_symmetric_midpoint(self):
        model = train(make_set([[0.0], [1.0]], [0.0, 1.0]),
                      PredictorConfig(kind="GRNN", grnn_sigma=0.01))
        assert predict(model, [0.5]) == 0.5

    def test_single_pair_returns_target(self):
        model = train(make_set([[3.0, 4.0]], [7.5]),
                      PredictorConfig(kind="GRNN", grnn_sigma=0.1))
        for query in ([0.0, 0.0], [100.0, -100.0], [3.0, 4.0]):
            assert predict(model, query) == 7.5

    def test_exact_interpolation_at_small_bandwidth(self):
        rng = np.random.default_rng(0)
        ts = random_set(rng, n_pairs=6, length=2)
        model = train(ts, PredictorConfig(kind="GRNN", grnn_sigma=1e-3))
        for x, y in zip(ts.inputs, ts.targets):
            assert predict(model, x) == pytest.approx(y, abs=1e-6)

    def test_convex_combination(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ts = random_set(rng, n_pairs=5, length=3)
            model = train(ts, PredictorConfig(kind="GRNN", grnn_sigma=0.5))
            q = rng.normal(size=3)
            value = predict(model, q)
            assert ts.targets.min() - 1e-12 <= value <= ts.targets.max() + 1e-12

    # 2 * sigma**2 must neither underflow to 0 (a 0/0 kernel) nor overflow
    @pytest.mark.parametrize("sigma", [1e-200, 5e-324, 1e200])
    def test_sigma_whose_square_leaves_the_float_range_is_rejected(self, sigma):
        with pytest.raises(ValueError, match="grnn_sigma squared"):
            PredictorConfig(kind="GRNN", grnn_sigma=sigma)

    def test_not_gradient_trained(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="not gradient-trained"):
            gradient_check(PredictorConfig(kind="GRNN"), random_set(rng))


class TestGradients:
    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN"])
    def test_two_pairs_three_hidden(self, kind):
        rng = np.random.default_rng(10)
        ts = random_set(rng, n_pairs=2, length=3)
        err = gradient_check(PredictorConfig(kind=kind, hidden_units=3, seed=5), ts)
        assert err < 1e-4

    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN"])
    def test_many_seeds(self, kind):
        rng = np.random.default_rng(11)
        for seed in range(10):
            ts = random_set(rng, n_pairs=4, length=3)
            err = gradient_check(PredictorConfig(kind=kind, hidden_units=3, seed=seed), ts)
            assert err < 1e-4, f"{kind} seed {seed}: {err}"


class TestTraining:
    def test_overfit_bpnn_recovers_targets(self):
        # 3-pair toy problem driven to near-zero loss
        ts = make_set([[0.0, 0.1], [0.5, 0.6], [1.0, 0.9]], [0.2, 0.5, 0.8])
        cfg = PredictorConfig(kind="BPNN", hidden_units=8, learning_rate=0.5,
                              epochs=12000, seed=3)
        model = train(ts, cfg)
        assert model.training_loss_curve[-1] < 1e-6
        for x, y in zip(ts.inputs, ts.targets):
            assert predict(model, x) == pytest.approx(y, abs=1e-2)

    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN", "GRNN"])
    def test_bit_for_bit_determinism(self, kind):
        rng = np.random.default_rng(4)
        ts = random_set(rng, n_pairs=5, length=3)
        cfg = PredictorConfig(kind=kind, hidden_units=4, epochs=50, seed=9)
        a = train(ts, cfg)
        b = train(ts, cfg)
        assert np.array_equal(a.weights, b.weights)
        q = rng.normal(size=3)
        assert predict(a, q) == predict(b, q)

    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN"])
    def test_loss_curve_finite_and_decreasing_overall(self, kind):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, 24)
        ts = sliding_window_set(TimeSeries(values), 4)
        model = train(ts, PredictorConfig(kind=kind, epochs=300, seed=2))
        curve = model.training_loss_curve
        assert np.all(np.isfinite(curve))
        assert curve[-1] <= curve[0]

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(6)
        ts = random_set(rng, n_pairs=4, length=3)
        cfg = PredictorConfig(kind="BPNN", learning_rate=1e12, epochs=200, seed=1)
        # RuntimeWarnings are errors in this suite: divergence must be silent
        with pytest.raises(TrainingDivergedError) as err:
            train(ts, cfg)
        assert err.value.learning_rate == 1e12
        assert err.value.epoch >= 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            make_set(np.zeros((0, 2)), [])


class TestPredict:
    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(7)
        ts = random_set(rng)
        model = train(ts, PredictorConfig(kind="WNN", epochs=50, seed=4))
        q = rng.normal(size=3)
        assert predict(model, q) == predict(model, q)

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        model = train(random_set(rng), PredictorConfig(kind="BPNN", epochs=10))
        with pytest.raises(ValueError, match="length"):
            predict(model, [1.0, 2.0])

    def test_enn_session_carries_context_within_not_across(self):
        rng = np.random.default_rng(9)
        ts = random_set(rng, n_pairs=6, length=3)
        model = train(ts, PredictorConfig(kind="ENN", epochs=100, seed=11))
        x1, x2 = rng.normal(size=3), rng.normal(size=3)

        session = ForecastSession(model)
        first = session.step(x1)
        second_with_context = session.step(x2)
        # a fresh session (or bare predict) starts from zero context
        assert first == predict(model, x1)
        assert second_with_context != predict(model, x2)
        fresh = ForecastSession(model)
        assert fresh.step(x1) == first

    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN", "GRNN"])
    def test_session_rejects_non_finite_input(self, kind):
        rng = np.random.default_rng(14)
        model = train(random_set(rng, n_pairs=6, length=3),
                      PredictorConfig(kind=kind, epochs=20, seed=11))
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        session = ForecastSession(model)
        session.step(x1)
        with pytest.raises(ValueError, match="input contains non-finite values"):
            session.step([np.nan, 1.0, 2.0])
        # the rejected step leaves the carried context as it was
        clean = ForecastSession(model)
        clean.step(x1)
        assert session.step(x2) == clean.step(x2)


class TestSaveLoad:
    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN", "GRNN"])
    def test_roundtrip(self, kind, tmp_path):
        rng = np.random.default_rng(12)
        ts = random_set(rng, n_pairs=5, length=3)
        model = train(ts, PredictorConfig(kind=kind, epochs=20, seed=13))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == model.kind
        assert np.array_equal(back.weights, model.weights)
        q = rng.normal(size=3)
        assert predict(back, q) == predict(model, q)

    def test_dict_roundtrip_preserves_scale(self):
        from modecast.core import MinMaxScale

        rng = np.random.default_rng(13)
        ts = random_set(rng)
        model = train(ts, PredictorConfig(kind="BPNN", epochs=10),
                      scale=MinMaxScale(lo=2.0, hi=6.0))
        back = model_from_dict(model_to_dict(model))
        assert back.scale.lo == 2.0 and back.scale.hi == 6.0
