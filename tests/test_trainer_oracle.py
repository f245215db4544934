"""The flat-buffer trainer against the frozen pre-rewrite trainer in
``legacy_trainer``: weights, loss curves, predictions, session steps and
finite-difference checks must be bit-identical."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import legacy_trainer as legacy
from conftest import enn_contexts, recurrence_sigmoid
from modecast import predictors
from modecast.grouping import TrainingSet
from modecast.predictors import (
    _BLOCK,
    ForecastSession,
    PredictorConfig,
    TrainedModel,
    TrainingDivergedError,
    _descend,
    _descent_layout,
    _enn_context,
    _init_params,
    _mse,
    _objective,
    _rows,
    _sigmoid,
    _views,
    gradient_check,
    predict,
    train,
    train_many,
)


@st.composite
def problems(draw, learning_rates):
    kind = draw(st.sampled_from(["BPNN", "WNN", "ENN"]))
    n = draw(st.integers(1, 12))
    length = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    training_set = TrainingSet(
        inputs=rng.normal(size=(n, length)),
        targets=rng.normal(size=n),
        # shuffled offsets, so ENN's presentation order differs from row order
        offsets=rng.permutation(n) + 1,
    )
    cfg = PredictorConfig(
        kind=kind,
        hidden_units=draw(st.integers(1, 5)),
        learning_rate=draw(learning_rates),
        epochs=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**16)),
    )
    queries = rng.normal(size=(3, length))
    return training_set, cfg, queries


def six_pair_problem(kind, seed):
    """Six pairs of length 3 and one hidden unit, drawn from ``seed``. At
    the seeds of the examples below, a former form of the layer gives a
    loss and gradient whose bits differ, on OpenBLAS's SkylakeX kernel,
    from the oracle's: at BPNN 165 and ENN 89 the bias outside the
    products (``x @ W.T + b`` and ``gb = dz.sum(axis=0)``, against ``[x |
    1] @ [W | b].T`` and ``dz.T @ [x | 1]``), and at ENN 246 the ENN layer
    as two products (``[x | 1] @ [Wx | b].T + contexts @ Wh.T``, against
    ``[contexts | x | 1 | 0] @ [Wh | Wx | b | 0].T``)."""
    rng = np.random.default_rng(seed)
    training_set = TrainingSet(inputs=rng.normal(size=(6, 3)), targets=rng.normal(size=6),
                               offsets=np.arange(1, 7))
    cfg = PredictorConfig(kind=kind, hidden_units=1, learning_rate=0.05, epochs=1, seed=seed)
    return training_set, cfg, rng.normal(size=(3, 3))


def run_both(training_set, cfg):
    """(legacy outcome, new outcome): a (weights, curve) pair, or the
    divergence epoch."""
    try:
        old = legacy.train(training_set, cfg)
    except ValueError as err:
        old = err.args[0]
    try:
        model = train(training_set, cfg)
        new = (model.weights, model.training_loss_curve)
    except TrainingDivergedError as err:
        model, new = None, err.epoch
    return old, new, model


class TestTrainerOracle:
    @settings(deadline=None, max_examples=60)
    @given(problems(st.floats(1e-3, 1.0)))
    def test_train_predict_session_gradcheck_match(self, problem):
        training_set, cfg, queries = problem
        old, new, model = run_both(training_set, cfg)
        if model is None:
            assert old == new
            return
        old_weights, old_curve = old
        assert np.array_equal(model.weights, old_weights)
        assert np.array_equal(model.training_loss_curve, old_curve)
        l, h = model.input_length, model.hidden_units
        for q in queries:
            assert predict(model, q) == legacy.predict(cfg.kind, old_weights, l, h, q)
        session = ForecastSession(model)
        assert ([session.step(q) for q in queries]
                == legacy.session_steps(cfg.kind, old_weights, l, h, queries))
        assert gradient_check(cfg, training_set) == legacy.gradient_check(cfg, training_set)

    @settings(deadline=None, max_examples=60)
    @given(problems(st.just(0.05)))
    @example(six_pair_problem("BPNN", 165))
    @example(six_pair_problem("ENN", 89))
    @example(six_pair_problem("ENN", 246))
    def test_one_evaluation_matches(self, problem):
        """Loss, gradient and ENN context trajectory at the seeded start, of
        the stacked objective over one model."""
        training_set, cfg, _ = problem
        kind, l, h = cfg.kind, training_set.input_length, cfg.hidden_units
        x, y = legacy._pairs(kind, training_set)
        flat = _init_params(cfg, l)
        assert np.array_equal(flat, legacy._init_params(cfg, l))
        # the objective runs on stacks of models in the descent layout: here
        # a stack of one
        params, positions = _descent_layout(kind, flat[None], l, h)
        grad = np.full(params.shape, np.nan)
        err = np.full((1, y.size), np.nan)
        loss_grad, fill = _objective(kind, params, grad, x[None], y[None], l, h)
        fill()
        loss_grad(err)
        loss, grad = _mse(err)[0], grad[0, positions]
        kwargs = {}
        if kind == "ENN":
            contexts = legacy._enn_context(legacy._unpack(kind, flat, l, h), x)
            assert np.array_equal(enn_contexts(flat, x, h), contexts)
            kwargs["contexts"] = contexts
        old_loss, old_grad = legacy._LOSS_GRAD[kind](flat, x, y, l, h, **kwargs)
        assert loss == old_loss
        assert np.array_equal(grad, old_grad)

    @settings(deadline=None, max_examples=30)
    @given(problems(st.sampled_from([1e2, 1e4, 1e8, 1e12])))
    def test_divergent_rates_match(self, problem):
        training_set, cfg, _ = problem
        old, new, model = run_both(training_set, cfg)
        if model is None:
            assert old == new
        else:
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


def _same_floats(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestSigmoidOracle:
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_matches_oracle_sigmoid(self, z):
        assert _same_floats(_sigmoid(z), legacy._sigmoid(z))

    def test_signed_zeros_infinities_nan(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 745.0, -745.0])
        assert _same_floats(_sigmoid(z), legacy._sigmoid(z))


class TestEnnContextOracle:
    """``_enn_context`` over a group of K models against the frozen
    per-pair recurrence of each model alone; weights scaled by 1e3 drive
    the sigmoid deep into both tails."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), st.integers(1, 120),
           st.sampled_from([1.0, 1e3]), st.integers(0, 2**32 - 1))
    @example(74, 8, 8, 128, 1.0, 0)  # the slow group of the full golden call
    def test_fill_matches_and_follows_the_weights(self, k, l, h, n, scale, seed):
        rng = np.random.default_rng(seed)
        flat = rng.uniform(-0.5, 0.5, (k, predictors.weight_count("ENN", l, h))) * scale
        x = rng.uniform(0.0, 1.0, (k, n, l))
        params, positions = _descent_layout("ENN", flat, l, h)
        a = _views("ENN", params, l, h, fold=True)["A"]
        rows = _rows(x, a.shape[-1], h)
        rows[:, 1:, :h] = np.nan  # row 0's context is the zero of ``_rows``
        fill = _enn_context(a, rows)
        for _ in range(2):  # the second call sees weights changed in place
            fill()
            for model, pairs, filled in zip(flat, x, rows):
                expected = legacy._enn_context(legacy._unpack("ENN", model, l, h), pairs)
                assert np.array_equal(filled[:, :h], expected)
            flat -= rng.uniform(0.0, 0.1, flat.shape) * scale
            params[:, positions] = flat

    @settings(deadline=None, max_examples=10)
    @given(st.integers(2, 120), st.sampled_from([1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_group_of_three_matches_lone_training(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        sets = [TrainingSet(inputs=rng.uniform(0.0, 1.0, (n, 8)) * scale,
                            targets=rng.uniform(0.0, 1.0, n),
                            offsets=rng.permutation(n) + 1)
                for _ in range(3)]
        cfgs = [PredictorConfig(kind="ENN", hidden_units=8, epochs=12, seed=int(s))
                for s in rng.integers(0, 2**16, 3)]
        for training_set, cfg, model in zip(sets, cfgs, train_many(sets, cfgs)):
            old_weights, old_curve = legacy.train(training_set, cfg)
            assert np.array_equal(model.weights, old_weights)
            assert np.array_equal(model.training_loss_curve, old_curve)


class TestSessionContext:
    """``ForecastSession.step`` carries its context exactly as training
    computes it: after steps 0..t on the first rows of ``x``, the session's
    context is row t + 1 of ``_enn_context``'s fill over ``x``, bit for
    bit, at every L and H from 1 to 9; weights scaled by 1e3 drive the
    sigmoid deep into both tails."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(2, 40),
           st.sampled_from([1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_session_context_is_the_fill_row(self, l, h, n, scale, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-0.5, 0.5, predictors.weight_count("ENN", l, h)) * scale
        x = rng.uniform(0.0, 1.0, (n, l))
        filled = enn_contexts(weights, x, h)
        session = ForecastSession(TrainedModel(kind="ENN", input_length=l, hidden_units=h,
                                               weights=weights))
        for t in range(n - 1):
            session.step(x[t])
            assert session._context.tobytes() == filled[t + 1].tobytes()


class TestUnrolledSigmoid:
    """The sigmoid of the ENN recurrence's step (scipy's ``expit`` on the
    pre-activation) equals the oracle's recurrence sigmoid, the same
    ``expit``, and the predict-time ``_sigmoid`` equals the oracle's layer
    sigmoid ``1 / (1 + exp(-z))``, bit for bit, overflow to 0 included."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2,
             np.nan, -np.nan]

    def check(self, z):
        assert _same_floats(recurrence_sigmoid(z), legacy.expit(z))
        assert _same_floats(_sigmoid(z), legacy._sigmoid(z))

    def test_edges(self):
        self.check(np.array(self.EDGES))

    @given(st.sampled_from([0.1, 1.0, 10.0, 100.0, 800.0]), st.integers(0, 2**32 - 1))
    def test_normal_draws_at_scale(self, scale, seed):
        self.check(np.random.default_rng(seed).normal(size=64) * scale)

    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_any_float(self, z):
        self.check(z)


@st.composite
def model_batches(draw):
    """1-10 models over a pool of 1-3 group keys (kind, pairs, input length,
    hidden units, epochs, rate), so most calls hold groups of several
    models, next to singletons. Rates of 1e2 and above diverge at epochs
    that differ between group-mates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = draw(st.lists(st.tuples(
        st.sampled_from(["BPNN", "WNN", "ENN", "GRNN"]), st.sampled_from([1, 3, 10]),
        st.sampled_from([1, 4]), st.sampled_from([1, 3]), st.sampled_from([1, 7, 25]),
        st.sampled_from([0.05, 0.5, 1e2, 1e4, 1e8])), min_size=1, max_size=3))
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        if batch and draw(st.integers(0, 3)) == 0:
            # an earlier request again, as a new object
            earlier, cfg = draw(st.sampled_from(batch))
            training_set = TrainingSet(inputs=earlier.inputs.copy(),
                                       targets=earlier.targets.copy(),
                                       offsets=earlier.offsets)
        else:
            kind, n, length, hidden, epochs, rate = draw(st.sampled_from(keys))
            training_set = TrainingSet(
                inputs=rng.normal(size=(n, length)) * draw(st.sampled_from([1.0, 30.0])),
                targets=rng.normal(size=n),
                offsets=rng.permutation(n) + 1,
            )
            cfg = PredictorConfig(kind=kind, hidden_units=hidden, learning_rate=rate,
                                  epochs=epochs, seed=draw(st.integers(0, 2**16)))
        batch.append((training_set, cfg))
    return batch


def assert_matches_lone_training(training_set, cfg, result):
    """``result`` equals the frozen trainer run alone: weights and loss
    curve, or the epoch its loss became non-finite; every other field is
    the config's, and no scale is attached. GRNN models store their
    pairs."""
    try:
        old = ((np.concatenate([training_set.inputs.ravel(), training_set.targets]),
                np.zeros(0)) if cfg.kind == "GRNN" else legacy.train(training_set, cfg))
    except ValueError as err:
        assert isinstance(result, TrainingDivergedError)
        assert (result.epoch, result.learning_rate) == (err.args[0], cfg.learning_rate)
        assert str(result) == str(TrainingDivergedError(cfg.kind, result.epoch,
                                                        cfg.learning_rate))
        return
    assert isinstance(result, TrainedModel)
    assert np.array_equal(result.weights, old[0])
    assert np.array_equal(result.training_loss_curve, old[1])
    assert (result.kind, result.input_length, result.hidden_units, result.grnn_sigma) == (
        cfg.kind, training_set.input_length, cfg.hidden_units, cfg.grnn_sigma)


class TestTrainManyOracle:
    @settings(deadline=None, max_examples=150)
    @given(model_batches())
    def test_matches_lone_training(self, batch):
        """Each model of one ``train_many`` call, repeated requests
        included, equals the frozen trainer run alone and is an object of
        its own."""
        results = train_many(*zip(*batch))
        assert len(results) == len(batch)
        assert len({id(result) for result in results}) == len(results)
        for (training_set, cfg), result in zip(batch, results):
            assert_matches_lone_training(training_set, cfg, result)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(1, 10), st.sampled_from([1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_bpnn_group_at_production_shape(self, k, scale, seed):
        """A BPNN group of up to 10 models at n = 128, L = H = 8, the shape
        of the slow components' group of the golden benchmark; inputs
        scaled by 1e3 drive the sigmoid deep into both tails."""
        rng = np.random.default_rng(seed)
        sets = [TrainingSet(inputs=rng.uniform(0.0, 1.0, (128, 8)) * scale,
                            targets=rng.uniform(0.0, 1.0, 128),
                            offsets=np.arange(1, 129))
                for _ in range(k)]
        cfgs = [PredictorConfig(kind="BPNN", hidden_units=8, epochs=12, seed=int(s))
                for s in rng.integers(0, 2**16, k)]
        for training_set, cfg, model in zip(sets, cfgs, train_many(sets, cfgs)):
            assert_matches_lone_training(training_set, cfg, model)

    def test_equal_requests_descend_once(self, monkeypatch):
        """Two equal requests of one group, and an ENN pair whose inputs
        and targets are equal but whose offsets order them differently:
        the equal BPNN requests reach ``_descend`` as one stacked model and
        come back as two models of their own; the ENN pair descends as
        two."""
        stacked = []

        def spy(kind, flat, *args):
            stacked.append((kind, flat.shape[0]))
            return _descend(kind, flat, *args)

        monkeypatch.setattr(predictors, "_descend", spy)
        rng = np.random.default_rng(7)
        inputs, targets = rng.normal(size=(6, 3)), rng.normal(size=6)
        forward = TrainingSet(inputs=inputs, targets=targets,
                              offsets=np.arange(1, 7))
        backward = TrainingSet(inputs=inputs, targets=targets,
                               offsets=np.arange(6, 0, -1))
        bpnn = PredictorConfig(kind="BPNN", hidden_units=4, epochs=30, seed=3)
        enn = PredictorConfig(kind="ENN", hidden_units=4, epochs=30, seed=3)
        batch = [(forward, bpnn), (backward, bpnn), (forward, enn), (backward, enn)]
        results = train_many(*zip(*batch))
        assert stacked == [("BPNN", 1), ("ENN", 2)]
        for (training_set, cfg), result in zip(batch, results):
            assert_matches_lone_training(training_set, cfg, result)
        assert results[0] is not results[1]
        assert results[0].weights is not results[1].weights
        assert np.array_equal(results[0].weights, results[1].weights)
        assert not np.array_equal(results[2].weights, results[3].weights)

    def test_diverged_mate_leaves_the_group_without_warning(self, recwarn):
        """Two models of one group, for each gradient-trained kind: the
        second diverges at epoch 2 (and the first epochs overflow on the
        way) and runs on to the last epoch on non-finite weights; the first
        trains on to the same bits as alone."""
        calm = TrainingSet(inputs=[[0.1, 0.2], [0.3, 0.1]], targets=[0.2, 0.4],
                           offsets=[1, 2])
        wild = TrainingSet(inputs=[[0.5, -0.5], [2.0, 0.5]], targets=[1e150, 1e150],
                           offsets=[1, 2])
        for kind in ("BPNN", "WNN", "ENN"):
            cfg = PredictorConfig(kind=kind, hidden_units=2, learning_rate=1e2, epochs=20)
            kept, diverged = train_many([calm, wild], [cfg, cfg])
            old_weights, old_curve = legacy.train(calm, cfg)
            assert np.array_equal(kept.weights, old_weights)
            assert np.array_equal(kept.training_loss_curve, old_curve)
            assert isinstance(diverged, TrainingDivergedError)
            with pytest.raises(ValueError) as err:
                legacy.train(wild, cfg)
            assert diverged.epoch == err.value.args[0] == 2
        assert not recwarn.list


class TestLossCurveBlocks:
    """``_descend`` reduces the loss curve once per ``_BLOCK`` epochs: runs
    that end just before, on and just after a block edge, and one block
    later, match the frozen trainer alone and in a group, and a model that
    diverges in the second block reports its own epoch."""

    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN"])
    @pytest.mark.parametrize("epochs", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_lone_and_grouped_match(self, kind, epochs):
        rng = np.random.default_rng(epochs)
        sets = [TrainingSet(inputs=rng.normal(size=(5, 3)), targets=rng.normal(size=5),
                            offsets=rng.permutation(5) + 1)
                for _ in range(3)]
        cfgs = [PredictorConfig(kind=kind, hidden_units=3, learning_rate=0.1, epochs=epochs,
                                seed=seed) for seed in (1, 2, 3)]
        assert_matches_lone_training(sets[0], cfgs[0], train_many(sets[:1], cfgs[:1])[0])
        for training_set, cfg, result in zip(sets, cfgs, train_many(sets, cfgs)):
            assert_matches_lone_training(training_set, cfg, result)

    @pytest.mark.parametrize("kind, rate", [("BPNN", 3.0), ("WNN", 10.0), ("ENN", 3.0)])
    def test_divergence_after_the_first_block(self, kind, rate):
        calm = TrainingSet(inputs=[[0.1, 0.2], [0.3, 0.1]], targets=[0.2, 0.4],
                           offsets=[1, 2])
        wild = TrainingSet(inputs=[[0.5, -0.5], [2.0, 0.5]], targets=[1e50, 1e50],
                           offsets=[1, 2])
        cfg = PredictorConfig(kind=kind, hidden_units=2, learning_rate=rate,
                              epochs=2 * _BLOCK + 1)
        with pytest.raises(ValueError) as err:
            legacy.train(wild, cfg)
        assert _BLOCK < err.value.args[0] < 2 * _BLOCK
        for batch in ([wild], [calm, wild], [wild, calm]):
            for training_set, result in zip(batch, train_many(batch, [cfg] * len(batch))):
                assert_matches_lone_training(training_set, cfg, result)

