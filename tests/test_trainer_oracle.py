"""The flat-buffer trainer against the frozen pre-rewrite trainer in
``legacy_trainer``: weights, loss curves, predictions, session steps and
finite-difference checks must be bit-identical."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import legacy_trainer as legacy
from modecast.grouping import TrainingSet
from modecast.predictors import (
    ForecastSession,
    PredictorConfig,
    TrainingDivergedError,
    _enn_context,
    _init_params,
    _objective,
    _sigmoid,
    _views,
    gradient_check,
    predict,
    train,
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
        provenance=tuple((int(o) + 1, 0.0) for o in rng.permutation(n)),
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
        context = np.linspace(-1.0, 1.0, h)
        if cfg.kind == "ENN":
            assert (predict(model, queries[0], context=context)
                    == legacy.predict("ENN", old_weights, l, h, queries[0], context))
        session = ForecastSession(model)
        assert ([session.step(q) for q in queries]
                == legacy.session_steps(cfg.kind, old_weights, l, h, queries))
        assert gradient_check(cfg, training_set) == legacy.gradient_check(cfg, training_set)

    @settings(deadline=None, max_examples=60)
    @given(problems(st.just(0.05)), st.booleans())
    def test_one_evaluation_matches(self, problem, frozen):
        """Loss, gradient and ENN context trajectory at the seeded start."""
        training_set, cfg, _ = problem
        kind, l, h = cfg.kind, training_set.input_length, cfg.hidden_units
        x, y = legacy._pairs(kind, training_set)
        flat = _init_params(cfg, l)
        assert np.array_equal(flat, legacy._init_params(cfg, l))
        grad = np.full_like(flat, np.nan)
        loss = _objective(kind, flat, grad, x, y, l, h, frozen=frozen)()
        kwargs = {}
        if kind == "ENN":
            contexts = legacy._enn_context(legacy._unpack(kind, flat, l, h), x)
            assert np.array_equal(
                _enn_context(_views(kind, flat, l, h), x, np.empty_like(contexts)), contexts)
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
    def test_matches_masked_sigmoid(self, z):
        assert _same_floats(_sigmoid(z), legacy._sigmoid(z))

    def test_signed_zeros_infinities_nan(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 745.0, -745.0])
        assert _same_floats(_sigmoid(z), legacy._sigmoid(z))

    def test_out_matches_return(self):
        z = np.linspace(-40.0, 40.0, 17).reshape(1, 17)
        out = np.empty_like(z)
        assert _sigmoid(z, out=out) is out
        assert _same_floats(out, legacy._sigmoid(z))
