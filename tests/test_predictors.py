import os
import re
import runpy
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import REPO, recurrence_sigmoid

from modecast import predictors
from modecast.grouping import TrainingSet, sliding_window_set
from modecast.core import DataError, TimeSeries
from modecast.predictors import (
    ForecastSession,
    PredictorConfig,
    TrainedModel,
    TrainingDivergedError,
    _descent_layout,
    _readout,
    _sigmoid,
    _views,
    gradient_check,
    predict,
    train,
    train_many,
)


def make_set(inputs, targets):
    inputs = np.asarray(inputs, dtype=np.float64)
    return TrainingSet(
        inputs=inputs,
        targets=np.asarray(targets, dtype=np.float64),
        offsets=np.arange(1, inputs.shape[0] + 1),
    )


def random_set(rng, n_pairs=4, length=3):
    return make_set(rng.normal(size=(n_pairs, length)), rng.normal(size=n_pairs))


@pytest.mark.parametrize("kind", ["GRNN", "BPNN"])
def test_non_finite_pairs_never_reach_training(kind):
    """One nan input is a DataError before ``train`` runs: no GRNN that
    predicts nan even at a finite pair's input, no BPNN that reports
    divergence at epoch 0."""
    inputs = np.arange(8.0).reshape(4, 2)
    inputs[1, 0] = np.nan
    with pytest.raises(DataError, match="training pairs contain NaN or infinite values"):
        train(make_set(inputs, np.arange(4.0)), PredictorConfig(kind=kind, epochs=5))


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

    @pytest.mark.parametrize("inputs, query", [
        ([[0.0, 0.0], [1e200, 9e199], [-1e200, 1e200]], [1e200, 1e200]),  # squares overflow
        ([[-1e308, 1e308], [1e308, -1e308], [0.0, 0.0]], [1.5e308, -1.5e308]),  # so do differences
    ])
    def test_far_from_every_pair_returns_the_nearest_target(self, inputs, query):
        # the second pair is the nearest, and the others' kernel weights are 0
        model = train(make_set(inputs, [1.0, 2.0, 3.0]),
                      PredictorConfig(kind="GRNN", grnn_sigma=0.1))
        assert predict(model, query) == 2.0

    def test_kernel_exponent_overflow_at_tiny_sigma(self):
        # 2 * sigma**2 is 2e-320, so every gap but the nearest pair's
        # overflows the kernel's exponent to -inf
        model = train(make_set([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0]),
                      PredictorConfig(kind="GRNN", grnn_sigma=1e-160))
        assert predict(model, [0.25, 0.25]) == 1.0
        assert predict(model, [0.5, 0.5]) == 1.5

    # 2 * sigma**2 must neither underflow to 0 (a 0/0 kernel) nor overflow
    @pytest.mark.parametrize("sigma", [1e-200, 5e-324, 1e200])
    def test_sigma_whose_square_leaves_the_float_range_is_rejected(self, sigma):
        with pytest.raises(ValueError, match="grnn_sigma squared"):
            PredictorConfig(kind="GRNN", grnn_sigma=sigma)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer"), (True, "seed must be an integer"),
        (np.float64(2.0), "seed must be an integer"), (-1, "seed must be >= 0")])
    def test_seed_checked_when_the_config_is_built(self, seed, message):
        """A seed that is not a non-negative integer fails in the config,
        not inside numpy at training time; ``True`` is not seed 1."""
        with pytest.raises(ValueError, match=message):
            PredictorConfig(seed=seed)
        assert PredictorConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_weighted_sum_beyond_the_float_range(self):
        # 1e308 + 1.5e308 overflows, though their mean is a float
        model = train(make_set([[0.0], [1.0]], [1e308, 1.5e308]),
                      PredictorConfig(kind="GRNN", grnn_sigma=1.0))
        assert predict(model, [0.5]) == 1e308 / 2 + 1.5e308 / 2

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

    @pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf"), True, 1e300])
    @pytest.mark.parametrize("kind", ["BPNN", "WNN", "ENN"])
    def test_bad_step_is_named(self, kind, step):
        message = (f"step {step} takes the loss beyond the float range" if step == 1e300
                   else f"step must be positive and finite, got {step}")
        ts = random_set(np.random.default_rng(10), n_pairs=2, length=3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gradient_check(PredictorConfig(kind=kind, hidden_units=3), ts, step=step)


class TestDescentLayout:
    """``_descent_layout``'s position index puts every public weight in a
    slot of its own, every slot but the pads holds one, and the weights
    read back unchanged; the descent views read the public blocks, ENN's
    ``A`` as ``[Wh | Wx | b | 0]``. Descent keeps the pads at +0.0."""

    @given(st.sampled_from(["BPNN", "WNN", "ENN"]), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_positions_fill_every_weight_slot_once(self, kind, l, h, k, seed):
        flat = np.random.default_rng(seed).normal(size=(k, predictors.weight_count(kind, l, h)))
        params, positions = _descent_layout(kind, flat, l, h)
        slots = sum(np.prod(shape) for _, shape in predictors._layout(kind, l, h, fold=True))
        assert params.shape == (k, slots + slots % 2)
        pads = set()
        if kind == "ENN" and (h + l + 1) % 2:  # the last column of A
            pads = {(row + 1) * (h + l + 2) - 1 for row in range(h)}
        assert len(set(positions.tolist())) == positions.size == flat.shape[1]
        assert set(positions.tolist()) == set(range(slots)) - pads
        assert np.array_equal(params[:, positions], flat)
        rest = params[:, np.setdiff1d(np.arange(params.shape[1]), positions)]
        assert np.all(rest == 0.0) and not np.any(np.signbit(rest))
        public, descent = _views(kind, flat, l, h), _views(kind, params, l, h, fold=True)
        expected = public
        if kind != "WNN":
            blocks = [public["Wh"]] if kind == "ENN" else []
            blocks += [public["W" if kind == "BPNN" else "Wx"], public["b"][..., None]]
            width = descent["A"].shape[-1] - sum(block.shape[-1] for block in blocks)
            blocks.append(np.zeros((k, h, width)))
            expected = {"A": np.concatenate(blocks, -1), "v": public["v"], "c": public["c"]}
        assert descent.keys() == expected.keys()
        for name, block in expected.items():
            assert np.array_equal(descent[name], block)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_enn_pad_column_stays_positive_zero(self, l, h, n, seed):
        """A group of three ENNs with H + L + 1 odd, after a few epochs."""
        l += (h + l) % 2  # H + L even
        rng = np.random.default_rng(seed)
        sets = [TrainingSet(inputs=rng.uniform(0.0, 1.0, (n, l)), targets=rng.uniform(size=n),
                            offsets=np.arange(1, n + 1))
                for _ in range(3)]
        cfgs = [PredictorConfig(kind="ENN", hidden_units=h, epochs=6, seed=s) for s in range(3)]
        stacks, objective = [], predictors._objective

        def spy(kind, params, *args):
            stacks.append(params)
            return objective(kind, params, *args)

        with mock.patch.object(predictors, "_objective", spy):
            models = train_many(sets, cfgs)
        assert all(isinstance(model, TrainedModel) for model in models)
        (params,) = stacks
        positions = _descent_layout("ENN", models[0].weights, l, h)[1]
        assert np.array_equal(params[:, positions], np.stack([m.weights for m in models]))
        pads = params[:, np.setdiff1d(np.arange(params.shape[1]), positions)]
        assert pads.shape[1] >= h
        assert np.all(pads == 0.0) and not np.any(np.signbit(pads))


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

    @pytest.mark.parametrize("sets, cfgs, counts", [
        (2, 1, "2 training sets and 1 configs"),
        (1, 2, "1 training sets and 2 configs"),
    ], ids=["few-configs", "few-sets"])
    def test_train_many_names_mismatched_counts(self, sets, cfgs, counts):
        ts = random_set(np.random.default_rng(15))
        cfg = PredictorConfig(kind="BPNN", epochs=5)
        with pytest.raises(ValueError, match=counts):
            train_many([ts] * sets, [cfg] * cfgs)

    def test_lockstep_is_lone_training_on_sse2_kernels(self):
        """Under OpenBLAS's Prescott (SSE2) kernels a product's bits follow
        the 16-byte alignment of its operands. Four models of one group with
        H = 1 and an odd n * L would start every other model's buffers 8
        bytes off; a child process on those kernels checks that each model
        of a ``train_many`` call equals ``train`` alone, and that an ENN
        session's contexts are the rows of its fill, with H + L + 1 odd
        (a padded step row) and even."""
        kernel = runpy.run_path(str(REPO / "tools" / "kernel_matrix.py"))["KERNEL"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("OPENBLAS_CORETYPE", None)

        def child(code: str, **extra) -> list:
            return subprocess.run([sys.executable, "-c", code], env=dict(env, **extra),
                                  capture_output=True, text=True, timeout=120,
                                  check=True).stdout.split()

        default = child(kernel)
        name, mismatches = child(kernel + _SSE2_MISMATCHES,
                                 OPENBLAS_CORETYPE="Prescott")
        if name in ("?", *default):
            pytest.skip(f"OpenBLAS did not switch kernels (runs {name})")
        assert mismatches == "0"


# the number of models of BPNN, WNN and ENN groups at H = 1 and odd n * L
# whose ``train_many`` result differs from ``train`` alone, plus the number
# of ENN session steps whose context differs from the fill's row
_SSE2_MISMATCHES = """
import numpy as np
from modecast.grouping import TrainingSet
from modecast.predictors import (ForecastSession, PredictorConfig, TrainedModel, _descent_layout,
                                 _enn_context, _rows, _views, train, train_many, weight_count)
mismatches = 0
for l, h in ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 5), (4, 5), (8, 8), (7, 8)):
    rng = np.random.default_rng(100 * l + h)
    for scale in (1.0, 1e3):
        weights = rng.uniform(-0.5, 0.5, weight_count("ENN", l, h)) * scale
        x = rng.uniform(0.0, 1.0, (64, l))
        a = _views("ENN", _descent_layout("ENN", weights, l, h)[0], l, h, fold=True)["A"]
        rows = _rows(x, a.shape[1], h)
        _enn_context(a[None], rows[None])()
        filled = rows[:, :h]
        session = ForecastSession(TrainedModel(kind="ENN", input_length=l, hidden_units=h,
                                               weights=weights))
        for t in range(63):
            session.step(x[t])
            mismatches += session._context.tobytes() != filled[t + 1].tobytes()
for kind in ("BPNN", "WNN", "ENN"):
    for n, length in ((3, 5), (11, 1), (5, 7), (7, 3)):
        rng = np.random.default_rng(10 * n + length)
        sets = [TrainingSet(inputs=rng.normal(size=(n, length)), targets=rng.normal(size=n),
                            offsets=np.arange(1, n + 1))
                for _ in range(4)]
        cfgs = [PredictorConfig(kind=kind, hidden_units=1, epochs=5, seed=s) for s in range(4)]
        for training_set, cfg, model in zip(sets, cfgs, train_many(sets, cfgs)):
            alone = train(training_set, cfg)
            mismatches += not (np.array_equal(model.weights, alone.weights) and np.array_equal(
                model.training_loss_curve, alone.training_loss_curve))
print(mismatches)
"""


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
        """``predict`` is the first step of a fresh session, byte for byte,
        for every kind; an ENN session carries its context from step to
        step, and a new session starts from zero."""
        rng = np.random.default_rng(9)
        ts = random_set(rng, n_pairs=6, length=3)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        for kind in ("BPNN", "WNN", "GRNN", "ENN"):
            model = train(ts, PredictorConfig(kind=kind, epochs=100, seed=11))
            for x in (x1, x2):
                assert (np.float64(predict(model, x)).tobytes()
                        == np.float64(ForecastSession(model).step(x)).tobytes())

        session = ForecastSession(model)  # the ENN model
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


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                    reason="np.longdouble is float64 here")
class TestSigmoidAccuracy:
    """The one-exp sigmoid of the layers and BPNN's predict against a
    ``np.longdouble`` reference: at most 3 ulp wherever ``exp(-z)`` is
    finite in float64 (z >= -709.78), and an absolute error below 2^-1022
    below that, where it returns 0 for a true value under 5.6e-309."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.78, -709.78,
             745.2, -745.2]
    sigmoid = staticmethod(_sigmoid)

    def check(self, z):
        """Errors are in units in the last place of a float64 in the exact
        value's binade, at least the subnormal spacing 2^-1074."""
        got, one = self.sigmoid(z), np.longdouble(1)
        with np.errstate(over="ignore"):  # exp past either range is inf, and 1/inf exact
            finite = np.isfinite(np.exp(-z))
            exact = one / (one + np.exp(-z.astype(np.longdouble)))
        error = np.abs(got.astype(np.longdouble) - exact)
        ulp = np.ldexp(one, np.maximum(np.frexp(exact)[1] - 53, -1074))
        assert np.all(error[finite] <= 3 * ulp[finite]), np.max((error / ulp)[finite])
        assert np.all(got[~finite] == 0.0)
        assert np.all(error[~finite] < np.ldexp(one, -1022))

    def test_edges(self):
        z = np.array(self.EDGES)
        self.check(z)
        assert list(self.sigmoid(z)[:4]) == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(self.sigmoid(np.array([np.nan, -np.nan]))).all()

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 10.0, 100.0, 800.0])
    def test_seeded_draws_at_scale(self, scale):
        rng = np.random.default_rng(int(scale * 1000))
        self.check(rng.normal(size=20_000) * scale)

    def test_draws_around_the_overflow_point(self):
        """Uniform draws over [-746, -700], across the z where ``exp(-z)``
        overflows and the sigmoid turns subnormal, then 0."""
        self.check(np.random.default_rng(5).uniform(-746.0, -700.0, 20_000))


class TestRecurrenceSigmoidAccuracy(TestSigmoidAccuracy):
    """The same bounds for scipy's ``expit`` inside the ENN recurrence,
    which computes the same formula with the C library's ``exp``."""

    sigmoid = staticmethod(recurrence_sigmoid)


# finite floats whose double is finite: every magnitude below 2^1023,
# subnormals and both zeros included
_DOUBLABLE = st.floats(-2.0**1023, 2.0**1023, exclude_min=True, exclude_max=True)
_ZEROS_AND_SUBNORMALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                  -1.1125369292536007e-308, np.nextafter(2.0**1023, 0.0)])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestScaledError:
    """The readout's scaled error is one divide, ``err / (n / 2)``; it is
    ``(2 err) / n`` bit for bit, because ``2 err`` and ``n / 2`` are exact
    and both forms round the same real number."""

    @given(arrays(np.float64, st.integers(1, 40), elements=_DOUBLABLE), st.integers(1, 10**6))
    @example(_ZEROS_AND_SUBNORMALS, 1)
    @example(_ZEROS_AND_SUBNORMALS, 3)
    @example(_ZEROS_AND_SUBNORMALS, 10**6)
    def test_one_divide_is_the_two_step_form(self, err, n):
        two_step = np.divide(np.multiply(err, 2.0), float(n))
        assert np.array_equal(_bits(np.divide(err, np.array(n / 2))), _bits(two_step))

    @given(arrays(np.float64, st.integers(1, 40), elements=_DOUBLABLE))
    @example(_ZEROS_AND_SUBNORMALS)
    def test_readout_writes_the_two_step_form(self, targets):
        """A readout of zero weights on zero hidden units has the residual
        ``0 - targets``; its scaled error is the two-step form of it. The
        sum of ``e`` into ``gc`` may overflow, under ``_descend``'s
        ``errstate``."""
        n = targets.size
        grad, e = _readout(np.zeros((1, 1)), np.zeros((1, 1)), np.empty((1, 1)),
                           np.empty((1, 1)), targets[None], np.zeros((1, n, 1)))
        err = np.empty((1, n))
        with np.errstate(over="ignore", invalid="ignore"):
            grad(err)
        assert np.array_equal(_bits(err[0]), _bits(0.0 - targets))
        assert np.array_equal(_bits(e[0]), _bits(np.multiply(err[0], 2.0) / float(n)))


class TestNoNumericWarnings:
    """Weights scaled by 1e3 drive the sigmoid's pre-activations past
    -745, where ``exp(-z)`` overflows; the suite turns any RuntimeWarning
    into an error, so each call here must stay silent and finite."""

    @pytest.mark.parametrize("kind", ["BPNN", "ENN"])
    def test_predict_and_session_steps(self, kind):
        rng = np.random.default_rng(23)
        trained = train(random_set(rng, n_pairs=6, length=3),
                        PredictorConfig(kind=kind, hidden_units=4, epochs=5, seed=2))
        model = TrainedModel(kind=kind, input_length=3, hidden_units=4,
                             weights=trained.weights * 1e3)
        xs = rng.normal(size=(4, 3))
        p = _views(kind, model.weights, 3, 4)
        assert np.min(xs @ p["W" if kind == "BPNN" else "Wx"].T + p["b"]) < -745.0
        session = ForecastSession(model)
        values = [predict(model, x) for x in xs] + [session.step(x) for x in xs]
        assert np.all(np.isfinite(values))

    def test_enn_gradient_check(self, monkeypatch):
        seeded = predictors._init_params
        monkeypatch.setattr(predictors, "_init_params",
                            lambda cfg, l: seeded(cfg, l) * 1e3)
        rng = np.random.default_rng(29)
        training_set = random_set(rng, n_pairs=8, length=3)
        cfg = PredictorConfig(kind="ENN", hidden_units=4, seed=5)
        p = _views("ENN", predictors._init_params(cfg, 3), 3, 4)
        assert np.min(training_set.inputs @ p["Wx"].T + p["b"]) < -745.0
        assert np.isfinite(gradient_check(cfg, training_set))


class TestModelChecks:
    """A hand-built model is checked as a ``PredictorConfig`` is."""

    @staticmethod
    def doc(kind="BPNN", length=2):
        ts = random_set(np.random.default_rng(17), length=length)
        return dict(vars(train(ts, PredictorConfig(kind=kind, epochs=3))))

    @pytest.mark.parametrize("name, length, value", [
        ("input_length", 2, 2.7), ("input_length", 1, True), ("hidden_units", 2, 8.0)])
    def test_loaded_counts_must_be_integers(self, name, length, value):
        doc = dict(self.doc(length=length), **{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainedModel(**doc)

    # true is not 1.0 and "0.1" is not 0.1: the given value is checked as it stands
    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), 1e-200, True, "0.1"])
    def test_grnn_sigma_is_checked(self, sigma):
        with pytest.raises(ValueError, match="^grnn_sigma"):
            TrainedModel(**dict(self.doc("GRNN"), grnn_sigma=sigma))

    @pytest.mark.parametrize("kind", ["BPNN", "GRNN"])
    @pytest.mark.parametrize("name", ["weights", "training_loss_curve"])
    def test_nested_lists_are_named(self, kind, name):
        """A weights list or loss curve nested one level becomes a (1, n)
        array, which the model rejects by name instead of failing in
        ``predict``."""
        doc = self.doc(kind)
        doc[name] = [doc[name].tolist() or [0.5]]
        with pytest.raises(ValueError, match=rf"^{name} must be 1-D, got shape \(1, \d+\)$"):
            TrainedModel(**doc)

    def test_grnn_holds_a_pair(self):
        with pytest.raises(ValueError, match="^a GRNN must hold at least one pair$"):
            TrainedModel(kind="GRNN", input_length=2, hidden_units=1, weights=np.zeros(0))
