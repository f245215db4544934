"""Small neural regressors behind one contract: train on (window -> value)
pairs, predict a scalar from a window.

Kinds
-----
BPNN : one sigmoid hidden layer, linear output, full-batch gradient descent.
WNN  : same topology with a Morlet wavelet activation
       psi(u) = cos(1.75 u) * exp(-u^2 / 2) and per-unit translation and
       dilation, trained by the same descent.
ENN  : Elman network; context units copy the previous hidden state, pairs
       are presented in source-offset order and gradients are truncated to
       one step (the carried context is treated as data).
GRNN : Nadaraya-Watson kernel regressor over stored pairs; no iterative
       training.

Flat weight layouts (row-major, L = input length, H = hidden units, n = pairs)
    BPNN: [W1 (H*L), b1 (H), w2 (H), b2 (1)]
    WNN:  [W (H*L), t (H), d (H), v (H), c (1)]
    ENN:  [Wx (H*L), Wh (H*H), b (H), v (H), c (1)]
    GRNN: [inputs (n*L), targets (n)]

The named blocks of a dense layout are *views* into one flat buffer, built
once by ``_views``; with K models stacked, every view gains a leading K axis.

Training runs in lockstep. ``train_many`` groups its models by (kind, pairs
n, input length L, hidden units H, epochs, learning rate) and runs one
epoch loop per group over a (K, P) parameter buffer and a (K, P) gradient
buffer: each epoch writes every model's gradient through the views and
updates the parameters in place. A group descends each distinct request
(config and pairs) once, and every request gets its own result. Each
stacked product is the BLAS call a lone model makes, so every model comes
out bit for bit as if trained alone; ``train`` is the one-model call. A
model whose loss turns non-finite runs on to the last epoch and is
reported diverged at that epoch. The BPNN epoch and the shared readout
write every temporary into buffers built once per group. The ENN context
recurrence runs model by model on buffers built once, after one stacked
input projection per epoch (``_enn_context``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import MinMaxScale, spawn_rng
from .grouping import TrainingSet

KINDS = ("BPNN", "GRNN", "ENN", "WNN")
GRADIENT_TRAINED = ("BPNN", "WNN", "ENN")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, kind: str, epoch: int, learning_rate: float):
        super().__init__(
            f"{kind} training loss became non-finite at epoch {epoch} "
            f"(learning_rate={learning_rate})"
        )
        self.epoch = epoch
        self.learning_rate = learning_rate


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "BPNN"
    hidden_units: int = 8
    learning_rate: float = 0.05
    epochs: int = 500
    grnn_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.hidden_units < 1 or self.epochs < 1:
            raise ValueError("hidden_units and epochs must be >= 1")
        for name in ("learning_rate", "grnn_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < 2.0 * self.grnn_sigma * self.grnn_sigma < math.inf:  # the kernel divisor
            raise ValueError("grnn_sigma squared must be a positive finite float")


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted regressor; see module docstring for weight layouts."""

    kind: str
    input_length: int
    hidden_units: int
    weights: np.ndarray
    grnn_sigma: float = 0.1
    scale: Optional[MinMaxScale] = None
    training_loss_curve: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        curve = np.asarray(self.training_loss_curve, dtype=np.float64)
        curve.flags.writeable = False
        object.__setattr__(self, "training_loss_curve", curve)
        expected = weight_count(self.kind, self.input_length, self.hidden_units,
                                n_pairs=self._grnn_pairs())
        if weights.size != expected:
            raise ValueError(
                f"{self.kind} weight vector has {weights.size} entries, expected {expected}"
            )

    def _grnn_pairs(self) -> int:
        if self.kind != "GRNN":
            return 0
        return int(np.asarray(self.weights).size // (self.input_length + 1))


def weight_count(kind: str, input_length: int, hidden_units: int, n_pairs: int = 0) -> int:
    """Parameter count implied by the architecture."""
    return sum(math.prod(shape) for _, shape in _layout(kind, input_length, hidden_units, n_pairs))


def _sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # copysign(z, -1) == -|z| is z itself for z < 0, so this is
    # 1 / (1 + exp(-z)) on z >= 0 and exp(z) / (1 + exp(z)) below, bit for
    # bit, without masks; exp never overflows
    e = np.exp(np.copysign(z, -1.0))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _morlet(u: np.ndarray) -> np.ndarray:
    return np.cos(1.75 * u) * np.exp(-0.5 * u * u)


def _morlet_deriv(u: np.ndarray) -> np.ndarray:
    return -np.exp(-0.5 * u * u) * (1.75 * np.sin(1.75 * u) + u * np.cos(1.75 * u))


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------

def _layout(kind: str, l: int, h: int, n: int = 0) -> tuple:
    """The (name, shape) blocks of a kind's flat weight vector, in the order
    of the module docstring."""
    layouts = {
        "BPNN": (("W1", (h, l)), ("b1", (h,)), ("w2", (h,)), ("b2", (1,))),
        "WNN": (("W", (h, l)), ("t", (h,)), ("d", (h,)), ("v", (h,)), ("c", (1,))),
        "ENN": (("Wx", (h, l)), ("Wh", (h, h)), ("b", (h,)), ("v", (h,)), ("c", (1,))),
        "GRNN": (("inputs", (n, l)), ("targets", (n,))),
    }
    if kind not in layouts:
        raise ValueError(f"unknown kind {kind!r}")
    return layouts[kind]


def _views(kind: str, flat: np.ndarray, l: int, h: int, n: int = 0) -> dict:
    """Named views into ``flat`` in the blocks of :func:`_layout`;
    writing through a view writes ``flat``. Leading axes of ``flat`` (K
    stacked models) lead every view."""
    views, offset, lead = {}, 0, flat.shape[:-1]
    for name, shape in _layout(kind, l, h, n):
        size = math.prod(shape)
        views[name] = flat[..., offset : offset + size].reshape(lead + shape, copy=False)
        offset += size
    return views


def _init_params(cfg: PredictorConfig, l: int) -> np.ndarray:
    """Uniform [-0.5, 0.5] initialization; WNN dilations start in [0.5, 1.5]
    to keep the wavelet argument well scaled."""
    rng = spawn_rng(cfg.seed)
    h = cfg.hidden_units
    flat = rng.uniform(-0.5, 0.5, weight_count(cfg.kind, l, h))
    if cfg.kind == "WNN":
        _views("WNN", flat, l, h)["d"][:] = rng.uniform(0.5, 1.5, h)
    return flat


# ---------------------------------------------------------------------------
# Loss and gradients (full batch, mean squared error) of K stacked models.
# Parameter views ``p`` and gradient views ``g`` lead with the model axes of
# the buffer, ``x`` is (..., n, L) and ``y`` is (..., n). Each ``*_loss_grad``
# builds its broadcast views once and returns ``loss_grad()``, which reads
# ``p``, writes the gradient into ``g`` and returns the losses. Every stacked
# item of a ``matmul`` is the BLAS call a single model makes (a
# matrix-vector product keeps a trailing unit axis, so it stays a GEMV), and
# every reduction runs over one model's axis in one model's order, so a
# model's bits do not depend on its group-mates. ``np.add.reduce`` is the
# reduction ``np.sum`` and ``np.mean`` run, without their Python-level
# dispatch.
# ---------------------------------------------------------------------------

def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _readout(v: np.ndarray, c: np.ndarray, gv: np.ndarray, gc: np.ndarray,
             y: np.ndarray) -> Callable:
    """``grad(hidden)``: the error and scaled error ``e`` of the linear
    readout ``hidden @ v + c``, its gradient written into ``gv`` and
    ``gc``. The error and ``e`` are buffers built once, which the next call
    overwrites."""
    v, gv, gc = v[..., None], gv[..., None], gc[..., 0]
    out, err, e = np.empty(y.shape + (1,)), np.empty(y.shape), np.empty(y.shape)
    projected, column = out[..., 0], e[..., None]
    two, n = np.array(2.0), np.array(float(y.shape[-1]))  # a Python number costs a conversion

    def grad(hidden: np.ndarray) -> tuple:
        np.matmul(hidden, v, out=out)
        np.add(projected, c, out=err)
        np.subtract(err, y, out=err)
        np.multiply(err, two, out=e)
        np.divide(e, n, out=e)
        np.add.reduce(e, axis=-1, out=gc)
        np.matmul(_t(hidden), column, out=gv)
        return err, e

    return grad


def _mse(err: np.ndarray) -> np.ndarray:
    return np.add.reduce(err * err, axis=-1) / err.shape[-1]


def _bpnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    a = _sigmoid(x @ p["W1"].T + p["b1"])
    return a @ p["w2"] + p["b2"][0]


def _bpnn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray) -> Callable:
    """Every temporary is built here, once, as a C-contiguous (..., n, H)
    array, so a call writes through ``out=`` and allocates only the loss.
    The sigmoid is ``_enn_context``'s unrolled form, ``_sigmoid`` bit for
    bit on every non-NaN z, with both exps in one call."""
    w1, b1, w2 = _t(p["W1"]), p["b1"][..., None, :], p["w2"][..., None, :]
    gw1, gb1 = g["W1"], g["b1"]
    readout = _readout(p["w2"], p["b2"], g["w2"], g["b2"], y)
    shape = x.shape[:-1] + w1.shape[-1:]
    z, a, dz, complement = (np.empty(shape) for _ in range(4))
    scratch = np.empty((2,) + shape)
    low, tail = scratch  # min(z, 0) and -|z|, exponentiated together in place
    dz_t = _t(dz)
    zero, one, minus_one = np.array(0.0), np.array(1.0), np.array(-1.0)
    matmul, add, subtract, multiply, minimum, copysign, exp, divide = (
        np.matmul, np.add, np.subtract, np.multiply, np.minimum, np.copysign, np.exp,
        np.divide)

    def loss_grad() -> np.ndarray:
        matmul(x, w1, out=z)
        add(z, b1, out=z)
        minimum(z, zero, out=low)
        copysign(z, minus_one, out=tail)
        exp(scratch, out=scratch)
        add(tail, one, out=tail)
        divide(low, tail, out=a)
        err, e = readout(a)
        multiply(e[..., None], w2, out=dz)
        multiply(dz, a, out=dz)
        subtract(one, a, out=complement)
        multiply(dz, complement, out=dz)
        matmul(dz_t, x, out=gw1)
        add.reduce(dz, axis=-2, out=gb1)
        return _mse(err)

    return loss_grad


def _wnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    u = (x @ p["W"].T - p["t"]) / p["d"]
    return _morlet(u) @ p["v"] + p["c"][0]


def _wnn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray) -> Callable:
    w, t, d, v = _t(p["W"]), p["t"][..., None, :], p["d"][..., None, :], p["v"][..., None, :]
    readout = _readout(p["v"], p["c"], g["v"], g["c"], y)

    def loss_grad() -> np.ndarray:
        u = (np.matmul(x, w) - t) / d
        err, e = readout(_morlet(u))
        du = (e[..., None] * v) * _morlet_deriv(u)
        du_scaled = du / d
        np.matmul(_t(du_scaled), x, out=g["W"])
        # not np.negative(g["t"], out=g["t"]): numpy 2.4 writes an in-place
        # negative to the wrong elements when the stride is 64 bytes (P = 8)
        g["t"][...] = np.negative(np.add.reduce(du_scaled, axis=-2))
        np.add.reduce(du * (-u / d), axis=-2, out=g["d"])
        return _mse(err)

    return loss_grad


def _enn_context(p: dict, x: np.ndarray, contexts: np.ndarray) -> Callable:
    """``fill()``: write one model's hidden-state trajectory at the current
    ``p`` into ``contexts``; row t is the context fed to pair t.

    Every buffer is built here, once, so a call allocates nothing. The input
    projections of all pairs are one stacked ``matmul`` with a trailing unit
    axis: per pair the GEMV ``np.dot(Wx, x[t])`` makes, with its bits (at
    L = H = 1 a zero may change sign; the sigmoid maps both zeros to 0.5).
    Each step then computes ``(Wx x[t] + Wh c[t]) + b`` and the sigmoid
    unrolled as ``exp(min(z, 0)) / (1 + exp(-|z|))``, which is ``_sigmoid``
    bit for bit on every non-NaN z, with both exps in one call. A stacked
    recurrence over K models is bit-identical but slower for a lone model.
    """
    wx, wh, b = p["Wx"], p["Wh"], p["b"]
    h = b.size
    xs, proj = x[:-1, :, None], np.empty((x.shape[0] - 1, h, 1))
    u, v, scratch = np.empty(h), np.empty(h), np.empty((2, h))
    low, tail = scratch  # min(z, 0) and -|z|, exponentiated together in place
    # array operands: a Python float costs each ufunc call a conversion
    zero, one, minus_one = np.zeros(h), np.ones(h), np.full(h, -1.0)
    contexts[0] = 0.0
    steps = list(zip(proj[..., 0], contexts[:-1], contexts[1:]))
    matmul, dot, add, minimum, copysign, exp, divide = (
        np.matmul, np.dot, np.add, np.minimum, np.copysign, np.exp, np.divide)

    def fill() -> None:
        matmul(wx, xs, out=proj)
        for projected, context, following in steps:
            dot(wh, context, out=v)
            add(projected, v, out=u)
            add(u, b, out=u)
            minimum(u, zero, out=low)
            copysign(u, minus_one, out=tail)
            exp(scratch, out=scratch)
            add(tail, one, out=tail)
            divide(low, tail, out=following)

    return fill


def _enn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray,
                   contexts: np.ndarray, fill: Callable) -> Callable:
    """One-step-truncated gradient: the carried ``contexts``, which
    ``fill()`` recomputes at the start of each call, are data."""
    wx, wh, b, v = _t(p["Wx"]), _t(p["Wh"]), p["b"][..., None, :], p["v"][..., None, :]
    readout = _readout(p["v"], p["c"], g["v"], g["c"], y)

    def loss_grad() -> np.ndarray:
        fill()
        hid = _sigmoid(np.matmul(x, wx) + np.matmul(contexts, wh) + b)
        err, e = readout(hid)
        ds = (e[..., None] * v) * hid * (1.0 - hid)
        np.matmul(_t(ds), x, out=g["Wx"])
        np.matmul(_t(ds), contexts, out=g["Wh"])
        np.add.reduce(ds, axis=-2, out=g["b"])
        return _mse(err)

    return loss_grad


def _objective(kind: str, flat: np.ndarray, grad: np.ndarray, x: np.ndarray,
               y: np.ndarray, l: int, h: int, frozen: bool = False) -> Callable:
    """``loss()`` at the current contents of ``flat`` (one model, or K
    stacked along the leading axes); each call also writes the gradient into
    ``grad``. ENN recomputes every model's context trajectory on every call,
    unless ``frozen`` fixes it at the current ``flat``."""
    p, g = _views(kind, flat, l, h), _views(kind, grad, l, h)
    if kind == "BPNN":
        return _bpnn_loss_grad(p, g, x, y)
    if kind == "WNN":
        return _wnn_loss_grad(p, g, x, y)
    contexts = np.empty(x.shape[:-1] + (h,))
    fills = [_enn_context(_views(kind, flat[i], l, h), x[i], contexts[i])
             for i in np.ndindex(flat.shape[:-1])]

    def fill() -> None:
        for model_fill in fills:
            model_fill()

    if frozen:
        fill()
        return _enn_loss_grad(p, g, x, y, contexts, lambda: None)
    return _enn_loss_grad(p, g, x, y, contexts, fill)


def _pairs(kind: str, training_set: TrainingSet):
    """Training inputs and targets; ENN sees them sorted by source offset
    (Elman presentation order)."""
    if kind != "ENN":
        return training_set.inputs, training_set.targets
    order = np.argsort([p[0] for p in training_set.provenance], kind="stable")
    return training_set.inputs[order], training_set.targets[order]


def _descend(kind: str, flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int,
             h: int, epochs: int, learning_rate: float) -> list:
    """Full-batch descent of the K models stacked in ``flat`` (K, P), in
    place, for ``epochs`` epochs. Returns per model its (weights, loss
    curve), or the first epoch whose loss is non-finite. A diverged model
    runs on in the stack to the last epoch, on non-finite weights; a
    model's bits never depend on its group-mates, so it costs them nothing
    but time."""
    curves = np.empty((flat.shape[0], epochs + 1))
    grad, step = np.empty_like(flat), np.empty_like(flat)
    loss_grad = _objective(kind, flat, grad, x, y, l, h)
    # divergence overflows on the way, and a diverged model's inf and nan
    # weights make invalid operations; its loss curve reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            curves[:, epoch] = loss_grad()
            if epoch < epochs:
                np.multiply(grad, learning_rate, out=step)
                np.subtract(flat, step, out=flat)
    outcomes = []
    for weights, curve in zip(flat, curves):
        diverged = np.flatnonzero(~np.isfinite(curve))
        outcomes.append(int(diverged[0]) if diverged.size else (weights, curve))
    return outcomes


# ---------------------------------------------------------------------------
# Public contract
# ---------------------------------------------------------------------------

def train_many(training_sets: Sequence[TrainingSet], cfgs: Sequence[PredictorConfig],
               scales: Optional[Sequence[Optional[MinMaxScale]]] = None) -> list:
    """Fit one regressor per (training set, config, scale), bit for bit as
    :func:`train` fits each alone.

    Gradient-trained models that share (kind, pair count n, input length
    L, hidden units H, epochs, learning rate) form a group and descend in
    lockstep: one epoch loop over a (K, P) parameter buffer and a (K, P)
    gradient buffer for the group's K distinct requests, each from its own
    seeded start. Requests of a group with equal configs (seed included)
    and byte-equal pairs as the descent sees them (ENN's in provenance
    order) are one request: it descends once, and each of them gets its
    own copy of the result. GRNN models store their pairs.

    Returns
    -------
    list
        In input order, each :class:`TrainedModel` with its own scale, or
        the :class:`TrainingDivergedError` that :func:`train` raises for
        that model. A diverged model records its own epoch; its group-mates
        train on untouched.
    """
    scales = [None] * len(cfgs) if scales is None else scales
    fitted, groups = [None] * len(cfgs), {}
    for i, (training_set, cfg) in enumerate(zip(training_sets, cfgs)):
        if cfg.kind == "GRNN":
            fitted[i] = (np.concatenate([training_set.inputs.ravel(), training_set.targets]),
                         np.zeros(0))
        else:
            key = (cfg.kind, training_set.size, training_set.input_length,
                   cfg.hidden_units, cfg.epochs, cfg.learning_rate)
            groups.setdefault(key, []).append(i)
    for (kind, _, l, h, epochs, learning_rate), members in groups.items():
        requests = {}  # (config, pair bytes) -> (config, x, y, the indices asking)
        for i in members:
            x, y = _pairs(kind, training_sets[i])
            request = (cfgs[i], x.tobytes(), y.tobytes())
            requests.setdefault(request, (cfgs[i], x, y, []))[-1].append(i)
        distinct, x, y, asking = zip(*requests.values())
        flat = np.stack([_init_params(cfg, l) for cfg in distinct])
        outcomes = _descend(kind, flat, np.stack(x), np.stack(y), l, h, epochs, learning_rate)
        for indices, outcome in zip(asking, outcomes):
            for i in indices:
                fitted[i] = outcome
    return [
        TrainingDivergedError(cfg.kind, outcome, cfg.learning_rate)
        if isinstance(outcome, int) else TrainedModel(
            kind=cfg.kind, input_length=training_set.input_length,
            hidden_units=cfg.hidden_units, weights=outcome[0].copy(),
            grnn_sigma=cfg.grnn_sigma, scale=scale, training_loss_curve=outcome[1].copy(),
        )
        for training_set, cfg, scale, outcome in zip(training_sets, cfgs, scales, fitted)
    ]


def train(training_set: TrainingSet, cfg: PredictorConfig,
          scale: Optional[MinMaxScale] = None) -> TrainedModel:
    """Fit a regressor of ``cfg.kind`` on the training pairs; the one-model
    call of :func:`train_many`.

    Gradient-trained kinds run full-batch descent on mean squared error for
    ``cfg.epochs`` epochs from a seeded uniform initialization; GRNN simply
    stores the pairs. Deterministic given ``cfg.seed``. A loss that becomes
    non-finite raises :class:`TrainingDivergedError` naming the epoch.

    Parameters
    ----------
    training_set : TrainingSet
        Non-empty supervised pairs.
    cfg : PredictorConfig
        Architecture and optimization settings.
    scale : MinMaxScale, optional
        Normalization metadata carried on the model for save/load; the
        model itself always operates in the space of its training data.
    """
    model = train_many([training_set], [cfg], [scale])[0]
    if isinstance(model, TrainingDivergedError):
        raise model
    return model


def _grnn_predict(p: dict, x: np.ndarray, sigma: float) -> float:
    d2 = np.sum((p["inputs"] - x) ** 2, axis=1)
    # shift by the minimum so the nearest pair always has unit kernel weight
    w = np.exp(-(d2 - d2.min()) / (2.0 * sigma**2))
    return float(w @ p["targets"] / w.sum())


def _checked_input(model: TrainedModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_length,):
        raise ValueError(
            f"input length {x.shape} does not match model input length "
            f"({model.input_length},)"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def _enn_hidden(p: dict, x: np.ndarray, context: np.ndarray) -> np.ndarray:
    return _sigmoid(p["Wx"] @ x + p["Wh"] @ context + p["b"])


def predict(model: TrainedModel, x, context: Optional[np.ndarray] = None) -> float:
    """Deterministic forward pass for one input window.

    ENN context starts at zero unless an explicit session context is given
    (see :class:`ForecastSession`), so independent calls never interfere.
    """
    x = _checked_input(model, x)
    p = _views(model.kind, model.weights, model.input_length, model.hidden_units,
               model._grnn_pairs())
    if model.kind == "GRNN":
        return _grnn_predict(p, x, model.grnn_sigma)
    if model.kind == "BPNN":
        return float(_bpnn_forward(p, x[None, :])[0])
    if model.kind == "WNN":
        return float(_wnn_forward(p, x[None, :])[0])
    h = np.zeros(model.hidden_units) if context is None else context
    return float(_enn_hidden(p, x, h) @ p["v"] + p["c"][0])


class ForecastSession:
    """Stateful multi-step forecast for one component.

    ENN carries its hidden context across the steps of one session and
    starts each session from zero; other kinds are stateless, so the
    session is a plain sequence of predictions.
    """

    def __init__(self, model: TrainedModel):
        self.model = model
        if model.kind == "ENN":
            self._params = _views("ENN", model.weights, model.input_length,
                                  model.hidden_units)
            self._context = np.zeros(model.hidden_units)

    def step(self, x) -> float:
        model = self.model
        if model.kind != "ENN":
            return predict(model, x)
        p = self._params
        self._context = _enn_hidden(p, _checked_input(model, x), self._context)
        return float(self._context @ p["v"] + p["c"][0])


def gradient_check(cfg: PredictorConfig, training_set: TrainingSet,
                   step: float = 1e-5) -> float:
    """Maximum relative error between analytic and central finite-difference
    gradients at the seeded initialization.

    For ENN the context trajectory is frozen at the evaluation point, which
    is exactly the objective the one-step-truncated gradient differentiates.
    """
    if cfg.kind not in GRADIENT_TRAINED:
        raise ValueError(f"{cfg.kind} is not gradient-trained")
    flat = _init_params(cfg, training_set.input_length)
    grad = np.empty_like(flat)
    x, y = _pairs(cfg.kind, training_set)
    loss_grad = _objective(cfg.kind, flat, grad, x, y, training_set.input_length,
                           cfg.hidden_units, frozen=True)
    loss_grad()
    analytic = grad.copy()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        centre = flat[i]
        flat[i] = centre + step
        hi = loss_grad()
        flat[i] = centre - step
        lo = loss_grad()
        flat[i] = centre
        numeric[i] = (hi - lo) / (2.0 * step)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def model_to_dict(model: TrainedModel) -> dict:
    return {
        "kind": model.kind,
        "input_length": model.input_length,
        "hidden_units": model.hidden_units,
        "grnn_sigma": model.grnn_sigma,
        "weights": model.weights.tolist(),
        "scale": model.scale.to_dict() if model.scale is not None else None,
        "training_loss_curve": model.training_loss_curve.tolist(),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    return TrainedModel(
        kind=doc["kind"],
        input_length=int(doc["input_length"]),
        hidden_units=int(doc["hidden_units"]),
        grnn_sigma=float(doc.get("grnn_sigma", 0.1)),
        weights=np.array(doc["weights"], dtype=np.float64),
        scale=MinMaxScale.from_dict(doc["scale"]) if doc.get("scale") else None,
        training_loss_curve=np.array(doc.get("training_loss_curve", []), dtype=np.float64),
    )


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2))


def load_model(path) -> TrainedModel:
    return model_from_dict(json.loads(Path(path).read_text()))
