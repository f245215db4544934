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
once by ``_views``. ``train`` owns one parameter buffer and one gradient
buffer with the same layout; each epoch writes the gradient through its
views and updates the parameters in place, so an epoch allocates no
parameter or gradient array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

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
    l, h = input_length, hidden_units
    if kind == "BPNN":
        return h * l + 2 * h + 1
    if kind == "WNN":
        return h * l + 3 * h + 1
    if kind == "ENN":
        return h * l + h * h + 2 * h + 1
    if kind == "GRNN":
        return n_pairs * (l + 1)
    raise ValueError(f"unknown kind {kind!r}")


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

def _views(kind: str, flat: np.ndarray, l: int, h: int) -> dict:
    """Named views into ``flat`` in the layout of the module docstring;
    writing through a view writes ``flat``."""
    if kind == "BPNN":
        layout = (("W1", (h, l)), ("b1", (h,)), ("w2", (h,)), ("b2", (1,)))
    elif kind == "WNN":
        layout = (("W", (h, l)), ("t", (h,)), ("d", (h,)), ("v", (h,)), ("c", (1,)))
    elif kind == "ENN":
        layout = (("Wx", (h, l)), ("Wh", (h, h)), ("b", (h,)), ("v", (h,)), ("c", (1,)))
    else:
        raise ValueError(f"{kind} has no dense parameter layout")
    views, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
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
# Loss and gradients (full batch, mean squared error). Each function reads
# the parameter views ``p``, writes the gradient into the views ``g`` and
# returns the loss. ``np.add.reduce`` is the reduction ``np.sum`` and
# ``np.mean`` run, without their Python-level dispatch.
# ---------------------------------------------------------------------------

def _bpnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    a = _sigmoid(x @ p["W1"].T + p["b1"])
    return a @ p["w2"] + p["b2"][0]


def _bpnn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray) -> float:
    a = _sigmoid(x @ p["W1"].T + p["b1"])
    err = a @ p["w2"] + p["b2"][0] - y
    e = 2.0 * err / y.size
    g["b2"][0] = np.add.reduce(e)
    np.matmul(a.T, e, out=g["w2"])
    dz = (e[:, None] * p["w2"][None, :]) * a * (1.0 - a)
    np.matmul(dz.T, x, out=g["W1"])
    np.add.reduce(dz, axis=0, out=g["b1"])
    return float(np.add.reduce(err * err) / y.size)


def _wnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    u = (x @ p["W"].T - p["t"]) / p["d"]
    return _morlet(u) @ p["v"] + p["c"][0]


def _wnn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray) -> float:
    u = (x @ p["W"].T - p["t"]) / p["d"]
    psi = _morlet(u)
    err = psi @ p["v"] + p["c"][0] - y
    e = 2.0 * err / y.size
    du = (e[:, None] * p["v"][None, :]) * _morlet_deriv(u)
    du_scaled = du / p["d"]
    g["c"][0] = np.add.reduce(e)
    np.matmul(psi.T, e, out=g["v"])
    np.matmul(du_scaled.T, x, out=g["W"])
    np.negative(np.add.reduce(du_scaled, axis=0, out=g["t"]), out=g["t"])
    np.add.reduce(du * (-u / p["d"]), axis=0, out=g["d"])
    return float(np.add.reduce(err * err) / y.size)


def _enn_context(p: dict, x: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """Fill ``contexts`` with the hidden-state trajectory; row t is the
    context fed to pair t.

    The recurrence runs pair by pair on purpose: batching ``x @ Wx.T`` over
    the trajectory turns GEMVs into one GEMM and moves low-order bits.
    """
    wx, wh, b = p["Wx"], p["Wh"], p["b"]
    u, v = np.empty(b.size), np.empty(b.size)
    contexts[0] = 0.0
    for t in range(x.shape[0] - 1):
        np.dot(wx, x[t], out=u)
        u += np.dot(wh, contexts[t], out=v)
        u += b
        _sigmoid(u, out=contexts[t + 1])
    return contexts


def _enn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray,
                   contexts: np.ndarray) -> float:
    """One-step-truncated gradient: the carried ``contexts`` are data."""
    hid = _sigmoid(x @ p["Wx"].T + contexts @ p["Wh"].T + p["b"])
    err = hid @ p["v"] + p["c"][0] - y
    e = 2.0 * err / y.size
    ds = (e[:, None] * p["v"][None, :]) * hid * (1.0 - hid)
    g["c"][0] = np.add.reduce(e)
    np.matmul(hid.T, e, out=g["v"])
    np.matmul(ds.T, x, out=g["Wx"])
    np.matmul(ds.T, contexts, out=g["Wh"])
    np.add.reduce(ds, axis=0, out=g["b"])
    return float(np.add.reduce(err * err) / y.size)


def _objective(kind: str, flat: np.ndarray, grad: np.ndarray, x: np.ndarray,
               y: np.ndarray, l: int, h: int, frozen: bool = False) -> Callable[[], float]:
    """``loss()`` at the current contents of ``flat``; each call also writes
    the gradient into ``grad``. ENN recomputes the context trajectory on
    every call, unless ``frozen`` fixes it at the current ``flat``."""
    p, g = _views(kind, flat, l, h), _views(kind, grad, l, h)
    if kind == "BPNN":
        return lambda: _bpnn_loss_grad(p, g, x, y)
    if kind == "WNN":
        return lambda: _wnn_loss_grad(p, g, x, y)
    contexts = np.empty((x.shape[0], h))
    if frozen:
        _enn_context(p, x, contexts)
        return lambda: _enn_loss_grad(p, g, x, y, contexts)
    return lambda: _enn_loss_grad(p, g, x, y, _enn_context(p, x, contexts))


def _pairs(kind: str, training_set: TrainingSet):
    """Training inputs and targets; ENN sees them sorted by source offset
    (Elman presentation order)."""
    if kind != "ENN":
        return training_set.inputs, training_set.targets
    order = np.argsort([p[0] for p in training_set.provenance], kind="stable")
    return training_set.inputs[order], training_set.targets[order]


# ---------------------------------------------------------------------------
# Public contract
# ---------------------------------------------------------------------------

def train(training_set: TrainingSet, cfg: PredictorConfig,
          scale: Optional[MinMaxScale] = None) -> TrainedModel:
    """Fit a regressor of ``cfg.kind`` on the training pairs.

    Gradient-trained kinds run full-batch descent on mean squared error for
    ``cfg.epochs`` epochs from a seeded uniform initialization; GRNN simply
    stores the pairs. Deterministic given ``cfg.seed``.

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
    l = training_set.input_length
    if cfg.kind == "GRNN":
        flat = np.concatenate([training_set.inputs.ravel(), training_set.targets])
        return TrainedModel(
            kind="GRNN", input_length=l, hidden_units=cfg.hidden_units,
            weights=flat, grnn_sigma=cfg.grnn_sigma, scale=scale,
        )

    h = cfg.hidden_units
    flat = _init_params(cfg, l)
    grad, step = np.empty_like(flat), np.empty_like(flat)
    x, y = _pairs(cfg.kind, training_set)
    loss_grad = _objective(cfg.kind, flat, grad, x, y, l, h)
    curve = np.empty(cfg.epochs + 1)
    # divergence overflows on the way; the finite-loss checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss = loss_grad()
            if not np.isfinite(loss):
                raise TrainingDivergedError(cfg.kind, epoch, cfg.learning_rate)
            curve[epoch] = loss
            np.multiply(grad, cfg.learning_rate, out=step)
            np.subtract(flat, step, out=flat)
        final_loss = loss_grad()
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(cfg.kind, cfg.epochs, cfg.learning_rate)
    curve[-1] = final_loss
    return TrainedModel(
        kind=cfg.kind, input_length=l, hidden_units=h, weights=flat,
        grnn_sigma=cfg.grnn_sigma, scale=scale, training_loss_curve=curve,
    )


def _grnn_predict(model: TrainedModel, x: np.ndarray) -> float:
    l = model.input_length
    n = model._grnn_pairs()
    stored = model.weights[: n * l].reshape(n, l)
    targets = model.weights[n * l :]
    d2 = np.sum((stored - x) ** 2, axis=1)
    # shift by the minimum so the nearest pair always has unit kernel weight
    w = np.exp(-(d2 - d2.min()) / (2.0 * model.grnn_sigma**2))
    return float(w @ targets / w.sum())


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
    if model.kind == "GRNN":
        return _grnn_predict(model, x)
    p = _views(model.kind, model.weights, model.input_length, model.hidden_units)
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
