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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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
        if self.learning_rate <= 0 or self.grnn_sigma <= 0:
            raise ValueError("learning_rate and grnn_sigma must be positive")


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _morlet(u: np.ndarray) -> np.ndarray:
    return np.cos(1.75 * u) * np.exp(-0.5 * u * u)


def _morlet_deriv(u: np.ndarray) -> np.ndarray:
    return -np.exp(-0.5 * u * u) * (1.75 * np.sin(1.75 * u) + u * np.cos(1.75 * u))


# ---------------------------------------------------------------------------
# Flat parameter layout helpers
# ---------------------------------------------------------------------------

def _shapes(kind: str, l: int, h: int) -> list:
    if kind == "BPNN":
        return [("W1", (h, l)), ("b1", (h,)), ("w2", (h,)), ("b2", (1,))]
    if kind == "WNN":
        return [("W", (h, l)), ("t", (h,)), ("d", (h,)), ("v", (h,)), ("c", (1,))]
    if kind == "ENN":
        return [("Wx", (h, l)), ("Wh", (h, h)), ("b", (h,)), ("v", (h,)), ("c", (1,))]
    raise ValueError(f"{kind} has no dense parameter layout")


def _unpack(kind: str, flat: np.ndarray, l: int, h: int) -> dict:
    params = {}
    offset = 0
    for name, shape in _shapes(kind, l, h):
        size = int(np.prod(shape))
        params[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return params


def _pack(kind: str, params: dict, l: int, h: int) -> np.ndarray:
    return np.concatenate(
        [np.ravel(params[name]) for name, _ in _shapes(kind, l, h)]
    )


def _init_params(cfg: PredictorConfig, l: int) -> np.ndarray:
    """Uniform [-0.5, 0.5] initialization; WNN dilations start in [0.5, 1.5]
    to keep the wavelet argument well scaled."""
    rng = spawn_rng(cfg.seed)
    h = cfg.hidden_units
    flat = rng.uniform(-0.5, 0.5, weight_count(cfg.kind, l, h))
    if cfg.kind == "WNN":
        params = _unpack("WNN", flat, l, h)
        params["d"][:] = rng.uniform(0.5, 1.5, h)
    return flat


# ---------------------------------------------------------------------------
# Loss and gradients (full batch, mean squared error)
# ---------------------------------------------------------------------------

def _bpnn_forward(params: dict, x: np.ndarray) -> np.ndarray:
    a = _sigmoid(x @ params["W1"].T + params["b1"])
    return a @ params["w2"] + params["b2"][0]


def _bpnn_loss_grad(flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int, h: int):
    p = _unpack("BPNN", flat, l, h)
    z = x @ p["W1"].T + p["b1"]
    a = _sigmoid(z)
    pred = a @ p["w2"] + p["b2"][0]
    err = pred - y
    loss = float(np.mean(err * err))
    e = 2.0 * err / y.size
    grads = {
        "b2": np.array([e.sum()]),
        "w2": a.T @ e,
    }
    dz = (e[:, None] * p["w2"][None, :]) * a * (1.0 - a)
    grads["W1"] = dz.T @ x
    grads["b1"] = dz.sum(axis=0)
    return loss, _pack("BPNN", grads, l, h)


def _wnn_forward(params: dict, x: np.ndarray) -> np.ndarray:
    u = (x @ params["W"].T - params["t"]) / params["d"]
    return _morlet(u) @ params["v"] + params["c"][0]


def _wnn_loss_grad(flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int, h: int):
    p = _unpack("WNN", flat, l, h)
    u = (x @ p["W"].T - p["t"]) / p["d"]
    psi = _morlet(u)
    pred = psi @ p["v"] + p["c"][0]
    err = pred - y
    loss = float(np.mean(err * err))
    e = 2.0 * err / y.size
    du = (e[:, None] * p["v"][None, :]) * _morlet_deriv(u)
    du_scaled = du / p["d"]
    grads = {
        "c": np.array([e.sum()]),
        "v": psi.T @ e,
        "W": du_scaled.T @ x,
        "t": -du_scaled.sum(axis=0),
        "d": (du * (-u / p["d"])).sum(axis=0),
    }
    return loss, _pack("WNN", grads, l, h)


def _enn_context(p: dict, x: np.ndarray) -> np.ndarray:
    """Hidden-state trajectory; row t is the context fed to pair t."""
    n = x.shape[0]
    h_dim = p["b"].size
    contexts = np.zeros((n, h_dim))
    h = np.zeros(h_dim)
    for t in range(n):
        contexts[t] = h
        h = _sigmoid(p["Wx"] @ x[t] + p["Wh"] @ h + p["b"])
    return contexts


def _enn_loss_grad(flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int, h: int,
                   contexts: Optional[np.ndarray] = None):
    """One-step-truncated gradient: the carried context is treated as data.

    When ``contexts`` is given the trajectory is frozen (used by the
    finite-difference check); otherwise it is recomputed from ``flat``.
    """
    p = _unpack("ENN", flat, l, h)
    if contexts is None:
        contexts = _enn_context(p, x)
    s = x @ p["Wx"].T + contexts @ p["Wh"].T + p["b"]
    hid = _sigmoid(s)
    pred = hid @ p["v"] + p["c"][0]
    err = pred - y
    loss = float(np.mean(err * err))
    e = 2.0 * err / y.size
    ds = (e[:, None] * p["v"][None, :]) * hid * (1.0 - hid)
    grads = {
        "c": np.array([e.sum()]),
        "v": hid.T @ e,
        "Wx": ds.T @ x,
        "Wh": ds.T @ contexts,
        "b": ds.sum(axis=0),
    }
    return loss, _pack("ENN", grads, l, h)


_LOSS_GRAD = {"BPNN": _bpnn_loss_grad, "WNN": _wnn_loss_grad, "ENN": _enn_loss_grad}


def _ordered_pairs(training_set: TrainingSet):
    """Pairs sorted by source offset (Elman presentation order)."""
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

    if cfg.kind == "ENN":
        x, y = _ordered_pairs(training_set)
    else:
        x, y = training_set.inputs, training_set.targets
    h = cfg.hidden_units
    loss_grad = _LOSS_GRAD[cfg.kind]
    flat = _init_params(cfg, l)
    curve = np.empty(cfg.epochs + 1)
    # divergence overflows on the way; the finite-loss checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss, grad = loss_grad(flat, x, y, l, h)
            if not np.isfinite(loss):
                raise TrainingDivergedError(cfg.kind, epoch, cfg.learning_rate)
            curve[epoch] = loss
            flat = flat - cfg.learning_rate * grad
        final_loss, _ = loss_grad(flat, x, y, l, h)
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


def predict(model: TrainedModel, x, context: Optional[np.ndarray] = None) -> float:
    """Deterministic forward pass for one input window.

    ENN context starts at zero unless an explicit session context is given
    (see :class:`ForecastSession`), so independent calls never interfere.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_length,):
        raise ValueError(
            f"input length {x.shape} does not match model input length "
            f"({model.input_length},)"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    if model.kind == "GRNN":
        return _grnn_predict(model, x)
    p = _unpack(model.kind, model.weights, model.input_length, model.hidden_units)
    if model.kind == "BPNN":
        return float(_bpnn_forward(p, x[None, :])[0])
    if model.kind == "WNN":
        return float(_wnn_forward(p, x[None, :])[0])
    h = np.zeros(model.hidden_units) if context is None else context
    hid = _sigmoid(p["Wx"] @ x + p["Wh"] @ h + p["b"])
    return float(hid @ p["v"] + p["c"][0])


class ForecastSession:
    """Stateful multi-step forecast for one component.

    ENN carries its hidden context across the steps of one session and
    starts each session from zero; other kinds are stateless, so the
    session is a plain sequence of predictions.
    """

    def __init__(self, model: TrainedModel):
        self.model = model
        self._context = (
            np.zeros(model.hidden_units) if model.kind == "ENN" else None
        )

    def step(self, x) -> float:
        model = self.model
        if model.kind != "ENN":
            return predict(model, x)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (model.input_length,):
            raise ValueError(
                f"input length {x.shape} does not match model input length "
                f"({model.input_length},)"
            )
        p = _unpack("ENN", model.weights, model.input_length, model.hidden_units)
        hid = _sigmoid(p["Wx"] @ x + p["Wh"] @ self._context + p["b"])
        self._context = hid
        return float(hid @ p["v"] + p["c"][0])


def gradient_check(cfg: PredictorConfig, training_set: TrainingSet,
                   step: float = 1e-5) -> float:
    """Maximum relative error between analytic and central finite-difference
    gradients at the seeded initialization.

    For ENN the context trajectory is frozen at the evaluation point, which
    is exactly the objective the one-step-truncated gradient differentiates.
    """
    if cfg.kind not in GRADIENT_TRAINED:
        raise ValueError(f"{cfg.kind} is not gradient-trained")
    l = training_set.input_length
    h = cfg.hidden_units
    if cfg.kind == "ENN":
        x, y = _ordered_pairs(training_set)
    else:
        x, y = training_set.inputs, training_set.targets
    loss_grad = _LOSS_GRAD[cfg.kind]
    flat = _init_params(cfg, l)

    kwargs = {}
    if cfg.kind == "ENN":
        p = _unpack("ENN", flat, l, h)
        kwargs["contexts"] = _enn_context(p, x)

    _, analytic = loss_grad(flat, x, y, l, h, **kwargs)
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        hi, _ = loss_grad(bumped, x, y, l, h, **kwargs)
        bumped[i] = flat[i] - step
        lo, _ = loss_grad(bumped, x, y, l, h, **kwargs)
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
