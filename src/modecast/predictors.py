"""Small neural regressors behind one contract: train on (window -> value)
pairs, predict a scalar from a window.

Kinds
-----
BPNN : one sigmoid hidden layer, linear output, full-batch gradient descent.
WNN  : same topology with a Morlet wavelet activation
       psi(u) = cos(1.75 u) * exp(-u^2 / 2) and per-unit translation and
       dilation, trained by the same descent.
ENN  : Elman network: the BPNN layer fed the window and the context units,
       which copy the previous hidden state. Pairs are presented in
       source-offset order and gradients are truncated to one step (the
       carried context is treated as data).
GRNN : Nadaraya-Watson kernel regressor over stored pairs; no iterative
       training.

Flat weight layouts (row-major, L = input length, H = hidden units, n = pairs)
    BPNN: [W (H*L), b (H), v (H), c (1)]
    WNN:  [W (H*L), t (H), d (H), v (H), c (1)]
    ENN:  [Wx (H*L), Wh (H*H), b (H), v (H), c (1)]
    GRNN: [inputs (n*L), targets (n)]

The named blocks of a dense layout are *views* into one flat buffer, built
once by ``_views``; with K models stacked, every view gains a leading K axis.
Descent runs on its own layout of BPNN and ENN, ``[A, v, c]``, in which
the hidden layer is one block ``A`` of contiguous rows: BPNN's
``[W | b]`` (H, L + 1), and ENN's ``[Wh | Wx | b | 0]`` (H, W), with W =
H + L + 1 rounded up to even by a zero pad column. ``_descend`` places
the weights into it once and reads them back once, through one position
index (``_descent_layout``).

Training runs in lockstep. ``train_many`` groups its models by (kind, pairs
n, input length L, hidden units H, epochs, learning rate) and runs one
epoch loop per group over a (K, P) parameter buffer and a (K, P) gradient
buffer: each epoch writes every model's gradient through the views and
updates the parameters in place. A group descends each distinct request
(config and pairs) once, and every request gets its own result. Each
stacked product is the BLAS call a lone model makes, on operands aligned
as a lone model's are (``_stacked``), so every model comes out bit for bit
as if trained alone; ``train`` is the one-model call. A model whose loss
turns non-finite runs on to the last epoch and is reported diverged at
that epoch.

Each epoch costs a fixed sequence of numpy calls, so the loop is built to
make few of them. The BPNN and ENN epochs (one sigmoid-layer builder,
``_sigmoid_loss_grad``) and the shared readout write every temporary into
buffers built once per group. The layer is one product each way: the
pairs enter as the rows ``z`` of ``_rows`` (BPNN ``[x | 1]``, ENN
``[c | x | 1 | 0]``), so ``z @ A.T`` is the pre-activation and ``ds.T @
z`` the gradient of ``A``; BLAS sums the terms in its own order, so these
are not always the bits of separate products and adds. The ENN context
recurrence runs model by model on the same ``A`` and ``z``
(``_enn_context``), one GEMV and one ``expit`` per step into ``z``'s
context columns. An epoch writes its residuals into one row of a block of
``_BLOCK`` epochs, and the loss curves are reduced once per block, not
once per epoch. The sigmoid is ``1 / (1 + exp(-z))``: four numpy calls
under ``errstate(over="ignore")`` in the layer and BPNN's predict, and
scipy's ``expit`` in the ENN recurrence and forecast steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import check_integers, frozen_copy, spawn_rng
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
        check_integers(1, hidden_units=self.hidden_units, epochs=self.epochs)
        check_integers(0, seed=self.seed)
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
    training_loss_curve: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        for name in ("weights", "training_loss_curve"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))
        expected = weight_count(self.kind, self.input_length, self.hidden_units,
                                n_pairs=self._grnn_pairs())
        if self.weights.size != expected:
            raise ValueError(
                f"{self.kind} weight vector has {self.weights.size} entries, expected {expected}"
            )

    def _grnn_pairs(self) -> int:
        if self.kind != "GRNN":
            return 0
        return int(np.asarray(self.weights).size // (self.input_length + 1))


def weight_count(kind: str, input_length: int, hidden_units: int, n_pairs: int = 0) -> int:
    """Parameter count implied by the architecture."""
    return sum(math.prod(shape) for _, shape in _layout(kind, input_length, hidden_units, n_pairs))


def _morlet(u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.multiply(np.cos(1.75 * u), np.exp(-0.5 * u * u), out=out)


def _morlet_deriv(u: np.ndarray) -> np.ndarray:
    return -np.exp(-0.5 * u * u) * (1.75 * np.sin(1.75 * u) + u * np.cos(1.75 * u))


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------

def _layout(kind: str, l: int, h: int, n: int = 0, fold: bool = False) -> tuple:
    """The (name, shape) blocks of a kind's flat weight vector, in the order
    of the module docstring; with ``fold``, of the layout descent runs on."""
    if fold and kind in ("BPNN", "ENN"):
        width = l + 1 if kind == "BPNN" else h + l + 1 + (h + l + 1) % 2
        return (("A", (h, width)), ("v", (h,)), ("c", (1,)))
    layouts = {
        "BPNN": (("W", (h, l)), ("b", (h,)), ("v", (h,)), ("c", (1,))),
        "WNN": (("W", (h, l)), ("t", (h,)), ("d", (h,)), ("v", (h,)), ("c", (1,))),
        "ENN": (("Wx", (h, l)), ("Wh", (h, h)), ("b", (h,)), ("v", (h,)), ("c", (1,))),
        "GRNN": (("inputs", (n, l)), ("targets", (n,))),
    }
    if kind not in layouts:
        raise ValueError(f"unknown kind {kind!r}")
    return layouts[kind]


def _views(kind: str, flat: np.ndarray, l: int, h: int, n: int = 0,
           fold: bool = False) -> dict:
    """Named views into ``flat`` in the blocks of :func:`_layout`;
    writing through a view writes ``flat``. Leading axes of ``flat`` (K
    stacked models) lead every view."""
    views, offset, lead = {}, 0, flat.shape[:-1]
    for name, shape in _layout(kind, l, h, n, fold):
        size = math.prod(shape)
        views[name] = flat[..., offset : offset + size].reshape(lead + shape, copy=False)
        offset += size
    return views


def _descent_layout(kind: str, flat: np.ndarray, l: int, h: int) -> tuple:
    """``(params, positions)``: a zeroed (..., S + S % 2) buffer in the S
    slots of the layout descent runs on, holding the public weights
    ``flat`` at ``params[..., positions]``. The pads (ENN's pad column, the
    trailing slot) stay zero, and each row starts 16 bytes aligned (see
    ``_stacked``). WNN's positions are the identity."""
    size = sum(math.prod(shape) for _, shape in _layout(kind, l, h, fold=True))
    index = _views(kind, np.arange(size), l, h, fold=True)
    if kind != "WNN":
        a, skip = index["A"], h if kind == "ENN" else 0
        index.update(Wh=a[:, :skip], W=a[:, skip : skip + l], Wx=a[:, skip : skip + l],
                     b=a[:, skip + l])
    positions = np.concatenate([index[name].ravel() for name, _ in _layout(kind, l, h)])
    params = np.zeros(flat.shape[:-1] + (size + size % 2,))
    params[..., positions] = flat
    return params, positions


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
# builds its broadcast views and buffers once and returns ``loss_grad(err)``,
# which reads ``p``, writes the gradient into ``g`` and the residual
# (prediction - target) into ``err``, an (..., n) array; the loss is
# ``_mse(err)``. Every stacked item of a ``matmul`` is the BLAS call a single
# model makes (a matrix-vector product keeps a trailing unit axis, so it
# stays a GEMV), and every reduction runs over one model's axis in one
# model's order, so a model's bits do not depend on its group-mates. The hot
# closures bind their numpy functions to locals and pass ``out``
# positionally; constants are 0-d arrays, which ufuncs take unconverted.
# ---------------------------------------------------------------------------

_BLOCK = 64  # epochs whose residuals ``_descend`` keeps per loss-curve reduction

_one = np.array(1.0)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _stacked(shape: tuple) -> np.ndarray:
    """An empty (K, ...) float64 array whose K items each start 16 bytes
    aligned, as a lone model's buffer does: each is padded to an even
    number of floats. On SSE2 kernels (OpenBLAS's Prescott) a product's
    bits follow the 16-byte alignment of its operands."""
    size = math.prod(shape[1:])
    return np.empty((shape[0], size + size % 2))[:, :size].reshape(shape, copy=False)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _readout(v: np.ndarray, c: np.ndarray, gv: np.ndarray, gc: np.ndarray,
             y: np.ndarray, hidden: np.ndarray) -> tuple:
    """``(grad, e)``: ``grad(err)`` writes the residual of the linear
    readout ``hidden @ v + c`` into ``err``, the scaled error ``2 err / n``
    into the buffer ``e`` and the readout's gradient into ``gv`` and
    ``gc``, for the current contents of the buffer ``hidden``. ``e`` is
    ``err / (n / 2)``, the bits of ``(2 err) / n`` while ``2 err`` is finite."""
    v, gv, gc, hidden_t = v[..., None], gv[..., None], gc[..., 0], _t(hidden)
    out, e = _stacked(y.shape + (1,)), _stacked(y.shape)
    projected, column = out[..., 0], e[..., None]
    half = np.array(y.shape[-1] / 2)
    matmul, add, subtract, divide = np.matmul, np.add, np.subtract, np.divide

    def grad(err: np.ndarray) -> None:
        matmul(hidden, v, out)
        add(projected, c, err)
        subtract(err, y, err)
        divide(err, half, e)
        add.reduce(e, -1, None, gc)
        matmul(hidden_t, column, gv)

    return grad, e


def _mse(err: np.ndarray) -> np.ndarray:
    return np.add.reduce(err * err, axis=-1) / err.shape[-1]


def _bpnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    a = _sigmoid(x @ p["W"].T + p["b"])
    return a @ p["v"] + p["c"][0]


def _sigmoid_loss_grad(p: dict, g: dict, y: np.ndarray, z: np.ndarray,
                       fill: Callable = lambda: None) -> Callable:
    """The sigmoid layer ``sigmoid(z @ A.T)`` under the shared readout, on
    the rows ``z`` of ``_rows``, with the gradient ``gA = ds.T @ z``.
    ``fill()`` runs first in each call; ENN's recomputes the carried
    contexts into ``z`` there, which the gradient treats as data (one-step
    truncation). Every temporary is built here, once, as a (K, n, H) array
    of C-contiguous items, so a call allocates nothing. Its callers,
    ``_descend`` and ``gradient_check``, hold the sigmoid's
    ``errstate(over="ignore")``."""
    v = p["v"][..., None, :]
    shape = y.shape + v.shape[-1:]
    s, hid, ds, complement = (_stacked(shape) for _ in range(4))
    w, grad = _t(p["A"]), g["A"]
    readout, e = _readout(p["v"], p["c"], g["v"], g["c"], y, hid)
    column, ds_t = e[..., None], _t(ds)
    matmul, add, subtract, multiply, negative, exp, divide = (
        np.matmul, np.add, np.subtract, np.multiply, np.negative, np.exp, np.divide)

    def loss_grad(err: np.ndarray) -> None:
        fill()
        matmul(z, w, s)
        negative(s, hid)
        exp(hid, hid)
        add(hid, _one, hid)
        divide(_one, hid, hid)
        readout(err)
        multiply(column, v, ds)
        multiply(ds, hid, ds)
        subtract(_one, hid, complement)
        multiply(ds, complement, ds)
        matmul(ds_t, z, grad)

    return loss_grad


def _wnn_forward(p: dict, x: np.ndarray) -> np.ndarray:
    u = (x @ p["W"].T - p["t"]) / p["d"]
    return _morlet(u) @ p["v"] + p["c"][0]


def _wnn_loss_grad(p: dict, g: dict, x: np.ndarray, y: np.ndarray) -> Callable:
    w, t, d, v = _t(p["W"]), p["t"][..., None, :], p["d"][..., None, :], p["v"][..., None, :]
    u, psi, du_scaled = (_stacked(y.shape + w.shape[-1:]) for _ in range(3))
    readout, e = _readout(p["v"], p["c"], g["v"], g["c"], y, psi)

    def loss_grad(err: np.ndarray) -> None:
        np.divide(np.subtract(np.matmul(x, w, out=u), t, out=u), d, out=u)
        _morlet(u, psi)
        readout(err)
        du = (e[..., None] * v) * _morlet_deriv(u)
        np.divide(du, d, out=du_scaled)
        np.matmul(_t(du_scaled), x, out=g["W"])
        # not np.negative(g["t"], out=g["t"]): numpy 2.4 writes an in-place
        # negative to the wrong elements when the stride is 64 bytes (P = 8)
        g["t"][...] = np.negative(np.add.reduce(du_scaled, axis=-2))
        np.add.reduce(du * (-u / d), axis=-2, out=g["d"])

    return loss_grad


def _rows(x: np.ndarray, width: int, skip: int) -> np.ndarray:
    """The rows ``[c | x | 1 | 0]``, ``width`` wide, over the pairs ``x``
    (..., n, L), built with ``_stacked``: ``c`` is the first ``skip``
    columns, and it and the pad are zero. They meet the block ``A``."""
    z = _stacked(x.shape[:-1] + (width,))
    z[...] = 0.0
    z[..., skip : skip + x.shape[-1]], z[..., skip + x.shape[-1]] = x, 1.0
    return z


def _enn_context(a: np.ndarray, z: np.ndarray) -> Callable:
    """``fill()``: write one model's hidden-state trajectory at the current
    contents of its block ``a = [Wh | Wx | b | 0]`` (H, W) into the context
    columns of its rows ``z = [c | x | 1 | 0]`` (n, W), in place; row t's
    context is the one fed to pair t, and row 0's stays zero.

    A step makes two calls, as ``ForecastSession.step`` does: ``v = a
    z[t]`` with the bound ``a.dot`` (``np.dot``'s GEMV without its
    dispatcher) and ``expit(v)`` into the context of row t + 1. W is even,
    so each row starts 16 bytes aligned (see ``_stacked``).
    ``scipy.special`` loads here, at the first fill.
    """
    from scipy.special import expit

    v = np.empty(a.shape[0])
    steps = list(zip(z[:-1], z[1:, : a.shape[0]]))
    dot = a.dot

    def fill() -> None:
        for row, following in steps:
            dot(row, v)
            expit(v, following)

    return fill


def _objective(kind: str, flat: np.ndarray, grad: np.ndarray, x: np.ndarray,
               y: np.ndarray, l: int, h: int, frozen: bool = False) -> Callable:
    """``loss_grad(err)`` at the current contents of ``flat``, the (K, P)
    parameters of K stacked models in the descent layout; each call writes
    the gradient, in the same layout, into ``grad`` and the residual into
    ``err``. BPNN and ENN read the pairs ``x`` as the rows of ``_rows``,
    built here once; only ENN's context columns are written again. ENN
    recomputes every model's context trajectory on every call, unless
    ``frozen`` fixes it at the current ``flat``."""
    p, g = _views(kind, flat, l, h, fold=True), _views(kind, grad, l, h, fold=True)
    if kind == "WNN":
        return _wnn_loss_grad(p, g, x, y)
    z = _rows(x, p["A"].shape[-1], h if kind == "ENN" else 0)
    if kind == "BPNN":
        return _sigmoid_loss_grad(p, g, y, z)
    fills = [_enn_context(a, rows) for a, rows in zip(p["A"], z)]

    def fill() -> None:
        for model_fill in fills:
            model_fill()

    if frozen:
        fill()
        return _sigmoid_loss_grad(p, g, y, z)
    return _sigmoid_loss_grad(p, g, y, z, fill)


def _pairs(kind: str, training_set: TrainingSet):
    """Training inputs and targets; ENN sees them sorted by source offset
    (Elman presentation order)."""
    if kind != "ENN":
        return training_set.inputs, training_set.targets
    order = np.argsort([p[0] for p in training_set.provenance], kind="stable")
    return training_set.inputs[order], training_set.targets[order]


def _descend(kind: str, flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int,
             h: int, epochs: int, learning_rate: float) -> list:
    """Full-batch descent of the K models stacked in ``flat`` (K, P) for
    ``epochs`` epochs. Returns per model its (weights, loss curve), or the
    first epoch whose loss is non-finite. A diverged model runs on in the
    stack to the last epoch, on non-finite weights; a model's bits never
    depend on its group-mates, so it costs them nothing but time.

    The parameters, gradient and step are contiguous buffers in the
    layout of ``_descent_layout``, so each row starts 16 bytes aligned and
    an update is one contiguous pass. A pad slot's gradient is ``ds.T``
    times a zero column, so the slot stays +0.0 (but nan once its model
    diverges).

    Epoch e writes its residuals into row e % ``_BLOCK`` of a (``_BLOCK``,
    K, n) buffer, and one ``_mse`` per block of epochs fills the loss
    curves: a reduction over the last axis sums each (epoch, model) row
    pairwise as it sums one model's (n,) residual, so the curves keep their
    bits."""
    stop = epochs + 1
    curves = np.empty((flat.shape[0], stop))
    params, positions = _descent_layout(kind, flat, l, h)
    grad, step = np.zeros_like(params), np.zeros_like(params)
    residuals = np.empty((min(_BLOCK, stop),) + y.shape)
    rows = list(residuals)
    rate = np.array(learning_rate)
    loss_grad = _objective(kind, params, grad, x, y, l, h)
    multiply, subtract = np.multiply, np.subtract
    # divergence overflows on the way, and a diverged model's inf and nan
    # weights make invalid operations; its loss curve reports it
    with np.errstate(over="ignore", invalid="ignore"):
        loss_grad(rows[0])
        for start in range(0, stop, _BLOCK):
            m = min(_BLOCK, stop - start)
            for err in rows[start == 0 : m]:  # epoch 0 took row 0 before any step
                multiply(grad, rate, step)
                subtract(params, step, params)
                loss_grad(err)
            curves[:, start : start + m] = _mse(residuals[:m]).T
    outcomes = []
    for weights, curve in zip(params[:, positions], curves):
        diverged = np.flatnonzero(~np.isfinite(curve))
        outcomes.append(int(diverged[0]) if diverged.size else (weights, curve))
    return outcomes


# ---------------------------------------------------------------------------
# Public contract
# ---------------------------------------------------------------------------

def train_many(training_sets: Sequence[TrainingSet], cfgs: Sequence[PredictorConfig]) -> list:
    """Fit one regressor per (training set, config), bit for bit as
    :func:`train` fits each alone.

    Gradient-trained models descend in lockstep, in the groups of the
    module docstring, each from its own seeded start. Requests of a group
    with equal configs (seed included) and byte-equal pairs as the descent
    sees them (ENN's in provenance order) are one request: it descends
    once, and each of them gets its own copy of the result. GRNN models
    store their pairs.

    Returns
    -------
    list
        In input order, each :class:`TrainedModel`, or the
        :class:`TrainingDivergedError` that :func:`train` raises for that
        model. A diverged model records its own epoch; its group-mates
        train on untouched.

    Raises
    ------
    ValueError
        If the training sets and configs differ in number.
    """
    if len(training_sets) != len(cfgs):
        raise ValueError(
            f"train_many takes one config per training set, got "
            f"{len(training_sets)} training sets and {len(cfgs)} configs"
        )
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
        x = np.stack(x, out=_stacked((len(x),) + x[0].shape))  # y meets no product
        outcomes = _descend(kind, flat, x, np.stack(y), l, h, epochs, learning_rate)
        for indices, outcome in zip(asking, outcomes):
            for i in indices:
                fitted[i] = outcome
    return [
        TrainingDivergedError(cfg.kind, outcome, cfg.learning_rate)
        if isinstance(outcome, int) else TrainedModel(
            kind=cfg.kind, input_length=training_set.input_length,
            hidden_units=cfg.hidden_units, weights=outcome[0],
            grnn_sigma=cfg.grnn_sigma, training_loss_curve=outcome[1],
        )
        for training_set, cfg, outcome in zip(training_sets, cfgs, fitted)
    ]


def train(training_set: TrainingSet, cfg: PredictorConfig) -> TrainedModel:
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
    """
    model = train_many([training_set], [cfg])[0]
    if isinstance(model, TrainingDivergedError):
        raise model
    return model


def _grnn_predict(p: dict, x: np.ndarray, sigma: float) -> float:
    inputs = p["inputs"]
    try:
        with np.errstate(over="raise"):
            d2 = np.sum((inputs - x) ** 2, axis=1)
        gap = d2 - d2.min()
    except FloatingPointError:  # a squared distance overflows: measure at 2^-e
        e = np.frexp(np.max(np.abs(np.append(inputs, x))))[1]
        d2 = np.sum((np.ldexp(inputs, -e) - np.ldexp(x, -e)) ** 2, axis=1)
        with np.errstate(over="ignore"):
            gap = np.ldexp(d2 - d2.min(), 2 * e)
    # shifted by the minimum, the nearest pair always has unit kernel weight;
    # a gap that overflows the kernel's exponent has weight exp(-inf) = 0
    with np.errstate(over="ignore"):
        w = np.exp(-gap / (2.0 * sigma**2))
    targets = p["targets"]
    try:
        with np.errstate(over="raise"):
            return float(w @ targets / w.sum())
    except FloatingPointError:  # the weighted sum overflows: add it up at 2^-e
        e = np.frexp(np.max(np.abs(targets)))[1]
        with np.errstate(over="ignore"):  # a mean within an ulp of the float maximum
            return float(np.ldexp(w @ np.ldexp(targets, -e) / w.sum(), e))


def predict(model: TrainedModel, x) -> float:
    """Deterministic forward pass for one input window: the first step of
    a fresh :class:`ForecastSession`, so an ENN context starts at zero and
    independent calls never interfere. A forecast that carries an ENN
    context from step to step is a session's job.
    """
    return ForecastSession(model).step(x)


class ForecastSession:
    """Stateful multi-step forecast for one component.

    ENN carries its hidden context across the steps of one session and
    starts each session from zero; other kinds are stateless, so the
    session is a plain sequence of predictions.
    """

    def __init__(self, model: TrainedModel):
        self.model = model
        self._params = _views(model.kind, model.weights, model.input_length,
                              model.hidden_units, model._grnn_pairs())
        if model.kind == "ENN":  # one row of ``_enn_context``'s recurrence
            from scipy.special import expit
            l, h = model.input_length, model.hidden_units
            self._a = _views("ENN", _descent_layout("ENN", model.weights, l, h)[0], l, h,
                             fold=True)["A"]
            self._row = _rows(np.zeros((1, l)), self._a.shape[1], h)[0]
            self._context, self._expit = self._row[:h], expit

    def step(self, x) -> float:
        model, p = self.model, self._params
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (model.input_length,):
            raise ValueError(f"input length {x.shape} does not match model input length "
                             f"({model.input_length},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        if model.kind == "GRNN":
            return _grnn_predict(p, x, model.grnn_sigma)
        if model.kind == "ENN":  # the step of ``_enn_context``
            self._row[model.hidden_units : model.hidden_units + x.size] = x
            self._expit(self._a.dot(self._row), self._context)
            return float(self._context @ p["v"] + p["c"][0])
        forward = _bpnn_forward if model.kind == "BPNN" else _wnn_forward
        return float(forward(p, x[None, :])[0])


def gradient_check(cfg: PredictorConfig, training_set: TrainingSet,
                   step: float = 1e-5) -> float:
    """Maximum relative error between analytic and central finite-difference
    gradients at the seeded initialization.

    For ENN the context trajectory is frozen at the evaluation point, which
    is exactly the objective the one-step-truncated gradient differentiates.
    """
    if cfg.kind not in GRADIENT_TRAINED:
        raise ValueError(f"{cfg.kind} is not gradient-trained")
    x, y = _pairs(cfg.kind, training_set)
    l = training_set.input_length
    # a stack of one model in the descent layout; the maximum is order-free
    flat, positions = _descent_layout(cfg.kind, _init_params(cfg, l)[None], l, cfg.hidden_units)
    grad, residual, params = np.zeros_like(flat), np.empty((1, y.size)), flat[0]
    numeric = np.empty(positions.size)
    with np.errstate(over="ignore"):  # the sigmoid's, as in ``_descend``
        loss_grad = _objective(cfg.kind, flat, grad, x[None], y[None], l, cfg.hidden_units,
                               frozen=True)
        loss_grad(residual)
        analytic = grad[0, positions]
        for j, i in enumerate(positions):
            centre = params[i]
            params[i] = centre + step
            loss_grad(residual)
            hi = _mse(residual)[0]
            params[i] = centre - step
            loss_grad(residual)
            lo = _mse(residual)[0]
            params[i] = centre
            numeric[j] = (hi - lo) / (2.0 * step)
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
        "training_loss_curve": model.training_loss_curve.tolist(),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    # other keys, such as the "scale" that older files hold, are ignored
    return TrainedModel(
        kind=doc["kind"],
        input_length=int(doc["input_length"]),
        hidden_units=int(doc["hidden_units"]),
        grnn_sigma=float(doc.get("grnn_sigma", 0.1)),
        weights=np.array(doc["weights"], dtype=np.float64),
        training_loss_curve=np.array(doc.get("training_loss_curve", []), dtype=np.float64),
    )


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2))


def load_model(path) -> TrainedModel:
    return model_from_dict(json.loads(Path(path).read_text()))
