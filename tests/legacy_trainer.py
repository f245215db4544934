"""The trainer as it was before the flat-buffer rewrite, frozen as a test
oracle: per-epoch ``_unpack``/``_pack`` of the flat weight vector, one
loss/gradient function per kind and the Python-loop ENN context.
``tests/test_trainer_oracle.py`` checks that ``modecast.predictors``
reproduces it bit for bit. Do not edit it to make that test pass.

Five deliberate changes since it was frozen, each of which the trainer
adopted first:

1. ``_sigmoid`` is the one-exp ``1 / (1 + exp(-z))``, in place of the
   boolean-mask two-branch form. It stays the sigmoid of the hidden
   layers.
2. The Elman recurrence (``_enn_context``, ENN ``predict`` and
   ``session_steps``) became ``expit((Wx @ x + b) + Wh @ h)`` with
   scipy's ``expit``, where it was ``_sigmoid(Wx @ x + Wh @ h + b)``:
   the sigmoid is one compiled call with the C library's ``exp``.
3. The same three sites now take their step from ``_step``:
   ``expit(M @ z)``, one GEMV of ``M = [Wh | Wx | b | 0]`` on the
   augmented row ``z = [h, x, 1, 0]``, the zero column padding the width
   H + L + 1 to an even count, where it was
   ``expit((Wx @ x + b) + Wh @ h)``.
4. The BPNN and ENN training layers carry the bias in their products:
   the layer's input term is ``[x | 1] @ [W | b].T`` (``_with_ones``),
   where it was ``x @ W.T + b``, so ENN's layer sums
   ``(x @ Wx.T + b) + contexts @ Wh.T``; and ``[gW | gb]`` is one
   product ``dz.T @ [x | 1]``, where ``gb`` was ``dz.sum(axis=0)``. BLAS
   adds the bias in its own order, so the bits can differ from the old
   form. BPNN's ``predict`` keeps ``x @ W1.T + b1``.
5. ENN's training layer is one product ``z @ m.T`` of ``_step``'s
   matrix ``m = [Wh | Wx | b | 0]`` on the rows ``z = [contexts | x | 1 |
   0]`` (``_augmented``), where it was ``[x | 1] @ [Wx | b].T +
   contexts @ Wh.T``, and its gradient is one product ``dz.T @ z`` split
   into ``Wh``, ``Wx`` and ``b``, where ``Wh``'s was ``dz.T @ contexts``.
   The training readout reads ``v`` from an aligned copy, as the trainer
   reads it at an even offset of its layout: on SSE2 BLAS kernels a
   product's bits follow the 16-byte alignment of its operands.

The accuracy of both sigmoids is checked on its own, against a
``np.longdouble`` sigmoid, in ``tests/test_predictors.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import expit

from modecast.core import spawn_rng
from modecast.predictors import PredictorConfig, weight_count


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) is inf below z = -709.78, and 1/inf = 0
        return 1.0 / (1.0 + np.exp(-z))


def _morlet(u: np.ndarray) -> np.ndarray:
    return np.cos(1.75 * u) * np.exp(-0.5 * u * u)


def _morlet_deriv(u: np.ndarray) -> np.ndarray:
    return -np.exp(-0.5 * u * u) * (1.75 * np.sin(1.75 * u) + u * np.cos(1.75 * u))


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
    rng = spawn_rng(cfg.seed)
    h = cfg.hidden_units
    flat = rng.uniform(-0.5, 0.5, weight_count(cfg.kind, l, h))
    if cfg.kind == "WNN":
        params = _unpack("WNN", flat, l, h)
        params["d"][:] = rng.uniform(0.5, 1.5, h)
    return flat


def _with_ones(x: np.ndarray) -> np.ndarray:
    """``[x | 1]``: the pairs with a constant-1 input that carries the bias."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _bpnn_forward(params: dict, x: np.ndarray) -> np.ndarray:
    a = _sigmoid(x @ params["W1"].T + params["b1"])
    return a @ params["w2"] + params["b2"][0]


def _bpnn_loss_grad(flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int, h: int):
    p = _unpack("BPNN", flat, l, h)
    x1 = _with_ones(x)
    z = x1 @ np.hstack([p["W1"], p["b1"][:, None]]).T
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
    grads["W1"], grads["b1"] = np.hsplit(dz.T @ x1, [l])
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


def _step_matrix(p: dict) -> np.ndarray:
    """``[Wh | Wx | b | 0]``, the zero column padding the width H + L + 1
    to an even count."""
    h, l = p["Wx"].shape
    return np.hstack([p["Wh"], p["Wx"], p["b"][:, None], np.zeros((h, (h + l + 1) % 2))])


def _augmented(contexts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows ``[contexts | x | 1 | 0]`` that ``_step_matrix`` multiplies."""
    n, width = x.shape[0], contexts.shape[1] + x.shape[1] + 1
    return np.hstack([contexts, x, np.ones((n, 1)), np.zeros((n, width % 2))])


def _step(p: dict, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The context that follows ``h`` on the input ``x``."""
    return expit(_step_matrix(p) @ _augmented(h[None], x[None])[0])


def _enn_context(p: dict, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    h_dim = p["b"].size
    contexts = np.zeros((n, h_dim))
    h = np.zeros(h_dim)
    for t in range(n):
        contexts[t] = h
        h = _step(p, h, x[t])
    return contexts


def _enn_loss_grad(flat: np.ndarray, x: np.ndarray, y: np.ndarray, l: int, h: int,
                   contexts: Optional[np.ndarray] = None):
    p = _unpack("ENN", flat, l, h)
    if contexts is None:
        contexts = _enn_context(p, x)
    z = _augmented(contexts, x)
    hid = _sigmoid(z @ _step_matrix(p).T)
    pred = hid @ p["v"].copy() + p["c"][0]
    err = pred - y
    loss = float(np.mean(err * err))
    e = 2.0 * err / y.size
    ds = (e[:, None] * p["v"][None, :]) * hid * (1.0 - hid)
    grads = {
        "c": np.array([e.sum()]),
        "v": hid.T @ e,
    }
    grads["Wh"], grads["Wx"], grads["b"], _ = np.hsplit(ds.T @ z, [h, h + l, h + l + 1])
    return loss, _pack("ENN", grads, l, h)


_LOSS_GRAD = {"BPNN": _bpnn_loss_grad, "WNN": _wnn_loss_grad, "ENN": _enn_loss_grad}


def _pairs(kind, training_set):
    if kind != "ENN":
        return training_set.inputs, training_set.targets
    order = np.argsort(training_set.offsets, kind="stable")
    return training_set.inputs[order], training_set.targets[order]


def train(training_set, cfg: PredictorConfig):
    """(weights, loss curve) of the old epoch loop; raises ``ValueError``
    with the epoch where the loss became non-finite."""
    l = training_set.input_length
    h = cfg.hidden_units
    x, y = _pairs(cfg.kind, training_set)
    loss_grad = _LOSS_GRAD[cfg.kind]
    flat = _init_params(cfg, l)
    curve = np.empty(cfg.epochs + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            loss, grad = loss_grad(flat, x, y, l, h)
            if not np.isfinite(loss):
                raise ValueError(epoch)
            curve[epoch] = loss
            flat = flat - cfg.learning_rate * grad
        final_loss, _ = loss_grad(flat, x, y, l, h)
    if not np.isfinite(final_loss):
        raise ValueError(cfg.epochs)
    curve[-1] = final_loss
    return flat, curve


def predict(kind, weights, l, h, x, context=None) -> float:
    x = np.asarray(x, dtype=np.float64)
    p = _unpack(kind, weights, l, h)
    if kind == "BPNN":
        return float(_bpnn_forward(p, x[None, :])[0])
    if kind == "WNN":
        return float(_wnn_forward(p, x[None, :])[0])
    hid = _step(p, np.zeros(h) if context is None else context, x)
    return float(hid @ p["v"] + p["c"][0])


def session_steps(kind, weights, l, h, xs) -> list:
    """Outputs of one old ``ForecastSession`` stepped through ``xs``."""
    if kind != "ENN":
        return [predict(kind, weights, l, h, x) for x in xs]
    context = np.zeros(h)
    out = []
    for x in xs:
        p = _unpack("ENN", weights, l, h)
        hid = _step(p, context, np.asarray(x, dtype=np.float64))
        context = hid
        out.append(float(hid @ p["v"] + p["c"][0]))
    return out


def gradient_check(cfg: PredictorConfig, training_set, step: float = 1e-5) -> float:
    l = training_set.input_length
    h = cfg.hidden_units
    x, y = _pairs(cfg.kind, training_set)
    loss_grad = _LOSS_GRAD[cfg.kind]
    flat = _init_params(cfg, l)
    kwargs = {}
    if cfg.kind == "ENN":
        kwargs["contexts"] = _enn_context(_unpack("ENN", flat, l, h), x)
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
