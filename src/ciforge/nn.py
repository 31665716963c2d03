"""Minimal multilayer perceptron with backpropagation.

Tanh hidden layers, identity output for squared loss or logistic output
for binary cross-entropy, mini-batch SGD with a fixed learning rate.  The
boosted trees take their sigmoid and score their logistic loss from here,
and the acceptance battery grad-checks the network; the pipeline trains no
MLP.  No adaptive optimizers; determinism under a seed is part of the
contract.

Feature standardization (mean/std of the training split) is fitted inside
``mlp_train`` and baked into the returned model, so inference never needs
the training data again and there is no leakage path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import derive_rng
from .errors import EmptyData, NonFiniteLoss


@dataclass(frozen=True)
class MlpConfig:
    widths: tuple[int, ...] = (16,)
    epochs: int = 200
    batch: int = 32
    lr: float = 0.05

    def __post_init__(self):
        if any(w < 1 for w in self.widths):
            raise ValueError("hidden widths must be >= 1")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class Mlp:
    """Fitted network: weights, biases, input standardization, loss kind."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    x_mean: np.ndarray
    x_std: np.ndarray
    loss: str
    loss_history: list[float] = field(default_factory=list)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw output (pre-sigmoid for logistic loss)."""
        return _forward_cached(self, (np.atleast_2d(x) - self.x_mean) / self.x_std)[-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        if self.loss == "logistic":
            return _sigmoid(out)
        return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _loss_value(raw: np.ndarray, t: np.ndarray, kind: str) -> float:
    """Mean over rows of the per-row loss (summed over output coordinates)."""
    if kind == "squared":
        with np.errstate(over="ignore"):  # divergence is caught as NonFiniteLoss
            return float(np.sum((raw - t) ** 2) / raw.shape[0])
    # Stable binary cross-entropy on raw margins:
    # log(1 + exp(-|m|)) + max(m, 0) - m*t
    m = raw
    per = np.logaddexp(0.0, -np.abs(m)) + np.maximum(m, 0.0) - m * t
    return float(np.sum(per) / raw.shape[0])


def _init_params(dims: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward_cached(model: Mlp, xs: np.ndarray):
    """Forward pass keeping post-activation values for backprop."""
    acts = [xs]
    h = xs
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        acts.append(h)
    return acts


def _backward(model: Mlp, acts, t: np.ndarray):
    """Gradients of the mean loss wrt every weight and bias."""
    n = acts[0].shape[0]
    raw = acts[-1]
    if model.loss == "squared":
        delta = 2.0 * (raw - t) / n
    else:
        delta = (_sigmoid(raw) - t) / n
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - acts[i] ** 2)
    return grads_w, grads_b


def _standardize_stats(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0  # constant columns pass through centered
    return mean, std


def mlp_train(
    features: np.ndarray, targets: np.ndarray, config: MlpConfig, seed: int = 0, loss: str = "squared"
) -> Mlp:
    """Fit by mini-batch SGD on ``loss`` ("squared" | "logistic"); deterministic given ``seed``.

    The returned parameters are the best epoch-end snapshot by full-data
    training loss (the initial state counts), so the fitted loss never
    exceeds the initial one.  ``loss_history`` holds the full-data loss at
    initialization and after every epoch.
    """
    if loss not in ("squared", "logistic"):
        raise ValueError(f"unknown loss {loss!r}")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if x.shape[0] < 2:
        raise EmptyData(f"need at least 2 rows, got {x.shape[0]}")
    if x.shape[1] < 1:
        raise EmptyData("need at least one feature")
    if x.shape[0] != t.shape[0]:
        raise EmptyData("features and targets disagree on row count")

    rng = derive_rng(seed, "mlp-train")
    mean, std = _standardize_stats(x)
    xs = (x - mean) / std
    dims = [x.shape[1], *config.widths, t.shape[1]]
    weights, biases = _init_params(dims, rng)
    model = Mlp(weights, biases, mean, std, loss)

    def full_loss() -> float:
        return _loss_value(_forward_cached(model, xs)[-1], t, loss)

    history = [full_loss()]
    best_loss = history[0]
    best = ([w.copy() for w in weights], [b.copy() for b in biases])
    n = xs.shape[0]
    batch = max(1, min(config.batch, n))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            acts = _forward_cached(model, xs[idx])
            gw, gb = _backward(model, acts, t[idx])
            for w, g in zip(model.weights, gw):
                w -= config.lr * g
            for b, g in zip(model.biases, gb):
                b -= config.lr * g
        epoch_loss = full_loss()
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"training diverged (loss={epoch_loss}); lower the learning rate")
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best = ([w.copy() for w in model.weights], [b.copy() for b in model.biases])

    model.weights, model.biases = best
    model.loss_history = history
    return model


def mlp_grad_check(model: Mlp, sample, eps: float = 1e-5) -> float:
    """Max relative error of backprop vs central finite differences.

    ``sample`` is an (x, t) pair (single row or small batch).  The relative
    error uses max(1, |g|, |g_hat|) in the denominator so near-zero
    gradients are compared absolutely.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    x, t = sample
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    xs = (x - model.x_mean) / model.x_std

    acts = _forward_cached(model, xs)
    gw, gb = _backward(model, acts, t)
    analytic = gw + gb
    params = model.weights + model.biases

    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = _loss_value(_forward_cached(model, xs)[-1], t, model.loss)
            flat[k] = orig - eps
            lo = _loss_value(_forward_cached(model, xs)[-1], t, model.loss)
            flat[k] = orig
            ghat = (hi - lo) / (2.0 * eps)
            ga = g.ravel()[k]
            rel = abs(ga - ghat) / max(1.0, abs(ga), abs(ghat))
            worst = max(worst, rel)
    return worst
