"""Minimal neural-network kernel in double precision.

Dense layers, PReLU activations, an embedding table, softmax cross-entropy,
Adam, and a finite-difference gradient checker. Everything is plain numpy
float64; there is no autodiff graph. Each layer caches its forward input
and exposes ``backward`` that accumulates into parameter gradients and
returns the gradient with respect to its input. Adam owns a network's
parameters as one flat vector, and each Param as a view into it, so an
update, ``zero_grad`` or snapshot is whole-vector work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Param:
    """A trainable array with an accumulated gradient.

    ``update_mask`` (same shape, 0/1) multiplies the gradient inside the
    optimizer; a zero entry freezes that element at its initial value while
    backward still records the true gradient, so finite-difference checks
    see the full derivative.
    """

    def __init__(self, value: np.ndarray, name: str, update_mask=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.update_mask = update_mask

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


class Linear:
    """Affine map y = x @ weightᵀ + bias with weight of shape (out, in).

    Weights start uniform in ±sqrt(6 / (fan_in + fan_out)), biases at zero.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = Param(
            rng.uniform(-bound, bound, size=(out_dim, in_dim)), f"{name}.weight"
        )
        self.bias = Param(np.zeros(out_dim), f"{name}.bias")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._x = None

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"expected input of width {self.in_dim}, got shape {x.shape}"
            )
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.weight.grad += dy.T @ self._x
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value


class PReLU:
    """Elementwise max(0, x) + a * min(0, x) with one learnable scalar a."""

    def __init__(self, name: str, init_slope: float = 0.25):
        self.slope = Param(np.asarray(init_slope, dtype=np.float64), f"{name}.slope")
        self._x = None

    def params(self) -> list[Param]:
        return [self.slope]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        a = self.slope.value
        return np.where(x > 0, x, a * x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.slope.grad += (dy * np.minimum(x, 0.0)).sum()
        return dy * np.where(x > 0, 1.0, self.slope.value)


class Embedding:
    """Lookup table of shape (vocab_size, dim); index 0 is the pad row.

    The pad row starts at zero and its update mask is zero, so it never
    moves during optimization. Backward still accumulates the true gradient
    there (the checker differentiates through it); the optimizer discards it.
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator, name: str):
        if vocab_size < 1 or dim < 1:
            raise ValueError("embedding dimensions must be positive")
        weight = rng.normal(0.0, 0.01, size=(vocab_size, dim))
        weight[0] = 0.0
        mask = np.ones_like(weight)
        mask[0] = 0.0
        self.weight = Param(weight, f"{name}.weight", update_mask=mask)
        self.vocab_size = vocab_size
        self.dim = dim
        self._tokens = None

    def params(self) -> list[Param]:
        return [self.weight]

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Map integer tokens of shape (B, S) to vectors of shape (B, S, dim)."""
        tokens = np.asarray(tokens)
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.vocab_size:
            raise ValueError(
                f"token index out of range for vocabulary of {self.vocab_size}"
            )
        self._tokens = tokens
        return self.weight.value[tokens]

    def backward(self, dout: np.ndarray) -> None:
        # bincount adds each (token, k) cell's terms in row order, as
        # np.add.at would, at about half the cost.
        cells = (self._tokens[..., None] * self.dim + np.arange(self.dim)).ravel()
        size = self.vocab_size * self.dim
        summed = np.bincount(cells, weights=dout.ravel(), minlength=size)
        self.weight.grad += summed.reshape(self.vocab_size, self.dim)
        return None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Args:
        logits: (B, K) scores.
        labels: (B,) class indices in [0, K).

    Returns:
        (loss, grad_logits) where grad_logits = (softmax - onehot) / B, the
        gradient of the mean loss with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range for {k} classes")
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(b)
    loss = float((log_norm - z[rows, labels]).mean())
    grad = np.exp(z - log_norm[:, None])
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


class Adam:
    """Adam with bias correction over a fixed parameter list.

    Defaults: lr 0.001, beta1 0.9, beta2 0.999, epsilon 1e-8. Each Param's
    value and grad become views into the flat ``value`` and ``grad`` built
    here; entries whose update_mask (read here) is zero keep their values.
    """

    def __init__(
        self,
        params: list[Param],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.value = np.concatenate([p.value.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in self.params])
        self._mask = np.concatenate([
            np.ones(p.value.size) if p.update_mask is None else np.ravel(p.update_mask)
            for p in self.params
        ])
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        offsets = np.cumsum([p.value.size for p in self.params])[:-1]
        views = zip(np.split(self.value, offsets), np.split(self.grad, offsets))
        for p, (value, grad) in zip(self.params, views):
            p.value, p.grad = value.reshape(p.value.shape), grad.reshape(p.value.shape)

    def zero_grad(self):
        self.grad[...] = 0.0

    def step(self):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        g = self.grad * self._mask
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * g
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * g * g
        self.value -= self.learning_rate * (self._m / c1) / (np.sqrt(self._v / c2) + self.epsilon)


@dataclass
class GradientCheckReport:
    """Worst relative error per parameter, and overall."""

    per_param: dict[str, float] = field(default_factory=dict)
    max_rel_error: float = 0.0
    worst_param: str = ""

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def gradient_check(
    loss_fn, params: list[Param], h: float = 1e-5
) -> GradientCheckReport:
    """Compare analytic gradients to central finite differences.

    ``loss_fn`` must zero the gradients, run forward and backward, and
    return the scalar loss; it must be a deterministic function of the
    parameter values. Relative error per element is
    |ga - gn| / max(|ga|, |gn|, 1e-12).
    """
    loss_fn()
    analytic = [p.grad.copy() for p in params]
    report = GradientCheckReport()
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        ga_flat = ga.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = loss_fn()
            flat[i] = orig - h
            loss_minus = loss_fn()
            flat[i] = orig
            gn = (loss_plus - loss_minus) / (2.0 * h)
            denom = max(abs(ga_flat[i]), abs(gn), 1e-12)
            worst = max(worst, abs(ga_flat[i] - gn) / denom)
        report.per_param[p.name] = worst
        if worst >= report.max_rel_error:
            report.max_rel_error = worst
            report.worst_param = p.name
    # loss_fn mutated gradients during probing; restore the analytic ones
    loss_fn()
    return report
