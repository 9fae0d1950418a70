"""Minimal neural-network kernel in double precision.

Dense layers, PReLU activations, an embedding table, softmax cross-entropy
and Adam. Everything is plain numpy float64; there is no autodiff graph.
A layer keeps no activations. ``forward(x, tape=None)`` returns its output
as 2-d rows, the embedding's flat, and, given a tape (a dict keyed by
layer), puts on ``tape[layer]`` what its own backward reads: the input for
``Linear`` and ``Embedding``, the input and the slope factor for ``PReLU``.
``backward(saved, dy)`` is handed that entry back, accumulates into
parameter gradients and returns the gradient with respect to the input.
``models`` runs a network as chains, tuples of these layers; a training
step passes a tape, and a scoring pass passes none, so each activation is
freed once the next layer has read it. Adam owns a network's parameters as
one flat vector, and each Param as a view into it, so an update,
``zero_grad`` or snapshot is whole-vector work.
"""

from __future__ import annotations

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

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """``x @ weightᵀ + bias``; ``x`` goes on ``tape``, for backward."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"expected input of width {self.in_dim}, got shape {x.shape}"
            )
        if tape is not None:
            tape[self] = x
        y = x @ self.weight.value.T
        y += self.bias.value
        return y

    def backward(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Add the gradients for input ``x`` and output gradient ``dy``; return d/dx."""
        self.weight.grad += dy.T @ x
        self.bias.grad += np.add.reduce(dy, axis=0)
        return dy @ self.weight.value


class PReLU:
    """Elementwise max(0, x) + a * min(0, x) with one learnable scalar a,
    which starts at 0.25.

    Forward picks each cell's factor s, 1 where x > 0 and a elsewhere, and
    returns x * s. That factor is also d/dx, so backward returns dy * s and
    reads x only for the slope gradient; a pass without a tape writes x * s
    over s, which nothing reads again. ``x * 1.0`` is ``x`` and ``x * a`` is
    ``a * x`` exactly, -0.0 and ±inf included, so this gives the bits of
    ``where(x > 0, x, a * x)`` and ``where(x > 0, dy, dy * a)``.
    """

    def __init__(self, name: str):
        self.slope = Param(np.asarray(0.25, dtype=np.float64), f"{name}.slope")

    def params(self) -> list[Param]:
        return [self.slope]

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """``x * s``; ``(x, s)`` goes on ``tape``, for backward."""
        s = np.where(x > 0, 1.0, self.slope.value)
        if tape is None:
            return np.multiply(x, s, out=s)
        tape[self] = x, s
        return x * s

    def backward(self, saved: tuple[np.ndarray, np.ndarray], dy: np.ndarray) -> np.ndarray:
        """Add the slope gradient for the ``(x, s)`` forward saved and output
        gradient ``dy``; return d/dx."""
        x, s = saved
        self.slope.grad += np.add.reduce(dy * np.minimum(x, 0.0), axis=None)
        return dy * s


class Embedding:
    """Lookup table (vocab_size, dim), a chain layer of flat rows; index 0 is the pad row.

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

    def params(self) -> list[Param]:
        return [self.weight]

    def forward(self, tokens: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """Map integer tokens of shape (B, S) to flat rows of shape (B, S * dim),
        each token's vector in turn; ``tokens`` go on ``tape``, for backward."""
        tokens = np.asarray(tokens)
        low = np.minimum.reduce(tokens, axis=None, initial=0)
        high = np.maximum.reduce(tokens, axis=None, initial=0)
        if low < 0 or high >= self.vocab_size:
            raise ValueError(
                f"token index out of range for vocabulary of {self.vocab_size}"
            )
        if tape is not None:
            tape[self] = tokens
        vectors = self.weight.value.take(tokens, axis=0)
        return vectors.reshape(len(tokens), tokens.shape[1] * self.dim)

    def backward(self, tokens: np.ndarray, dout: np.ndarray) -> None:
        """Add the table gradient of the ``tokens`` read and flat ``dout``; tokens get none."""
        # bincount adds each (token, k) cell's terms in row order, as
        # np.add.at would, at about half the cost.
        cells = (tokens[..., None] * self.dim + np.arange(self.dim)).ravel()
        size = self.vocab_size * self.dim
        summed = np.bincount(cells, weights=dout.ravel(), minlength=size)
        self.weight.grad += summed.reshape(self.vocab_size, self.dim)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Args:
        logits: (B, K) scores.
        labels: (B,) class indices in [0, K).

    Returns:
        (loss, grad_logits) where grad_logits = (softmax - [k == label]) / B, the
        gradient of the mean loss with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"expected {b} labels, got shape {labels.shape}")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= k:
        raise ValueError(f"label out of range for {k} classes")
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(z), axis=1))
    # each row's label cell as one flat index into the C-ordered (B, K) arrays
    picks = np.arange(0, b * k, k) + labels
    loss = float(np.add.reduce(log_norm - z.take(picks)) / b)
    grad = np.exp(z - log_norm[:, None])
    grad.reshape(-1)[picks] -= 1.0
    grad /= b
    return loss, grad


# Adam's first and second moment decays, and the eps its denominator adds.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a fixed parameter list.

    The learning rate defaults to 0.001. The moment decays (0.9, 0.999) and
    eps (1e-8) are fixed: ``_BETA1``, ``_BETA2``, ``_EPS``. Each Param's
    value and grad become views into the flat ``value`` and ``grad`` built
    here; entries whose update_mask (read here) is zero keep their values.
    """

    def __init__(self, params: list[Param], learning_rate: float = 0.001):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.value = np.concatenate([p.value.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in self.params])
        self._mask = np.concatenate([
            np.ones(p.value.size) if p.update_mask is None else np.ravel(p.update_mask)
            for p in self.params
        ])
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        # scratch for step's temporaries, so a step allocates no arrays
        self._g, self._a = np.empty_like(self.value), np.empty_like(self.value)
        offsets = np.cumsum([p.value.size for p in self.params])[:-1]
        views = zip(np.split(self.value, offsets), np.split(self.grad, offsets))
        for p, (value, grad) in zip(self.params, views):
            p.value, p.grad = value.reshape(p.value.shape), grad.reshape(p.value.shape)

    def zero_grad(self):
        self.grad[...] = 0.0

    def step(self):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - _BETA1**t
        c2 = 1.0 - _BETA2**t
        # m += (1 - b1) g;  v += (1 - b2) g g;  value -= lr (m / c1) / (sqrt(v / c2) + eps),
        # each product and quotient in that order, so the bits match the formula
        g, a = np.multiply(self.grad, self._mask, out=self._g), self._a
        self._m *= _BETA1
        self._m += np.multiply(1.0 - _BETA1, g, out=a)
        self._v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=a)
        self._v += np.multiply(a, g, out=a)
        np.divide(self._v, c2, out=a)
        np.sqrt(a, out=a)
        a += _EPS
        step = np.divide(self._m, c1, out=g)  # g is spent; its buffer takes the step
        np.multiply(self.learning_rate, step, out=step)
        self.value -= np.divide(step, a, out=step)
