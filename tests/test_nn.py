import tracemalloc

import numpy as np
import pytest
from gradcheck import GradientCheckReport, gradient_check
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tabfuse.models import BaselineMlp, EmbeddingFusionNet
from tabfuse.nn import Adam, Embedding, Linear, Param, PReLU, softmax, softmax_cross_entropy


class TestLinear:
    def test_identity_weight_zero_bias(self):
        layer = Linear(3, 3, np.random.default_rng(0), "l")
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(layer.forward(x), x)

    def test_zero_weight_gives_bias_rows(self):
        layer = Linear(2, 2, np.random.default_rng(0), "l")
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = [3.0, -1.0]
        out = layer.forward(np.zeros((4, 2)))
        assert np.array_equal(out, np.tile([3.0, -1.0], (4, 1)))

    def test_hand_computed_product(self):
        layer = Linear(3, 2, np.random.default_rng(0), "l")
        layer.weight.value[...] = [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]
        layer.bias.value[...] = [0.5, -1.0]
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        expected = np.array([[-1.5, 3.0], [-1.5, 12.0]])
        assert np.array_equal(layer.forward(x), expected)

    def test_width_mismatch_rejected(self):
        layer = Linear(3, 2, np.random.default_rng(0), "l")
        with pytest.raises(ValueError, match="width 3"):
            layer.forward(np.zeros((1, 4)))

    def test_init_bound(self):
        layer = Linear(10, 6, np.random.default_rng(1), "l")
        bound = np.sqrt(6.0 / 16.0)
        assert np.all(np.abs(layer.weight.value) <= bound)
        assert np.all(layer.bias.value == 0.0)


# Cells at the edges the activations meet: signed zeros, tiny and large
# magnitudes and infinities, beside plain values.
EDGE_CELLS = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6, np.inf, -np.inf]
) | st.floats(-10, 10)


class TestPReLU:
    def test_positive_passthrough(self):
        act = PReLU("a")
        assert act.forward(np.array([[5.0]]))[0, 0] == 5.0

    def test_negative_scaled(self):
        act = PReLU("a")
        assert act.forward(np.array([[-2.0]]))[0, 0] == -0.5

    def test_unit_slope_is_identity(self):
        act = PReLU("a")
        act.slope.value[...] = 1.0
        x = np.array([[-3.0, 0.0, 2.5]])
        assert np.array_equal(act.forward(x), x)

    def test_slope_initialized_to_quarter(self):
        assert float(PReLU("a").slope.value) == 0.25

    def test_pass_without_a_tape_writes_its_output_over_the_factor(self):
        """Nothing reads the factor of a pass without a tape, so beside its input
        that pass holds one float array, the factor then the output, and a bool mask."""
        x = np.random.default_rng(0).normal(size=(1000, 64))
        act = PReLU("a")
        tracemalloc.start()
        try:
            y = act.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.tobytes() == np.where(x > 0, x, 0.25 * x).tobytes()
        assert peak <= x.nbytes + x.size + 2**12, f"{peak} bytes"

    @settings(max_examples=200, deadline=None)
    @given(
        x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2), elements=EDGE_CELLS),
        slope=st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.5]),
        data=st.data(),
    )
    def test_tape_gives_the_plain_formulas_bit_for_bit(self, x, slope, data):
        """Output, input gradient and slope gradient through a tape equal the
        plain formulas, the slope's accumulated into a zeroed gradient."""
        dy = data.draw(hnp.arrays(np.float64, x.shape, elements=EDGE_CELLS), label="dy")
        act = PReLU("a")
        act.slope.value[...] = a = np.float64(slope)
        tape = {}
        # 0 * inf is NaN on both sides; numpy's warning about it says nothing here
        with np.errstate(invalid="ignore", over="ignore"):
            y = act.forward(x, tape)
            dx = act.backward(tape[act], dy)
            assert y.tobytes() == np.where(x > 0, x, a * x).tobytes()
            assert act.forward(x).tobytes() == y.tobytes()
            assert dx.tobytes() == np.where(x > 0, dy, dy * a).tobytes()
            expected = np.zeros(()) + np.add.reduce(dy * np.minimum(x, 0.0), axis=None)
        assert act.slope.grad.tobytes() == expected.tobytes()


class TestEmbedding:
    def test_pad_row_is_zero(self):
        emb = Embedding(6, 4, np.random.default_rng(0), "e")
        out = emb.forward(np.zeros((2, 3), dtype=np.int64))
        assert np.all(out == 0.0)

    def test_lookup_repeats(self):
        emb = Embedding(6, 4, np.random.default_rng(0), "e")
        out = emb.forward(np.array([[2, 2, 2]])).reshape(1, 3, 4)
        assert np.array_equal(out[0, 0], out[0, 1])
        assert np.array_equal(out[0, 0], emb.weight.value[2])

    def test_flatten_width(self):
        emb = Embedding(9, 4, np.random.default_rng(0), "e")
        out = emb.forward(np.array([[1, 2, 3, 4, 5]]))
        assert out.reshape(1, -1).shape == (1, 20)

    def test_index_out_of_range(self):
        emb = Embedding(4, 2, np.random.default_rng(0), "e")
        with pytest.raises(ValueError, match="out of range"):
            emb.forward(np.array([[4]]))

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 5), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_bit_equals_add_at(self, shape, seed):
        """Into a zeroed gradient, backward equals np.add.at bit for bit."""
        vocab, batch, width, dim = shape
        rng = np.random.default_rng(seed)
        emb = Embedding(vocab, dim, rng, "e")
        # Few tokens, so cells repeat; edge values beside plain ones.
        tokens = rng.integers(0, vocab, size=(batch, width))
        edges = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e6, -1e6])
        dout = np.where(
            rng.random((batch, width, dim)) < 0.3,
            rng.choice(edges, (batch, width, dim)),
            rng.normal(size=(batch, width, dim)),
        )
        emb.weight.grad[...] = 0.0
        emb.forward(tokens)
        emb.backward(tokens, dout)
        expected = np.zeros((vocab, dim))
        np.add.at(expected, tokens, dout)
        assert emb.weight.grad.tobytes() == expected.tobytes()

    def test_pad_row_frozen_under_adam_but_gradient_is_true(self):
        """Backward records the real pad-row gradient; Adam never applies it."""
        emb = Embedding(5, 3, np.random.default_rng(0), "e")
        opt = Adam(emb.params(), learning_rate=0.05)
        tokens = np.array([[0, 1, 2], [0, 3, 4]])
        for _ in range(10):
            opt.zero_grad()
            out = emb.forward(tokens)
            # pull every embedding toward 1; pad rows participate in the loss
            emb.backward(tokens, out - 1.0)
            assert np.any(emb.weight.grad[0] != 0.0)
            opt.step()
        assert np.all(emb.weight.value[0] == 0.0)
        assert np.any(emb.weight.value[1] != 0.0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_k4(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 4)), np.array([2]))
        assert abs(loss - 1.3862943611198906) < 1e-15

    def test_hand_gradient_b1_k2(self):
        loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert np.array_equal(grad, np.array([[-0.5, 0.5]]))

    def test_confident_correct_prediction(self):
        logits = np.array([[50.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert 0.0 <= loss < 1e-20

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(32, 5))
        labels = rng.integers(0, 5, size=32)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        p = softmax(rng.normal(scale=30.0, size=(64, 7)))
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)

    def test_softmax_handles_large_logits(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(p, [[0.5, 0.5]])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_grad_batch_normalization(self):
        """Gradient carries the 1/B factor of the mean loss."""
        logits = np.zeros((4, 2))
        _, grad = softmax_cross_entropy(logits, np.array([0, 0, 0, 0]))
        assert np.allclose(grad[:, 0], -0.5 / 4)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Param(np.array([1.0, -2.0]), "p")
        opt = Adam([p])
        for _ in range(5):
            opt.zero_grad()
            opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        p = Param(np.array([1.0, 1.0]), "p")
        opt = Adam([p], learning_rate=0.001)
        p.grad[...] = [0.3, -0.7]
        opt.step()
        delta = p.value - 1.0
        assert np.all(np.abs(np.abs(delta) - 0.001) < 1e-9)
        assert np.sign(delta[0]) == -1.0 and np.sign(delta[1]) == 1.0

    def test_deterministic(self):
        def run():
            p = Param(np.array([0.5, 0.5]), "p")
            opt = Adam([p])
            for i in range(7):
                p.zero_grad()
                p.grad[...] = [0.1 * (i + 1), -0.2]
                opt.step()
            return p.value.copy()

        assert np.array_equal(run(), run())

    def test_writes_through_params_reach_the_flat_vectors(self):
        w = Param(np.array([[1.0, 2.0], [3.0, 4.0]]), "w")
        s = Param(np.asarray(0.25), "s")
        opt = Adam([w, s], learning_rate=0.5)
        w.value[1, 0] = 7.0
        s.value[...] = -1.0
        w.grad[0, 1] = 0.5
        s.grad += 2.0
        assert opt.value.tolist() == [1.0, 2.0, 7.0, 4.0, -1.0]
        assert opt.grad.tolist() == [0.0, 0.5, 0.0, 0.0, 2.0]
        opt.step()
        # entries with a gradient take a first step of about the learning rate
        assert w.value[0, 1] == pytest.approx(1.5) and float(s.value) == pytest.approx(-1.5)
        assert w.value.flat[[0, 2, 3]].tolist() == [1.0, 7.0, 4.0]
        opt.zero_grad()
        assert not w.grad.any() and not s.grad.any()


class ReferenceAdam:
    """Adam stepped one parameter at a time over its own arrays, as a loop."""

    def __init__(self, params, learning_rate):
        self.values = [p.value.copy() for p in params]
        self.masks = [p.update_mask for p in params]
        self.m = [np.zeros_like(v) for v in self.values]
        self.v = [np.zeros_like(v) for v in self.values]
        self.learning_rate = learning_rate
        self.t = 0

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - 0.9**self.t
        c2 = 1.0 - 0.999**self.t
        for value, mask, grad, m, v in zip(self.values, self.masks, grads, self.m, self.v):
            g = grad if mask is None else grad * mask
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            value -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + 1e-8)


# Gradients include -0.0, 0.0, tiny and large magnitudes.
GRAD_CELLS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-12, 1e6]) | st.floats(-10, 10)


class TestFlatAdam:
    @settings(max_examples=100, deadline=None)
    @given(
        vocab=st.integers(1, 4),
        dim=st.integers(1, 3),
        width=st.integers(1, 3),
        learning_rate=st.sampled_from([0.001, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        data=st.data(),
    )
    def test_steps_bit_equal_a_per_parameter_loop(
        self, vocab, dim, width, learning_rate, seed, steps, data
    ):
        rng = np.random.default_rng(seed)
        layers = (PReLU("a"), Linear(dim, width, rng, "l"), Embedding(vocab, dim, rng, "e"))
        params = [p for layer in layers for p in layer.params()]
        reference = ReferenceAdam(params, learning_rate)
        opt = Adam(params, learning_rate=learning_rate)
        for _ in range(steps):
            grads = [
                data.draw(hnp.arrays(np.float64, p.value.shape, elements=GRAD_CELLS))
                for p in params
            ]
            opt.zero_grad()
            for p, grad in zip(params, grads):
                p.grad += grad
            opt.step()
            reference.step(grads)
            for p, expected in zip(params, reference.values):
                assert p.value.shape == expected.shape
                assert p.value.tobytes() == expected.tobytes()
        assert not params[-1].value[0].any()  # the pad row never moves


# Each reference layer keeps the input its own forward saw and puts only a
# placeholder on the tape, so its backward reads nothing from a tape and a wrong
# entry on the tested net's tape shows as a mismatch.
class ReferenceLinear(Linear):
    """Linear with the plain formulas, each temporary allocated."""

    def forward(self, x, tape=None):
        self._x = x
        if tape is not None:
            tape[self] = None
        return x @ self.weight.value.T + self.bias.value

    def backward(self, saved, dy):
        self.weight.grad += dy.T @ self._x
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value


class ReferencePReLU(PReLU):
    """PReLU with the plain formulas; records the sign bits of the exact zeros it sees."""

    def forward(self, x, tape=None):
        self._x = x
        if tape is not None:
            tape[self] = None
        self.zero_signs = getattr(self, "zero_signs", set()) | set(np.signbit(x[x == 0]).tolist())
        return np.where(x > 0, x, self.slope.value * x)

    def backward(self, saved, dy):
        x = self._x
        self.slope.grad += (dy * np.minimum(x, 0.0)).sum()
        return dy * np.where(x > 0, 1.0, self.slope.value)


class ReferenceEmbedding(Embedding):
    """Embedding by fancy indexing, and backward by np.add.at into the zeroed gradient,
    with the layer's flat rows."""

    def forward(self, tokens, tape=None):
        self._x = tokens
        if tape is not None:
            tape[self] = None
        return self.weight.value[tokens].reshape(len(tokens), -1)

    def backward(self, saved, dout):
        np.add.at(self.weight.grad, self._x, dout.reshape(*self._x.shape, self.dim))


REFERENCE_LAYERS = {Linear: ReferenceLinear, PReLU: ReferencePReLU, Embedding: ReferenceEmbedding}


def reference_cross_entropy(logits, labels):
    b = len(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(b)
    loss = float((log_norm - z[rows, labels]).mean())
    grad = np.exp(z - log_norm[:, None])
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


def assert_steps_bit_equal(net, reference, inputs, labels, batch_size, learning_rate, seed):
    """Two epochs of models.train's step on ``net``, and of the reference step on
    ``reference`` (a net built the same way), compared after every step."""
    params, reference_params = net.params(), reference.params()
    optimizer = Adam(params, learning_rate=learning_rate)
    reference_adam = ReferenceAdam(reference_params, learning_rate)
    for p, value in zip(reference_params, reference_adam.values):
        p.value = value
    for layer in reference.layers:
        layer.__class__ = REFERENCE_LAYERS[type(layer)]
    rng = np.random.default_rng(seed)
    for _ in range(2):
        perm = rng.permutation(len(labels))
        for start in range(0, len(labels), batch_size):
            idx = perm[start : start + batch_size]
            batch = tuple(a[idx] for a in inputs)
            tape, reference_tape = {}, {}
            loss, grad = softmax_cross_entropy(net.forward(*batch, tape=tape), labels[idx])
            optimizer.zero_grad()
            net.backward(tape, grad)
            optimizer.step()
            expected_loss, grad = reference_cross_entropy(
                reference.forward(*batch, tape=reference_tape), labels[idx]
            )
            for p in reference_params:
                p.zero_grad()
            reference.backward(reference_tape, grad)
            reference_adam.step([p.grad for p in reference_params])
            assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
            for p, expected in zip(params, reference_params):
                assert p.value.tobytes() == expected.value.tobytes(), p.name


SLOPES = st.sampled_from([0.25, 0.0, -0.0, 1.0, -0.5]) | st.floats(-2, 2)
NEGATIVE_SLOPES = st.sampled_from([-0.5, -1.0]) | st.floats(-2, -1e-3)
# Inputs include -0.0, 0.0, tiny and large magnitudes.
INPUT_CELLS = st.sampled_from([-0.0, 0.0, 1e-300, -1e6]) | st.floats(-10, 10)


class TestTrainingStepBits:
    """The training step of both networks, bit for bit against the reference layers,
    cross-entropy and per-parameter Adam, over batches whose last one is short.

    Row 0 of each weight that feeds a PReLU starts at zero, so on the first step
    every PReLU sees exact +0.0 inputs; the fusion branches' PReLUs get negative
    slopes, so the fusion PReLU sees their sum, -0.0.
    """

    @staticmethod
    def draw_rows(data, batch_size):
        full_batches = data.draw(st.integers(1, 3), label="full batches")
        short = data.draw(st.integers(1, batch_size - 1), label="last batch")
        return full_batches * batch_size + short

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 4)] * 6),
        batch_size=st.integers(2, 6),
        learning_rate=st.sampled_from([0.001, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_fusion_net(self, sizes, batch_size, learning_rate, seed, data):
        vocab, token_width, n_numeric, embed_dim, hidden, fused = sizes
        n_classes = data.draw(st.integers(2, 4), label="classes")
        slopes = data.draw(st.tuples(SLOPES, NEGATIVE_SLOPES, NEGATIVE_SLOPES, SLOPES))

        def build():
            net = EmbeddingFusionNet(
                vocab + 1, token_width, n_numeric, n_classes, embed_dim, hidden, fused, seed
            )
            for linear in (net.cat_linear1, net.cat_linear2, net.num_linear):
                linear.weight.value[0] = 0.0
            for act, slope in zip((net.cat_act1, net.cat_act2, net.num_act, net.fusion_act), slopes):
                act.slope.value[...] = slope
            return net

        net, reference = build(), build()
        rows = self.draw_rows(data, batch_size)
        numeric = data.draw(hnp.arrays(np.float64, (rows, n_numeric), elements=INPUT_CELLS))
        # token 0 is the pad: in the last position of every row, and drawn elsewhere
        tokens = data.draw(hnp.arrays(np.int64, (rows, token_width), elements=st.integers(0, vocab)))
        tokens[:, -1] = 0
        labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, n_classes - 1)))
        assert_steps_bit_equal(
            net, reference, (numeric, tokens), labels, batch_size, learning_rate, seed
        )
        assert True in reference.fusion_act.zero_signs
        for act in (reference.cat_act1, reference.cat_act2, reference.num_act):
            assert False in act.zero_signs
        assert not net.embedding.weight.value[0].any()  # the pad row never moves

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 5)] * 3),
        batch_size=st.integers(2, 6),
        learning_rate=st.sampled_from([0.001, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_baseline_net(self, sizes, batch_size, learning_rate, seed, data):
        n_features, hidden1, hidden2 = sizes
        n_classes = data.draw(st.integers(2, 4), label="classes")
        slopes = data.draw(st.tuples(SLOPES, SLOPES))

        def build():
            net = BaselineMlp(n_features, n_classes, hidden1, hidden2, seed)
            for linear in (net.linear1, net.linear2):
                linear.weight.value[0] = 0.0
            for act, slope in zip((net.act1, net.act2), slopes):
                act.slope.value[...] = slope
            return net

        net, reference = build(), build()
        rows = self.draw_rows(data, batch_size)
        features = data.draw(hnp.arrays(np.float64, (rows, n_features), elements=INPUT_CELLS))
        labels = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, n_classes - 1)))
        assert_steps_bit_equal(net, reference, (features,), labels, batch_size, learning_rate, seed)
        for act in (reference.act1, reference.act2):
            assert False in act.zero_signs


def plain_dense(p, name, x):
    return x @ p[f"{name}.weight"].T + p[f"{name}.bias"]


def plain_dense_back(p, name, x, dy, grads):
    """Sets ``name``'s gradients as added into zeroed ones; returns d/dx."""
    grads[f"{name}.weight"] = 0.0 + dy.T @ x
    grads[f"{name}.bias"] = 0.0 + dy.sum(axis=0)
    return dy @ p[f"{name}.weight"]


def plain_prelu(p, name, x):
    return np.where(x > 0, x, p[f"{name}.slope"] * x)


def plain_prelu_back(p, name, x, dy, grads):
    grads[f"{name}.slope"] = 0.0 + (dy * np.minimum(x, 0.0)).sum()
    return dy * np.where(x > 0, 1.0, p[f"{name}.slope"])


def plain_fusion(p, numeric, tokens, d_logits):
    """EF-Net's logits and parameter gradients, composed by hand: tokens are
    embedded and flattened, then cat1, cat2; numerics go through num; the two
    are summed, and the sum goes through fusion.act and the classifier."""
    grads = {}
    embedded = p["embedding.weight"][tokens].reshape(len(tokens), -1)
    h1 = plain_dense(p, "cat1", embedded)
    a1 = plain_prelu(p, "cat1.act", h1)
    h2 = plain_dense(p, "cat2", a1)
    hn = plain_dense(p, "num", numeric)
    fused = plain_prelu(p, "cat2.act", h2) + plain_prelu(p, "num.act", hn)
    out = plain_prelu(p, "fusion.act", fused)
    logits = plain_dense(p, "classifier", out)
    d = plain_dense_back(p, "classifier", out, d_logits, grads)
    d_fused = plain_prelu_back(p, "fusion.act", fused, d, grads)
    plain_dense_back(p, "num", numeric, plain_prelu_back(p, "num.act", hn, d_fused, grads), grads)
    d = plain_dense_back(p, "cat2", a1, plain_prelu_back(p, "cat2.act", h2, d_fused, grads), grads)
    d = plain_dense_back(p, "cat1", embedded, plain_prelu_back(p, "cat1.act", h1, d, grads), grads)
    grads["embedding.weight"] = np.zeros_like(p["embedding.weight"])
    np.add.at(grads["embedding.weight"], tokens, d.reshape(*tokens.shape, -1))
    return logits, grads


def plain_baseline(p, features, d_logits):
    """The baseline's logits and parameter gradients: mlp1, mlp2, mlp3 in turn."""
    grads = {}
    h1 = plain_dense(p, "mlp1", features)
    a1 = plain_prelu(p, "mlp1.act", h1)
    h2 = plain_dense(p, "mlp2", a1)
    a2 = plain_prelu(p, "mlp2.act", h2)
    logits = plain_dense(p, "mlp3", a2)
    d = plain_prelu_back(p, "mlp2.act", h2, plain_dense_back(p, "mlp3", a2, d_logits, grads), grads)
    d = plain_prelu_back(p, "mlp1.act", h1, plain_dense_back(p, "mlp2", a1, d, grads), grads)
    plain_dense_back(p, "mlp1", features, d, grads)
    return logits, grads


class TestWiringOracle:
    """Each net's ``forward`` logits and the gradients its ``backward`` leaves,
    bit for bit against plain formulas composed by hand from the net's own
    parameters, read by name. The oracle alone says which input feeds which
    branch, that the branches are summed and that each is run back, so a
    wiring fault in the nets shows here, where TestTrainingStepBits, which
    runs the nets' own wiring on both sides, cannot see it."""

    @staticmethod
    def assert_matches_oracle(net, inputs, d_logits, oracle):
        for p in net.params():
            p.zero_grad()
        tape = {}
        logits = net.forward(*inputs, tape=tape)
        net.backward(tape, d_logits)
        expected_logits, expected_grads = oracle(
            {p.name: p.value for p in net.params()}, *inputs, d_logits
        )
        assert logits.tobytes() == expected_logits.tobytes()
        assert sorted(expected_grads) == sorted(p.name for p in net.params())
        for p in net.params():
            assert p.grad.tobytes() == expected_grads[p.name].tobytes(), p.name

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 4)] * 6),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_fusion_net(self, sizes, rows, seed, data):
        vocab, token_width, n_numeric, embed_dim, hidden, fused = sizes
        n_classes = data.draw(st.integers(2, 4), label="classes")
        net = EmbeddingFusionNet(
            vocab + 1, token_width, n_numeric, n_classes, embed_dim, hidden, fused, seed
        )
        slopes = data.draw(st.tuples(*[SLOPES] * 4), label="slopes")
        for act, slope in zip((net.cat_act1, net.cat_act2, net.num_act, net.fusion_act), slopes):
            act.slope.value[...] = slope
        numeric = data.draw(hnp.arrays(np.float64, (rows, n_numeric), elements=INPUT_CELLS))
        tokens = data.draw(hnp.arrays(np.int64, (rows, token_width), elements=st.integers(0, vocab)))
        d_logits = data.draw(hnp.arrays(np.float64, (rows, n_classes), elements=INPUT_CELLS))
        self.assert_matches_oracle(net, (numeric, tokens), d_logits, plain_fusion)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 5)] * 3),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_baseline_net(self, sizes, rows, seed, data):
        n_features, hidden1, hidden2 = sizes
        n_classes = data.draw(st.integers(2, 4), label="classes")
        net = BaselineMlp(n_features, n_classes, hidden1, hidden2, seed)
        slopes = data.draw(st.tuples(SLOPES, SLOPES), label="slopes")
        for act, slope in zip((net.act1, net.act2), slopes):
            act.slope.value[...] = slope
        features = data.draw(hnp.arrays(np.float64, (rows, n_features), elements=INPUT_CELLS))
        d_logits = data.draw(hnp.arrays(np.float64, (rows, n_classes), elements=INPUT_CELLS))
        self.assert_matches_oracle(net, (features,), d_logits, plain_baseline)


class TestGradientCheck:
    @staticmethod
    def _linear_ce_closure(layer, x, y):
        def loss_fn():
            for p in layer.params():
                p.zero_grad()
            loss, grad = softmax_cross_entropy(layer.forward(x), y)
            layer.backward(x, grad)
            return loss

        return loss_fn

    def test_single_linear_layer(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng, "l")
        x = rng.normal(size=(4, 3))
        y = np.array([0, 1, 1, 0])
        report = gradient_check(self._linear_ce_closure(layer, x, y), layer.params())
        assert report.max_rel_error < 1e-6

    def test_embedding_through_linear(self):
        rng = np.random.default_rng(1)
        emb = Embedding(5, 2, rng, "e")
        lin = Linear(6, 3, rng, "l")
        tokens = np.array([[1, 2, 4], [3, 0, 1]])
        y = np.array([0, 2])

        def loss_fn():
            for p in emb.params() + lin.params():
                p.zero_grad()
            flat = emb.forward(tokens).reshape(2, -1)
            loss, grad = softmax_cross_entropy(lin.forward(flat), y)
            d = lin.backward(flat, grad)
            emb.backward(tokens, d.reshape(2, 3, 2))
            return loss

        report = gradient_check(loss_fn, emb.params() + lin.params())
        assert report.max_rel_error < 1e-6

    def test_prelu_slope_gradient(self):
        rng = np.random.default_rng(2)
        lin = Linear(3, 4, rng, "l")
        act = PReLU("a")
        head = Linear(4, 2, rng, "h")
        x = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 1, 0])
        params = lin.params() + act.params() + head.params()

        def loss_fn():
            for p in params:
                p.zero_grad()
            tape = {}
            h = lin.forward(x)
            a = act.forward(h, tape)
            loss, grad = softmax_cross_entropy(head.forward(a), y)
            lin.backward(x, act.backward(tape[act], head.backward(a, grad)))
            return loss

        report = gradient_check(loss_fn, params)
        assert report.max_rel_error < 1e-6

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(3)
        layer = Linear(3, 2, rng, "l")
        x = rng.normal(size=(4, 3))
        y = np.array([0, 1, 1, 0])
        inner = self._linear_ce_closure(layer, x, y)

        def corrupted():
            loss = inner()
            layer.bias.grad += 0.5
            return loss

        report = gradient_check(corrupted, layer.params())
        assert report.max_rel_error > 1e-2
        assert report.worst_param == "l.bias"

    def test_report_pass_helper(self):
        r = GradientCheckReport({"a": 1e-7}, 1e-7, "a")
        assert r.passed(1e-4)
        assert not r.passed(1e-8)
