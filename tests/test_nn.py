import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from canids import nn
from canids.detector import DetectorModel
from canids.encoder import EncoderModel
from canids.graph import WindowGraph
from canids.nn.optim import BETA1, BETA2, EPS, PARAMETER_BOUND
from canids.nn.tensor import Parameter, Tensor, seeded_init

from gradcheck import assert_close_gradients, assert_gradients_match, gradients, stack


def param(data, name="p"):
    return Parameter(np.asarray(data, dtype=float), name)


class TestForwardValues:
    def test_linear_identity(self):
        y = nn.linear(Tensor(np.eye(2)), param(np.eye(2)), param(np.zeros(2)))
        assert y.data == pytest.approx(np.eye(2))

    def test_linear_scalar_arithmetic(self):
        y = nn.linear(Tensor([[1.0, 2.0]]), param([[3.0], [4.0]]), param([5.0]))
        assert y.data == pytest.approx(np.array([[16.0]]))

    def test_linear_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            nn.matmul(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 2))))

    def test_activations(self):
        assert nn.relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]
        assert nn.sigmoid(Tensor([0.0])).data == pytest.approx([0.5])
        assert nn.tanh(Tensor([0.0])).data == pytest.approx([0.0])

    def test_gru_zero_weights(self):
        rng = np.random.default_rng(0)
        p = {k: param(np.zeros((3, 4)) if k.startswith("w") else
                      np.zeros((4, 4)) if k.startswith("u") else np.zeros(4), k)
             for k in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_in", "b_hn")}
        h_prev = rng.normal(size=(2, 4))
        h = nn.gru_cell(Tensor(rng.normal(size=(2, 3))), Tensor(h_prev), p)
        # z = r = 0.5, n = 0 -> h' = 0.5 * h_prev
        assert h.data == pytest.approx(0.5 * h_prev)
        h0 = nn.gru_cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))), p)
        assert h0.data == pytest.approx(np.zeros((2, 4)))

    def test_global_mean_pool(self):
        assert nn.global_mean_pool(Tensor([[3.0, 4.0]])).data.tolist() == [[3.0, 4.0]]
        two = nn.global_mean_pool(Tensor([[0.0] * 4, [1.0] * 4]))
        assert two.data == pytest.approx(np.full((1, 4), 0.5))
        x = np.random.default_rng(1).normal(size=(50, 32))
        assert nn.global_mean_pool(Tensor(x)).data == pytest.approx(
            x.mean(axis=0, keepdims=True), abs=1e-12)

    def test_gcn_identity_propagation(self):
        feats = np.array([[1.0, 2.0]])
        y = nn.gcn_conv(Tensor(feats), np.array([[1.0]]), param(np.eye(2)), param(np.zeros(2)))
        assert y.data == pytest.approx(feats)

    def test_gcn_constant_features_on_2_path(self):
        a = np.full((2, 2), 0.5)
        feats = np.full((2, 3), 0.7)
        y = nn.gcn_conv(Tensor(feats), a, param(np.eye(3)), param(np.zeros(3)))
        assert y.data == pytest.approx(feats)

    def test_gcn_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        a = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        a /= np.sqrt(np.outer(a.sum(1), a.sum(1)))
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=4)
        y = nn.gcn_conv(Tensor(x), a, param(w), param(b))
        assert y.data == pytest.approx(a @ x @ w + b, abs=1e-12)

    def test_losses(self):
        x = np.random.default_rng(3).normal(size=(4, 5))
        assert nn.mse_loss(Tensor(x), Tensor(x)).item() == 0.0
        assert nn.bce_loss(Tensor([[0.5]]), Tensor([[1.0]])).item() == pytest.approx(np.log(2))
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert nn.mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(
            np.mean((a - b) ** 2), abs=1e-12)
        p, y = rng.uniform(0.01, 0.99, size=10), rng.integers(0, 2, size=10).astype(float)
        assert nn.bce_loss(Tensor(p), Tensor(y)).item() == pytest.approx(
            -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)), abs=1e-12)


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = rng.normal(size=(5, 5))
        assert nn.dropout(Tensor(x), 0.0, rng).data == pytest.approx(x)

    def test_statistics(self, rng):
        x = np.ones(10 ** 6)
        out = nn.dropout(Tensor(x), 0.3, rng).data
        zero_frac = np.mean(out == 0.0)
        assert abs(zero_frac - 0.3) < 0.01
        assert out[out != 0].mean() == pytest.approx(1 / 0.7, rel=1e-9)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_backward_uses_mask(self, rng):
        x = Parameter(np.ones(1000), "x")
        loss = nn.mse_loss(nn.dropout(x, 0.5, rng), Tensor(np.zeros(1000)))
        loss.backward()
        out_zero = x.grad == 0.0
        assert 300 < out_zero.sum() < 700  # dropped coordinates get no gradient


class TestGradients:
    """Analytic vs central finite differences, rel. err <= 1e-4, 10 seeds each."""

    SEEDS = range(10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear(self, seed):
        r = np.random.default_rng(seed)
        x = Parameter(r.normal(size=(3, 4)), "x")
        w = param(r.normal(size=(4, 2)), "w")
        b = param(r.normal(size=2), "b")
        assert_gradients_match(
            lambda: nn.mse_loss(nn.linear(x, w, b), Tensor(r.standard_normal((3, 2)) * 0 + 1.0)),
            [x, w, b])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("act", [nn.relu, nn.sigmoid, nn.tanh])
    def test_activations(self, seed, act):
        r = np.random.default_rng(seed)
        x = Parameter(r.normal(size=(4, 3)) + 0.1, "x")  # keep clear of relu kink
        assert_gradients_match(lambda: nn.mse_loss(act(x), Tensor(np.zeros((4, 3)))), [x])

    def test_sigmoid_derivative_pointwise(self):
        x = Parameter(np.array([1.5]), "x")
        y = nn.sigmoid(x)
        y_sum = nn.mse_loss(y, Tensor(np.zeros(1)))  # d/dx of y^2 = 2y s'(x)
        y_sum.backward()
        s = 1 / (1 + np.exp(-1.5))
        assert x.grad[0] == pytest.approx(2 * s * s * (1 - s), rel=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gcn_conv(self, seed):
        r = np.random.default_rng(seed)
        a = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        a /= np.sqrt(np.outer(a.sum(1), a.sum(1)))
        x = Parameter(r.normal(size=(3, 5)), "x")
        w = param(r.normal(size=(5, 4)), "w")
        b = param(r.normal(size=4), "b")
        assert_gradients_match(
            lambda: nn.mse_loss(nn.gcn_conv(x, a, w, b), Tensor(np.zeros((3, 4)))), [x, w, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_stack(self, seed):
        """A graph convolution first, then a dense layer, then one without ReLU."""
        r = np.random.default_rng(seed)
        a = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        a /= np.sqrt(np.outer(a.sum(1), a.sum(1)))
        x = r.normal(size=(3, 5))
        ps = [param(r.normal(size=shape), name) for name, shape in
              (("w1", (5, 4)), ("b1", 4), ("w2", (4, 4)), ("b2", 4), ("w3", (4, 2)), ("b3", 2))]
        layers = [(ps[0], ps[1], True, True), (ps[2], ps[3], False, True), (ps[4], ps[5], True, False)]
        assert_gradients_match(
            lambda: nn.mse_loss(nn.dense_stack(x, a, layers), Tensor(np.zeros((3, 2)))), ps)

        def unfused():
            h = nn.relu(nn.gcn_conv(Tensor(x), a, ps[0], ps[1]))
            return nn.gcn_conv(nn.relu(nn.linear(h, ps[2], ps[3])), a, ps[4], ps[5])

        target = Tensor(r.normal(size=(3, 2)))
        tensors = {p.name: p for p in ps}
        assert (nn.mse_loss(nn.dense_stack(x, a, layers), target).item()
                == nn.mse_loss(unfused(), target).item())
        got = gradients(lambda: nn.mse_loss(nn.dense_stack(x, a, layers), target), tensors)
        want = gradients(lambda: nn.mse_loss(unfused(), target), tensors)
        assert all(np.array_equal(got[k], want[k]) for k in want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gru_cell(self, seed):
        r = np.random.default_rng(seed)
        d_in, d_h = 8, 6
        p = {}
        for k in ("w_z", "w_r", "w_n"):
            p[k] = param(r.normal(size=(d_in, d_h)) * 0.5, k)
        for k in ("u_z", "u_r", "u_n"):
            p[k] = param(r.normal(size=(d_h, d_h)) * 0.5, k)
        for k in ("b_z", "b_r", "b_in", "b_hn"):
            p[k] = param(r.normal(size=d_h) * 0.5, k)
        x = Parameter(r.normal(size=(4, d_in)), "x")
        h0 = Parameter(r.normal(size=(4, d_h)), "h0")
        target = Tensor(np.zeros((4, d_h)))
        assert_gradients_match(
            lambda: nn.mse_loss(nn.gru_cell(x, h0, p), target),
            list(p.values()) + [x, h0], rtol=1e-5 * 10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_and_losses(self, seed):
        r = np.random.default_rng(seed)
        x = Parameter(r.normal(size=(7, 3)), "x")
        assert_gradients_match(
            lambda: nn.mse_loss(nn.global_mean_pool(x), Tensor(np.ones((1, 3)))), [x])
        p = Parameter(r.uniform(0.05, 0.95, size=(5, 1)), "p")
        y = Tensor(r.integers(0, 2, size=(5, 1)).astype(float))
        assert_gradients_match(lambda: nn.bce_loss(p, y), [p])

    def test_pool_gradient_conservation(self):
        x = Parameter(np.random.default_rng(0).normal(size=(10, 4)), "x")
        pooled = nn.global_mean_pool(x)
        loss = nn.mse_loss(pooled, Tensor(np.zeros((1, 4))))
        loss.backward()
        incoming = 2 * pooled.data / pooled.data.size
        assert x.grad.sum(axis=0) == pytest.approx(incoming[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_chain(self, seed):
        # chain: linear -> relu -> gru -> pool -> sigmoid -> bce
        r = np.random.default_rng(100 + seed)
        w1 = param(r.normal(size=(3, 4)) * 0.7, "w1")
        b1 = param(r.normal(size=4) * 0.7, "b1")
        gru = {}
        for k in ("w_z", "w_r", "w_n"):
            gru[k] = param(r.normal(size=(4, 4)) * 0.5, k)
        for k in ("u_z", "u_r", "u_n"):
            gru[k] = param(r.normal(size=(4, 4)) * 0.5, k)
        for k in ("b_z", "b_r", "b_in", "b_hn"):
            gru[k] = param(r.normal(size=4) * 0.5, k)
        w2 = param(r.normal(size=(4, 1)), "w2")
        b2 = param(r.normal(size=1), "b2")
        x = Tensor(r.normal(size=(5, 3)))
        y = Tensor(np.array([[1.0]]))

        def loss():
            h = nn.relu(nn.linear(x, w1, b1))
            h = nn.gru_cell(h, Tensor(np.zeros((5, 4))), gru)
            pooled = nn.global_mean_pool(h)
            prob = nn.sigmoid(nn.linear(pooled, w2, b2))
            return nn.bce_loss(prob, y)

        assert_gradients_match(loss, [w1, b1, w2, b2] + list(gru.values()), rtol=1e-4)


def gru_params(r, d_in, d_h, scale):
    shapes = {"w": (d_in, d_h), "u": (d_h, d_h), "b": (d_h,)}
    return {k: param(r.normal(size=shapes[k[0]]) * scale / np.sqrt(shapes[k[0]][0]), k)
            for k in ("w_z", "w_r", "w_n", "u_z", "u_r", "u_n", "b_z", "b_r", "b_in", "b_hn")}


def chained_gru_layers(x, layers):
    for p in layers:
        x = nn.gru_stack(x, [p])
    return x


class TestGruStack:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_grad_wavefront_equals_chained_layers_bit_for_bit(self, n):
        """Fed an (L, B, 32) sliding_window_view, as detect feeds the detector (its
        steps overlap unless B or L is 1), the stack's top states equal those of
        one-layer gru_stack calls chained, at every B and L."""
        r = np.random.default_rng(n)
        for batch in (1, 2, 7, 8, 9, 11, 16, 29, 43, 61, 64, 215):
            for length in (1, 2, 3, 50):
                layers = [gru_params(r, 32 if j == 0 else 64, 64, 2.0) for j in range(n)]
                windows = r.normal(size=(batch + length - 1, 32))
                x = sliding_window_view(windows, length, axis=0).transpose(2, 0, 1)
                assert x.shape == (length, batch, 32) and x.flags.c_contiguous == (min(batch, length) == 1)
                with nn.no_grad():
                    got, want = nn.gru_stack(x, layers), chained_gru_layers(Tensor(x), layers)
                assert got.data.shape == (length, batch, 64)
                assert np.array_equal(got.data, want.data), (batch, length)

    def test_a_saturated_gate_is_exactly_0_or_1_without_a_warning(self):
        """exp(-z) overflows to inf for z < -709.8, and 1 / (1 + inf) is 0, the
        sigmoid's rounded value: pyproject makes any RuntimeWarning fail this test."""
        r = np.random.default_rng(3)
        layers = [gru_params(r, 3, 4, 1.0)]
        x = np.full((2, 1, 3), 1e6) * np.array([1.0, -1.0])[:, None, None]
        with nn.no_grad():
            states = nn.gru_stack(x, layers).data
        assert np.all(np.isfinite(states))
        tape = nn.gru_stack(Parameter(x, "x"), layers)
        assert np.array_equal(tape.data, states)
        assert nn.sigmoid(Tensor(np.array([-1e6, 0.0, 1e6]))).data.tolist() == [0.0, 0.5, 1.0]

    def test_on_a_tape_it_is_the_chained_layers(self):
        """On a tape the stack's states equal a two-layer stack of gru_cell steps bit
        for bit, and its gradients equal theirs to 1e-12 relative and finite differences."""
        r = np.random.default_rng(7)
        layers = [gru_params(r, 5, 4, 1.0), gru_params(r, 4, 4, 1.0)]
        x = Parameter(r.normal(size=(3, 2, 5)), "x")
        target = Tensor(r.normal(size=(3, 2, 4)))

        def cells():
            hs, tops = [Tensor(np.zeros((2, 4))) for _ in layers], []
            for t in range(3):
                below = nn.take_step(x, t)
                for j, p in enumerate(layers):
                    hs[j] = below = nn.gru_cell(below, hs[j], p)
                tops.append(below)
            return stack(tops)

        assert np.array_equal(nn.gru_stack(x, layers).data, cells().data)
        tensors = {f"{j}{k}": p for j, ps in enumerate(layers) for k, p in ps.items()} | {"x": x}
        assert_close_gradients(gradients(lambda: nn.mse_loss(nn.gru_stack(x, layers), target), tensors),
                               gradients(lambda: nn.mse_loss(cells(), target), tensors))
        assert_gradients_match(lambda: nn.mse_loss(nn.gru_stack(x, layers), target),
                               list(tensors.values()))

    def test_keeps_gates_only_on_a_tape(self, monkeypatch):
        """The time loop gets a (4, L, B, H) gate buffer for each layer on a tape, and
        none under no_grad; so two chained calls under no_grad at the acceptance
        corpus's validation size hold little more than their states."""
        assert [name for name in nn.__all__ if name.startswith("gru")] == ["gru_cell", "gru_stack"]
        r, calls, steps = np.random.default_rng(3), [], nn.ops._gru_steps

        def watched(x, layers, gates=None):
            calls.append(None if gates is None else gates.shape)
            return steps(x, layers, gates)

        monkeypatch.setattr(nn.ops, "_gru_steps", watched)
        layers = [gru_params(r, 5, 4, 1.0), gru_params(r, 4, 4, 1.0)]
        x = Tensor(r.normal(size=(3, 2, 5)))
        with nn.no_grad():
            nn.gru_stack(x, layers[:1])
            nn.gru_stack(x, layers)
        assert calls == [None, None]
        nn.gru_stack(x, layers)
        assert calls[2:] == [(4, 3, 2, 4)] * 2

        det = DetectorModel(seed=0)
        x = Tensor(r.normal(size=(50, 1455, 32)))
        tracemalloc.start()
        try:
            with nn.no_grad():
                nn.gru_stack(nn.gru_stack(x, [det.gru1]), [det.gru2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20, peak / 2**20


def module(**arrays):
    return nn.Module([(name, np.asarray(a, dtype=float)) for name, a in arrays.items()])


class TestTape:
    def test_no_grad_records_nothing_and_recording_resumes(self):
        w, b = param(np.ones((2, 2)), "w"), param(np.zeros(2), "b")
        x = Tensor(np.array([[1.0, -2.0]]))
        with nn.no_grad():
            y = nn.sigmoid(nn.linear(x, w, b))
            with nn.no_grad():
                pass
            inner = nn.relu(y)  # an inner block exits back into no_grad
        assert y.parents == () and y.backward_fn is None
        assert inner.parents == () and inner.backward_fn is None
        assert np.array_equal(y.data, nn.sigmoid(nn.linear(x, w, b)).data)
        with pytest.raises(RuntimeError, match="inside"):
            with nn.no_grad():
                raise RuntimeError("inside")
        z = nn.linear(x, w, b)
        assert z.parents and z.backward_fn is not None
        nn.mse_loss(z, Tensor(np.zeros((1, 2)))).backward()
        assert w.grad is not None and b.grad is not None

    def test_backward_frees_the_graph_and_keeps_leaf_gradients(self):
        model = DetectorModel(seed=0, dropout_p=0.0)
        x = np.random.default_rng(0).normal(size=(2, 3, 32))
        seq_probs = model.forward_batch(x, training=True)  # no dropout, so no rng
        scale = Tensor(np.ones((2, 1)), requires_grad=True)  # a leaf that is no Parameter
        loss = nn.bce_loss(nn.mul(seq_probs, scale), Tensor(np.array([[1.0], [0.0]])))
        assert loss.parents and seq_probs.parents
        loss.backward()
        for node in (loss, seq_probs):
            assert node.parents == () and node.backward_fn is None and node.grad is None
        assert all(p.grad is not None and p.grad.any() for p in model.parameters())
        assert scale.grad is not None and scale.grad.shape == (2, 1) and scale.grad.any()

    def test_a_shared_first_gradient_is_never_written(self):
        # `add` hands one array to both parents, uncopied; `a` then gets a second
        # gradient before `b` has used the first, so summing in place corrupts b's
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a, b = nn.mul(x, 2.0), nn.mul(x, 3.0)
        nn.mse_loss(nn.add(nn.add(a, b), a), Tensor(np.zeros(2))).backward()
        # d/dx mean((2x + 3x + 2x)^2) = 2 * 7x * 7 / 2
        assert x.grad == pytest.approx(49.0 * x.data, rel=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        m = module(p=[1.0, 2.0])
        m.params["p"].accumulate(np.zeros(2))
        nn.adam_step(m, lr=0.1)
        assert m.params["p"].data.tolist() == [1.0, 2.0]

    def test_first_step_is_minus_lr(self):
        m = module(p=[0.0])
        m.params["p"].accumulate(np.ones(1))
        nn.adam_step(m, lr=0.1)
        assert m.params["p"].data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_missing_gradient_errors(self):
        with pytest.raises(ValueError, match="no gradient"):
            nn.adam_step(module(p=[1.0]))

    def test_unreached_parameter_errors(self):
        m = module(used=[1.0, 2.0], unused=[3.0])
        nn.mse_loss(m.params["used"], Tensor(np.zeros(2))).backward()
        with pytest.raises(ValueError, match="'unused' has no gradient"):
            nn.adam_step(m)

    def test_quadratic_bowl_convergence(self):
        m = module(w=np.random.default_rng(0).normal(size=8))
        w = m.params["w"]
        w.data /= np.linalg.norm(w.data)  # ||w0|| = 1
        for _ in range(200):
            loss = nn.mse_loss(w, Tensor(np.zeros(8)))
            loss.backward()
            nn.adam_step(m, lr=0.05)
        assert np.linalg.norm(w.data) < 1e-2

    def test_clip_global_norm(self):
        m = module(p1=np.zeros(3), p2=np.zeros(4))
        p1, p2 = m.parameters()
        p1.accumulate(np.full(3, 10.0))
        p2.accumulate(np.full(4, 10.0))
        norm = nn.clip_global_norm(m, 5.0)
        assert norm == pytest.approx(10 * np.sqrt(7))
        assert np.sqrt(sum((p.grad ** 2).sum() for p in (p1, p2))) == pytest.approx(5.0)


FIT_LOG = logging.getLogger("canids.toy")


def fit_toy(model, steps, validate, epochs=20, patience=2, grad_clip=0.0):
    """nn.fit on a toy model; its history column is `score`, logged as "score %.1f"."""
    config = SimpleNamespace(toy_epochs=epochs, toy_lr=0.1, toy_patience=patience, grad_clip=grad_clip)
    return nn.fit(model, config, steps, validate, "toy", ("score", "score %.1f"))


def constant_loss(model, value):
    """A loss of `value` that gives every parameter a zero gradient."""
    return nn.add(nn.mul(model.params["w"], 0.0), Tensor(value))


class TestFit:
    def test_patience_counts_epochs_past_the_best_and_restores_it(self, caplog):
        model = module(w=0.0)
        w = model.params["w"]
        scores = iter([1.0, 3.0] + [2.0] * 20)
        seen = []

        def validate():
            seen.append(model.snapshot())
            score = next(scores)
            return score, score

        with caplog.at_level(logging.INFO, logger=FIT_LOG.name):
            record = fit_toy(model, lambda: [(nn.mse_loss(w, Tensor(1.0)), 1)], validate)
        # the best epoch is 1; epoch 4 is the first more than patience = 2 epochs past it
        assert record["epochs_run"] == len(seen) == 5
        assert record["best_epoch"] == 1
        assert [row["score"] for row in record["history"]] == [1.0, 3.0, 2.0, 2.0, 2.0]
        assert len({float(state[0]) for state in seen}) == 5  # every epoch moved w
        assert np.array_equal(model.data, seen[1])
        lines = [r.getMessage() for r in caplog.records if r.name == FIT_LOG.name]
        assert len(lines) == 5
        for epoch, (line, score) in enumerate(zip(lines, [1.0, 3.0, 2.0, 2.0, 2.0])):
            assert line.startswith(f"toy epoch {epoch}: train loss ")
            assert f", score {score:.1f}, " in line

    def test_train_loss_is_the_weighted_mean(self):
        model = module(w=0.0)

        def steps():
            yield constant_loss(model, 2.0), 1
            yield constant_loss(model, 6.0), 3

        record = fit_toy(model, steps, lambda: (0.0, 0.0), epochs=2, grad_clip=1.0)
        assert [row["train_loss"] for row in record["history"]] == [5.0, 5.0]  # (2 + 18) / 4

    def test_non_finite_loss_names_model_and_epoch(self):
        model = module(w=0.0)
        values = iter([1.0, np.nan])
        with pytest.raises(FloatingPointError, match=r"^toy training diverged at epoch 1$"):
            fit_toy(model, lambda: [(constant_loss(model, next(values)), 1)], lambda: (0.0, 0.0))

    def test_first_non_finite_step_stops_before_its_adam_step(self):
        model = module(w=0.0)
        losses = [constant_loss(model, v) for v in (1.0, np.nan, 2.0, 3.0, 4.0)]
        with pytest.raises(FloatingPointError, match=r"^toy training diverged at epoch 0$"):
            fit_toy(model, lambda: ((loss, 1) for loss in losses), lambda: (0.0, 0.0))
        assert model.adam_t == 1

    @pytest.mark.parametrize("far", [1e7, -1e300])
    def test_a_parameter_beyond_the_bound_ends_the_epoch_before_validation(self, far):
        """An epoch with finite losses that leaves a parameter past PARAMETER_BOUND is
        divergence: no validation forward runs on it."""
        model = module(w=-PARAMETER_BOUND)  # a zero gradient: Adam leaves w where it is
        assert fit_toy(model, lambda: [(constant_loss(model, 1.0), 1)], lambda: (0.0, 0.0),
                       epochs=1)["epochs_run"] == 1
        model, validated = module(w=far), []
        with pytest.raises(FloatingPointError, match=r"^toy training diverged at epoch 0: a parameter "
                                                     r"is beyond \+-1e\+06$"):
            fit_toy(model, lambda: [(constant_loss(model, 1.0), 1)],
                    lambda: validated.append(1) or (0.0, 0.0))
        assert not validated


class TestModule:
    def test_parameters_are_views_of_flat_vectors(self):
        m = module(w=np.arange(6.0).reshape(2, 3), b=[7.0])
        w, b = m.parameters()
        assert [p.name for p in m.parameters()] == ["w", "b"]
        assert m.data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert np.shares_memory(w.data, m.data) and np.shares_memory(b.data, m.data)
        nn.mse_loss(nn.matmul(Tensor(np.ones((1, 2))), w), Tensor(np.zeros((1, 3)))).backward()
        assert w.grad.base is m.grad and np.array_equal(m.grad[:6], w.grad.ravel())

    def test_snapshot_and_load_state_copy(self):
        m = module(w=[1.0, 2.0])
        state = m.snapshot()
        m.params["w"].data[...] = 9.0
        assert state.tolist() == [1.0, 2.0]
        m.load_state(state)
        assert m.params["w"].data.tolist() == [1.0, 2.0]

    def test_save_load_round_trip(self, tmp_path):
        src = module(w=np.arange(6.0).reshape(2, 3), b=[7.0])
        src.save(tmp_path / "m.ckpt")
        dst = module(w=np.zeros((2, 3)), b=[0.0])
        dst.load(tmp_path / "m.ckpt")
        assert dst.data.tobytes() == src.data.tobytes()

    def test_standalone_parameter_accumulates(self):
        p = param([1.0, 2.0])
        p.accumulate(np.ones(2))
        p.accumulate(np.ones(2))
        assert p.grad.tolist() == [2.0, 2.0]


def _reference_clip(grads, max_norm):
    """The per-parameter clipping loop the flat version replaced."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def _reference_adam(datas, grads, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop the flat version replaced."""
    for i, (d, g) in enumerate(zip(datas, grads)):
        m, v = moments[i]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        d -= lr * m_hat / (np.sqrt(v_hat) + eps)
        moments[i] = (m, v)


def _detector_loss(model, rng):
    probs = model.forward_batch(rng.normal(size=(4, 3, 32)), training=True, rng=rng)
    return nn.bce_loss(probs, Tensor(np.array([[0.0], [1.0], [1.0], [0.0]])))


def _encoder_loss(model, rng):
    feats = rng.integers(0, 2, size=(6, 9)).astype(float)
    recon = model.forward(WindowGraph(node_features=feats, label=0, window_index=0))
    return nn.mse_loss(recon, Tensor(feats))


@pytest.mark.parametrize("which", ["encoder", "detector"])
def test_flat_step_equals_per_parameter_loops(which):
    model, build_loss = ((EncoderModel(seed=3), _encoder_loss) if which == "encoder"
                         else (DetectorModel(seed=3), _detector_loss))
    rng = np.random.default_rng(0)
    params = model.parameters()
    datas = [p.data.copy() for p in params]
    moments = [(np.zeros_like(d), np.zeros_like(d)) for d in datas]
    fired = []
    for t in range(1, 9):
        build_loss(model, rng).backward()
        grads = [p.grad.copy() for p in params]
        max_norm = 1e-3 if t % 2 else 1e3
        ref_norm = _reference_clip(grads, max_norm)
        assert nn.clip_global_norm(model, max_norm) == ref_norm
        fired.append(ref_norm > max_norm)
        _reference_adam(datas, grads, moments, t, lr=0.01)
        nn.adam_step(model, lr=0.01)
        assert model.adam_t == t
        for p, d in zip(params, datas):
            assert np.array_equal(p.data, d)
        assert np.array_equal(model.adam_m, np.concatenate([m.ravel() for m, _ in moments]))
        assert np.array_equal(model.adam_v, np.concatenate([v.ravel() for _, v in moments]))
    assert any(fired) and not all(fired)


def _old_clip_global_norm(model, max_norm):
    """clip_global_norm's old expressions: one product per parameter."""
    total = 0.0
    for p in model.parameters():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        model.grad *= max_norm / norm
    return norm


def _old_adam_step(model, lr):
    """adam_step's old expressions: new moment vectors and temporaries each step."""
    for p in model.parameters():
        p.grad = None
    model.adam_t += 1
    g = model.grad
    model.adam_m = BETA1 * model.adam_m + (1.0 - BETA1) * g
    model.adam_v = BETA2 * model.adam_v + (1.0 - BETA2) * (g * g)
    m_hat = model.adam_m / (1.0 - BETA1 ** model.adam_t)
    v_hat = model.adam_v / (1.0 - BETA2 ** model.adam_t)
    model.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)


@pytest.mark.parametrize("model_class", [EncoderModel, DetectorModel])
def test_in_place_adam_and_clip_equal_the_old_expressions(model_class):
    new, old = model_class(seed=4), model_class(seed=4)
    rng = np.random.default_rng(11)
    clipped = 0
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3.0, 0.5)
        grad, lr = rng.normal(size=new.grad.size) * scale, 10.0 ** rng.uniform(-4.0, -1.0)
        for model in (new, old):
            model.grad[...] = grad
            for p in model.parameters():
                p.grad = p.grad_buffer
        norm = nn.clip_global_norm(new, 5.0)
        assert norm == _old_clip_global_norm(old, 5.0)
        clipped += norm > 5.0
        nn.adam_step(new, lr)
        _old_adam_step(old, lr)
        for got, want in ((new.data, old.data), (new.adam_m, old.adam_m), (new.adam_v, old.adam_v)):
            assert np.array_equal(got, want)
    assert 0 < clipped < 300


class TestSeededInit:
    def test_bounds(self):
        vals = seeded_init((1000,), 1, np.random.default_rng(0))
        assert np.all(np.abs(vals) <= 1.0)
        vals16 = seeded_init((1000,), 16, np.random.default_rng(0))
        assert np.all(np.abs(vals16) <= 0.25)

    def test_determinism(self):
        a = seeded_init((10, 10), 4, np.random.default_rng(42))
        b = seeded_init((10, 10), 4, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_mean_near_zero(self):
        vals = seeded_init((100000,), 16, np.random.default_rng(7))
        assert abs(vals.mean()) < 0.005

    def test_fan_in_validation(self):
        with pytest.raises(ValueError):
            seeded_init((2,), 0, np.random.default_rng(0))


def test_determinism_forward_and_update():
    def run():
        r = np.random.default_rng(5)
        m = module(w=seeded_init((4, 4), 4, r))
        w = m.params["w"]
        x = Tensor(r.normal(size=(3, 4)))
        for _ in range(3):
            loss = nn.mse_loss(nn.tanh(nn.matmul(x, w)), Tensor(np.zeros((3, 4))))
            loss.backward()
            nn.adam_step(m, lr=0.01)
        return w.data.copy()

    assert np.array_equal(run(), run())
