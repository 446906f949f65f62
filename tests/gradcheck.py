"""Oracles for the autodiff engine: central finite differences, the ops that only
the oracles use (relu, global_mean_pool, astype), the encoder's forward as unfused
linear/gcn_conv/relu ops, and the detector's forward as a stack of unfused GRU cells
under a linear/relu/sigmoid head."""
import numpy as np

from canids import detector, nn
from canids.graph import normalized_adjacency
from canids.nn.ops import _tracked, _wrap


def relu(x) -> nn.Tensor:
    x = _wrap(x)
    mask = x.data > 0  # subgradient at 0 is 0

    def bwd(g):
        if _tracked(x):
            x.accumulate(g * mask)

    return nn.Tensor(np.where(mask, x.data, 0.0), parents=(x,), backward_fn=bwd)


def global_mean_pool(node_feats) -> nn.Tensor:
    """Columnwise mean over nodes: (W, d) -> (1, d); backward spreads grad by 1/W."""
    x = _wrap(node_feats)
    w = x.data.shape[0]

    def bwd(g):
        if _tracked(x):
            x.accumulate(np.broadcast_to(g / w, x.data.shape))

    return nn.Tensor(x.data.mean(axis=0, keepdims=True), parents=(x,), backward_fn=bwd)


def astype(x, dtype) -> nn.Tensor:
    """x in another float dtype; the backward hands the gradient back in x's."""
    x = _wrap(x)

    def bwd(g):
        if _tracked(x):
            x.accumulate(g.astype(x.data.dtype))

    return nn.Tensor(x.data.astype(dtype), parents=(x,), backward_fn=bwd)


def finite_diff(build_loss, param, index, h=1e-5):
    """Central difference of the scalar loss w.r.t. one parameter coordinate."""
    orig = param.data.flat[index]
    param.data.flat[index] = orig + h
    up = build_loss().item()
    param.data.flat[index] = orig - h
    down = build_loss().item()
    param.data.flat[index] = orig
    return (up - down) / (2 * h)


def assert_gradients_match(build_loss, params, h=1e-5, rtol=1e-4, max_coords=None, rng=None):
    """Backprop build_loss() once and compare every (or a sampled subset of)
    parameter coordinate against central differences."""
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = {id(p): np.array(p.grad, copy=True) for p in params}
    for p in params:
        n = p.data.size
        if max_coords is not None and n > max_coords:
            idx = rng.choice(n, size=max_coords, replace=False)
        else:
            idx = range(n)
        for i in idx:
            num = finite_diff(build_loss, p, i, h)
            ana = analytic[id(p)].flat[i]
            scale = max(abs(num), abs(ana), 1e-6)
            assert abs(num - ana) <= rtol * scale, (
                f"{getattr(p, 'name', 'tensor')}[{i}]: analytic {ana} vs numeric {num}")


def unfused_encoder_forward(model, graph):
    """EncoderModel's node embeddings and reconstruction built from one nn.linear or
    nn.gcn_conv and relu per layer: the oracle that the fused nn.dense_stack
    path must reproduce."""
    norm_adj = normalized_adjacency(graph.num_nodes)
    p = model.params
    h = relu(nn.linear(nn.Tensor(graph.node_features), p["enc1_w"], p["enc1_b"]))
    h = relu(nn.linear(h, p["enc2_w"], p["enc2_b"]))
    h = relu(nn.gcn_conv(h, norm_adj, p["gcn1_w"], p["gcn1_b"]))
    h = relu(nn.gcn_conv(h, norm_adj, p["gcn2_w"], p["gcn2_b"]))
    node_emb = relu(nn.gcn_conv(h, norm_adj, p["gcn3_w"], p["gcn3_b"]))
    d = relu(nn.linear(node_emb, p["dec1_w"], p["dec1_b"]))
    return node_emb, nn.linear(d, p["dec2_w"], p["dec2_b"])


def unfused_head(model, h):
    """DetectorModel's 64->32->1 sigmoid head built from nn.linear, relu and
    nn.sigmoid on the model's parameters: the oracle that its nn.dense_stack head
    must reproduce."""
    p = model.params
    return nn.sigmoid(nn.linear(relu(nn.linear(h, p["fc1_w"], p["fc1_b"])), p["fc2_w"], p["fc2_b"]))


def stack(tensors):
    """The tensors stacked on a new leading axis, recorded on the tape: step t's
    gradient goes back to tensors[t]."""
    def bwd(g):
        for t, tensor in enumerate(tensors):
            tensor.accumulate(g[t])

    return nn.Tensor(np.stack([t.data for t in tensors]), parents=tuple(tensors), backward_fn=bwd)


def unfused_forward_batch(model, x, training=False, rng=None):
    """DetectorModel.forward_batch built from one nn.gru_cell per layer and
    timestep, one (B, H) dropout draw per timestep and the unfused head on each
    step: the oracle that the fused nn.gru_stack and nn.dense_stack path must
    reproduce. In training the cells and dropout compute in detector.TRAIN_DTYPE,
    the input and the GRU weights cast to it once, and the final step goes back to
    float64 for the head. Returns forward_batch's contract: the (L, B, 1) stack of
    every step's probabilities, or in training the final step's (B, 1)."""
    b, length, _ = x.shape
    dtype = detector.TRAIN_DTYPE if training else np.float64
    gru1, gru2 = ({k: astype(p, dtype) for k, p in gru.items()} if training else gru
                  for gru in (model.gru1, model.gru2))
    h1 = h2 = nn.Tensor(np.zeros((b, model.gru1["u_z"].shape[0]), dtype))
    probs = []
    for t in range(length):
        h1 = nn.gru_cell(nn.Tensor(x[:, t, :].astype(dtype)), h1, gru1)
        h2 = nn.gru_cell(nn.dropout(h1, model.dropout_p, rng) if training else h1, h2, gru2)
        if not training or t == length - 1:
            probs.append(unfused_head(model, astype(h2, np.float64) if training else h2))
    return probs[-1] if training else stack(probs)


def gradients(build_loss, tensors: dict) -> dict:
    """Backprop build_loss() once; a copy of each named tensor's gradient."""
    for t in tensors.values():
        t.grad = None
    build_loss().backward()
    return {name: np.array(t.grad, copy=True) for name, t in tensors.items()}


def assert_close_gradients(got: dict, want: dict, rtol=1e-12):
    """Each gradient in `got` within rtol of the largest entry of its oracle in `want`."""
    assert got.keys() == want.keys()
    for name, w in want.items():
        assert np.abs(got[name] - w).max() <= rtol * np.abs(w).max(), name
