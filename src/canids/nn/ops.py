"""Differentiable operations: linear, activations, dropout, graph conv, the GRU,
pooling, and the MSE/BCE losses. All return Tensors recorded for backprop.

Both models' dense layers run as `dense_stack` ops, tested value for value against
the `linear`/`gcn_conv`/`relu` composition that no model path calls. The GRU comes
twice. `gru_layer` runs one layer over a whole time-major sequence as a single op:
a plain-numpy time loop forward and a hand-written BPTT backward. The detector uses
it. `gru_cell` is one step built from the elementwise ops; it is the oracle that
`gru_layer` is tested against, value for value.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, recording

BCE_EPS = 1e-7


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.backward_fn is not None


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over axes that were broadcast to recover the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if _tracked(a):
            a.accumulate(_unbroadcast(g, a.data.shape))
        if _tracked(b):
            b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if _tracked(a):
            a.accumulate(_unbroadcast(g, a.data.shape))
        if _tracked(b):
            b.accumulate(-_unbroadcast(g, b.data.shape))

    return Tensor(a.data - b.data, parents=(a, b), backward_fn=bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        if _tracked(a):
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if _tracked(b):
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, parents=(a, b), backward_fn=bwd)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")

    def bwd(g):
        if _tracked(a):
            a.accumulate(g @ b.data.T)
        if _tracked(b):
            b.accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, parents=(a, b), backward_fn=bwd)


def relu(x) -> Tensor:
    x = _wrap(x)
    mask = x.data > 0  # subgradient at 0 is 0

    def bwd(g):
        if _tracked(x):
            x.accumulate(g * mask)

    return Tensor(np.where(mask, x.data, 0.0), parents=(x,), backward_fn=bwd)


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    s = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        if _tracked(x):
            x.accumulate(g * s * (1.0 - s))

    return Tensor(s, parents=(x,), backward_fn=bwd)


def tanh(x) -> Tensor:
    x = _wrap(x)
    t = np.tanh(x.data)

    def bwd(g):
        if _tracked(x):
            x.accumulate(g * (1.0 - t * t))

    return Tensor(t, parents=(x,), backward_fn=bwd)


def dropout(x, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Returns x itself at inference time. The mask is captured for the backward pass.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def bwd(g):
        if _tracked(x):
            x.accumulate(g * mask)

    return Tensor(x.data * mask, parents=(x,), backward_fn=bwd)


def linear(x, weight, bias) -> Tensor:
    """y = x @ W + b with W of shape (d_in, d_out)."""
    return add(matmul(x, weight), bias)


def gcn_conv(node_feats, norm_adj: np.ndarray, weight, bias) -> Tensor:
    """Graph convolution y = A_hat @ X @ W + b with a constant normalized adjacency."""
    return linear(matmul(Tensor(norm_adj), node_feats), weight, bias)


def dense_stack(x, norm_adj, layers) -> Tensor:
    """Dense layers h -> h @ W + b over x, (..., d_in), as one op, from (weight, bias,
    conv, relu) tuples of Tensors: a conv layer first takes h to norm_adj @ h, as
    gcn_conv does, and a relu layer ends in a ReLU. Forward and backward keep the
    linear/gcn_conv/relu tape's expressions and order, so on a 2-D x they equal it
    bit for bit; parameter gradients sum over all leading axes, and x gets one only
    if it is a tracked Tensor. Under no_grad nothing is kept."""
    x = _wrap(x)
    saved, h = [], x.data  # saved: each layer's GEMM input and ReLU mask (or None)
    for w, b, conv, relu in layers:
        inp = norm_adj @ h if conv else h
        h, mask = inp @ w.data + b.data, None
        if relu:
            mask = h > 0  # subgradient at 0 is 0
            h = np.where(mask, h, 0.0)
        saved.append((inp, mask))
    if not recording():
        return Tensor(h)

    def bwd(g):
        for i in reversed(range(len(layers))):
            (w, b, conv, _), (inp, mask) = layers[i], saved[i]
            if mask is not None:
                g = g * mask
            b.accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))
            w.accumulate(inp.reshape(-1, inp.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            if i or _tracked(x):
                g = g @ w.data.T
                if conv:
                    g = norm_adj.T @ g
        if _tracked(x):
            x.accumulate(g)

    return Tensor(h, parents=(x, *(t for w, b, _, _ in layers for t in (w, b))), backward_fn=bwd)


def global_mean_pool(node_feats) -> Tensor:
    """Columnwise mean over nodes: (W, d) -> (1, d); backward spreads grad by 1/W."""
    x = _wrap(node_feats)
    w = x.data.shape[0]

    def bwd(g):
        if _tracked(x):
            x.accumulate(np.broadcast_to(g / w, x.data.shape))

    return Tensor(x.data.mean(axis=0, keepdims=True), parents=(x,), backward_fn=bwd)


def gru_cell(x, h_prev, params: dict) -> Tensor:
    """One GRU step.

    z = sigma(x W_z + h U_z + b_z); r = sigma(x W_r + h U_r + b_r)
    n = tanh(x W_n + b_in + r * (h U_n + b_hn)); h' = (1 - z) * n + z * h
    params keys: w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_in, b_hn.
    """
    x, h_prev = _wrap(x), _wrap(h_prev)
    z = sigmoid(add(add(matmul(x, params["w_z"]), matmul(h_prev, params["u_z"])), params["b_z"]))
    r = sigmoid(add(add(matmul(x, params["w_r"]), matmul(h_prev, params["u_r"])), params["b_r"]))
    n = tanh(add(add(matmul(x, params["w_n"]), params["b_in"]),
                 mul(r, add(matmul(h_prev, params["u_n"]), params["b_hn"]))))
    one_minus_z = sub(Tensor(np.ones_like(z.data)), z)
    return add(mul(one_minus_z, n), mul(z, h_prev))


_GRU_KEYS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_in", "b_hn")


def gru_layer(x, params: dict) -> Tensor:
    """One GRU layer over a time-major (L, B, D) sequence from a zero state; returns
    the (L, B, H) hidden states as one op.

    Each step evaluates gru_cell's expressions in gru_cell's order, with per-gate
    GEMMs, so the values equal a stack of gru_cell steps bit for bit. Under
    no_grad nothing per step is kept. The backward runs BPTT in reverse t, then
    does the weight-gradient GEMMs for all L steps at once; it may run only once,
    as it overwrites the cached gate values.
    """
    x = _wrap(x)
    p = {k: _wrap(params[k]) for k in _GRU_KEYS}
    w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_in, b_hn = (p[k].data for k in _GRU_KEYS)
    length, batch, _ = x.data.shape
    d_h = u_z.shape[0]
    keep = recording()
    hs = np.empty((length, batch, d_h))
    # Gate values n, z, r and h U_n + b_hn per step; under no_grad only one step's.
    gates = np.empty((4, length if keep else 1, batch, d_h))
    h = np.zeros((batch, d_h))
    for t in range(length):
        xt = x.data[t]
        n, z, r, hn = gates[:, t if keep else 0]
        np.divide(1.0, 1.0 + np.exp(-(xt @ w_z + h @ u_z + b_z)), out=z)
        np.divide(1.0, 1.0 + np.exp(-(xt @ w_r + h @ u_r + b_r)), out=r)
        np.add(h @ u_n, b_hn, out=hn)
        np.tanh(xt @ w_n + b_in + r * hn, out=n)
        h = np.add((1.0 - z) * n, z * h, out=hs[t])
    if not keep:
        return Tensor(hs)

    def bwd(g):
        # BPTT overwrites each step's gate values with the gradients of a_n, a_z,
        # a_r (the pre-activations) and of h U_n + b_hn.
        dh = np.zeros((batch, d_h))
        for t in reversed(range(length)):
            dh += g[t]
            n, z, r, hn = gates[:, t]
            h_prev = hs[t - 1] if t else 0.0
            one_minus_z = 1.0 - z
            dh_next = dh * z
            np.multiply(dh * (h_prev - n), z * one_minus_z, out=z)
            np.multiply(dh * one_minus_z, 1.0 - n * n, out=n)
            da_r = n * hn * (r * (1.0 - r))
            np.multiply(n, r, out=hn)
            r[...] = da_r
            dh = dh_next + z @ u_z.T + r @ u_r.T + hn @ u_n.T
        d_n, d_z, d_r, d_hn = gates.reshape(4, length * batch, d_h)
        xs = x.data.reshape(length * batch, -1)
        hs_prev = hs[:-1].reshape(-1, d_h)  # h_{t-1} for t >= 1; h_0 = 0 adds nothing
        grads = {"w_n": xs.T @ d_n, "w_z": xs.T @ d_z, "w_r": xs.T @ d_r,
                 "u_z": hs_prev.T @ d_z[batch:], "u_r": hs_prev.T @ d_r[batch:],
                 "u_n": hs_prev.T @ d_hn[batch:],
                 "b_in": d_n.sum(axis=0), "b_z": d_z.sum(axis=0), "b_r": d_r.sum(axis=0),
                 "b_hn": d_hn.sum(axis=0)}
        for key, grad in grads.items():
            if _tracked(p[key]):
                p[key].accumulate(grad)
        if _tracked(x):
            x.accumulate((d_n @ w_n.T + d_z @ w_z.T + d_r @ w_r.T).reshape(x.data.shape))

    return Tensor(hs, parents=(x, *p.values()), backward_fn=bwd)


def take_step(seq, t: int) -> Tensor:
    """Step t of a time-major (L, ...) sequence; the backward fills only step t."""
    seq = _wrap(seq)

    def bwd(g):
        if _tracked(seq):
            full = np.zeros_like(seq.data)
            full[t] = g
            seq.accumulate(full)

    return Tensor(seq.data[t], parents=(seq,), backward_fn=bwd)


def mse_loss(pred, target) -> Tensor:
    """Mean of squared differences over all elements."""
    pred, target = _wrap(pred), _wrap(target)
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse shape mismatch: {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    n = diff.size

    def bwd(g):
        if _tracked(pred):
            pred.accumulate(g * 2.0 * diff / n)
        if _tracked(target):
            target.accumulate(-g * 2.0 * diff / n)

    return Tensor(np.array(np.mean(diff * diff)), parents=(pred, target), backward_fn=bwd)


def bce_loss(prob, label) -> Tensor:
    """Mean binary cross entropy; probabilities clamped to [eps, 1-eps]."""
    prob, label = _wrap(prob), _wrap(label)
    if prob.data.shape != label.data.shape:
        raise ValueError(f"bce shape mismatch: {prob.data.shape} vs {label.data.shape}")
    p = np.clip(prob.data, BCE_EPS, 1.0 - BCE_EPS)
    y = label.data
    n = p.size

    def bwd(g):
        if _tracked(prob):
            inside = (prob.data > BCE_EPS) & (prob.data < 1.0 - BCE_EPS)
            prob.accumulate(g * inside * (p - y) / (p * (1.0 - p)) / n)

    return Tensor(np.array(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))),
                  parents=(prob, label), backward_fn=bwd)
