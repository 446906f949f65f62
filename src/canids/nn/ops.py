"""Differentiable operations: linear, activations, dropout, graph conv, GRU cell,
pooling, and the MSE/BCE losses. All return Tensors recorded for backprop."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

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
    x = _wrap(node_feats)
    if norm_adj.shape[1] != x.data.shape[0]:
        raise ValueError(f"gcn_conv shape mismatch: adjacency {norm_adj.shape} vs features {x.data.shape}")
    return linear(matmul(Tensor(norm_adj), x), weight, bias)


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
