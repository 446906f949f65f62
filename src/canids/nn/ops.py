"""Differentiable operations: dense layers, dropout, the GRU, the MSE/BCE losses and
the elementwise ops a GRU step is built from. Each op returns a Tensor recorded for
backprop; `dense_forward` and `dense_backward`, dense_stack's two halves, are plain
array functions. Each op computes in its input's dtype, float32 or float64: the GRU
casts its float64 weights once per call, and `dense_stack` promotes a float32 input to
its float64 weights exactly.

Both models' dense layers run as those two halves: the detector's head through the
`dense_stack` op, and the encoder's training step and embeddings by calling them
itself, on no tape. The GRU is one op, `gru_stack`, over one time loop, `_gru_steps`,
a wavefront over a stack of layers. Under no_grad it runs the loop once for the whole
stack and keeps no gates; on a tape each layer is one recorded op that keeps the gates
its hand-written BPTT reads.

No model path calls `gru_cell`, one GRU step, or `gcn_conv`, one graph convolution:
they are the oracles that `gru_stack` and `dense_stack` are tested against value for
value. They stay here, with `add`, `sub`, `mul`, `matmul`, `tanh` and `linear` that they
are built from, because perfbench's tracer patches `gru_cell` and `gcn_conv` by name.
The tests' other oracles, `relu`, `global_mean_pool` and `astype`, are in
tests/gradcheck.py.
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


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    with np.errstate(over="ignore"):  # exp(-x) = inf gives 0, the rounded value
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


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Returns x itself when p is 0. The mask, float64 draws cast to x's dtype, is
    captured for the backward pass.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = ((rng.random(x.data.shape) >= p) / (1.0 - p)).astype(x.data.dtype, copy=False)

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


def _convolve(norm_adj: np.ndarray, h: np.ndarray) -> np.ndarray:
    """norm_adj @ h over h's node-major rows: row n·M + m of a 2-D h, or h[n, m] of a
    3-D one, is node n of graph m, so each of the M graphs is convolved by one
    (W, W) @ (W, M·d) GEMM. At M = 1 it is norm_adj @ h itself."""
    return (norm_adj @ h.reshape(len(norm_adj), -1)).reshape(h.shape)


def dense_forward(x: np.ndarray, norm_adj, layers):
    """dense_stack's forward on an array x: (h, saved), where saved holds each layer's
    GEMM input and ReLU mask (or None) for dense_backward."""
    saved, h = [], x
    for w, b, conv, relu in layers:
        inp = _convolve(norm_adj, h) if conv else h
        h, mask = inp @ w.data, None
        h += b.data
        if relu:
            mask = h > 0  # subgradient at 0 is 0
            h = np.where(mask, h, 0.0)
        saved.append((inp, mask))
    return h, saved


def dense_backward(g: np.ndarray, norm_adj, layers, saved, grads, input_grad: bool):
    """dense_forward's backward from its output's gradient g, over what it saved. Each
    layer's bias and then weight gradient, summed over all leading axes, is written
    into that layer's (weight, bias) pair of arrays in `grads`, last layer first.
    Returns x's gradient if input_grad, else None, skipping its GEMMs."""
    for i in reversed(range(len(layers))):
        (w, _, conv, _), (inp, mask), (w_out, b_out) = layers[i], saved[i], grads[i]
        if mask is not None:
            g = g * mask
        rows = g.reshape(-1, g.shape[-1])
        rows.sum(axis=0, out=b_out)
        np.matmul(inp.reshape(-1, inp.shape[-1]).T, rows, out=w_out)
        if i or input_grad:
            g = g @ w.data.T
            if conv:
                g = _convolve(norm_adj.T, g)
    return g if input_grad else None


def dense_stack(x, norm_adj, layers) -> Tensor:
    """Dense layers h -> h @ W + b over x, (..., d_in), as one op, from (weight, bias,
    conv, relu) tuples of Tensors: a conv layer first takes h to norm_adj @ h over
    h's node-major rows (see _convolve), as gcn_conv does on one graph, and a relu
    layer ends in a ReLU. Forward and backward keep the expressions and order of a
    tape of linear or gcn_conv and ReLU ops, so on a 2-D x they equal it bit for bit;
    parameter gradients sum over all leading axes, and x gets one only if it is a
    tracked Tensor. A float32 x under float64 weights is promoted exactly by the first
    GEMM, and its gradient is handed back in float64, for the op that made x to round
    into x's dtype. Under no_grad nothing is kept. The op is dense_forward, then on a
    tape dense_backward, whose gradients each parameter accumulates."""
    x = _wrap(x)
    h, saved = dense_forward(x.data, norm_adj, layers)
    if not recording():
        return Tensor(h)

    def bwd(g):
        grads = [(np.empty(w.data.shape), np.empty(b.data.shape)) for w, b, _, _ in layers]
        gx = dense_backward(g, norm_adj, layers, saved, grads, _tracked(x))
        for (w, b, _, _), (w_grad, b_grad) in zip(layers, grads):
            w.accumulate(w_grad)
            b.accumulate(b_grad)
        if gx is not None:
            x.accumulate(gx)

    return Tensor(h, parents=(x, *(t for w, b, _, _ in layers for t in (w, b))), backward_fn=bwd)


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


def _gru_steps(x: np.ndarray, layers, gates=None) -> np.ndarray:
    """The GRU time loop: layers over a time-major (L, B, D) array x, each fed the
    states of the one below, all from zero states; returns the (L + 1, B, H) states,
    row 0 the zero state and rows 1: the top layer's. A wavefront: iteration k runs
    layer j at step k - j, with gru_cell's expressions in its order over the active
    layers' stacked (..., m, B, H) arrays, so the bits equal a stack of gru_cell
    steps. Rows run top layer first; layer j's state after step t sits in hs[t + 1]
    until layer j + 1 has read it. Given a (4, L, B, H) buffer for a single layer,
    each step's n, z, r and h U_n + b_hn are written into it. It computes in x's
    dtype, the weights cast to it as they are stacked.
    """
    length, batch, _ = x.shape
    n, d_h, top_first = len(layers), layers[0]["u_z"].shape[0], layers[::-1]

    def stacked(keys, of=top_first):
        return np.array([[_wrap(p[k]).data for k in keys] for p in of], dtype=x.dtype)

    (w0,), u = stacked(("w_z", "w_r", "w_n"), layers[:1]), stacked(("u_z", "u_r", "u_n"))
    w_in = stacked(("w_z", "w_r", "w_n"), top_first[:-1])
    bias = np.repeat(stacked(("b_z", "b_r", "b_in", "b_hn")).transpose(1, 0, 2)[:, :, None], batch, 2)
    hs = np.zeros((length + 1, batch, d_h), x.dtype)
    gates_in, gates_rec = np.empty((2, 3, n, batch, d_h), x.dtype)  # x W and h U per gate
    # within nn.optim.PARAMETER_BOUND only exp(-zr) can overflow, and its inf gives a gate
    # of 0, the rounded value
    with np.errstate(over="ignore"):
        for k in range(length + n - 1):
            lo, hi = max(0, k - length + 1), min(n - 1, k)  # the active layers, in rows a:b
            a, b = n - 1 - hi, n - lo
            h, h_below = hs[k - hi : k - lo + 1], hs[k - hi + 1 : k - lo + 2]
            inp, rec = gates_in[:, a:b], gates_rec[:, a:b]
            if above := min(b, n - 1) - a:  # active layers above layer 0 read h_below
                np.matmul(h_below[:above, None], w_in[a : a + above],
                          out=inp[:, :above].transpose(1, 0, 2, 3))
            if not lo:
                np.matmul(x[k], w0, out=inp[:, -1])
            np.matmul(h[:, None], u[a:b], out=rec.transpose(1, 0, 2, 3))
            # the outputs of (z, r), h U_n + b_hn and n: new arrays, or the step's kept gates
            kept = ((None,) * 3 if gates is None
                    else (gates[1:3, k, None], gates[3, k, None], gates[0, k, None]))
            zr = np.add(inp[:2], rec[:2], out=kept[0])
            zr += bias[:2, a:b]
            np.divide(1.0, 1.0 + np.exp(-zr), out=zr)
            hn = np.add(rec[2], bias[3, a:b], out=kept[1])
            n_gate = np.tanh(inp[2] + bias[2, a:b] + zr[1] * hn, out=kept[2])
            np.add((1.0 - zr[0]) * n_gate, zr[0] * h, out=h_below)
    return hs


# Timesteps per weight-gradient GEMM. OpenBLAS sums a GEMM over K = L·B rows in an
# order that can depend on its thread count (K = 1450 and 2150 did), so _gru_layer sums
# blocks of this many steps, the blocks added in ascending order. In GEMM probes, blocks
# of 5 steps gave the same bits at 1 and 2 threads for B = 29, 43 and 64, and blocks of 10
# did not at B = 43. tests/test_detector.py's
# test_checkpoint_bytes_do_not_depend_on_the_blas_threads holds training to it, at
# batches of 64 and 256 with last batches of 29 and 43 rows; one GEMM over all rows fails it.
GRAD_BLOCK = 5


def _time_summed_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over t of a[t].T @ b[t], for time-major (T, B, m) and (T, B, k) arrays:
    one GEMM per GRAD_BLOCK steps, the blocks added in ascending order."""
    total = np.zeros((a.shape[-1], b.shape[-1]), a.dtype)
    for s in range(0, len(a), GRAD_BLOCK):
        block_a, block_b = a[s : s + GRAD_BLOCK], b[s : s + GRAD_BLOCK]
        total += block_a.reshape(-1, a.shape[-1]).T @ block_b.reshape(-1, b.shape[-1])
    return total


def _gru_layer(x, params: dict) -> Tensor:
    """gru_stack's recorded op for one layer: _gru_steps over it, keeping every step's
    gates, in x's dtype, the weights cast to it once. The backward runs BPTT in reverse
    t, then the weight-gradient GEMMs over blocks of GRAD_BLOCK steps; it may run only
    once, as it overwrites the kept gates. The gradients go to the weights in x's dtype."""
    x = _wrap(x)
    p = {k: _wrap(params[k]) for k in _GRU_KEYS}
    dtype = x.data.dtype
    cast = {k: t.data.astype(dtype, copy=False) for k, t in p.items()}
    w_z, u_z, w_r, u_r, w_n, u_n = (cast[k] for k in ("w_z", "u_z", "w_r", "u_r", "w_n", "u_n"))
    (length, batch, _), d_h = x.data.shape, u_z.shape[0]
    gates = np.empty((4, length, batch, d_h), dtype)  # n, z, r and h U_n + b_hn per step
    hs = _gru_steps(x.data, [cast], gates)

    def bwd(g):
        # BPTT overwrites each step's gates with the gradients of a_n, a_z, a_r and h U_n + b_hn
        dh = np.zeros((batch, d_h), dtype)
        for t in reversed(range(length)):
            dh += g[t]
            n, z, r, hn = gates[:, t]
            one_minus_z = 1.0 - z
            dh_next = dh * z
            np.multiply(dh * (hs[t] - n), z * one_minus_z, out=z)
            np.multiply(dh * one_minus_z, 1.0 - n * n, out=n)
            da_r = n * hn * (r * (1.0 - r))
            np.multiply(n, r, out=hn)
            r[...] = da_r
            dh = dh_next + z @ u_z.T + r @ u_r.T + hn @ u_n.T
        (d_n, d_z, d_r, d_hn), hs_prev = gates, hs[1:-1]  # h_{t-1} for t >= 1; h_0 = 0 adds nothing
        grads = {"w_n": _time_summed_gemm(x.data, d_n), "w_z": _time_summed_gemm(x.data, d_z),
                 "w_r": _time_summed_gemm(x.data, d_r), "u_z": _time_summed_gemm(hs_prev, d_z[1:]),
                 "u_r": _time_summed_gemm(hs_prev, d_r[1:]), "u_n": _time_summed_gemm(hs_prev, d_hn[1:])}
        d_n, d_z, d_r, d_hn = gates.reshape(4, length * batch, d_h)
        grads |= {"b_in": d_n.sum(axis=0), "b_z": d_z.sum(axis=0), "b_r": d_r.sum(axis=0),
                  "b_hn": d_hn.sum(axis=0)}
        for key, grad in grads.items():
            if _tracked(p[key]):
                p[key].accumulate(grad)
        if _tracked(x):
            x.accumulate((d_n @ w_n.T + d_z @ w_z.T + d_r @ w_r.T).reshape(x.data.shape))

    return Tensor(hs[1:], parents=(x, *p.values()), backward_fn=bwd)


def gru_stack(x, layers) -> Tensor:
    """The top layer's (L, B, H) states from GRU layers over a time-major (L, B, D)
    sequence, each fed the states of the one below, all from zero states, equal to a
    gru_cell stack's bit for bit. Under no_grad it is _gru_steps over all the layers
    at once, keeping no gates; on a tape, one recorded op per layer keeps its gates."""
    if not recording():
        return Tensor(_gru_steps(_wrap(x).data, layers)[1:])
    for params in layers:
        x = _gru_layer(x, params)
    return _wrap(x)


def take_step(seq, t: int) -> Tensor:
    """Step t of a time-major (L, ...) sequence; the backward fills only step t, in
    seq's dtype, so a float64 gradient for a float32 seq is rounded to nearest once."""
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
