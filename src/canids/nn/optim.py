"""Adam with optional global-norm gradient clipping, over a Module's flat vectors."""
from __future__ import annotations

import numpy as np


def clip_global_norm(model, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm.

    The norm adds one partial sum per parameter, in parameter order.
    """
    total = 0.0
    for p in model.parameters():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        model.grad *= max_norm / norm
    return norm


def adam_step(model, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam update; increments the step counter and clears gradients."""
    for p in model.parameters():
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        p.grad = None  # the values stay in model.grad
    model.adam_t += 1
    g = model.grad
    model.adam_m = beta1 * model.adam_m + (1.0 - beta1) * g
    model.adam_v = beta2 * model.adam_v + (1.0 - beta2) * (g * g)
    m_hat = model.adam_m / (1.0 - beta1 ** model.adam_t)
    v_hat = model.adam_v / (1.0 - beta2 ** model.adam_t)
    model.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
