"""Adam, global-norm gradient clipping and the epoch loop both models train through."""
from __future__ import annotations

import time

import numpy as np

from .. import nn  # fit steps through the package, where perfbench traces adam_step and clipping

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def clip_global_norm(model, max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm.

    The norm adds one partial sum per parameter, in parameter order.
    """
    sq, total, start = model.grad * model.grad, 0.0, 0
    for p in model.parameters():
        if p.grad is not None:
            total += float(np.add.reduce(sq[start:start + p.data.size]))
        start += p.data.size
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        model.grad *= max_norm / norm
    return norm


def adam_step(model, lr: float = 1e-3) -> None:
    """Bias-corrected Adam update, moments in place; counts the step and clears gradients."""
    for p in model.parameters():
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        p.grad = None  # the values stay in model.grad
    model.adam_t += 1
    g, m, v = model.grad, model.adam_m, model.adam_v
    m *= BETA1
    m += (1.0 - BETA1) * g
    sq = g * g
    sq *= 1.0 - BETA2
    v *= BETA2
    v += sq
    m_hat = m / (1.0 - BETA1 ** model.adam_t)
    m_hat *= lr
    m_hat /= np.sqrt(v / (1.0 - BETA2 ** model.adam_t)) + EPS
    model.data -= m_hat


def fit(model, config, steps, validate, log, name: str, metric: tuple) -> dict:
    """Train `model` for up to `config.epochs` epochs and return its training record.

    Each epoch takes one Adam step at `config.lr` per (loss, weight) pair `steps()`
    yields, clipping the gradients' global norm to `config.grad_clip` when it is > 0.
    A non-finite step loss, or train loss (the weighted mean), raises FloatingPointError.
    `validate()` runs on no tape and returns (score, value); `value` goes to the
    history under `metric[0]` and to the INFO line as `metric[1] % value`. The best
    epoch is the first with the highest score. Training stops after the first epoch
    more than `config.patience` epochs past it, so up to patience + 1 epochs without
    improvement can run; the parameters saved after it are then restored.
    """
    column, shown = metric
    history = []
    best_score, best_epoch, best_state = -np.inf, -1, model.snapshot()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        total, weights = 0.0, 0
        with np.errstate(over="ignore", invalid="ignore"):  # the loss check reports them
            for loss, weight in steps():
                step_loss = loss.item()
                if not np.isfinite(step_loss):  # stop before an Adam step on it
                    raise FloatingPointError(f"{name} training diverged at epoch {epoch}")
                loss.backward()
                if config.grad_clip > 0:
                    nn.clip_global_norm(model, config.grad_clip)
                nn.adam_step(model, lr=config.lr)
                total += step_loss * weight
                weights += weight
        train_loss = total / weights
        if not np.isfinite(train_loss):  # a sum of finite losses can still overflow
            raise FloatingPointError(f"{name} training diverged at epoch {epoch}")
        with nn.no_grad():
            score, value = validate()
        history.append({"epoch": epoch, "train_loss": train_loss, column: value})
        log.info(f"%s epoch %d: train loss %.6g, {shown}, %.2f s",
                 name, epoch, train_loss, value, time.perf_counter() - started)
        if score > best_score:
            best_score, best_epoch, best_state = score, epoch, model.snapshot()
        elif epoch - best_epoch > config.patience:
            break
    model.load_state(best_state)
    return {"epochs_run": len(history), "best_epoch": best_epoch, "history": history}
