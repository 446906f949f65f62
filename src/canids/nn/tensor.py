"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

A Tensor keeps a float32 array's dtype and holds anything else as float64, so an op
computes in its input's dtype; Parameters are float64.

Every op records its parents and a backward closure, except under no_grad();
Tensor.backward() walks the recorded graph in reverse topological order and
frees it as it goes. Single-threaded by design.
"""
from __future__ import annotations

import contextlib

import numpy as np

_recording = True


@contextlib.contextmanager
def no_grad():
    """Inside the block, new Tensors record no parents or backward closure, so
    inference keeps no graph alive. Recording resumes when the block exits."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def recording() -> bool:
    """Whether new Tensors record their parents (False inside no_grad)."""
    return _recording


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        float32 = isinstance(data, np.ndarray) and data.dtype == np.float32
        self.data = data if float32 else np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = parents if _recording else ()
        self.backward_fn = backward_fn if _recording else None

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the recorded graph, freeing
        it: once a non-leaf node has passed its gradient on, it drops its parents,
        backward closure and gradient. Leaves keep their gradient."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward_fn is None:
                continue
            if node.grad is not None:
                node.backward_fn(node.grad)
            node.parents, node.backward_fn, node.grad = (), None, None

    def accumulate(self, g: np.ndarray) -> None:
        """Add g to the gradient. The first g is kept uncopied, so an op hands over an
        array it no longer uses and never writes into a gradient it receives (the
        same array may be another tensor's gradient too)."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def item(self) -> float:
        return float(self.data)


class Parameter(Tensor):
    """Trainable named tensor. Its gradient accumulates in place in `grad_buffer`
    (a view of its Module's flat gradient, or its own array); `grad` is None
    until backward reaches it, then it is that buffer."""

    __slots__ = ("name", "grad_buffer")

    def __init__(self, data, name: str, grad_buffer=None):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad_buffer = np.zeros_like(self.data) if grad_buffer is None else grad_buffer

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = self.grad_buffer
            self.grad[...] = g
        else:
            self.grad += g


def seeded_init(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init on [-1/sqrt(fan_in), +1/sqrt(fan_in)]; deterministic per rng state."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
