"""Models whose parameters, gradients and Adam moments live in flat vectors."""
from __future__ import annotations

import numpy as np

from .. import nn  # save/load resolve checkpoint I/O on the package, where perfbench traces it
from .tensor import Parameter


class Module:
    """Parameters from ordered (name, initial array) pairs, each a view of the flat
    `data` vector with its gradient a view of `grad`. Adam's `adam_m`/`adam_v` share
    that layout and one step counter `adam_t`. `params` keeps the given order,
    which is also the checkpoint record order."""

    def __init__(self, named_arrays):
        arrays = [(name, np.asarray(a, dtype=np.float64)) for name, a in named_arrays]
        total = sum(a.size for _, a in arrays)
        self.data = np.empty(total)
        self.grad = np.zeros(total)
        self.adam_m = np.zeros(total)
        self.adam_v = np.zeros(total)
        self.adam_t = 0
        self.params = {}
        start = 0
        for name, a in arrays:
            stop = start + a.size
            self.data[start:stop] = a.ravel()
            self.params[name] = Parameter(self.data[start:stop].reshape(a.shape), name,
                                          self.grad[start:stop].reshape(a.shape))
            start = stop

    def parameters(self) -> list:
        return list(self.params.values())

    def save(self, path) -> None:
        nn.save_checkpoint(self.parameters(), path)

    def load(self, path) -> Module:
        nn.restore_parameters(self.parameters(), path)
        return self
