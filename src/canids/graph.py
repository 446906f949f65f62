"""Order-preserving window graphs: a path over the window's frames, 9-dim node features."""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .frames import MAX_DLC, Window


class ByteMode(enum.Enum):
    BINARIZED = "binarized"
    NORMALIZED = "normalized"


@dataclass
class WindowGraph:
    """Path graph over a window's frames; its topology is fixed by the node count.

    node_features: (W, 9) array, column 0 = dlc_norm, columns 1..8 = byte features.
    """

    node_features: np.ndarray
    label: int
    window_index: int

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]


def build_graph(window: Window, byte_mode: ByteMode = ByteMode.BINARIZED) -> WindowGraph:
    """Turn a window into a path graph whose node i carries frame i's features."""
    w = window.size
    if w < 2:
        raise ValueError(f"window must hold at least 2 frames to form a path, got {w}")
    t = window.frames
    payload = t.payload > 0 if byte_mode is ByteMode.BINARIZED else t.payload / 255.0
    feats = np.column_stack((t.dlc / MAX_DLC, payload))
    return WindowGraph(node_features=feats, label=window.label, window_index=window.index)


@functools.lru_cache(maxsize=None)
def normalized_adjacency(w: int) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self-loops of the w-node path.

    A_hat = D^(-1/2) (A + A^T + I) D^(-1/2), where A holds the path edges
    (i, i+1) and D is the row-degree diagonal of the symmetrized, self-looped
    adjacency. Self-loops guarantee degree >= 1. The result is shared per w and
    read-only.
    """
    a = np.eye(w, k=1)
    a_sym = np.minimum(a + a.T + np.eye(w), 1.0)
    deg = a_sym.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(deg)
    out = a_sym * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    out.flags.writeable = False
    return out
