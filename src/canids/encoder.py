"""Overcomplete-AE + graph-convolution encoder.

Trains on normal-only window graphs by node-feature reconstruction (MSE),
then embeds arbitrary graphs into 1x32 vectors via global mean pooling.
"""
from __future__ import annotations

import csv
import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .graph import WindowGraph, normalized_adjacency

log = logging.getLogger(__name__)

IN_DIM = 9
LATENT_DIM = 16
EMBED_DIM = 32
VAL_FRACTION = 0.1  # trailing share of the training graphs held out for validation


@dataclass
class EncoderConfig:
    epochs: int = 100
    lr: float = 1e-3
    patience: int = 20
    seed: int = 0
    grad_clip: float = 5.0  # 0 disables clipping


@dataclass(frozen=True)
class GraphEmbedding:
    """The pooled 1x32 representation of one window."""

    vector: np.ndarray  # shape (32,)
    window_index: int
    label: int


class EncoderModel(nn.Module):
    """AE encoder 9->16->16, three 32-wide graph convolutions, decoder 32->16->9."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        widths = [
            ("enc1", IN_DIM, LATENT_DIM),
            ("enc2", LATENT_DIM, LATENT_DIM),
            ("gcn1", LATENT_DIM, EMBED_DIM),
            ("gcn2", EMBED_DIM, EMBED_DIM),
            ("gcn3", EMBED_DIM, EMBED_DIM),
            ("dec1", EMBED_DIM, LATENT_DIM),
            ("dec2", LATENT_DIM, IN_DIM),
        ]
        super().__init__([(f"{name}_{kind}", nn.seeded_init(shape, d_in, rng))
                          for name, d_in, d_out in widths
                          for kind, shape in (("w", (d_in, d_out)), ("b", (d_out,)))])

    def encode(self, graph: WindowGraph) -> nn.Tensor:
        """Node embeddings (W,32): the AE encoder, then the three graph convolutions."""
        if graph.node_features.shape[1] != IN_DIM:
            raise ValueError(f"expected {IN_DIM}-wide node features, got {graph.node_features.shape[1]}")
        norm_adj = normalized_adjacency(graph.num_nodes)
        p = self.params
        h = nn.relu(nn.linear(nn.Tensor(graph.node_features), p["enc1_w"], p["enc1_b"]))
        h = nn.relu(nn.linear(h, p["enc2_w"], p["enc2_b"]))
        h = nn.relu(nn.gcn_conv(h, norm_adj, p["gcn1_w"], p["gcn1_b"]))
        h = nn.relu(nn.gcn_conv(h, norm_adj, p["gcn2_w"], p["gcn2_b"]))
        return nn.relu(nn.gcn_conv(h, norm_adj, p["gcn3_w"], p["gcn3_b"]))

    def forward(self, graph: WindowGraph):
        """Return (node_embeddings (W,32), reconstruction (W,9)), both differentiable."""
        node_emb = self.encode(graph)
        p = self.params
        d = nn.relu(nn.linear(node_emb, p["dec1_w"], p["dec1_b"]))
        recon = nn.linear(d, p["dec2_w"], p["dec2_b"])
        return node_emb, recon


def _reconstruction_loss(model: EncoderModel, graph: WindowGraph) -> nn.Tensor:
    _, recon = model.forward(graph)
    return nn.mse_loss(recon, nn.Tensor(graph.node_features))


def train_encoder(graphs, config: EncoderConfig = EncoderConfig()):
    """Train on normal-only graphs; returns (model, log of per-epoch losses).

    Keeps the parameters from the epoch with the lowest validation
    reconstruction loss; stops early after `patience` epochs without
    improvement.
    """
    if not graphs:
        raise ValueError("no graphs to train on")
    bad = [g.window_index for g in graphs if g.label != 0]
    if bad:
        raise ValueError(f"encoder training requires normal-only graphs; got attack windows {bad[:5]}")
    n_val = max(1, int(len(graphs) * VAL_FRACTION)) if len(graphs) > 1 else 0
    train_graphs = graphs[: len(graphs) - n_val] if n_val else list(graphs)
    val_graphs = graphs[len(graphs) - n_val :] if n_val else list(graphs)

    model = EncoderModel(seed=config.seed)
    history = []
    best_val = np.inf
    best_state = model.snapshot()
    best_epoch = -1
    for epoch in range(config.epochs):
        started = time.perf_counter()
        train_loss = 0.0
        for g in train_graphs:
            loss = _reconstruction_loss(model, g)
            loss.backward()
            if config.grad_clip > 0:
                nn.clip_global_norm(model, config.grad_clip)
            nn.adam_step(model, lr=config.lr)
            train_loss += loss.item()
        train_loss /= len(train_graphs)
        if not np.isfinite(train_loss):
            raise FloatingPointError(f"encoder training diverged at epoch {epoch}")
        with nn.no_grad():
            val_loss = float(np.mean([_reconstruction_loss(model, g).item() for g in val_graphs]))
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
        log.info("encoder epoch %d: train loss %.6g, val loss %.6g, %.2f s",
                 epoch, train_loss, val_loss, time.perf_counter() - started)
        if val_loss < best_val:
            best_val = val_loss
            best_state = model.snapshot()
            best_epoch = epoch
        elif epoch - best_epoch > config.patience:
            break
    model.load_state(best_state)
    return model, {"epochs_run": len(history), "best_epoch": best_epoch, "history": history}


def embed(model: EncoderModel, graph: WindowGraph) -> GraphEmbedding:
    """Pooled 1x32 embedding, recorded on no tape; the decoder does not run."""
    with nn.no_grad():
        pooled = nn.global_mean_pool(model.encode(graph))
    return GraphEmbedding(vector=pooled.data.reshape(EMBED_DIM),
                          window_index=graph.window_index, label=graph.label)


def write_embeddings_csv(embeddings, path) -> None:
    """Embedding export: one row per window (window_index, label, 32 values)."""
    with nn.atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window_index", "label"] + [f"e{i}" for i in range(EMBED_DIM)])
        for e in embeddings:
            w.writerow([e.window_index, e.label] + [repr(float(v)) for v in e.vector])


def read_embeddings_csv(path) -> list:
    """The embeddings that write_embeddings_csv wrote, values bit for bit."""
    with warnings.catch_warnings():  # a split with no windows leaves only the header
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [GraphEmbedding(vector=r[2:], window_index=int(r[0]), label=int(r[1])) for r in rows]
