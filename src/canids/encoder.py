"""Overcomplete-AE + graph-convolution encoder.

Trains on normal-only window graphs by node-feature reconstruction (MSE),
then embeds arbitrary graphs into 1x32 vectors via global mean pooling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .graph import WindowGraph, normalized_adjacency


IN_DIM = 9
LATENT_DIM = 16
EMBED_DIM = 32
VAL_FRACTION = 0.1  # trailing share of the training graphs held out for validation


@dataclass(frozen=True)
class GraphEmbedding:
    """The pooled 1x32 representation of one window."""

    vector: np.ndarray  # shape (32,)
    window_index: int
    label: int


# (name, d_in, d_out, graph convolution first, ReLU after); the first five encode
LAYERS = (("enc1", IN_DIM, LATENT_DIM, False, True), ("enc2", LATENT_DIM, LATENT_DIM, False, True),
          ("gcn1", LATENT_DIM, EMBED_DIM, True, True), ("gcn2", EMBED_DIM, EMBED_DIM, True, True),
          ("gcn3", EMBED_DIM, EMBED_DIM, True, True), ("dec1", EMBED_DIM, LATENT_DIM, False, True),
          ("dec2", LATENT_DIM, IN_DIM, False, False))
ENCODE_LAYERS = 5


class EncoderModel(nn.Module):
    """AE encoder 9->16->16, three 32-wide graph convolutions, decoder 32->16->9."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__([(f"{name}_{kind}", nn.seeded_init(shape, d_in, rng))
                          for name, d_in, d_out, _, _ in LAYERS
                          for kind, shape in (("w", (d_in, d_out)), ("b", (d_out,)))])
        self.layers = [(self.params[f"{name}_w"], self.params[f"{name}_b"], conv, relu)
                       for name, _, _, conv, relu in LAYERS]

    def _run(self, graph: WindowGraph, layers) -> nn.Tensor:
        if graph.node_features.shape[1] != IN_DIM:
            raise ValueError(f"expected {IN_DIM}-wide node features, got {graph.node_features.shape[1]}")
        return nn.dense_stack(graph.node_features, normalized_adjacency(graph.num_nodes), layers)

    def encode(self, graph: WindowGraph) -> nn.Tensor:
        """Node embeddings (W,32): the AE encoder, then the three graph convolutions."""
        return self._run(graph, self.layers[:ENCODE_LAYERS])

    def forward(self, graph: WindowGraph) -> nn.Tensor:
        """Reconstruction (W,9): encode, then the decoder, as one op."""
        return self._run(graph, self.layers)


def _reconstruction_loss(model: EncoderModel, graph: WindowGraph) -> nn.Tensor:
    return nn.mse_loss(model.forward(graph), nn.Tensor(graph.node_features))


def train_encoder(graphs, config):
    """Train on normal-only graphs; returns (model, log of per-epoch losses).

    `config` is the PipelineConfig: the model starts from `encoder_seed`, and
    nn.fit reads the `encoder_*` settings. Keeps the parameters from the epoch with
    the lowest validation reconstruction loss; stops early by nn.fit's patience rule.
    """
    if not graphs:
        raise ValueError("no normal window graphs to train the encoder on")
    bad = [g.window_index for g in graphs if g.label != 0]
    if bad:
        raise ValueError(f"encoder training requires normal-only graphs; got attack windows {bad[:5]}")
    n_val = max(1, int(len(graphs) * VAL_FRACTION)) if len(graphs) > 1 else 0
    train_graphs = graphs[: len(graphs) - n_val] if n_val else list(graphs)
    val_graphs = graphs[len(graphs) - n_val :] if n_val else list(graphs)

    model = EncoderModel(seed=config.encoder_seed)

    def steps():
        return ((_reconstruction_loss(model, g), 1) for g in train_graphs)

    def validate():
        val_loss = float(np.mean([_reconstruction_loss(model, g).item() for g in val_graphs]))
        return -val_loss, val_loss

    return model, nn.fit(model, config, steps, validate, "encoder", ("val_loss", "val loss %.6g"))


def embed(model: EncoderModel, graph: WindowGraph) -> GraphEmbedding:
    """Pooled 1x32 embedding, recorded on no tape; the decoder does not run."""
    with nn.no_grad():
        pooled = model.encode(graph).data.mean(axis=0)
    return GraphEmbedding(vector=pooled, window_index=graph.window_index, label=graph.label)


def write_embeddings_csv(embeddings, path) -> None:
    """Embedding export: one row per window (window_index, label, 32 values)."""
    nn.write_csv(path, ["window_index", "label"] + [f"e{i}" for i in range(EMBED_DIM)],
                 ([e.window_index, e.label, *e.vector.tolist()] for e in embeddings))


def read_embeddings_csv(path) -> list:
    """The embeddings that write_embeddings_csv wrote, values bit for bit."""
    return [GraphEmbedding(vector=r[2:], window_index=int(r[0]), label=int(r[1]))
            for r in nn.read_csv(path)]
