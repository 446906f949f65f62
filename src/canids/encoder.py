"""Overcomplete-AE + graph-convolution encoder.

Trains on normal-only window graphs by node-feature reconstruction (MSE), one
tapeless step per graph: nn.dense_forward, the MSE, then nn.dense_backward writing
the gradients into model.grad, bit for bit as the dense_stack tape of `forward`.
Then embeds arbitrary graphs into 1x32 vectors via global mean pooling, one graph at
a time (`embed`) or a split in node-major blocks of windows (`embed_graphs`).
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
EMBED_BLOCK = 16  # windows per forward in embed_graphs; 32 was no faster, with twice the arrays


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
        return nn.dense_stack(_features(graph.node_features), normalized_adjacency(graph.num_nodes), layers)

    def encode(self, graph: WindowGraph) -> nn.Tensor:
        """Node embeddings (W,32): the AE encoder, then the three graph convolutions."""
        return self._run(graph, self.layers[:ENCODE_LAYERS])

    def forward(self, graph: WindowGraph) -> nn.Tensor:
        """Reconstruction (W,9): encode, then the decoder, as one op."""
        return self._run(graph, self.layers)


def _features(x: np.ndarray) -> np.ndarray:
    if x.shape[1] != IN_DIM:
        raise ValueError(f"expected {IN_DIM}-wide node features, got {x.shape[1]}")
    return x


def _reconstruction_loss(model: EncoderModel, graph: WindowGraph, backward: bool = False) -> float:
    """The graph's reconstruction MSE, on no tape. With `backward`, the 14 gradients are
    written into their views of model.grad and marked, bit for bit as
    nn.mse_loss(model.forward(graph), ...).backward() would leave them."""
    x, norm_adj = _features(graph.node_features), normalized_adjacency(graph.num_nodes)
    h, saved = nn.dense_forward(x, norm_adj, model.layers)
    diff = h - x
    if backward:
        grads = [(w.grad_buffer, b.grad_buffer) for w, b, _, _ in model.layers]
        nn.dense_backward(2.0 * diff / diff.size, norm_adj, model.layers, saved, grads, False)
        for p in model.parameters():
            p.grad = p.grad_buffer
    return float((diff * diff).sum() / diff.size)  # np.mean's arithmetic, without its overhead


def train_encoder(graphs, config):
    """Train on normal-only graphs; returns (model, log of per-epoch losses).

    `config` is the PipelineConfig: the model starts from `encoder_seed`, and
    nn.fit reads the `encoder_*` settings. Each step is one graph's tapeless
    reconstruction loss and gradients. Keeps the parameters from the epoch with
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
        return ((_reconstruction_loss(model, g, backward=True), 1) for g in train_graphs)

    def validate():
        val_loss = float(np.mean([_reconstruction_loss(model, g) for g in val_graphs]))
        return -val_loss, val_loss

    return model, nn.fit(model, config, steps, validate, "encoder", ("val_loss", "val loss %.6g"))


def _pooled(model: EncoderModel, x: np.ndarray, num_nodes: int) -> np.ndarray:
    """The (M, 32) mean-pooled node embeddings of M graphs of num_nodes nodes each,
    held node-major in x, (num_nodes·M, 9): row n·M + m is node n of graph m. So each
    dense layer is one 2-D GEMM and each graph convolution one (W, W) @ (W, M·d) GEMM,
    and every row equals the graph's own forward at M = 1 bit for bit."""
    h, _ = nn.dense_forward(_features(x), normalized_adjacency(num_nodes), model.layers[:ENCODE_LAYERS])
    return h.reshape(num_nodes, -1, EMBED_DIM).mean(axis=0)


def embed(model: EncoderModel, graph: WindowGraph) -> GraphEmbedding:
    """Pooled 1x32 embedding, on no tape; the decoder does not run."""
    (vector,) = _pooled(model, graph.node_features, graph.num_nodes)
    return GraphEmbedding(vector=vector, window_index=graph.window_index, label=graph.label)


def embed_graphs(model: EncoderModel, graphs) -> list:
    """embed of each graph, bit for bit, with the graphs run EMBED_BLOCK at a time, each
    block stacked node-major (see _pooled). A block's graphs must have one node count."""
    out = []
    for start in range(0, len(graphs), EMBED_BLOCK):
        block = graphs[start : start + EMBED_BLOCK]
        num_nodes = block[0].num_nodes
        if any(g.num_nodes != num_nodes for g in block):
            raise ValueError(f"graphs of {sorted({g.num_nodes for g in block})} nodes in one embed block")
        x = np.stack([g.node_features for g in block], axis=1)
        pooled = _pooled(model, x.reshape(num_nodes * len(block), -1), num_nodes)
        out += [GraphEmbedding(vector=v, window_index=g.window_index, label=g.label)
                for v, g in zip(pooled, block)]
    return out


def write_embeddings_csv(embeddings, path) -> None:
    """Embedding export: one row per window (window_index, label, 32 values)."""
    nn.write_csv(path, ["window_index", "label"] + [f"e{i}" for i in range(EMBED_DIM)],
                 ([e.window_index, e.label, *e.vector.tolist()] for e in embeddings))


def read_embeddings_csv(path) -> list:
    """The embeddings that write_embeddings_csv wrote, values bit for bit."""
    return [GraphEmbedding(vector=r[2:], window_index=int(r[0]), label=int(r[1]))
            for r in nn.read_csv(path)]
