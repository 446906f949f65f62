"""GRU anomaly detector over embedding sequences.

Sequences are sliding runs of L window embeddings. A 2-layer GRU (hidden 64,
inter-layer dropout 0.3) with a 64->32->1 sigmoid head scores each timestep;
the final timestep's score is the sequence probability. Window-level scores
aggregate each window's per-occurrence probabilities by mean or max.

The GRU is `nn.gru_stack`: at inference one call for both layers, in training one
call per layer with the dropout between them (see `nn.ops`). The head is one
`nn.dense_stack` op. Training runs the head on the final timestep only, since the
loss reads nothing else; inference runs it once over all timesteps.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .analysis import MetricBlock, compute_metrics
from .encoder import EMBED_DIM


HIDDEN_DIM = 64
HEAD_DIM = 32
DROPOUT_P = 0.3
VIEWS = ("sequence", "mean", "max")
# The GRU layers and dropout of a training step compute in this dtype, over float64
# master weights (see README, "Model state").
TRAIN_DTYPE = np.float32


@dataclass
class DetectionReport:
    threshold: float
    sequence_rows: list    # (start_index, prob, decision, label)
    mean_rows: list        # (window_index, score, decision, label)
    max_rows: list
    metrics: dict          # view name -> MetricBlock

    @classmethod
    def from_rows(cls, threshold: float, sequence_rows, mean_rows, max_rows) -> DetectionReport:
        """The report whose metrics are computed from its rows, view by view."""
        metrics = {view: compute_metrics([r[2] for r in rs], [r[3] for r in rs], [r[1] for r in rs])
                   for view, rs in zip(VIEWS, (sequence_rows, mean_rows, max_rows))}
        return cls(threshold, sequence_rows, mean_rows, max_rows, metrics)

    def view_rows(self, view: str) -> list:
        return {"sequence": self.sequence_rows, "mean": self.mean_rows, "max": self.max_rows}[view]


def make_sequences(embeddings, length: int):
    """Stride-1 sliding sequences S_n = [h_n, ..., h_{n+L-1}] with any-attack labels,
    as (vectors, labels): a read-only (S, L, 32) view of the stacked embeddings,
    S = M - L + 1, whose row n starts at embeddings[n], and int64 (S,) labels."""
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    m = len(embeddings)
    if length > m:
        raise ValueError(f"sequence length {length} exceeds window count {m}")
    if np.any(np.diff([e.window_index for e in embeddings]) != 1):
        raise ValueError("embeddings must have consecutive window indices")
    stacked = np.stack([e.vector for e in embeddings])
    vectors = sliding_window_view(stacked, length, axis=0).transpose(0, 2, 1)
    attack = np.array([e.label == 1 for e in embeddings])
    labels = sliding_window_view(attack, length).any(axis=1).astype(np.int64)
    return vectors, labels


def _gru_arrays(prefix: str, d_in: int, d_h: int, rng) -> list:
    shapes = {"w_z": (d_in, d_h), "u_z": (d_h, d_h), "b_z": (d_h,),
              "w_r": (d_in, d_h), "u_r": (d_h, d_h), "b_r": (d_h,),
              "w_n": (d_in, d_h), "u_n": (d_h, d_h), "b_in": (d_h,), "b_hn": (d_h,)}
    return [(f"{prefix}_{key}", nn.seeded_init(shape, shape[0] if len(shape) > 1 else d_h, rng))
            for key, shape in shapes.items()]


class DetectorModel(nn.Module):
    def __init__(self, seed: int = 0, dropout_p: float = DROPOUT_P):
        rng = np.random.default_rng(seed)
        named = _gru_arrays("gru1", EMBED_DIM, HIDDEN_DIM, rng)
        named += _gru_arrays("gru2", HIDDEN_DIM, HIDDEN_DIM, rng)
        named += [("fc1_w", nn.seeded_init((HIDDEN_DIM, HEAD_DIM), HIDDEN_DIM, rng)),
                  ("fc1_b", nn.seeded_init((HEAD_DIM,), HIDDEN_DIM, rng)),
                  ("fc2_w", nn.seeded_init((HEAD_DIM, 1), HEAD_DIM, rng)),
                  ("fc2_b", nn.seeded_init((1,), HEAD_DIM, rng))]
        super().__init__(named)
        self.gru1 = {n[5:]: p for n, p in self.params.items() if n.startswith("gru1_")}
        self.gru2 = {n[5:]: p for n, p in self.params.items() if n.startswith("gru2_")}
        self.head = [(self.params[f"fc{i}_w"], self.params[f"fc{i}_b"], False, i == 1) for i in (1, 2)]
        self.dropout_p = dropout_p

    def forward_batch(self, x: np.ndarray, training: bool = False, rng=None):
        """Run the GRU stack over a (B, L, 32) batch.

        Returns the head's output as one Tensor: (L, B, 1), every timestep's
        probability, or in training (B, 1), the final step's only, which is all the
        loss reads. The sequence probabilities are the final step's. In training the
        GRU layers and dropout compute in TRAIN_DTYPE, and the head's float64 weights
        promote the final step to float64 (see nn.dense_stack).
        """
        if x.ndim != 3 or x.shape[2] != EMBED_DIM:
            raise ValueError(f"expected (B, L, {EMBED_DIM}) input, got {x.shape}")
        if training and self.dropout_p > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        if not training:
            x = nn.Tensor(x.transpose(1, 0, 2))
            return nn.sigmoid(nn.dense_stack(nn.gru_stack(x, [self.gru1, self.gru2]), None, self.head))
        x = nn.Tensor(x.transpose(1, 0, 2).astype(TRAIN_DTYPE, order="C"))
        h1 = nn.gru_stack(x, [self.gru1])
        h2 = nn.gru_stack(nn.dropout(h1, self.dropout_p, rng), [self.gru2])
        return nn.sigmoid(nn.dense_stack(nn.take_step(h2, -1), None, self.head))


def train_detector(model: DetectorModel, train_seqs, val_seqs, config):
    """Minimize sequence-level BCE; keep the epoch with best validation F1 at 0.5.

    `train_seqs` and `val_seqs` are (vectors, labels) pairs from make_sequences.
    `config` is the PipelineConfig: batches of `detector_batch` are drawn, and dropout
    sampled, from `detector_seed`, and nn.fit reads the `detector_*` settings.
    Window-level probabilities carry no loss. Raises on a single-class training set,
    where BCE evaluation is degenerate.
    """
    x_train, train_labels = train_seqs
    x_val, y_val = val_seqs
    labels = set(np.unique(train_labels).tolist())
    if labels != {0, 1}:
        raise ValueError(f"training set must contain both classes, got labels {sorted(labels)}")
    rng = np.random.default_rng(config.detector_seed)
    y_train = train_labels[:, None].astype(np.float64)

    n = len(x_train)

    def steps():
        order = rng.permutation(n)
        for start in range(0, n, config.detector_batch):
            idx = order[start : start + config.detector_batch]
            seq_probs = model.forward_batch(x_train[idx], training=True, rng=rng)
            yield nn.bce_loss(seq_probs, nn.Tensor(y_train[idx])), len(idx)

    def validate():
        val_probs = model.forward_batch(x_val).data[-1, :, 0]
        f1 = compute_metrics((val_probs >= 0.5).astype(np.int64), y_val, val_probs).f1
        return f1, f1

    return model, nn.fit(model, config, steps, validate, "detector", ("val_f1", "val F1 %.4f"))


def detect(model: DetectorModel, embeddings, length: int, threshold: float = 0.5) -> DetectionReport:
    """Full detection pass: sequence view plus mean- and max-aggregated window views.

    One forward gives P[n, t], sequence n's probability at timestep t, which scores
    window n + t. Window w aggregates the anti-diagonal P[w - t, t] in ascending t:
    diagonal w - S + 1 of the row-reversed P."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    vectors, labels = make_sequences(embeddings, length)
    with nn.no_grad():
        probs = model.forward_batch(vectors).data[:, :, 0].T  # (S, L)
    sequence_rows = [(embeddings[n].window_index, p, int(p >= threshold), label)
                     for n, (p, label) in enumerate(zip(probs[:, -1].tolist(), labels.tolist()))]
    mean_rows, max_rows = [], []
    for w, e in enumerate(embeddings):
        c = np.diagonal(probs[::-1], w - len(probs) + 1)
        mean, peak = float(np.add.reduce(c) / c.size), float(np.maximum.reduce(c))  # np.mean's, np.max's bits
        mean_rows.append((e.window_index, mean, int(mean >= threshold), e.label))
        max_rows.append((e.window_index, peak, int(peak >= threshold), e.label))
    return DetectionReport.from_rows(threshold, sequence_rows, mean_rows, max_rows)


def write_report_csvs(report: DetectionReport, out_dir) -> None:
    for view in VIEWS:
        unit = "start_index" if view == "sequence" else "window_index"
        nn.write_csv(Path(out_dir) / f"detect_{view}.csv", [unit, "probability", "decision", "label"],
                     report.view_rows(view))


def read_report_csvs(out_dir, threshold: float) -> DetectionReport:
    """The report write_report_csvs wrote, rows bit for bit, metrics recomputed from them."""
    paths = (Path(out_dir) / f"detect_{view}.csv" for view in VIEWS)
    rows = [[(int(i), p, int(d), int(y)) for i, p, d, y in nn.read_csv(f).tolist()] for f in paths]
    return DetectionReport.from_rows(threshold, *rows)


def summary_table(report: DetectionReport, window_size: int, sequence_length: int) -> str:
    """Plain-text block with one row per view: accuracy/precision/recall/F1/AUC."""
    lines = ["Win  Seq  Type      Accuracy  Precision  Recall   F1-score  AUC"]
    for view in VIEWS:
        mb = report.metrics[view]
        auc = f"{mb.auc:.4f}" if mb.auc is not None else "n/a"
        lines.append(f"{window_size:<4} {sequence_length:<4} {view:<9} "
                     f"{mb.accuracy:.4f}    {mb.precision:.4f}     {mb.recall:.4f}   "
                     f"{mb.f1:.4f}    {auc}")
    return "\n".join(lines)
