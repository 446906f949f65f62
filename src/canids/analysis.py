"""Shannon-entropy window-size analysis and binary classification metrics."""
from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from . import nn

log = logging.getLogger(__name__)


@dataclass
class EntropyStats:
    window_size: int
    mean: float
    median: float
    min: float
    max: float
    std: float
    growth_rate: Optional[float]  # None for the first swept size


@dataclass
class MetricBlock:
    """The five numbers a view's row of summary.txt and sweep_summary.csv prints."""
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: Optional[float]        # None when labels are single-class


def entropy_sweep(table, sizes) -> list:
    """Per-window-size entropy statistics over non-overlapping windows of a FrameTable.

    A window's entropy is -sum p log2 p over its arbitration-ID counts, added up in
    first-occurrence order, so it is reproducible to the bit: per size, one row-wise
    stable sort of the (windows, size) ID matrix gives each ID's count and first
    position, where its term is placed before each row is summed in order.
    growth_rate is the relative change of the mean vs the previous swept size
    (0/0 taken as 0); the first size has none. Sizes exceeding the frame count, a
    suffix of `sizes`, are skipped with one warning that names them.
    """
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be >= 1")
    out = []
    prev_mean = None
    # ID ranks sort like the IDs, and their narrow dtype takes numpy's radix sort
    distinct, ids = np.unique(table.arbitration_id, return_inverse=True)
    ids = ids.astype(np.min_scalar_type(len(distinct) - 1))
    for i, size in enumerate(sizes):
        n_full = len(ids) // size
        if n_full == 0:
            log.warning("window sizes %s exceed frame count %d; skipped", list(sizes[i:]), len(ids))
            break
        window_ids = ids[: n_full * size].reshape(n_full, size)
        order = np.argsort(window_ids, axis=1, kind="stable")
        ranked = np.take_along_axis(window_ids, order, axis=1)
        starts = np.flatnonzero(np.diff(ranked, axis=1, prepend=-1))  # runs of equal IDs
        run_length = np.diff(starts, append=n_full * size)
        p = np.arange(1, size + 1) / size
        terms = np.zeros(n_full * size)
        terms[starts - starts % size + order.ravel()[starts]] = (p * np.log2(p))[run_length - 1]
        ent = 0.0 - np.cumsum(terms.reshape(n_full, size), axis=1)[:, -1]
        mean = float(ent.mean())
        if prev_mean is None:
            growth = None
        elif prev_mean == 0.0:
            growth = 0.0 if mean == 0.0 else float("inf")
        else:
            growth = (mean - prev_mean) / prev_mean
        out.append(EntropyStats(
            window_size=size, mean=mean, median=float(np.median(ent)),
            min=float(ent.min()), max=float(ent.max()), std=float(ent.std()),
            growth_rate=growth))
        prev_mean = mean
    return out


def write_entropy_csv(stats, path) -> None:
    nn.write_csv(path, ["window_size", "mean", "median", "min", "max", "std", "growth_rate"],
                 map(astuple, stats))


def auc_score(scores, labels) -> Optional[float]:
    """Mann-Whitney AUC: P(random positive outranks random negative), ties at 0.5.

    Computed from average ranks, which is exactly the pairwise formulation.
    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # runs of equal scores, as [i, j] in sorted order; a NaN equals nothing, so is its own run
    i = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    j = np.r_[i[1:], len(s)] - 1
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat((i + j) / 2.0 + 1.0, j - i + 1)  # average rank, 1-based
    rank_sum_pos = float(ranks[labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(decisions, labels, scores) -> MetricBlock:
    """Accuracy, precision, recall and F1 from the confusion counts, plus Mann-Whitney
    AUC from the raw scores.

    A zero-denominator precision, recall or F1 is reported as 0; single-class labels
    leave AUC as None.
    """
    decisions = np.asarray(decisions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if not (len(decisions) == len(labels) == len(scores)) or len(labels) == 0:
        raise ValueError("decisions, labels, scores must have equal nonzero length")
    tp = int(np.sum((decisions == 1) & (labels == 1)))
    fp = int(np.sum((decisions == 1) & (labels == 0)))
    tn = int(np.sum((decisions == 0) & (labels == 0)))
    fn = int(np.sum((decisions == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    return MetricBlock((tp + tn) / len(labels), precision, recall, f1, auc_score(scores, labels))
