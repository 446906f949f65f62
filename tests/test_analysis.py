import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.analysis import (EntropyStats, MetricBlock, auc_score, compute_metrics,
                             entropy_sweep, write_entropy_csv)

from conftest import make_frame, normal_frames, table


def frames_with_ids(id_counts, dt=0.001):
    frames = []
    i = 0
    for arb, count in id_counts:
        for _ in range(count):
            frames.append(make_frame(ts=i * dt, arb=arb))
            i += 1
    return frames


def pairwise_auc(scores, labels):
    """O(n^2) oracle: P(pos outranks neg), ties worth 0.5."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def loop_auc(scores, labels):
    """The tie loop auc_score ran before its runs were found by array ops: average
    ranks over each run of scores equal to the run's first, so a NaN is its own run."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum_pos = float(ranks[labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def entropy_bits(counts) -> float:
    """Shannon entropy -sum p log2 p of a count distribution, term by term in order."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * np.log2(p)
    return float(h)


def counter_sweep(t, sizes):
    """Oracle: entropy_sweep as a per-window loop over a Counter of each window's
    IDs, in first-occurrence order (the implementation the array sweep replaced)."""
    out, prev_mean = [], None
    ids = t.arbitration_id.tolist()
    for size in sizes:
        n_full = len(ids) // size
        if n_full == 0:
            continue
        ent = np.array([entropy_bits(Counter(ids[i * size : (i + 1) * size]).values())
                        for i in range(n_full)])
        mean = float(ent.mean())
        if prev_mean is None:
            growth = None
        elif prev_mean == 0.0:
            growth = 0.0 if mean == 0.0 else float("inf")
        else:
            growth = (mean - prev_mean) / prev_mean
        out.append(EntropyStats(size, mean, float(np.median(ent)), float(ent.min()),
                                float(ent.max()), float(ent.std()), growth))
        prev_mean = mean
    return out


def window_entropy(frames) -> float:
    """The sweep's entropy of one window holding all of `frames`."""
    (s,) = entropy_sweep(table(frames), [len(frames)])
    assert s.min == s.mean == s.max
    return s.mean


class TestWindowEntropy:
    def test_single_id_zero_entropy(self):
        assert window_entropy(frames_with_ids([(0x100, 50)])) == 0.0

    def test_uniform_four_ids(self):
        frames = frames_with_ids([(0x1, 10), (0x2, 10), (0x3, 10), (0x4, 10)])
        assert window_entropy(frames) == pytest.approx(2.0)

    def test_skewed_counts(self):
        frames = frames_with_ids([(0x1, 30), (0x2, 15), (0x3, 5)])
        expected = -(0.6 * math.log2(0.6) + 0.3 * math.log2(0.3) + 0.1 * math.log2(0.1))
        assert window_entropy(frames) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.295, abs=1e-3)

    @pytest.mark.parametrize("trial", range(20))
    def test_random_counts_match_formula(self, trial):
        rng = np.random.default_rng(trial)
        counts = rng.integers(1, 50, size=rng.integers(1, 10))
        p = counts / counts.sum()
        expected = float(-(p * np.log2(p)).sum())
        frames = frames_with_ids([(0x10 + i, int(c)) for i, c in enumerate(counts)])
        assert window_entropy(frames) == pytest.approx(expected, abs=1e-12)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(1)
        ids = rng.choice([0x10, 0x20, 0x30, 0x40, 0x50], size=60)
        frames = [make_frame(ts=i * 0.001, arb=int(a)) for i, a in enumerate(ids)]
        h = window_entropy(frames)
        assert 0.0 <= h <= math.log2(min(60, len(set(ids))))
        shuffled = list(frames)
        rng.shuffle(shuffled)
        for i, f in enumerate(shuffled):
            shuffled[i] = make_frame(ts=i * 0.001, arb=f.arbitration_id)
        assert window_entropy(shuffled) == pytest.approx(h, abs=1e-12)

    @pytest.mark.parametrize("n_ids", [1, 3, 40, 2000])
    def test_sweep_matches_counter_oracle_bit_for_bit(self, n_ids):
        """Every statistic equals the Counter loop's exactly, so entropy_sweep.csv
        keeps its bytes; 2000 IDs put many singletons in every window, as fuzzing does."""
        rng = np.random.default_rng(n_ids)
        t = table([make_frame(ts=i * 0.001, arb=int(a))
                   for i, a in enumerate(rng.integers(0, n_ids, size=1500) * 7 + 0x40)])
        sizes = list(range(1, 31)) + [64, 99, 100, 250, 1500, 1501]
        assert entropy_sweep(t, sizes) == counter_sweep(t, sizes)


class TestEntropySweep:
    def norm(self, frames):
        return table(frames)

    def test_single_size_no_growth_rate(self):
        stats = entropy_sweep(self.norm(normal_frames(100)), [10])
        assert len(stats) == 1
        assert stats[0].growth_rate is None

    def test_constant_id_traffic(self):
        frames = self.norm(frames_with_ids([(0x42, 200)]))
        stats = entropy_sweep(frames, [10, 20, 50])
        assert all(s.mean == 0.0 for s in stats)
        assert stats[1].growth_rate == 0.0  # 0/0 rule
        assert stats[2].growth_rate == 0.0

    def test_oversize_window_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            stats = entropy_sweep(self.norm(normal_frames(30)), [10, 40, 100])
        assert [s.window_size for s in stats] == [10]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["window sizes [40, 100] exceed frame count 30; skipped"]

    def test_multi_ecu_traffic_growth_flattens(self):
        rng = np.random.default_rng(0)
        ids = rng.choice(32, size=8000, p=np.full(32, 1 / 32))
        frames = self.norm([make_frame(ts=i * 0.001, arb=0x100 + int(a))
                            for i, a in enumerate(ids)])
        sizes = [10, 20, 50, 100, 200, 400]
        stats = entropy_sweep(frames, sizes)
        means = [s.mean for s in stats]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))  # non-decreasing
        assert stats[-1].growth_rate < stats[1].growth_rate

    def test_invariants(self):
        for s in entropy_sweep(self.norm(normal_frames(500)), [10, 50]):
            assert s.min <= s.median <= s.max
            assert s.std >= 0.0
            assert 0.0 <= s.mean <= math.log2(s.window_size)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            entropy_sweep([], [20, 10])
        with pytest.raises(ValueError):
            entropy_sweep([], [0, 10])

    def test_csv(self, tmp_path):
        stats = entropy_sweep(self.norm(normal_frames(300)), [10, 20])
        path = tmp_path / "e.csv"
        write_entropy_csv(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_size,mean,median,min,max,std,growth_rate"
        assert lines[1].endswith(",")  # first row has empty growth rate
        assert len(lines) == 3

    def test_failed_csv_write_keeps_previous_file(self, tmp_path):
        stats = entropy_sweep(self.norm(normal_frames(300)), [10, 20])
        path = tmp_path / "e.csv"
        write_entropy_csv(stats, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_entropy_csv([stats[0], None], path)  # fails after the first row
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["e.csv"]


class TestComputeMetrics:
    def test_perfect_predictions(self):
        labels = [0, 1, 0, 1, 1]
        scores = [0.1, 0.9, 0.2, 0.8, 0.7]
        mb = compute_metrics(labels, labels, scores)
        assert (mb.accuracy, mb.precision, mb.recall, mb.f1, mb.auc) == (1, 1, 1, 1, 1)

    def test_hand_confusion_arithmetic(self):
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        decisions = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        mb = compute_metrics(decisions, labels, decisions)
        assert (mb.tp, mb.fp, mb.fn, mb.tn) == (2, 1, 1, 6)
        assert mb.precision == pytest.approx(2 / 3)
        assert mb.recall == pytest.approx(2 / 3)
        assert mb.f1 == pytest.approx(2 / 3)
        assert mb.accuracy == pytest.approx(0.8)

    def test_degenerate_precision_flag(self):
        mb = compute_metrics([0, 0], [1, 0], [0.4, 0.3])
        assert mb.precision == 0.0 and mb.degenerate

    def test_single_class_auc_none(self):
        mb = compute_metrics([0, 1], [0, 0], [0.1, 0.9])
        assert mb.auc is None
        assert mb.accuracy == 0.5

    def test_f1_equals_harmonic_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            labels = rng.integers(0, 2, size=30)
            decisions = rng.integers(0, 2, size=30)
            mb = compute_metrics(decisions, labels, decisions.astype(float))
            if mb.precision + mb.recall > 0:
                harmonic = 2 * mb.precision * mb.recall / (mb.precision + mb.recall)
                assert mb.f1 == pytest.approx(harmonic, abs=1e-12)


class TestAuc:
    @pytest.mark.parametrize("trial", range(100))
    def test_matches_pairwise_oracle_exactly(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 500))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force ties
        scores = np.round(rng.random(n), 2)
        assert auc_score(scores, labels) == pairwise_auc(scores.tolist(), labels.tolist())

    @pytest.mark.parametrize("trial", range(200))
    def test_matches_tie_loop_bit_for_bit(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 2000))
        labels = rng.integers(0, 2, size=n)
        labels[: 2] = (0, 1)
        scores = rng.random(n)
        if trial % 2:  # heavy ties
            scores = np.round(scores, int(rng.integers(0, 3)))
        if trial % 5 == 0:
            scores[rng.random(n) < 0.2] = np.nan
        assert auc_score(scores, labels) == loop_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        base = auc_score(scores, labels)
        assert auc_score(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_score(scores ** 3, labels) == pytest.approx(base, abs=1e-12)
