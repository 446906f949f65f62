import ctypes
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canids
from canids import detector, nn
from canids.analysis import compute_metrics
from canids.config import PipelineConfig
from canids.detector import (DetectorModel, detect, make_sequences, read_report_csvs,
                             summary_table, train_detector, write_report_csvs)
from canids.encoder import GraphEmbedding

from gradcheck import (assert_close_gradients, assert_gradients_match, gradients,
                       unfused_forward_batch)


def embeddings_from_labels(labels, seed=0, offset=2.0):
    """One 32-dim embedding per window; attack windows shifted by `offset`."""
    rng = np.random.default_rng(seed)
    out = []
    for i, lab in enumerate(labels):
        v = rng.normal(scale=0.1, size=32) + (offset if lab else 0.0)
        out.append(GraphEmbedding(vector=v, window_index=i, label=int(lab)))
    return out


class TestMakeSequences:
    def test_stride_one_pattern(self):
        embs = embeddings_from_labels([0] * 5)
        vectors, labels = make_sequences(embs, 3)
        assert vectors.shape == (3, 3, 32) and labels.shape == (3,)
        for n in range(3):  # row n starts at window n
            assert np.array_equal(vectors[n], np.stack([e.vector for e in embs[n : n + 3]]))
        assert not vectors.flags.writeable

    def test_full_length_single_sequence(self):
        vectors, labels = make_sequences(embeddings_from_labels([0] * 4), 4)
        assert len(vectors) == len(labels) == 1

    def test_length_exceeds_windows(self):
        with pytest.raises(ValueError):
            make_sequences(embeddings_from_labels([0] * 3), 4)

    def test_non_consecutive_indices_rejected(self):
        embs = embeddings_from_labels([0] * 4)
        embs[2] = GraphEmbedding(vector=embs[2].vector, window_index=7, label=0)
        with pytest.raises(ValueError, match="consecutive"):
            make_sequences(embs, 2)

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=80)
    def test_count_and_labels_vs_brute_force(self, m, data):
        length = data.draw(st.integers(1, m))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        vectors, seq_labels = make_sequences(embeddings_from_labels(labels), length)
        assert len(vectors) == len(seq_labels) == m - length + 1
        for n, label in enumerate(seq_labels):
            assert label == (1 if any(labels[n : n + length]) else 0)

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=40)
    def test_single_attack_window_count_formula(self, m, data):
        length = data.draw(st.integers(1, m))
        k = data.draw(st.integers(0, m - 1))
        labels = [0] * m
        labels[k] = 1
        _, seq_labels = make_sequences(embeddings_from_labels(labels), length)
        expected = min(k + 1, length, m - length + 1, m - k)
        assert seq_labels.sum() == expected


class TestForward:
    def test_zero_weights_give_half(self):
        model = DetectorModel(seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        x = np.random.default_rng(0).normal(size=(1, 4, 32))
        probs = model.forward_batch(x)
        assert probs.shape == (4, 1, 1)
        assert probs.data[:, 0, 0].tolist() == pytest.approx([0.5] * 4)
        train = model.forward_batch(x, training=True, rng=np.random.default_rng(0))
        assert train.data[0, 0] == pytest.approx(0.5)

    def test_shapes_and_ranges(self):
        model = DetectorModel(seed=1)
        x = np.random.default_rng(1).normal(size=(1, 50, 32))
        probs = model.forward_batch(x)
        assert probs.shape == (50, 1, 1)  # one probability per step, the last the sequence's
        assert ((0.0 < probs.data) & (probs.data < 1.0)).all()
        assert len(np.unique(probs.data)) == 50

    def test_wrong_width(self):
        model = DetectorModel(seed=0)
        with pytest.raises(ValueError):
            model.forward_batch(np.zeros((1, 3, 16)))

    def test_inference_keeps_only_the_top_layers_states(self):
        """Under no_grad at B = 215, L = 50 the forward allocates at most 2.5 (L, B, 64)
        float64 arrays at its peak: no lower layer's (L, B, 64) states are kept."""
        x = np.random.default_rng(0).normal(size=(215, 50, 32))
        model = DetectorModel(seed=0)
        tracemalloc.start()
        try:
            with nn.no_grad():
                model.forward_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (50 * 215 * 64 * 8)

    @pytest.mark.parametrize("seed", range(3))
    def test_bce_gradients_match_finite_differences(self, seed):
        model = DetectorModel(seed=seed, dropout_p=0.0)
        x = np.random.default_rng(seed).normal(size=(2, 3, 32))
        rng = np.random.default_rng(seed)
        y = nn.Tensor(rng.integers(0, 2, size=(3, 2, 1)).astype(float))  # every step's label
        # the head over all steps, recorded: the loss reads every step
        assert_gradients_match(
            lambda: nn.bce_loss(model.forward_batch(x, training=False), y),
            model.parameters(), rtol=1e-4, max_coords=4, rng=rng)


    def test_training_forward_matches_unfused_cells_with_dropout(self, monkeypatch):
        """One (L, B, H) dropout draw is the stream of L per-step (B, H) draws, so a
        training forward gives the unfused gru_cell stack's loss bit for bit, in float32
        steps as in float64 ones. The gradients sum in other orders: within 1e-12
        relative in float64, and 1e-5 in float32."""
        model = DetectorModel(seed=4, dropout_p=0.3)
        x = np.random.default_rng(4).normal(size=(6, 9, 32))
        y = nn.Tensor(np.array([[1.0], [0.0], [0.0], [1.0], [0.0], [1.0]]))
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            monkeypatch.setattr(detector, "TRAIN_DTYPE", dtype)
            rngs = [np.random.default_rng(11), np.random.default_rng(11)]
            fused = nn.bce_loss(model.forward_batch(x, training=True, rng=rngs[0]), y)
            unfused = nn.bce_loss(unfused_forward_batch(model, x, training=True, rng=rngs[1]), y)
            assert fused.item() == unfused.item()
            assert rngs[0].random() == rngs[1].random()  # the same number of draws
            assert_close_gradients(
                gradients(lambda: nn.bce_loss(model.forward_batch(
                    x, training=True, rng=np.random.default_rng(11)), y), model.params),
                gradients(lambda: nn.bce_loss(unfused_forward_batch(
                    model, x, training=True, rng=np.random.default_rng(11)), y), model.params),
                rtol=rtol)

    def test_training_runs_the_head_on_the_final_step_only(self, monkeypatch):
        """Without dropout a training forward gives the final step of the inference
        forward: bit for bit in float64 steps, within 1e-6 relative in float32 ones."""
        model = DetectorModel(seed=0)
        x = np.random.default_rng(0).normal(size=(3, 7, 32))
        prob = model.forward_batch(x, training=True, rng=np.random.default_rng(0))
        assert prob.shape == (3, 1) and prob.data.dtype == np.float64
        model.dropout_p = 0.0
        with nn.no_grad():
            probs = model.forward_batch(x)
        assert np.allclose(model.forward_batch(x, training=True).data, probs.data[-1], rtol=1e-6, atol=0)
        monkeypatch.setattr(detector, "TRAIN_DTYPE", np.float64)
        assert np.array_equal(model.forward_batch(x, training=True).data, probs.data[-1])

    def test_one_gru_time_loop_serves_training_and_inference(self, monkeypatch):
        """Both forwards run the one shared time loop: a training step once per layer,
        the inference forward once for the whole stack."""
        calls, steps = [], nn.ops._gru_steps

        def counted(x, layers, gates=None):
            calls.append(len(layers))
            return steps(x, layers, gates)

        monkeypatch.setattr(nn.ops, "_gru_steps", counted)
        model = DetectorModel(seed=0)
        x = np.random.default_rng(0).normal(size=(4, 5, 32))
        nn.bce_loss(model.forward_batch(x, training=True, rng=np.random.default_rng(0)),
                    nn.Tensor(np.ones((4, 1)))).backward()
        assert calls == [1, 1]
        with nn.no_grad():
            model.forward_batch(x)
        assert calls == [1, 1, 2]


class TestTraining:
    def separable_sequences(self, n=20, length=3):
        # sparse attack bursts so both sequence classes appear
        labels = ([0] * 6 + [1] * 2) * ((n + length + 7) // 8)
        vectors, seq_labels = make_sequences(embeddings_from_labels(labels, offset=2.0), length)
        assert set(seq_labels[:n]) == {0, 1}
        return vectors[:n], seq_labels[:n]

    def test_overfits_separable_sequences(self):
        seqs = self.separable_sequences()
        model = DetectorModel(seed=0)
        model, log = train_detector(model, seqs, seqs, PipelineConfig(values=dict(
            detector_epochs=500, detector_lr=5e-3, detector_batch=8, detector_patience=500,
            detector_seed=0)))
        assert log["history"][-1]["train_loss"] < 0.05

    def test_best_val_f1_not_worse_than_first(self):
        """The returned detector is the best epoch's: its validation F1 is that epoch's.
        Validation flips the training labels, so fitting them lowers it after epoch 0."""
        x, y = self.separable_sequences()
        model, log = train_detector(DetectorModel(seed=0), (x, y), (x, 1 - y),
                                    PipelineConfig(values=dict(detector_epochs=10, detector_seed=0)))
        history = [row["val_f1"] for row in log["history"]]
        assert history[-1] < history[log["best_epoch"]] >= history[0]
        with nn.no_grad():
            probs = model.forward_batch(x).data[-1, :, 0]
        assert compute_metrics((probs >= 0.5).astype(np.int64), 1 - y, probs).f1 == \
            history[log["best_epoch"]]

    def test_determinism(self, tmp_path):
        seqs = self.separable_sequences(n=10)
        cfg = PipelineConfig(values=dict(detector_epochs=3, detector_seed=5))
        m1, _ = train_detector(DetectorModel(seed=5), seqs, seqs, cfg)
        m2, _ = train_detector(DetectorModel(seed=5), seqs, seqs, cfg)
        m1.save(tmp_path / "a.ckpt")
        m2.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_gru_cell_is_not_on_the_model_path(self, monkeypatch):
        """Training and detection run the fused layer and the dense_stack head; the
        unfused cell and the linear op are only oracles."""
        for op in ("gru_cell", "linear"):
            def refuse(*args, op=op):
                raise AssertionError(f"{op} called on the model path")

            monkeypatch.setattr(nn, op, refuse)
            monkeypatch.setattr(nn.ops, op, refuse)
        seqs = self.separable_sequences(n=10)
        model, _ = train_detector(DetectorModel(seed=0), seqs, seqs,
                                  PipelineConfig(values=dict(detector_epochs=2)))
        report = detect(model, embeddings_from_labels([0, 0, 1, 0, 0, 0]), 3)
        assert len(report.sequence_rows) == 4

    def test_logs_one_line_per_epoch(self, caplog):
        seqs = self.separable_sequences(n=10)
        with caplog.at_level(logging.INFO, logger="canids.detector"):
            _, log = train_detector(DetectorModel(seed=0), seqs, seqs,
                                    PipelineConfig(values=dict(detector_epochs=3)))
        lines = [r.getMessage() for r in caplog.records if r.name == "canids.detector"]
        assert len(lines) == log["epochs_run"] == 3
        for epoch, (line, row) in enumerate(zip(lines, log["history"])):
            assert line.startswith(f"detector epoch {epoch}: train loss ")
            assert f"{row['train_loss']:.6g}" in line and f"val F1 {row['val_f1']:.4f}" in line
            assert line.endswith(" s")

    def test_repeated_training_faults_in_no_heap_pages(self):
        """nn.fit keeps freed heap pages mapped, so training with the same shapes again
        reuses them. Without that, glibc trims the heap after each step, and the next
        step faults thousands of pages back in (about 12,000 minor faults a call here).
        The first two calls grow the heap to its high-water mark; the second still adds
        about 400 pages, once, as freed blocks are reused in another order. A fresh
        interpreter starts from glibc's default thresholds."""
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("this libc has no mallopt, so nn.fit leaves the allocator as it is")
        code = (
            "import resource\nimport numpy as np\n"
            "from canids.config import PipelineConfig\n"
            "from canids.detector import DetectorModel, train_detector\n"
            "rng = np.random.default_rng(0)\n"
            "seqs = rng.standard_normal((150, 50, 32)), rng.integers(0, 2, 150)\n"
            "cfg = PipelineConfig(values=dict(detector_batch=64, detector_epochs=2))\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    train_detector(DetectorModel(seed=0), seqs, seqs, cfg)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(canids.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 1000

    def test_checkpoint_bytes_do_not_depend_on_the_blas_threads(self):
        """Two epochs on random (n, 50, 32) sequences whose last batch is partial (29 or 43
        rows), at batches of 64 and 256, write the same checkpoint bytes at 1 and 2 BLAS
        threads. Summing the weight gradients over all L·B rows in one GEMM did not: OpenBLAS
        reduces K = 1450 or 2150 rows in another order on 2 threads (nn.ops.GRAD_BLOCK)."""
        code = (
            "import hashlib, sys, tempfile\nfrom pathlib import Path\nimport numpy as np\n"
            "from canids.config import PipelineConfig\n"
            "from canids.detector import DetectorModel, train_detector\n"
            "for n, batch in ((93, 64), (107, 64), (285, 256), (299, 256)):\n"
            "    rng = np.random.default_rng(n)\n"
            "    seqs = rng.standard_normal((n, 50, 32)), np.arange(n) % 2\n"
            "    val = rng.standard_normal((20, 50, 32)), np.arange(20) % 2\n"
            "    cfg = PipelineConfig(values=dict(detector_batch=batch, detector_epochs=2))\n"
            "    model, _ = train_detector(DetectorModel(seed=n), seqs, val, cfg)\n"
            "    with tempfile.TemporaryDirectory() as tmp:\n"
            "        model.save(Path(tmp) / 'detector.ckpt')\n"
            "        print(n, batch, hashlib.sha256((Path(tmp) / 'detector.ckpt').read_bytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads, "PYTHONPATH": str(Path(canids.__file__).parents[1])}
            result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                    env=env, timeout=300)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.splitlines())
        assert len(digests[0]) == 4 and digests[0] == digests[1]

    def test_single_class_rejected(self):
        seqs = make_sequences(embeddings_from_labels([0] * 6), 2)
        with pytest.raises(ValueError, match="both classes"):
            train_detector(DetectorModel(seed=0), seqs, seqs, PipelineConfig())


class TestDetect:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained():
        labels = [1 if i % 7 in (2, 3) else 0 for i in range(40)]
        embs = embeddings_from_labels(labels, seed=2)
        seqs = make_sequences(embs, 5)
        model, _ = train_detector(DetectorModel(seed=0), seqs, seqs,
                                  PipelineConfig(values=dict(detector_epochs=40, detector_seed=0)))
        return model, embs

    def test_degenerate_single_sequence_views_agree(self, trained):
        model, embs = trained
        report = detect(model, embs[:3], 3)
        assert len(report.sequence_rows) == 1
        assert [r[1] for r in report.mean_rows] == [r[1] for r in report.max_rows]

    def test_interior_window_contribution_count(self, trained):
        model, embs = trained
        length = 5
        m = len(embs)
        report = detect(model, embs, length)
        assert len(report.sequence_rows) == m - length + 1
        # interior windows appear in exactly L sequences; verify via the
        # counting identity on contribution spans
        for w in range(m):
            n_contrib = min(w, m - length) - max(0, w - length + 1) + 1
            if length - 1 <= w <= m - length:
                assert n_contrib == length

    def test_max_view_at_least_mean_view(self, trained):
        model, embs = trained
        report = detect(model, embs, 5)
        for mean_row, max_row in zip(report.mean_rows, report.max_rows):
            assert max_row[1] >= mean_row[1]
            assert 0.0 < mean_row[1] < 1.0

    def test_threshold_monotonicity(self, trained):
        model, embs = trained
        prev = {view: None for view in ("sequence", "mean", "max")}
        for thr in np.arange(0.1, 0.95, 0.1):
            report = detect(model, embs, 5, threshold=float(thr))
            for view in prev:
                positives = sum(r[2] for r in report.view_rows(view))
                if prev[view] is not None:
                    assert positives <= prev[view]
                prev[view] = positives

    def test_detect_deterministic(self, trained):
        model, embs = trained
        length = 5
        report = detect(model, embs, length)
        again = detect(model, embs, length)
        for view in ("sequence", "mean", "max"):
            assert report.view_rows(view) == again.view_rows(view)
        # oracle: each sequence scored alone, then each window aggregated by brute force
        vectors, _ = make_sequences(embs, length)
        alone = []
        for n, row in enumerate(report.sequence_rows):
            probs = model.forward_batch(vectors[n : n + 1]).data[:, 0, 0].tolist()
            assert row[0] == n and row[1] == pytest.approx(probs[-1], abs=1e-12)
            alone.append(probs)
        for w, (mean_row, max_row) in enumerate(zip(report.mean_rows, report.max_rows)):
            c = [alone[n][w - n] for n in range(len(alone)) if 0 <= w - n < length]
            assert len(c) == min(w, len(alone) - 1) - max(0, w - length + 1) + 1
            assert mean_row[1] == pytest.approx(sum(c) / len(c), abs=1e-12)
            assert max_row[1] == pytest.approx(max(c), abs=1e-12)

    @pytest.mark.parametrize("windows,length", [(30, 12), (14, 10), (19, 10), (6, 1), (4, 4)])
    def test_window_views_equal_numpy_mean_and_max(self, windows, length):
        """On every anti-diagonal, of each length from 1 to min(S, L), with tied
        values: the mean and max rows equal np.mean and np.max of it."""
        s = windows - length + 1
        probs = np.random.default_rng(windows).choice([0.1, 0.3, 0.7, 0.9], size=(s, length))

        class Fixed:  # hands detect the (S, L) matrix as forward_batch's (L, S, 1)
            def forward_batch(self, vectors):
                return nn.Tensor(probs.T[:, :, None])

        report = detect(Fixed(), embeddings_from_labels([w % 3 == 0 for w in range(windows)]), length)
        sizes = []
        for w, (mean_row, max_row) in enumerate(zip(report.mean_rows, report.max_rows)):
            c = np.array([probs[w - t, t] for t in range(length) if 0 <= w - t < s])
            sizes.append(c.size)
            assert mean_row[1] == float(np.mean(c)) and max_row[1] == float(np.max(c))
        assert set(sizes) == set(range(1, min(s, length) + 1))

    def test_report_files_and_summary(self, trained, tmp_path):
        model, embs = trained
        report = detect(model, embs, 5)
        write_report_csvs(report, tmp_path)
        for view in ("sequence", "mean", "max"):
            lines = (tmp_path / f"detect_{view}.csv").read_text().splitlines()
            assert len(lines) == 1 + len(report.view_rows(view))
            # Python scalars, so the CSV holds repr(float) text
            assert all(type(r[1]) is float and type(r[3]) is int for r in report.view_rows(view))
        read = read_report_csvs(tmp_path, report.threshold)  # rows bit for bit, in Python types
        for view in ("sequence", "mean", "max"):
            rows = read.view_rows(view)
            assert rows == report.view_rows(view)
            assert {tuple(map(type, r)) for r in rows} == {(int, float, int, int)}
        assert read.metrics == report.metrics
        text = summary_table(report, 50, 5)
        assert text.count("\n") == 3  # header + one row per view
        for col in ("Accuracy", "Precision", "Recall", "F1-score", "AUC"):
            assert col in text

    def test_bad_threshold(self, trained):
        model, embs = trained
        with pytest.raises(ValueError):
            detect(model, embs, 5, threshold=1.5)
