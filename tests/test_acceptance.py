"""Acceptance gate: one test per headline guarantee, one PASS/FAIL line each.

Criteria:
 1. analytic gradients match central finite differences for every operation
    and for the composed encoder/detector losses (>= 10 seeds, rel err 1e-4);
    the fused GRU layer equals the unfused GRU cell stack (values exactly,
    gradients to 1e-12 relative); the fused encoder stack and the detector's
    dense_stack head equal the unfused linear/gcn_conv/relu tape (values and
    gradients exactly), the head run once over all steps as well as step by step;
    the detector's float32 training steps give the float64 steps' loss and every
    gradient within 1e-5 relative (L2); the encoder's tapeless training step gives
    the tape's loss and 14 gradients exactly at every step of a multi-epoch run
 2. structural oracles: window partition, graph node/edge counts, sequence
    count and any-attack labeling vs brute force
 3. entropy oracles: closed-form cases, 200 random count vectors, sweep shape
 4. AUC equals the O(n^2) pairwise Mann-Whitney oracle exactly
 5. overfit sanity: encoder MSE < 1e-3, detector BCE < 0.05 on toy data
 6. end-to-end detection on the bundled synthetic corpus at window 50 /
    sequence 50 / threshold 0.5 (segment AUC floors, max-vs-sequence gap)
 7. byte-identical artifacts across two full runs with the same config
 8. official dataset reproduction (skipped unless CANIDS_DATASET is set)
 9. aggregation properties: max >= mean per window, threshold monotonicity

The end-to-end corpus is generated by the package's own traffic generator, so
the whole gate is self-contained apart from criterion 8.
"""
import hashlib
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from canids import nn
from canids.analysis import auc_score, entropy_sweep
from canids.cli import EXIT_OK, main
from canids.config import PipelineConfig
from canids import detector as detector_module
from canids import encoder as encoder_module
from canids.detector import DetectorModel, detect, make_sequences, train_detector
from canids.encoder import EncoderModel, GraphEmbedding, train_encoder
from canids.frames import FrameTable
from canids.graph import ByteMode, WindowGraph, build_graph, normalized_adjacency
from canids.ingest import make_windows
from canids.nn.tensor import Parameter, Tensor
from canids.pipeline import prepare_splits, run_pipeline, run_synth

from conftest import attack_kinds
from gradcheck import (assert_close_gradients, assert_gradients_match, global_mean_pool, gradients,
                       relu, unfused_encoder_forward, unfused_forward_batch, unfused_head)


@contextmanager
def criterion(number, description, capfd):
    """Emit one PASS/FAIL line per criterion, bypassing pytest capture."""

    def emit(verdict):
        with capfd.disabled():
            print(f"\nACCEPTANCE {number}: {verdict} - {description}", flush=True)

    try:
        yield
    except BaseException as e:
        emit("SKIP" if isinstance(e, pytest.skip.Exception) else "FAIL")
        raise
    emit("PASS")


# --- bundled synthetic corpus -------------------------------------------------
#
# 240 s of 10-ECU traffic (~1.4 kframe/s, ~376k frames, ~90.7% normal) with all
# four attack kinds. Long attacks early set Table-1-like class ratios; the four
# test-segment attacks are short and separated by several seconds so that
# normal windows outside the detector's L-window memory horizon dominate the
# test split.
CORPUS_CFG = """
synth_duration = 240
synth_jitter = 0.05
synth_seed = 20260824
ecu1  = 0x100 2 8 counter
ecu2  = 0x120 4 8 const
ecu3  = 0x1A0 5 6 mixed
ecu4  = 0x200 8 8 walk
ecu5  = 0x240 10 4 const
ecu6  = 0x090 10 8 const
ecu7  = 0x300 20 8 counter
ecu8  = 0x340 20 2 const
ecu9  = 0x3C0 40 8 walk
ecu10 = 0x400 50 5 const
attack1  = flooding 12  3.0 rate=2000
attack2  = fuzzing  25  4.0 rate=600
attack3  = replay   40  2.0 span=5:7
attack4  = spoofing 52  4.0 rate=350 target=0x090 mutate=3:1:255
attack5  = flooding 70  3.0 rate=2000
attack6  = fuzzing  85  4.0 rate=600
attack7  = replay   100 1.5 span=30:31.5
attack8  = spoofing 115 3.0 rate=350 target=0x090 mutate=3:1:255
attack9  = flooding 150 2.2 rate=2000
attack10 = fuzzing  160 3.0 rate=600
attack11 = replay   170 1.0 span=50:51
attack12 = spoofing 180 2.3 rate=350 target=0x090 mutate=3:1:255
attack13 = flooding 200 0.3 rate=2000
attack14 = fuzzing  208 0.5 rate=600
attack15 = replay   216 0.8 span=60:60.8
attack16 = spoofing 226 0.7 rate=350 target=0x090 mutate=3:1:255
"""

PIPELINE_KEYS = {
    "window_size": "50",
    "sequence_length": "50",
    "threshold": "0.5",
    "encoder_epochs": "12",
    "encoder_patience": "12",
    "detector_epochs": "18",
    "detector_patience": "8",
    "detector_batch": "64",
}


def corpus_config(tmp_dir):
    cfg_path = tmp_dir / "corpus.cfg"
    log_path = tmp_dir / "traffic.csv"
    cfg_path.write_text(CORPUS_CFG + f"synth_output = {log_path}\n")
    cfg = PipelineConfig.from_file(cfg_path)
    cfg.set("input_log", str(log_path))
    cfg.set("work_dir", str(tmp_dir / "work"))
    for key, value in PIPELINE_KEYS.items():
        cfg.set(key, value)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """Generate the corpus, run the full pipeline once, and time it."""
    tmp_dir = tmp_path_factory.mktemp("acceptance")
    cfg = corpus_config(tmp_dir)
    t0 = time.monotonic()
    run_synth(cfg)
    report = run_pipeline(cfg)[0]()
    elapsed = time.monotonic() - t0
    splits = prepare_splits(cfg)
    return cfg, report, splits, elapsed


def random_path_graph(w=4, seed=0, label=0, index=0):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(w, 9)).astype(float)
    feats[:, 0] = rng.integers(0, 9, size=w) / 8.0
    return WindowGraph(node_features=feats, label=label, window_index=index)


def toy_embeddings(labels, seed=0, offset=2.0):
    rng = np.random.default_rng(seed)
    return [GraphEmbedding(vector=rng.normal(scale=0.1, size=32) + (offset if lab else 0.0),
                           window_index=i, label=int(lab))
            for i, lab in enumerate(labels)]


# --- criterion 1: gradient correctness ---------------------------------------

def test_criterion_1_gradients(capfd, monkeypatch):
    with criterion(1, "gradients match finite differences (all ops + composed losses)", capfd):
        t0 = time.monotonic()
        gru_keys_w = ("w_z", "w_r", "w_n")
        gru_keys_u = ("u_z", "u_r", "u_n")
        gru_keys_b = ("b_z", "b_r", "b_in", "b_hn")
        for seed in range(10):
            r = np.random.default_rng(seed)
            check_rng = np.random.default_rng(1000 + seed)

            # linear + relu + mse
            x = Parameter(r.normal(size=(3, 4)), "x")
            w = Parameter(r.normal(size=(4, 2)), "w")
            b = Parameter(r.normal(size=2), "b")
            assert_gradients_match(
                lambda: nn.mse_loss(relu(nn.linear(x, w, b)),
                                    Tensor(np.ones((3, 2)))), [x, w, b])

            # sigmoid / tanh
            a = Parameter(r.normal(size=(4, 3)) + 0.1, "a")
            assert_gradients_match(
                lambda: nn.mse_loss(nn.sigmoid(a), Tensor(np.zeros((4, 3)))), [a])
            assert_gradients_match(
                lambda: nn.mse_loss(nn.tanh(a), Tensor(np.zeros((4, 3)))), [a])

            # gcn_conv with a normalized 3-path adjacency
            adj = normalized_adjacency(3)
            xg = Parameter(r.normal(size=(3, 5)), "xg")
            wg = Parameter(r.normal(size=(5, 4)), "wg")
            bg = Parameter(r.normal(size=4), "bg")
            assert_gradients_match(
                lambda: nn.mse_loss(nn.gcn_conv(xg, adj, wg, bg),
                                    Tensor(np.zeros((3, 4)))), [xg, wg, bg])

            # gru_cell
            p = {k: Parameter(r.normal(size=(5, 4)) * 0.5, k) for k in gru_keys_w}
            p.update({k: Parameter(r.normal(size=(4, 4)) * 0.5, k) for k in gru_keys_u})
            p.update({k: Parameter(r.normal(size=4) * 0.5, k) for k in gru_keys_b})
            xs = Parameter(r.normal(size=(2, 5)), "xs")
            h0 = Parameter(r.normal(size=(2, 4)), "h0")
            assert_gradients_match(
                lambda: nn.mse_loss(nn.gru_cell(xs, h0, p), Tensor(np.zeros((2, 4)))),
                list(p.values()) + [xs, h0])

            # global_mean_pool + mse
            xp = Parameter(r.normal(size=(7, 3)), "xp")
            assert_gradients_match(
                lambda: nn.mse_loss(global_mean_pool(xp), Tensor(np.ones((1, 3)))), [xp])

            # bce
            pr = Parameter(r.uniform(0.05, 0.95, size=(5, 1)), "pr")
            yb = Tensor(r.integers(0, 2, size=(5, 1)).astype(float))
            assert_gradients_match(lambda: nn.bce_loss(pr, yb), [pr])

            # composed encoder reconstruction loss
            enc = EncoderModel(seed=seed)
            g = random_path_graph(w=4, seed=seed)
            assert_gradients_match(
                lambda: nn.mse_loss(enc.forward(g), Tensor(g.node_features)),
                enc.parameters(), max_coords=3, rng=check_rng)

            # composed detector sequence loss (an inference forward, so no dropout)
            det = DetectorModel(seed=seed)
            xb = np.random.default_rng(seed).normal(size=(2, 3, 32))
            yd = Tensor(np.array([[1.0], [0.0]]))
            assert_gradients_match(  # the head over all steps, recorded; the loss reads the last
                lambda: nn.bce_loss(nn.take_step(det.forward_batch(xb, training=False), -1), yd),
                det.parameters(), max_coords=3, rng=check_rng)

            # a one-layer gru_stack, as training runs it: finite differences, then the
            # unfused gru_cell stack with the same parameters: equal values, gradients
            # within 1e-12 relative
            rl = np.random.default_rng(2000 + seed)
            pl = {k: Parameter(rl.normal(size=(5, 4)) * 0.5, k) for k in gru_keys_w}
            pl.update({k: Parameter(rl.normal(size=(4, 4)) * 0.5, k) for k in gru_keys_u})
            pl.update({k: Parameter(rl.normal(size=4) * 0.5, k) for k in gru_keys_b})
            xl = Parameter(rl.normal(size=(3, 2, 5)), "xl")
            targets = [Tensor(rl.normal(size=(2, 4))) for _ in range(3)]
            assert_gradients_match(
                lambda: nn.mse_loss(nn.gru_stack(xl, [pl]), Tensor(np.stack([t.data for t in targets]))),
                list(pl.values()) + [xl])

            def cells():
                h, out = Tensor(np.zeros((2, 4))), []
                for t in range(3):
                    h = nn.gru_cell(nn.take_step(xl, t), h, pl)
                    out.append(h)
                return out

            def step_losses(hs):
                loss = nn.mse_loss(hs[0], targets[0])
                for h, target in zip(hs[1:], targets[1:]):
                    loss = nn.add(loss, nn.mse_loss(h, target))
                return loss

            fused = nn.gru_stack(xl, [pl])
            assert all(np.array_equal(fused.data[t], h.data) for t, h in enumerate(cells()))
            tensors = {**pl, "xl": xl}
            assert_close_gradients(
                gradients(lambda: step_losses([nn.take_step(nn.gru_stack(xl, [pl]), t)
                                               for t in range(3)]), tensors),
                gradients(lambda: step_losses(cells()), tensors))

            # dense_stack on a tracked 2-D and node-major 3-D input (4 nodes of 3 graphs),
            # a graph convolution first: the input's gradient against finite differences too
            rd = np.random.default_rng(4000 + seed)
            for shape in ((4, 5), (4, 3, 5)):
                xd = Parameter(rd.normal(size=shape), "xd")
                pd = [Parameter(rd.normal(size=size), name) for name, size in
                      (("w1", (5, 3)), ("b1", 3), ("w2", (3, 2)), ("b2", 2))]
                layers = [(pd[0], pd[1], True, True), (pd[2], pd[3], False, False)]
                target = Tensor(rd.normal(size=shape[:-1] + (2,)))
                assert_gradients_match(
                    lambda: nn.mse_loss(nn.dense_stack(xd, normalized_adjacency(4), layers), target),
                    [xd, *pd])

            # the detector: every window probability equal to the unfused stack's,
            # and the gradients of a loss over every step within 1e-12 relative
            det = DetectorModel(seed=seed)
            with nn.no_grad():
                got, want = det.forward_batch(xb), unfused_forward_batch(det, xb)
            assert got.shape == want.shape == (3, 2, 1) and np.array_equal(got.data, want.data)
            ys = Tensor(np.stack([yd.data, 1.0 - yd.data, yd.data]))
            assert_close_gradients(
                gradients(lambda: nn.bce_loss(det.forward_batch(xb), ys), det.params),
                gradients(lambda: nn.bce_loss(unfused_forward_batch(det, xb), ys), det.params))

            # its head, one dense_stack op and a sigmoid, on a tracked (B, 64) input as
            # in training: the value and every gradient equal the linear/relu/sigmoid tape's
            head = {k: det.params[k] for k in ("fc1_w", "fc1_b", "fc2_w", "fc2_b")}
            for batch in (1, 7, 43, 64):
                hh = Parameter(rd.normal(size=(batch, 64)), "h")
                yh = Tensor(rd.integers(0, 2, size=(batch, 1)).astype(float))
                fused, tape = (lambda: nn.sigmoid(nn.dense_stack(hh, None, det.head)),
                               lambda: unfused_head(det, hh))
                assert np.array_equal(fused().data, tape().data)
                got, want = (gradients(lambda: nn.bce_loss(f(), yh), {**head, "h": hh})
                             for f in (fused, tape))
                assert all(np.array_equal(got[k], want[k]) for k in want)

        # the inference forward over L = 50 steps, its GRU layers one gru_stack op and
        # its head run once over all steps: every probability equal to the unfused
        # head's run step by step on the states of one-layer gru_stack calls chained,
        # and to the gru_cell stack's
        det, rc = DetectorModel(seed=0), np.random.default_rng(5000)
        for batch in (1, 7, 8, 11, 29, 43, 61, 64, 215, 1455):
            xc = rc.normal(size=(batch, 50, 32))
            with nn.no_grad():
                states = nn.gru_stack(nn.gru_stack(Tensor(xc.transpose(1, 0, 2)), [det.gru1]), [det.gru2])
                per_step = np.stack([unfused_head(det, nn.take_step(states, t)).data for t in range(50)])
                probs = det.forward_batch(xc).data
                assert np.array_equal(probs, per_step)
                assert np.array_equal(probs, unfused_forward_batch(det, xc).data)

        # the detector's training steps in float32 over its float64 weights: the loss and
        # each of the 24 gradients within 1e-5 relative (L2) of float64 steps' with the
        # same dropout masks, at batches with the acceptance corpus's L = 50
        for seed, batch in ((0, 1), (1, 29), (2, 43), (3, 64)):
            det, rm = DetectorModel(seed=seed), np.random.default_rng(6000 + seed)
            xm, ym = rm.normal(size=(batch, 50, 32)), Tensor(rm.integers(0, 2, size=(batch, 1)).astype(float))
            runs = []
            for dtype in (np.float32, np.float64):
                monkeypatch.setattr(detector_module, "TRAIN_DTYPE", dtype)
                loss = lambda: nn.bce_loss(det.forward_batch(xm, training=True, rng=np.random.default_rng(seed)), ym)
                runs.append((loss().item(), gradients(loss, det.params)))
            (loss32, got), (loss64, want) = runs
            assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
            assert len(want) == 24 and all(
                np.linalg.norm(got[k] - want[k]) <= 1e-5 * np.linalg.norm(want[k]) for k in want)
        monkeypatch.undo()

        # the fused encoder stack: all 14 gradients against finite differences at
        # W = 2, 4 and 50, then the loss and gradients equal to the unfused
        # linear/gcn_conv/relu tape's on 200 random windows in both byte modes
        r = np.random.default_rng(3000)
        for w in (2, 4, 50):
            enc, g = EncoderModel(seed=w), random_path_graph(w=w, seed=w)
            assert_gradients_match(
                lambda: nn.mse_loss(enc.forward(g), Tensor(g.node_features)),
                enc.parameters(), max_coords=8, rng=r)
        for i in range(200):
            w = int(r.integers(2, 80))
            frames = FrameTable(timestamp=np.arange(w) * 1e-3, arbitration_id=np.full(w, 0x100),
                                dlc=r.integers(0, 9, size=w).astype(np.uint8),
                                payload=r.integers(0, 256, size=(w, 8)).astype(np.uint8),
                                label=np.zeros(w, np.int8))
            g = build_graph(make_windows(frames, w)[0], (ByteMode.BINARIZED, ByteMode.NORMALIZED)[i % 2])
            enc = EncoderModel(seed=i)
            fused, tape = (lambda: nn.mse_loss(enc.forward(g), Tensor(g.node_features)),
                           lambda: nn.mse_loss(unfused_encoder_forward(enc, g)[1],
                                               Tensor(g.node_features)))
            assert fused().item() == tape().item()
            got, want = gradients(fused, enc.params), gradients(tape, enc.params)
            assert len(want) == 14 and all(np.array_equal(got[k], want[k]) for k in want)

        # the encoder's tapeless training step: at every step of a 3-epoch run on random
        # W = 50 graphs, with Adam moving the weights, its loss and the 14 gradients it
        # writes into model.grad equal the fused tape's under ==
        enc = EncoderModel(seed=7)
        graphs = [random_path_graph(w=50, seed=100 + i) for i in range(12)]
        for _ in range(3):
            for g in graphs:
                want_loss = nn.mse_loss(enc.forward(g), Tensor(g.node_features)).item()
                want = gradients(lambda: nn.mse_loss(enc.forward(g), Tensor(g.node_features)),
                                 enc.params)
                for p in enc.parameters():
                    p.grad = None
                enc.grad[...] = np.nan
                assert encoder_module._reconstruction_loss(enc, g, backward=True) == want_loss
                assert all(p.grad is p.grad_buffer for p in enc.parameters())
                assert len(want) == 14 and all(np.array_equal(enc.params[k].grad, want[k]) for k in want)
                nn.adam_step(enc, lr=1e-2)
        assert time.monotonic() - t0 < 30.0


# --- criterion 2: structural oracles ------------------------------------------

def _table(n):
    i = np.arange(n)
    return FrameTable(timestamp=i * 1e-3, arbitration_id=0x100 + i % 7,
                      dlc=np.full(n, 8, np.uint8),
                      payload=np.repeat((i % 256).astype(np.uint8)[:, None], 8, axis=1),
                      label=np.zeros(n, np.int8))


def test_criterion_2_structural_oracles(capfd):
    with criterion(2, "structural oracles (windowing, graph sizes, sequences)", capfd):
        rng = np.random.default_rng(2)
        # (a) window partition on 1000 random (n, W)
        for _ in range(1000):
            n = int(rng.integers(0, 400))
            w = int(rng.integers(2, 60))
            windows = make_windows(_table(n), w)
            assert len(windows) == n // w
            assert all(win.size == w for win in windows)
            covered = sum(win.size for win in windows)
            assert n - covered == n % w  # trailing remainder discarded

        # (b) node counts and path topology on the supported window sizes
        for w in (50, 75, 100, 125, 150):
            (window,) = make_windows(_table(w), w)
            g = build_graph(window)
            assert g.num_nodes == w
            nodes = np.arange(w)
            band = np.abs(nodes[:, None] - nodes[None, :]) <= 1  # path edges + self-loops
            assert np.array_equal(normalized_adjacency(g.num_nodes) != 0, band)

        # (c) sequence count and any-attack label vs brute force, all m <= 20
        for m in range(1, 21):
            for length in range(1, m + 1):
                labels = rng.integers(0, 2, size=m).tolist()
                embs = toy_embeddings(labels)
                vectors, seq_labels = make_sequences(embs, length)
                assert len(vectors) == len(seq_labels) == m - length + 1
                for s_i, label in enumerate(seq_labels):
                    brute = 1 if any(labels[s_i:s_i + length]) else 0
                    assert label == brute
                    # row s_i holds windows s_i .. s_i + length - 1, in order
                    assert np.array_equal(vectors[s_i],
                                          np.stack([e.vector for e in embs[s_i:s_i + length]]))


# --- criterion 3: entropy oracles ---------------------------------------------

def _count_entropy(counts) -> float:
    """entropy_sweep's entropy of one window holding counts[k] frames of ID k, in a
    shuffled order."""
    ids = np.random.default_rng(len(counts)).permutation(np.repeat(np.arange(len(counts)),
                                                                   counts))
    t = _table(len(ids))
    (s,) = entropy_sweep(FrameTable(t.timestamp, ids, t.dlc, t.payload, t.label), [len(ids)])
    return s.mean


def test_criterion_3_entropy_oracles(capfd):
    with criterion(3, "entropy oracles (closed forms, random counts, sweep shape)", capfd):
        assert _count_entropy([50]) == 0.0
        assert _count_entropy([10, 10, 10, 10]) == pytest.approx(2.0, abs=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(200):
            counts = rng.integers(1, 100, size=int(rng.integers(1, 12)))
            p = counts / counts.sum()
            expected = float(-(p * np.log2(p)).sum())
            assert _count_entropy(counts) == pytest.approx(expected, abs=1e-12)

        sizes = [10, 20, 40, 80]
        stats = entropy_sweep(_table(2000), sizes)
        assert [s.window_size for s in stats] == sizes
        assert stats[0].growth_rate is None       # first size carries no rate
        assert all(s.growth_rate is not None for s in stats[1:])
        for s in stats:
            assert 0.0 <= s.mean <= math.log2(s.window_size)


# --- criterion 4: AUC oracle --------------------------------------------------

def _pairwise_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return total / (len(pos) * len(neg))


def test_criterion_4_auc_oracle(capfd):
    with criterion(4, "AUC equals the O(n^2) pairwise oracle exactly", capfd):
        for trial in range(100):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 2)  # quantized to force ties
            assert auc_score(scores, labels) == _pairwise_auc(scores.tolist(),
                                                              labels.tolist())


# --- criterion 5: overfit sanity ----------------------------------------------

def test_criterion_5_overfit(capfd):
    with criterion(5, "overfit checks (encoder MSE < 1e-3, detector BCE < 0.05)", capfd):
        t0 = time.monotonic()
        graphs = [random_path_graph(w=6, seed=1, index=i) for i in range(20)]
        _, enc_log = train_encoder(graphs, PipelineConfig(values=dict(
            encoder_epochs=200, encoder_lr=1e-2, encoder_patience=200, encoder_seed=0)))
        assert enc_log["history"][-1]["train_loss"] < 1e-3

        labels = ([0] * 6 + [1] * 2) * 4
        vectors, seq_labels = make_sequences(toy_embeddings(labels), 3)
        seqs = (vectors[:20], seq_labels[:20])
        assert set(seq_labels[:20]) == {0, 1}
        _, det_log = train_detector(DetectorModel(seed=0), seqs, seqs, PipelineConfig(values=dict(
            detector_epochs=500, detector_lr=5e-3, detector_batch=8, detector_patience=500,
            detector_seed=0)))
        assert det_log["history"][-1]["train_loss"] < 0.05
        assert time.monotonic() - t0 < 120.0


# --- criterion 6: end-to-end detection on the bundled corpus -------------------

def _segment_aucs(report, splits, length):
    kinds_by_index = {w.index: attack_kinds(w) for w in splits["test"]}
    aucs = {}
    for kind in ("Flooding", "Fuzzing", "Replay", "Spoofing"):
        scores, labels = [], []
        for start, prob, _, _ in report.sequence_rows:
            kinds = set()
            for w in range(start, start + length):
                kinds |= {k.value for k in kinds_by_index.get(w, set())}
            if not kinds:
                scores.append(prob)
                labels.append(0)
            elif kinds == {kind}:
                scores.append(prob)
                labels.append(1)
        assert sum(labels) > 0, f"no pure {kind} sequences in the test split"
        aucs[kind] = auc_score(scores, labels)
    return aucs


def test_criterion_6_end_to_end(end_to_end, capfd):
    with criterion(6, "end-to-end detection on the bundled synthetic corpus", capfd):
        cfg, report, splits, elapsed = end_to_end
        assert elapsed < 15 * 60.0
        aucs = _segment_aucs(report, splits, cfg.sequence_length)
        assert aucs["Flooding"] >= 0.95, aucs
        assert aucs["Fuzzing"] >= 0.95, aucs
        assert aucs["Replay"] >= 0.70, aucs
        assert aucs["Spoofing"] >= 0.70, aucs
        seq_auc = report.metrics["sequence"].auc
        max_auc = report.metrics["max"].auc
        assert seq_auc is not None and max_auc is not None
        assert abs(seq_auc - max_auc) <= 0.10, (seq_auc, max_auc)


# --- criterion 7: determinism across full runs ---------------------------------

DETERMINISM_CFG = """
synth_duration = 6
synth_jitter = 0.05
synth_seed = 11
ecu1 = 0x100 2 8 counter
ecu2 = 0x1A0 4 6 mixed
ecu3 = 0x2C0 5 8 walk
ecu4 = 0x090 10 8 const
attack1 = flooding 0.8 0.2 rate=2000
attack2 = fuzzing 1.6 0.3 rate=600
attack3 = replay 2.6 0.3 span=0.1:0.4
attack4 = spoofing 3.4 0.4 rate=300 target=0x090 mutate=3:1:255
attack5 = flooding 4.6 0.2 rate=2000
attack6 = fuzzing 5.2 0.3 rate=600
window_size = 50
sequence_length = 10
encoder_epochs = 3
encoder_patience = 3
detector_epochs = 4
detector_patience = 4
"""

ARTIFACTS = ("encoder.ckpt", "detector.ckpt",
             "embeddings_train.csv", "embeddings_val.csv", "embeddings_test.csv",
             "detect_sequence.csv", "detect_mean.csv", "detect_max.csv",
             "summary.txt", "entropy_sweep.csv")


def test_criterion_7_determinism(tmp_path, capfd):
    with criterion(7, "two identical full runs produce byte-identical artifacts", capfd):
        digests = []
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            log = root / "traffic.csv"
            cfg = root / "run.cfg"
            cfg.write_text(DETERMINISM_CFG + f"synth_output = {log}\n"
                           f"input_log = {log}\nwork_dir = {root / 'work'}\n"
                           "entropy_sizes = 10,20,50\n")
            assert main(["synth", "--config", str(cfg)]) == EXIT_OK
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            assert main(["entropy", "--config", str(cfg)]) == EXIT_OK
            digests.append({name: hashlib.sha256((root / "work" / name).read_bytes()).hexdigest()
                            for name in ARTIFACTS})
        assert digests[0] == digests[1]


# --- criterion 8: official dataset (conditional) --------------------------------

def test_criterion_8_official_dataset(tmp_path, capfd):
    with criterion(8, "official dataset reproduction (CANIDS_DATASET)", capfd):
        dataset = os.environ.get("CANIDS_DATASET")
        if not dataset:
            pytest.skip("set CANIDS_DATASET to the official log file to enable")
        cfg = PipelineConfig()
        cfg.set("input_log", dataset)
        cfg.set("work_dir", str(tmp_path / "work"))
        cfg.set("window_size", "50")
        cfg.set("sequence_length", "50")
        cfg.validate()
        report = run_pipeline(cfg)[0]()
        seq = report.metrics["sequence"]
        mean = report.metrics["mean"]
        assert seq.auc is not None and seq.auc >= 0.95
        assert seq.f1 >= 0.90
        assert mean.recall < seq.recall


# --- criterion 9: aggregation properties ----------------------------------------

def test_criterion_9_aggregation(end_to_end, capfd):
    with criterion(9, "max >= mean per window; threshold monotonicity", capfd):
        cfg, report, splits, _ = end_to_end
        by_index = {row[0]: row[1] for row in report.mean_rows}
        for index, max_score, _, _ in report.max_rows:
            assert max_score >= by_index[index] - 1e-12
            assert 0.0 < by_index[index] < 1.0 and 0.0 < max_score < 1.0

        # threshold sweep over a slice of the test embeddings for speed
        model = DetectorModel(seed=cfg.detector_seed)
        model.load(os.path.join(cfg.work_dir, "detector.ckpt"))
        from canids.encoder import read_embeddings_csv
        embs = read_embeddings_csv(os.path.join(cfg.work_dir, "embeddings_test.csv"))
        embs = embs[:cfg.sequence_length + 150]
        prev = {view: None for view in ("sequence", "mean", "max")}
        for thr in [round(0.1 * k, 1) for k in range(1, 10)]:
            rep = detect(model, embs, cfg.sequence_length, threshold=thr)
            for view in prev:
                positives = sum(row[2] for row in rep.view_rows(view))
                if prev[view] is not None:
                    assert positives <= prev[view]
                prev[view] = positives
