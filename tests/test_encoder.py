import logging

import numpy as np
import pytest

from canids import nn
from canids.config import PipelineConfig
from canids.encoder import (EncoderModel, GraphEmbedding, embed, read_embeddings_csv,
                            train_encoder, write_embeddings_csv)
from canids.frames import Label
from canids.graph import ByteMode, WindowGraph, build_graph

from conftest import make_frame, normal_frames, windows_from
from gradcheck import assert_gradients_match, global_mean_pool, unfused_encoder_forward


def random_graph(w=6, seed=0, label=0, index=0):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(w, 9)).astype(float)
    feats[:, 0] = rng.integers(0, 9, size=w) / 8.0
    return WindowGraph(node_features=feats, label=label, window_index=index)


class TestForward:
    def test_shapes(self):
        (window,) = windows_from(normal_frames(50), 50)
        g = build_graph(window)
        model = EncoderModel(seed=0)
        node_emb, recon = model.encode(g), model.forward(g)
        assert node_emb.shape == (50, 32)
        assert recon.shape == (50, 9)

    def test_zero_features_zero_bias_zero_reconstruction(self):
        model = EncoderModel(seed=0)
        for name, p in model.params.items():
            if name.endswith("_b"):
                p.data[...] = 0.0
        g = random_graph()
        g.node_features[...] = 0.0
        node_emb, recon = model.encode(g), model.forward(g)
        assert np.all(node_emb.data == 0.0)
        assert np.all(recon.data == 0.0)

    def test_wrong_feature_width(self):
        g = random_graph()
        g.node_features = np.zeros((6, 5))
        with pytest.raises(ValueError, match="9"):
            EncoderModel(seed=0).forward(g)

    def test_overcomplete_structure(self):
        model = EncoderModel(seed=0)
        assert model.params["enc1_w"].data.shape == (9, 16)   # latent 16 > input 9
        assert model.params["gcn3_w"].data.shape == (32, 32)
        assert model.params["dec2_w"].data.shape == (16, 9)

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_gradients(self, seed):
        import canids.nn as nn
        model = EncoderModel(seed=seed)
        g = random_graph(w=4, seed=seed)
        rng = np.random.default_rng(seed)
        assert_gradients_match(
            lambda: nn.mse_loss(model.forward(g), nn.Tensor(g.node_features)),
            model.parameters(), rtol=1e-4, max_coords=6, rng=rng)


class TestTraining:
    def test_overfits_identical_graphs(self):
        graphs = [random_graph(w=6, seed=1, index=i) for i in range(20)]
        model, log = train_encoder(graphs, PipelineConfig(values=dict(
            encoder_epochs=200, encoder_lr=1e-2, encoder_patience=200, encoder_seed=0)))
        assert log["history"][-1]["train_loss"] < 1e-3

    def test_best_epoch_not_worse_than_first(self):
        graphs = [random_graph(w=6, seed=i, index=i) for i in range(10)]
        model, log = train_encoder(graphs, PipelineConfig(values=dict(encoder_epochs=20, encoder_seed=0)))
        hist = log["history"]
        assert all(np.isfinite(h["train_loss"]) for h in hist)
        best = hist[log["best_epoch"]]["val_loss"]
        assert best <= hist[0]["val_loss"]

    def test_determinism(self, tmp_path):
        graphs = [random_graph(w=5, seed=i, index=i) for i in range(8)]
        m1, _ = train_encoder(graphs, PipelineConfig(values=dict(encoder_epochs=5, encoder_seed=3)))
        m2, _ = train_encoder(graphs, PipelineConfig(values=dict(encoder_epochs=5, encoder_seed=3)))
        m1.save(tmp_path / "a.ckpt")
        m2.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_logs_one_line_per_epoch(self, caplog):
        graphs = [random_graph(w=5, seed=i, index=i) for i in range(8)]
        with caplog.at_level(logging.INFO, logger="canids.encoder"):
            _, log = train_encoder(graphs, PipelineConfig(values=dict(encoder_epochs=3, encoder_seed=0)))
        lines = [r.getMessage() for r in caplog.records if r.name == "canids.encoder"]
        assert len(lines) == log["epochs_run"] == 3
        for epoch, (line, row) in enumerate(zip(lines, log["history"])):
            assert line.startswith(f"encoder epoch {epoch}: train loss ")
            assert f"{row['train_loss']:.6g}" in line and f"val loss {row['val_loss']:.6g}" in line
            assert line.endswith(" s")

    def test_rejects_attack_graphs(self):
        graphs = [random_graph(index=0), random_graph(label=1, index=1)]
        with pytest.raises(ValueError, match="normal-only"):
            train_encoder(graphs, PipelineConfig())


def recorded_ops(root) -> int:
    """How many tape nodes the graph behind `root` holds."""
    seen, stack, count = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += t.backward_fn is not None
            stack.extend(t.parents)
    return count


class TestFusedPath:
    def test_a_step_records_two_ops_and_inference_none(self):
        model, g = EncoderModel(seed=0), random_graph(w=6)
        assert recorded_ops(nn.mse_loss(model.forward(g), nn.Tensor(g.node_features))) == 2
        with nn.no_grad():
            assert recorded_ops(model.forward(g)) == recorded_ops(model.encode(g)) == 0

    def test_unfused_ops_are_not_on_the_encoder_path(self, monkeypatch, tmp_path):
        """Training, validation and embed run the fused stack; linear and gcn_conv are
        only the oracle's, whose checkpoint and embeddings it reproduces."""
        graphs = [random_graph(w=5 + i % 3, seed=i, index=i) for i in range(10)]
        config = PipelineConfig(values=dict(encoder_epochs=1, encoder_seed=2))
        with monkeypatch.context() as m:
            m.setattr(EncoderModel, "forward", lambda self, g: unfused_encoder_forward(self, g)[1])
            oracle, oracle_log = train_encoder(graphs, config)
        with nn.no_grad():
            want = [global_mean_pool(unfused_encoder_forward(oracle, g)[0]).data.reshape(-1)
                    for g in graphs]

        def refuse(*args):
            raise AssertionError("an unfused op ran on the encoder path")

        for name in ("linear", "gcn_conv"):
            monkeypatch.setattr(nn, name, refuse)
            monkeypatch.setattr(nn.ops, name, refuse)
        model, log = train_encoder(graphs, config)
        assert log == oracle_log
        oracle.save(tmp_path / "oracle.ckpt")
        model.save(tmp_path / "fused.ckpt")
        assert (tmp_path / "fused.ckpt").read_bytes() == (tmp_path / "oracle.ckpt").read_bytes()
        for g, vector in zip(graphs, want, strict=True):
            assert np.array_equal(embed(model, g).vector, vector)


class TestEmbed:
    def test_uniform_node_embeddings_pool_to_themselves(self):
        model = EncoderModel(seed=0)
        g = random_graph(w=2)
        g.node_features[1] = g.node_features[0]  # identical rows on a 2-path
        node_emb = model.encode(g)
        e = embed(model, g)
        assert np.allclose(node_emb.data[0], node_emb.data[1])
        assert e.vector == pytest.approx(node_emb.data[0])

    def test_embed_does_not_run_the_decoder(self, monkeypatch):
        """forward is encode plus the decoder; embed needs encode alone."""
        model = EncoderModel(seed=0)
        g = random_graph(w=7, seed=3)
        node_emb = model.encode(g)

        def refuse(self, graph):
            raise AssertionError("embed ran the decoder")

        monkeypatch.setattr(EncoderModel, "forward", refuse)
        assert np.array_equal(embed(model, g).vector, node_emb.data.mean(axis=0))

    @pytest.mark.parametrize("w", [50, 75, 100, 125, 150])
    def test_embedding_length_32(self, w):
        (window,) = windows_from(normal_frames(w), w)
        e = embed(EncoderModel(seed=0), build_graph(window))
        assert e.vector.shape == (32,)
        assert np.all(np.isfinite(e.vector))

    def test_order_sensitivity(self):
        # full reversal is a path automorphism, so it cannot change the pooled
        # embedding; any other frame permutation does
        model = EncoderModel(seed=0)
        g = random_graph(w=10, seed=5)
        rev = WindowGraph(node_features=g.node_features[::-1].copy(), label=0, window_index=0)
        assert np.allclose(embed(model, g).vector, embed(model, rev).vector)
        rolled = WindowGraph(node_features=np.roll(g.node_features, 3, axis=0),
                             label=0, window_index=0)
        assert not np.allclose(embed(model, g).vector, embed(model, rolled).vector)

    def test_label_and_index_carried(self):
        g = random_graph(label=1, index=17)
        e = embed(EncoderModel(seed=0), g)
        assert (e.window_index, e.label) == (17, 1)


@pytest.mark.filterwarnings("error")  # a header-only file (an empty split) must not warn
def test_embeddings_csv_round_trip(tmp_path):
    model = EncoderModel(seed=0)
    path = tmp_path / "emb.csv"
    for rows in (0, 1, 4):
        embs = [embed(model, random_graph(w=5, seed=i, index=i, label=i % 2)) for i in range(rows)]
        write_embeddings_csv(embs, path)
        loaded = read_embeddings_csv(path)
        for a, b in zip(embs, loaded, strict=True):
            assert (a.window_index, a.label) == (b.window_index, b.label)
            assert type(b.window_index) is int and type(b.label) is int
            assert b.vector.dtype == np.float64 and b.vector.shape == (32,)
            assert np.array_equal(a.vector, b.vector)  # repr round-trips exactly
