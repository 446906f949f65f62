"""The benchmark's span tracer must find every function it patches, and see every
Adam step the trainers take."""
import importlib.util
from pathlib import Path

import numpy as np

from canids import detector, encoder
from canids.config import PipelineConfig
from canids.graph import build_graph

from conftest import normal_frames, windows_from

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.Tracer()


def test_tracer_patches_every_span():
    t = load_tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()


def test_tracer_counts_each_trainers_adam_steps():
    # a step the tracer cannot see would zero the *.train_steps / *.train_batches metrics
    graphs = [build_graph(w) for w in windows_from(normal_frames(50), 5)]
    rng = np.random.default_rng(0)
    seqs = rng.normal(size=(12, 4, encoder.EMBED_DIM)), np.arange(12) % 2
    val = rng.normal(size=(4, 4, encoder.EMBED_DIM)), np.arange(4) % 2
    t = load_tracer()
    try:
        t.install()
        cfg = PipelineConfig(values=dict(encoder_epochs=2, detector_epochs=2, detector_batch=5))
        t.op(0, lambda: encoder.train_encoder(graphs, cfg))
        model = detector.DetectorModel(seed=0)
        t.op(1, lambda: detector.train_detector(model, seqs, val, cfg))
    finally:
        t.uninstall()
    # 9 training graphs (one of 10 is held out) and 3 batches of 12 sequences, twice each
    assert t.summary()["steps"] == {"encoder.train_encoder": 18, "detector.train_detector": 6}
