import logging
from pathlib import Path

import pytest

from canids import pipeline
from canids.analysis import compute_metrics
from canids.config import PipelineConfig
from canids.detector import DetectionReport


def fake_report():
    metrics = {view: compute_metrics([0, 1], [0, 1], [0.2, 0.8]) for view in ("sequence", "mean", "max")}
    return DetectionReport(threshold=0.5, sequence_rows=[], mean_rows=[], max_rows=[],
                           metrics=metrics)


def test_sweep_skips_diverged_cell(tmp_path, monkeypatch, caplog):
    def run_pipeline(cfg):
        if (cfg.window_size, cfg.sequence_length) == (20, 5):
            raise FloatingPointError("detector training diverged at epoch 0")
        return fake_report(), None

    monkeypatch.setattr(pipeline, "run_pipeline", run_pipeline)
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    cfg.set("sweep_window_sizes", "10,20")
    cfg.set("sweep_sequence_lengths", "5,8")
    with caplog.at_level(logging.WARNING):
        out = pipeline.run_sweep(cfg)
    cells = [tuple(line.split(",")[:2]) for line in out.read_text().splitlines()[1:]]
    assert cells == [("10", "5")] * 3 + [("10", "8")] * 3 + [("20", "8")] * 3
    assert any("(w=20, l=5) skipped" in r.getMessage() for r in caplog.records)


def test_failed_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    ws = pipeline.Workspace(cfg)
    ws.mark("preprocess", "abc")
    before = ws.manifest_path.read_bytes()

    def half_write(path, data):
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_write)
    with pytest.raises(OSError, match="disk full"):
        ws.mark("embed", "def")
    monkeypatch.undo()
    assert ws.manifest_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert pipeline.Workspace(cfg).manifest == {"preprocess": "abc"}
