"""Stage orchestration: wiring ingest -> graph -> encoder -> detector -> analysis.

Every stage writes its artifacts into the work dir (each through a temp file and a
rename) and records its input hash, and the sha256 of each CSV or text output, in
manifest.json. A stage is skipped on rerun only when its input hash matches and
those outputs still have their recorded digests, so stale or truncated
intermediates are rebuilt.
"""
from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from . import analysis, ingest, nn, synth
from .config import PipelineConfig
from .detector import (VIEWS, DetectorConfig, DetectorModel, detect, make_sequences,
                       read_report_csvs, summary_table, train_detector, write_report_csvs)
from .encoder import (EncoderConfig, EncoderModel, embed, read_embeddings_csv,
                      train_encoder, write_embeddings_csv)
from .frames import LABELS, FrameTable
from .graph import ByteMode, build_graph

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")


class Workspace:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.dir = Path(config.work_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.dir / "manifest.json"
        self.manifest = self._read_manifest()

    def _read_manifest(self) -> dict:
        """The recorded manifest; {} when there is none or it is unreadable, so that
        every stage misses and the run rebuilds."""
        if not self.manifest_path.exists():
            return {}
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except ValueError as e:  # bad JSON or bad UTF-8
            reason = str(e)
        else:
            if isinstance(manifest, dict):
                return manifest
            reason = f"a JSON {type(manifest).__name__}, not an object"
        log.warning("%s is unreadable (%s); treating it as empty, so every stage reruns",
                    self.manifest_path, reason)
        return {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def _save_manifest(self) -> None:
        text = json.dumps(self.manifest, indent=1, sort_keys=True)
        nn.write_atomic(self.manifest_path, text.encode())

    def stage_hash(self, stage: str, keys, upstream=()) -> str:
        blob = {k: self.config.values[k] for k in keys}
        blob["_upstream"] = [self.manifest.get(u, "") for u in upstream]
        if stage == "preprocess":
            p = Path(self.config.input_log)
            blob["_input"] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else ""
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()

    def _sha256(self, name: str) -> str:
        return hashlib.sha256(self.path(name).read_bytes()).hexdigest()

    def intact(self, name: str) -> bool:
        """Whether the output file exists and still has the sha256 recorded by `mark`."""
        return self.path(name).exists() and self.manifest.get(name) == self._sha256(name)

    def fresh(self, stage: str, digest: str, outputs=(), checkpoints=()) -> bool:
        """Whether the stage ran on these inputs and its outputs are intact. A
        checkpoint need only exist, as loading one rejects a truncated or corrupt
        file (CheckpointError)."""
        return (self.manifest.get(stage) == digest
                and all(self.intact(o) for o in outputs)
                and all(self.path(c).exists() for c in checkpoints))

    def mark(self, stage: str, digest: str, outputs=()) -> None:
        """Record the stage's input hash and each output file's sha256."""
        self.manifest[stage] = digest
        self.manifest.update({o: self._sha256(o) for o in outputs})
        self._save_manifest()


def run_synth(config: PipelineConfig) -> Path:
    """Generate normal traffic, inject configured attacks, write a labeled CSV log."""
    profile = config.traffic_profile()
    table = synth.generate_normal(profile)
    for i, spec in enumerate(config.attack_specs()):
        table = synth.inject(table, spec, seed=config.synth_seed + 1000 + i)
    out = Path(config.synth_output)
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest.write_log(table, out)
    counts = np.bincount(table.label, minlength=len(LABELS)).tolist()
    total = len(table)
    print(f"{'Type':<10} {'Records':>10}  Ratio")
    for label, c in zip(LABELS, counts):
        if c:
            print(f"{label.value:<10} {c:>10}  {100.0 * c / total:.2f}%")
    print(f"{'Total':<10} {total:>10}")
    return out


def load_frames(config: PipelineConfig) -> FrameTable:
    """Parse the input log into one frame table."""
    if not config.input_log or not Path(config.input_log).exists():
        raise FileNotFoundError(f"input log not found: {config.input_log!r}")
    table = ingest.parse_log(config.input_log)
    if not len(table):
        raise ValueError(f"input log {config.input_log} is empty")
    return table


def prepare_splits(config: PipelineConfig):
    """Parse, window, and split the input log chronologically."""
    windows = ingest.make_windows(load_frames(config), config.window_size)
    train, val, test = ingest.split_dataset(windows, config.ratios())
    return {"train": train, "val": val, "test": test}


class Lazy:
    """The dict `make()` returns, made on the first lookup and kept. Stages hand on
    the splits and cached embeddings this way, so they are made or read only when a
    later stage misses."""

    def __init__(self, make):
        self._make, self._made = make, None

    def __getitem__(self, name: str):
        if self._made is None:
            self._made = self._make()
        return self._made[name]


def stage_preprocess(ws: Workspace):
    """Record the preprocess digest and return lazy splits. The digest covers the
    log's bytes and the window and split keys; it does not validate the log, which
    is parsed (and rejected if missing or empty) only when a stage needs frames."""
    digest = ws.stage_hash("preprocess", ["input_log", "window_size",
                                          "train_ratio", "val_ratio", "test_ratio"])
    if not ws.fresh("preprocess", digest):
        ws.mark("preprocess", digest)
    return Lazy(lambda: prepare_splits(ws.config))


def _graphs_for(split_windows, config: PipelineConfig):
    mode = ByteMode(config.byte_mode)
    return [build_graph(w, mode) for w in split_windows]


def stage_train_encoder(ws: Workspace, splits):
    cfg = ws.config
    digest = ws.stage_hash("train-encoder",
                           ["byte_mode", "encoder_epochs", "encoder_lr",
                            "encoder_patience", "encoder_seed", "grad_clip"],
                           upstream=("preprocess",))
    ckpt = "encoder.ckpt"
    model = EncoderModel(seed=cfg.encoder_seed)
    if ws.fresh("train-encoder", digest, checkpoints=[ckpt]):
        model.load(ws.path(ckpt))
        return model
    normal_graphs = _graphs_for([w for w in splits["train"] if w.label == 0], cfg)
    if not normal_graphs:
        raise ValueError("no normal windows in the training split to train the encoder on")
    model, train_log = train_encoder(normal_graphs, EncoderConfig(
        epochs=cfg.encoder_epochs, lr=cfg.encoder_lr, patience=cfg.encoder_patience,
        seed=cfg.encoder_seed, grad_clip=cfg.grad_clip))
    model.save(ws.path(ckpt))
    nn.write_atomic(ws.path("encoder_log.csv"), ("epoch,train_loss,val_loss\n" + "".join(
        f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r}\n"
        for row in train_log["history"])).encode())
    ws.mark("train-encoder", digest)
    return model


def stage_embed(ws: Workspace, splits, model: EncoderModel):
    digest = ws.stage_hash("embed", ["byte_mode"], upstream=("train-encoder",))
    outputs = [f"embeddings_{s}.csv" for s in SPLITS]
    if ws.fresh("embed", digest, outputs):
        return Lazy(lambda: {s: read_embeddings_csv(ws.path(o)) for s, o in zip(SPLITS, outputs)})
    embeddings = {}
    for s in SPLITS:
        graphs = _graphs_for(splits[s], ws.config)
        embeddings[s] = [embed(model, g) for g in graphs]
        write_embeddings_csv(embeddings[s], ws.path(f"embeddings_{s}.csv"))
    ws.mark("embed", digest, outputs)
    return embeddings


def stage_train_detector(ws: Workspace, embeddings):
    cfg = ws.config
    digest = ws.stage_hash("train-detector",
                           ["sequence_length", "detector_epochs", "detector_lr",
                            "detector_batch", "detector_patience", "detector_seed",
                            "grad_clip"],
                           upstream=("embed",))
    ckpt = "detector.ckpt"
    model = DetectorModel(seed=cfg.detector_seed)
    if ws.fresh("train-detector", digest, checkpoints=[ckpt]):
        model.load(ws.path(ckpt))
        return model
    train_seqs = make_sequences(embeddings["train"], cfg.sequence_length)
    val_seqs = make_sequences(embeddings["val"], cfg.sequence_length)
    model, train_log = train_detector(model, train_seqs, val_seqs, DetectorConfig(
        epochs=cfg.detector_epochs, lr=cfg.detector_lr, batch_size=cfg.detector_batch,
        patience=cfg.detector_patience, seed=cfg.detector_seed, grad_clip=cfg.grad_clip))
    model.save(ws.path(ckpt))
    nn.write_atomic(ws.path("detector_log.csv"), ("epoch,train_loss,val_f1\n" + "".join(
        f"{row['epoch']},{row['train_loss']!r},{row['val_f1']!r}\n"
        for row in train_log["history"])).encode())
    ws.mark("train-detector", digest)
    return model


def stage_detect(ws: Workspace, embeddings, model: DetectorModel):
    cfg = ws.config
    digest = ws.stage_hash("detect", ["sequence_length", "threshold"],
                           upstream=("train-detector",))
    outputs = [f"detect_{v}.csv" for v in VIEWS] + ["summary.txt"]
    if ws.fresh("detect", digest, outputs):
        return read_report_csvs(ws.dir, cfg.threshold)
    report = detect(model, embeddings["test"], cfg.sequence_length, cfg.threshold)
    write_report_csvs(report, ws.dir)
    text = summary_table(report, cfg.window_size, cfg.sequence_length)
    nn.write_atomic(ws.path("summary.txt"), (text + "\n").encode())
    ws.mark("detect", digest, outputs)
    return report


def run_entropy(config: PipelineConfig) -> Path:
    stats = analysis.entropy_sweep(load_frames(config), config.entropy_sizes)
    out = Path(config.work_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "entropy_sweep.csv"
    analysis.write_entropy_csv(stats, path)
    return path


def run_pipeline(config: PipelineConfig):
    """Full pipeline; returns (DetectionReport, Workspace)."""
    ws = Workspace(config)
    splits = stage_preprocess(ws)
    enc = stage_train_encoder(ws, splits)
    embeddings = stage_embed(ws, splits, enc)
    det = stage_train_detector(ws, embeddings)
    report = stage_detect(ws, embeddings, det)
    return report, ws


def run_sweep(config: PipelineConfig) -> Path:
    """Grid over (window size, sequence length); one summary row per view per cell."""
    base_dir = Path(config.work_dir)
    base_dir.mkdir(parents=True, exist_ok=True)
    out = base_dir / "sweep_summary.csv"
    with nn.atomic_path(out) as tmp, tmp.open("w") as fh:
        fh.write("window_size,sequence_length,type,accuracy,precision,recall,f1,auc\n")
        for w in config.sweep_window_sizes:
            for l in config.sweep_sequence_lengths:
                sub = PipelineConfig(values=dict(config.values), ecus=dict(config.ecus),
                                     attacks=dict(config.attacks))
                sub.values["window_size"] = w
                sub.values["sequence_length"] = l
                sub.values["work_dir"] = str(base_dir / f"w{w}_l{l}")
                try:
                    report, _ = run_pipeline(sub)
                except (ValueError, FloatingPointError) as e:
                    log.warning("sweep cell (w=%d, l=%d) skipped: %s", w, l, e)
                    continue
                for view in VIEWS:
                    mb = report.metrics[view]
                    auc = "" if mb.auc is None else repr(mb.auc)
                    fh.write(f"{w},{l},{view},{mb.accuracy!r},{mb.precision!r},"
                             f"{mb.recall!r},{mb.f1!r},{auc}\n")
    return out
