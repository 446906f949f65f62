"""Stage orchestration: wiring ingest -> graph -> encoder -> detector -> analysis.

Every stage in `STAGES` writes its artifacts into the work dir (each through a temp
file and a rename) and records its input hash, and the sha256 of each CSV or text
output, in manifest.json. A stage is skipped on rerun only when its input hash
matches and those outputs still have their recorded digests, so stale or truncated
intermediates are rebuilt.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
from collections import namedtuple
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

# A stage's digest covers its config `keys`, its `upstream` stages' digests and, for
# `preprocess`, the log's bytes. The manifest records the sha256 of its `outputs`;
# its `checkpoints` need only exist, as loading one rejects a corrupt file.
Stage = namedtuple("Stage", "keys upstream outputs checkpoints", defaults=((), ()))

# Every stage in run order; `windows` is the dump only `canids preprocess` writes.
STAGES = {
    "preprocess": Stage(("input_log", "window_size", "train_ratio", "val_ratio",
                         "test_ratio"), ()),
    "windows": Stage((), ("preprocess",), tuple(f"windows_{s}.csv" for s in SPLITS)),
    "train-encoder": Stage(("byte_mode", "encoder_epochs", "encoder_lr", "encoder_patience",
                            "encoder_seed", "grad_clip"), ("preprocess",),
                           checkpoints=("encoder.ckpt",)),
    "embed": Stage(("byte_mode",), ("train-encoder",),
                   tuple(f"embeddings_{s}.csv" for s in SPLITS)),
    "train-detector": Stage(("sequence_length", "detector_epochs", "detector_lr",
                             "detector_batch", "detector_patience", "detector_seed",
                             "grad_clip"), ("embed",), checkpoints=("detector.ckpt",)),
    "detect": Stage(("sequence_length", "threshold"), ("train-detector",),
                    tuple(f"detect_{v}.csv" for v in VIEWS) + ("summary.txt",)),
}


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

    def stage_hash(self, stage: str) -> str:
        spec = STAGES[stage]
        blob = {k: self.config.values[k] for k in spec.keys}
        blob["_upstream"] = [self.manifest.get(u, "") for u in spec.upstream]
        if stage == "preprocess":
            p = Path(self.config.input_log)
            blob["_input"] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else ""
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
        text = json.dumps(self.manifest, indent=1, sort_keys=True)
        nn.write_atomic(self.manifest_path, text.encode())

    def check(self, stage: str):
        """(digest, hit): the stage's digest for this config, and whether it is fresh."""
        spec = STAGES[stage]
        digest = self.stage_hash(stage)
        return digest, self.fresh(stage, digest, spec.outputs, spec.checkpoints)


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
    if not Path(config.input_log).is_file():
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


def stage_preprocess(ws: Workspace):
    """Record the preprocess digest and return the splits as a cached call, so that
    they are made only if a later stage misses. The digest covers the log's bytes and
    the window and split keys; it does not validate the log, which is parsed (and
    rejected if missing or empty) only when a stage needs frames."""
    digest, hit = ws.check("preprocess")
    if not hit:
        ws.mark("preprocess", digest)
    return functools.cache(lambda: prepare_splits(ws.config))


def _graphs_for(split_windows, config: PipelineConfig):
    mode = ByteMode(config.byte_mode)
    return [build_graph(w, mode) for w in split_windows]


def _train_stage(ws: Workspace, stage: str, model, train):
    """Load the stage's checkpoint into `model` on a hit. Otherwise `train()` returns
    (model, record); save that model and write `<model>_log.csv` from its history."""
    digest, hit = ws.check(stage)
    ckpt = ws.path(STAGES[stage].checkpoints[0])
    if hit:
        model.load(ckpt)
        return model
    model, record = train()
    model.save(ckpt)
    rows = record["history"]
    text = ",".join(rows[0]) + "\n" + "".join(",".join(map(repr, r.values())) + "\n" for r in rows)
    nn.write_atomic(ckpt.with_name(f"{ckpt.stem}_log.csv"), text.encode())
    ws.mark(stage, digest)
    return model


def stage_train_encoder(ws: Workspace, splits):
    cfg = ws.config

    def train():
        normal_graphs = _graphs_for([w for w in splits()["train"] if w.label == 0], cfg)
        return train_encoder(normal_graphs, EncoderConfig(
            epochs=cfg.encoder_epochs, lr=cfg.encoder_lr, patience=cfg.encoder_patience,
            seed=cfg.encoder_seed, grad_clip=cfg.grad_clip))

    return _train_stage(ws, "train-encoder", EncoderModel(seed=cfg.encoder_seed), train)


def stage_embed(ws: Workspace, splits, model: EncoderModel):
    digest, hit = ws.check("embed")
    outputs = STAGES["embed"].outputs
    if hit:
        return functools.cache(lambda: {s: read_embeddings_csv(ws.path(o))
                                        for s, o in zip(SPLITS, outputs)})
    embeddings = {}
    for s, name in zip(SPLITS, outputs):
        embeddings[s] = [embed(model, g) for g in _graphs_for(splits()[s], ws.config)]
        write_embeddings_csv(embeddings[s], ws.path(name))
    ws.mark("embed", digest, outputs)
    return lambda: embeddings


def stage_train_detector(ws: Workspace, embeddings):
    cfg = ws.config
    model = DetectorModel(seed=cfg.detector_seed)

    def train():
        train_seqs = make_sequences(embeddings()["train"], cfg.sequence_length)
        val_seqs = make_sequences(embeddings()["val"], cfg.sequence_length)
        return train_detector(model, train_seqs, val_seqs, DetectorConfig(
            epochs=cfg.detector_epochs, lr=cfg.detector_lr, batch_size=cfg.detector_batch,
            patience=cfg.detector_patience, seed=cfg.detector_seed, grad_clip=cfg.grad_clip))

    return _train_stage(ws, "train-detector", model, train)


def stage_detect(ws: Workspace, embeddings, model: DetectorModel):
    cfg = ws.config
    digest, hit = ws.check("detect")
    if hit:
        return read_report_csvs(ws.dir, cfg.threshold)
    report = detect(model, embeddings()["test"], cfg.sequence_length, cfg.threshold)
    write_report_csvs(report, ws.dir)
    text = summary_table(report, cfg.window_size, cfg.sequence_length)
    nn.write_atomic(ws.path("summary.txt"), (text + "\n").encode())
    ws.mark("detect", digest, STAGES["detect"].outputs)
    return report


def current_report(config: PipelineConfig):
    """The recorded report, read once every stage but `windows` is fresh for
    `config`, the log's digest included. Otherwise raises, naming the first stage
    that is not fresh, or its output that fails its sha256. Writes nothing."""
    if not Path(config.work_dir).is_dir():
        raise FileNotFoundError(f"missing {config.work_dir}; run detect first")
    ws = Workspace(config)
    for stage, spec in STAGES.items():
        if stage == "windows":
            continue
        digest, hit = ws.check(stage)
        if hit:
            continue
        broken = [o for o in spec.outputs if not ws.intact(o)]
        if broken and ws.manifest.get(stage) == digest:
            raise ValueError(f"{ws.path(broken[0])} is missing or does not match its sha256 "
                             f"in manifest.json; rerun {stage}")
        raise ValueError(f"stage {stage} is out of date for this config; rerun detect")
    return read_report_csvs(ws.dir, config.threshold)


def run_entropy(config: PipelineConfig) -> Path:
    stats = analysis.entropy_sweep(load_frames(config), config.entropy_sizes)
    out = Path(config.work_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "entropy_sweep.csv"
    analysis.write_entropy_csv(stats, path)
    return path


def run_pipeline(config: PipelineConfig, through: str = "detect"):
    """Run the stages in order through the stage command `through` (`preprocess` also
    writes the windowed splits); returns (DetectionReport or None, Workspace)."""
    ws = Workspace(config)
    splits = stage_preprocess(ws)
    if through == "preprocess":
        digest, hit = ws.check("windows")
        if not hit:
            for s, name in zip(SPLITS, STAGES["windows"].outputs):
                ingest.write_windows_csv(splits()[s], ws.path(name))
            ws.mark("windows", digest, STAGES["windows"].outputs)
        return None, ws
    enc = stage_train_encoder(ws, splits)
    if through == "train-encoder":
        return None, ws
    embeddings = stage_embed(ws, splits, enc)
    if through == "embed":
        return None, ws
    det = stage_train_detector(ws, embeddings)
    if through == "train-detector":
        return None, ws
    return stage_detect(ws, embeddings, det), ws


def run_sweep(config: PipelineConfig) -> Path:
    """Grid over (window size, sequence length); one summary row per view per cell."""
    base_dir = Path(config.work_dir)
    base_dir.mkdir(parents=True, exist_ok=True)
    out = base_dir / "sweep_summary.csv"
    with nn.atomic_path(out) as tmp, tmp.open("w") as fh:
        fh.write("window_size,sequence_length,type,accuracy,precision,recall,f1,auc\n")
        for w in config.sweep_window_sizes:
            for l in config.sweep_sequence_lengths:
                sub = PipelineConfig(values=dict(config.values, window_size=w, sequence_length=l,
                                                 work_dir=str(base_dir / f"w{w}_l{l}")),
                                     ecus=dict(config.ecus), attacks=dict(config.attacks))
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
