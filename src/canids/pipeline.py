"""Stage orchestration: wiring ingest -> graph -> encoder -> detector -> analysis.

Every stage in `STAGES` runs through `_stage`. A miss writes the stage's files (each
through a temp file and a rename) and records in manifest.json their sha256 and its
input hash, which covers the recorded sha256 of what it reads; a stale or truncated
file is a miss. A later stage reads the product from those files, and `evaluate`
walks the same chain read-only, raising where `run` would rebuild.
"""
from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import logging
import os
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import analysis, ingest, nn, synth
from .config import PipelineConfig
from .detector import (VIEWS, DetectorModel, detect, make_sequences, read_report_csvs,
                       summary_table, train_detector, write_report_csvs)
from .encoder import EncoderModel, embed_graphs, read_embeddings_csv, train_encoder, write_embeddings_csv
from .encoder import embed  # noqa: F401 -- perfbench's tracer patches it here
from .frames import LABELS, FrameTable
from .graph import ByteMode, build_graph

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")

# A stage's digest covers its config `keys`, its code `version` (bump it when the code
# changes the bytes it writes), the manifest entries of its `upstream` (the files it reads
# or the `preprocess` digest) and, for `preprocess`, the log's bytes. `outputs` are its files.
Stage = namedtuple("Stage", "keys upstream outputs version", defaults=((), 1))

# Every stage in run order; `windows` is the dump only `canids preprocess` writes.
STAGES = {
    "preprocess": Stage(("window_size", "train_ratio", "val_ratio", "test_ratio"), ()),
    "windows": Stage((), ("preprocess",), tuple(f"windows_{s}.csv" for s in SPLITS)),
    "train-encoder": Stage(("byte_mode", "encoder_epochs", "encoder_lr", "encoder_patience",
                            "encoder_seed", "grad_clip"), ("preprocess",),
                           ("encoder.ckpt", "encoder_log.csv"), 2),
    "embed": Stage(("byte_mode",), ("preprocess", "encoder.ckpt"),
                   tuple(f"embeddings_{s}.csv" for s in SPLITS)),
    "train-detector": Stage(("sequence_length", "detector_epochs", "detector_lr",
                             "detector_batch", "detector_patience", "detector_seed", "grad_clip"),
                            ("embeddings_train.csv", "embeddings_val.csv"),
                            ("detector.ckpt", "detector_log.csv"), 3),
    "detect": Stage(("sequence_length", "threshold"), ("embeddings_test.csv", "detector.ckpt"),
                    tuple(f"detect_{v}.csv" for v in VIEWS) + ("summary.txt",)),
}


def file_sha256(path) -> str:
    """The file's sha256, read in chunks rather than held whole."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def log_path(config: PipelineConfig) -> Path:
    """The input log, which must exist."""
    if not Path(config.input_log).is_file():
        raise FileNotFoundError(f"input log not found: {config.input_log!r}")
    return Path(config.input_log)


class Workspace:
    def __init__(self, config: PipelineConfig, read_only: bool = False):
        self.config = config
        self.dir, self.read_only = Path(config.work_dir), read_only
        if read_only and not self.dir.is_dir():
            raise FileNotFoundError(f"missing {self.dir}; run detect first")
        self.dir.mkdir(parents=True, exist_ok=True)  # a read-only dir exists already
        self.manifest_path = self.dir / "manifest.json"
        self.manifest = self._read_manifest()

    def _read_manifest(self) -> dict:
        """The recorded manifest; {} when there is none, or, outside a read-only walk, when it
        is unreadable, so that every stage misses and the run rebuilds."""
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
        if self.read_only:
            raise ValueError(f"{self.manifest_path} is unreadable ({reason}); rerun detect")
        log.warning("%s is unreadable (%s); treating it as empty, so every stage reruns",
                    self.manifest_path, reason)
        return {}

    def path(self, name: str) -> Path:
        return self.dir / name

    def stage_hash(self, stage: str) -> str:
        spec = STAGES[stage]
        blob = {k: self.config.values[k] for k in spec.keys}
        blob["_version"] = spec.version
        blob["_upstream"] = [self.manifest.get(u, "") for u in spec.upstream]
        if stage == "preprocess":
            blob["_input"] = file_sha256(log_path(self.config))
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()

    def intact(self, name: str) -> bool:
        """Whether the output file exists and still has the sha256 recorded by `mark`."""
        return self.path(name).exists() and self.manifest.get(name) == file_sha256(self.path(name))

    def fresh(self, stage: str, digest: str, outputs=()) -> bool:
        """Whether the stage ran on these inputs and its outputs are intact."""
        return self.manifest.get(stage) == digest and all(self.intact(o) for o in outputs)

    def mark(self, stage: str, digest: str, outputs=()) -> None:
        """Record the stage's input hash and each output file's sha256."""
        self.manifest[stage] = digest
        self.manifest.update({o: file_sha256(self.path(o)) for o in outputs})
        text = json.dumps(self.manifest, indent=1, sort_keys=True)
        nn.write_atomic(self.manifest_path, text.encode())


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
    table = ingest.parse_log(log_path(config))
    if not len(table):
        raise ValueError(f"input log {config.input_log} is empty")
    return table


def prepare_splits(config: PipelineConfig):
    """Parse, window, and split the input log chronologically."""
    windows = ingest.make_windows(load_frames(config), config.window_size)
    train, val, test = ingest.split_dataset(windows, config.ratios())
    return {"train": train, "val": val, "test": test}


def _stage(ws: Workspace, stage: str, write, read):
    """The one cache rule. On a miss, `write()` writes the stage's outputs, which are then
    marked (a read-only `ws` raises instead); hit or miss, the product is `read()` of those
    outputs, run once on the first call, so a later stage reads what this one recorded."""
    outputs = STAGES[stage].outputs
    digest = ws.stage_hash(stage)
    if not ws.fresh(stage, digest, outputs):
        if ws.read_only:
            broken = [o for o in outputs if not ws.intact(o)] if ws.manifest.get(stage) == digest else []
            raise ValueError(f"{ws.path(broken[0])} is missing or does not match its sha256 in "
                             f"manifest.json; rerun {stage}" if broken else
                             f"stage {stage} is out of date for this config; rerun detect")
        write()
        ws.mark(stage, digest, outputs)
    return functools.cache(read)


def stage_preprocess(ws: Workspace):
    """The splits, made only if a later stage misses. The digest covers the log's bytes
    (a missing log is rejected here) and the window and split keys; the log is parsed,
    and rejected if empty or malformed, only when a stage needs frames."""
    return _stage(ws, "preprocess", lambda: None, lambda: prepare_splits(ws.config))


def _graphs_for(split_windows, config: PipelineConfig):
    mode = ByteMode(config.byte_mode)
    return [build_graph(w, mode) for w in split_windows]


def _train_stage(ws: Workspace, stage: str, new_model, train):
    """On a miss, save the (model, record) that `train()` returns as the stage's two
    outputs, the checkpoint and its per-epoch history. The model handed on is that
    checkpoint loaded into `new_model()`, once and only if a later stage misses."""
    ckpt, history = map(ws.path, STAGES[stage].outputs)

    def write():
        trained, record = train()
        trained.save(ckpt)
        nn.write_csv(history, record["history"][0], (r.values() for r in record["history"]))

    return _stage(ws, stage, write, lambda: new_model().load(ckpt))


def stage_train_encoder(ws: Workspace, splits):
    cfg = ws.config
    return _train_stage(ws, "train-encoder", functools.partial(EncoderModel, seed=cfg.encoder_seed),
                        lambda: train_encoder(_graphs_for(
                            [w for w in splits()["train"] if w.label == 0], cfg), cfg))


def stage_embed(ws: Workspace, splits, model):
    paths = [ws.path(o) for o in STAGES["embed"].outputs]

    def write():
        encoder = model()
        for s, path in zip(SPLITS, paths):
            write_embeddings_csv(embed_graphs(encoder, _graphs_for(splits()[s], ws.config)), path)

    return _stage(ws, "embed", write, lambda: {s: read_embeddings_csv(p) for s, p in zip(SPLITS, paths)})


def stage_train_detector(ws: Workspace, embeddings):
    cfg = ws.config
    new_model = functools.partial(DetectorModel, seed=cfg.detector_seed)

    def train():
        seqs = [make_sequences(embeddings()[s], cfg.sequence_length) for s in ("train", "val")]
        return train_detector(new_model(), *seqs, cfg)

    return _train_stage(ws, "train-detector", new_model, train)


def stage_detect(ws: Workspace, embeddings, model):
    cfg = ws.config

    def write():
        report = detect(model(), embeddings()["test"], cfg.sequence_length, cfg.threshold)
        write_report_csvs(report, ws.dir)
        text = summary_table(report, cfg.window_size, cfg.sequence_length)
        nn.write_atomic(ws.path("summary.txt"), (text + "\n").encode())

    return _stage(ws, "detect", write, lambda: read_report_csvs(ws.dir, cfg.threshold))


def run_entropy(config: PipelineConfig) -> Path:
    frames = load_frames(config)
    stats = analysis.entropy_sweep(frames, config.entropy_sizes)
    if not stats:
        raise ValueError(f"every entropy_sizes entry exceeds the log's {len(frames)} frames")
    out = Path(config.work_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "entropy_sweep.csv"
    analysis.write_entropy_csv(stats, path)
    return path


@contextlib.contextmanager
def _one_writer(work_dir: Path):
    """Hold an exclusive flock on `work_dir/.lock`, made once and never written, for the block.
    A held lock is an OSError, not a ValueError, so that a sweep stops rather than skip a cell."""
    with open(os.open(work_dir / ".lock", os.O_RDWR | os.O_CREAT, 0o666)) as lock:  # closing unlocks
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise BlockingIOError(f"{work_dir} is in use by another canids command") from None
        yield


def run_pipeline(config: PipelineConfig, through: str = "detect", read_only: bool = False):
    """Run the stages in order through the stage command `through` (`preprocess` also writes
    the windowed splits) under the work dir's lock; returns (report, Workspace), `report` None
    before `detect`, else a call reading the report back. With `read_only`, the first stale
    stage raises, and nothing is locked or written."""
    ws = Workspace(config, read_only)
    with contextlib.nullcontext() if read_only else _one_writer(ws.dir):
        splits = stage_preprocess(ws)
        if through == "preprocess":
            def write():
                for s, name in zip(SPLITS, STAGES["windows"].outputs):
                    ingest.write_windows_csv(splits()[s], ws.path(name))

            _stage(ws, "windows", write, lambda: None)
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
    """Grid over (window size, sequence length); one summary row per view per cell. A cell
    failing on its data or diverging is skipped; a malformed log or no row fails the sweep."""
    base_dir = Path(config.work_dir)
    base_dir.mkdir(parents=True, exist_ok=True)
    out = base_dir / "sweep_summary.csv"
    cells = [(w, l) for w in config.sweep_window_sizes for l in config.sweep_sequence_lengths]
    rows, skipped = [], []
    for w, l in cells:
        sub = PipelineConfig(values=dict(config.values, window_size=w, sequence_length=l,
                                         work_dir=str(base_dir / f"w{w}_l{l}")),
                             ecus=dict(config.ecus), attacks=dict(config.attacks))
        try:
            report = run_pipeline(sub)[0]()
        except ingest.ParseError:
            raise  # the log is bad for every cell
        except (ValueError, FloatingPointError) as e:
            log.warning("sweep cell (w=%d, l=%d) skipped: %s", w, l, e)
            skipped.append(f"(w={w}, l={l}): {e}")
            continue
        for view in VIEWS:
            mb = report.metrics[view]
            rows.append((w, l, view, mb.accuracy, mb.precision, mb.recall, mb.f1, mb.auc))
    if cells and len(skipped) == len(cells):
        raise ValueError(f"every sweep cell was skipped, the first {skipped[0]}")
    nn.write_csv(out, "window_size,sequence_length,type,accuracy,precision,recall,f1,auc".split(","), rows)
    return out
