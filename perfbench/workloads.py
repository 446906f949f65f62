"""The benchmark's workloads: fit and score.

Each workload has a set-up that runs in the benchmark's main process and a
timed phase that runs in a child process of its own (see run.py). A workload
object provides:

- ``setup(dir, seed)``: build the inputs under ``dir``; returns a JSON state
  whose ``digests`` must be equal for every set-up on one seed;
- ``open(state, dir)``: untimed loading in the child (models, configs);
- ``round(ctx)``: the ops of one round, as (name, callable) pairs; a round is
  the fixed unit of work that ``wall_s`` times;
- ``check(ctx, name, result)``: the output checks of one op, as a list of
  error messages (run outside the timed region);
- ``quality(ctx)``: the detection-quality metrics, from the checked outputs.

The program receives only generated logs and config files.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from canids import analysis, cli, detector, encoder, graph, pipeline
from canids.config import PipelineConfig

WINDOW = 50
SEQUENCE = 50

# The acceptance corpus's 10-ECU profile.
ECUS = """\
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
"""

# 24 s of traffic (~36.6k frames), split 50/15/35 by windows. Within each
# split the attacks are about one sequence span (L * W = 2500 frames, about
# 1.8 s) apart, and the test split holds every attack kind.
CORPUS_SECONDS = 24.0
RATIOS = (0.5, 0.15, 0.35)
SPOOF = "rate=350 target=0x090 mutate=3:1:255"
ATTACKS = [
    "flooding 1.0 0.25 rate=2000", "fuzzing 3.8 0.4 rate=600",
    "replay 6.6 0.4 span=1:1.4", f"spoofing 9.4 0.4 {SPOOF}",
    "fuzzing 12.6 0.3 rate=600", "replay 14.3 0.3 span=2:2.3",
    "flooding 16.2 0.15 rate=2000", "fuzzing 18.2 0.3 rate=600",
    "replay 20.2 0.3 span=3:3.3", f"spoofing 22.2 0.3 {SPOOF}",
]

# Patience equals the epoch count, so every fit does the same number of steps.
PIPELINE = f"""\
window_size = {WINDOW}
sequence_length = {SEQUENCE}
threshold = 0.5
encoder_epochs = 3
encoder_patience = 3
detector_epochs = 4
detector_patience = 4
detector_batch = 64
train_ratio = {RATIOS[0]}
val_ratio = {RATIOS[1]}
test_ratio = {RATIOS[2]}
synth_jitter = 0.05
"""

# score: held-out captures of 57 windows (8 sequences). Even captures are
# normal; odd ones carry one short attack near their end, cycling the kinds.
CAPTURES = 25
CAPTURE_SECONDS = 2.0
CAPTURE_ATTACKS = [
    "flooding 1.55 0.1 rate=2000", "fuzzing 1.55 0.2 rate=600",
    "replay 1.55 0.15 span=0.1:0.25", f"spoofing 1.55 0.2 {SPOOF}",
]
MIN_SCORE_OPS = 100

REPORT_FILES = ("detect_sequence.csv", "detect_mean.csv", "detect_max.csv", "summary.txt")
FIT_DIGESTS = ("encoder.ckpt", "detector.ckpt") + REPORT_FILES
VIEWS = ("sequence", "mean", "max")


def corpus_text(seed: int, out_dir: Path) -> str:
    log = out_dir / "traffic.csv"
    attacks = "".join(f"attack{i} = {a}\n" for i, a in enumerate(ATTACKS, start=1))
    return (f"{ECUS}{PIPELINE}{attacks}synth_duration = {CORPUS_SECONDS}\n"
            f"synth_seed = {seed}\nsynth_output = {log}\ninput_log = {log}\n"
            f"work_dir = {out_dir / 'work'}\n")


def write_config(path: Path, text: str) -> PipelineConfig:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return PipelineConfig.from_file(path)


def count_frames(log: Path) -> int:
    with log.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def digests(directory: Path, names) -> dict:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


def build_corpus(out_dir: Path, seed: int) -> dict:
    """synth + a fresh run on the corpus, as every set-up does."""
    cfg = write_config(out_dir / "corpus.cfg", corpus_text(seed, out_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        pipeline.run_synth(cfg)
        pipeline.run_pipeline(cfg)
    return {"config": str(out_dir / "corpus.cfg"), "work": str(out_dir / "work"),
            "frames": count_frames(out_dir / "traffic.csv")}


def test_windows(frames: int) -> int:
    """Window count of the test split, recomputed from the frame count."""
    n = frames // WINDOW
    return n - int(n * RATIOS[0]) - int(n * RATIOS[1])


def check_report(report, n_windows: int) -> list:
    """Row counts, probability range, max >= mean, decisions and summary metrics."""
    errors = []
    rows = {v: report.view_rows(v) for v in VIEWS}
    if len(rows["mean"]) != n_windows or len(rows["max"]) != n_windows:
        errors.append(f"expected {n_windows} window rows, got "
                      f"{len(rows['mean'])} mean and {len(rows['max'])} max")
    if len(rows["sequence"]) != n_windows - SEQUENCE + 1:
        errors.append(f"expected {n_windows - SEQUENCE + 1} sequence rows, "
                      f"got {len(rows['sequence'])}")
    for view, view_rows in rows.items():
        probs = np.array([r[1] for r in view_rows], dtype=np.float64)
        if not (np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0))):
            errors.append(f"{view}: probability not finite or outside [0, 1]")
        if any(r[2] != int(r[1] >= report.threshold) for r in view_rows):
            errors.append(f"{view}: decision disagrees with the threshold")
        recomputed = analysis.compute_metrics([r[2] for r in view_rows],
                                              [r[3] for r in view_rows], probs)
        if recomputed != report.metrics[view]:
            errors.append(f"{view}: summary metrics differ from the recomputed ones")
    for mean_row, max_row in zip(rows["mean"], rows["max"]):
        if mean_row[0] != max_row[0] or max_row[1] < mean_row[1]:
            errors.append(f"window {mean_row[0]}: max below mean")
            break
    return errors


def quality_of(metrics: dict) -> dict:
    """AUC of the three views and sequence F1; an AUC is None for single-class labels."""
    return {"auc_sequence": metrics["sequence"].auc, "auc_mean": metrics["mean"].auc,
            "auc_max": metrics["max"].auc, "f1_sequence": metrics["sequence"].f1}


def read_report(work: Path, threshold: float):
    """A DetectionReport rebuilt from detect_*.csv, metrics recomputed."""
    rows = {}
    for view in VIEWS:
        with (work / f"detect_{view}.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows[view] = [(int(r[0]), float(r[1]), int(r[2]), int(r[3])) for r in reader]
    metrics = {v: analysis.compute_metrics([r[2] for r in rows[v]], [r[3] for r in rows[v]],
                                           [r[1] for r in rows[v]]) for v in VIEWS}
    return detector.DetectionReport(threshold=threshold, sequence_rows=rows["sequence"],
                                    mean_rows=rows["mean"], max_rows=rows["max"],
                                    metrics=metrics)


class Fit:
    """One analyst session through `canids.cli.main`: synth, a fresh run, then a
    cached run, entropy and evaluate on its result. One op per CLI command, and
    a round is the session.

    This is the ROADMAP's end to end: synth + run, and a fully cached rerun.
    """

    name = "fit"
    min_rounds = 1
    COMMANDS = ("synth", "run", "rerun", "entropy", "evaluate")
    VOLATILE = set(REPORT_FILES) | {"manifest.json", "entropy_sweep.csv"}

    def setup(self, out_dir: Path, seed: int) -> dict:
        corpus = build_corpus(out_dir, seed)
        return {"seed": seed, "frames": corpus["frames"],
                "digests": digests(Path(corpus["work"]), FIT_DIGESTS)}

    def open(self, state: dict, work_dir: Path) -> dict:
        return dict(state, dir=work_dir, ops=0, quality=None, entropy=None, session={})

    def round(self, ctx: dict):
        ctx["ops"] += 1
        out_dir = ctx["dir"] / f"op{ctx['ops']}"
        write_config(out_dir / "corpus.cfg", corpus_text(ctx["seed"], out_dir))
        ctx["session"] = {"dir": out_dir}
        config = str(out_dir / "corpus.cfg")
        return [(c, lambda c=c: cli_command("run" if c == "rerun" else c, config))
                for c in self.COMMANDS]

    def frames(self, ctx: dict) -> int:
        return ctx["frames"]

    def check(self, ctx: dict, name: str, result) -> list:
        """Exit codes per command; the session's outputs once `evaluate` is done."""
        session = ctx["session"]
        session[name] = result
        out_dir = session["dir"]
        work = out_dir / "work"
        if result[0]:
            return [f"canids {name} exited with {result[0]}"]
        if name == "run":
            session["before"] = artifact_state(work, self.VOLATILE)
        if name != self.COMMANDS[-1]:
            return []
        if any(c not in session or session[c][0] for c in self.COMMANDS):
            return ["an earlier command of the session failed"]
        errors = []
        frames = count_frames(out_dir / "traffic.csv")
        if frames != ctx["frames"]:
            errors.append(f"log has {frames} frames, set-up had {ctx['frames']}")
        if digests(work, FIT_DIGESTS) != ctx["digests"]:
            errors.append("checkpoint or report digests differ from the set-up run")
        if artifact_state(work, self.VOLATILE) != session["before"]:
            errors.append("a stage of the cached run was not a cache hit")
        cfg = PipelineConfig.from_file(out_dir / "corpus.cfg")
        report = read_report(work, cfg.threshold)
        errors += check_report(report, test_windows(frames))
        summary = (work / "summary.txt").read_text()
        if detector.summary_table(report, WINDOW, SEQUENCE) + "\n" != summary:
            errors.append("summary.txt differs from the metrics recomputed from the rows")
        if session["evaluate"][1] != summary:
            errors.append("evaluate table differs from summary.txt")
        entropy = (work / "entropy_sweep.csv").read_bytes()
        ctx["entropy"] = ctx["entropy"] or entropy
        if entropy.count(b"\n") != 41:
            errors.append("entropy_sweep.csv does not hold 40 sizes")
        if entropy != ctx["entropy"]:
            errors.append("entropy_sweep.csv differs between sessions")
        if ctx["quality"] is None:
            ctx["quality"] = quality_of(report.metrics)
        shutil.rmtree(out_dir)
        return errors

    def quality(self, ctx: dict) -> dict:
        return ctx["quality"]


def cli_command(command: str, config: str):
    """(exit code, stdout) of one `canids` command."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, "--config", config])
    return code, out.getvalue()


def artifact_state(work: Path, volatile) -> dict:
    """mtime, size and manifest text: what a cached run must leave alone."""
    state = {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
             for p in work.iterdir() if p.name not in volatile}
    state["manifest.json"] = (work / "manifest.json").read_text()
    return state


class Score:
    """Trained models scoring short held-out captures: one op per capture."""

    name = "score"
    min_rounds = -(-MIN_SCORE_OPS // CAPTURES)

    def setup(self, out_dir: Path, seed: int) -> dict:
        corpus = build_corpus(out_dir / "corpus", seed)
        captures = []
        for i in range(CAPTURES):
            capture_dir = out_dir / f"capture{i:02d}"
            text = (f"{ECUS}{PIPELINE}synth_duration = {CAPTURE_SECONDS}\n"
                    f"synth_seed = {capture_seed(seed, i)}\n"
                    f"synth_output = {capture_dir / 'capture.csv'}\n"
                    f"input_log = {capture_dir / 'capture.csv'}\n")
            if i % 2:
                text += f"attack1 = {CAPTURE_ATTACKS[(i // 2) % len(CAPTURE_ATTACKS)]}\n"
            cfg = write_config(capture_dir / "capture.cfg", text)
            with contextlib.redirect_stdout(io.StringIO()):
                pipeline.run_synth(cfg)
            captures.append({"config": str(capture_dir / "capture.cfg"),
                             "frames": count_frames(capture_dir / "capture.csv")})
        work = Path(corpus["work"])
        found = digests(work, FIT_DIGESTS)
        found.update(digests(out_dir, [f"capture{i:02d}/capture.csv" for i in range(CAPTURES)]))
        return {"work": str(work), "corpus_config": corpus["config"],
                "captures": captures, "digests": found}

    def open(self, state: dict, work_dir: Path) -> dict:
        cfg = PipelineConfig.from_file(state["corpus_config"])
        work = Path(state["work"])
        enc = encoder.EncoderModel(seed=cfg.encoder_seed)
        enc.load(work / "encoder.ckpt")
        det = detector.DetectorModel(seed=cfg.detector_seed)
        det.load(work / "detector.ckpt")
        configs = [PipelineConfig.from_file(c["config"]) for c in state["captures"]]
        return {"encoder": enc, "detector": det, "configs": configs,
                "frames": [c["frames"] for c in state["captures"]], "reports": {}}

    def round(self, ctx: dict):
        return [(i, lambda cfg=cfg: score_capture(ctx["encoder"], ctx["detector"], cfg))
                for i, cfg in enumerate(ctx["configs"])]

    def frames(self, ctx: dict) -> int:
        return sum(ctx["frames"])

    def check(self, ctx: dict, name: int, result) -> list:
        ctx["reports"].setdefault(name, result)
        return check_report(result, ctx["frames"][name] // WINDOW)

    def quality(self, ctx: dict) -> dict:
        """Pooled over one report per capture."""
        reports = [ctx["reports"][i] for i in sorted(ctx["reports"])]
        metrics = {}
        for view in VIEWS:
            rows = [r for rep in reports for r in rep.view_rows(view)]
            metrics[view] = analysis.compute_metrics([r[2] for r in rows], [r[3] for r in rows],
                                                     [r[1] for r in rows])
        return quality_of(metrics)


def capture_seed(seed: int, index: int) -> int:
    """Synth seed of a held-out capture; never equal to a corpus seed below 10**6."""
    return 10**6 + seed * 1000 + index


def score_capture(enc, det, cfg: PipelineConfig):
    """parse -> normalize/window -> graph -> embed -> detect, on every window of a capture."""
    splits = pipeline.prepare_splits(cfg)
    windows = splits["train"] + splits["val"] + splits["test"]
    mode = graph.ByteMode(cfg.byte_mode)
    embeddings = [encoder.embed(enc, graph.build_graph(w, mode)) for w in windows]
    return detector.detect(det, embeddings, cfg.sequence_length, cfg.threshold)


WORKLOADS = {w.name: w for w in (Fit(), Score())}
