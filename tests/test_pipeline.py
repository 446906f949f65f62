import contextlib
import csv
import dataclasses
import hashlib
import io
import logging
import shutil
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import cli, pipeline
from canids.analysis import compute_metrics
from canids.config import KEY_SPECS, PipelineConfig
from canids.detector import DetectionReport, DetectorModel, train_detector
from canids.encoder import EMBED_DIM, train_encoder
from canids.graph import WindowGraph


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


def test_sweep_with_every_cell_skipped_fails_and_keeps_previous_summary(tmp_path, monkeypatch):
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    cfg.set("sweep_window_sizes", "10,20")
    cfg.set("sweep_sequence_lengths", "5")
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg: (fake_report(), None))
    before = pipeline.run_sweep(cfg).read_bytes()

    def too_short(cfg):
        raise ValueError(f"log too short for window size {cfg.window_size}")

    monkeypatch.setattr(pipeline, "run_pipeline", too_short)
    with pytest.raises(ValueError, match=r"every sweep cell was skipped, the first "
                                         r"\(w=10, l=5\): log too short for window size 10$"):
        pipeline.run_sweep(cfg)
    assert (tmp_path / "sweep_summary.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_summary.csv"]


def test_failed_sweep_write_keeps_previous_summary(tmp_path, monkeypatch):
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    cfg.set("sweep_window_sizes", "10,20")
    cfg.set("sweep_sequence_lengths", "5")
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg: (fake_report(), None))
    out = pipeline.run_sweep(cfg)
    before = out.read_bytes()

    def crash_on_second_cell(cfg):
        if cfg.window_size == 20:
            raise KeyboardInterrupt
        return fake_report(), None

    monkeypatch.setattr(pipeline, "run_pipeline", crash_on_second_cell)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_sweep(cfg)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_summary.csv"]


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


RUN_CFG = """
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


@pytest.mark.parametrize("artifact", ["embeddings_test.csv", "encoder.ckpt", "detector.ckpt",
                                      "detector_log.csv"])
def test_truncated_csv_artifact_is_rebuilt(tmp_path, capsys, artifact):
    (tmp_path / "run.cfg").write_text(RUN_CFG + f"synth_output = {tmp_path / 'traffic.csv'}\n"
                                      f"input_log = {tmp_path / 'traffic.csv'}\n"
                                      f"work_dir = {tmp_path / 'work'}\n")
    cfg = PipelineConfig.from_file(tmp_path / "run.cfg")
    pipeline.run_synth(cfg)
    report, ws = pipeline.run_pipeline(cfg)
    assert len(report.mean_rows) == 32
    manifest = ws.manifest_path.read_bytes()
    path = ws.path(artifact)
    full = path.read_bytes()
    path.write_bytes(full[: len(full) // 2])

    report, ws = pipeline.run_pipeline(cfg)
    assert path.read_bytes() == full  # the stage that wrote it ran again
    assert len(report.mean_rows) == len(report.max_rows) == 32
    assert len(pipeline.Workspace(cfg).path("detect_mean.csv").read_text().splitlines()) == 33
    assert ws.manifest_path.read_bytes() == manifest
    assert not list(ws.dir.glob("*.tmp"))


# 3 s of traffic from 3 ECUs (about 3,100 frames, 155 windows), one epoch per trainer.
TINY_CFG = """
synth_duration = 3
synth_seed = 5
ecu1 = 0x100 2 8 counter
ecu2 = 0x1A0 4 6 mixed
ecu3 = 0x090 10 8 const
attack1 = flooding 0.8 0.2 rate=2000
attack2 = fuzzing 1.8 0.3 rate=600
window_size = 20
sequence_length = 5
encoder_epochs = 1
encoder_patience = 1
detector_epochs = 1
detector_patience = 1
"""


def tiny_config(root: Path, work: str = "work", extra: str = "") -> Path:
    path = root / f"{work}.cfg"
    path.write_text(TINY_CFG + extra + f"synth_output = {root / 'traffic.csv'}\n"
                    f"input_log = {root / 'traffic.csv'}\nwork_dir = {root / work}\n")
    return path


def test_a_fresh_run_hands_on_the_embeddings_it_wrote(tmp_path, monkeypatch):
    """The detector trains on the embeddings read back from their files, so a fresh run
    writes the checkpoint a rebuild of that stage alone writes, even from a writer that
    does not round-trip its values."""
    write = pipeline.write_embeddings_csv
    monkeypatch.setattr(pipeline, "write_embeddings_csv", lambda embeddings, path: write(
        [dataclasses.replace(e, vector=np.round(e.vector, 3)) for e in embeddings], path))
    cfg = PipelineConfig.from_file(tiny_config(tmp_path))
    pipeline.run_synth(cfg)
    _, ws = pipeline.run_pipeline(cfg)
    fresh = ws.path("detector.ckpt").read_bytes()
    ws.path("detector.ckpt").unlink()
    pipeline.run_pipeline(cfg)
    assert ws.path("detector.ckpt").read_bytes() == fresh


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A tiny config after `preprocess` and `run`, the bytes of every file in its work
    dir, and a detector.ckpt trained with another detector_seed on the same log."""
    root = tmp_path_factory.mktemp("finished")
    config, other = tiny_config(root), tiny_config(root, "other", "detector_seed = 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        pipeline.run_synth(PipelineConfig.from_file(config))
        assert [cli.main([c, "--config", str(config)]) for c in ("preprocess", "run")] == [0, 0]
    pipeline.run_pipeline(PipelineConfig.from_file(other), through="train-detector")
    work, other_ckpt = root / "work", root / "other" / "detector.ckpt"
    assert other_ckpt.read_bytes() != (work / "detector.ckpt").read_bytes()
    return SimpleNamespace(config=str(config), work=work, other_ckpt=other_ckpt,
                           files={p.name: p.read_bytes() for p in work.iterdir()})


def restore(finished_run) -> Path:
    """The finished run's work dir, every file back to its bytes and no other file."""
    work = finished_run.work
    shutil.rmtree(work)
    work.mkdir()
    for name, blob in finished_run.files.items():
        (work / name).write_bytes(blob)
    return work


def files_of(work: Path) -> dict:
    return {p.name: p.read_bytes() for p in work.iterdir()}


STAGE_OF = {name: stage for stage, spec in pipeline.STAGES.items() for name in spec.outputs}
OTHER_SEED = "detector.ckpt of detector_seed 1"


@pytest.mark.parametrize("change", [*STAGE_OF, OTHER_SEED])
@given(data=st.data())
@settings(max_examples=6, deadline=None, derandomize=True)
def test_a_changed_stage_output_is_rebuilt_and_never_reused(finished_run, change, data):
    """One byte of a stage output changed, or another seed's detector.ckpt copied in: the
    next command through that stage rebuilds it to the finished run's bytes, every other
    file unchanged, or exits 3."""
    work = restore(finished_run)
    if change == OTHER_SEED:
        shutil.copyfile(finished_run.other_ckpt, work / "detector.ckpt")
    else:
        blob = bytearray(finished_run.files[change])
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        (work / change).write_bytes(blob)
    command = "preprocess" if STAGE_OF.get(change) == "windows" else "run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", finished_run.config])
    assert code in (0, 3)
    if code == 0:
        assert {p.name: p.read_bytes() for p in work.iterdir()} == finished_run.files


def record_marks(monkeypatch) -> list:
    """The stages that run from now on, in order: each marks its outputs once."""
    marked, mark = [], pipeline.Workspace.mark
    monkeypatch.setattr(pipeline.Workspace, "mark",
                        lambda ws, stage, *args: marked.append(stage) or mark(ws, stage, *args))
    return marked


def fresh_work(finished_run, tmp_path) -> dict:
    """The files of a fresh `preprocess` and `run` of the finished run's config in a new
    work dir."""
    cfg = PipelineConfig.from_file(finished_run.config, [f"work_dir={tmp_path / 'fresh'}"])
    pipeline.run_pipeline(cfg, through="preprocess")
    _, ws = pipeline.run_pipeline(cfg)
    return files_of(ws.dir)


@pytest.mark.parametrize("rerun", ["an output deleted", "a version bump"])
def test_embeddings_rebuilt_with_other_bytes_rerun_the_stages_that_read_them(
        finished_run, tmp_path, monkeypatch, rerun):
    """`embed` reruns with a writer that rounds to 2 decimals. `train-detector` and
    `detect` chain on the sha256 recorded for the embeddings they read, so every later
    artifact is what a fresh run of that code writes."""
    work = restore(finished_run)
    write = pipeline.write_embeddings_csv
    monkeypatch.setattr(pipeline, "write_embeddings_csv", lambda embeddings, path: write(
        [dataclasses.replace(e, vector=np.round(e.vector, 2)) for e in embeddings], path))
    if rerun == "a version bump":
        spec = pipeline.STAGES["embed"]
        monkeypatch.setitem(pipeline.STAGES, "embed", spec._replace(version=spec.version + 1))
    else:
        (work / "embeddings_test.csv").unlink()
    marked = record_marks(monkeypatch)
    pipeline.run_pipeline(PipelineConfig.from_file(finished_run.config))
    assert marked == ["embed", "train-detector", "detect"]
    assert files_of(work) == fresh_work(finished_run, tmp_path)
    assert files_of(work)["detector.ckpt"] != finished_run.files["detector.ckpt"]


@pytest.mark.parametrize("stage", [s for s, spec in pipeline.STAGES.items() if spec.outputs])
def test_a_version_bump_that_keeps_the_bytes_reruns_only_its_stage(finished_run, monkeypatch, stage):
    """Early cutoff: the stage reruns, and the stages after it, whose inputs kept their
    sha256, stay hits."""
    work = restore(finished_run)
    spec = pipeline.STAGES[stage]
    monkeypatch.setitem(pipeline.STAGES, stage, spec._replace(version=spec.version + 1))
    marked = record_marks(monkeypatch)
    command = "preprocess" if stage == "windows" else "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", finished_run.config]) == 0
    assert marked == [stage]
    after = files_of(work)
    assert after.pop("manifest.json") != finished_run.files["manifest.json"]
    assert after == {n: b for n, b in finished_run.files.items() if n != "manifest.json"}


def test_the_same_log_bytes_under_another_path_rerun_nothing(finished_run, tmp_path):
    """`preprocess` covers the log's bytes, not its path: a byte-identical copy of the log
    leaves every stage a hit, and `evaluate` with it passes."""
    work = restore(finished_run)
    copy = tmp_path / "copy.csv"
    shutil.copyfile(PipelineConfig.from_file(finished_run.config).input_log, copy)
    args = ["--config", finished_run.config, "--set", f"input_log={copy}"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", *args]) == 0
        assert files_of(work) == finished_run.files
        assert cli.main(["evaluate", *args]) == 0


def test_evaluate_names_an_unreadable_manifest(finished_run, capsys, caplog):
    """Read-only, an unreadable manifest is the error, exit 3, where `run` warns and rebuilds."""
    work = restore(finished_run)
    (work / "manifest.json").write_text("{")
    before = files_of(work)
    with caplog.at_level(logging.WARNING):
        assert cli.main(["evaluate", "--config", finished_run.config]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"evaluate failed: {work / 'manifest.json'} is unreadable (")
    assert err.endswith("); rerun detect\n")
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert files_of(work) == before


def test_every_table_is_written_in_csv_writers_dialect(finished_run):
    """Every csv file that `preprocess`, `run`, `entropy` and `sweep` leave in the work dir
    holds the bytes csv.writer writes for its own rows."""
    work = restore(finished_run)
    args = ["--config", finished_run.config, "--set", "sweep_window_sizes=20",
            "--set", "sweep_sequence_lengths=4,5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main([c, *args]) for c in ("entropy", "sweep")] == [0, 0]
    tables = sorted(work.rglob("*.csv"))
    outputs = {n for n in STAGE_OF if n.endswith(".csv")}
    cells = {f"w20_l{l}/{n}" for l in (4, 5) for n in outputs if not n.startswith("windows_")}
    assert {p.relative_to(work).as_posix() for p in tables} == (
        outputs | cells | {"entropy_sweep.csv", "sweep_summary.csv"})
    for path in tables:
        text = path.read_bytes().decode()
        out = io.StringIO()
        csv.writer(out).writerows(csv.reader(io.StringIO(text, newline="")))
        assert out.getvalue() == text, path


# Overrides for a finished run: each touches one or more stages' keys, or none.
SETTINGS = [("window_size=25",), ("train_ratio=0.5", "val_ratio=0.3"), ("byte_mode=normalized",),
            ("encoder_lr=0.002",), ("encoder_seed=3",), ("detector_batch=16",),
            ("detector_seed=2",), ("sequence_length=4",), ("threshold=0.3",), ("threshold=0.5",),
            ("synth_seed=9",), ("entropy_sizes=5",)]


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_evaluate_passes_exactly_when_run_would_change_nothing(finished_run, data):
    """`evaluate` exits 0 exactly when the next `run` with the same overrides leaves every
    file of the work dir as it is; either way it writes nothing."""
    work = restore(finished_run)
    log = Path(PipelineConfig.from_file(finished_run.config).input_log)
    text = log.read_bytes()
    kind = data.draw(st.sampled_from(["set", "flip", "delete", "drop last line"]))
    overrides = []
    if kind == "set":
        overrides = [f"--set={s}" for s in data.draw(st.sampled_from(SETTINGS))]
    elif kind == "drop last line":
        log.write_bytes(b"".join(text.splitlines(keepends=True)[:-1]))
    else:
        path = work / data.draw(st.sampled_from(sorted(STAGE_OF)))
        if kind == "delete":
            path.unlink()
        else:
            blob = bytearray(path.read_bytes())
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            path.write_bytes(blob)
    before = files_of(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["evaluate", "--config", finished_run.config, *overrides])
            assert code in (0, 3)
            assert files_of(work) == before
            assert cli.main(["run", "--config", finished_run.config, *overrides]) == 0
        assert (code == 0) == (files_of(work) == before)
    finally:
        log.write_bytes(text)


def test_a_file_is_hashed_in_chunks(tmp_path):
    """Hashing a 50 MB file holds under 1 MB, not the whole file."""
    path = tmp_path / "big.bin"
    with path.open("wb") as fh:
        fh.truncate(50 * 2**20)
    tracemalloc.start()
    try:
        digest = pipeline.file_sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert digest == hashlib.sha256(bytes(50 * 2**20)).hexdigest()


@pytest.mark.parametrize("damage", ["truncated", "not an object"])
def test_unreadable_manifest_is_treated_as_empty(tmp_path, caplog, damage):
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    ws = pipeline.Workspace(cfg)
    ws.path("out.csv").write_text("a,b\n")
    ws.mark("stage", "h", ["out.csv"])
    text = ws.manifest_path.read_text()
    ws.manifest_path.write_text(text[:40] if damage == "truncated" else "[]")
    with caplog.at_level(logging.WARNING, logger="canids.pipeline"):
        ws = pipeline.Workspace(cfg)
    assert ws.manifest == {}
    assert not ws.fresh("stage", "h", ["out.csv"])
    (record,) = caplog.records
    assert record.levelno == logging.WARNING and str(ws.manifest_path) in record.getMessage()
    ws.mark("stage", "h", ["out.csv"])  # the rerun leaves a readable manifest
    assert pipeline.Workspace(cfg).manifest_path.read_text() == text


def test_manifest_records_output_digests(tmp_path):
    cfg = PipelineConfig()
    cfg.set("work_dir", str(tmp_path))
    ws = pipeline.Workspace(cfg)
    ws.path("out.csv").write_text("a,b\n")
    assert not ws.fresh("stage", "h", ["out.csv"])
    ws.mark("stage", "h", ["out.csv"])
    assert ws.manifest["out.csv"] == hashlib.sha256(b"a,b\n").hexdigest()
    assert ws.fresh("stage", "h", ["out.csv"])
    assert pipeline.Workspace(cfg).fresh("stage", "h", ["out.csv"])
    assert not ws.fresh("stage", "other", ["out.csv"])
    ws.path("out.csv").write_text("a,")
    assert not ws.fresh("stage", "h", ["out.csv"])
    ws.path("out.csv").unlink()
    assert not ws.fresh("stage", "h", ["out.csv"])
    # a manifest written before output digests were recorded is a miss
    ws.path("out.csv").write_text("a,b\n")
    del ws.manifest["out.csv"]
    assert not ws.fresh("stage", "h", ["out.csv"])


# Digests of every stage for the config and log below, each chained on the manifest
# entries of what it reads: the `preprocess` digest or the fixed sha256s recorded for
# the upstream outputs. Any change to how a digest is formed invalidates every cached
# work dir.
PINNED_DIGESTS = {
    "preprocess": "21b1596ccb715b4831364da561d7eff8db9a88122443f3ebe6983ed2dcb1206d",
    "windows": "ef5ae5bcbc6bddb4e6e7a659bb2ae248f7374f0966d7914215ad589a8b99562a",
    "train-encoder": "701a90fe8b430cc8077f447907d2ef2234b93f2b37f4bbc6f96542159967535b",
    "embed": "64708ea7d5a93b3afe88e598505bba57db1ca61ef52a01aa9886327406a2b923",
    "train-detector": "08ad2f6e0afde93e4f4d251b206f1fe35c9aa90c441cce6936c2eec358e5534f",
    "detect": "ad0d74ce1e07f8d0fc4f23c871b1885ac378537b1c21de9e95e8e3e299a3952f",
}


def test_stage_digests_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("traffic.csv").write_text(
        "timestamp,arbitration_id,dlc,payload,label\n"
        "0.0,100,8,01 02 03 04 05 06 07 08,Normal\n"
        "0.001,1A0,6,00 FF 10 20 30 40,Normal\n"
        "0.002,090,2,AA BB,Flooding\n")
    cfg = PipelineConfig()
    cfg.set("input_log", "traffic.csv")
    cfg.set("work_dir", "work")
    ws = pipeline.Workspace(cfg)
    ws.manifest = {o: hashlib.sha256(o.encode()).hexdigest()
                   for spec in pipeline.STAGES.values() for o in spec.outputs}
    for stage in pipeline.STAGES:
        ws.manifest[stage] = ws.stage_hash(stage)
    assert {s: ws.manifest[s] for s in pipeline.STAGES} == PINNED_DIGESTS


# Keys that no stage's digest covers: where the work dir, the synthetic log and the input
# log are (`preprocess` covers the log's bytes), the generator's own settings, and the
# entropy and sweep grids, which write no stage artifact.
NO_STAGE_KEYS = {"work_dir", "synth_output", "input_log", "synth_duration", "synth_jitter",
                 "synth_seed", "entropy_sizes", "sweep_window_sizes", "sweep_sequence_lengths"}


def test_every_key_reaches_a_digest_or_no_stage():
    """A training setting missing from its stage's digest would let a cached checkpoint
    stand for other settings."""
    stage_keys = {key for stage in pipeline.STAGES.values() for key in stage.keys}
    assert not stage_keys & NO_STAGE_KEYS
    assert stage_keys | NO_STAGE_KEYS == set(KEY_SPECS)


class RecordedReads(dict):
    """Config values that record each key read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", ["encoder", "detector"])
def test_a_trainer_reads_only_its_stage_digest_keys(name):
    """A setting a trainer reads but its stage's digest misses would let a cached
    checkpoint stand for other settings."""
    cfg = PipelineConfig(values=dict(encoder_epochs=1, detector_epochs=1))
    cfg.values = RecordedReads(cfg.values)
    rng = np.random.default_rng(0)
    if name == "encoder":
        train_encoder([WindowGraph(rng.random((4, 9)), label=0, window_index=i) for i in range(3)], cfg)
    else:
        seqs = rng.normal(size=(4, 3, EMBED_DIM)), np.arange(4) % 2
        train_detector(DetectorModel(seed=0), seqs, seqs, cfg)
    assert f"{name}_epochs" in cfg.values.read
    assert cfg.values.read <= set(pipeline.STAGES[f"train-{name}"].keys)
