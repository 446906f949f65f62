import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import canids
from canids import ingest, pipeline
from canids.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_INTERRUPTED, EXIT_OK,
                        STAGE_COMMANDS, build_parser, main)
from canids.detector import VIEWS
from canids.synth import MAX_FRAMES

from conftest import refuse

SYNTH_CFG = """
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
"""

PIPELINE_KEYS = """
window_size = 50
sequence_length = 10
encoder_epochs = 3
encoder_patience = 3
detector_epochs = 4
detector_patience = 4
"""

# PIPELINE_KEYS's detector scores every test sequence between 0.52 and 0.59, so all
# its decisions are 1. This one's detector separates the classes of the test split
# well enough that every view has decisions on both sides of the threshold.
DECISION_KEYS = """
window_size = 50
sequence_length = 3
encoder_epochs = 3
encoder_patience = 3
detector_epochs = 20
detector_patience = 20
detector_lr = 0.005
detector_batch = 16
threshold = 0.5
"""


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.cfg"
    log = root / "traffic.csv"
    cfg.write_text(SYNTH_CFG + f"synth_output = {log}\n")
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    return root, log


def run_cfg(root, log, name="run.cfg", extra=""):
    cfg = root / name
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {root / 'work'}\n" + extra)
    return cfg


def test_synth_deterministic(synth_log, tmp_path):
    root, log = synth_log
    cfg2 = tmp_path / "synth2.cfg"
    log2 = tmp_path / "traffic2.csv"
    cfg2.write_text(SYNTH_CFG + f"synth_output = {log2}\n")
    assert main(["synth", "--config", str(cfg2)]) == EXIT_OK
    assert hashlib.sha256(log.read_bytes()).digest() == hashlib.sha256(log2.read_bytes()).digest()


def test_synth_contains_all_classes(synth_log):
    _, log = synth_log
    text = log.read_text()
    for label in ("Normal", "Flooding", "Fuzzing", "Replay", "Spoofing"):
        assert label in text


def test_normal_only_profile_has_no_attacks(tmp_path):
    cfg = tmp_path / "n.cfg"
    out = tmp_path / "normal.csv"
    cfg.write_text(f"""
synth_duration = 1
ecu1 = 0x100 5 8 counter
synth_output = {out}
""")
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    body = out.read_text()
    assert "Flooding" not in body and "Fuzzing" not in body


def test_entropy_command(synth_log):
    root, log = synth_log
    cfg = run_cfg(root, log, "entropy.cfg", "entropy_sizes = 10,20,40\n")
    assert main(["entropy", "--config", str(cfg)]) == EXIT_OK
    lines = (root / "work" / "entropy_sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].endswith(",")  # first size has no growth rate


def test_full_run_and_stagewise_equivalence(synth_log, capsys):
    root, log = synth_log
    cfg = run_cfg(root, log)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sequence" in out and "mean" in out and "max" in out
    work = root / "work"
    for artifact in ("encoder.ckpt", "detector.ckpt", "summary.txt",
                     "detect_sequence.csv", "detect_mean.csv", "detect_max.csv",
                     "embeddings_test.csv", "manifest.json"):
        assert (work / artifact).exists(), artifact
    summary_first = (work / "summary.txt").read_bytes()

    # stage-by-stage rerun in the same work dir resumes and reproduces output;
    # only `canids preprocess` dumps the windowed splits
    for cmd in ("preprocess", "train-encoder", "embed", "train-detector", "detect"):
        assert main([cmd, "--config", str(cfg)]) == EXIT_OK
        if cmd == "preprocess":
            assert (work / "windows_train.csv").exists()
    assert (work / "summary.txt").read_bytes() == summary_first


def test_only_preprocess_writes_window_csvs(synth_log, tmp_path):
    _, log = synth_log
    cfg = tmp_path / "w.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["train-encoder", "--config", str(cfg)]) == EXIT_OK  # preprocess misses here
    assert not list((tmp_path / "work").glob("windows_*.csv"))
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "work").glob("windows_*.csv")) == [
        "windows_test.csv", "windows_train.csv", "windows_val.csv"]


def test_window_csvs_follow_a_window_size_change(synth_log, tmp_path):
    """A `run` that records a new preprocess digest leaves the old dump behind; the
    next `canids preprocess` must rewrite it, not take it for fresh."""
    _, log = synth_log
    cfg = tmp_path / "s.cfg"
    work = tmp_path / "work"

    def dumped_window_size():
        with (work / "windows_train.csv").open() as fh:
            next(fh)
            ordinals = [int(line.split(",")[1]) for line in fh]
        return max(ordinals) + 1

    for size, commands in ((50, ["preprocess"]), (40, ["run", "preprocess"])):
        cfg.write_text(PIPELINE_KEYS.replace("window_size = 50", f"window_size = {size}")
                       + f"input_log = {log}\nwork_dir = {work}\n")
        for cmd in commands:
            assert main([cmd, "--config", str(cfg)]) == EXIT_OK
        assert dumped_window_size() == size


def test_cached_run_does_not_parse_the_log(synth_log, tmp_path, monkeypatch, capsys):
    """A fully cached run hashes the log and the recorded outputs: it parses no log, loads
    no checkpoint, reads no embeddings and runs no detector. The report it hands back reads
    the same rows and metrics as the fresh run's."""
    _, log = synth_log
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    parse_log, parsed = ingest.parse_log, []
    monkeypatch.setattr(ingest, "parse_log", lambda *a: parsed.append(a) or parse_log(*a))
    run_pipeline, reports = pipeline.run_pipeline, []

    def keep_report(config):
        report, ws = run_pipeline(config)
        reports.append(report())
        return report, ws

    monkeypatch.setattr(pipeline, "run_pipeline", keep_report)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert len(parsed) == 1  # every stage that needs frames shares one parse
    assert not list((tmp_path / "work").glob("windows_*.csv"))
    first = capsys.readouterr().out

    refuse(monkeypatch, "ingest.parse_log", "pipeline.detect", "detector.detect",
           "pipeline.read_embeddings_csv", "encoder.read_embeddings_csv",
           "nn.restore_parameters")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == first
    fresh, cached = reports
    assert cached.sequence_rows and cached.mean_rows
    assert cached == fresh  # the same rows, bit for bit, and the same metrics


def test_threshold_change_reruns_only_detect(synth_log, tmp_path, monkeypatch):
    _, log = synth_log
    cfg = tmp_path / "th.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    work = tmp_path / "work"

    def report_rows(view):
        with (work / f"detect_{view}.csv").open() as fh:
            next(fh)
            return [(float(r[1]), int(r[2])) for r in (line.split(",") for line in fh)]

    upstream = ["encoder.ckpt", "detector.ckpt"] + [f"embeddings_{s}.csv" for s in pipeline.SPLITS]
    mtimes = {n: (work / n).stat().st_mtime_ns for n in upstream}
    before = report_rows("mean")
    # a short training's probabilities bunch together, so a fixed threshold may move
    # no decision; one at the mean view's median moves about half of them
    threshold = repr(sorted(p for p, _ in before)[len(before) // 2])

    refuse(monkeypatch, "ingest.parse_log")
    assert main(["run", "--config", str(cfg), "--set", f"threshold={threshold}"]) == EXIT_OK
    assert {n: (work / n).stat().st_mtime_ns for n in upstream} == mtimes
    for view in VIEWS:
        rows = report_rows(view)
        assert rows and all(d == int(p >= float(threshold)) for p, d in rows), view
    assert report_rows("mean") != before
    outputs = {n: (work / n).read_bytes() for n in ("summary.txt", "manifest.json")}

    refuse(monkeypatch, "pipeline.detect")  # the same command again is a hit
    assert main(["run", "--config", str(cfg), "--set", f"threshold={threshold}"]) == EXIT_OK
    assert {n: (work / n).read_bytes() for n in outputs} == outputs


def test_run_reports_decisions_of_both_kinds(synth_log, tmp_path):
    _, log = synth_log
    cfg = tmp_path / "decide.cfg"
    cfg.write_text(DECISION_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    for view in VIEWS:
        with (tmp_path / "work" / f"detect_{view}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        decisions = [int(r["decision"]) for r in rows]
        assert sorted(set(decisions)) == [0, 1], view
        assert decisions == [int(float(r["probability"]) >= 0.5) for r in rows], view


def test_truncated_report_is_rewritten(synth_log, tmp_path):
    _, log = synth_log
    cfg = tmp_path / "tr.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    report = tmp_path / "work" / "detect_mean.csv"
    full = report.read_bytes()
    report.write_bytes(full[: len(full) // 2])
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert report.read_bytes() == full


def test_evaluate_matches_summary(synth_log, capsys):
    root, log = synth_log
    cfg = run_cfg(root, log)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK  # cached when the full run went first
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (root / "work" / "summary.txt").read_text()


def test_flag_overrides_config(synth_log):
    root, log = synth_log
    cfg = run_cfg(root, log, "flags.cfg", "work_dir = " + str(root / "work_flags") + "\n")
    assert main(["preprocess", "--config", str(cfg), "--set", "window_size=60",
                 "--set", "window_size=25"]) == EXIT_OK  # the later one wins
    header_rows = (root / "work_flags" / "windows_train.csv").read_text().splitlines()
    first_window_rows = [r for r in header_rows[1:] if r.startswith("0,")]
    assert len(first_window_rows) == 25


def test_set_override(synth_log):
    root, log = synth_log
    cfg = run_cfg(root, log, "set.cfg", "work_dir = " + str(root / "work_set") + "\n")
    assert main(["preprocess", "--config", str(cfg), "--set", "window_size=20"]) == EXIT_OK


def test_set_fixes_an_invalid_file_value(synth_log, tmp_path):
    _, log = synth_log
    cfg = tmp_path / "fix.cfg"
    cfg.write_text(f"window_size = 1\ninput_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_CONFIG
    assert main(["preprocess", "--config", str(cfg), "--set", "window_size=50"]) == EXIT_OK


@pytest.mark.parametrize("override, message", [
    ("window_size=many", "config error: --set: bad value for 'window_size'"),
    ("window_sise=50", "config error: --set: unknown config key 'window_sise'"),
    ("window_size", "config error: --set: expected key=value, got 'window_size'"),
    ("", "config error: --set: expected key=value, got ''"),
])
def test_bad_override_names_set(tmp_path, capsys, override, message):
    assert main(["run", "--set", f"work_dir={tmp_path / 'work'}", "--set", override]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_per_key_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--window-size", "75"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --window-size 75" in capsys.readouterr().err


def test_every_subcommand_takes_only_config_and_set():
    """`--set` is the one override path; no per-key flag comes back."""
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(STAGE_COMMANDS)
    for name, parser in sub.choices.items():
        options = sorted(o for a in parser._actions for o in a.option_strings)
        assert options == ["--config", "--help", "--set", "-h"], name


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("window_size = 1\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_text("no_such_key = 5\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG


def test_config_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(f"work_dir = {tmp_path / 'w'}\n# caf\xe9\n".encode("latin-1"))
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert f"cannot read config {bad}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("spec", ["ecu2 = 0x200 ten 8 const",
                                  "ecu2 = 0x200 10 8 sine",
                                  "ecu2 = 0x200 inf 8 const",
                                  "attack1 = spoofing 0.2 0.1 target=0x100 mutate=8:0:1",
                                  "attack1 = replay 0.5 0.1 span=0:0.1:0.2"])
def test_malformed_synth_spec_is_config_error(tmp_path, spec):
    out = tmp_path / "traffic.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"synth_output = {out}\necu1 = 0x100 10 8 const\n{spec}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(canids.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "canids.cli", "synth", "--config", str(cfg)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == EXIT_CONFIG
    assert "Traceback" not in result.stderr
    assert f"config error: {cfg}:3: bad value for" in result.stderr
    assert not out.exists()


OPTION_VALUES = {"rate": "50", "target": "0x100", "span": "0.1:0.3", "mutate": "0:1:2"}


@pytest.mark.parametrize("kind, option", [
    ("flooding", "span"), ("flooding", "mutate"),
    ("fuzzing", "target"), ("fuzzing", "span"), ("fuzzing", "mutate"),
    ("replay", "rate"), ("replay", "target"), ("replay", "mutate"),
    ("spoofing", "span"),
])
def test_attack_option_the_kind_does_not_read_is_config_error(tmp_path, capsys, kind, option):
    out = tmp_path / "traffic.csv"
    cfg = tmp_path / "p.cfg"
    needed = {"replay": "span=0.1:0.3", "spoofing": "mutate=0:1:2"}.get(kind, "")
    cfg.write_text(f"synth_output = {out}\necu1 = 0x100 10 8 const\n"
                   f"attack1 = {kind} 0.5 0.2 {needed} {option}={OPTION_VALUES[option]}\n")
    assert main(["synth", "--config", str(cfg)]) == EXIT_CONFIG
    assert (f"{cfg}:3: bad value for 'attack1': {kind} takes no {option!r} option"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ("synth_jitter=0.7", "jitter must lie in [0, 0.5), got 0.7"),
    ("synth_duration=-3", "duration must be finite and > 0, got -3.0"),
    ("synth_duration=nan", "duration must be finite and > 0, got nan"),
])
def test_bad_traffic_profile_is_config_error(tmp_path, capsys, override, message):
    out = tmp_path / "traffic.csv"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"synth_output = {out}\necu1 = 0x100 10 8 const\n")
    assert main(["synth", "--config", str(cfg), "--set", override]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, override, count", [
    ("", "synth_duration=1e308", "inf"),      # an OverflowError in int(duration / period)
    ("", "synth_duration=1e13", "5e+15"),     # an array too large to allocate
    ("attack1 = flooding 0.1 0.5 rate=1e12", None, "5e+11"),
    ("attack1 = fuzzing 0.1 0.5 rate=1e9", None, "5e+08"),  # a loop of 5e8 draws
])
def test_synth_beyond_the_frame_bound_is_config_error(tmp_path, spec, override, count):
    out = tmp_path / "traffic.csv"
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"synth_output = {out}\necu1 = 0x100 2 8 counter\n{spec}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(canids.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "canids.cli", "synth", "--config", str(cfg),
                             *(["--set", override] if override else [])],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == EXIT_CONFIG
    assert "Traceback" not in result.stderr
    assert f"asks for {count} frames, more than MAX_FRAMES = {MAX_FRAMES}" in result.stderr
    assert not out.exists()


def test_data_error_exit_code(tmp_path):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(f"input_log = {tmp_path / 'nope.csv'}\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA


def test_log_without_a_payload_column_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "data.csv"
    log.write_text("timestamp,arbitration_id,dlc,data,label\n"
                   "1.0,100,8,01 02 03 04 05 06 07 08,Normal\n1.1,100,2,AA BB,Normal\n")
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"input_log = {log}\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA
    assert "line 2: missing column 'payload'" in capsys.readouterr().err


def test_empty_log_entropy_error(tmp_path, capsys):
    log = tmp_path / "empty.csv"
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"input_log = {log}\nwork_dir = {tmp_path / 'w'}\n")
    header = "timestamp,arbitration_id,dlc,payload,label\n"
    five_frames = "".join(f"{i / 10},100,0,,Normal\n" for i in range(5))
    for body, message in (("", "is empty"), (five_frames, "exceeds the log's 5 frames")):
        log.write_text(header + body)  # no entropy_sizes entry (10 to 400) fits 5 frames
        assert main(["entropy", "--config", str(cfg)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "w" / "entropy_sweep.csv").exists()


def test_malformed_log_fails_the_sweep(synth_log, tmp_path, capsys, caplog):
    _, log = synth_log
    lines = log.read_text().splitlines(keepends=True)
    lines[363] = "garbage\n"
    copy = tmp_path / "traffic.csv"
    copy.write_text("".join(lines))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {copy}\nwork_dir = {tmp_path / 'work'}\n"
                   "sweep_window_sizes = 20,50\nsweep_sequence_lengths = 5\n")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_DATA
    assert "sweep failed: line 364: " in capsys.readouterr().err
    assert not any("skipped" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "work" / "sweep_summary.csv").exists()


def test_overlong_field_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "overlong.csv"
    payload = "0" * (csv.field_size_limit() + 2)
    log.write_text(f"timestamp,arbitration_id,dlc,payload,label\n1.0,100,0,,Normal\n"
                   f"1.1,100,8,{payload},Normal\n")
    cfg = tmp_path / "o.cfg"
    cfg.write_text(f"input_log = {log}\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_DATA
    assert "preprocess failed: line 3: field larger than field limit" in capsys.readouterr().err


def test_signed_payload_byte_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "signed.csv"
    log.write_text("timestamp,arbitration_id,dlc,payload,label\n1.0,100,2,01 02,Normal\n"
                   "1.1,100,2,-1 02,Normal\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"input_log = {log}\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_DATA
    assert "preprocess failed: line 3: payload byte '-1' outside 0x00..0xFF" in capsys.readouterr().err


def test_log_not_utf8_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "latin1.csv"
    log.write_bytes(b"timestamp,arbitration_id,dlc,payload,label\n1.0,100,2,01 02,Normal\n"
                    b"1.1,100,2,01 02,Normal \xa9\n")
    cfg = tmp_path / "l.cfg"
    cfg.write_text(f"input_log = {log}\nwork_dir = {tmp_path / 'w'}\n")
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_DATA
    assert "preprocess failed: line 3: byte 0xa9 is not UTF-8" in capsys.readouterr().err


def test_non_finite_timestamp_is_a_data_error(synth_log, tmp_path, capsys):
    _, log = synth_log
    lines = log.read_text().splitlines(keepends=True)
    lines[5] = "nan" + lines[5][lines[5].index(","):]
    copy = tmp_path / "traffic.csv"
    copy.write_text("".join(lines))
    cfg = tmp_path / "n.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {copy}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA
    assert "run failed: line 6: timestamp 'nan' is not finite" in capsys.readouterr().err


def test_truncated_checkpoint_is_rebuilt(synth_log, tmp_path):
    root, log = synth_log
    cfg = tmp_path / "t.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    ckpt, summary = tmp_path / "work" / "detector.ckpt", tmp_path / "work" / "summary.txt"
    full, table = ckpt.read_bytes(), summary.read_bytes()
    ckpt.write_bytes(full[:20])
    assert main(["detect", "--config", str(cfg)]) == EXIT_OK
    assert ckpt.read_bytes() == full and summary.read_bytes() == table


def test_corrupt_checkpoint_is_rebuilt(synth_log, tmp_path):
    root, log = synth_log
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    ckpt, summary = tmp_path / "work" / "encoder.ckpt", tmp_path / "work" / "summary.txt"
    full, table = ckpt.read_bytes(), summary.read_bytes()
    data = bytearray(full)
    data[16] = 0xFF  # first byte of the first parameter name
    ckpt.write_bytes(bytes(data))
    assert main(["embed", "--config", str(cfg)]) == EXIT_OK
    assert ckpt.read_bytes() == full and summary.read_bytes() == table


def test_checkpoint_of_another_run_is_retrained(synth_log, tmp_path):
    """A valid checkpoint copied in from a run with another detector seed fails its
    recorded sha256, so a threshold change retrains the detector before it detects."""
    _, log = synth_log
    work, other = tmp_path / "work", tmp_path / "other"
    cfg = tmp_path / "o.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {work}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    shutil.copytree(work, other)
    assert main(["train-detector", "--config", str(cfg), "--set", f"work_dir={other}",
                 "--set", "detector_seed=7"]) == EXIT_OK
    own, copied = (d / "detector.ckpt" for d in (work, other))
    trained = own.read_bytes()
    assert copied.read_bytes() != trained
    shutil.copyfile(copied, own)
    assert main(["run", "--config", str(cfg), "--set", "threshold=0.55"]) == EXIT_OK
    assert own.read_bytes() == trained


def test_every_file_in_the_work_dir_is_a_recorded_output(synth_log, tmp_path):
    """No stage writes a file that the cache cannot see."""
    _, log = synth_log
    work = tmp_path / "work"
    cfg = tmp_path / "r.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {work}\n")
    for command in ("preprocess", "run"):
        assert main([command, "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((work / "manifest.json").read_text())
    files = {p.name for p in work.iterdir()} - {"manifest.json", ".lock"}  # the lock holds no bytes
    assert files == {o for stage in pipeline.STAGES.values() for o in stage.outputs}
    assert {n: manifest.get(n) for n in files} == {
        n: hashlib.sha256((work / n).read_bytes()).hexdigest() for n in files}


def test_diverged_training_exit_code(synth_log, tmp_path, capsys):
    root, log = synth_log
    work = tmp_path / "work"
    cfg = tmp_path / "x.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {work}\n")
    capsys.readouterr()
    assert main(["train-encoder", "--config", str(cfg),
                 "--set", "encoder_lr=1e300"]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "training diverged: encoder training diverged at epoch 0" in err
    assert "Traceback" not in err
    assert not (work / "encoder.ckpt").exists()
    assert "train-encoder" not in json.loads((work / "manifest.json").read_text())


@pytest.mark.parametrize("setting", ["detector_lr=1e300", "detector_lr=1e10", "encoder_lr=1e10"])
def test_a_parameter_thrown_past_the_bound_is_a_diverged_exit(synth_log, tmp_path, capsys, setting):
    """A step that throws the weights far out, with a loss that stays finite, ends in
    exit 4 before any forward outside training: no overflow warning, no checkpoint."""
    root, log = synth_log
    cfg = tmp_path / "x.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--set", setting]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    model = setting.split("_")[0]
    assert f"training diverged: {model} training diverged at epoch 0: a parameter is beyond +-1e+06" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "work" / f"{model}.ckpt").exists()


def test_ctrl_c_is_a_typed_exit_and_finished_stages_stay_cached(synth_log, tmp_path):
    root, log = synth_log
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(canids.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "canids.cli", "run", "--config", str(cfg),
         "--set", "detector_epochs=100000", "--set", "detector_patience=100000"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    seen = []
    for line in proc.stderr:  # the detector trains only after encode and embed are cached
        seen.append(line)
        if line.startswith("INFO canids.detector: detector epoch"):
            break
    proc.send_signal(signal.SIGINT)
    err = "".join(seen) + proc.communicate(timeout=120)[1]
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert "Traceback" not in err
    assert err.rstrip().splitlines()[-1] == "run interrupted; finished stages stay cached"
    work = tmp_path / "work"
    kept = ["encoder.ckpt"] + [f"embeddings_{s}.csv" for s in pipeline.SPLITS]
    mtimes = [(work / name).stat().st_mtime_ns for name in kept]
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert [(work / name).stat().st_mtime_ns for name in kept] == mtimes


def test_run_rebuilds_after_truncated_manifest(synth_log, tmp_path, caplog):
    root, log = synth_log
    cfg = tmp_path / "m.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    manifest = tmp_path / "work" / "manifest.json"
    summary = tmp_path / "work" / "summary.txt"
    ckpt = tmp_path / "work" / "encoder.ckpt"
    recorded, table, trained = manifest.read_bytes(), summary.read_bytes(), ckpt.stat().st_mtime_ns
    manifest.write_bytes(recorded[:40])
    with caplog.at_level(logging.WARNING, logger="canids.pipeline"):
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert any(str(manifest) in r.getMessage() for r in caplog.records
               if r.levelno == logging.WARNING)
    assert ckpt.stat().st_mtime_ns != trained  # every stage missed, so the encoder retrained
    assert manifest.read_bytes() == recorded and summary.read_bytes() == table


def test_evaluate_rejects_report_that_fails_its_digest(synth_log, tmp_path, capsys):
    root, log = synth_log
    cfg = tmp_path / "d.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    report = tmp_path / "work" / "detect_mean.csv"
    full = report.read_bytes()
    report.write_bytes(b"".join(full.splitlines(keepends=True)[:17]))  # header + 16 rows
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "detect_mean.csv" in err and "rerun detect" in err
    # a report whose digest the manifest lacks is rejected the same way
    report.write_bytes(full)
    manifest = tmp_path / "work" / "manifest.json"
    recorded = manifest.read_text()
    manifest.write_text(recorded.replace('"detect_max.csv"', '"other.csv"'))
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "detect_max.csv" in err and "rerun detect" in err
    # and so is a report whose checkpoint is cut short, naming the stage that wrote it
    manifest.write_text(recorded)
    ckpt = tmp_path / "work" / "detector.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:20])
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and "detector.ckpt" in err and "rerun train-detector" in err


@pytest.mark.parametrize("change, stage", [
    ("--set threshold=0.9", "detect"),
    ("--set sequence_length=5", "train-detector"),
    pytest.param("--set window_size=75", "preprocess", id="--window-size 75-preprocess"),
    ("rewrite the log", "preprocess"),
])
def test_evaluate_rejects_a_stale_stage(synth_log, tmp_path, capsys, change, stage):
    _, log = synth_log
    copy = tmp_path / "traffic.csv"
    copy.write_bytes(log.read_bytes())
    cfg = tmp_path / "s.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {copy}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    flags = change.split() if change.startswith("--") else []
    if not flags:  # drop the last frame
        copy.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:-1]))
    files = {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), *flags]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and f"stage {stage} is out of date" in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()} == files


def test_evaluate_reads_the_run_of_its_config(synth_log, tmp_path, capsys):
    _, log = synth_log
    cfg = tmp_path / "t.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg), "--set", "threshold=0.9"]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--set", "threshold=0.9"]) == EXIT_OK
    assert capsys.readouterr().out == (tmp_path / "work" / "summary.txt").read_text()


def test_evaluate_on_a_missing_work_dir_creates_nothing(synth_log, tmp_path, capsys):
    _, log = synth_log
    cfg = tmp_path / "m.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["m.cfg"]


def test_evaluate_names_a_missing_input_log(synth_log, tmp_path, capsys):
    _, log = synth_log
    copy = tmp_path / "traffic.csv"
    copy.write_bytes(log.read_bytes())
    cfg = tmp_path / "l.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {copy}\nwork_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    copy.rename(tmp_path / "moved.csv")
    files = {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err == f"evaluate failed: input log not found: {str(copy)!r}\n"
    assert {p.name: p.read_bytes() for p in (tmp_path / "work").iterdir()} == files


@pytest.mark.parametrize("command, chain", [
    ("preprocess", ["preprocess", "windows"]),
    ("train-encoder", ["preprocess", "train-encoder"]),
    ("embed", ["preprocess", "train-encoder", "embed"]),
    ("train-detector", ["preprocess", "train-encoder", "embed", "train-detector"]),
    ("detect", ["preprocess", "train-encoder", "embed", "train-detector", "detect"]),
])
def test_a_stage_command_runs_the_chain_through_its_stage(synth_log, tmp_path, command, chain):
    _, log = synth_log
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_KEYS + f"input_log = {log}\nwork_dir = {tmp_path / 'work'}\n")
    assert main([command, "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((tmp_path / "work" / "manifest.json").read_text())
    assert [s for s in pipeline.STAGES if s in manifest] == chain


def test_run_without_an_input_log_names_it(tmp_path, capsys):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(PIPELINE_KEYS + f"work_dir = {tmp_path / 'work'}\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_DATA
    assert "input log not found" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["detector_batch=0", "detector_epochs=0", "encoder_lr=0",
                                      "encoder_seed=-1", "detector_seed=-2", "synth_seed=-1",
                                      "train_ratio=nan", "entropy_sizes=20,10", "entropy_sizes=",
                                      "sweep_sequence_lengths=0", "sweep_window_sizes=1",
                                      "sweep_window_sizes="])
def test_training_config_error_exits_before_any_stage(synth_log, tmp_path, override):
    root, log = synth_log
    cfg = run_cfg(root, log, name="override.cfg")
    work = tmp_path / "work"
    assert main(["run", "--config", str(cfg), "--set", f"work_dir={work}",
                 "--set", override]) == EXIT_CONFIG
    assert not work.exists()


# The CLI's input contract, fuzzed: a log of the CLI test corpus with one mutation,
# run with one-epoch trainers and up to two config values from a pool, ends in a
# typed exit, with no traceback and no RuntimeWarning.
CELL_VALUES = [
    "nan", "inf", "-inf", "-1", "1e400", "1e-400", "-0", "é", "٣", "１", "\0", "", "0x", "0x-1",
    "1_0", "+5", "1" * 20, "F" * 20, " ", '"', "9", "GG", "00 01 02 03 04 05 06 07 08",
    "1FFFFFFF", "20000000", "0x1FFFFFFF", "0x20000000", "NORMAL", "flooding", "Normal,Normal",
]
KEY_POOL = [
    ("window_size=2",), ("window_size=7",), ("window_size=1000000",), ("window_size=1",),
    ("sequence_length=1",), ("sequence_length=1000000",), ("byte_mode=normalized",),
    ("threshold=1e-300",), ("threshold=0.999999",), ("threshold=1",),
    ("train_ratio=0.9", "val_ratio=0.05", "test_ratio=0.05"), ("train_ratio=0.9",),
    ("detector_batch=1",), ("detector_batch=1000000",), ("encoder_patience=0",), ("grad_clip=0",),
    ("entropy_sizes=1",), ("encoder_lr=1e300",), ("encoder_lr=1e10",), ("encoder_lr=1e3",),
    ("detector_lr=1e300",), ("detector_lr=1e10",), ("detector_lr=1e3",), ("detector_lr=1e-300",),
]
TINY_EPOCHS = ("encoder_epochs=1", "encoder_patience=0", "detector_epochs=1", "detector_patience=0")


@st.composite
def mutated_logs(draw, lines):
    """The log's lines with one mutation: a cut at a byte, a line dropped, doubled or
    swapped with the next, a header cell renamed, or one cell set to a CELL_VALUES value."""
    lines = list(lines)
    kind = draw(st.sampled_from(["cut", "drop", "double", "swap", "header", "cell"]))
    at = draw(st.integers(1, len(lines) - 2))
    if kind == "cut":
        text = "".join(lines)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "drop":
        del lines[at]
    elif kind == "double":
        lines.insert(at, lines[at])
    elif kind == "swap":
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    else:
        row = 0 if kind == "header" else at
        cells = lines[row].rstrip("\r\n").split(",")
        column = draw(st.integers(0, len(cells) - 1))
        cells[column] = cells[column] + "_x" if kind == "header" else draw(st.sampled_from(CELL_VALUES))
        lines[row] = ",".join(cells) + "\r\n"
    return "".join(lines)


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_a_mutated_log_or_config_value_ends_in_a_typed_exit(synth_log, data):
    """`run` exits 0, 2, 3 or 4, with no traceback on stderr and no RuntimeWarning; after
    0, `evaluate` prints summary.txt."""
    text = data.draw(mutated_logs(synth_log[1].read_bytes().decode().splitlines(keepends=True)))
    keys = [s for entry in data.draw(st.lists(st.sampled_from(KEY_POOL), max_size=2)) for s in entry]
    with tempfile.TemporaryDirectory(dir=synth_log[0]) as root:
        log, work = Path(root) / "traffic.csv", Path(root) / "work"
        log.write_text(text, encoding="utf-8", newline="")
        args = ["--config", str(run_cfg(Path(root), log)), "--set", f"work_dir={work}",
                *(f"--set={s}" for s in (*TINY_EPOCHS, *keys))]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", *args])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == EXIT_OK:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["evaluate", *args]) == EXIT_OK
                assert out.getvalue() == (work / "summary.txt").read_text()
