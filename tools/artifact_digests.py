"""Digests of every file and every stdout the canids CLI writes, so two source
trees can be checked for byte-identical output with one `diff`.

    python tools/artifact_digests.py PATH/TO/OTHER/src > before.txt
    python tools/artifact_digests.py src > after.txt
    diff before.txt after.txt

It imports canids from the given src/ directory and runs `synth`, `preprocess`
(which writes the windows_*.csv dumps), `run`, a cached `run`, `entropy` and
`evaluate` through `canids.cli.main` on three inputs: the criterion-7 config of
tests/test_acceptance.py, perfbench's `fit` corpus (seed 1) and the acceptance
corpus. A fourth input runs `synth`, `preprocess` and `run` on the criterion-7
config with its log rewritten in another form parse_log reads ("0x" ids,
comma-separated payloads); every file of its work dir but the manifest, which
hashes the log, and every output sha256 the manifest records must equal the
criterion-7 input's, or the script exits 1. Its stage digests, which chain on
the log's bytes, are not compared.
A fifth input runs `synth` on each of the 25 held-out captures that every
`score` set-up of perfbench writes for seed 1, with an attack near the end of
each odd capture, their configs built from perfbench/workloads.py's constants.
Each input runs in its own directory under --out, removed first; --out
defaults to one fixed path, since paths are written into the work dir: both
trees must run with the same --out. BLAS runs on one
thread, as in perfbench. Each output line is `<input> <command> exit=<code>
stdout=<sha256>` or `<input> <file> <sha256>`, for every file the input leaves,
or `<input> work/manifest.json:<key> <value>`, for every entry of the manifest,
so a change to how stage digests are formed shows as changed stage-digest lines
while every recorded output sha256 stays equal; the captures input gives one
`synth` line and one log line per capture.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads
sys.dont_write_bytecode = True  # leaves no cache files in perfbench/ or tests/

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REWRITTEN = "criterion7-rewritten"
CAPTURES = "captures"
INPUTS = ("criterion7", "fit", "acceptance", REWRITTEN, CAPTURES)
COMMANDS = ("synth", "preprocess", "run", "rerun", "entropy", "evaluate")


def config_text(name: str, out_dir: Path) -> str:
    """The config file of one input, its log and work dir under out_dir."""
    import test_acceptance
    import workloads

    log, work = out_dir / "traffic.csv", out_dir / "work"
    if name == "fit":
        return workloads.corpus_text(1, out_dir)
    if name in ("criterion7", REWRITTEN):  # as test_criterion_7_determinism writes it
        head = test_acceptance.DETERMINISM_CFG + "entropy_sizes = 10,20,50\n"
    else:  # as corpus_config sets it
        head = test_acceptance.CORPUS_CFG + "".join(
            f"{key} = {value}\n" for key, value in test_acceptance.PIPELINE_KEYS.items())
    source = out_dir / "rewritten.csv" if name == REWRITTEN else log
    return head + f"synth_output = {log}\ninput_log = {source}\nwork_dir = {work}\n"


def capture_text(index: int, log: Path) -> str:
    """The config of `score`'s capture `index` for seed 1, as Score.setup writes it."""
    import workloads

    text = (f"{workloads.ECUS}{workloads.PIPELINE}synth_duration = {workloads.CAPTURE_SECONDS}\n"
            f"synth_seed = {workloads.capture_seed(1, index)}\n"
            f"synth_output = {log}\ninput_log = {log}\n")
    if index % 2:
        attacks = workloads.CAPTURE_ATTACKS
        text += f"attack1 = {attacks[(index // 2) % len(attacks)]}\n"
    return text


def rewrite_log(source: Path, target: Path) -> None:
    """Write the log `source` again with "0x" ids and comma-separated, so quoted, payloads."""
    with source.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    with target.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *([ts, "0x" + arb, dlc, ",".join(payload.split()), label]
                                           for ts, arb, dlc, payload, label in rows)])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(command: str, config: Path):
    """(exit code, sha256 of stdout) of one canids command."""
    from canids import cli

    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main([command, "--config", str(config)])
    return code, sha256(stdout.getvalue().encode())


def capture_lines(out_dir: Path) -> list:
    """`synth` on each `score` capture: its exit code and stdout, and its log's sha256."""
    import workloads

    lines = []
    for index in range(workloads.CAPTURES):
        capture = out_dir / f"capture{index:02d}"
        capture.mkdir(parents=True)
        config, log = capture / "capture.cfg", capture / "capture.csv"
        config.write_text(capture_text(index, log))
        code, stdout = run_cli("synth", config)
        lines.append(f"{CAPTURES} {capture.name}/synth exit={code} stdout={stdout}")
        digest = sha256(log.read_bytes()) if log.exists() else "missing"
        lines.append(f"{CAPTURES} {log.relative_to(out_dir)} {digest}")
    return lines


def digest_lines(name: str, out_dir: Path) -> list:
    if name == CAPTURES:
        return capture_lines(out_dir)
    out_dir.mkdir(parents=True)
    config = out_dir / "input.cfg"
    config.write_text(config_text(name, out_dir))
    lines = []
    for command in COMMANDS[:3] if name == REWRITTEN else COMMANDS:
        code, stdout = run_cli("run" if command == "rerun" else command, config)
        lines.append(f"{name} {command} exit={code} stdout={stdout}")
        if name == REWRITTEN and command == "synth":
            rewrite_log(out_dir / "traffic.csv", out_dir / "rewritten.csv")
    lines += [f"{name} {path.relative_to(out_dir)} {sha256(path.read_bytes())}"
              for path in sorted(out_dir.rglob("*")) if path.is_file()]
    manifest = json.loads((out_dir / "work" / "manifest.json").read_text())
    return lines + [f"{name} work/manifest.json:{key} {value}" for key, value in sorted(manifest.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import canids from")
    parser.add_argument("--out", type=Path, default=Path(tempfile.gettempdir()) / "canids-artifact-digests",
                        help="where the inputs run, one directory each (default: %(default)s)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench"), str(ROOT / "tests")]
    files = {}  # input -> {file: sha256}
    for name in INPUTS:
        shutil.rmtree(args.out / name, ignore_errors=True)
        for line in digest_lines(name, args.out / name):
            print(line, flush=True)
            if len(parts := line.split(" ")) == 3:
                files.setdefault(name, {})[parts[1]] = parts[2]
    from canids.pipeline import STAGES

    stage_digests = {f"work/manifest.json:{stage}" for stage in STAGES} | {"work/manifest.json"}
    compared = [path for path in files[REWRITTEN] if path.startswith("work/") and path not in stage_digests]
    differ = [path for path in compared if files[REWRITTEN][path] != files["criterion7"].get(path)]
    if differ or not compared:
        print(f"{REWRITTEN}: {differ or 'no work dir files'} differ from criterion7's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
