"""The byte-identity guard: `synth`, `preprocess` and `run` on a tiny config, at one
and at two BLAS threads, must write the log and every STAGES output with the one set
of sha256s pinned in artifact_pins.json, unless the stage's `version` moved with its
bytes.

The pins hold only for the environment recorded beside them: the numpy version, its
BLAS and the CPU features numpy found. On any other environment the test skips and
names both. After a deliberate change to what a stage writes, bump that stage's
`version` in pipeline.STAGES and rewrite the pins with

    PYTHONPATH=src python tests/test_artifact_pins.py
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import canids
from canids.pipeline import STAGES

PINS = Path(__file__).with_name("artifact_pins.json")
REPIN = "PYTHONPATH=src python tests/test_artifact_pins.py"
CONFIG = """
synth_duration = 3
synth_jitter = 0.05
synth_seed = 5
ecu1 = 0x100 2 8 counter
ecu2 = 0x1A0 4 6 mixed
ecu3 = 0x2C0 5 8 walk
ecu4 = 0x090 10 8 const
attack1 = flooding 0.5 0.2 rate=2000 target=0x010
attack2 = fuzzing 1.0 0.3 rate=600
attack3 = replay 1.5 0.3 span=0.1:0.4
attack4 = spoofing 2.2 0.4 rate=300 target=0x090 mutate=3:1:255
window_size = 20
sequence_length = 5
encoder_epochs = 2
detector_epochs = 2
"""


def environment() -> dict:
    """What the pinned bytes depend on beyond the code: numpy, its BLAS, the CPU's SIMD."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "cpu_features": config["SIMD Extensions"]["found"]}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(root: Path, threads: str = "1") -> dict:
    """The log's sha256, and each stage's version and output sha256s from manifest.json,
    after `synth`, `preprocess` and `run` on CONFIG in `root`, each in a subprocess with
    `threads` BLAS threads."""
    log, work, config = root / "traffic.csv", root / "work", root / "tiny.cfg"
    config.write_text(CONFIG + f"synth_output = {log}\ninput_log = {log}\nwork_dir = {work}\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONPATH": str(Path(canids.__file__).parents[1])}
    for command in ("synth", "preprocess", "run"):
        result = subprocess.run([sys.executable, "-m", "canids.cli", command, "--config", str(config)],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, f"canids {command}: {result.stderr}"
    manifest = json.loads((work / "manifest.json").read_text())
    return {"log": sha256(log),
            "stages": {stage: {"version": spec.version, "outputs": {o: manifest[o] for o in spec.outputs}}
                       for stage, spec in STAGES.items()}}


def test_stage_outputs_match_their_pins(tmp_path):
    pinned = json.loads(PINS.read_text())
    here = environment()
    if pinned["environment"] != here:
        pytest.skip(f"the pins were made on {pinned['environment']}, this is {here}")
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        got = artifacts(tmp_path / threads, threads)
        if got["log"] != pinned["log"]:
            pytest.fail(f"synth writes other log bytes at {threads} BLAS threads; if that is meant, "
                        f"re-pin with {REPIN}")
        for stage, now in got["stages"].items():  # in run order
            was = pinned["stages"].get(stage, {"version": None, "outputs": {}})
            changed = sorted(o for o, digest in now["outputs"].items() if digest != was["outputs"].get(o))
            if now["version"] == was["version"] and changed:
                pytest.fail(f"stage {stage}: the bytes of {', '.join(changed)} changed without a "
                            f"version bump (version {now['version']}), at {threads} BLAS threads")
            if now != was:
                pytest.fail(f"stage {stage} is at version {now['version']}, pinned at {was['version']}; "
                            f"re-pin with {REPIN}")
        assert got["stages"].keys() == pinned["stages"].keys(), f"STAGES changed; re-pin with {REPIN}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {"environment": environment(), **artifacts(Path(tmp))}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
