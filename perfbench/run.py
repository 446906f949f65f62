"""canids benchmark: one workload, end-to-end or per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload fit|score --seed N --seconds S --trace 0|1

Run it from the root of a canids checkout; it imports the package from src/.
Set-up runs here, SETUP_REPS times; the timed phase runs in a child process of
its own, so its peak RSS excludes set-up. A speed sampler (speed.py) runs
during set-up and the untraced timed phase, and the gated times are in
reference seconds, scaled by the speed it saw. With --trace 1 a second,
traced child follows the untraced one and the per-layer metrics are printed
instead of the end-to-end ones. The last line of stdout is the result JSON; the line before it
records the environment. The exit code is 0 only when every output check
passed. See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# Fixed before numpy loads, here and in the child, which inherits the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Sampler  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fit", "score")
DEFAULT_SEED = 1
SETUP_REPS = 2
DEADLINE_S = 175.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "frames_per_s": "frames/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "peak_rss_mb": "MiB",
}
# The same times unscaled, as the clock read them; printed in the record line.
RAW = {"setup_raw_s": "s", "wall_raw_s": "s", "latency_p50_raw_ms": "ms",
       "probe_ms": "ms"}
# Printed in the record line, not gated: error_rate is 0 whenever the run
# passes, and at benchmark scale the models are under-trained, so the quality
# metrics are near chance and move with the seed (see README.md).
REPORTED = {"error_rate": "fraction", "auc_sequence": "fraction", "auc_mean": "fraction",
            "auc_max": "fraction", "f1_sequence": "fraction"}

BUSY = (
    "ingest.write_log", "ingest.parse_log", "ingest.write_windows_csv",
    "graph.build_graph", "graph.normalized_adjacency", "encoder.train_encoder",
    "encoder.embed", "encoder.write_embeddings_csv", "encoder.read_embeddings_csv",
    "detector.train_detector", "detector.detect", "nn.backward", "nn.adam_step",
    "nn.clip_global_norm", "nn.gru_cell", "nn.gcn_conv", "nn.save_checkpoint",
    "nn.restore_parameters", "analysis.entropy_sweep", "analysis.compute_metrics",
    "pipeline.stage_preprocess", "pipeline.stage_train_encoder", "pipeline.stage_embed",
    "pipeline.stage_train_detector", "pipeline.stage_detect", "pipeline.stage_hash",
)
CALLS = ("graph.build_graph", "graph.normalized_adjacency", "encoder.embed",
         "nn.backward", "nn.adam_step", "nn.gru_cell", "nn.gcn_conv")
COUNTS = ("ingest.parse_log.frames", "ingest.write_windows_csv.bytes",
          "detector.sequences_scored", "pipeline.cache_hits", "pipeline.cache_misses")


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "process.cpu_s": "s", "process.cpu_per_wall": "s/s",
                  "synth.busy_s": "s", "ingest.parse_fps": "frames/s",
                  "pipeline.prepare_splits.self_s": "s",
                  "encoder.train_steps": "count", "encoder.step_ms": "ms",
                  "detector.train_batches": "count", "detector.step_ms": "ms",
                  "detector.forward_train_s": "s", "detector.forward_infer_s": "s"})
    units.update({f"{name}.busy_s": "s" for name in BUSY})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "bytes" if name.endswith(".bytes") else "count" for name in COUNTS})
    return units


PER_LAYER = per_layer_units()


def parse_args(argv):
    p = argparse.ArgumentParser(description="canids benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default 1; seed 7 is held out for checking a claim)")
    p.add_argument("--seconds", type=int, default=25,
                   help="minimum length of the timed phase (BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it is not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads_env": BLAS_THREADS}


# ---------------------------------------------------------------- child side

def peak_rss_mb() -> float:
    """This process's peak RSS in MiB.

    VmHWM belongs to the address space made at exec, so it excludes the
    parent's set-up; ru_maxrss would carry the parent's peak across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


def child_main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[spec["workload"]]
    ctx = workload.open(spec["state"], Path(spec["dir"]))
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    # rounds[k][j]: latency of op j of round k, None if it failed;
    # spans[k][j]: its start and end on the perf_counter clock.
    rounds, spans, errors = [], [], []
    attempted = failed = 0
    sampler = Sampler()  # off in the traced phase, whose spans its probes would skew
    if tracer is None:
        sampler.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while True:
        latencies, round_spans = [], []
        for name, fn in workload.round(ctx):
            attempted += 1
            latencies.append(None)
            stolen = sampler.stolen
            start = time.perf_counter()
            try:
                result = tracer.op(attempted, fn) if tracer is not None else fn()
            except Exception as e:  # a failed op is counted, and the run goes on
                traceback.print_exc(file=sys.stderr)
                errors.append(f"op {name}: {type(e).__name__}: {e}")
                failed += 1
                round_spans.append(None)
                continue
            end = time.perf_counter()
            latencies[-1] = end - start - (sampler.stolen - stolen)
            round_spans.append((start, end))
            problems = workload.check(ctx, name, result)
            if problems:
                errors += [f"op {name}: {p}" for p in problems]
                failed += 1
        rounds.append(latencies)
        spans.append(round_spans)
        if len(rounds) >= workload.min_rounds and time.perf_counter() - t0 >= spec["seconds"]:
            break
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    sampler.stop()
    # Probe time is CPU time too; it is not the program's.
    cpu -= sampler.stolen
    elapsed -= sampler.stolen
    factors = probe = None
    if sampler.samples:
        factors = [[None if sp is None else sampler.factor(*sp) for sp in r] for r in spans]
        probe = sampler.median_probe_s()
    out = {"rounds": rounds, "factors": factors, "probe_s": probe,
           "attempted": attempted, "failed": failed,
           "errors": errors, "elapsed_s": elapsed, "cpu_s": cpu,
           "peak_rss_mb": peak_rss_mb(),
           "frames_per_round": workload.frames(ctx), "quality": workload.quality(ctx),
           "blas_threads": blas_threads()}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["trace_missing"] = tracer.missing
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


# --------------------------------------------------------------- parent side

def run_child(work: Path, args, state: dict, trace: int, deadline: float) -> dict:
    spec = {"workload": args.workload, "seconds": args.seconds, "trace": trace,
            "state": state, "dir": str(work / f"timed{trace}"),
            "out": str(work / f"timed{trace}.json")}
    Path(spec["dir"]).mkdir(parents=True, exist_ok=True)
    spec_path = work / f"timed{trace}.spec.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(spec_path)],
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
                   timeout=timeout)
    return json.loads(Path(spec["out"]).read_text())


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def position_latencies(rounds, factors=None) -> list:
    """Per op position, the median latency over the rounds.

    With factors, each latency is in reference seconds: scaled by the speed
    the sampler saw during its op (see speed.py), so a slow spell of the
    machine cancels out of it. Without, it stays as the clock read it.
    """
    columns = [[] for _ in rounds[0]]
    for k, latencies in enumerate(rounds):
        for j, v in enumerate(latencies):
            if v is not None:
                columns[j].append(v * factors[k][j] if factors else v)
    return [statistics.median(col) for col in columns if col]


def mean_round(rounds) -> float:
    return sum(v for r in rounds for v in r if v is not None) / len(rounds)


def end_to_end(setup: dict, plain: dict) -> dict:
    ops = position_latencies(plain["rounds"], plain["factors"])
    wall = sum(ops)
    ops_ms = [v * 1000.0 for v in ops]
    return {
        "setup_s": statistics.median(t * f for t, f in zip(setup["times"], setup["factors"])),
        "wall_s": wall,
        "frames_per_s": plain["frames_per_round"] / wall,
        "latency_p50_ms": percentile(ops_ms, 50),
        "latency_p90_ms": percentile(ops_ms, 90),
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def raw_times(setup: dict, plain: dict) -> dict:
    ops = position_latencies(plain["rounds"])
    return {
        "setup_raw_s": statistics.median(setup["times"]),
        "wall_raw_s": sum(ops),
        "latency_p50_raw_ms": percentile([v * 1000.0 for v in ops], 50),
        "probe_ms": 1000.0 * plain["probe_s"],
    }


def per_layer(plain: dict, traced: dict) -> dict:
    s = traced["trace"]
    n = len(traced["rounds"])
    busy = lambda name: s["busy"].get(name, 0.0) / n  # noqa: E731
    values = {f"{layer}.self_s": s["layer_self"].get(layer, 0.0) / n for layer in LAYERS}
    values.update({f"{name}.busy_s": busy(name) for name in BUSY})
    values.update({f"{name}.calls": s["calls"].get(name, 0) / n for name in CALLS})
    values.update({name: s["counts"].get(name, 0) / n for name in COUNTS})
    enc_steps = s["steps"]["encoder.train_encoder"] / n
    det_steps = s["steps"]["detector.train_detector"] / n
    parse_s = busy("ingest.parse_log")
    values.update({
        "trace.wall_s": s["ops_s"] / n,
        "trace.overhead_s": s["ops_s"] / n - mean_round(plain["rounds"]),
        "process.cpu_s": plain["cpu_s"] / len(plain["rounds"]),
        "process.cpu_per_wall": plain["cpu_s"] / plain["elapsed_s"],
        "synth.busy_s": busy("synth.generate_normal") + busy("synth.inject"),
        "ingest.parse_fps": values["ingest.parse_log.frames"] / parse_s if parse_s else 0.0,
        "pipeline.prepare_splits.self_s": s["self"].get("pipeline.prepare_splits", 0.0) / n,
        "encoder.train_steps": enc_steps,
        "encoder.step_ms": 1000.0 * busy("encoder.train_encoder") / enc_steps if enc_steps else 0.0,
        "detector.train_batches": det_steps,
        "detector.step_ms":
            1000.0 * busy("detector.train_detector") / det_steps if det_steps else 0.0,
        "detector.forward_train_s": busy("detector.forward_train"),
        "detector.forward_infer_s": busy("detector.forward_infer"),
    })
    return values


def run(args, work: Path) -> int:
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    setup = {"times": [], "factors": []}
    states = []
    sampler = Sampler()
    sampler.start()
    try:
        for rep in range(SETUP_REPS):
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
            stolen = sampler.stolen
            start = time.perf_counter()
            states.append(workload.setup(work / f"setup{rep}", args.seed))
            end = time.perf_counter()
            setup["times"].append(end - start - (sampler.stolen - stolen))
            setup["factors"].append(sampler.factor(start, end))
    finally:
        sampler.stop()
    run_errors = []
    if any(s["digests"] != states[0]["digests"] for s in states):
        run_errors.append("set-up is not deterministic: two set-ups on one seed differ")
    plain = run_child(work, args, states[-1], 0, deadline)
    if all(v is None for r in plain["rounds"] for v in r):
        print("error: every op failed:", *plain["errors"], sep="\n", file=sys.stderr)
        return 1
    if args.trace:
        traced = run_child(work, args, states[-1], 1, deadline)
        layer_sum = sum(traced["trace"]["layer_self"].values())
        if abs(layer_sum - traced["trace"]["ops_s"]) > 1e-6 * max(1.0, layer_sum):
            run_errors.append("layer self times do not add up to the traced wall time")
        metrics, units, phases = per_layer(plain, traced), PER_LAYER, [plain, traced]
    else:
        traced = None
        metrics, units, phases = end_to_end(setup, plain), END_TO_END, [plain]
    errors = [e for p in phases for e in p["errors"]] + run_errors
    attempted = sum(p["attempted"] for p in phases)
    failed = min(attempted, sum(p["failed"] for p in phases) + len(run_errors))
    correct = not errors
    reported = dict(plain["quality"] or {}, error_rate=failed / attempted)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": dict(environment(), blas_threads=plain["blas_threads"]),
              "setup_s_each": setup["times"], "setup_speed": setup["factors"],
              "rounds": len(plain["rounds"]), "op_s": plain["rounds"],
              "op_speed": plain["factors"],
              "raw": {k: {"value": v, "unit": RAW[k]} for k, v in raw_times(setup, plain).items()},
              "cpu_s": plain["cpu_s"],
              "trace_missing": traced["trace_missing"] if traced else [], "errors": errors,
              "reported": {k: {"value": reported.get(k), "unit": u} for k, u in REPORTED.items()}}
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0 if correct else 1


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # child, and through main's cleanup of the work dir.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args.child)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "canids" / "__init__.py").is_file():
        print(f"error: no canids package under {SRC}; run from a canids checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
