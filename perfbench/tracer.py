"""Span tracer for the benchmark's traced run.

The tracer patches public canids functions from outside the package. Every
patched call inside an op records a span: name, op id, parent span, start and
end. Spans stay in memory until the phase ends and are then reduced to the
per-layer metrics. Calls made outside an op (set-up, output checks) are not
recorded.

A function is patched in every namespace its callers look it up in, because
`canids.pipeline` imports most stage functions by name. One wrapper object is
installed in all of those namespaces, so a call never records two spans.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, attribute, owners). An owner is a module path, or a module path
# and a class name joined by ":". The layer of a span is its first dotted part.
SPANS = [
    ("synth.generate_normal", "generate_normal", ["canids.synth"]),
    ("synth.inject", "inject", ["canids.synth"]),
    ("ingest.parse_log", "parse_log", ["canids.ingest"]),
    ("ingest.write_log", "write_log", ["canids.ingest"]),
    ("ingest.write_windows_csv", "write_windows_csv", ["canids.ingest"]),
    ("graph.build_graph", "build_graph", ["canids.graph", "canids.pipeline"]),
    ("graph.normalized_adjacency", "normalized_adjacency", ["canids.graph", "canids.encoder"]),
    ("encoder.train_encoder", "train_encoder", ["canids.encoder", "canids.pipeline"]),
    ("encoder.embed", "embed", ["canids.encoder", "canids.pipeline"]),
    ("encoder.write_embeddings_csv", "write_embeddings_csv", ["canids.encoder", "canids.pipeline"]),
    ("encoder.read_embeddings_csv", "read_embeddings_csv", ["canids.encoder", "canids.pipeline"]),
    ("detector.train_detector", "train_detector", ["canids.detector", "canids.pipeline"]),
    ("detector.detect", "detect", ["canids.detector", "canids.pipeline"]),
    ("detector.make_sequences", "make_sequences", ["canids.detector", "canids.pipeline"]),
    ("detector.write_report_csvs", "write_report_csvs", ["canids.detector", "canids.pipeline"]),
    ("detector.summary_table", "summary_table", ["canids.detector", "canids.pipeline"]),
    ("detector.forward", "forward_batch", ["canids.detector:DetectorModel"]),
    ("analysis.entropy_sweep", "entropy_sweep", ["canids.analysis"]),
    ("analysis.write_entropy_csv", "write_entropy_csv", ["canids.analysis"]),
    ("analysis.compute_metrics", "compute_metrics",
     ["canids.analysis", "canids.detector", "canids.cli"]),
    ("pipeline.run_synth", "run_synth", ["canids.pipeline"]),
    ("pipeline.run_pipeline", "run_pipeline", ["canids.pipeline"]),
    ("pipeline.run_entropy", "run_entropy", ["canids.pipeline"]),
    ("pipeline.prepare_splits", "prepare_splits", ["canids.pipeline"]),
    ("pipeline.stage_preprocess", "stage_preprocess", ["canids.pipeline"]),
    ("pipeline.stage_train_encoder", "stage_train_encoder", ["canids.pipeline"]),
    ("pipeline.stage_embed", "stage_embed", ["canids.pipeline"]),
    ("pipeline.stage_train_detector", "stage_train_detector", ["canids.pipeline"]),
    ("pipeline.stage_detect", "stage_detect", ["canids.pipeline"]),
    ("pipeline.stage_hash", "stage_hash", ["canids.pipeline:Workspace"]),
    ("pipeline.fresh", "fresh", ["canids.pipeline:Workspace"]),
    ("nn.backward", "backward", ["canids.nn.tensor:Tensor"]),
    ("nn.adam_step", "adam_step", ["canids.nn"]),
    ("nn.clip_global_norm", "clip_global_norm", ["canids.nn"]),
    ("nn.gru_cell", "gru_cell", ["canids.nn"]),
    ("nn.gcn_conv", "gcn_conv", ["canids.nn"]),
    ("nn.save_checkpoint", "save_checkpoint", ["canids.nn"]),
    ("nn.restore_parameters", "restore_parameters", ["canids.nn"]),
    ("cli.main", "main", ["canids.cli"]),
    ("cli.load_config", "load_config", ["canids.cli"]),
    ("cli.dispatch", "dispatch", ["canids.cli"]),
    ("cli.cmd_evaluate", "cmd_evaluate", ["canids.cli"]),
]

LAYERS = ("bench", "cli", "pipeline", "synth", "ingest", "graph", "encoder",
          "detector", "analysis", "nn")
OP_SPAN = "bench.op"


def _span_name(name, args, kwargs):
    if name == "detector.forward":  # DetectorModel.forward_batch(self, x, training=False, rng=None)
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return "detector.forward_train" if training else "detector.forward_infer"
    return name


class Tracer:
    """Records spans of patched calls made inside `op`."""

    def __init__(self):
        self.spans = []   # [name, op_id, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._op_id = None
        self._patches = []

    def install(self) -> None:
        wrappers = {}
        for name, attr, owners in SPANS:
            for owner_path in owners:
                owner = _resolve(owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrapper(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def op(self, op_id, fn):
        """Run one op under a root span; every span it causes shares `op_id`."""
        self._op_id = op_id
        try:
            return self._record(OP_SPAN, fn, (), {})
        finally:
            self._op_id = None

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            result = self._record(_span_name(name, args, kwargs), fn, args, kwargs)
            self._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._op_id, self._stack[-1] if self._stack else -1,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def _count(self, name, args, result) -> None:
        if name == "ingest.parse_log":
            self.counts["ingest.parse_log.frames"] += len(result)
        elif name == "ingest.write_windows_csv":
            self.counts["ingest.write_windows_csv.bytes"] += Path(args[1]).stat().st_size
        elif name == "pipeline.fresh":
            self.counts["pipeline.cache_hits" if result else "pipeline.cache_misses"] += 1
        elif name == "detector.detect":
            self.counts["detector.sequences_scored"] += len(result.sequence_rows)

    def summary(self) -> dict:
        """Per-name busy time, self time and call count; per-layer self time."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        layer_self = {layer: 0.0 for layer in LAYERS}
        steps = {"encoder.train_encoder": 0, "detector.train_detector": 0}
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            busy[name] += end - start
            self_time[name] += own
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            if name == "nn.adam_step":
                owner = self._ancestor(i, steps)
                if owner is not None:
                    steps[owner] += 1
        return {"busy": dict(busy), "self": dict(self_time), "calls": dict(calls),
                "layer_self": layer_self, "counts": dict(self.counts),
                "steps": steps, "ops_s": busy.get(OP_SPAN, 0.0)}

    def _ancestor(self, index, names):
        parent = self.spans[index][2]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][2]
        return None


def _resolve(owner_path):
    module_path, _, class_name = owner_path.partition(":")
    try:
        module = importlib.import_module(module_path)
    except ImportError as e:
        print(f"trace: cannot import {module_path}: {e}", file=sys.stderr)
        return None
    return getattr(module, class_name, None) if class_name else module
