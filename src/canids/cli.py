"""Command-line entry point for the CAN anomaly detection pipeline."""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import ingest, pipeline
from .analysis import compute_metrics  # noqa: F401 -- perfbench's tracer patches it here
from .config import KEY_SPECS, ConfigError, PipelineConfig
from .detector import VIEWS, read_report_csvs, summary_table
from .ingest import ParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

STAGE_COMMANDS = ("synth", "preprocess", "entropy", "train-encoder", "embed",
                  "train-detector", "detect", "evaluate", "run", "sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canids",
        description="Windowed graph + GRU anomaly detection for CAN bus logs")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
        # one flag per scalar config key, e.g. --window-size overrides window_size
        for key in KEY_SPECS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V")
    return parser


def load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    for key in KEY_SPECS:
        v = getattr(args, f"cfg_{key}", None)
        if v is not None:
            cfg.set(key, v)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        cfg.set(key, value)
    cfg.validate()
    return cfg


def cmd_evaluate(cfg: PipelineConfig) -> None:
    """Recompute the metric summary from detection CSVs that match their manifest sha256."""
    work = Path(cfg.work_dir)
    if not work.is_dir():
        raise FileNotFoundError(f"missing {work}; run detect first")
    ws = pipeline.Workspace(cfg)
    for view in VIEWS:
        path = ws.path(f"detect_{view}.csv")
        if not path.exists():
            raise FileNotFoundError(f"missing {path}; run detect first")
        if not ws.intact(path.name):
            raise ValueError(f"{path} does not match its sha256 in manifest.json; rerun detect")
    report = read_report_csvs(ws.dir, cfg.threshold)
    print(summary_table(report, cfg.window_size, cfg.sequence_length))


def dispatch(command: str, cfg: PipelineConfig) -> None:
    if command == "synth":
        path = pipeline.run_synth(cfg)
        print(f"wrote {path}")
        return
    if command == "entropy":
        print(f"wrote {pipeline.run_entropy(cfg)}")
        return
    if command == "evaluate":
        cmd_evaluate(cfg)
        return
    if command == "sweep":
        print(f"wrote {pipeline.run_sweep(cfg)}")
        return
    if command in ("run", "detect"):
        _, ws = pipeline.run_pipeline(cfg)
        print(ws.path("summary.txt").read_text(), end="")
        return

    ws = pipeline.Workspace(cfg)
    splits = pipeline.stage_preprocess(ws)
    if command == "preprocess":
        # the windowed dump has its own key, so a preprocess hit cannot vouch for it
        digest = ws.stage_hash("windows", [], upstream=("preprocess",))
        outputs = [f"windows_{s}.csv" for s in pipeline.SPLITS]
        if not ws.fresh("windows", digest, outputs):
            for s, name in zip(pipeline.SPLITS, outputs):
                ingest.write_windows_csv(splits[s], ws.path(name))
            ws.mark("windows", digest, outputs)
        print(f"wrote windowed splits to {ws.dir}")
        return
    enc = pipeline.stage_train_encoder(ws, splits)
    if command == "train-encoder":
        print(f"wrote {ws.path('encoder.ckpt')}")
        return
    embeddings = pipeline.stage_embed(ws, splits, enc)
    if command == "embed":
        print(f"wrote embeddings to {ws.dir}")
        return
    pipeline.stage_train_detector(ws, embeddings)
    print(f"wrote {ws.path('detector.ckpt')}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        dispatch(args.command, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ParseError, FileNotFoundError, ValueError, OSError) as e:
        print(f"{args.command} failed: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
