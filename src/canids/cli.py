"""Command-line entry point for the CAN anomaly detection pipeline."""
from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline
from .analysis import compute_metrics  # noqa: F401 -- perfbench's tracer patches it here
from .config import ConfigError, PipelineConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

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
                       help="override any config key (repeatable; read after the file, in order)")
    return parser


def load_config(args) -> PipelineConfig:
    """The config file's lines, then each `--set` as one more line, checked once."""
    return PipelineConfig.from_file(args.config, args.set)


def cmd_evaluate(cfg: PipelineConfig) -> None:
    """Print summary.txt once `run`'s stage walk, read-only, finds every stage current."""
    _, ws = pipeline.run_pipeline(cfg, read_only=True)
    print(ws.path("summary.txt").read_text(), end="")


def dispatch(command: str, cfg: PipelineConfig) -> None:
    if command == "evaluate":
        cmd_evaluate(cfg)
    elif command in ("synth", "entropy", "sweep"):
        print(f"wrote {getattr(pipeline, f'run_{command}')(cfg)}")
    elif command in ("run", "detect"):
        _, ws = pipeline.run_pipeline(cfg)
        print(ws.path("summary.txt").read_text(), end="")
    else:
        _, ws = pipeline.run_pipeline(cfg, through=command)
        if command == "preprocess":
            print(f"wrote windowed splits to {ws.dir}")
        elif command == "embed":
            print(f"wrote embeddings to {ws.dir}")
        else:
            print(f"wrote {ws.path(pipeline.STAGES[command].outputs[0])}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        dispatch(args.command, load_config(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as e:
        print(f"{args.command} failed: {e}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print(f"{args.command} interrupted; finished stages stay cached", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
