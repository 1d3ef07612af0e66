"""Command line entry points: extract, analyze, featdict.

Exit codes: 0 when every input succeeded, 1 when any input failed, and 2 for
configuration or I/O errors that stop the run outright.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import PipelineConfig, load_config
from .errors import VoxfeatError
from .featdict import write_featdict
from .pipeline import run_analyze, run_extract

_EPILOG = """\
environment:
  VOXFEAT_CONFIG  default for --config
  VOXFEAT_JOBS    default for --jobs
  VOXFEAT_SEED    default for --seed
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxfeat",
        description="Batch voice and transcript featurization.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None,
                        help="pipeline config JSON (env: VOXFEAT_CONFIG)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="extract worker processes; 1 extracts in this process "
                             "(default: one per usable CPU; env: VOXFEAT_JOBS)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (env: VOXFEAT_SEED)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="featurize every WAV in a directory into a CSV")
    p_extract.add_argument("audio_dir")
    p_extract.add_argument("out_csv")
    p_extract.add_argument("--transcripts", default=None,
                           help="directory of transcripts (default: audio dir)")

    p_analyze = sub.add_parser(
        "analyze", help="filter, transform, select and cross-validate a CSV")
    p_analyze.add_argument("features_csv")
    p_analyze.add_argument("out_dir")

    p_featdict = sub.add_parser(
        "featdict", help="write the feature name to formula dictionary")
    p_featdict.add_argument("out_path")

    return parser


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise VoxfeatError(f"{name} must be an integer, got {raw!r}") from None


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    path = args.config or os.environ.get("VOXFEAT_CONFIG")
    cfg = load_config(path) if path else PipelineConfig()
    seed = args.seed if args.seed is not None else _env_int("VOXFEAT_SEED")
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "extract":
            jobs = args.jobs if args.jobs is not None else _env_int("VOXFEAT_JOBS")
            manifest = run_extract(args.audio_dir, args.out_csv, cfg,
                                   transcript_dir=args.transcripts, jobs=jobs)
            for r in manifest.results:
                if not r.ok:
                    print(f"voxfeat: {r.source_id}: {r.message}", file=sys.stderr)
            print(f"wrote {manifest.row_count} rows x "
                  f"{manifest.feature_count} features to {args.out_csv}")
            return 0 if manifest.all_ok else 1
        if args.command == "analyze":
            report = run_analyze(args.features_csv, args.out_dir, cfg)
            print(f"wrote {', '.join(report['outputs'])} to {args.out_dir}")
            return 0
        write_featdict(cfg, args.out_path)
        print(f"wrote feature dictionary to {args.out_path}")
        return 0
    except VoxfeatError as exc:
        print(f"voxfeat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
