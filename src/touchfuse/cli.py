"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

Exit codes:

- 0 success;
- 2 configuration error;
- 3 missing stage dependency;
- 4 numerical failure;
- 5 another run holds the output directory's lock;
- 6 malformed input file (PFM/PGM/PPM, PLY, camera list, sparse depth,
  GPIS model), a view image whose size is not its camera's, a GPIS model
  with no surface point, or corrupt `manifest.json`.
"""

import argparse
import sys

from .config import validate_config
from .errors import ConfigError, DependencyError, FormatError, LockedError, NumericalError
from .pipeline import STAGE_ORDER, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERICAL = 4
EXIT_LOCKED = 5
EXIT_FORMAT = 6


def build_parser():
    parser = argparse.ArgumentParser(
        prog="touchfuse",
        description="Visual-tactile depth supervision pipeline on analytic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGE_ORDER:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        _common_flags(p)
    p = sub.add_parser("pipeline", help="run several stages in dependency order")
    _common_flags(p)
    p.add_argument("--stages", default=",".join(STAGE_ORDER),
                   help="comma-separated stage subset (default: all)")
    return parser


def _common_flags(p):
    p.add_argument("--config", required=True, help="scene configuration file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "pipeline":
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    else:
        stages = [args.command]
    unknown = [s for s in stages if s not in STAGE_ORDER]
    if unknown:
        print(f"error: unknown stage(s) {unknown}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = validate_config(args.config, require_dataset="simulate" not in stages)
        if args.seed is not None:
            cfg.override("scene", "seed", args.seed)
        if args.out is not None:
            cfg.override("scene", "out", args.out)
        status = run_pipeline(cfg, stages)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LockedError as exc:
        print(f"locked: {exc}", file=sys.stderr)
        return EXIT_LOCKED
    except FormatError as exc:
        print(f"malformed file: {exc}", file=sys.stderr)
        return EXIT_FORMAT

    for stage in STAGE_ORDER:
        if stage in status:
            print(f"{stage}: {status[stage]}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
