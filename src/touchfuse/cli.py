"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

Exit codes:

- 0 success;
- 2 configuration error in the file or a flag (flags pass the file's
  checks), including a non-finite number, an unknown stage and a
  `[sim] sparse_fraction` that leaves a view fewer than 2 sparse samples;
- 3 missing stage dependency;
- 4 numerical failure;
- 5 another run holds the output directory's lock;
- 6 malformed input file (PFM/PGM/PPM, PLY, camera list, sparse depth,
  GPIS model), a non-finite sparse depth or mono depth under a sparse
  sample, a view image whose size is not its camera's, a GPIS model with
  no surface point, or corrupt `manifest.json`.
"""

import argparse
import sys

from .config import validate_config
from .errors import ConfigError, DependencyError, FormatError, LockedError, NumericalError
from .pipeline import STAGE_ORDER, run_pipeline, wanted_stages

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERICAL = 4
EXIT_LOCKED = 5
EXIT_FORMAT = 6

# error class -> (exit code, label that starts its message on stderr)
FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DependencyError: (EXIT_DEPENDENCY, "dependency error"),
    NumericalError: (EXIT_NUMERICAL, "numerical failure"),
    LockedError: (EXIT_LOCKED, "locked"),
    FormatError: (EXIT_FORMAT, "malformed file"),
}


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
    # Flag values pass the config's own parse and range check.
    p.add_argument("--seed", default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "pipeline":
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    else:
        stages = [args.command]
    try:
        stages = wanted_stages(stages)
        cfg = validate_config(args.config, require_dataset="simulate" not in stages)
        for key in ("seed", "out"):
            if getattr(args, key) is not None:
                cfg.override("scene", key, getattr(args, key))
        status = run_pipeline(cfg, stages)
    except tuple(FAILURES) as exc:
        code, label = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code

    for stage in STAGE_ORDER:
        if stage in status:
            print(f"{stage}: {status[stage]}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
