"""Command-line interface: one subcommand per pipeline stage plus `pipeline`.

Exit codes: 0 on success, else one of these, whose label starts the message
on stderr (argparse's own usage errors carry none and exit 2 as well).

2 config error: a config file that cannot be read or is not UTF-8, an
  unknown section, key or stage (named before a missing dataset), a
  `--stages` list that names no stage, a value that will not parse, is out
  of range or is not finite, a repeated `rho_grid` value, a `[sim] size`
  that does not fit the shape, a `[sim] sparse_fraction` that leaves a
  view fewer than 2 sparse samples or a `dataset` or `out` path that is a
  file; the message names the line when the file set the key. `--seed`
  and `--out` pass the file's checks.
3 dependency error: a missing input, naming the stage that makes it. An
  `out:` input is missing too unless that stage's manifest record lists
  its hash (a hand-edited file, one a crashed rerun of that stage left, or
  one of a stage with no record); the message names the file and the
  stage. So a stage reads an `out:` file only as its maker wrote it.
4 numerical failure: a conditioning set over `[conditioning] cap`, touch
  points in more voxel cells than one int64 key each can index (over about
  a million), a touch point 2**62 or more voxel cells from the origin (a
  `[conditioning] voxel` pitch too fine to index, naming the pitch and the
  coordinates' span), a kernel matrix that will not factorize, or no GPIS
  ray hit at init-points.
5 locked: another run holds the output directory's lock.
6 malformed file: an input a stage cannot parse or use; the message names
  it and never advises simulate, which would overwrite a real dataset:
  - a PFM/PGM/PPM, PLY, camera list, sparse depth table or GPIS model
    that will not parse, a PLY `format` other than `ascii 1.0` and
    `binary_little_endian 1.0`, a binary property not `float64`/`double`,
    a PFM scale that is not a finite nonzero number, or more or fewer
    values or bytes than the header declares (both named);
  - a touch file whose points, thinned at `[conditioning] voxel`, leave no
    two distinct ones (naming both counts and the pitch); a splat PLY with
    no splat, a non-finite value, or not one `obj_info background r g b`
    header line;
  - a camera list with no view, a view whose files the dataset lacks, a
    view name used twice or not 1 to 200 letters, digits, `_`, `-` and
    `.` (no leading `.`), a non-finite focal length or pose (naming the
    block and its `view` line), a `size`, `intrinsics` or `pose` line
    before the first `view` line, or a second `size` or `intrinsics` or
    fifth `pose` line in one block;
  - sparse samples that all lie on one raw mono depth, or a non-finite
    sparse depth or mono depth under a sample;
  - a scene record (the dataset's `scene.cfg`) that repeats a key, lacks
    `shape` or `size`, or whose shape or size will not parse or fit;
  - a camera list but no scene record (at eval) or no touch file
    `touches.ply` (at gpis-fit), which a dataset of the older layout, one
    file per touch under `touches/`, lacks;
  - a view image whose size is not its camera's: a dataset image, or an
    `out:` image whose camera list was edited after it was written;
  - a `manifest.json` that is not JSON or not of the shape the pipeline
    writes (a record of no stage or without `params`, `inputs` or
    `outputs`, a file name of no stage, a digest not 16 hex digits, a
    repeated key); delete it to rerun every stage.
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
        epilog=__doc__.split("\n\n", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
