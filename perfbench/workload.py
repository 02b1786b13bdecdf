"""One benchmark run of one workload, in a fresh process.

Started by run.py with the BLAS thread count and PYTHONPATH fixed in its
environment. It imports touchfuse, validates the scene config and prints
READY (the parent times set-up up to that line), then the mean of
PROBE_PASSES passes of the speed sampler's compute work as
"PROBE <seconds>". Unless --setup-only, it then runs whole rounds, closed
loop, until --seconds have passed: at least one, and with --trace 1 at
least two, the odd ones traced. Every round repeats the same work from the
same seed: a cold run in a fresh directory, one run_pipeline call per
stage, then RERUNS all-skip reruns, with the speed sampler (speed.py)
running throughout untraced rounds. Round 0's artifacts go through the
output checks; every later round must reproduce them byte for byte. The
last stdout line is a JSON result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

RERUNS = 5
PROBE_PASSES = 20
SUPERVISION = ("gpis-fit", "gpis-render", "align", "fuse")


def load_scene(tf, workload, cfg_path):
    cfg = tf.config.validate_config(cfg_path, require_dataset=False)
    found = (cfg.get("sim", "shape"), tuple(cfg.get("sim", "size")))
    if found != workload.shape:
        raise SystemExit(f"{cfg_path} describes {found}, not the workload's {workload.shape}")
    return cfg


def run_round(tf, cfg, round_dir, sampler=None, tracer=None):
    """Cold run and reruns in `round_dir`.

    The cold run calls run_pipeline once per stage, so each stage is timed
    on its own. A sampler, if given, samples the machine's speed from the
    first stage to the last rerun. A tracer, if given, records spans during
    the cold run only. Returns ({stage: (start, end)}, [(start, end)] of the
    reruns, speed samples, artifact hashes, failures), times from
    time.perf_counter().
    """
    dataset, out = os.path.join(round_dir, "data"), os.path.join(round_dir, "out")
    cfg.override("scene", "dataset", dataset)
    cfg.override("scene", "out", out)
    run = tf.pipeline.run_pipeline

    stages, reruns, failures = {}, [], []
    originals = spans.instrument(tracer, tf) if tracer is not None else []
    if sampler is not None:
        sampler.start()
    try:
        for stage in tf.pipeline.STAGE_ORDER:
            started = time.perf_counter()
            state = run(cfg, (stage,))[stage]
            stages[stage] = (started, time.perf_counter())
            if state != "ran":
                failures.append(f"cold run: stage {stage} {state}")
        spans.restore(originals)
        originals = []

        before = checks.snapshot(dataset, out)
        rerun_status = []
        for _ in range(RERUNS):
            started = time.perf_counter()
            rerun_status.append(run(cfg))
            reruns.append((started, time.perf_counter()))
    finally:
        spans.restore(originals)
        samples = sampler.stop() if sampler is not None else []
    failures += checks.check_rerun(rerun_status, before, checks.snapshot(dataset, out))
    return stages, reruns, samples, before, failures


def at_reference_speed(stages, reruns, samples):
    """One untraced round's stage and rerun seconds at reference speed."""
    return ({stage: speed.at_reference_speed(*span, samples) for stage, span in stages.items()},
            [speed.at_reference_speed(*span, samples, "hash") for span in reruns])


def check_outputs(cfg, workload):
    """Output checks and quality metrics of one round's artifacts.

    Returns (metrics, failures, faults): `failures` make the run incorrect;
    `faults` are results of check_train_surface, which the program fails
    on every seed tried (training drifts splats inside the surface), so it
    is reported rather than gating.
    """
    dataset, out = cfg.dataset, cfg.out
    failures = checks.check_touch_surface(dataset, out, workload.shape, workload.surface_bound)
    failures += checks.check_alignment(dataset, out)
    failures += checks.check_fusion(dataset, out)
    failures += checks.check_train_log(out, cfg.get("train", "iters"))
    faults = checks.check_train_surface(out, workload.shape)
    report = checks.read_eval(out)
    failures += checks.check_eval(report)
    metrics = {
        "artifact_mb": checks.tree_bytes(dataset, out) / 1e6,
        "touch_surface_err_m": float(np.median(
            checks.touch_surface_errors(dataset, out, workload.shape))),
        "d_mse_o": report["d_mse_o"],
        "chamfer_m": report["chamfer"],
    }
    return metrics, failures, faults


def environment(tf):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "touchfuse": os.path.dirname(tf.__file__),
    }


def medians(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import touchfuse as tf
    import touchfuse.config
    import touchfuse.pipeline

    workload = scenes.WORKLOADS[args.workload]
    load_scene(tf, workload, args.config)
    print("READY", flush=True)
    sampler = speed.Sampler()
    probe_s = statistics.fmean(sampler.compute() for _ in range(PROBE_PASSES))
    print(f"PROBE {probe_s!r}", flush=True)
    if args.setup_only:
        return 0

    expected = os.path.realpath(os.path.join(args.root, "src", "touchfuse"))
    if os.path.realpath(os.path.dirname(tf.__file__)) != expected:
        raise SystemExit(f"imported touchfuse from {tf.__file__}, not from {expected}")

    untraced, traced, layers, failures = [], [], [], []
    reference = None
    started = time.perf_counter()
    n = 0
    while n < 1 + args.trace or time.perf_counter() - started < args.seconds:
        tracer = spans.Tracer() if args.trace and n % 2 else None
        cfg = load_scene(tf, workload, args.config)
        cfg.override("scene", "seed", args.seed)
        round_dir = os.path.join(args.work, f"round{n}")
        shutil.rmtree(round_dir, ignore_errors=True)
        stages, reruns, samples, artifacts, round_failures = run_round(
            tf, cfg, round_dir, None if tracer else sampler, tracer)
        if reference is None:
            reference = artifacts
            quality, more, faults = check_outputs(cfg, workload)
            round_failures += more
        elif artifacts != reference:
            round_failures.append("artifacts differ from round 0's, made from the same inputs")
        failures += [f"round {n}: {msg}" for msg in round_failures]
        if tracer is None:
            untraced.append((stages, reruns, samples))
        else:
            traced.append(sum(end - start for start, end in stages.values()))
            layers.append(spans.layer_metrics(tracer.spans, traced[-1]))
            tracer.dump(os.path.join(args.work, f"spans-round{n}.json"))
        if not round_failures:
            shutil.rmtree(round_dir)
        n += 1
    with open(os.path.join(args.work, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump(untraced, fh)

    # Each timing is its best untraced round at reference speed: scaling
    # divides out the drift the sampler saw.
    scaled = [at_reference_speed(*row) for row in untraced]
    best = {stage: min(s[stage] for s, _ in scaled) for stage in tf.pipeline.STAGE_ORDER}
    metrics = dict(
        quality,
        pipeline_s=sum(best.values()),
        supervision_s=sum(best[stage] for stage in SUPERVISION),
        rerun_s=min(t for _, reruns in scaled for t in reruns),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result = {
        "rounds": n,
        "operations": n * len(tf.pipeline.STAGE_ORDER) * (1 + RERUNS),
        "metrics": metrics,
        "failures": failures,
        "faults": [f"round 0: {msg}" for msg in faults],
        "environment": environment(tf),
    }
    if args.trace:
        result["layers"] = medians(layers)
        # Against the untraced stage times net of the sampler, not scaled.
        result["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(
            sum(speed.net_seconds(*span, samples) for span in stages.values())
            for stages, _, samples in untraced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
