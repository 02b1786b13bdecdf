"""touchfuse pipeline benchmark.

    python3 perfbench/run.py --workload sphere-bundled --seed 1 --seconds 5 --trace 0

Runs one workload of the real pipeline (touchfuse.pipeline.run_pipeline) in
a fresh child process whose BLAS thread count is fixed, checks its outputs,
and prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
separate traced round (--trace 1). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, printing no
result, when the checkout holds no touchfuse sources or a child fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import scenes  # noqa: E402
import speed  # noqa: E402

# One BLAS thread: artifacts are byte-identical only at a fixed thread count,
# and a single thread keeps timings independent of the second core's load.
BLAS_THREADS = "1"
SETUP_SAMPLES = 5          # set-ups per run; the median is reported
DEADLINE_S = 170.0         # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("supervision_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("touch_surface_err_m", "m"),
    ("d_mse_o", "m2"),
    ("chamfer_m", "m"),
)


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def git_sha(root):
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline):
    """Start workload.py, time it to its READY line, wait for it to exit.

    Returns (set-up seconds, the child's speed probe seconds, stdout lines
    after its PROBE line). The child is killed
    if it is still running at `deadline` (a time.monotonic() value).
    """
    cmd = [sys.executable, os.path.join(HERE, "workload.py")] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        probe = proc.stdout.readline().split()
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or probe[:1] != ["PROBE"] or code != 0:
        raise ChildFailed(f"{' '.join(cmd[1:3])}... exited with code {code}")
    return setup_s, float(probe[1]), rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="keep starting rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "touchfuse", "pipeline.py")):
        print(f"perfbench: no touchfuse sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = scenes.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = scenes.config_path(workload, ROOT, work, args.seed)
    if not os.path.isfile(config):
        print(f"perfbench: scene config {config} is missing", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--config", config, "--root", ROOT,
              "--work", work, "--seed", str(args.seed)]

    # Set-up samples are taken before and after the workload child, so one
    # slow spell of the machine does not cover all of them. Each is scaled
    # to reference speed by the speed probe its own child ran after set-up.
    def setup_only():
        return run_child(common + ["--setup-only"], deadline)[:2]

    try:
        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        setup_s, probe_s, lines = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        result = json.loads(lines[-1])
        setups += [(setup_s, probe_s)] + [
            setup_only() for _ in range(SETUP_SAMPLES - 1 - len(setups))]
    except (ChildFailed, IndexError, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} failed: {exc}", file=sys.stderr)
        return 1

    env = dict(result["environment"], git_sha=git_sha(ROOT), workload=args.workload, seed=args.seed, trace=args.trace,
               rounds=result["rounds"], setup_samples=setups)
    print("environment: " + json.dumps(env, sort_keys=True))
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    for fault in result["faults"]:
        print(f"KNOWN FAULT (reported, not gating): {fault}")

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(
            t * speed.REFERENCE_S["compute"] / probe for t, probe in setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"operations attempted {result['operations']}, failed 0")
    print(json.dumps({"correct": not result["failures"], "attempted": result["operations"],
                      "failed": 0, "metrics": metrics}))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
