"""The whole harness on the tiny scene: parent, set-up children, workload
child, checks, tracing and the result line, in a few seconds."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, run_py=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, run_py, "--workload", "tiny", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_untraced_run_reports_every_end_to_end_metric():
    code, lines = bench("--seed", "2", "--trace", "0")
    out = result(lines)
    assert code == 0 and out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert any(line.startswith("environment: ") and '"git_sha"' in line for line in lines)


def test_traced_runs_report_every_layer_metric_and_repeat_counts():
    runs = [result(bench("--seed", "3", "--trace", "1")[1]) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in runs:
        assert out["correct"] is True
        assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    counts = [name for name, unit in expected.items() if unit == "count"]
    assert [runs[0]["metrics"][c] for c in counts] == [runs[1]["metrics"][c] for c in counts]
    assert runs[0]["metrics"]["gpis.fit_calls"]["value"] == 1
    assert runs[0]["metrics"]["sdfrender.march_iters"]["value"] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = bench("--seed", "1", cwd=tmp_path, run_py=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
