"""The benchmark's own tests: every workload and every check at smoke sizes.

Run from the checkout root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    doc = result_line(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--smoke"))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_every_layer_and_accounts_for_wall_time():
    doc = result_line(run_bench("--workload", "sweep", "--seed", "3", "--seconds", "1",
                                "--trace", "1", "--smoke"))
    metrics = doc["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for workload in workloads.WORKLOADS:
        own = sum(v["value"] for k, v in metrics.items()
                  if k.startswith(workload + ".") and k.endswith(".self_s"))
        wall = metrics[f"{workload}.trace.wall_s"]["value"]
        assert own == pytest.approx(wall, rel=1e-9)
    with open(os.path.join(ROOT, ".perfbench", "trace-seed3.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    assert {s["workload"] for s in spans["spans"]} == set(workloads.WORKLOADS)
    assert {"id", "name", "start", "end", "parent", "workload"} <= set(spans["spans"][0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_golden_comparison_flags_a_changed_cell(tmp_path):
    golden = os.path.join(HERE, "golden", "smoke", "sweep", "fig6.csv")
    with open(golden, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    last = lines[-1].split(",")
    last[2] = repr(float(last[2]) * (1 + 1e-5))
    changed = tmp_path / "fig6.csv"
    changed.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    assert workloads.compare_golden(golden, golden) == []
    problems = workloads.compare_golden(str(changed), golden)
    assert len(problems) == 1 and "key_rate" in problems[0]


def test_bench_check_flags_a_wrong_beta():
    inv = workloads.invocations("reconcile", 3, smoke=True)[0]
    golden = os.path.join(HERE, "golden", "smoke", "reconcile", "bench_both.csv")
    rows = workloads.read_table(golden)[2]
    work = workloads.Work()
    assert workloads._check_bench(inv, rows, work) == []
    assert (work.frames, work.bits) == (4, 4 * 1024)
    rows[1][2] = str(float(rows[1][2]) * 1.001)
    assert len(workloads._check_bench(inv, rows, workloads.Work())) == 1
