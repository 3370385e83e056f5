"""Checks of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest perfbench -q

Tiny runs: traced counts repeat exactly at a fixed seed, every metric named in
BENCHMARK.json is emitted with its unit, and a directory without the program
sources makes the benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seed=7, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_every_layer_metric_is_emitted():
    first, second = (result(run("design-queries", 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert res["correct"] and res["failed"] == 0
    exact = [k for k in want if k.endswith((".calls", ".bound_evals_per_call"))
             or ".success_frac." in k]
    assert exact
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact}


def test_every_end_to_end_metric_is_emitted_and_nonzero():
    res = result(run("tradeoff-curves", 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("design-queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
