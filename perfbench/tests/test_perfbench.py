"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests

Each test runs perfbench/run.py as a subprocess at a tiny length, the way
the benchmark is run for real, from the root of the checkout.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7

_runs = {}


def run(workload, trace, seed=SEED, cwd=ROOT, fresh=False):
    key = (workload, trace, seed, cwd)
    if fresh or key not in _runs:
        proc = subprocess.run(BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                                                  "--seconds", "1", "--trace", str(trace)],
                              cwd=cwd, capture_output=True, text=True, timeout=180)
        _runs[key] = proc
    return _runs[key]


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def digests(workload, trace):
    path = ROOT / "perfbench" / "_work" / f"outputs-{workload}-{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures_and_every_metric(workload):
    res = result(run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res = result(run(workload, 1))
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_are_byte_identical_to_untraced(workload):
    result(run(workload, 0))
    result(run(workload, 1))
    untraced = digests(workload, 0)["untraced"]
    traced = digests(workload, 1)["traced"]
    assert traced and all(untraced[key] == traced[key] for key in traced)


def test_counts_repeat_exactly_with_the_same_seed():
    first = result(run("verify", 1))["metrics"]
    again = result(run("verify", 1, fresh=True))["metrics"]
    counts = [k for k, m in first.items()
              if m["unit"] == "count/op" or (k.endswith("_ratio") and k != "trace.overhead_ratio")]
    assert counts
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("learn-data", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
