"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, through the same command the full benchmark uses.

    python3 -m pytest perfbench
"""
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
    LAYER_MAP = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "forecast_mae": "orig_units", "error_rate": "fraction"}
NAMED = {
    "desk_train": {**COMMON, "step_ms_p50": "ms", "step_ms_tail": "ms",
                   "train_samples_per_s": "windows/s", "epoch_s": "s"},
    "pems04_infer": {**COMMON, "infer_batch_ms_p50": "ms", "infer_batch_ms_tail": "ms",
                     "infer_samples_per_s": "windows/s"},
}
NAMED["pems04_train"] = NAMED["desk_train"]


def run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


@functools.lru_cache(maxsize=None)
def bench(workload, trace, seed=3):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    assert {k: v["unit"] for k, v in report["metrics"].items()} == NAMED[workload]
    assert report["metrics"]["error_rate"]["value"] == 0
    assert all(c["failed"] == 0 for c in report["checks"])
    env = report["env"]
    assert env["nproc"] >= 1 and env["numpy"] and env["blas"]
    assert set(env["threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    report, result = bench(workload, 1)
    check_result(result, SPEC["per_layer"])
    assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert set(report["layer_self_share"]) == set(LAYER_MAP["layers"]) - {"trace"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forecast_mae_repeats_across_same_seed_runs(workload):
    first = bench(workload, 0)[1]["metrics"]["forecast_mae"]["value"]
    again = bench(workload, 0, seed=4)[1]["metrics"]["forecast_mae"]["value"]
    _, repeat = bench.__wrapped__(workload, 0)
    assert repeat["metrics"]["forecast_mae"]["value"] == first != again


def test_layer_map_names_every_per_layer_metric():
    ops = LAYER_MAP["layers"]["tensor"]["ops"]
    mapped = set()
    for layer in LAYER_MAP["layers"].values():
        for name in layer["metrics"]:
            mapped.update([name.replace("<op>", op) for op in ops] if "<op>" in name else [name])
        for move in layer["moves"]:
            assert move["workload"] in WORKLOADS
            assert move["metric"] in LAYER_MAP["end_to_end_names"]
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


def test_name_guard_reports_missing_names(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import tracing

    tracing.check_names()
    with pytest.raises(tracing.NameGuardError, match="foldcast.train.no_such_name"):
        tracing.check_names({"train": ("training_forward", "no_such_name")})


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
