"""The benchmark under ``perfbench/`` wraps foldcast callables by name and
observes what they return; a rename, a removal or a change that breaks one
of its observers must fail the test suite, not only the benchmark run."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_name_the_benchmark_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    tracing.check_names()


@pytest.mark.parametrize("workload", ["desk_train", "pems04_train", "pems04_infer"])
def test_benchmark_smoke_run_exits_0(workload):
    # one traced tiny run: its observers read attributes of what foldcast
    # returns, which the name guard above does not check (the training
    # workloads read ``epochs_run``, ``windows[0]`` and ``log_rows[-1][4]``
    # of the run record); pems04_infer's output checks also compare the
    # taped attention path with the tape-free one
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--size", "tiny", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.slow
def test_benchmark_self_test_passes():
    env = {**os.environ, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
