"""The benchmark under ``perfbench/`` wraps foldcast callables by name; a
rename or removal of one of them must fail the test suite, not only the
benchmark run."""
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_name_the_benchmark_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    tracing.check_names()
