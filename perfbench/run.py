"""foldcast benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Workloads and metrics are declared in ``BENCHMARK.json`` at the root, and the
layer -> end-to-end metric -> workload map in ``perfbench/layer_map.json``.

Standard output ends with two lines: a report (environment, every named
metric with its unit, tail percentiles, the output checks) and the result,
``{"correct", "attempted", "failed", "metrics"}``, which holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A failed output check makes the exit code 1.
"""
import argparse
import json
import math
import os
import platform
import shutil
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def number(v):
    return v if math.isfinite(v) else None


def main(argv=None):
    args = parse_args(argv)
    # Thread pools read these when numpy loads, so they are set before any
    # module that imports numpy.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import foldcast
    import tracing

    if os.path.dirname(os.path.abspath(foldcast.__file__)) != os.path.join(ROOT, "src", "foldcast"):
        sys.exit(f"perfbench: foldcast imported from {foldcast.__file__}, not this checkout")
    try:
        tracing.check_names()
    except tracing.NameGuardError as exc:
        sys.exit(f"perfbench: {exc}")

    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report, metrics, attempted, failed = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, args.size, workdir
        )
    finally:
        shutil.rmtree(workdir)
    if set(metrics) != set(declared):
        sys.exit(f"perfbench: emitted metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    report.update(seed=args.seed, seconds=args.seconds, trace=args.trace, size=args.size,
                  env=environment())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": number(metrics[k]), "unit": declared[k]} for k in declared},
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
