"""Check that two foldcast checkouts write the same outputs, byte for byte.

Usage: python3 tools/compare_outputs.py <checkout-a> <checkout-b>

Runs one CLI matrix in each checkout, each command in a subprocess with
``PYTHONPATH=<checkout>/src`` and every BLAS thread variable at 1
(``THREAD_VARS``: the bundled OpenBLAS reads ``OPENBLAS_NUM_THREADS``
before ``OMP_NUM_THREADS``), and always at the same output path, so
that ``config.resolved`` and the paths echoed on stdout agree. The matrix: a small synthetic series, written in both
the text and the binary format; then, for the
determinism config of the acceptance suite and eight variants of it,
``train``, ``eval`` and ``dump-embeddings``; then ``ablate --axis
folding`` and ``bench --mask-ratios 0,0.5 --epochs 1``, the bench once
as configured and once each with ``--set folding=SF`` and ``--set
mask_strategy=all_zero``, so that ``act_floats`` is compared for the
node_level, SF and perturbation graphs. Last, one full-graph mid-size
run (its own 96-node series; r=0, s=N, 4 heads, d=16, ffn 256, batch
16, 2 epochs): ``train`` and ``eval``, then both again with ``--set
layers=2``, so that a second layer's rebuilt attention sublayer is
compared too. These are the runs whose attention walks more than one
block of groups (3) and whose GELU runs in full 32K-element chunks,
which the 5-node runs never reach. The measured wall-time column of the ablate and bench CSVs
is dropped before the comparison.
Exits 0 when every output matches, 1 otherwise.

Standard library only.
"""
from __future__ import annotations

import csv
import difflib
import io
import os
import shutil
import subprocess
import sys
import tempfile

CONFIG = (
    "dataset = {dataset}\nt_in = 6\nhorizon = 3\nembed_dim = 4\nffn_dim = 8\n"
    "heads = 2\nbatch_size = 16\nlr = 0.002\nmask_ratio = 0.2\n"
    "subgraph_size = 4\nmax_epochs = 3\nseed = 7\n"
)
VARIANTS = (
    "mask_strategy=node_level", "folding=SF", "mask_strategy=all_zero",
    "mask_strategy=partial_zero", "mask_strategy=random_value", "mask_ratio=0",
    "max_epochs=0", "patience=1", "layers=2",
)
BENCH_VARIANTS = ("folding=SF", "mask_strategy=all_zero")
FULL_GRAPH_CONFIG = (
    "dataset = {dataset}\nt_in = 6\nhorizon = 3\nembed_dim = 16\nffn_dim = 256\n"
    "heads = 4\nbatch_size = 16\nlr = 0.002\nmask_ratio = 0\n"
    "subgraph_size = 96\nmax_epochs = 2\nseed = 7\n"
)
WALL_COLUMNS = {"ablate_folding.csv": "wall_seconds", "bench.csv": "epoch_seconds"}
# BLAS thread counts, each pinned to 1 as perfbench pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def foldcast(checkout, work, *args):
    """Run one CLI command in ``work``; its stdout, preceded by the exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update((var, "1") for var in THREAD_VARS)
    done = subprocess.run(
        [sys.executable, "-m", "foldcast.cli", *args],
        cwd=work, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(f"{checkout}: foldcast {' '.join(args)} exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
    return f"exit {done.returncode}\n{done.stdout}".encode()


def drop_column(data, name):
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or name not in rows[0]:
        return data
    i = rows[0].index(name)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(r[:i] + r[i + 1:] for r in rows)
    return text.getvalue().encode()


def run_matrix(checkout, work):
    """name -> bytes of every compared output of ``checkout``."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    outputs = {}

    def collect(out_dir, prefix):
        # a command that failed early may have made no directory
        for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            outputs[f"{prefix}/{name}"] = drop_column(data, WALL_COLUMNS[name]) \
                if name in WALL_COLUMNS else data

    data = os.path.join(work, "data", "series.txt")
    for fmt, path in (("text", data), ("binary", os.path.join(work, "data", "series.bin"))):
        outputs[f"synth-{fmt}.stdout"] = foldcast(
            checkout, work, "synth", "--nodes", "5", "--days", "6", "--freq", "24",
            "--noise", "1.0", "--seed", "3", "--format", fmt, "--path", path,
        )
    collect(os.path.join(work, "data"), "data")
    cfg = os.path.join(work, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.format(dataset=data))
    for variant in VARIANTS:
        out = os.path.join(work, variant.replace("=", "_"))
        outputs[f"{variant}/train.stdout"] = foldcast(
            checkout, work, "train", "--config", cfg, "--set", variant, "--out", out
        )
        ckpt = os.path.join(out, "checkpoint.bin")
        outputs[f"{variant}/eval.stdout"] = foldcast(
            checkout, work, "eval", "--checkpoint", ckpt, "--out", out
        )
        foldcast(checkout, work, "dump-embeddings", "--checkpoint", ckpt, "--out", out)
        collect(out, variant)
    # their stdout echoes the measured wall times, so only the CSVs count
    out = os.path.join(work, "sweeps")
    foldcast(checkout, work, "ablate", "--config", cfg, "--axis", "folding", "--out", out)
    foldcast(checkout, work, "bench", "--config", cfg, "--mask-ratios", "0,0.5",
             "--epochs", "1", "--out", out)
    collect(out, "sweeps")
    for variant in BENCH_VARIANTS:
        out = os.path.join(work, "bench_" + variant.replace("=", "_"))
        foldcast(checkout, work, "bench", "--config", cfg, "--set", variant,
                 "--mask-ratios", "0,0.5", "--epochs", "1", "--out", out)
        collect(out, f"bench {variant}")
    out = os.path.join(work, "full_graph")
    data = os.path.join(out, "series.txt")
    outputs["full_graph/synth.stdout"] = foldcast(
        checkout, work, "synth", "--nodes", "96", "--days", "4", "--freq", "24",
        "--noise", "1.0", "--seed", "5", "--path", data,
    )
    cfg = os.path.join(work, "full_graph.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(FULL_GRAPH_CONFIG.format(dataset=data))
    outputs["full_graph/train.stdout"] = foldcast(
        checkout, work, "train", "--config", cfg, "--out", out
    )
    outputs["full_graph/eval.stdout"] = foldcast(
        checkout, work, "eval", "--checkpoint", os.path.join(out, "checkpoint.bin"), "--out", out
    )
    collect(out, "full_graph")
    out = os.path.join(work, "full_graph_layers_2")
    outputs["full_graph layers=2/train.stdout"] = foldcast(
        checkout, work, "train", "--config", cfg, "--set", "layers=2", "--out", out
    )
    outputs["full_graph layers=2/eval.stdout"] = foldcast(
        checkout, work, "eval", "--checkpoint", os.path.join(out, "checkpoint.bin"), "--out", out
    )
    collect(out, "full_graph layers=2")
    return outputs


def report(a, b):
    """Print every output that differs; return how many do."""
    differing = 0
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        differing += 1
        if name not in a or name not in b:
            print(f"{name}: only in {'b' if name not in a else 'a'}")
        elif name.endswith(".bin"):
            print(f"{name}: binary files differ ({len(a[name])} vs {len(b[name])} bytes)")
        else:
            lines = difflib.unified_diff(
                a[name].decode().splitlines(), b[name].decode().splitlines(),
                f"a/{name}", f"b/{name}", lineterm="", n=1,
            )
            print("\n".join(list(lines)[:40]))
    return differing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = [os.path.abspath(path) for path in argv]
    with tempfile.TemporaryDirectory(prefix="foldcast-compare-") as tmp:
        work = os.path.join(tmp, "work")
        a, b = (run_matrix(checkout, work) for checkout in checkouts)
    differing = report(a, b)
    print(f"{len(set(a) | set(b)) - differing} outputs identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
