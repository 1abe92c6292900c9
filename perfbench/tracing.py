"""Outside-in tracing of foldcast: wrap the public callables of each module
from outside the package and record spans (name, start, end, parent) in
memory.

A span name is ``<layer>.<callable>``, e.g. ``tensor.matmul`` or
``tensor.Tensor.backward``; the layer is the module of ``foldcast`` that
defines the callable. Wrappers are installed by replacing every reference
to the original function object in the loaded ``foldcast`` modules, so a
call made through a name imported with ``from .data import make_windows``
is traced as well as one made through ``T.matmul``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from bisect import bisect_right

# Timed layers, in the order they are reported. ``synth`` only makes inputs
# before timing starts; ``config`` and ``cli`` are on no hot path.
LAYERS = ("data", "tokenize", "visibility", "model", "tensor", "train", "metrics", "checkpoint")

# Public methods traced besides each module's public functions.
METHODS = {
    "tensor": ("Tensor.backward",),
    "train": (
        "Forecaster.build",
        "Forecaster.fuse",
        "Forecaster.encode_and_predict",
        "Forecaster.forward_inference",
    ),
    "metrics": ("MetricAccumulator.update",),
}

# Tensor ops reported one by one.
OPS = (
    "matmul", "add", "mul", "gelu", "softmax_lastdim", "layer_norm", "transpose",
    "slice_lastdim", "reshape", "gather_rows", "concat_lastdim", "huber_loss",
)

# Every name the workloads call or the metrics are computed from. A rename in
# foldcast must stop the benchmark here rather than silently drop a span.
REQUIRED = {
    "data": ("load_series", "save_series", "fit_normalizer", "apply_zscore", "make_windows"),
    "tokenize": ("fuse_embeddings_batch",),
    "visibility": ("plan_visibility", "apply_visibility_batch", "gather_targets"),
    "model": ("encoder_forward", "msa", "predict"),
    "tensor": OPS + ("adam_step",),
    "train": (
        "train", "training_forward", "evaluate", "effective_subgraph_size",
        "attention_pair_count", "TrainConfig",
    ),
    "metrics": ("MetricAccumulator", "compute_metrics"),
    "checkpoint": ("save_checkpoint", "load_into"),
    "synth": ("generate_series",),
}

# Spans that start one unit of work: a training step's forward, backward and
# Adam update (children of ``train.train``), or an inference request (an
# ``evaluate`` call made by the benchmark itself).
STEP_PARTS = ("train.training_forward", "tensor.Tensor.backward", "tensor.adam_step")
NOT_TAPE = ("tensor.Tensor.backward", "tensor.adam_step", "tensor.set_debug_checks")

# Span name -> metric summing its time per unit of work.
UNIT_TIMES = {
    "tensor.Tensor.backward": "tensor.backward_ms",
    "tensor.adam_step": "tensor.adam_ms",
    "model.encoder_forward": "model.encoder_ms",
    "model.msa": "model.msa_ms",
    "model.predict": "model.head_ms",
    "tokenize.fuse_embeddings_batch": "tokenize.fuse_ms",
    "tokenize.fuse_embeddings_sf_batch": "tokenize.fuse_ms",
    "visibility.apply_visibility_batch": "visibility.gather_ms",
    "visibility.gather_targets": "visibility.gather_ms",
    "train.training_forward": "train.forward_ms",
}
PER_UNIT = (
    [f"tensor.{op}.{kind}" for op in OPS for kind in ("fwd_ms", "calls")]
    + sorted(set(UNIT_TIMES.values()))
    + ["tensor.tape_nodes", "tokenize.fuse_calls"]
)


class NameGuardError(RuntimeError):
    """A public foldcast name the benchmark relies on is missing."""


def module(layer):
    # ``import foldcast.train`` would bind the function re-exported by the
    # package, so submodules are always resolved by their full name.
    return importlib.import_module(f"foldcast.{layer}")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def check_names(required=None):
    """Raise NameGuardError listing every required name that is missing.

    ``required`` maps a layer to dotted names; it defaults to every name in
    REQUIRED and METHODS.
    """
    if required is None:
        required = {
            layer: REQUIRED.get(layer, ()) + METHODS.get(layer, ())
            for layer in {**REQUIRED, **METHODS}
        }
    missing = []
    for layer, names in required.items():
        mod = module(layer)
        for dotted in names:
            try:
                obj = _resolve(mod, dotted)
            except AttributeError:
                missing.append(f"foldcast.{layer}.{dotted}")
                continue
            if not callable(obj):
                missing.append(f"foldcast.{layer}.{dotted} (not callable)")
    if missing:
        raise NameGuardError("foldcast names missing: " + ", ".join(missing))


def traceable():
    """Span name -> (kind, owner, attribute) for every traced callable."""
    found = {}
    for layer in LAYERS:
        mod = module(layer)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[f"{layer}.{attr}"] = ("function", mod, attr)
        for dotted in METHODS.get(layer, ()):
            cls_name, attr = dotted.split(".")
            found[f"{layer}.{dotted}"] = ("method", getattr(mod, cls_name), attr)
    return found


def current_rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Record spans for the named callables while installed.

    ``names`` limits tracing to those span names (None traces every public
    callable). ``enter`` maps a span name to a hook called before the span
    opens; its return value is handed to the matching ``observe`` hook,
    which is called with (span index, args, result, token) after the span
    closes. A hook that raises aborts the call.
    """

    def __init__(self, names=None, enter=None, observe=None):
        self.spans = []  # [name, start, end, parent index or -1]
        self.observed = {}  # span name -> [(span index, value)]
        self._stack = []
        self._names = names
        self._enter = enter or {}
        self._observe = observe or {}
        self._undo = []

    def __enter__(self):
        targets = traceable()
        names = targets if self._names is None else self._names
        for name in names:
            kind, owner, attr = targets[name]
            if kind == "method":
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "foldcast"]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enter = self._enter.get(name)
        observe = self._observe.get(name)
        sink = self.observed.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = enter() if enter else None
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe:
                sink.append((idx, observe(args, result, token)))
            return result

        return traced


# --- analysis ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def training_steps(spans):
    """Training steps as (start, end) pairs plus the indices of the
    validation ``evaluate`` spans.

    A step starts when ``training_forward`` is entered and ends when the
    next step starts or the epoch's validation starts, so it covers
    forward, backward, Adam and the assembly of the next batch.
    """
    runs = {i for i, s in enumerate(spans) if s[0] == "train.train"}
    marks = {i: [] for i in runs}
    for i, (name, _, _, parent) in enumerate(spans):
        if parent in marks and name in ("train.training_forward", "train.evaluate"):
            marks[parent].append(i)
    steps, validations = [], []
    for run in sorted(runs):
        seq = marks[run]
        for a, b in zip(seq, seq[1:] + [None]):
            if spans[a][0] == "train.evaluate":
                validations.append(a)
            elif b is not None:
                steps.append((spans[a][1], spans[b][1]))
    return steps, validations


def unit_of_spans(spans, steps):
    """Unit index of every span: the training step or inference request it
    belongs to, or -1."""
    starts = [s for s, _ in steps]
    parents_train = {i for i, s in enumerate(spans) if s[0] == "train.train"}
    unit = [-1] * len(spans)
    requests = 0
    for i, (name, start, _, parent) in enumerate(spans):
        if parent in parents_train and name in STEP_PARTS:
            unit[i] = bisect_right(starts, start) - 1
        elif parent < 0 and name == "train.evaluate":
            unit[i] = len(steps) + requests
            requests += 1
        elif parent >= 0:
            unit[i] = unit[parent]
    return unit, len(steps) + requests


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced phase, plus layer self-time shares.

    Times named ``*_ms`` are medians over units of work (training steps or
    inference requests) of the time spent per unit; ``*_s`` are medians
    per call.
    """
    spans = tracer.spans
    steps, validations = training_steps(spans)
    unit, n_units = unit_of_spans(spans, steps)
    per_unit = {key: [0.0] * n_units for key in PER_UNIT}
    step_parts_ms = [0.0] * n_units

    def add(key, u, value):
        per_unit[key][u] += value

    calls = {}
    op_names = {f"tensor.{op}": op for op in OPS}
    matmul_flops = dict(tracer.observed.get("tensor.matmul", []))
    flops = secs = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls.setdefault(name, []).append(dur)
        u = unit[i]
        if u < 0:
            continue
        if name in op_names:
            add(f"tensor.{op_names[name]}.fwd_ms", u, dur * 1e3)
            add(f"tensor.{op_names[name]}.calls", u, 1)
            if name == "tensor.matmul":
                flops += matmul_flops[i]
                secs += dur
        if (name.startswith("tensor.") and name not in NOT_TAPE
                and not (parent >= 0 and spans[parent][0].startswith("tensor."))):
            add("tensor.tape_nodes", u, 1)
        key = UNIT_TIMES.get(name)
        if key:
            add(key, u, dur * 1e3)
        if key == "tokenize.fuse_ms":
            add("tokenize.fuse_calls", u, 1)
        if parent >= 0 and spans[parent][0] == "train.train" and name in STEP_PARTS:
            step_parts_ms[u] += dur * 1e3

    out = {key: median(vals) for key, vals in per_unit.items()}
    out["train.other_ms"] = median(
        [(end - start) * 1e3 - step_parts_ms[u] for u, (start, end) in enumerate(steps)]
    )
    out["tensor.matmul.gflops"] = flops / secs / 1e9 if secs else 0.0

    def per_call(name):
        return median(calls.get(name, []))

    out["train.validate_s"] = median([spans[i][2] - spans[i][1] for i in validations])
    out["visibility.plan_ms"] = per_call("visibility.plan_visibility") * 1e3
    out["metrics.update_ms"] = per_call("metrics.MetricAccumulator.update") * 1e3
    out["data.load_s"] = per_call("data.load_series")
    out["data.window_s"] = per_call("data.make_windows")
    fits = calls.get("data.fit_normalizer", [])
    out["data.normalize_s"] = (
        (sum(fits) + sum(calls.get("data.apply_zscore", []))) / len(fits) if fits else 0.0
    )
    windows = [v for _, v in tracer.observed.get("data.make_windows", [])]
    out["data.window_rss_mb"] = median([rss for rss, _ in windows])
    out["data.windows"] = windows[-1][1] if windows else 0
    out["checkpoint.load_s"] = per_call("checkpoint.load_into")
    out["checkpoint.save_s"] = per_call("checkpoint.save_checkpoint")
    sizes = [v for name in ("checkpoint.load_into", "checkpoint.save_checkpoint")
             for _, v in tracer.observed.get(name, [])]
    out["checkpoint.bytes"] = max(sizes, default=0)
    plans = [v for _, v in tracer.observed.get("visibility.plan_visibility", [])]
    visible = sum(p["visible"] for p in plans)
    out["visibility.pad_fraction"] = sum(p["pad"] for p in plans) / visible if visible else 0.0
    out["visibility.attn_pairs"] = median([p["pairs"] for p in plans])

    self_s = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    layer_self = {}
    for (name, *_), s in zip(spans, self_s):
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
    out["trace.coverage"] = sum(layer_self.values()) / wall_s
    shares = {layer: layer_self.get(layer, 0.0) / wall_s for layer in LAYERS}
    return out, shares
