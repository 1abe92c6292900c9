"""The benchmark's workloads: two training profiles and one inference profile,
each driven through the public ``foldcast.train.train`` and
``foldcast.train.evaluate`` entry points by one closed-loop client.

A run measures for a fixed budget. Its end-to-end numbers come from a phase
in which only ``train``, ``training_forward`` and ``evaluate`` are wrapped,
to timestamp steps and requests. A traced run spends half its budget on
such a phase, for reference, and half with every public callable wrapped,
which gives the per-layer numbers.
"""
from __future__ import annotations

import ctypes
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import (
    Tracer,
    current_rss_mb,
    layer_metrics,
    median,
    module,
    training_steps,
)

D = module("data")
TR = module("train")
V = module("visibility")
CK = module("checkpoint")
MET = module("metrics")
SYNTH = module("synth")

clock = time.perf_counter

TINY_MODEL = {"t_in": 4, "horizon": 4, "embed_dim": 8, "ffn_dim": 16, "heads": 2, "batch_size": 4}
# A shorter validation split keeps the in-loop full-graph validation batch at
# 21 windows instead of evaluate's default 64, which would lift peak RSS of
# the PEMS04-scale training run to ~3.7 GB.
PEMS04_TRAIN_SPLIT = (0.7, 0.1, 0.2)


@dataclass(frozen=True)
class Profile:
    nodes: int
    days: int
    freq: int
    rows: int | None = None  # keep only the first rows of the generated series
    epochs: int = 0  # train() epochs per repeat; 0 for the inference workload
    setup_rounds: int = 0  # set-up-only rounds before each train() repeat
    config: dict = field(default_factory=dict)  # TrainConfig overrides
    noise: float = 2.0


PROFILES = {
    "desk_train": {
        "full": Profile(nodes=20, days=14, freq=48, epochs=3, setup_rounds=4),
        "tiny": Profile(nodes=6, days=3, freq=24, epochs=2, setup_rounds=1, config=TINY_MODEL),
    },
    "pems04_train": {
        # 96 training windows: 6 steps of 16 per epoch, ~7.5 s per epoch, so
        # two train() repeats fill a run
        "full": Profile(nodes=307, days=1, freq=288, rows=205, epochs=2, setup_rounds=5,
                        config={"split": PEMS04_TRAIN_SPLIT}),
        "tiny": Profile(nodes=12, days=1, freq=96, rows=80, epochs=2, setup_rounds=1,
                        config={**TINY_MODEL, "subgraph_size": 4, "split": PEMS04_TRAIN_SPLIT}),
    },
    "pems04_infer": {
        "full": Profile(nodes=307, days=20, freq=288),
        "tiny": Profile(nodes=12, days=3, freq=48, config=TINY_MODEL),
    },
}

REQUEST_WINDOWS = 16  # windows per inference request
# Set-ups are spread over the run, one before every this many requests, so
# that setup_s samples, like latencies, span the run's slow and fast periods.
REQUESTS_PER_SETUP = 8
MAE_REQUESTS = 4  # forecast_mae covers the first this many requests
MIN_REQUESTS = 11  # per phase, so the latency tail has ten samples beyond it
MIN_REPEATS = 2  # train() runs in an untraced run, so forecast_mae is compared


class SetupDone(Exception):
    """Raised at the first training step of a set-up-only round."""


class StepGate:
    """Entry hook of ``training_forward``: stamps the first step and, in a
    set-up-only round, stops train() there."""

    def __init__(self):
        self.first = None
        self.abort = False

    def reset(self, abort):
        self.first = None
        self.abort = abort

    def __call__(self):
        if self.first is None:
            self.first = clock()
        if self.abort:
            raise SetupDone


class Checks:
    """Output checks, tallied by name: a check made once per repeat counts
    once per repeat."""

    def __init__(self):
        self.items = {}

    def add(self, name, ok, detail=""):
        item = self.items.setdefault(name, {"name": name, "passed": 0, "failed": 0, "detail": detail})
        item["passed" if ok else "failed"] += 1
        if not ok:
            item["detail"] = detail
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)

    @property
    def attempted(self):
        return sum(c["passed"] + c["failed"] for c in self.items.values())

    @property
    def failed(self):
        return sum(c["failed"] for c in self.items.values())


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:  # no such percentile: report the maximum
        return (xs[-1] if xs else 0.0), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def finite(*values):
    return all(math.isfinite(v) for v in values)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _loss_finite(args, result, token):
    return bool(np.isfinite(result[0].data))


def _matmul_flops(args, result, token):
    return 2.0 * result.data.size * args[0].shape[-1]


def _plan_counts(args, result, token):
    k, s = result.slots.shape
    return {"pad": result.pad_count, "visible": result.visible_count, "pairs": k * s * s,
            "n": result.n_nodes, "r": result.mask_ratio, "s": s}


_LIBC = ctypes.CDLL(None)
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int


def _rss_before_windows():
    # Hand freed heap pages back first, so that the growth counts the new
    # windows rather than memory an earlier set-up freed and malloc reuses.
    _LIBC.malloc_trim(0)
    return current_rss_mb()


def _window_growth(args, result, token):
    return current_rss_mb() - token, sum(len(split) for split in result)


def _file_bytes(args, result, token):
    return os.path.getsize(args[1])


def make_tracer(gate, full):
    """Every public callable when ``full``; else only the three names the
    end-to-end metrics are timed from."""
    enter = {"train.training_forward": gate}
    observe = {"train.training_forward": _loss_finite}
    if not full:
        return Tracer(("train.train", "train.training_forward", "train.evaluate"), enter, observe)
    enter["data.make_windows"] = _rss_before_windows
    observe.update({
        "tensor.matmul": _matmul_flops,
        "visibility.plan_visibility": _plan_counts,
        "data.make_windows": _window_growth,
        "checkpoint.save_checkpoint": _file_bytes,
        "checkpoint.load_into": _file_bytes,
    })
    return Tracer(None, enter, observe)


@dataclass
class Phase:
    tracer: Tracer
    wall: float = 0.0
    setup: list = field(default_factory=list)  # seconds per set-up
    latency_ms: list = field(default_factory=list)  # per step or request
    samples: int = 0  # windows trained on or forecast
    busy_s: float = 0.0  # time those samples took
    epoch_s: list = field(default_factory=list)
    mae: list = field(default_factory=list)  # forecast_mae per repeat
    attempted: int = 0
    failed: int = 0


class Workload:
    def __init__(self, profile, seed, workdir, checks):
        self.profile = profile
        self.seed = seed
        self.checks = checks
        self.gate = StepGate()
        self.path = os.path.join(workdir, "series.txt")
        self.ckpt = os.path.join(workdir, "checkpoint.bin")
        extra = {"max_epochs": profile.epochs, "patience": profile.epochs + 1} if profile.epochs else {}
        self.config = TR.TrainConfig(**profile.config, **extra, seed=seed)
        series = SYNTH.generate_series(profile.nodes, profile.days, profile.freq, profile.noise, seed)
        if profile.rows:
            series = D.TrafficSeries(series.values[: profile.rows], series.frequency, series.start)
        D.save_series(series, self.path)
        self.nodes = series.node_count
        self.freq = series.frequency

    def build(self, seed):
        return TR.Forecaster.build(self.config, self.nodes, self.freq, np.random.default_rng(seed))


class TrainWorkload(Workload):
    """Repeated fixed-length train() runs on one generated series."""

    def prepare(self):
        cfg = self.config
        s_eff = TR.effective_subgraph_size(self.nodes, cfg.mask_ratio, cfg.subgraph_size)
        plan = V.plan_visibility(self.nodes, cfg.mask_ratio, s_eff, np.random.default_rng(self.seed))
        k, s = plan.slots.shape
        expected = TR.attention_pair_count(self.nodes, cfg.mask_ratio, s_eff)
        self.checks.add("attn_pairs_identity", k * s * s == expected,
                        f"K*s^2={k * s * s}, attention_pair_count={expected}")

    def phase(self, tracer, budget, alone):
        """One measured phase; ``alone`` when it is the run's only phase."""
        ph = Phase(tracer)
        gate = self.gate
        min_repeats = MIN_REPEATS if alone else 1
        start = clock()
        with tracer:
            last = 0.0
            result = None
            while len(ph.mae) < min_repeats or clock() - start + last <= budget:
                cycle = clock()
                for _ in range(self.profile.setup_rounds):
                    gate.reset(abort=True)
                    t0 = clock()
                    series = D.load_series(self.path)
                    try:
                        TR.train(self.config, series)
                    except SetupDone:
                        ph.setup.append(gate.first - t0)
                t0 = clock()
                gate.reset(abort=False)
                epochs = []
                try:
                    series = D.load_series(self.path)
                    result = TR.train(
                        self.config, series,
                        progress=lambda e, loss, val: epochs.append((clock(), val)),
                    )
                except Exception:  # a raising step ends the workload as failed
                    traceback.print_exc()
                    ph.attempted += 1
                    ph.failed += 1
                    break
                last = clock() - cycle
                ph.setup.append(gate.first - t0)
                ph.epoch_s += [b[0] - a[0] for a, b in zip(epochs, epochs[1:])]
                ph.samples += len(result.windows[0]) * result.epochs_run
                ph.mae.append(result.log_rows[-1][4])
                self.checks.add(
                    "epochs_completed", result.epochs_run == self.profile.epochs,
                    f"{result.epochs_run} of {self.profile.epochs}",
                )
                self.checks.add(
                    "validation_finite",
                    all(finite(v.rmse, v.mae, v.mape) for _, v in epochs),
                    "validation metrics of every epoch",
                )
            if result is not None:
                self._checkpoint_roundtrip(result.forecaster)
        ph.wall = clock() - start
        steps, _ = training_steps(tracer.spans)
        ph.latency_ms = [(b - a) * 1e3 for a, b in steps]
        ph.busy_s = sum(b - a for a, b in steps)
        losses = [ok for _, ok in tracer.observed.get("train.training_forward", [])]
        ph.attempted += len(losses)
        ph.failed += losses.count(False)
        return ph

    def _checkpoint_roundtrip(self, forecaster):
        CK.save_checkpoint(forecaster.params, self.ckpt)
        fresh = self.build(0)
        CK.load_into(fresh.params, self.ckpt)
        same = all(
            np.array_equal(t.data, fresh.params[name].data) for name, t in forecaster.params.items()
        )
        self.checks.add("checkpoint_roundtrip", same, "saved and reloaded parameters are equal")

    def report(self, ph):
        value, pct, n = tail(ph.latency_ms)
        return {
            "setup_s": (median(ph.setup), "s"),
            "step_ms_p50": (median(ph.latency_ms), "ms"),
            "step_ms_tail": (value, "ms", {"percentile": pct, "samples": n}),
            "train_samples_per_s": (ph.samples / ph.busy_s if ph.busy_s else 0.0, "windows/s"),
            "epoch_s": (median(ph.epoch_s), "s"),
        }


class InferWorkload(Workload):
    """The ``foldcast eval`` path: load, normalize, window, build, load a
    checkpoint, then serve consecutive test-window requests."""

    def prepare(self):
        self.checked_first = False
        CK.save_checkpoint(self.build(self.seed).params, self.ckpt)

    def phase(self, tracer, budget, alone):
        """One measured phase; ``alone`` when it is the run's only phase, in
        which case the first MAE_REQUESTS requests are evaluated again at the
        end so that forecast_mae is compared within the run."""
        ph = Phase(tracer)
        start = clock()
        with tracer:
            acc = MET.MetricAccumulator()
            reserve = MAE_REQUESTS if alone else 0
            k = 0

            def next_cost():
                """Expected seconds of the next request, with its set-up."""
                cost = (1 + reserve) * median(ph.latency_ms) / 1e3
                return cost + (median(ph.setup) if k % REQUESTS_PER_SETUP == 0 else 0.0)

            while k < MIN_REQUESTS or clock() - start + next_cost() <= budget:
                if k % REQUESTS_PER_SETUP == 0:
                    # free the last set-up first; like ``foldcast eval``, hold
                    # every split while serving the test split
                    forecaster = stats = windows = test = None
                    forecaster, stats, windows, seconds = self._setup()
                    test = windows[2]
                    ph.setup.append(seconds)
                batch = [test[(k * REQUEST_WINDOWS + j) % len(test)] for j in range(REQUEST_WINDOWS)]
                ph.attempted += 1
                t0 = clock()
                try:
                    result = TR.evaluate(forecaster, batch, stats, batch_size=REQUEST_WINDOWS,
                                         accumulator=acc)
                except Exception:  # a raising request ends the workload as failed
                    traceback.print_exc()
                    ph.failed += 1
                    break
                ph.latency_ms.append((clock() - t0) * 1e3)
                ph.busy_s += ph.latency_ms[-1] / 1e3
                ph.samples += len(batch)
                if not finite(result.rmse, result.mae, result.mape):
                    ph.failed += 1
                    break
                if not self.checked_first:
                    self.checked_first = True
                    self._first_request_checks(forecaster, batch, stats, result)
                k += 1
                if k == MAE_REQUESTS:
                    ph.mae.append(result.mae)
            if alone:
                first = [test[j % len(test)] for j in range(MAE_REQUESTS * REQUEST_WINDOWS)]
                ph.mae.append(TR.evaluate(forecaster, first, stats, batch_size=REQUEST_WINDOWS).mae)
        ph.wall = clock() - start
        return ph

    def _setup(self):
        """Load, normalize, window, build and load the checkpoint: what
        ``foldcast eval`` does before its first request."""
        cfg = self.config
        t0 = clock()
        series = D.load_series(self.path)
        stats = D.fit_normalizer(series, cfg.split[0])
        windows = D.make_windows(D.apply_zscore(series, stats), cfg.t_in, cfg.horizon, cfg.split)
        forecaster = TR.Forecaster.build(cfg, series.node_count, series.frequency,
                                         np.random.default_rng(0))
        CK.load_into(forecaster.params, self.ckpt)
        return forecaster, stats, windows, clock() - t0

    def _first_request_checks(self, forecaster, batch, stats, result):
        inputs = np.stack([w.input for w in batch])
        targets = np.stack([w.target for w in batch])
        tod = np.array([w.tod_index for w in batch])
        dow = np.array([w.dow_index for w in batch])
        inference = forecaster.forward_inference(inputs, tod, dow).data
        n = inputs.shape[1]
        plans = [V.plan_visibility(n, 0.0, n, np.random.default_rng(0)) for _ in batch]
        z0 = V.apply_visibility_batch(forecaster.fuse(inputs, tod, dow), plans)
        train_mode = forecaster.encode_and_predict(z0).data.reshape(inference.shape)
        self.checks.add("train_inference_bitwise", np.array_equal(train_mode, inference),
                        "train-mode forward at r=0, s=N against the inference forward")
        again = MET.compute_metrics(D.invert_zscore(inference, stats), D.invert_zscore(targets, stats))
        self.checks.add("first_request_reproduces", (again.mae, again.rmse) == (result.mae, result.rmse),
                        "evaluate() against a direct forward of the same windows")

    def report(self, ph):
        value, pct, n = tail(ph.latency_ms)
        return {
            "setup_s": (median(ph.setup), "s"),
            "infer_batch_ms_p50": (median(ph.latency_ms), "ms"),
            "infer_batch_ms_tail": (value, "ms", {"percentile": pct, "samples": n}),
            "infer_samples_per_s": (ph.samples / ph.busy_s if ph.busy_s else 0.0, "windows/s"),
        }


WORKLOADS = {"desk_train": TrainWorkload, "pems04_train": TrainWorkload, "pems04_infer": InferWorkload}

# The gated end-to-end names are shared by all workloads; each maps to the
# workload's own name for the same quantity.
E2E_ALIASES = {
    "latency_ms_p50": ("step_ms_p50", "infer_batch_ms_p50"),
    "latency_ms_tail": ("step_ms_tail", "infer_batch_ms_tail"),
    "samples_per_s": ("train_samples_per_s", "infer_samples_per_s"),
}


def run(name, seed, seconds, trace, size, workdir):
    """Run one workload; returns (report, metrics, attempted, failed)."""
    checks = Checks()
    wl = WORKLOADS[name](PROFILES[name][size], seed, workdir, checks)
    wl.prepare()
    if trace:
        phases = [wl.phase(make_tracer(wl.gate, full), seconds / 2, alone=False)
                  for full in (False, True)]
    else:
        phases = [wl.phase(make_tracer(wl.gate, full=False), seconds, alone=True)]
    untraced = phases[0]
    maes = [m for p in phases for m in p.mae]
    checks.add("forecast_mae_reproducible", len(maes) >= 2 and len(set(maes)) == 1,
               f"{len(maes)} same-seed values, distinct: {sorted(set(maes))}")
    checks.add("forecast_mae_finite", bool(maes) and all(finite(m) and m > 0 for m in maes))
    if trace:
        plans = phases[1].tracer.observed.get("visibility.plan_visibility", [])
        bad = [p for _, p in plans
               if p["pairs"] != TR.attention_pair_count(p["n"], p["r"], p["s"])]
        checks.add("attn_pairs_identity_traced", not bad,
                   f"{len(plans) - len(bad)} of {len(plans)} plans match attention_pair_count")

    attempted = sum(p.attempted for p in phases) + checks.attempted
    failed = sum(p.failed for p in phases) + checks.failed
    named = wl.report(untraced)
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["forecast_mae"] = (maes[0] if maes else float("nan"), "orig_units")
    named["error_rate"] = (failed / attempted, "fraction")
    report = {
        "workload": name,
        "metrics": {k: {"value": v[0], "unit": v[1], **(v[2] if len(v) > 2 else {})}
                    for k, v in named.items()},
        "checks": list(checks.items.values()),
    }
    if trace:
        traced = phases[1]
        per_layer, report["layer_self_share"] = layer_metrics(traced.tracer, traced.wall)
        ref_p50 = median(untraced.latency_ms)
        per_layer["trace.overhead"] = median(traced.latency_ms) / ref_p50 if ref_p50 else 0.0
        return report, per_layer, attempted, failed
    metrics = {k: named[k][0] for k in ("setup_s", "peak_rss_mb", "forecast_mae")}
    for gated, aliases in E2E_ALIASES.items():
        metrics[gated] = next(named[a][0] for a in aliases if a in named)
    return report, metrics, attempted, failed
