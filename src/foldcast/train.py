"""Training engine: Huber-loss optimization with Adam, milestone learning
rate decay, early stopping, and de-normalized evaluation.

Visibility (masking + subgraph sampling) applies during training only;
evaluation always runs the full graph in one pass. Batches are processed
sequentially so the optimizer trajectory is deterministic for a given
config and seed.

The per-epoch ``epoch_seconds`` column in the training log is an analytic
cost estimate (counted FLOPs over a fixed nominal rate), not a stopwatch:
the log must reproduce byte-for-byte across same-seed runs, which wall
time cannot. Measured wall time is reported by the bench harness.
"""
from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from . import tensor as T
from . import visibility as V
from .data import apply_zscore, fit_normalizer, invert_zscore, make_windows, stack_windows
from .errors import DivergenceError
from .metrics import MetricAccumulator
from .tokenize import fuse_embeddings_batch

NOMINAL_FLOPS_PER_SECOND = 2.0e9  # fixed rate backing the analytic estimate

TRAIN_LOG_COLUMNS = (
    "epoch,lr,train_loss,val_rmse,val_mae,val_mape,epoch_seconds,tokens_processed"
)
BENCH_COLUMNS = "config_id,r,s,tokens,params,act_floats,epoch_seconds"


@dataclass
class TrainConfig:
    """Resolved run settings; defaults mirror the PEMS04-style profile."""

    t_in: int = 24
    horizon: int = 24
    embed_dim: int = 64
    ffn_dim: int = 1024
    heads: int = 4
    layers: int = 1
    batch_size: int = 16
    lr: float = 1e-4
    milestones: tuple = (55,)
    decay: float = 0.1
    patience: int = 10
    huber_delta: float = 1.0
    mask_ratio: float = 0.2
    subgraph_size: int = 50
    mask_strategy: str = "node_level"
    folding: str = M.TFG
    seed: int = 0
    max_epochs: int = 100
    split: tuple = (0.6, 0.2, 0.2)

    def validate(self):
        if self.t_in < 1 or self.horizon < 1:
            raise ValueError("t_in and horizon must be >= 1")
        if not 0 <= self.mask_ratio < 1:
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.subgraph_size < 1:
            raise ValueError("subgraph_size must be >= 1")
        for name in ("lr", "decay", "huber_delta"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # written so that NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError("milestones must be ascending")
        if self.folding not in (M.TFG, M.SF):
            raise ValueError(f"folding must be TFG or SF, got {self.folding!r}")
        if self.mask_strategy not in V.STRATEGIES:
            raise ValueError(f"unknown mask_strategy {self.mask_strategy!r}")
        if (len(self.split) != 3 or min(self.split) < 0 or self.split[0] <= 0
                or abs(sum(self.split) - 1.0) > 1e-9):
            raise ValueError(
                "split must be three fractions >= 0 with a positive train "
                f"fraction, summing to 1; got {self.split}"
            )
        if self.max_epochs < 0 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("max_epochs >= 0, patience >= 1, batch_size >= 1 required")
        if min(self.embed_dim, self.ffn_dim, self.heads) < 1 or self.layers < 0:
            raise ValueError("embed_dim, ffn_dim, heads >= 1 and layers >= 0 required")
        width = (4 if self.folding == M.TFG else 3) * self.embed_dim
        if width % self.heads != 0:
            raise ValueError(
                f"heads ({self.heads}) must divide the token width ({width})"
            )


def lr_at_epoch(config, epoch):
    """Learning rate used during 1-indexed ``epoch``: the base rate decayed
    once per milestone already reached."""
    hits = sum(1 for m in config.milestones if m <= epoch)
    return config.lr * config.decay**hits


class Forecaster:
    """Model parameters plus the forward paths for both folding modes."""

    def __init__(self, dims, params):
        self.dims = dims
        self.params = params

    @classmethod
    def build(cls, config, n_nodes, frequency, rng):
        dims = M.ModelDims(
            t_in=config.t_in,
            horizon=config.horizon,
            embed_dim=config.embed_dim,
            ffn_dim=config.ffn_dim,
            heads=config.heads,
            layers=config.layers,
            n_nodes=n_nodes,
            frequency=frequency,
            folding=config.folding,
        )
        dims.head_dim  # validates heads | width
        return cls(dims, M.build_params(dims, rng))

    def fuse(self, inputs, tod, dow):
        """(B, N, T) inputs -> fused tokens: one per node under TFG, one
        per input step (the (B, T, N) transpose) under SF."""
        tokens = inputs if self.dims.folding == M.TFG else inputs.transpose(0, 2, 1)
        return fuse_embeddings_batch(tokens, self.params.tables(), tod, dow)

    def encode_and_predict(self, z0):
        z = M.encoder_forward(z0, self.params, self.dims.layers, self.dims.heads)
        return M.predict(z, self.params)

    def forward_inference(self, inputs, tod, dow):
        """Full-graph forward; (B, N, T) -> (B, N, T') tensor."""
        fused = self.fuse(inputs, tod, dow)
        preds = self.encode_and_predict(fused)
        if self.dims.folding == M.TFG:
            return preds
        # SF: (B, T, N) per-token forecasts -> time-axis map onto horizon
        node_major = T.transpose(preds, (0, 2, 1))
        return T.linear(node_major, self.params["sf.time"], self.params["sf.time_b"])


def effective_subgraph_size(n_nodes, mask_ratio, subgraph_size):
    """Clamp the configured s so one subgraph never outgrows the survivors
    (a profile tuned for a large network stays usable on a small one)."""
    m, _, _ = V.geometry(n_nodes, mask_ratio, subgraph_size)
    return max(1, min(subgraph_size, n_nodes - m))


def sample_geometry(dims, config):
    """(tokens, groups, group_size) one training sample puts through the
    encoder: the K*s visible slots under node-level masking, all N nodes
    in one group for the perturbation strategies, all T steps in one
    group under SF."""
    n = dims.n_nodes
    if dims.folding == M.SF:
        return dims.t_in, 1, dims.t_in
    if config.mask_strategy != "node_level":
        return n, 1, n
    s = effective_subgraph_size(n, config.mask_ratio, config.subgraph_size)
    _, _, k = V.geometry(n, config.mask_ratio, s)
    return k * s, k, s


def training_forward(forecaster, config, inputs, targets, tod, dow, plan_rng):
    """One training-mode forward: fuse, apply visibility, encode, predict.

    Returns (loss tensor, visible token count). Node-level masking puts
    each sample's K*s visible slots through the encoder and takes the loss
    over the kept nodes; SF mode and the perturbation strategies run the
    full graph, every node visible and incurring loss.
    """
    dims = forecaster.dims
    b = inputs.shape[0]
    tokens, _, s = sample_geometry(dims, config)
    include = None
    if dims.folding == M.SF:
        preds = forecaster.forward_inference(inputs, tod, dow)
    else:
        fused = forecaster.fuse(inputs, tod, dow)
        plans = [
            V.plan_visibility(dims.n_nodes, config.mask_ratio, s, plan_rng) for _ in range(b)
        ]
        if config.mask_strategy == "node_level":
            z0 = V.apply_visibility_batch(fused, plans)
            targets, include = V.gather_targets(targets, plans)
            include = include[..., None]
        else:
            z0 = V.perturb_masked_batch(
                fused, plans, config.mask_strategy, config.embed_dim, plan_rng
            )
        preds = forecaster.encode_and_predict(z0)
    loss = T.huber_loss(preds, targets, config.huber_delta, include)
    return loss, b * tokens


def evaluate(forecaster, windows, stats, batch_size=64, accumulator=None, per_horizon=None):
    """Inference-mode metrics over ``windows``, de-normalized via ``stats``.

    Ignores mask ratio and subgraph size entirely: a single full-graph
    pass per sample. Records no tape: the forwards run under
    ``params.no_grad()``, so each batch's activations are freed as soon as
    its predictions are read. Optionally fills ``per_horizon`` accumulators
    (one per forecast step).
    """
    if not windows:
        raise ValueError("evaluate needs a non-empty window set")
    acc = accumulator if accumulator is not None else MetricAccumulator()
    for lo in range(0, len(windows), batch_size):
        inputs, targets, tod, dow = stack_windows(windows[lo : lo + batch_size])
        with forecaster.params.no_grad():
            preds = forecaster.forward_inference(inputs, tod, dow).data
        pred_units = invert_zscore(preds, stats)
        truth_units = invert_zscore(targets, stats)
        acc.update(pred_units, truth_units)
        if per_horizon is not None:
            for j, step_acc in enumerate(per_horizon):
                step_acc.update(pred_units[..., j], truth_units[..., j])
    return acc.result()


@dataclass
class TrainResult:
    forecaster: Forecaster
    stats: object
    windows: tuple
    log_rows: list
    best_epoch: int
    best_val_mae: float
    epochs_run: int
    wall_seconds: list = field(default_factory=list)


def _rng_streams(seed):
    ss = np.random.SeedSequence(seed)
    init_ss, shuffle_ss, plan_ss = ss.spawn(3)
    return (
        np.random.default_rng(init_ss),
        np.random.default_rng(shuffle_ss),
        np.random.default_rng(plan_ss),
    )


def train(config, series, progress=None):
    """Full optimization loop over a raw series.

    Normalizes with train-slice statistics, windows chronologically,
    then per epoch: shuffle, batch, tokenize, draw fresh visibility plans,
    forward, Huber backward over visible nodes, Adam step. The learning
    rate decays at each milestone epoch; training stops early after
    ``patience`` epochs without validation-MAE improvement and the
    best-validation parameters are restored.
    """
    config.validate()
    stats = fit_normalizer(series, config.split[0])
    normed = apply_zscore(series, stats)
    train_w, val_w, test_w = make_windows(
        normed, config.t_in, config.horizon, config.split
    )
    if not train_w:
        raise DivergenceError("no training windows; series too short for the split")
    init_rng, shuffle_rng, plan_rng = _rng_streams(config.seed)
    forecaster = Forecaster.build(
        config, series.node_count, series.frequency, init_rng
    )
    params = forecaster.params
    state = T.AdamState()

    best_blobs = params.clone_data()
    best_val_mae = np.inf
    best_epoch = 0
    stale = 0
    log_rows = []
    wall_seconds = []
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        lr = lr_at_epoch(config, epoch)
        tick = time.perf_counter()
        order = shuffle_rng.permutation(len(train_w))
        loss_sum = 0.0
        loss_batches = 0
        tokens_processed = 0
        for lo in range(0, len(order), config.batch_size):
            batch = stack_windows([train_w[i] for i in order[lo : lo + config.batch_size]])
            loss, tokens = training_forward(forecaster, config, *batch, plan_rng)
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}"
                )
            params.zero_grads()
            loss.backward()
            T.adam_step(params.tensors, params.grads(), state, lr)
            loss_sum += loss.item()
            # the loss's closures hold every activation of the step; drop
            # them before the next forward and the epoch's validation
            del loss
            loss_batches += 1
            tokens_processed += tokens
        # wall time covers the training section only; validation cost is
        # independent of the visibility settings being benchmarked
        wall_seconds.append(time.perf_counter() - tick)
        train_loss = loss_sum / loss_batches
        val = evaluate(forecaster, val_w or train_w, stats)
        est_seconds = estimate_epoch_seconds(
            forecaster.dims, config, len(train_w), len(val_w or train_w)
        )
        log_rows.append(
            [epoch, lr, train_loss, val.rmse, val.mae, val.mape, est_seconds, tokens_processed]
        )
        epochs_run = epoch
        if progress is not None:
            progress(epoch, train_loss, val)
        if val.mae < best_val_mae:
            best_val_mae = val.mae
            best_epoch = epoch
            best_blobs = params.clone_data()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    params.load_data(best_blobs)
    return TrainResult(
        forecaster=forecaster,
        stats=stats,
        windows=(train_w, val_w, test_w),
        log_rows=log_rows,
        best_epoch=best_epoch,
        best_val_mae=float(best_val_mae) if np.isfinite(best_val_mae) else float("nan"),
        epochs_run=epochs_run,
        wall_seconds=wall_seconds,
    )


def format_rows(columns, rows):
    """CSV text: the ``columns`` header line, then one line per row; repr()
    keeps floats shortest-round-trip so identical runs serialize
    identically."""
    lines = [columns]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# --- resource accounting -------------------------------------------------

def tfg_token_count(n_nodes):
    """Tokens per sample under temporal folding: one per node."""
    return n_nodes


def snapshot_token_count(n_nodes, t_in):
    """Tokens per sample under conventional snapshot stacking."""
    return n_nodes * t_in


def visible_token_count(n_nodes, mask_ratio, subgraph_size):
    """Processed slots per sample after masking and padding: (1-r)N + p."""
    _, _, k = V.geometry(n_nodes, mask_ratio, subgraph_size)
    return k * subgraph_size


def attention_pair_count(n_nodes, mask_ratio, subgraph_size):
    """Token pairs scored per sample: K * s^2 = ((1-r)N + p) * s."""
    return visible_token_count(n_nodes, mask_ratio, subgraph_size) * subgraph_size


def forward_flops_per_sample(dims, tokens, groups, group_size):
    """Multiply-add count of one forward pass over ``tokens`` slots."""
    w = dims.width
    f = dims.ffn_dim
    fuse_in = dims.t_in if dims.folding == M.TFG else dims.n_nodes
    fuse_tokens = dims.n_nodes if dims.folding == M.TFG else dims.t_in
    flops = fuse_tokens * fuse_in * dims.embed_dim * 2
    per_layer = (
        tokens * w * 3 * w * 2  # qkv
        + groups * dims.heads * group_size * group_size * (w // dims.heads) * 2 * 2
        + tokens * w * w * 2  # output projection
        + tokens * (w * f + f * w) * 2  # ffn
    )
    head_out = dims.horizon if dims.folding == M.TFG else dims.n_nodes
    head = tokens * (w * f + f * head_out) * 2
    return flops + dims.layers * per_layer + head


def estimate_epoch_seconds(dims, config, n_train, n_val):
    """Deterministic per-epoch cost estimate: forward+backward over the
    training windows plus a forward over the validation windows, at a
    fixed nominal FLOP rate."""
    train_fwd = forward_flops_per_sample(dims, *sample_geometry(dims, config))
    seq = dims.n_nodes if dims.folding == M.TFG else dims.t_in
    infer_fwd = forward_flops_per_sample(dims, seq, 1, seq)
    total = 3 * train_fwd * n_train + infer_fwd * n_val
    return total / NOMINAL_FLOPS_PER_SECOND


def activation_float_count(forecaster, config, windows):
    """8-byte words one training step's graph holds: the numpy buffers a
    ``training_forward`` over ``windows`` allocates that are still alive
    while its loss is, measured with ``tracemalloc``. Boolean masks and
    gather indices count by their bytes; the parameters, allocated before
    the step, do not count. A caller's own tracing session keeps running."""
    def numpy_bytes():
        traces = tracemalloc.take_snapshot().traces
        return sum(t.size for t in traces if t.domain == np.lib.tracemalloc_domain)

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = numpy_bytes()
        loss, _ = training_forward(
            forecaster, config, *stack_windows(windows), np.random.default_rng(config.seed)
        )
        held = numpy_bytes() - before  # taken while ``loss`` keeps the graph alive
    finally:
        if started:
            tracemalloc.stop()
    return held / 8


def bench(config, series, grid, epochs=3):
    """Resource report over a (mask_ratio, subgraph_size) grid.

    Each grid point trains ``epochs`` epochs on the series and reports the
    per-sample encoder token count (``sample_geometry``), parameter count,
    the activation words one step over the first ``batch_size`` training
    windows holds (``activation_float_count``), and the minimum measured
    epoch wall time.
    """
    rows = []
    for r, s in grid:
        cfg = replace(
            config,
            mask_ratio=r,
            subgraph_size=s,
            max_epochs=epochs,
            patience=max(config.patience, epochs + 1),
        )
        result = train(cfg, series)
        forecaster = result.forecaster
        rows.append(
            [
                f"r{r}_s{s}",
                r,
                s,
                sample_geometry(forecaster.dims, cfg)[0],
                forecaster.params.param_count(),
                activation_float_count(forecaster, cfg, result.windows[0][: cfg.batch_size]),
                min(result.wall_seconds),
            ]
        )
    return rows

