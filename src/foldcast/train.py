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
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from . import tensor as T
from . import visibility as V
from .data import apply_zscore, fit_normalizer, invert_zscore, make_windows, stack_windows
from .errors import DataError, DivergenceError
from .metrics import MetricAccumulator
from .tokenize import fuse_embeddings_batch

NOMINAL_FLOPS_PER_SECOND = 2.0e9  # fixed rate backing the analytic estimate

TRAIN_LOG_COLUMNS = (
    "epoch,lr,train_loss,val_rmse,val_mae,val_mape,epoch_seconds,tokens_processed"
)
BENCH_COLUMNS = "config_id,r,s,tokens,params,act_floats,epoch_seconds"


@dataclass(frozen=True)
class TrainConfig:
    """Resolved run settings; defaults mirror the PEMS04-style profile.
    Making one, ``replace()`` too, checks it: a bad value raises ValueError."""

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

    @property
    def width(self):
        """Token width: TOKEN_PARTS[folding] embeddings of d each."""
        return M.TOKEN_PARTS[self.folding] * self.embed_dim

    def folded_shape(self, n_nodes):
        """(tokens, features, outputs) of one full-graph sample: (N, T, T')
        under TFG, a token per node; (T, N, N) under SF, a token per step."""
        if self.folding == M.TFG:
            return n_nodes, self.t_in, self.horizon
        return self.t_in, n_nodes, n_nodes

    def __post_init__(self):
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
        if self.folding not in M.TOKEN_PARTS:
            raise ValueError(f"folding must be TFG or SF, got {self.folding!r}")
        if self.mask_strategy not in V.STRATEGIES:
            raise ValueError(f"unknown mask_strategy {self.mask_strategy!r}")
        if (len(self.split) != 3 or not all(f >= 0 for f in self.split)  # NaN fails
                or not self.split[0] > 0 or not abs(sum(self.split) - 1.0) <= 1e-9):
            raise ValueError(
                "split must be three fractions >= 0 with a positive train "
                f"fraction, summing to 1; got {self.split}"
            )
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 0 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("max_epochs >= 0, patience >= 1, batch_size >= 1 required")
        if min(self.embed_dim, self.ffn_dim, self.heads) < 1 or self.layers < 0:
            raise ValueError("embed_dim, ffn_dim, heads >= 1 and layers >= 0 required")
        if self.width % self.heads != 0:
            raise ValueError(
                f"heads ({self.heads}) must divide the token width ({self.width})"
            )


def lr_at_epoch(config, epoch):
    """Learning rate used during 1-indexed ``epoch``: the base rate decayed
    once per milestone already reached."""
    hits = sum(1 for m in config.milestones if m <= epoch)
    return config.lr * config.decay**hits


class Forecaster:
    """Parameters sized by ``config`` over ``n_nodes`` nodes, plus the
    forward paths for both folding modes."""

    def __init__(self, config, n_nodes, params):
        self.config = config
        self.n_nodes = n_nodes
        self.params = params

    @classmethod
    def build(cls, config, n_nodes, frequency, rng):
        return cls(config, n_nodes, M.build_params(config, n_nodes, frequency, rng))

    def fuse(self, inputs, tod, dow):
        """(B, N, T) inputs -> (B, tokens, width), ``config.folded_shape``'s tokens."""
        tokens = inputs if self.config.folding == M.TFG else inputs.transpose(0, 2, 1)
        return fuse_embeddings_batch(tokens, self.params.tensors, tod, dow)

    def encode_and_predict(self, z0):
        z = M.encoder_forward(z0, self.params, self.config.layers, self.config.heads)
        return M.predict(z, self.params)

    def forward_inference(self, inputs, tod, dow):
        """Full-graph forward; (B, N, T) -> (B, N, T') tensor."""
        fused = self.fuse(inputs, tod, dow)
        preds = self.encode_and_predict(fused)
        if self.config.folding == M.TFG:
            return preds
        # SF: (B, T, N) per-token forecasts -> time-axis map onto horizon
        node_major = T.transpose(preds, (0, 2, 1))
        return T.linear(node_major, self.params["sf.time"], self.params["sf.time_b"])


def effective_subgraph_size(n_nodes, mask_ratio, subgraph_size):
    """Clamp the configured s so one subgraph never outgrows the survivors
    (a profile tuned for a large network stays usable on a small one)."""
    m, _, _ = V.geometry(n_nodes, mask_ratio, subgraph_size)
    return max(1, min(subgraph_size, n_nodes - m))


def sample_geometry(config, n_nodes):
    """(tokens, group_size) one training sample puts through the encoder:
    K*s visible slots in groups of s under node-level masking, else the
    whole folded sample as one group (SF, or all N nodes perturbed)."""
    if config.folding == M.SF or config.mask_strategy != "node_level":
        tokens = config.folded_shape(n_nodes)[0]
        return tokens, tokens
    s = effective_subgraph_size(n_nodes, config.mask_ratio, config.subgraph_size)
    return visible_token_count(n_nodes, config.mask_ratio, s), s


def training_forward(forecaster, inputs, targets, tod, dow, plan_rng):
    """One training-mode forward: fuse, apply visibility, encode, predict.

    Returns (loss tensor, visible token count). Node-level masking puts
    each sample's K*s visible slots through the encoder and takes the loss
    over the kept nodes; SF mode and the perturbation strategies run the
    full graph, every node visible and incurring loss.
    """
    config = forecaster.config
    b = inputs.shape[0]
    tokens, s = sample_geometry(config, forecaster.n_nodes)
    include = None
    if config.folding == M.SF:
        preds = forecaster.forward_inference(inputs, tod, dow)
    else:
        fused = forecaster.fuse(inputs, tod, dow)
        plans = [
            V.plan_visibility(forecaster.n_nodes, config.mask_ratio, s, plan_rng) for _ in range(b)
        ]
        if config.mask_strategy == "node_level":
            z0 = V.apply_visibility_batch(fused, plans)
            targets, include = V.gather_targets(targets, plans)
            include = include[..., None]
        else:
            z0 = V.perturb_masked_batch(
                fused, plans, config.mask_strategy, config.embed_dim, plan_rng
            )
        del fused  # nothing reads the full-graph tokens past visibility
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
    """One run's record, filled in place by ``train``: a log row and a wall
    time per epoch, and the best epoch (0, MAE NaN, until one has run)."""

    forecaster: Forecaster
    stats: object
    windows: tuple
    log_rows: list = field(default_factory=list)
    wall_seconds: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_mae: float = float("nan")

    @property
    def epochs_run(self):
        return len(self.log_rows)

    @property
    def eval_windows(self):
        """The windows a run is scored on: test, else val, else train."""
        return self.windows[2] or self.windows[1] or self.windows[0]


def normalized_windows(config, series):
    """(stats, windows): ``series`` z-scored by its train slice, then windowed."""
    stats = fit_normalizer(series, config.split[0])
    windows = make_windows(apply_zscore(series, stats), config.t_in, config.horizon, config.split)
    return stats, windows


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
    stats, windows = normalized_windows(config, series)
    train_w = windows[0]
    if not train_w:
        raise DataError("no training windows; series too short for the split")
    val_w = windows[1] or train_w
    init_rng, shuffle_rng, plan_rng = _rng_streams(config.seed)
    forecaster = Forecaster.build(
        config, series.node_count, series.frequency, init_rng
    )
    result = TrainResult(forecaster, stats, windows)
    params = forecaster.params
    state = T.AdamState()
    est_seconds = estimate_epoch_seconds(config, series.node_count, len(train_w), len(val_w))
    best_blobs = params.clone_data()
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        lr = lr_at_epoch(config, epoch)
        tick = time.perf_counter()
        order = shuffle_rng.permutation(len(train_w))
        losses = []
        tokens_processed = 0
        for lo in range(0, len(order), config.batch_size):
            batch = stack_windows([train_w[i] for i in order[lo : lo + config.batch_size]])
            loss, tokens = training_forward(forecaster, *batch, plan_rng)
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}"
                )
            # each closure, and the activations it holds, is freed once it has run
            loss.backward()
            T.adam_step(params.tensors, params.grads(), state, lr)
            params.zero_grads()  # so no gradient sits under the next forward
            losses.append(loss.item())
            del loss  # nothing of the step outlives it
            tokens_processed += tokens
        # wall time covers the training section only; validation cost is
        # independent of the visibility settings being benchmarked
        result.wall_seconds.append(time.perf_counter() - tick)
        # partial sums add left to right on every Python; ``sum`` compensates from 3.12
        train_loss = float(np.cumsum(losses)[-1]) / len(losses)
        val = evaluate(forecaster, val_w, stats)
        result.log_rows.append(
            [epoch, lr, train_loss, val.rmse, val.mae, val.mape, est_seconds, tokens_processed]
        )
        if progress is not None:
            progress(epoch, train_loss, val)
        if val.mae < (result.best_val_mae if result.best_epoch else np.inf):
            result.best_val_mae = val.mae
            result.best_epoch = epoch
            best_blobs = params.clone_data()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    params.load_data(best_blobs)
    return result


def format_cell(v):
    """One output cell: repr() keeps a float shortest-round-trip, so
    identical runs serialize identically; anything else is str()."""
    return repr(v) if isinstance(v, float) else str(v)


def format_rows(columns, rows):
    """CSV text: the ``columns`` header line, then one line per row."""
    lines = [columns] + [",".join(map(format_cell, row)) for row in rows]
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


def forward_flops_per_sample(config, n_nodes, tokens, group_size):
    """Multiply-add count of one forward over ``tokens`` slots in groups of ``group_size``."""
    w = config.width
    f = config.ffn_dim
    fold_tokens, features, outputs = config.folded_shape(n_nodes)
    flops = fold_tokens * features * config.embed_dim * 2
    per_layer = (
        tokens * w * 3 * w * 2  # qkv
        + tokens * group_size * w * 2 * 2  # scores and weighted values, all heads
        + tokens * w * w * 2  # output projection
        + tokens * (w * f + f * w) * 2  # ffn
    )
    head = tokens * (w * f + f * outputs) * 2
    return flops + config.layers * per_layer + head


def estimate_epoch_seconds(config, n_nodes, n_train, n_val):
    """Deterministic per-epoch cost estimate: forward+backward over the
    training windows plus a forward over the validation windows, at a
    fixed nominal FLOP rate."""
    train_fwd = forward_flops_per_sample(config, n_nodes, *sample_geometry(config, n_nodes))
    seq = config.folded_shape(n_nodes)[0]
    infer_fwd = forward_flops_per_sample(config, n_nodes, seq, seq)
    total = 3 * train_fwd * n_train + infer_fwd * n_val
    return total / NOMINAL_FLOPS_PER_SECOND


def activation_words(config, n_nodes, batch):
    """8-byte words the graph of one training step over ``batch`` samples
    holds while its loss lives: the arrays its backward closures keep,
    parameters aside, counted from the geometry (R encoder slots). A
    boolean counts 1/8 word, and the loss itself 1."""
    tokens = sample_geometry(config, n_nodes)[0]
    fold_tokens, features, _ = config.folded_shape(n_nodes)
    w, f = config.width, config.ffn_dim
    r = batch * tokens
    # embedding input rows, tod and dow indices, concat offsets
    words = batch * fold_tokens * (features + 2) + M.TOKEN_PARTS[config.folding] + 1
    errors = included = batch * n_nodes * config.horizon  # loss error, include mask
    if config.folding == M.SF:
        words += 3 + batch * n_nodes * config.t_in  # transpose axes, sf.time input rows
    elif config.mask_strategy == "node_level":
        words += n_nodes + 2 * r  # node index, gather rows, live mask
        errors, included = r * config.horizon, r
    else:
        words += n_nodes + batch * n_nodes * w  # node index, keep mask
    # per layer: both layer norms' rows and 1/sigma and the FFN's
    # pre-activation (attention's backward rebuilds q, k^T, v, its
    # probabilities and the context, and the FFN's its GELU output and
    # derivative)
    words += config.layers * r * (2 * w + 2 + f)
    words += r * (w + 2 * f)  # head: input rows, GELU derivative, hidden rows
    return words + errors + included / 8 + 1


def bench(config, series, grid, epochs=3):
    """Resource report over a (mask_ratio, subgraph_size) grid.

    Each grid point trains ``epochs`` epochs on the series and reports the
    per-sample encoder token count (``sample_geometry``), parameter count,
    the activation words one step over the first ``batch_size`` training
    windows holds (``activation_words``), and the minimum measured epoch
    wall time.
    """
    n = series.node_count
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
        batch = min(cfg.batch_size, len(result.windows[0]))
        rows.append(
            [
                f"r{r}_s{s}",
                r,
                s,
                sample_geometry(cfg, n)[0],
                result.forecaster.params.param_count(),
                activation_words(cfg, n, batch),
                min(result.wall_seconds),
            ]
        )
    return rows

