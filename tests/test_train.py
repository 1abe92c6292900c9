"""Training loop behavior: schedule, early stopping, convergence,
train/inference consistency, graph release, and resource accounting."""
import dataclasses
import math
import weakref

import numpy as np
import pytest

import foldcast.tensor as T
import foldcast.train as TRAIN_MODULE
import foldcast.visibility as V
from foldcast.data import (
    SampleWindow,
    TrafficSeries,
    apply_zscore,
    fit_normalizer,
    make_windows,
    stack_windows,
)
from foldcast.errors import DataError, DivergenceError
from foldcast.synth import generate_series
from foldcast.train import (
    NOMINAL_FLOPS_PER_SECOND,
    TRAIN_LOG_COLUMNS,
    Forecaster,
    TrainConfig,
    activation_words,
    attention_pair_count,
    effective_subgraph_size,
    estimate_epoch_seconds,
    evaluate,
    format_rows,
    forward_flops_per_sample,
    lr_at_epoch,
    sample_geometry,
    snapshot_token_count,
    tfg_token_count,
    train,
    training_forward,
    visible_token_count,
)

from graphwalk import base_array, retained_arrays, retained_words, step_peak

MONDAY = 1609718400


def tiny_config(**kw):
    base = dict(
        t_in=6,
        horizon=3,
        embed_dim=4,
        ffn_dim=8,
        heads=2,
        layers=1,
        batch_size=8,
        lr=1e-3,
        milestones=(50,),
        patience=10,
        mask_ratio=0.2,
        subgraph_size=4,
        seed=1,
        max_epochs=5,
    )
    base.update(kw)
    return TrainConfig(**base)


def sinusoid_series(n_nodes=6, days=6, freq=24, seed=0):
    return generate_series(n_nodes, days, freq, noise=1.0, seed=seed)


class TestConfigChecksItself:
    # each bad value is rejected where the config is made, with no call to remember
    BAD = [
        ({"embed_dim": 2, "heads": 3}, r"heads \(3\) must divide the token width \(8\)"),
        ({"mask_ratio": 1.0}, "mask_ratio"),
        ({"lr": float("nan")}, "lr"),
    ]

    @pytest.mark.parametrize("bad, message", BAD, ids=["heads", "mask_ratio", "nan_lr"])
    def test_making_a_bad_config_raises(self, bad, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**bad)

    @pytest.mark.parametrize("bad, message", BAD, ids=["heads", "mask_ratio", "nan_lr"])
    def test_replacing_into_a_bad_config_raises(self, bad, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(tiny_config(), **bad)

    def test_fields_cannot_be_assigned(self):
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mask_ratio = 1.0
        assert cfg.mask_ratio == 0.2


class TestSchedule:
    def test_milestone_decay(self):
        cfg = tiny_config(lr=1e-4, milestones=(55,), decay=0.1)
        assert lr_at_epoch(cfg, 1) == 1e-4
        assert lr_at_epoch(cfg, 54) == 1e-4
        assert lr_at_epoch(cfg, 55) == pytest.approx(1e-5)
        assert lr_at_epoch(cfg, 120) == pytest.approx(1e-5)

    def test_multiple_milestones(self):
        cfg = tiny_config(lr=1.0, milestones=(2, 4), decay=0.5)
        assert [lr_at_epoch(cfg, e) for e in (1, 2, 3, 4, 5)] == [1.0, 0.5, 0.5, 0.25, 0.25]

    def test_logged_lr_follows_schedule(self):
        cfg = tiny_config(milestones=(2,), decay=0.1, max_epochs=3, patience=10)
        result = train(cfg, sinusoid_series())
        logged = [row[1] for row in result.log_rows]
        assert logged == [1e-3, pytest.approx(1e-4), pytest.approx(1e-4)]


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        cfg = tiny_config(max_epochs=0)
        series = sinusoid_series()
        result = train(cfg, series)
        assert result.log_rows == [] and result.wall_seconds == []
        assert (result.epochs_run, result.best_epoch) == (0, 0)
        assert math.isnan(result.best_val_mae)
        # rebuild with the same seed stream: identical arrays
        from foldcast.train import _rng_streams

        init_rng, _, _ = _rng_streams(cfg.seed)
        expected = Forecaster.build(cfg, series.node_count, series.frequency, init_rng)
        for name, t in expected.params.items():
            assert np.array_equal(result.forecaster.params[name].data, t.data), name

    def test_per_node_constant_signal_learned(self):
        # constant in time, distinct across nodes: bias + spatial embedding
        # suffice, so validation MAE collapses quickly; 14 days so every
        # day-of-week phase row gets trained before validation uses it
        values = np.tile(np.array([10.0, 20.0, 30.0, 40.0]), (24 * 14, 1))
        series = TrafficSeries(values, frequency=24, start=MONDAY)
        cfg = tiny_config(
            t_in=4, horizon=2, mask_ratio=0.0, subgraph_size=4, batch_size=16,
            lr=3e-3, max_epochs=50, patience=50, seed=0,
        )
        result = train(cfg, series)
        assert result.best_val_mae < 1e-2
        assert result.epochs_run <= 50

    def test_loss_halves_on_sinusoid(self):
        cfg = tiny_config(max_epochs=10, patience=20, embed_dim=8, ffn_dim=16)
        result = train(cfg, sinusoid_series(seed=3))
        losses = [row[2] for row in result.log_rows]
        assert losses[-1] < 0.5 * losses[0]

    def test_early_stop_returns_best_checkpoint(self):
        cfg = tiny_config(max_epochs=40, patience=3, lr=5e-3, seed=2)
        series = sinusoid_series(seed=4)
        result = train(cfg, series)
        val_maes = [row[4] for row in result.log_rows]
        assert result.best_val_mae == min(val_maes)
        # restored parameters reproduce the best epoch's validation MAE
        _, val_w, _ = result.windows
        again = evaluate(result.forecaster, val_w, result.stats)
        assert again.mae == pytest.approx(result.best_val_mae, abs=1e-12)

    def test_early_stop_triggers_before_max(self):
        cfg = tiny_config(max_epochs=60, patience=2, lr=1e-2, seed=5)
        result = train(cfg, sinusoid_series(seed=5))
        assert result.epochs_run < 60
        assert result.epochs_run == len(result.log_rows) == len(result.wall_seconds)
        assert result.epochs_run == result.best_epoch + cfg.patience

    @pytest.mark.parametrize(
        "split,scored", [((0.6, 0.2, 0.2), 2), ((0.8, 0.2, 0.0), 1), ((1.0, 0.0, 0.0), 0)]
    )
    def test_eval_windows_fall_back_to_val_then_train(self, split, scored):
        result = train(tiny_config(max_epochs=0, split=split), sinusoid_series())
        assert result.windows[scored]
        assert result.eval_windows is result.windows[scored]

    def test_record_holds_no_optimizer_state(self):
        # a caller may keep one result alive while the next run trains, so
        # Adam's moments, the RNGs and the best-parameter copy stay local
        result = train(tiny_config(max_epochs=2), sinusoid_series())
        assert set(vars(result)) == {
            "forecaster", "stats", "windows", "log_rows", "wall_seconds",
            "best_epoch", "best_val_mae",
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = tiny_config(lr=1e80, max_epochs=3)
        with pytest.raises(DivergenceError):
            train(cfg, sinusoid_series())

    def test_empty_training_split_is_a_data_error(self):
        series = generate_series(6, 3, 24, noise=1.0, seed=0)  # 72 rows, 7 train
        with pytest.raises(DataError, match="no training windows"):
            train(tiny_config(split=(0.1, 0.1, 0.8)), series)

    def test_same_seed_identical_logs(self):
        cfg = tiny_config(max_epochs=3)
        series = sinusoid_series(seed=6)
        a = format_rows(TRAIN_LOG_COLUMNS, train(cfg, series).log_rows)
        b = format_rows(TRAIN_LOG_COLUMNS, train(cfg, series).log_rows)
        assert a == b

    def test_different_seed_differs(self):
        series = sinusoid_series(seed=6)
        a = train(tiny_config(max_epochs=2, seed=1), series).log_rows
        b = train(tiny_config(max_epochs=2, seed=2), series).log_rows
        assert format_rows(TRAIN_LOG_COLUMNS, a) != format_rows(TRAIN_LOG_COLUMNS, b)

    def test_sf_mode_trains(self):
        cfg = tiny_config(folding="SF", embed_dim=4, heads=2, max_epochs=3)
        result = train(cfg, sinusoid_series(seed=7))
        assert result.epochs_run == 3
        losses = [row[2] for row in result.log_rows]
        assert losses[-1] < losses[0]

    def test_alternate_strategy_trains(self):
        cfg = tiny_config(mask_strategy="all_zero", max_epochs=2)
        result = train(cfg, sinusoid_series(seed=8))
        assert result.epochs_run == 2


class TestTrainInferenceConsistency:
    # the second size runs attention in 3 blocks of 7, 7 and 2 groups (each
    # group heads * N^2 = 36864 probabilities) and each GELU in full chunks
    # of 2**15 (16 * 96 * 256 elements), where the first runs attention in
    # one block and GELU in chunks of n // 8
    @pytest.mark.parametrize("n, batch_size, overrides", [
        (6, 4, {}),
        (96, 16, dict(embed_dim=16, heads=4, ffn_dim=256)),
    ], ids=["one_block", "three_blocks"])
    def test_full_visibility_matches_inference_bitwise(self, n, batch_size, overrides):
        rng = np.random.default_rng(0)
        series = sinusoid_series(n_nodes=n, seed=9)
        cfg = tiny_config(mask_ratio=0.0, **overrides)
        stats = fit_normalizer(series, 0.6)
        windows, _, _ = make_windows(apply_zscore(series, stats), cfg.t_in, cfg.horizon)
        forecaster = Forecaster.build(cfg, series.node_count, series.frequency, rng)
        batch = windows[:batch_size]
        inputs = np.stack([w.input for w in batch])
        tod = np.array([w.tod_index for w in batch])
        dow = np.array([w.dow_index for w in batch])

        fused = forecaster.fuse(inputs, tod, dow)
        plans = [
            V.plan_visibility(n, 0.0, n, np.random.default_rng(k)) for k in range(len(batch))
        ]
        z0 = V.apply_visibility_batch(fused, plans)
        train_mode = forecaster.encode_and_predict(z0).data

        inference = forecaster.forward_inference(inputs, tod, dow).data
        assert np.array_equal(train_mode.reshape(inference.shape), inference)

    def test_evaluate_deterministic(self):
        series = sinusoid_series(seed=10)
        cfg = tiny_config()
        stats = fit_normalizer(series, 0.6)
        _, val_w, _ = make_windows(apply_zscore(series, stats), cfg.t_in, cfg.horizon)
        forecaster = Forecaster.build(
            cfg, series.node_count, series.frequency, np.random.default_rng(1)
        )
        a = evaluate(forecaster, val_w, stats)
        b = evaluate(forecaster, val_w, stats)
        assert (a.rmse, a.mae, a.mape) == (b.rmse, b.mae, b.mape)


class TestAccounting:
    def test_folding_vs_snapshot_counts(self):
        assert tfg_token_count(307) == 307
        assert snapshot_token_count(307, 24) == 7368
        assert tfg_token_count(170) == 170
        assert snapshot_token_count(170, 48) == 8160

    def test_visible_count_and_pairs(self):
        assert visible_token_count(307, 0.2, 50) == 250
        assert attention_pair_count(307, 0.2, 50) == 5 * 50 * 50
        for n, r, s in ((307, 0.2, 50), (170, 0.2, 30), (20, 0.45, 4)):
            tokens = visible_token_count(n, r, s)
            assert attention_pair_count(n, r, s) == tokens * s

    @pytest.mark.parametrize("folding", ["TFG", "SF"])
    @pytest.mark.parametrize("strategy", V.STRATEGIES)
    @pytest.mark.parametrize("r", [0.0, 0.2, 0.8])
    def test_flops_match_grouped_formula(self, folding, strategy, r):
        cfg = tiny_config(folding=folding, mask_strategy=strategy, mask_ratio=r,
                          embed_dim=6, heads=2, layers=2)
        n, t, f, heads = 11, cfg.t_in, cfg.ffn_dim, cfg.heads
        w = cfg.width
        fuse_tokens, fuse_in, head_out = (n, t, cfg.horizon) if folding == "TFG" else (t, n, n)

        def oracle(tokens, groups, s):
            # the count written with the group number K of the visibility geometry
            per_layer = (tokens * w * 3 * w * 2
                         + groups * heads * s * s * (w // heads) * 2 * 2
                         + tokens * w * w * 2 + tokens * (w * f + f * w) * 2)
            return (fuse_tokens * fuse_in * cfg.embed_dim * 2 + cfg.layers * per_layer
                    + tokens * (w * f + f * head_out) * 2)

        if folding == "SF":
            groups, s = 1, t
        elif strategy != "node_level":
            groups, s = 1, n
        else:
            s = effective_subgraph_size(n, r, cfg.subgraph_size)
            groups = V.geometry(n, r, s)[2]
        assert sample_geometry(cfg, n) == (groups * s, s)
        assert forward_flops_per_sample(cfg, n, groups * s, s) == oracle(groups * s, groups, s)
        expected = (3 * oracle(groups * s, groups, s) * 40
                    + oracle(fuse_tokens, 1, fuse_tokens) * 9) / NOMINAL_FLOPS_PER_SECOND
        assert estimate_epoch_seconds(cfg, n, 40, 9) == expected

    def test_token_count_non_increasing_in_ratio(self):
        counts = [visible_token_count(20, r, 4) for r in (0.0, 0.2, 0.5, 0.8)]
        assert counts == [20, 16, 12, 4]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_estimate_non_increasing_in_ratio(self):
        series_n = 20
        estimates = []
        for r in (0.0, 0.2, 0.5, 0.8):
            estimates.append(estimate_epoch_seconds(tiny_config(mask_ratio=r), series_n, 100, 30))
        assert all(b <= a for a, b in zip(estimates, estimates[1:]))

    def test_effective_subgraph_clamps(self):
        assert effective_subgraph_size(20, 0.2, 50) == 16
        assert effective_subgraph_size(20, 0.0, 50) == 20
        assert effective_subgraph_size(307, 0.2, 50) == 50

    @pytest.mark.parametrize(
        "overrides,tokens",
        [
            (dict(), 16),  # (1-r)N visible slots, s clamped to the 16 survivors
            (dict(mask_strategy="all_zero"), 20),  # every node stays a token
            (dict(folding="SF"), 12),  # one token per input step
        ],
        ids=["node_level", "all_zero", "sf"],
    )
    def test_bench_tokens_match_processed(self, monkeypatch, overrides, tokens):
        results = []
        real_train = TRAIN_MODULE.train

        def spy(*args, **kwargs):
            results.append(real_train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(TRAIN_MODULE, "train", spy)
        cfg = tiny_config(t_in=12, **overrides)
        rows = TRAIN_MODULE.bench(cfg, sinusoid_series(n_nodes=20), [(0.2, 50)], epochs=1)
        (result,) = results
        assert rows[0][3] == tokens
        assert rows[0][3] * len(result.windows[0]) == result.log_rows[-1][7]


def random_windows(rng, n_nodes, cfg, count):
    """``count`` windows of standard-normal values at random phases."""
    return [
        SampleWindow(rng.normal(size=(n_nodes, cfg.t_in)), rng.normal(size=(n_nodes, cfg.horizon)),
                     cfg.t_in - 1, int(rng.integers(0, 24)), int(rng.integers(0, 7)))
        for _ in range(count)
    ]


# (id, N, batch, tiny_config overrides) for the activation count
COUNT_CASES = [
    ("tfg_r0.2", 10, 4, dict(mask_ratio=0.2, subgraph_size=4)),
    ("tfg_r0_s=N", 10, 4, dict(mask_ratio=0.0, subgraph_size=10)),
    ("sf", 10, 4, dict(folding="SF", mask_ratio=0.2, subgraph_size=4)),
    ("tfg_all_zero", 10, 4, dict(mask_strategy="all_zero", mask_ratio=0.2, subgraph_size=10)),
    ("short_batch", 10, 3, dict(mask_ratio=0.5, subgraph_size=3)),
    # 1536 slots: each GELU node runs chunked, attention walks 3 blocks
    ("chunked", 96, 16, dict(mask_ratio=0.0, subgraph_size=96, heads=4, ffn_dim=128, layers=2)),
] + [
    (f"{folding}_{strategy}_{layers}_layers", 10, 4,
     dict(folding=folding, mask_strategy=strategy, layers=layers, mask_ratio=0.3, subgraph_size=3))
    for folding in ("TFG", "SF") for strategy in V.STRATEGIES for layers in (0, 1, 2)
]


class TestActivationCount:
    @pytest.mark.parametrize("n, batch, overrides", [c[1:] for c in COUNT_CASES],
                             ids=[c[0] for c in COUNT_CASES])
    def test_matches_graph_walk(self, n, batch, overrides):
        # the closed form against a walk of a real step's graph, plus the loss scalar
        cfg = tiny_config(**{"embed_dim": 8, "ffn_dim": 16, "batch_size": 4, **overrides})
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        windows = random_windows(rng, n, cfg, batch)
        loss, _ = training_forward(forecaster, *stack_windows(windows), rng)
        assert activation_words(cfg, n, batch) == retained_words(loss, forecaster.params) + 1

    def test_bench_non_increasing_in_ratio(self):
        # the paper's resource trend: masking more nodes holds fewer activations
        cfg = tiny_config(batch_size=4)
        grid = [(r, 4) for r in (0.0, 0.2, 0.5)]
        rows = TRAIN_MODULE.bench(cfg, sinusoid_series(n_nodes=20), grid, epochs=1)
        words = [row[5] for row in rows]
        assert all(type(w) is float for w in words)  # the CSV prints 245186.0, not 245186
        assert all(b <= a for a, b in zip(words, words[1:])), words
        assert words[-1] < words[0], words

    def test_sf_graph_keeps_one_input_copy(self):
        n, batch = 10, 4
        cfg = tiny_config(folding="SF", embed_dim=8, ffn_dim=16, batch_size=batch)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        inputs = rng.normal(size=(batch, n, cfg.t_in))
        targets = rng.normal(size=(batch, n, cfg.horizon))
        loss, _ = training_forward(
            forecaster, inputs, targets, np.zeros(batch, int), np.zeros(batch, int), rng
        )
        sf_tokens = inputs.transpose(0, 2, 1)
        copies = [a for a in retained_arrays(loss, forecaster.params)
                  if a.shape == sf_tokens.shape and np.array_equal(a, sf_tokens)]
        assert len(copies) == 1


def requires_grad_flags(forecaster):
    return {name: t.requires_grad for name, t in forecaster.params.items()}


class TestGraphRelease:
    def _evaluation_setup(self):
        series = sinusoid_series(seed=10)
        cfg = tiny_config()
        stats = fit_normalizer(series, 0.6)
        _, val_w, _ = make_windows(apply_zscore(series, stats), cfg.t_in, cfg.horizon)
        forecaster = Forecaster.build(
            cfg, series.node_count, series.frequency, np.random.default_rng(1)
        )
        forecaster.params["embed.dow"].requires_grad = False  # a frozen parameter
        return forecaster, val_w, stats

    def test_evaluate_records_no_tape(self, monkeypatch):
        forecaster, val_w, stats = self._evaluation_setup()
        before = requires_grad_flags(forecaster)
        outputs = []
        real = Forecaster.forward_inference

        def spy(model, *args):
            out = real(model, *args)
            outputs.append(out)
            return out

        monkeypatch.setattr(Forecaster, "forward_inference", spy)
        evaluate(forecaster, val_w, stats, batch_size=len(val_w))
        monkeypatch.undo()
        assert len(outputs) == 1
        assert not outputs[0].requires_grad
        assert outputs[0]._node is None  # no tape node recorded
        assert requires_grad_flags(forecaster) == before
        # the tape-free forward gives the same bits as a taped one
        inputs = np.stack([w.input for w in val_w])
        tod = np.array([w.tod_index for w in val_w])
        dow = np.array([w.dow_index for w in val_w])
        taped = forecaster.forward_inference(inputs, tod, dow)
        assert taped.requires_grad
        assert np.array_equal(taped.data, outputs[0].data)

    def test_flags_restored_when_forward_raises(self, monkeypatch):
        forecaster, val_w, stats = self._evaluation_setup()
        before = requires_grad_flags(forecaster)
        seen = []
        real = Forecaster.forward_inference

        def failing(model, *args):
            real(model, *args)
            seen.append(requires_grad_flags(model))
            raise RuntimeError("forward failed")

        monkeypatch.setattr(Forecaster, "forward_inference", failing)
        with pytest.raises(RuntimeError, match="forward failed"):
            evaluate(forecaster, val_w, stats)
        assert seen and not any(seen[0].values())
        assert requires_grad_flags(forecaster) == before

    def test_forward_frees_outputs_no_backward_reads(self, monkeypatch):
        n, batch = 10, 4
        cfg = tiny_config(layers=2, embed_dim=8, ffn_dim=16, batch_size=batch, subgraph_size=4)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        # the projections GELU follows
        gelu_weights = {id(forecaster.params[f"enc.{i}.ffn1"]) for i in range(cfg.layers)}
        gelu_weights.add(id(forecaster.params["head.0"]))
        buffers = {"attn": [], "heads": [], "preact": [], "ffn": [], "gelu_out": [],
                   "residual": [], "fused": [], "gathered": [], "ln_out": []}

        def spy(op, kind, picks=lambda args: True):
            real = getattr(T, op)

            def recording(*args):
                out = real(*args)
                if picks(args):
                    buffers[kind].append(weakref.ref(base_array(out.data)))
                return out

            monkeypatch.setattr(T, op, recording)

        spy("norm_attention", "attn")
        spy("linear", "preact", lambda args: id(args[1]) in gelu_weights)
        spy("norm_ffn", "ffn")
        spy("linear_gelu", "gelu_out")
        spy("layer_norm", "ln_out")
        spy("add", "residual")  # none: each sublayer node adds its own residual
        spy("concat_lastdim", "fused")
        param_ids = {id(t) for t in forecaster.params.tensors.values()}
        spy("gather_rows", "gathered", lambda args: id(args[0]) not in param_ids)
        gelu_passes = []  # (written over its input, the buffer written)
        real_gelu_into = T._gelu_into

        def gelu_into(x, out, deriv):
            gelu_passes.append((x is out, weakref.ref(base_array(out))))
            real_gelu_into(x, out, deriv)

        monkeypatch.setattr(T, "_gelu_into", gelu_into)
        real_scale_shift = T._ln_scale_shift

        def scale_shift(*args, **kwargs):  # a fused node's layer-norm output
            out = real_scale_shift(*args, **kwargs)
            buffers["ln_out"].append(weakref.ref(base_array(out)))
            return out

        monkeypatch.setattr(T, "_ln_scale_shift", scale_shift)
        real_heads = T._attention_heads

        def attention_heads(*args):  # a fused node's q, k^T and v
            out = real_heads(*args)
            buffers["heads"].extend(weakref.ref(base_array(a)) for a in out)
            return out

        monkeypatch.setattr(T, "_attention_heads", attention_heads)
        inputs = rng.normal(size=(batch, n, cfg.t_in))
        targets = rng.normal(size=(batch, n, cfg.horizon))
        tod, dow = rng.integers(0, 24, batch), rng.integers(0, 7, batch)
        loss, _ = training_forward(forecaster, inputs, targets, tod, dow, rng)
        monkeypatch.undo()
        assert [len(refs) for refs in buffers.values()] == [2, 6, 0, 2, 1, 0, 1, 1, 4]
        # each encoder FFN wrote GELU beside its pre-activation, which its
        # backward reads; the head wrote over its GEMM's output, the buffer
        # the fused node returns, so no pre-activation of its own existed
        assert [in_place for in_place, _ in gelu_passes] == [False, False, True]
        head_pass = gelu_passes[-1][1]
        assert head_pass() is not None and head_pass() is buffers["gelu_out"][0]()
        # the encoder's GELU outputs are gone: its backward rebuilds them
        assert [written() for _, written in gelu_passes[:-1]] == [None, None]
        alive = {kind: [i for i, ref in enumerate(refs) if ref() is not None]
                 for kind, refs in buffers.items()}
        # the last FFN's output, its residual included, is the head's
        # input, read by its weight gradient; the head's GELU output is the
        # input of its second projection; a layer norm's output is rebuilt
        # from its normalized rows, and attention's q, k^T and v from that,
        # not kept
        assert alive == {"attn": [], "heads": [], "preact": [], "ffn": [1], "gelu_out": [0],
                         "residual": [], "fused": [], "gathered": [], "ln_out": []}
        loss.backward()
        assert all(g is not None for g in forecaster.params.grads().values())

    @pytest.mark.parametrize("strategy", ["node_level", "all_zero"])
    def test_fused_tokens_are_gone_by_the_loss(self, monkeypatch, strategy):
        # nothing reads the full-graph tokens past visibility, so they do
        # not sit on top of the forward's peak
        n, batch = 10, 4
        cfg = tiny_config(embed_dim=8, ffn_dim=16, batch_size=batch, subgraph_size=4,
                          mask_strategy=strategy)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        fused, alive_at_loss = [], []
        real_concat, real_huber = T.concat_lastdim, T.huber_loss

        def concat(parts):
            out = real_concat(parts)
            fused.append(weakref.ref(base_array(out.data)))
            return out

        def huber(*args):
            alive_at_loss.append([ref() is not None for ref in fused])
            return real_huber(*args)

        monkeypatch.setattr(T, "concat_lastdim", concat)
        monkeypatch.setattr(T, "huber_loss", huber)
        training_forward(forecaster, *stack_windows(random_windows(rng, n, cfg, batch)), rng)
        assert alive_at_loss == [[False]]

    def test_train_releases_each_step_graph(self, monkeypatch):
        refs = []
        validations = []
        real_forward = TRAIN_MODULE.training_forward
        real_evaluate = TRAIN_MODULE.evaluate

        def assert_released(where):
            alive = [i for i, ref in enumerate(refs) if ref() is not None]
            assert not alive, f"graphs of steps {alive} alive at {where}"

        def forward(*args, **kwargs):
            assert_released(f"step {len(refs)}")
            loss, tokens = real_forward(*args, **kwargs)
            refs.append(weakref.ref(loss.data))
            return loss, tokens

        def validate(*args, **kwargs):
            assert_released(f"validation {len(validations)}")
            validations.append(len(refs))
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(TRAIN_MODULE, "training_forward", forward)
        monkeypatch.setattr(TRAIN_MODULE, "evaluate", validate)
        result = train(tiny_config(max_epochs=2, patience=5), sinusoid_series(seed=11))
        assert result.epochs_run == 2
        assert len(validations) == 2
        assert validations[0] > 1  # several steps per epoch

    def test_no_gradient_outlives_its_adam_step(self, monkeypatch):
        # each step's gradients go once Adam has read them, so none sits
        # under the next forward, a validation pass or the returned model
        held = {"forward": [], "validation": []}
        real_forward = TRAIN_MODULE.training_forward
        real_evaluate = TRAIN_MODULE.evaluate

        def forward(forecaster, *args, **kwargs):
            held["forward"].append(forecaster.params.grads())
            return real_forward(forecaster, *args, **kwargs)

        def validate(forecaster, *args, **kwargs):
            held["validation"].append(forecaster.params.grads())
            return real_evaluate(forecaster, *args, **kwargs)

        monkeypatch.setattr(TRAIN_MODULE, "training_forward", forward)
        monkeypatch.setattr(TRAIN_MODULE, "evaluate", validate)
        result = train(tiny_config(max_epochs=2, patience=5), sinusoid_series(seed=11))
        assert len(held["forward"]) > 2 and len(held["validation"]) == 2
        assert all(grads == {} for grads in held["forward"] + held["validation"])
        assert result.forecaster.params.grads() == {}


class TestReleasedBackward:
    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(mask_strategy="all_zero", subgraph_size=10), dict(folding="SF")],
        ids=["node_level", "all_zero", "sf"],
    )
    def test_released_graph_keeps_nothing_and_refuses_a_second_walk(self, overrides):
        n, batch = 10, 4
        cfg = tiny_config(layers=2, embed_dim=8, ffn_dim=16, batch_size=batch, **overrides)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        loss, _ = training_forward(
            forecaster, *stack_windows(random_windows(rng, n, cfg, batch)), rng
        )
        assert retained_arrays(loss, forecaster.params)
        loss.backward()
        assert forecaster.params.grads().keys() == dict(forecaster.params.items()).keys()
        assert retained_arrays(loss, forecaster.params) == []
        grads = {name: g.copy() for name, g in forecaster.params.grads().items()}
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        for name, g in forecaster.params.grads().items():
            assert g.tobytes() == grads[name].tobytes(), name


# the configurations a training run drives the encoder under
RUN_CASES = {
    "node_level": {},
    "sf": dict(folding="SF"),
    "all_zero": dict(mask_strategy="all_zero"),
    "two_layers": dict(layers=2),
}


class TestFusedNodeTraffic:
    """``norm_attention`` and ``norm_ffn`` tape per call, not per operand,
    which holds only while every call passes 7 operands that need a
    gradient (training) or none (``evaluate``): a caller that freezes a
    subset fails here."""

    @pytest.mark.parametrize("overrides", RUN_CASES.values(), ids=RUN_CASES)
    def test_every_call_needs_all_gradients_or_none(self, monkeypatch, overrides):
        seen = {"norm_attention": [], "norm_ffn": []}
        for name, counts in seen.items():

            def counting(*args, real=getattr(T, name), counts=counts):
                counts.append(sum(T._grad_node(T._as_tensor(a)) is not None for a in args[:7]))
                return real(*args)

            monkeypatch.setattr(T, name, counting)
        cfg = tiny_config(max_epochs=1, **overrides)
        series = sinusoid_series(seed=12)
        result = train(cfg, series)
        stats, (_, _, test_w) = TRAIN_MODULE.normalized_windows(cfg, series)
        evaluate(result.forecaster, test_w, stats)
        for name, counts in seen.items():
            assert set(counts) == {0, 7}, (name, sorted(set(counts)))


class TestImmutability:
    """No op writes into an array it does not own: with every parameter,
    the stacked batch and the window views read-only, a training step's
    forward and backward and an ``evaluate`` run through."""

    @pytest.mark.parametrize("overrides", RUN_CASES.values(), ids=RUN_CASES)
    def test_step_and_evaluate_write_into_no_operand(self, overrides):
        cfg = tiny_config(**overrides)
        series = sinusoid_series(seed=13)
        stats, (train_w, val_w, _) = TRAIN_MODULE.normalized_windows(cfg, series)
        forecaster = Forecaster.build(
            cfg, series.node_count, series.frequency, np.random.default_rng(0)
        )
        for w in train_w + val_w:
            w.input.flags.writeable = w.target.flags.writeable = False
        for _, t in forecaster.params.items():
            t.data.flags.writeable = False
        arrays = stack_windows(train_w[: cfg.batch_size])
        for a in arrays:
            a.flags.writeable = False
        loss, _ = training_forward(forecaster, *arrays, np.random.default_rng(1))
        loss.backward()
        assert forecaster.params.grads().keys() == dict(forecaster.params.items()).keys()
        evaluate(forecaster, val_w, stats)


class TestDirectionalDerivative:
    """The whole training loss's gradient, every fused and blocked backward
    composed, against a central difference along one random direction
    over every parameter (``gradcheck``'s fast mode)."""

    # (N, batch, overrides), each at 2 layers, ffn 256 and 4 heads: tokens
    # x ffn >= 2**17, so each GELU runs in chunks of 2**14 or more, and
    # attention walks 2 or more blocks of groups
    CASES = {
        "node_level": (256, 5, dict(mask_ratio=0.5, subgraph_size=128)),
        "all_zero": (256, 3, dict(mask_strategy="all_zero", subgraph_size=256)),
        "sf": (64, 17, dict(folding="SF", t_in=64)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_central_difference(self, case):
        n, batch, overrides = self.CASES[case]
        cfg = tiny_config(**{"t_in": 12, "embed_dim": 16, "ffn_dim": 256, "heads": 4,
                             "layers": 2, "batch_size": batch, **overrides})
        tokens, s = sample_geometry(cfg, n)
        assert batch * tokens * cfg.ffn_dim >= 2**17
        assert batch * tokens // s > T._ATTENTION_BLOCK_FLOATS // (cfg.heads * s * s)
        rng = np.random.default_rng(3)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        arrays = stack_windows(random_windows(rng, n, cfg, batch))
        params = dict(forecaster.params.items())
        direction = {name: rng.standard_normal(t.shape) for name, t in params.items()}

        def loss():
            # a fresh generator each time, so every evaluation draws the same plans
            return training_forward(forecaster, *arrays, np.random.default_rng(4))[0]

        loss().backward()
        grads = forecaster.params.grads()
        assert grads.keys() == params.keys()
        analytic = sum(float((grads[name] * v).sum()) for name, v in direction.items())
        base = forecaster.params.clone_data()
        eps = 1e-6
        values = []
        with forecaster.params.no_grad():
            for sign in (1.0, -1.0):
                for name, t in params.items():
                    t.data = base[name] + sign * eps * direction[name]
                values.append(loss().item())
        central = (values[0] - values[1]) / (2 * eps)
        assert abs(analytic - central) <= 1e-6 * abs(central), (analytic, central)


class TestStepPeak:
    @staticmethod
    def step_excess(n, batch, **overrides):
        """What one forward and its released backward each allocate on top
        of the graph the forward keeps, in (tokens x ffn) float64 arrays:
        (forward, backward)."""
        cfg = tiny_config(t_in=12, horizon=12, embed_dim=16, ffn_dim=256, heads=4,
                          batch_size=batch, subgraph_size=12, **overrides)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        inputs = rng.normal(size=(batch, n, cfg.t_in))
        targets = rng.normal(size=(batch, n, cfg.horizon))
        tod, dow = rng.integers(0, 24, batch), rng.integers(0, 7, batch)

        def forward():
            return training_forward(forecaster, inputs, targets, tod, dow, rng)[0]

        forward_peak, backward_peak, graph = step_peak(forward, forecaster.params)
        tokens, _ = sample_geometry(cfg, n)
        unit = tokens * batch * cfg.ffn_dim * 8
        return (forward_peak - graph) / unit, (backward_peak - graph) / unit

    def test_backward_excess_bounded(self):
        # 0.75 here, now the forward's peak, over a graph of 3.88 units;
        # 0.75 too over the graphs that kept attention's q, k^T, v and wo's
        # input (4.88), GELU's output (5.88), attention's probabilities
        # (6.07) and each layer norm's output (6.57). It read 1.93 (1.89 at
        # the PEMS04 profile) at the end of a backward that kept the whole
        # graph, and 2.44 while GELU also kept its input and cdf and
        # attention kept k and copied its gradient out of a head-major block.
        excess = max(self.step_excess(120, 8))
        assert excess <= 2.2, excess

    def test_all_zero_backward_excess_bounded(self):
        # Each sample is one group of all 120 nodes, 4 of them to an
        # attention block. The backward's dp and (dp * p) temporaries are
        # one block each: 2.27 here on top of the whole graph, 5.09 over all
        # 16 groups at once. With the graph released as the walk goes, 0.46:
        # the forward's peak, over the graph with or without the layer
        # norms' outputs (8.49 and 7.99 units), without attention's
        # probabilities (6.12), without GELU's output (5.12) and without
        # attention's q, k^T, v and wo's input (4.12). The backward reads
        # 0.17 over that last graph, 0.42 while each residual was an ``add``
        # that copied its gradient, 0.10 before attention's backward rebuilt
        # q, k^T, v and the context beside their gradients.
        excess = max(self.step_excess(120, 16, mask_strategy="all_zero"))
        assert excess <= 2.6, excess

    @pytest.mark.parametrize("strategy, batch, layers",
                             [("node_level", 8, 1), ("all_zero", 16, 1), ("node_level", 8, 2)],
                             ids=["node_level-8", "all_zero-16", "node_level-8-two_layers"])
    def test_released_backward_stays_under_the_forward_peak(self, strategy, batch, layers):
        # The released backward reads 0.09 here (node_level) and 0.17
        # (all_zero, whose attention backward rebuilds q, k^T, v and the
        # context of all 16 whole-graph groups beside their gradients; 0.42
        # while each residual ``add`` copied its gradient): each closure's
        # arrays go as it runs. The forward reads 0.75 (node_level)
        # and 0.46 (all_zero): in-place GELU's scratch is at most half an
        # array, the rest the step's inputs. A fused layer norm's output is
        # scratch too, a quarter of a unit here, freed before GELU's. The
        # full-graph fused tokens, kept through the encoder, lifted them to
        # 1.06 and 0.71; with GELU taking a separate GEMM output as well, to
        # 1.94 and 1.63. With two layers the node_level step reads 0.75 and
        # 0.10 too: each FFN's rebuilt GELU output and derivative go before
        # the walk reaches the layer below.
        forward, backward = self.step_excess(120, batch, mask_strategy=strategy, layers=layers)
        assert backward <= forward, (forward, backward)
        assert forward < {"node_level": 0.9, "all_zero": 0.6}[strategy], forward
