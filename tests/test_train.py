"""Training loop behavior: schedule, early stopping, convergence,
train/inference consistency, graph release, and resource accounting."""
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

import foldcast.tensor as T
import foldcast.visibility as V
from foldcast.data import (
    SampleWindow,
    TrafficSeries,
    apply_zscore,
    fit_normalizer,
    make_windows,
    stack_windows,
)
from foldcast.errors import DivergenceError
from foldcast.synth import generate_series
from foldcast.train import (
    TRAIN_LOG_COLUMNS,
    Forecaster,
    TrainConfig,
    activation_float_count,
    attention_pair_count,
    effective_subgraph_size,
    estimate_epoch_seconds,
    evaluate,
    format_rows,
    lr_at_epoch,
    sample_geometry,
    snapshot_token_count,
    tfg_token_count,
    train,
    training_forward,
    visible_token_count,
)

from graphwalk import base_array, retained_arrays, retained_words, step_peak

# the package re-exports the function ``train``, so the module is looked up
# by its full name
TRAIN_MODULE = importlib.import_module("foldcast.train")

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
        assert result.log_rows == []
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = tiny_config(lr=1e80, max_epochs=3)
        with pytest.raises(DivergenceError):
            train(cfg, sinusoid_series())

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
    def test_full_visibility_matches_inference_bitwise(self):
        rng = np.random.default_rng(0)
        series = sinusoid_series(seed=9)
        cfg = tiny_config(mask_ratio=0.0)
        stats = fit_normalizer(series, 0.6)
        windows, _, _ = make_windows(apply_zscore(series, stats), cfg.t_in, cfg.horizon)
        forecaster = Forecaster.build(cfg, series.node_count, series.frequency, rng)
        batch = windows[:4]
        inputs = np.stack([w.input for w in batch])
        tod = np.array([w.tod_index for w in batch])
        dow = np.array([w.dow_index for w in batch])

        fused = forecaster.fuse(inputs, tod, dow)
        n = series.node_count
        plans = [
            V.plan_visibility(n, 0.0, n, np.random.default_rng(k)) for k in range(4)
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

    def test_token_count_non_increasing_in_ratio(self):
        counts = [visible_token_count(20, r, 4) for r in (0.0, 0.2, 0.5, 0.8)]
        assert counts == [20, 16, 12, 4]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_estimate_non_increasing_in_ratio(self):
        series_n = 20
        estimates = []
        for r in (0.0, 0.2, 0.5, 0.8):
            cfg = tiny_config(mask_ratio=r)
            forecaster_dims = Forecaster.build(cfg, series_n, 24, np.random.default_rng(0)).dims
            estimates.append(estimate_epoch_seconds(forecaster_dims, cfg, 100, 30))
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


class TestActivationCount:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mask_ratio=0.2, subgraph_size=4),
            dict(mask_ratio=0.0, subgraph_size=10),
            dict(folding="SF", mask_ratio=0.2, subgraph_size=4),
            dict(mask_strategy="all_zero", mask_ratio=0.2, subgraph_size=10),
        ],
        ids=["tfg_r0.2", "tfg_r0_s=N", "sf", "tfg_all_zero"],
    )
    def test_matches_graph_walk(self, overrides):
        n, batch = 10, 4
        cfg = tiny_config(embed_dim=8, ffn_dim=16, batch_size=batch, **overrides)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        windows = random_windows(rng, n, cfg, batch)
        loss, _ = training_forward(forecaster, cfg, *stack_windows(windows), rng)
        walked = retained_words(loss, forecaster.params)
        measured = activation_float_count(forecaster, cfg, windows)
        assert abs(measured - walked) <= 0.1 * walked, (measured, walked)

    def test_callers_tracing_keeps_running(self):
        cfg = tiny_config(batch_size=4)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, 10, 24, rng)
        tracemalloc.start()
        try:
            kept = np.ones(1000)
            assert activation_float_count(forecaster, cfg, random_windows(rng, 10, cfg, 4)) > 0
            assert tracemalloc.is_tracing()
            # still the caller's session: what it traced before is still traced
            assert tracemalloc.get_object_traceback(kept) is not None
        finally:
            tracemalloc.stop()

    def test_bench_non_increasing_in_ratio(self):
        # the paper's resource trend: masking more nodes holds fewer activations
        cfg = tiny_config(batch_size=4)
        grid = [(r, 4) for r in (0.0, 0.2, 0.5)]
        rows = TRAIN_MODULE.bench(cfg, sinusoid_series(n_nodes=20), grid, epochs=1)
        words = [row[5] for row in rows]
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
            forecaster, cfg, inputs, targets, np.zeros(batch, int), np.zeros(batch, int), rng
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
        qkv_weights = {id(forecaster.params[f"enc.{i}.qkv"]) for i in range(cfg.layers)}
        # the projections whose outputs are GELU inputs
        gelu_weights = {id(forecaster.params[f"enc.{i}.ffn1"]) for i in range(cfg.layers)}
        gelu_weights.add(id(forecaster.params["head.0"]))
        buffers = {"qkv": [], "gelu_in": [], "residual": [], "fused": [], "gathered": []}

        def spy(op, kind, picks=lambda args: True):
            real = getattr(T, op)

            def recording(*args):
                out = real(*args)
                if picks(args):
                    buffers[kind].append(weakref.ref(base_array(out.data)))
                return out

            monkeypatch.setattr(T, op, recording)

        spy("linear", "qkv", lambda args: id(args[1]) in qkv_weights)
        spy("linear", "gelu_in", lambda args: id(args[1]) in gelu_weights)
        spy("add", "residual")  # node-level training adds only the residuals
        spy("concat_lastdim", "fused")
        param_ids = {id(t) for t in forecaster.params.tensors.values()}
        spy("gather_rows", "gathered", lambda args: id(args[0]) not in param_ids)
        inputs = rng.normal(size=(batch, n, cfg.t_in))
        targets = rng.normal(size=(batch, n, cfg.horizon))
        tod, dow = rng.integers(0, 24, batch), rng.integers(0, 7, batch)
        loss, _ = training_forward(forecaster, cfg, inputs, targets, tod, dow, rng)
        monkeypatch.undo()
        assert [len(refs) for refs in buffers.values()] == [2, 3, 4, 1, 1]
        alive = {kind: [i for i, ref in enumerate(refs) if ref() is not None]
                 for kind, refs in buffers.items()}
        # the last residual sum is the head's input, read by its weight gradient
        assert alive == {"qkv": [], "gelu_in": [], "residual": [3], "fused": [], "gathered": []}
        loss.backward()
        assert all(g is not None for g in forecaster.params.grads().values())

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


class TestStepPeak:
    def test_backward_excess_bounded(self):
        # What one forward plus backward allocates on top of the graph it
        # keeps, in (tokens x ffn) float64 arrays: 1.93 here and 1.89 at the
        # PEMS04 profile. It read 2.44 while GELU kept its input and cdf and
        # attention kept k and copied its gradient out of a head-major
        # block; undoing either one alone lifts it above 2.39.
        n, batch = 120, 8
        cfg = tiny_config(t_in=12, horizon=12, embed_dim=16, ffn_dim=256, heads=4,
                          batch_size=batch, subgraph_size=12)
        rng = np.random.default_rng(0)
        forecaster = Forecaster.build(cfg, n, 24, rng)
        inputs = rng.normal(size=(batch, n, cfg.t_in))
        targets = rng.normal(size=(batch, n, cfg.horizon))
        tod, dow = rng.integers(0, 24, batch), rng.integers(0, 7, batch)

        def forward():
            return training_forward(forecaster, cfg, inputs, targets, tod, dow, rng)[0]

        peak, graph = step_peak(forward, forecaster.params)
        unit = sample_geometry(forecaster.dims, cfg)[0] * batch * cfg.ffn_dim * 8
        assert peak - graph <= 2.2 * unit, (peak - graph) / unit
