"""Desk-scale ablation direction checks.

The masking-strategy comparison reproduces the expected ordering on
synthetic data: removing nodes outright beats every visible-perturbation
variant, which suffer a train/test mismatch (perturbations are absent at
evaluation time). The folding comparison asserts structural and resource
contracts only; on periodic synthetic signals the spatial-folding variant
stays competitive in accuracy, so no direction is asserted there.
"""
from dataclasses import replace

import numpy as np
import pytest

from foldcast.synth import generate_series
from foldcast.train import TrainConfig, evaluate, train


@pytest.mark.slow
def test_node_level_masking_beats_perturbation_variants():
    series = generate_series(12, 14, 24, noise=2.0, seed=5)
    base = TrainConfig(
        t_in=12, horizon=6, embed_dim=8, ffn_dim=32, heads=2, layers=1,
        batch_size=16, lr=2e-3, milestones=(40,), patience=12,
        mask_ratio=0.5, subgraph_size=12, seed=2, max_epochs=50,
    )
    results = {}
    for strategy in ("node_level", "all_zero", "partial_zero", "random_value"):
        out = train(replace(base, mask_strategy=strategy), series)
        results[strategy] = evaluate(out.forecaster, out.windows[2], out.stats)
    node = results["node_level"]
    for strategy in ("all_zero", "partial_zero", "random_value"):
        other = results[strategy]
        assert node.rmse < other.rmse, (strategy, node, other)
        assert node.mae < other.mae, (strategy, node, other)
        assert node.mape < other.mape, (strategy, node, other)


@pytest.mark.slow
def test_folding_variants_structural_and_resource_contracts():
    series = generate_series(16, 10, 24, noise=1.5, seed=6)
    base = TrainConfig(
        t_in=12, horizon=6, embed_dim=8, ffn_dim=32, heads=2, layers=1,
        batch_size=16, lr=2e-3, mask_ratio=0.0, subgraph_size=16,
        seed=2, max_epochs=6, patience=10,
    )
    # two runs each, alternating TFG, SF, TFG, SF, so that one slow stretch
    # on the host cannot decide the wall-time comparison below
    tfg, sf, tfg_again, sf_again = (
        train(replace(base, folding=folding), series) for folding in ("TFG", "SF") * 2
    )

    # SF drops the per-node table and adds the time-axis output map
    assert "embed.s" in tfg.forecaster.params.manifest()
    assert "embed.s" not in sf.forecaster.params.manifest()
    assert "sf.time" in sf.forecaster.params.manifest()
    # token width 4d vs 3d
    assert tfg.forecaster.config.width == 32
    assert sf.forecaster.config.width == 24

    # SF processes T tokens per sample, TFG N; with T < N the measured
    # epoch cost follows
    tfg_tokens = tfg.log_rows[-1][7]
    sf_tokens = sf.log_rows[-1][7]
    assert sf_tokens < tfg_tokens
    fastest_sf = min(sf.wall_seconds + sf_again.wall_seconds)  # 12 epochs each
    assert fastest_sf < min(tfg.wall_seconds + tfg_again.wall_seconds)

    # both produce finite-quality forecasts on the same split
    m_tfg = evaluate(tfg.forecaster, tfg.windows[2], tfg.stats)
    m_sf = evaluate(sf.forecaster, sf.windows[2], sf.stats)
    for m in (m_tfg, m_sf):
        assert np.isfinite([m.rmse, m.mae, m.mape]).all()
