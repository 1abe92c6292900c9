#!/usr/bin/env python3
"""From windows to encoder input: temporal folding, embedding fusion, and
the node-visibility mechanism (masking + subgraph sampling).

Run: python demos/03_tokens_and_visibility.py
"""
import numpy as np

from foldcast.data import apply_zscore, fit_normalizer, make_windows
from foldcast.synth import generate_series
from foldcast.tokenize import fuse_embeddings_batch
from foldcast.train import (
    Forecaster,
    TrainConfig,
    snapshot_token_count,
    tfg_token_count,
    visible_token_count,
)
from foldcast.visibility import PAD, apply_visibility_batch, gather_targets, plan_visibility


def main():
    print("-- token accounting: folding vs snapshot stacking --")
    for n, t in ((307, 24), (170, 48)):
        print(f"N={n:3d} T={t}: folded {tfg_token_count(n):4d} tokens "
              f"vs {snapshot_token_count(n, t):5d} stacked snapshot tokens")

    series = generate_series(n_nodes=10, days=10, frequency=24, noise=1.5, seed=1)
    normed = apply_zscore(series, fit_normalizer(series, 0.6))
    windows, _, _ = make_windows(normed, t_in=12, horizon=6)
    batch = windows[:2]

    # windows are stored node-major, so stacking them is temporal folding
    tokens = np.stack([w.input for w in batch])
    print(f"\ntemporal folding: {len(batch)} windows -> {tokens.shape} "
          f"(batch, one token per node, token length T)")
    print(f"spatial folding (ablation variant): {tokens.transpose(0, 2, 1).shape} "
          f"(batch, one token per time step, token length N)")

    cfg = TrainConfig(t_in=12, horizon=6, embed_dim=8, ffn_dim=16, heads=2)
    forecaster = Forecaster.build(cfg, series.node_count, series.frequency,
                                  np.random.default_rng(0))
    tod = np.array([w.tod_index for w in batch])
    dow = np.array([w.dow_index for w in batch])
    fused = fuse_embeddings_batch(tokens, forecaster.params.tensors, tod, dow)
    d = cfg.embed_dim
    print(f"fused tokens: {fused.shape} (= attribute | spatial | tod | dow slices of {d})")
    same_tod = np.all(fused.data[:, :, 2 * d : 3 * d] == fused.data[:, :1, 2 * d : 3 * d])
    print("tod/dow slices shared across a sample's nodes:", same_tod)

    print("\n-- node visibility --")
    rng = np.random.default_rng(7)
    plans = [plan_visibility(series.node_count, mask_ratio=0.3, subgraph_size=4, rng=rng)
             for _ in batch]
    plan = plans[0]
    print(f"N=10, r=0.3, s=4: sample 0 masks {plan.masked.tolist()}, pad {plan.pad_count}, "
          f"{plan.subgraph_count} subgraphs (a fresh plan per sample)")
    print("sample 0 slot layout (-1 = zero padding):")
    print(plan.slots)
    z0 = apply_visibility_batch(fused, plans)
    print("encoder input shape (batch * subgraphs, s, 4d):", z0.shape)
    pads = np.concatenate([p.slots.reshape(-1) == PAD for p in plans])
    pad_norms = np.linalg.norm(z0.data.reshape(-1, z0.shape[-1])[pads], axis=-1)
    print("pad-slot row norms:", pad_norms)

    targets = np.stack([w.target for w in batch])
    slot_targets, include = gather_targets(targets, plans)
    print(f"gather_targets: {slot_targets.shape} targets aligned with the slots; "
          f"{include.sum()} of {include.size} slots carry a node and enter the loss "
          f"(masked nodes and pads do not)")

    print("\n-- processed token count over the mask-ratio sweep --")
    for r in (0.0, 0.2, 0.5, 0.8, 0.9):
        print(f"r={r:0.1f}: {visible_token_count(307, r, 50):3d} tokens per sample (N=307, s=50)")


if __name__ == "__main__":
    main()
