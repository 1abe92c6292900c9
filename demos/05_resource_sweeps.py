#!/usr/bin/env python3
"""Resource behavior of the visibility mechanism: per-epoch measured time,
token counts, and activation footprints over a mask-ratio grid, plus the
attention-pair complexity identity.

Run: python demos/05_resource_sweeps.py   (about a minute single-threaded)
"""
from foldcast.synth import generate_series
from foldcast.train import (
    BENCH_COLUMNS,
    TrainConfig,
    attention_pair_count,
    bench,
    format_rows,
    visible_token_count,
)


def main():
    print("-- attention-pair identity: K*s^2 == ((1-r)N + p) * s --")
    for n, r, s in ((307, 0.2, 50), (170, 0.2, 30), (323, 0.2, 50)):
        tokens = visible_token_count(n, r, s)
        pairs = attention_pair_count(n, r, s)
        print(f"N={n:3d} r={r} s={s}: {tokens:3d} tokens -> {pairs:6d} pairs "
              f"(identity holds: {pairs == tokens * s})")

    series = generate_series(n_nodes=20, days=10, frequency=24, noise=1.5, seed=11)
    cfg = TrainConfig(
        t_in=12, horizon=6, embed_dim=16, ffn_dim=64, heads=2, layers=1,
        batch_size=16, lr=1e-3, subgraph_size=4, seed=0,
    )
    print("\n-- bench over mask ratios (measured wall time, min of 3 epochs) --")
    rows = bench(cfg, series, [(r, 4) for r in (0.0, 0.2, 0.5, 0.8)], epochs=3)
    print(format_rows(BENCH_COLUMNS, rows), end="")

    tokens = [row[3] for row in rows]
    seconds = [row[6] for row in rows]
    print("\ntoken count non-increasing:", all(b <= a for a, b in zip(tokens, tokens[1:])))
    print("epoch seconds non-increasing:",
          all(b <= a * 1.05 for a, b in zip(seconds, seconds[1:])))


if __name__ == "__main__":
    main()
