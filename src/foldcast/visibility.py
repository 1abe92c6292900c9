"""Node visibility: node-level masking plus subgraph sampling.

Applied at training time only. A plan removes M = floor(r * N) randomly
chosen nodes, pads the survivors with p zero-attribute slots so they
divide evenly into K groups of s, and assigns survivors to groups
uniformly at random. The special case r=0 with s covering every node is a
pass-through: slot order equals node order, making train-mode and
inference-mode forwards bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

PAD = -1

STRATEGIES = ("node_level", "all_zero", "partial_zero", "random_value")


@dataclass
class VisibilityPlan:
    """One realized masking/partitioning draw.

    ``slots`` is (K x s) of original node ids with PAD (-1) marking
    zero-attribute padding; ``kept`` lists surviving ids in ascending
    order; ``masked`` the removed ids.
    """

    n_nodes: int
    mask_ratio: float
    subgraph_size: int
    kept: np.ndarray
    masked: np.ndarray
    slots: np.ndarray

    @property
    def pad_count(self):
        return int((self.slots == PAD).sum())

    @property
    def subgraph_count(self):
        return self.slots.shape[0]

    @property
    def visible_count(self):
        """Kept plus padding: (1-r)N + p processed token slots."""
        return self.slots.size


def geometry(n, r, s):
    """(m, p, K) for N = ``n`` nodes at mask ratio ``r`` in groups of ``s``:
    m = floor(rN) nodes masked, p pad slots so that the N - m survivors plus
    the pads fill exactly K groups of s. ``s`` may exceed N - m; it is not
    clamped."""
    m = int(np.floor(r * n))
    p = -(n - m) % s
    return m, p, (n - m + p) // s


def plan_visibility(n_nodes, mask_ratio, subgraph_size, rng):
    """Draw a fresh plan: uniform mask choice, uniform group assignment.

    With mask_ratio 0 and a subgraph covering all nodes the arrangement is
    the identity (no shuffle), so downstream computation matches an
    unmasked forward bitwise.
    """
    if not 0 <= mask_ratio < 1:
        raise ValueError(f"mask ratio must be in [0, 1), got {mask_ratio}")
    if subgraph_size < 1:
        raise ValueError(f"subgraph size must be >= 1, got {subgraph_size}")
    if subgraph_size > n_nodes:
        raise ValueError(
            f"subgraph size {subgraph_size} exceeds node count {n_nodes}"
        )
    s = subgraph_size
    m, p, k = geometry(n_nodes, mask_ratio, s)
    if m > 0:
        masked = np.sort(rng.choice(n_nodes, size=m, replace=False))
        kept = np.setdiff1d(np.arange(n_nodes), masked, assume_unique=True)
    else:
        masked = np.empty(0, dtype=np.int64)
        kept = np.arange(n_nodes)
    slotted = np.concatenate([kept, np.full(p, PAD, dtype=np.int64)])
    if not (m == 0 and s == n_nodes):
        slotted = rng.permutation(slotted)
    return VisibilityPlan(
        n_nodes=n_nodes,
        mask_ratio=mask_ratio,
        subgraph_size=s,
        kept=kept.astype(np.int64),
        masked=masked.astype(np.int64),
        slots=slotted.reshape(k, s),
    )


def _stacked_slots(plans, batch, n_nodes):
    """(rows, live), each (B, K, s), for one plan per batch element, each
    drawn for ``n_nodes`` nodes: ``rows`` indexes the (B*N)-row table of
    the batch's node rows, a pad slot pointing at row 0 of its sample, and
    ``live`` is False at pad slots."""
    if len(plans) != batch or any(p.n_nodes != n_nodes for p in plans):
        raise T.ShapeError(
            f"need one plan per sample ({batch}), each built for {n_nodes} "
            f"nodes; got {len(plans)} for {sorted({p.n_nodes for p in plans})}"
        )
    slots = np.stack([p.slots for p in plans])
    live = slots != PAD
    offsets = (np.arange(batch) * n_nodes)[:, None, None]
    return np.where(live, slots, 0) + offsets, live


def apply_visibility(fused, plan):
    """Single-sample apply_visibility_batch: (N x 4d) -> (K x s x 4d)."""
    return apply_visibility_batch(T.reshape(fused, (1,) + tuple(fused.shape)), [plan])


def apply_visibility_batch(fused, plans):
    """Batched gather: (B, N, 4d) tensor + B plans -> (B*K, s, 4d).

    Padding slots carry exact-zero rows; masked nodes do not appear. All
    plans must share (N, r, s) so K and s agree across the batch.
    """
    b, n, width = fused.shape
    rows, live = _stacked_slots(plans, b, n)
    _, k, s = rows.shape
    flat = T.reshape(fused, (b * n, width))
    gathered = T.mul(T.gather_rows(flat, rows), live.astype(np.float64)[..., None])
    return T.reshape(gathered, (b * k, s, width))


def perturb_masked_batch(fused, plans, strategy, embed_dim, rng):
    """Alternate masking strategies: keep every node row visible but
    perturb the masked rows' attribute-projection slice [0, d).

    all_zero zeroes the whole slice, partial_zero zeroes a random half of
    its entries, random_value replaces it with standard-normal draws.
    ``fused`` is (B, N, width) with one plan per batch element.
    """
    if strategy not in ("all_zero", "partial_zero", "random_value"):
        raise ValueError(f"unknown masking strategy {strategy!r}")
    keep = np.ones(fused.shape, dtype=np.float64)
    inject = np.zeros(fused.shape, dtype=np.float64)
    for i, plan in enumerate(plans):
        masked = plan.masked
        if not masked.size:
            continue
        if strategy == "all_zero":
            keep[i, masked, :embed_dim] = 0.0
        elif strategy == "partial_zero":
            hit = rng.random((masked.size, embed_dim)) < 0.5
            block = keep[i, masked, :embed_dim]
            block[hit] = 0.0
            keep[i, masked, :embed_dim] = block
        else:
            keep[i, masked, :embed_dim] = 0.0
            inject[i, masked, :embed_dim] = rng.standard_normal(
                (masked.size, embed_dim)
            )
    return T.add(T.mul(fused, keep), inject)


def gather_targets(targets, plans):
    """Targets and include mask aligned with apply_visibility_batch output.

    ``targets`` is (B, N, T'); returns ((B*K, s, T'), (B*K, s)) with pad
    slots zeroed and excluded.
    """
    b, n, horizon = targets.shape
    rows, live = _stacked_slots(plans, b, n)
    _, k, s = rows.shape
    include = live.reshape(b * k, s)
    out = targets.reshape(b * n, horizon)[rows].reshape(b * k, s, horizon)
    return out * include[..., None], include
