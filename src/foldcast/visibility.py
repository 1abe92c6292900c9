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
from .tensor import Tensor

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
    m = int(np.floor(mask_ratio * n_nodes))
    if m > 0:
        masked = np.sort(rng.choice(n_nodes, size=m, replace=False))
        kept = np.setdiff1d(np.arange(n_nodes), masked, assume_unique=True)
    else:
        masked = np.empty(0, dtype=np.int64)
        kept = np.arange(n_nodes)
    n_rem = n_nodes - m
    s = subgraph_size
    p = (s - (n_rem % s)) % s
    k = (n_rem + p) // s
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


def apply_visibility(fused, plan):
    """Gather kept-node rows of an (N x 4d) tensor into (K x s x 4d) slots.

    Padding slots carry exact-zero rows; masked nodes do not appear.
    """
    if fused.shape[0] != plan.n_nodes:
        raise T.ShapeError(
            f"plan built for {plan.n_nodes} nodes, tensor has {fused.shape[0]} rows"
        )
    safe = np.where(plan.slots == PAD, 0, plan.slots)
    live = (plan.slots != PAD).astype(np.float64)[..., None]
    return T.mul(T.gather_rows(fused, safe), live)


def apply_visibility_batch(fused, plans):
    """Batched gather: (B, N, 4d) tensor + B plans -> (B*K, s, 4d).

    All plans must share (N, r, s) so K and s agree across the batch.
    """
    b, n, width = fused.shape
    k, s = plans[0].slots.shape
    slots = np.stack([p.slots for p in plans])  # (B, K, s)
    flat = T.reshape(fused, (b * n, width))
    offsets = (np.arange(b) * n)[:, None, None]
    safe = np.where(slots == PAD, 0, slots) + offsets
    live = (slots != PAD).astype(np.float64)[..., None]
    gathered = T.mul(T.gather_rows(flat, safe), live)
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


def perturb_masked(fused, plan, strategy, embed_dim, rng):
    """Single-element wrapper over perturb_masked_batch."""
    out = perturb_masked_batch(
        T.reshape(fused, (1,) + tuple(fused.shape)), [plan], strategy, embed_dim, rng
    )
    return T.reshape(out, fused.shape)


def masking_variant(fused, plan, strategy, embed_dim, rng):
    """Dispatch over masking strategies for the ablation harness.

    node_level removes rows (returning the ((1-r)N + p) x 4d slotted
    tokens); the alternates keep all N rows and perturb in place.
    """
    if strategy == "node_level":
        out = apply_visibility(fused, plan)
        k, s = plan.slots.shape
        return T.reshape(out, (k * s, fused.shape[-1]))
    return perturb_masked(fused, plan, strategy, embed_dim, rng)


def scatter_back(predictions, plan):
    """Route per-slot predictions to original node positions.

    Returns (N x T') values plus a boolean include mask; masked nodes and
    pad slots are excluded (their rows are zero and flagged False).
    """
    flat_slots = plan.slots.reshape(-1)
    pred = np.asarray(predictions.data if isinstance(predictions, Tensor) else predictions)
    pred = pred.reshape(flat_slots.size, -1)
    if pred.shape[0] != flat_slots.size:
        raise T.ShapeError(
            f"predictions cover {pred.shape[0]} slots, plan has {flat_slots.size}"
        )
    out = np.zeros((plan.n_nodes, pred.shape[1]))
    include = np.zeros(plan.n_nodes, dtype=bool)
    real = flat_slots != PAD
    out[flat_slots[real]] = pred[real]
    include[flat_slots[real]] = True
    return out, include


def gather_targets(targets, plans):
    """Targets and include mask aligned with apply_visibility_batch output.

    ``targets`` is (B, N, T'); returns ((B*K, s, T'), (B*K, s)) with pad
    slots zeroed and excluded.
    """
    b, n, horizon = targets.shape
    k, s = plans[0].slots.shape
    slots = np.stack([p.slots for p in plans])
    safe = np.where(slots == PAD, 0, slots)
    out = np.take_along_axis(
        targets[:, :, :], safe.reshape(b, k * s)[..., None], axis=1
    ).reshape(b * k, s, horizon)
    include = (slots != PAD).reshape(b * k, s)
    out = out * include[..., None]
    return out, include
