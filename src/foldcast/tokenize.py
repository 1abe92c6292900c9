"""Token construction: temporal folding plus embedding fusion.

Temporal folding turns one sample window into one token per node by
collapsing the node's T input steps into a single attribute vector; the
spatial alternative (one token per time step, carrying all N node values)
exists for the folding ablation. Windows are stored node-major, so a
batch of windows already is a (B, N, T) batch of temporally folded
tokens and its (B, T, N) transpose the spatially folded ones. Fusion
projects the folded attributes and concatenates the projection with
spatial, time-of-day, and day-of-week embeddings into a 4d-wide token.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .fileio import atomic_open
from .tensor import Tensor


@dataclass
class EmbeddingTables:
    """Learnable lookup tables and the attribute projection.

    wx: (T x d) projection with bias (d,); spatial: (N x d);
    tod: (frequency x d); dow: (7 x d).
    """

    wx: Tensor
    wx_b: Tensor
    spatial: Tensor | None  # absent in spatial-folding mode
    tod: Tensor
    dow: Tensor


def fuse_embeddings_batch(tokens, tables, tod_indices, dow_indices):
    """Batched fusion: (B, L, F) folded tokens -> (B, L, width) tensor.

    The projection output, the per-token spatial row, and the sample's
    tod/dow rows (broadcast to all L tokens) are concatenated in that
    order, so the last two d-wide slices are constant across a sample's
    tokens. Under temporal folding the L tokens are the N nodes; under
    spatial folding (``tables.spatial`` is None) they are the T steps,
    each mixing every node, so there is no spatial row and tokens are 3d
    wide.
    """
    b, n, _ = tokens.shape
    freq = tables.tod.shape[0]
    tod_indices = np.asarray(tod_indices)
    dow_indices = np.asarray(dow_indices)
    if tod_indices.min() < 0 or tod_indices.max() >= freq:
        raise IndexError(f"tod index out of range [0, {freq})")
    if dow_indices.min() < 0 or dow_indices.max() >= 7:
        raise IndexError("dow index out of range [0, 7)")
    parts = [T.linear(tokens, tables.wx, tables.wx_b)]
    if tables.spatial is not None:
        parts.append(T.gather_rows(tables.spatial, np.broadcast_to(np.arange(n), (b, n))))
    parts.append(T.gather_rows(tables.tod, np.repeat(tod_indices[:, None], n, axis=1)))
    parts.append(T.gather_rows(tables.dow, np.repeat(dow_indices[:, None], n, axis=1)))
    return T.concat_lastdim(parts)


def export_embeddings(blobs, path):
    """Write a checkpoint's spatial/tod/dow tables (``blobs``: parameter
    name -> array) as CSV for offline projection (e.g. t-SNE): header
    ``table,index,dim0..dim{d-1}``, d the width of ``embed.wx``, then one
    row per entry. SF checkpoints have no spatial table."""
    d = blobs["embed.wx"].shape[1]
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "index"] + [f"dim{i}" for i in range(d)])
        for name, key in (("spatial", "embed.s"), ("tod", "embed.tod"), ("dow", "embed.dow")):
            for idx, row in enumerate(blobs.get(key, ())):
                writer.writerow([name, idx] + [repr(float(v)) for v in row])
