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

import numpy as np

from . import tensor as T
from .errors import CheckpointError
from .fileio import atomic_open

# (CSV table name, parameter name) of each exported lookup table, in
# export order; spatial folding has no spatial table
TABLES = (("spatial", "embed.s"), ("tod", "embed.tod"), ("dow", "embed.dow"))


def fuse_embeddings_batch(tokens, params, tod_indices, dow_indices):
    """Batched fusion: (B, L, F) folded tokens -> (B, L, width) tensor.

    ``params`` maps parameter name -> Tensor: the attribute projection
    ``embed.wx`` (F x d) with bias ``embed.wx_b`` (d,), the spatial table
    ``embed.s`` (N x d), ``embed.tod`` (frequency x d) and ``embed.dow``
    (7 x d). The projection output, the per-token spatial row, and the
    sample's tod/dow rows (broadcast to all L tokens) are concatenated in
    that order, so the last two d-wide slices are constant across a
    sample's tokens. Under temporal folding the L tokens are the N nodes;
    under spatial folding (no ``embed.s``) they are the T steps, each
    mixing every node, so there is no spatial row and tokens are 3d wide.
    """
    b, n, _ = tokens.shape
    tod, dow = params["embed.tod"], params["embed.dow"]
    tod_indices = np.asarray(tod_indices)
    dow_indices = np.asarray(dow_indices)
    parts = [T.linear(tokens, params["embed.wx"], params["embed.wx_b"])]
    if "embed.s" in params:
        parts.append(T.gather_rows(params["embed.s"], np.broadcast_to(np.arange(n), (b, n))))
    parts.append(T.gather_rows(tod, np.repeat(tod_indices[:, None], n, axis=1)))
    parts.append(T.gather_rows(dow, np.repeat(dow_indices[:, None], n, axis=1)))
    return T.concat_lastdim(parts)


def export_embeddings(blobs, path):
    """Write a checkpoint's spatial/tod/dow tables (``blobs``: parameter
    name -> array) as CSV for offline projection (e.g. t-SNE): header
    ``table,index,dim0..dim{d-1}``, d the width of ``embed.wx``, then one
    row per entry. SF checkpoints have no spatial table.

    Raises ``CheckpointError`` naming the first bad table, before the file
    is opened, unless ``embed.wx``, ``embed.tod`` and ``embed.dow`` are
    present and every table present is 2-D and as wide as ``embed.wx``.
    """
    for key in ("embed.wx",) + tuple(key for _, key in TABLES):  # the width to match first
        table = blobs.get(key)
        if table is None and key == "embed.s":
            continue
        if table is None or table.ndim != 2 or table.shape[1] != blobs["embed.wx"].shape[1]:
            raise CheckpointError(f"{key} must be a 2-D table as wide as embed.wx")
    d = blobs["embed.wx"].shape[1]
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "index"] + [f"dim{i}" for i in range(d)])
        for name, key in TABLES:
            for idx, row in enumerate(blobs.get(key, ())):
                writer.writerow([name, idx] + [repr(float(v)) for v in row])
