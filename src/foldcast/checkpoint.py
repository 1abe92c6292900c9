"""Checkpoint serialization.

Layout: one version byte, then a manifest (entry count, and per entry the
name, rank, and dimensions), then the raw little-endian float64 arrays in
manifest order. The file is written beside its final path and renamed
into place, so an interrupted save leaves the previous checkpoint intact.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_open

VERSION = 1


def save_checkpoint(params, path):
    with atomic_open(path, "wb") as fh:
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, t in params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                fh.write(struct.pack("<Q", dim))
        for _, t in params.items():
            fh.write(t.data.astype("<f8").tobytes())


def read_checkpoint(path):
    """Return (manifest, blobs): ordered name -> shape and name -> array."""

    def need(fh, count, what):
        buf = fh.read(count)
        if len(buf) != count:
            raise CheckpointError(f"{path}: truncated {what}")
        return buf

    with open(path, "rb") as fh:
        version = need(fh, 1, "version byte")[0]
        if version != VERSION:
            raise CheckpointError(
                f"{path}: bad magic: version byte {version}, expected {VERSION}"
            )
        (count,) = struct.unpack("<I", need(fh, 4, "manifest"))
        manifest = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", need(fh, 2, "manifest"))
            try:
                name = need(fh, name_len, "manifest").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: parameter name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", need(fh, 1, "manifest"))
            shape = struct.unpack(f"<{ndim}Q", need(fh, 8 * ndim, "manifest"))
            if name in manifest:
                raise CheckpointError(f"{path}: parameter {name} named twice in the manifest")
            manifest[name] = tuple(int(d) for d in shape)
        size = os.fstat(fh.fileno()).st_size
        blobs = {}
        for name, shape in manifest.items():
            # exact integer size, checked against the file before a read is
            # sized from it
            nbytes = 8 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise CheckpointError(f"{path}: truncated array {name}")
            raw = need(fh, nbytes, f"array {name}")
            try:
                blobs[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # an empty array with a dimension numpy cannot hold
                raise CheckpointError(f"{path}: bad shape {shape} for {name}") from exc
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes after the last array")
    return manifest, blobs


def load_into(params, path):
    """Load a checkpoint into an already-built parameter set, verifying
    that names and shapes match the model manifest exactly."""
    manifest, blobs = read_checkpoint(path)
    expected = params.manifest()
    if manifest != expected:
        missing = set(expected) - set(manifest)
        extra = set(manifest) - set(expected)
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)}")
        if extra:
            detail.append(f"unexpected {sorted(extra)}")
        for name in set(manifest) & set(expected):
            if manifest[name] != expected[name]:
                detail.append(f"{name}: {manifest[name]} != {expected[name]}")
        raise CheckpointError(f"{path}: manifest mismatch: {'; '.join(detail)}")
    params.load_data(blobs)
