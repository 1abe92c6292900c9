"""Checkpoint round trips, corruption handling and atomic saves."""
import os
import struct

import numpy as np
import pytest

from foldcast.checkpoint import VERSION, load_into, read_checkpoint, save_checkpoint
from foldcast.errors import CheckpointError
from foldcast.model import build_params
from foldcast.train import TrainConfig


def small_params(seed=0, n_nodes=4):
    cfg = TrainConfig(t_in=3, horizon=2, embed_dim=4, ffn_dim=6, heads=2, layers=1)
    return build_params(cfg, n_nodes, 12, np.random.default_rng(seed))


def crafted_checkpoint(name, dims, payload=b""):
    """Checkpoint bytes holding one entry named ``name`` of shape ``dims``."""
    return (bytes([VERSION]) + struct.pack("<IH", 1, len(name)) + name
            + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + payload)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = small_params(seed=1)
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        fresh = small_params(seed=2)
        load_into(fresh, path)
        for name, t in params.items():
            assert np.array_equal(fresh[name].data, t.data), name

    def test_version_byte_first(self, tmp_path):
        params = small_params()
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        assert path.read_bytes()[0] == VERSION

    def test_manifest_order_and_layout(self, tmp_path):
        params = small_params()
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        manifest, blobs = read_checkpoint(path)
        assert list(manifest) == list(params.manifest())
        assert manifest == params.manifest()
        # payload is little-endian f64 in manifest order
        first = next(iter(manifest))
        assert np.array_equal(blobs[first], params[first].data)

    def test_bad_magic_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[0] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "dims", [(2**32, 2**32), (0, 2**63)], ids=["product_wraps", "empty_too_wide"]
    )
    def test_unrepresentable_dims_rejected(self, tmp_path, dims):
        path = tmp_path / "ck.bin"
        path.write_bytes(crafted_checkpoint(b"embed.wx", dims, bytes(16)))
        with pytest.raises(CheckpointError, match="embed.wx"):
            read_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(crafted_checkpoint(b"\xff\xfe", (2,), bytes(16)))
        with pytest.raises(CheckpointError, match="UTF-8"):
            read_checkpoint(path)

    def test_name_twice_rejected(self, tmp_path):
        entry = struct.pack("<H", 1) + b"a" + struct.pack("<BQ", 1, 2)
        path = tmp_path / "ck.bin"
        path.write_bytes(bytes([VERSION]) + struct.pack("<I", 2) + entry + entry + bytes(32))
        with pytest.raises(CheckpointError, match="named twice"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(crafted_checkpoint(b"a", (2,), bytes(16) + b"\x00"))
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            read_checkpoint(path)

    def test_manifest_mismatch_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        other = small_params(n_nodes=5)  # different embed.s shape
        with pytest.raises(CheckpointError, match="mismatch"):
            load_into(other, path)


class _UnwritableArray(np.ndarray):
    """Parameter data whose serialization fails, as on a full disk."""

    def astype(self, *args, **kwargs):
        raise OSError("No space left on device")


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(small_params(seed=1), path)
        before = path.read_bytes()
        params = small_params(seed=2)
        # the manifest and the first arrays are written before this one fails
        t = params[list(params.tensors)[3]]
        t.data = t.data.view(_UnwritableArray)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["checkpoint.bin"]

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(small_params(seed=1), path)
        save_checkpoint(small_params(seed=2), path)
        fresh = small_params(seed=3)
        load_into(fresh, path)
        for name, t in small_params(seed=2).items():
            assert np.array_equal(fresh[name].data, t.data), name
        assert os.listdir(tmp_path) == ["checkpoint.bin"]
