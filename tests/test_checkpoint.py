"""Checkpoint round trips, corruption handling and atomic saves."""
import contextlib
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from foldcast import checkpoint
from foldcast.checkpoint import VERSION, load_into, read_checkpoint, save_checkpoint
from foldcast.errors import CheckpointError
from foldcast.model import ModelParams, build_params
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

    def test_file_is_the_manifest_then_each_array_little_endian(self, tmp_path):
        params = small_params(seed=3)
        params.add("scalar", np.array(-0.0))
        path = tmp_path / "ck.bin"
        save_checkpoint(params, path)
        want = bytes([VERSION]) + struct.pack("<I", len(params.tensors))
        for name, t in params.items():
            want += struct.pack(f"<H{len(name)}sB{t.ndim}Q", len(name), name.encode(), t.ndim,
                                *t.shape)
        for _, t in params.items():
            want += t.data.astype("<f8").tobytes()
        assert path.read_bytes() == want
        manifest, blobs = read_checkpoint(path)
        assert manifest == params.manifest()
        for name, t in params.items():
            assert blobs[name].shape == t.shape and blobs[name].tobytes() == t.data.tobytes()

    def test_save_and_read_copy_no_array(self, tmp_path):
        params = ModelParams()
        params.add("big", np.arange(2.0**17))
        nbytes = params["big"].data.nbytes
        path = tmp_path / "ck.bin"
        tracemalloc.start()
        try:
            save_checkpoint(params, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _, blobs = read_checkpoint(path)
            read_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the parameter is written from its own buffer and read into the
        # array returned; a copy of either would add a whole array
        assert save_peak < 0.25 * nbytes, save_peak
        assert read_peak < 1.25 * nbytes, read_peak
        assert np.array_equal(blobs["big"], params["big"].data)

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


class _FullDisk:
    """A file that takes ``room`` bytes, then fails as on a full disk."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        size = memoryview(data).nbytes
        if size > self.room:
            raise OSError("No space left on device")
        self.room -= size
        return self.fh.write(data)


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(small_params(seed=1), path)
        before = path.read_bytes()
        real_open = checkpoint.atomic_open

        @contextlib.contextmanager
        def filling_open(*args, **kwargs):
            # the manifest and the first arrays are written before a write fails
            with real_open(*args, **kwargs) as fh:
                yield _FullDisk(fh, len(before) // 2)

        monkeypatch.setattr(checkpoint, "atomic_open", filling_open)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(small_params(seed=2), path)
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

    def test_save_flushes_the_directory_after_the_rename(self, tmp_path, monkeypatch):
        # without the directory's fsync a power loss can undo the rename
        path = tmp_path / "checkpoint.bin"
        events = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", os.fspath(dst)))

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        save_checkpoint(small_params(seed=1), path)
        monkeypatch.undo()
        directory = ("fsync", True, os.stat(tmp_path).st_ino)
        assert events[-2:] == [("replace", os.fspath(path)), directory]
        assert events[0][:2] == ("fsync", False)  # the file's own data first
