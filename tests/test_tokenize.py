"""Folding and embedding fusion."""
import re

import numpy as np
import pytest

import foldcast.tensor as T
from foldcast.data import SampleWindow
from foldcast.errors import CheckpointError
from foldcast.model import SF
from foldcast.tensor import Tensor
from foldcast.tokenize import export_embeddings, fuse_embeddings_batch
from foldcast.train import Forecaster, TrainConfig


def window(values_nt, tod=0, dow=0):
    values_nt = np.asarray(values_nt, dtype=float)
    return SampleWindow(
        input=values_nt,
        target=np.zeros((values_nt.shape[0], 2)),
        anchor_t=0,
        tod_index=tod,
        dow_index=dow,
    )


def make_tables(t_in, d, n, freq, rng=None, zero=False):
    if zero:
        arr = lambda *shape: np.zeros(shape)
    else:
        arr = lambda *shape: rng.standard_normal(shape)
    shapes = {"embed.wx": (t_in, d), "embed.wx_b": (d,), "embed.s": (n, d),
              "embed.tod": (freq, d), "embed.dow": (7, d)}
    return {name: Tensor(arr(*shape), requires_grad=True) for name, shape in shapes.items()}


def identity_tables(t_in, n, freq):
    """Tables whose attribute projection is the identity (d = T), so the
    first d columns of a fused token are the folded token itself."""
    tables = make_tables(t_in, t_in, n, freq, rng=np.random.default_rng(0))
    tables["embed.wx"].data = np.eye(t_in)
    tables["embed.wx_b"].data = np.zeros(t_in)
    return tables


def fold_batch(windows):
    """Stacked windows: the (B, N, T) temporally folded token batch."""
    return np.stack([w.input for w in windows])


def sf_forecaster(n, t_in, embed_dim):
    cfg = TrainConfig(t_in=t_in, horizon=2, embed_dim=embed_dim, ffn_dim=8, heads=1,
                      folding=SF)
    return Forecaster.build(cfg, n, 24, np.random.default_rng(0))


class TestFolding:
    def test_single_node_token_is_its_sequence(self):
        w = window([[1.0, 2.0, 3.0]])
        out = fuse_embeddings_batch(fold_batch([w]), identity_tables(3, 1, 24), [0], [0])
        assert np.array_equal(out.data[0, :, :3], [[1.0, 2.0, 3.0]])

    def test_fold_unfold_bijection(self):
        rng = np.random.default_rng(0)
        windows = [window(rng.standard_normal((5, 7))) for _ in range(3)]
        out = fuse_embeddings_batch(fold_batch(windows), identity_tables(7, 5, 24),
                                    [0, 1, 2], [0, 1, 2])
        assert np.array_equal(out.data[..., :7], [w.input for w in windows])

    def test_sf_is_transpose(self):
        forecaster = sf_forecaster(n=2, t_in=2, embed_dim=2)
        forecaster.params["embed.wx"].data = np.eye(2)
        inputs = fold_batch([window([[1.0, 2.0], [3.0, 4.0]])])
        out = forecaster.fuse(inputs, np.array([0]), np.array([0]))
        assert np.array_equal(out.data[0, :, :2], [[1.0, 3.0], [2.0, 4.0]])

    def test_sf_token_count_is_time_steps(self):
        forecaster = sf_forecaster(n=307, t_in=24, embed_dim=4)
        inputs = fold_batch([window(np.zeros((307, 24)))] * 2)
        out = forecaster.fuse(inputs, np.array([0, 1]), np.array([0, 1]))
        assert out.shape == (2, 24, 3 * 4)


class TestFusion:
    def test_output_width_is_four_d(self):
        rng = np.random.default_rng(1)
        tables = make_tables(t_in=24, d=64, n=5, freq=288, rng=rng)
        out = fuse_embeddings_batch(np.zeros((2, 5, 24)), tables, [0, 1], [0, 1])
        assert out.shape == (2, 5, 256)

    def test_identical_rows_differ_only_in_spatial_slice(self):
        rng = np.random.default_rng(2)
        d = 8
        tables = make_tables(t_in=4, d=d, n=3, freq=24, rng=rng)
        tokens = np.tile(rng.standard_normal(4), (1, 3, 1))  # all nodes identical
        out = fuse_embeddings_batch(tokens, tables, [5], [2]).data[0]
        diff = np.abs(out[0] - out[1])
        assert np.all(diff[:d] == 0)
        assert np.any(diff[d : 2 * d] != 0)
        assert np.all(diff[2 * d :] == 0)

    def test_temporal_slices_shared_across_nodes(self):
        rng = np.random.default_rng(3)
        d = 6
        tables = make_tables(t_in=5, d=d, n=4, freq=12, rng=rng)
        out = fuse_embeddings_batch(rng.standard_normal((2, 4, 5)), tables, [7, 2], [3, 0]).data
        for slc in (slice(2 * d, 3 * d), slice(3 * d, 4 * d)):
            for sample in out:
                assert np.all(sample[:, slc] == sample[0, slc])
            assert np.any(out[0, 0, slc] != out[1, 0, slc])

    def test_zero_tables_give_zero_output(self):
        tables = make_tables(t_in=3, d=4, n=2, freq=24, zero=True)
        tokens = np.random.default_rng(4).standard_normal((2, 2, 3))
        out = fuse_embeddings_batch(tokens, tables, [1, 2], [1, 2])
        assert np.all(out.data == 0)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(5)
        tables = make_tables(t_in=3, d=4, n=2, freq=24, rng=rng)
        with pytest.raises(IndexError):
            fuse_embeddings_batch(np.zeros((2, 2, 3)), tables, [0, 24], [0, 0])
        with pytest.raises(IndexError):
            fuse_embeddings_batch(np.zeros((2, 2, 3)), tables, [0, 0], [7, 0])

    def test_gradient_reaches_all_four_tables(self):
        rng = np.random.default_rng(6)
        d = 4
        tables = make_tables(t_in=3, d=d, n=3, freq=10, rng=rng)
        batch = rng.standard_normal((2, 3, 3))
        out = fuse_embeddings_batch(batch, tables, np.array([4, 6]), np.array([1, 1]))
        T.tsum(T.mul(out, rng.standard_normal(out.shape))).backward()
        for t in tables.values():
            assert t.grad is not None and np.linalg.norm(t.grad) > 0
        # only looked-up temporal rows receive gradient
        tod_grad, dow_grad = tables["embed.tod"].grad, tables["embed.dow"].grad
        assert np.all(tod_grad[[0, 1, 2, 3, 5, 7, 8, 9]] == 0)
        assert np.any(tod_grad[4] != 0) and np.any(tod_grad[6] != 0)
        assert np.all(dow_grad[[0, 2, 3, 4, 5, 6]] == 0)
        assert np.any(dow_grad[1] != 0)


class TestExport:
    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        tables = make_tables(t_in=3, d=4, n=2, freq=6, rng=rng)
        blobs = {name: t.data for name, t in tables.items()}
        path = tmp_path / "emb.csv"
        export_embeddings(blobs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "table,index,dim0,dim1,dim2,dim3"
        assert len(lines) == 1 + 2 + 6 + 7
        first = lines[1].split(",")
        assert first[0] == "spatial" and first[1] == "0"
        assert float(first[2]) == tables["embed.s"].data[0, 0]

    @pytest.mark.parametrize(
        "name, table",
        [("embed.dow", None), ("embed.s", np.ones(2)), ("embed.tod", np.ones((6, 5)))],
        ids=["dow_missing", "spatial_1d", "tod_wider_than_wx"],
    )
    def test_bad_table_raises_before_writing(self, tmp_path, name, table):
        tables = make_tables(t_in=3, d=4, n=2, freq=6, zero=True)
        blobs = {key: t.data for key, t in tables.items()}
        if table is None:
            del blobs[name]
        else:
            blobs[name] = table
        with pytest.raises(CheckpointError, match=re.escape(name)):
            export_embeddings(blobs, tmp_path / "emb.csv")
        assert list(tmp_path.iterdir()) == []
