"""Encoder semantics: attention vs a loop oracle, residual identity, the
unfused chain bit for bit, permutation equivariance, and gradient checks."""
import numpy as np
import pytest

import foldcast.tensor as T
from foldcast.model import build_params, encoder_forward, msa, predict
from foldcast.tensor import Tensor
from foldcast.train import TrainConfig

from fdcheck import central_diff, max_rel_err
from unfused import unfused_ffn, unfused_msa


def toy_config(width=8, heads=2, ffn=6, layers=1, horizon=2):
    # embed_dim is width/4 so that the TFG token width lands on the requested width
    return TrainConfig(
        t_in=3, horizon=horizon, embed_dim=width // 4, ffn_dim=ffn, heads=heads, layers=layers
    )


def toy_params(cfg, rng):
    """Parameters of ``cfg`` over 4 nodes with 12 steps a day."""
    return build_params(cfg, 4, 12, rng)


def ln1_rows(z, params):
    """Layer 0's ``ln1`` over ``z``'s last axis, straight from its formula."""
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    return (z - mu) / np.sqrt(var + 1e-5) * params["enc.0.ln1.g"].data + params["enc.0.ln1.b"].data


def loop_attention(z, params, heads):
    """Brute-force per-element pre-norm attention, the independent oracle."""
    z = ln1_rows(z, params)
    wqkv = params["enc.0.qkv"].data
    bqkv = params["enc.0.qkv_b"].data
    wo = params["enc.0.wo"].data
    bo = params["enc.0.wo_b"].data
    groups, s, width = z.shape
    hd = width // heads
    scale = np.sqrt(width / heads)
    out = np.zeros_like(z)
    for g in range(groups):
        qkv = z[g] @ wqkv + bqkv
        q, k, v = qkv[:, :width], qkv[:, width : 2 * width], qkv[:, 2 * width :]
        ctx = np.zeros((s, width))
        for h in range(heads):
            qi = q[:, h * hd : (h + 1) * hd]
            ki = k[:, h * hd : (h + 1) * hd]
            vi = v[:, h * hd : (h + 1) * hd]
            scores = np.zeros((s, s))
            for a in range(s):
                for b in range(s):
                    scores[a, b] = float(np.dot(qi[a], ki[b])) / scale
            for a in range(s):
                e = np.exp(scores[a] - scores[a].max())
                w = e / e.sum()
                for b in range(s):
                    ctx[a, h * hd : (h + 1) * hd] += w[b] * vi[b]
        out[g] = ctx @ wo + bo
    return out


class TestMSA:
    def test_head_dim_and_scale_for_large_profile(self):
        # the PEMS04 profile is TrainConfig's default
        config = TrainConfig()
        assert config.width == 256
        assert config.width // config.heads == 64
        assert np.sqrt(config.width // config.heads) == 8.0

    def test_heads_must_divide_width(self):
        # embed_dim 2 makes the TFG token width 8
        with pytest.raises(ValueError, match=r"heads \(3\) must divide the token width \(8\)"):
            TrainConfig(embed_dim=2, heads=3)

    def test_single_token_attention_is_value_projection(self):
        rng = np.random.default_rng(0)
        cfg = toy_config()
        params = toy_params(cfg, rng)
        z = rng.standard_normal((2, 1, 8))
        out = msa(Tensor(z), params, 0, cfg.heads).data
        w = cfg.width
        qkv = ln1_rows(z, params) @ params["enc.0.qkv"].data + params["enc.0.qkv_b"].data
        v = qkv[..., 2 * w :]
        expected = z + (v @ params["enc.0.wo"].data + params["enc.0.wo_b"].data)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_matches_loop_oracle_on_three_tokens(self):
        rng = np.random.default_rng(1)
        cfg = toy_config()
        params = toy_params(cfg, rng)
        for name in ("enc.0.ln1.g", "enc.0.ln1.b"):
            params[name].data = rng.standard_normal(params[name].shape)
        z = rng.standard_normal((2, 3, 8))
        ours = msa(Tensor(z), params, 0, cfg.heads).data
        oracle = z + loop_attention(z, params, cfg.heads)
        assert np.max(np.abs(ours - oracle)) < 1e-10

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        scores = Tensor(rng.standard_normal((3, 2, 5, 5)) * 10)
        attn = T.softmax_lastdim(scores)
        assert np.all(np.abs(attn.data.sum(-1) - 1.0) <= 1e-12)


# each sublayer's parameters under ``enc.<layer>.``, in its node's operand order
MSA_NAMES = ("ln1.g", "ln1.b", "qkv", "qkv_b", "wo", "wo_b")
FFN_NAMES = ("ln2.g", "ln2.b", "ffn1", "ffn1_b", "ffn2", "ffn2_b")


def reference_msa(z, params, layer, heads):
    """The unfused chain of public ops that ``msa``'s one node replaced,
    its residual an explicit ``add``."""
    return T.add(unfused_msa(z, *(params[f"enc.{layer}.{n}"] for n in MSA_NAMES), heads), z)


def reference_encoder(z, params, layers, heads):
    """``encoder_forward`` as the unfused chain of public ops, each
    sublayer's residual an explicit ``add``."""
    for i in range(layers):
        z = reference_msa(z, params, i, heads)
        z = T.add(unfused_ffn(z, *(params[f"enc.{i}.{n}"] for n in FFN_NAMES)), z)
    return z


class TestFusedParity:
    @pytest.mark.parametrize("groups,s,width,heads", [(3, 5, 8, 2), (2, 1, 8, 2), (4, 7, 16, 4)])
    def test_msa_bitwise_equals_unfused_chain(self, groups, s, width, heads):
        rng = np.random.default_rng(11)
        cfg = toy_config(width=width, heads=heads)
        params = toy_params(cfg, rng)
        names = ("enc.0.ln1.g", "enc.0.ln1.b", "enc.0.qkv", "enc.0.qkv_b", "enc.0.wo", "enc.0.wo_b")
        for name in ("enc.0.ln1.g", "enc.0.ln1.b", "enc.0.qkv_b", "enc.0.wo_b"):
            params[name].data = rng.standard_normal(params[name].shape)
        z0 = rng.standard_normal((groups, s, width))
        w = rng.standard_normal((groups, s, width))
        results = []
        for fn in (msa, reference_msa):
            params.zero_grads()
            zt = Tensor(z0, requires_grad=True)
            out = fn(zt, params, 0, heads)
            T.tsum(T.mul(out, w)).backward()
            results.append((out.data, zt.grad, [params[n].grad for n in names]))
        (out, gz, gp), (ref_out, ref_gz, ref_gp) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(gz, ref_gz)
        for name, a, b in zip(names, gp, ref_gp):
            assert np.array_equal(a, b), name


class TestEncoder:
    def test_two_layers_match_the_unfused_chain_bit_for_bit(self):
        # 20 groups of 128 tokens over 2 heads: attention walks 3 blocks of
        # groups (8, 8 and 4), and each FFN's GELU eight chunks
        groups, s, heads = 20, 128, 2
        assert groups > T._ATTENTION_BLOCK_FLOATS // (heads * s * s)
        rng = np.random.default_rng(12)
        cfg = toy_config(width=8, heads=heads, ffn=16, layers=2)
        params = toy_params(cfg, rng)
        for name, t in params.items():
            if name.startswith("enc.") and name.endswith((".g", ".b", "_b")):
                t.data = rng.standard_normal(t.shape)
        z0 = rng.standard_normal((groups, s, cfg.width))
        w = rng.standard_normal((groups, s, cfg.width))
        results = []
        for fn in (encoder_forward, reference_encoder):
            params.zero_grads()
            zt = Tensor(z0, requires_grad=True)
            out = fn(zt, params, cfg.layers, heads)
            T.tsum(T.mul(out, w)).backward()
            results.append((out.data.tobytes(), zt.grad.tobytes(),
                            {n: g.tobytes() for n, g in params.grads().items()}))
        (out, gz, gp), (ref_out, ref_gz, ref_gp) = results
        assert out == ref_out
        assert gz == ref_gz
        assert gp.keys() == ref_gp.keys() == {n for n in params.tensors if n.startswith("enc.")}
        for name, g in gp.items():
            assert g == ref_gp[name], name

    def test_zeroed_branch_outputs_make_identity(self):
        rng = np.random.default_rng(3)
        cfg = toy_config(layers=2)
        params = toy_params(cfg, rng)
        for i in range(2):
            for name in (f"enc.{i}.wo", f"enc.{i}.wo_b", f"enc.{i}.ffn2", f"enc.{i}.ffn2_b"):
                params[name].data[:] = 0.0
        z0 = rng.standard_normal((3, 4, 8))
        out = encoder_forward(Tensor(z0), params, cfg.layers, cfg.heads)
        assert np.array_equal(out.data, z0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        cfg = toy_config()
        params = toy_params(cfg, rng)
        z0 = rng.standard_normal((2, 6, 8))
        perm = rng.permutation(6)
        base = predict(encoder_forward(Tensor(z0), params, 1, cfg.heads), params).data
        permuted = predict(
            encoder_forward(Tensor(z0[:, perm]), params, 1, cfg.heads), params
        ).data
        assert np.max(np.abs(permuted - base[:, perm])) < 1e-10

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        cfg = toy_config()
        params = toy_params(cfg, rng)
        z0 = rng.standard_normal((2, 3, 8))
        w = rng.standard_normal((2, 3, 8))

        zt = Tensor(z0, requires_grad=True)
        loss = T.tsum(T.mul(encoder_forward(zt, params, 1, cfg.heads), w))
        loss.backward()

        def run(names_values):
            saved = {n: params[n].data.copy() for n in names_values}
            for n, v in names_values.items():
                params[n].data = v
            out = encoder_forward(Tensor(z0), params, 1, cfg.heads).data
            for n, v in saved.items():
                params[n].data = v
            return float((out * w).sum())

        # input gradient
        fd_z = central_diff(
            lambda v: float(
                (encoder_forward(Tensor(v), params, 1, cfg.heads).data * w).sum()
            ),
            z0,
        )
        assert max_rel_err(zt.grad, fd_z) < 1e-4
        # every encoder parameter
        for name in params.tensors:
            if not name.startswith("enc."):
                continue
            fd = central_diff(lambda v, n=name: run({n: v}), params[name].data)
            assert max_rel_err(params[name].grad, fd) < 1e-4, name


class TestHead:
    def test_zero_head_gives_zero_forecast(self):
        rng = np.random.default_rng(6)
        cfg = toy_config()
        params = toy_params(cfg, rng)
        for name in ("head.0", "head.0_b", "head.1", "head.1_b"):
            params[name].data[:] = 0.0
        out = predict(Tensor(rng.standard_normal((2, 4, 8))), params)
        assert np.all(out.data == 0)

    def test_shape_contract(self):
        rng = np.random.default_rng(7)
        cfg = toy_config(horizon=2)
        params = toy_params(cfg, rng)
        out = predict(Tensor(rng.standard_normal((6, 5, 8))), params)
        assert out.shape == (6, 5, 2)

    def test_horizon_width_output(self):
        rng = np.random.default_rng(8)
        cfg = TrainConfig(t_in=24, horizon=24, embed_dim=4, ffn_dim=8, heads=2, layers=1)
        params = build_params(cfg, 3, 12, rng)
        out = predict(Tensor(rng.standard_normal((1, 3, 16))), params)
        assert out.shape[-1] == 24


class TestFolding:
    @pytest.mark.parametrize(
        "folding,width,shape",
        [("TFG", 32, (10, 6, 3)), ("SF", 24, (6, 10, 10))],
    )
    def test_folded_shape_sizes_the_parameters(self, folding, width, shape):
        cfg = TrainConfig(t_in=6, horizon=3, embed_dim=8, ffn_dim=5, heads=2,
                          layers=1, folding=folding)
        assert cfg.width == width
        assert cfg.folded_shape(10) == shape
        params = build_params(cfg, 10, 12, np.random.default_rng(0))
        _, features, outputs = shape
        assert params["embed.wx"].shape == (features, 8)
        assert params["head.1"].shape == (5, outputs)
        assert ("embed.s" in params.manifest()) == (folding == "TFG")


class TestManifest:
    def test_stable_names_present(self):
        cfg = toy_config()
        params = toy_params(cfg, np.random.default_rng(9))
        names = list(params.manifest())
        for expected in ("embed.wx", "embed.s", "embed.tod", "embed.dow",
                         "enc.0.qkv", "enc.0.wo", "head.0", "head.1"):
            assert expected in names

    def test_param_count_matches_shapes(self):
        cfg = toy_config()
        params = toy_params(cfg, np.random.default_rng(10))
        total = sum(int(np.prod(s)) if s else 1 for s in params.manifest().values())
        assert params.param_count() == total

    def test_owned_arrays_are_taken_over_and_others_copied(self):
        from foldcast.model import ModelParams

        owned = np.ones((3, 4))
        params = ModelParams()
        params.add("owned", owned)
        readonly = np.ones(4)
        readonly.flags.writeable = False
        others = {"view": owned[:2], "fortran": np.asfortranarray(np.ones((3, 4))),
                  "int": np.ones(4, dtype=np.int64), "readonly": readonly, "list": [1.0, 2.0]}
        for name, data in others.items():
            params.add(name, data)
        assert params["owned"].data is owned
        for name, data in others.items():
            t = params[name].data
            assert t.dtype == np.float64 and t.flags.c_contiguous and t.flags.owndata, name
            assert not np.shares_memory(t, np.asarray(data)), name
            assert np.array_equal(t, data), name
        blobs = {name: t.data.copy() for name, t in params.items()}
        blobs["view"] = np.ones((4, 4))[:2]
        params.load_data(blobs)
        assert params["owned"].data is blobs["owned"]
        assert not np.shares_memory(params["view"].data, blobs["view"])
        # a Tensor of its own still copies
        assert not np.shares_memory(Tensor(owned).data, owned)
