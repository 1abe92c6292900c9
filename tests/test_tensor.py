"""Tensor-core semantics and gradient checks against finite differences."""
import tracemalloc

import numpy as np
import pytest

import foldcast.tensor as T
from foldcast.tensor import AdamState, ShapeError, Tensor, adam_step

from fdcheck import central_diff, max_rel_err
from graphwalk import base_array, closure_arrays


def proj_loss(out, w):
    """Random fixed projection turns any op output into a scalar."""
    return T.tsum(T.mul(out, w))


def grad_of(build, x0, *extra):
    """Analytic gradient of build(x)(projected) w.r.t. the first input."""
    xt = Tensor(x0, requires_grad=True)
    loss = build(xt, *extra)
    loss.backward()
    return xt.grad


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_one_by_one(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(4, 5\).*\(3, 2\)"):
            T.matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((3, 2))))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        w = rng.standard_normal((4, 3))

        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        proj_loss(T.matmul(at, bt), w).backward()

        fd_a = central_diff(lambda x: float((x @ b * w).sum()), a)
        fd_b = central_diff(lambda x: float((a @ x * w).sum()), b)
        assert max_rel_err(at.grad, fd_a) < 1e-6
        assert max_rel_err(bt.grad, fd_b) < 1e-6

    def test_batched_broadcast_grad(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 2, 5))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        proj_loss(T.matmul(at, bt), w).backward()
        fd_b = central_diff(lambda x: float(((a @ x) * w).sum()), b)
        assert max_rel_err(bt.grad, fd_b) < 1e-6


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_no_overflow_on_large_scores(self):
        out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
        assert abs(out.data[0] - 1.0) < 1e-12
        assert abs(out.data[1]) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((3, 7)) * rng.uniform(0.1, 50)
            out = T.softmax_lastdim(Tensor(x))
            assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 7))
        w = rng.standard_normal((3, 7))
        g = grad_of(lambda xt: proj_loss(T.softmax_lastdim(xt), w), x)

        def f(arr):
            e = np.exp(arr - arr.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        assert max_rel_err(g, central_diff(f, x)) < 1e-5


class TestLayerNorm:
    def test_constant_slice_is_zeroed(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros(3))

    def test_golden_two_point_slice(self):
        # population variance (divide by n) with eps=1e-5; golden value
        # computed from that convention directly
        golden = (np.array([1.0, -1.0]) - 0.0) / np.sqrt(1.0 + 1e-5)
        out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.max(np.abs(out.data - golden)) < 1e-12
        assert np.max(np.abs(out.data - np.array([1.0, -1.0]))) < 1e-5

    def test_output_mean_near_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 16)) * 30 + 7
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-9)

    def test_affine_shape_error(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 8))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 8))
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        w = rng.standard_normal((2, 8))

        def oracle(xv, gv, bv):
            mu = xv.mean(axis=-1, keepdims=True)
            var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
            xhat = (xv - mu) / np.sqrt(var + 1e-5)
            return float(((xhat * gv + bv) * w).sum())

        xt = Tensor(x, requires_grad=True)
        gt = Tensor(gamma, requires_grad=True)
        bt = Tensor(beta, requires_grad=True)
        proj_loss(T.layer_norm(xt, gt, bt), w).backward()
        assert max_rel_err(xt.grad, central_diff(lambda v: oracle(v, gamma, beta), x)) < 1e-4
        assert max_rel_err(gt.grad, central_diff(lambda v: oracle(x, v, beta), gamma)) < 1e-4
        assert max_rel_err(bt.grad, central_diff(lambda v: oracle(x, gamma, v), beta)) < 1e-4


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor(0.0)).data == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(Tensor(10.0)).data - 10.0) < 1e-6

    def test_monotone_on_nonnegative(self):
        xs = np.linspace(0.0, 6.0, 200)
        out = T.gelu(Tensor(xs)).data
        assert np.all(np.diff(out) > 0)

    def test_grad_matches_fd(self):
        from scipy.special import erf

        rng = np.random.default_rng(6)
        x = rng.standard_normal(32) * 2
        w = rng.standard_normal(32)
        g = grad_of(lambda xt: proj_loss(T.gelu(xt), w), x)
        oracle = lambda v: float((v * 0.5 * (1 + erf(v / np.sqrt(2))) * w).sum())
        assert max_rel_err(g, central_diff(oracle, x)) < 1e-5

    def test_shared_output_twice_through_backward(self):
        # the output's gradient sums two consumers, then the backward
        # scales it in place; the derivative must survive for a second pass
        from scipy.special import erf

        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 4)) * 2
        w1, w2 = rng.standard_normal((2, 3, 4))
        xt = Tensor(x, requires_grad=True)
        h = T.gelu(xt)
        loss = T.add(proj_loss(h, w1), proj_loss(h, w2))
        loss.backward()
        loss.backward()
        oracle = lambda v: 2 * float((v * 0.5 * (1 + erf(v / np.sqrt(2))) * (w1 + w2)).sum())
        assert max_rel_err(xt.grad, central_diff(oracle, x)) < 1e-5

    def test_closure_keeps_only_the_derivative(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        xt = Tensor(x, requires_grad=True)
        out = T.gelu(xt)
        (kept,) = closure_arrays(out._node)
        assert kept.shape == x.shape
        assert not np.shares_memory(kept, xt.data) and not np.shares_memory(kept, out.data)

    def test_no_derivative_without_grad(self):
        # the output reuses the cdf buffer; the derivative is skipped
        x = np.ones((64, 64))
        for requires_grad, arrays in ((False, 1), (True, 2)):
            xt = Tensor(x, requires_grad=requires_grad)
            tracemalloc.start()
            try:
                T.gelu(xt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert arrays * x.nbytes <= peak < (arrays + 0.5) * x.nbytes


class TestConcat:
    def test_four_parts_of_64(self):
        parts = [Tensor(np.zeros((5, 64))) for _ in range(4)]
        assert T.concat_lastdim(parts).shape == (5, 256)

    def test_single_part_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(T.concat_lastdim([Tensor(x)]).data, x)

    def test_leading_shape_error(self):
        with pytest.raises(ShapeError):
            T.concat_lastdim([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])

    def test_grad_splits_back(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 2))
        w = rng.standard_normal((3, 6))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        proj_loss(T.concat_lastdim([at, bt]), w).backward()
        fd_a = central_diff(lambda v: float((np.concatenate([v, b], -1) * w).sum()), a)
        fd_b = central_diff(lambda v: float((np.concatenate([a, v], -1) * w).sum()), b)
        assert max_rel_err(at.grad, fd_a) < 1e-6
        assert max_rel_err(bt.grad, fd_b) < 1e-6


class TestMovementOps:
    def test_gather_accumulates_repeats(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        idx = np.array([0, 0, 2])
        T.tsum(T.gather_rows(t, idx)).backward()
        assert np.array_equal(t.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(np.zeros((3, 2))), np.array([3]))

    def test_reshape_transpose_slice_grads(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 3))

        def build(xt):
            y = T.transpose(T.reshape(xt, (6, 4)), (1, 0))  # (4, 6)
            return proj_loss(T.slice_lastdim(y, 1, 4), w)

        g = grad_of(build, x)

        def oracle(v):
            y = v.reshape(6, 4).T
            return float((y[:, 1:4] * w).sum())

        assert max_rel_err(g, central_diff(oracle, x)) < 1e-6

    def test_broadcast_add_mul_grads(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        proj_loss(T.mul(T.add(at, bt), at), w).backward()
        fd_a = central_diff(lambda v: float(((v + b) * v * w).sum()), a)
        fd_b = central_diff(lambda v: float(((a + v) * a * w).sum()), b)
        assert max_rel_err(at.grad, fd_a) < 1e-5
        assert max_rel_err(bt.grad, fd_b) < 1e-5

    def test_shared_node_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        T.mul(x, x).backward()
        assert abs(x.grad - 6.0) < 1e-12


class TestLinear:
    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_grads_match_fd(self, lead):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(lead + (5,))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(3)
        proj = rng.standard_normal(lead + (3,))
        xt, wt, bt = (Tensor(v, requires_grad=True) for v in (x, w, b))
        out = T.linear(xt, wt, bt)
        assert np.allclose(out.data, x @ w + b, rtol=0, atol=1e-12)
        proj_loss(out, proj).backward()

        def f(xv, wv, bv):
            return float(((xv @ wv + bv) * proj).sum())

        assert max_rel_err(xt.grad, central_diff(lambda v: f(v, w, b), x)) < 1e-6
        assert max_rel_err(wt.grad, central_diff(lambda v: f(x, v, b), w)) < 1e-6
        assert max_rel_err(bt.grad, central_diff(lambda v: f(x, w, v), b)) < 1e-6

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_no_bias_grads_match_fd(self, lead):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(lead + (5,))
        w = rng.standard_normal((5, 3))
        proj = rng.standard_normal(lead + (3,))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.linear(xt, wt)
        assert np.allclose(out.data, x @ w, rtol=0, atol=1e-12)
        proj_loss(out, proj).backward()
        assert max_rel_err(xt.grad, central_diff(lambda v: float((v @ w * proj).sum()), x)) < 1e-6
        assert max_rel_err(wt.grad, central_diff(lambda v: float((x @ v * proj).sum()), w)) < 1e-6

    def test_bitwise_equal_to_matmul_then_add(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 6))
        w, b = rng.standard_normal((6, 5)), rng.standard_normal(5)
        assert np.array_equal(T.linear(x, w, b).data, T.add(T.matmul(x, w), b).data)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(5))
        with pytest.raises(ShapeError):
            T.linear(np.zeros((2, 4)), np.zeros((4, 5)), np.zeros(4))


def attention_oracle(qkv, heads):
    """Per-group, per-head numpy attention over packed (groups, s, 3w) input."""
    groups, s, three_w = qkv.shape
    width = three_w // 3
    hd = width // heads
    out = np.zeros((groups, s, width))
    for g in range(groups):
        for h in range(heads):
            cols = slice(h * hd, (h + 1) * hd)
            q = qkv[g, :, :width][:, cols]
            k = qkv[g, :, width : 2 * width][:, cols]
            v = qkv[g, :, 2 * width :][:, cols]
            scores = q @ k.T / np.sqrt(hd)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            out[g, :, cols] = (e / e.sum(axis=-1, keepdims=True)) @ v
    return out


class TestAttention:
    @pytest.mark.parametrize(
        "groups,s,heads,hd", [(2, 3, 2, 2), (1, 1, 2, 3), (3, 4, 1, 4), (2, 5, 3, 2)]
    )
    def test_forward_and_grad_match_oracle(self, groups, s, heads, hd):
        rng = np.random.default_rng(14)
        qkv = rng.standard_normal((groups, s, 3 * heads * hd))
        w = rng.standard_normal((groups, s, heads * hd))
        assert np.allclose(T.attention(Tensor(qkv), heads).data, attention_oracle(qkv, heads),
                           rtol=0, atol=1e-12)
        g = grad_of(lambda xt: proj_loss(T.attention(xt, heads), w), qkv)
        fd = central_diff(lambda v: float((attention_oracle(v, heads) * w).sum()), qkv)
        assert max_rel_err(g, fd) < 1e-5

    def test_single_token_passes_values_through(self):
        rng = np.random.default_rng(15)
        qkv = rng.standard_normal((3, 1, 12))
        assert np.array_equal(T.attention(Tensor(qkv), 2).data, qkv[..., 8:])

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((2, 3, 10))), 2)

    def test_closure_keeps_kt_not_k(self):
        groups, s, heads, hd = 2, 5, 2, 3
        width = heads * hd
        qkv = np.random.default_rng(20).standard_normal((groups, s, 3 * width))
        out = T.attention(Tensor(qkv, requires_grad=True), heads)
        kept = closure_arrays(out._node)
        k = qkv[..., width:2 * width].reshape(groups, s, heads, hd).transpose(0, 2, 1, 3)
        # probabilities, q, k^T and v, each an array of its own
        assert len(kept) == 4 and all(base_array(a) is a for a in kept)
        assert any(np.array_equal(a, k.swapaxes(-1, -2)) for a in kept)
        assert not any(np.array_equal(a, k) for a in kept)


class TestOwnedGradients:
    def test_add_self_matches_fd(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        g = grad_of(lambda xt: proj_loss(T.add(xt, xt), w), x)
        assert max_rel_err(g, central_diff(lambda v: float(((v + v) * w).sum()), x)) < 1e-8

    def test_diamond_with_extra_contribution(self):
        # h = a + b feeds both branches; a also reaches the loss directly,
        # so whichever gradient reaches a first is later added to in place.
        rng = np.random.default_rng(17)
        a0, b0 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        w1, w2, w3 = (rng.standard_normal((2, 3)) for _ in range(3))

        def f(av, bv):
            h = av + bv
            return float(((h * w1) * (h * w2) + av * w3).sum())

        at, bt = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        h = T.add(at, bt)
        loss = T.add(T.tsum(T.mul(T.mul(h, w1), T.mul(h, w2))), T.tsum(T.mul(at, w3)))
        loss.backward()
        assert not np.shares_memory(at.grad, bt.grad)
        assert max_rel_err(at.grad, central_diff(lambda v: f(v, b0), a0)) < 1e-7
        assert max_rel_err(bt.grad, central_diff(lambda v: f(a0, v), b0)) < 1e-7

    @pytest.mark.parametrize("const", [0, 1])
    def test_add_constant_operand_twice_through_backward(self, const):
        # ``g`` goes to the one parent uncopied; a second pass adds to it
        rng = np.random.default_rng(21)
        x, c, w = rng.standard_normal((3, 3, 4))
        c_before = c.copy()
        xt = Tensor(x, requires_grad=True)
        loss = proj_loss(T.add(*((xt, c) if const else (c, xt))), w)
        loss.backward()
        loss.backward()
        fd = central_diff(lambda v: 2 * float(((v + c) * w).sum()), x)
        assert max_rel_err(xt.grad, fd) < 1e-8
        assert np.array_equal(c, c_before)

    def test_add_leaf_keeps_its_gradient_when_the_other_parent_overwrites(self):
        # gelu's backward scales its incoming ``g`` in place, so y must not
        # be handed that same array
        rng = np.random.default_rng(23)
        x0, y0, w = rng.standard_normal((3, 3, 4))
        xt, yt = Tensor(x0, requires_grad=True), Tensor(y0, requires_grad=True)
        proj_loss(T.add(T.gelu(xt), yt), w).backward()
        assert np.array_equal(yt.grad, w)

    @pytest.mark.parametrize(
        "build",
        [lambda x, y: T.concat_lastdim([x, y]), lambda x, y: T.transpose(x, (1, 0))],
        ids=["concat_lastdim", "transpose"],
    )
    def test_leaf_gradient_is_an_array_of_its_own(self, build):
        # both ops copy the view of ``g`` they hand on, so a leaf keeps no
        # view of the op's gradient (a concat slice would keep its
        # siblings' gradients alive with it)
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        out = build(x, y)
        T.tsum(T.mul(out, rng.standard_normal(out.shape))).backward()
        assert base_array(x.grad) is x.grad

    def test_concat_siblings_do_not_share(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        T.tsum(T.mul(T.concat_lastdim([x, y]), rng.standard_normal((2, 6)))).backward()
        assert not np.shares_memory(x.grad, y.grad)


class TestBackwardSemantics:
    def test_second_backward_adds_one_more_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(3.0, T.add(x, 1.0)))
        loss.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        loss.backward()
        assert np.array_equal(x.grad, [6.0, 6.0])

    def test_only_leaves_keep_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mid = T.gelu(x)
        loss = T.tsum(mid)
        loss.backward()
        assert x.grad is not None
        assert mid.grad is None and loss.grad is None


NUMPY_OPS = {
    "add": np.add,
    "mul": np.multiply,
    "matmul": np.matmul,
    "linear": lambda x, w, b: x @ w + b,
}


class TestConstantOperands:
    @pytest.mark.parametrize(
        "op, shapes, const",
        [
            ("add", [(3, 4), (4,)], 0),
            ("add", [(3, 4), (4,)], 1),
            ("mul", [(3, 4), (3, 1)], 0),
            ("mul", [(3, 4), (3, 1)], 1),
            ("matmul", [(2, 3, 4), (4, 5)], 0),  # leading dims flattened
            ("matmul", [(2, 3, 4), (4, 5)], 1),
            ("matmul", [(2, 3, 4), (2, 4, 5)], 0),  # batched
            ("matmul", [(2, 3, 4), (2, 4, 5)], 1),
            ("linear", [(2, 3, 4), (4, 5), (5,)], 0),
            ("linear", [(2, 3, 4), (4, 5), (5,)], 1),
            ("linear", [(2, 3, 4), (4, 5), (5,)], 2),
        ],
    )
    def test_grads_match_fd_and_constant_gets_none(self, op, shapes, const):
        rng = np.random.default_rng(12)
        values = [rng.standard_normal(shape) for shape in shapes]
        tensors = [Tensor(v, requires_grad=i != const) for i, v in enumerate(values)]
        out = getattr(T, op)(*tensors)
        w = rng.standard_normal(out.shape)
        proj_loss(out, w).backward()
        assert tensors[const].grad is None
        for i, t in enumerate(tensors):
            if i == const:
                continue

            def f(v, i=i):
                args = list(values)
                args[i] = v
                return float((NUMPY_OPS[op](*args) * w).sum())

            assert max_rel_err(t.grad, central_diff(f, values[i])) < 1e-6, i

    def test_mul_by_constant_mask_keeps_only_the_mask(self):
        rng = np.random.default_rng(13)
        x = T.gelu(Tensor(rng.standard_normal((3, 4)), requires_grad=True))
        mask = (rng.random((3, 4)) < 0.5).astype(np.float64)
        kept = closure_arrays(T.mul(x, mask)._node)
        assert any(np.shares_memory(a, mask) for a in kept)
        assert not any(np.shares_memory(a, x.data) for a in kept)

    def test_linear_on_constant_input_keeps_no_weight(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4))
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        kept = closure_arrays(T.linear(x, w, b)._node)
        assert not any(np.shares_memory(a, w.data) for a in kept)
        assert any(np.shares_memory(a, x) for a in kept)

    def test_no_tape_without_a_grad_operand(self):
        out = T.mul(Tensor(np.ones(3)), np.ones(3))
        assert out._node is None and not out.requires_grad and out.grad is None


class TestOperandWrapping:
    # a float64, C-ordered operand is wrapped without a copy: see
    # TestConstantOperands::test_mul_by_constant_mask_keeps_only_the_mask
    def test_other_arrays_are_converted(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        for operand in (np.ones((3, 2), dtype=np.int64), np.ones((2, 3)).T):
            (kept,) = closure_arrays(T.mul(x, operand)._node)
            assert kept.dtype == np.float64 and kept.flags.c_contiguous
            assert not np.shares_memory(kept, operand)

    def test_constructor_copies(self):
        keep = np.ones((2, 3))
        assert not np.shares_memory(Tensor(keep).data, keep)


class TestHuber:
    def test_quadratic_branch(self):
        loss = T.huber_loss(Tensor([0.5]), np.array([0.0]), 1.0)
        assert abs(loss.item() - 0.125) < 1e-15

    def test_linear_branch(self):
        loss = T.huber_loss(Tensor([3.0]), np.array([0.0]), 1.0)
        assert abs(loss.item() - 2.5) < 1e-15

    def test_knee_continuity(self):
        loss = T.huber_loss(Tensor([1.0]), np.array([0.0]), 1.0)
        assert abs(loss.item() - 0.5) < 1e-15

    def test_mask_excludes_entries(self):
        pred = Tensor([1.0, 100.0])
        loss = T.huber_loss(pred, np.zeros(2), 1.0, include=np.array([True, False]))
        assert abs(loss.item() - 0.5) < 1e-15

    def test_all_excluded_errors(self):
        with pytest.raises(ValueError, match="excluded"):
            T.huber_loss(Tensor([1.0]), np.zeros(1), 1.0, include=np.array([False]))

    def test_grad_matches_fd_including_near_knee(self):
        target = np.zeros(7)
        x = np.array([-3.0, -1.001, -0.999, 0.2, 0.999, 1.001, 2.5])
        xt = Tensor(x, requires_grad=True)
        T.huber_loss(xt, target, 1.0).backward()

        def oracle(v):
            a = np.abs(v)
            per = np.where(a <= 1.0, 0.5 * v * v, a - 0.5)
            return float(per.mean())

        assert max_rel_err(xt.grad, central_diff(oracle, x)) < 1e-4


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {}, state, lr=0.1)
        assert np.array_equal(p.data, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_oracle(self):
        # hand-computed: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam_step({"p": p}, {"p": np.array([1.0])}, AdamState(), lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-15
        assert abs(p.data[0] - (-0.1)) < 1e-9

    def test_quadratic_descent_is_monotone(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState()
        values = [float(p.data[0] ** 2)]
        for _ in range(10):
            adam_step({"p": p}, {"p": 2.0 * p.data}, state, lr=0.05)
            values.append(float(p.data[0] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            adam_step({"p": p}, {"p": np.zeros(2)}, AdamState(), lr=0.1)


class TestHarness:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 6))

        def run():
            t = Tensor(x)
            return T.softmax_lastdim(T.matmul(T.gelu(t), t)).data

        assert np.array_equal(run(), run())

    def test_debug_checks_flag(self):
        big = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"):
            T.matmul(big, big)  # silently produces inf when checks are off
            T.set_debug_checks(True)
            try:
                with pytest.raises(FloatingPointError):
                    T.matmul(big, big)
            finally:
                T.set_debug_checks(False)

    def test_op_gradients_over_seeded_trials(self):
        # spot check; the acceptance suite runs the full >=100-trial sweep
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal((2, 5))
            w = rng.standard_normal((2, 5))
            g = grad_of(lambda xt: proj_loss(T.softmax_lastdim(T.gelu(xt)), w), x)

            def oracle(v):
                from scipy.special import erf

                gv = v * 0.5 * (1 + erf(v / np.sqrt(2)))
                e = np.exp(gv - gv.max(axis=-1, keepdims=True))
                return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

            assert max_rel_err(g, central_diff(oracle, x)) < 1e-4
