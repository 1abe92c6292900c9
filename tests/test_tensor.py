"""Tensor-core semantics and gradient checks against finite differences."""
import math
import tracemalloc

import numpy as np
import pytest

import foldcast.tensor as T
from foldcast.tensor import AdamState, ShapeError, Tensor, adam_step

from fdcheck import central_diff, max_rel_err
from graphwalk import base_array, closure_arrays
from unfused import unfused_ffn, unfused_msa, with_residual


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


def gelu_whole_array(x):
    """GELU and its derivative over the whole array at once, the formula
    the chunked kernel must match bit for bit."""
    from scipy.special import erf

    with np.errstate(invalid="ignore"):
        cdf = np.multiply(x, 1.0 / np.sqrt(2.0), out=np.empty_like(x))
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        deriv = np.multiply(x, -0.5, out=np.empty_like(x))
        deriv *= x
        np.exp(deriv, out=deriv)
        deriv *= 1.0 / np.sqrt(2.0 * np.pi)
        deriv *= x
        deriv += cdf
        return np.multiply(x, cdf, out=cdf), deriv


def assert_same_bits(got, want):
    """Equal bit for bit, except a NaN's sign: numpy's own loops pick which
    operand's NaN to return by the element's place in the array."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestGelu:
    def test_numpy_erf_is_scipy_erf_bit_for_bit(self):
        # a scipy whose erf changes must fail here, not shift bits silently
        from scipy.special import erf

        rng = np.random.default_rng(22)
        tiny = np.finfo(np.float64).smallest_subnormal
        root_maxlog = np.sqrt(T._ERFC_MAXLOG)  # where erfc's exp(-x^2) stops
        edges = np.array([
            0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
            -np.nextafter(1.0, 0.0), -np.nextafter(1.0, 2.0), tiny, -tiny, 1e-310,
            np.finfo(np.float64).tiny, 1.5, -3.25, 7.99, 8.0, -8.0, np.nextafter(8.0, 0.0),
            -np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), root_maxlog, -root_maxlog,
            np.nextafter(root_maxlog, 0.0), np.nextafter(root_maxlog, 30.0), 26.5, 27.0, -27.0,
            1e300, -1e300, np.finfo(np.float64).max, np.inf, -np.inf, np.nan, -np.nan,
        ])
        # quiet and signalling NaNs with payloads, of either sign
        payloads = np.array([0x7FF8000000000123, 0xFFF8000000000001, 0x7FF0000000000001,
                             0xFFF4000000000001], dtype=np.uint64).view(np.float64)
        chunks = [edges, payloads]
        for _ in range(11):
            # random bit patterns with the top exponent bit clear: |a| < 2,
            # every exponent below 1 equally often
            bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
            a = (bits & ~np.uint64(1 << 62)).view(np.float64)
            chunks.append(a[np.abs(a) <= 1.0])
            chunks.append(rng.uniform(-1.0, 1.0, 10**5))
        assert sum(c.size for c in chunks[2::2]) >= 10**7
        for _ in range(4):
            # |a| in [1, 32): random sign and mantissa, exponents 0 to 4
            # equally often, across erfc's x = 8 and MAXLOG branches
            bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
            exponent = rng.integers(1023, 1028, bits.size, dtype=np.uint64) << np.uint64(52)
            chunks.append(((bits & ~np.uint64(0x7FF << 52)) | exponent).view(np.float64))
        chunks.append(rng.uniform(-30.0, 30.0, 10**6))
        # small arrays too: GELU's chunks are n // 8 elements, down to one
        kinds = (chunks[2], chunks[3], chunks[-2], chunks[-1])
        chunks += [c[:size] for size in (1, 7, 100, 5000) for c in kinds]
        # dense across x = 8, where cephes' erfc turns to a rational that
        # ours leaves out, and across sqrt(MAXLOG)
        for lo, hi in ((7.9, 8.1), (26.0, 28.0)):
            dense = np.linspace(lo, hi, 10**6)
            chunks += [dense, -dense]
        for a in chunks:
            ours = a.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                T._erf_inplace(ours, *np.empty((3, a.size)))
            assert np.array_equal(ours.view(np.uint64), erf(a).view(np.uint64))

    def test_complex_exp_is_libm_exp_bit_for_bit(self):
        # cephes' erfc calls libm's exp, which ``_erf_far`` reaches through
        # numpy's complex exp; a numpy whose complex exp stops calling libm
        # must fail here, not shift bits silently
        rng = np.random.default_rng(24)
        z = np.concatenate([
            np.linspace(-746.0, -1.0, 10**5), rng.uniform(-746.0, -1.0, 10**5),
            # results below the smallest normal, down to 0
            np.linspace(-746.0, -708.0, 10**4),
        ])
        ours = np.exp(z.astype(np.complex128)).real
        libm = np.array([math.exp(v) for v in z])
        assert np.any((libm > 0) & (libm < np.finfo(np.float64).tiny)) and np.any(libm == 0)
        assert np.array_equal(ours.view(np.uint64), libm.view(np.uint64))

    # chunks of n // 8 elements, at least 1 and at most 2**15: up to 15
    # elements go one at a time, and from 2**18 elements the chunks are full
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (64, 64), (3, 5000), (2**17 + 3,), (2**18 + 5,),
                                       (300, 1001)],
                             ids=lambda shape: "x".join(map(str, shape)) or "0d")
    def test_matches_the_whole_array_formula(self, shape):
        x = np.random.default_rng(23).standard_normal(shape) * 3
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1.0, 40.0]
        x.reshape(-1)[: len(specials)] = specials[: x.size]
        out_want, deriv_want = gelu_whole_array(x)
        assert_same_bits(T.gelu(Tensor(x)).data, out_want)
        xt = Tensor(x, requires_grad=True)
        out = T.gelu(xt)
        assert_same_bits(out.data, out_want)
        T.tsum(out).backward()  # an incoming gradient of ones: x.grad is the derivative
        assert_same_bits(xt.grad, deriv_want)

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

    def test_shared_output_sums_both_consumers(self):
        # the output's gradient sums two consumers, then the backward
        # scales that sum in place by the derivative
        from scipy.special import erf

        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 4)) * 2
        w1, w2 = rng.standard_normal((2, 3, 4))
        xt = Tensor(x, requires_grad=True)
        h = T.gelu(xt)
        T.add(proj_loss(h, w1), proj_loss(h, w2)).backward()
        oracle = lambda v: float((v * 0.5 * (1 + erf(v / np.sqrt(2))) * (w1 + w2)).sum())
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


def closure_cell(node, name):
    """The array named ``name`` in tape node ``node``'s backward closure."""
    fn = node.backward
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))[name]


def gelu_oracle(x, w, b):
    return T.gelu(T.linear(x, w, b))


class TestLinearGelu:
    # (rows, n): 150 x 64 outputs ("one_pass") take eight GELU chunks of
    # 1200, 1204 x 131 ("chunked") nine of 19715, the last of 4 elements
    SHAPES = {"one_pass": ((3, 50, 16), (16, 64)), "chunked": ((4, 301, 16), (16, 131))}

    @staticmethod
    def run(op, values, grads, proj):
        tensors = [Tensor(v, requires_grad=r) for v, r in zip(values, grads)]
        out = op(*tensors)
        deriv = closure_cell(out._node, "deriv").copy() if out.requires_grad else None
        if out.requires_grad:
            proj_loss(out, proj).backward()
        return out.data, deriv, [t.grad for t in tensors]

    @pytest.mark.parametrize("size", SHAPES)
    @pytest.mark.parametrize("grads", [(True, True, True), (False, True, True),
                                       (True, False, False), (False, False, False)],
                             ids=["all", "constant_x", "only_x", "none"])
    def test_matches_gelu_of_linear_bit_for_bit(self, size, grads):
        x_shape, w_shape = self.SHAPES[size]
        rng = np.random.default_rng(31)
        values = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
                  rng.standard_normal(w_shape[1])]
        proj = rng.standard_normal(x_shape[:-1] + w_shape[1:])
        out, deriv, got = self.run(T.linear_gelu, values, grads, proj)
        want_out, want_deriv, want = self.run(gelu_oracle, values, grads, proj)
        assert out.tobytes() == want_out.tobytes()
        if any(grads):
            assert deriv.shape == out.shape and deriv.tobytes() == want_deriv.tobytes()
        else:
            assert deriv is None and want_deriv is None
        for g, wg, needed in zip(got, want, grads):
            assert (g is not None) == needed and (wg is not None) == needed
            if needed:
                assert g.tobytes() == wg.tobytes()

    def test_grads_match_fd(self):
        from scipy.special import erf

        rng = np.random.default_rng(32)
        values = [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
                  rng.standard_normal(5)]
        proj = rng.standard_normal((2, 3, 5))
        _, _, grads = self.run(T.linear_gelu, values, (True, True, True), proj)
        for i, g in enumerate(grads):

            def f(v, i=i):
                args = list(values)
                args[i] = v
                h = args[0] @ args[1] + args[2]
                return float((h * 0.5 * (1 + erf(h / np.sqrt(2))) * proj).sum())

            assert max_rel_err(g, central_diff(f, values[i])) < 1e-5, i

    def test_no_pre_activation_beside_the_output(self):
        # the GEMM's output, the derivative when a gradient is needed, and
        # chunk scratch (1.44 and 2.44 outputs here); GELU of a separate
        # GEMM output reads 2.39 without a gradient
        rng = np.random.default_rng(33)
        x, w = rng.standard_normal((600, 64)), rng.standard_normal((64, 1024))
        out_bytes = 600 * 1024 * 8
        for requires_grad, arrays in ((False, 1), (True, 2)):
            wt = Tensor(w, requires_grad=requires_grad)
            tracemalloc.start()
            try:
                T.linear_gelu(x, wt, np.zeros(1024))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert arrays * out_bytes <= peak < (arrays + 0.5) * out_bytes, requires_grad


def run_op(op, values, grads, proj):
    """``op`` over ``values``, each needing a gradient where ``grads`` says,
    and, when its output is taped, the backward of a fixed projection:
    (output, each value's gradient)."""
    tensors = [Tensor(v, requires_grad=r) for v, r in zip(values, grads)]
    out = op(*tensors)
    if out.requires_grad:
        proj_loss(out, proj).backward()
    return out, [t.grad for t in tensors]


def assert_fused_matches(fused, oracle, values, grads, proj):
    """A fused node's output and gradients equal the unfused chain's bits,
    and it records a tape exactly when some operand needs a gradient."""
    out, got = run_op(fused, values, grads, proj)
    want_out, want = run_op(oracle, values, grads, proj)
    assert out.data.tobytes() == want_out.data.tobytes(), grads
    assert out.requires_grad == any(grads) and (out._node is None) == (not any(grads))
    for g, wg, needed in zip(got, want, grads):
        assert (g is not None) == needed and (wg is not None) == needed, grads
        if needed:
            assert g.tobytes() == wg.tobytes(), grads


def norm_values(rng, x_shape, w_shape):
    """x, gamma, beta, w and b for a layer norm and the linear it feeds."""
    k, n = w_shape
    return [rng.standard_normal(x_shape) * 3 + 1, rng.standard_normal(k),
            rng.standard_normal(k), rng.standard_normal(w_shape), rng.standard_normal(n)]


# each fused sublayer node's operands, in argument order
OPERANDS = {"norm_attention": ["x", "gamma", "beta", "w_qkv", "b_qkv", "w_o", "b_o"],
            "norm_ffn": ["x", "gamma", "beta", "w1", "b1", "w2", "b2"]}


def assert_taped_per_call(op, values, operand, proj):
    """A fused node decides per call: with only ``values[operand]`` needing
    a gradient it keeps the arrays of a call where all do, bit for bit, and
    only that operand gets a gradient. Returns the kept arrays' shapes."""

    def kept(grads):
        tensors = [Tensor(v, requires_grad=r) for v, r in zip(values, grads)]
        out = op(*tensors)
        arrays = [a for a in closure_arrays(out._node)
                  if not any(a is t.data for t in tensors)]
        return tensors, out, sorted((a.shape, a.tobytes()) for a in arrays)

    grads = [i == operand for i in range(len(values))]
    tensors, out, one = kept(grads)
    assert one == kept([True] * len(values))[2]
    proj_loss(out, proj).backward()
    assert [t.grad is not None for t in tensors] == grads
    return [shape for shape, _ in one]


class TestNormAttention:
    # (groups, s, heads, hd, attention blocks): 3 groups of 50 fit one
    # block, 37 groups of 64 over 4 heads take three (16, 16 and 5 groups),
    # 5 groups of 300 one each, and 40 single-token groups one in all
    SHAPES = {"one_block": (3, 50, 2, 8, 1), "three_blocks": (37, 64, 4, 4, 3),
              "five_blocks": (5, 300, 2, 3, 5), "single_token": (40, 1, 2, 2, 1)}
    # every subset of (x, gamma, beta, w_qkv, b_qkv, w_o, b_o) that needs a
    # gradient; the empty one is a forward without a tape, as under ``no_grad``
    GRADS = [tuple(bool(mask >> i & 1) for i in range(7)) for mask in range(128)]

    @staticmethod
    def values(rng, groups, s, heads, hd, m=None):
        # the node adds x back, so its output width m is x's unless a test
        # asks for a mismatch
        width = heads * hd
        m = width if m is None else m
        return norm_values(rng, (groups, s, width), (width, 3 * width)) + [
            rng.standard_normal((width, m)) / np.sqrt(width), rng.standard_normal(m)]

    @staticmethod
    def op(heads, fn=T.norm_attention):
        return lambda *args: fn(*args, heads)

    @pytest.mark.parametrize("size", SHAPES)
    def test_matches_the_unfused_chain_bit_for_bit(self, size):
        groups, s, heads, hd, blocks = self.SHAPES[size]
        block = T._ATTENTION_BLOCK_FLOATS // (heads * s * s)
        assert -(-groups // block) == blocks
        rng = np.random.default_rng(34)
        values = self.values(rng, groups, s, heads, hd)
        proj = rng.standard_normal((groups, s, heads * hd))
        oracle = self.op(heads, with_residual(unfused_msa))
        for grads in self.GRADS:
            assert_fused_matches(self.op(heads), oracle, values, grads, proj)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(35)
        values = self.values(rng, 2, 3, 2, 2)
        proj = rng.standard_normal((2, 3, 4))
        _, grads = run_op(self.op(2), values, (True,) * 7, proj)
        # the key bias shifts every score of a row alike, so its gradient is
        # zero, which central differences read as about 4e-10
        assert_grads_match_fd(grads, values, lambda x, gamma, beta, w_qkv, b_qkv, w_o, b_o: (
            x + attention_oracle((layer_norm_formula(x) * gamma + beta) @ w_qkv + b_qkv, 2)
            @ w_o + b_o) * proj, floor=1e-4)

    def test_keeps_normalized_rows_and_inverse_sigma(self):
        # never the norm's output, q, k^T, v or the context
        rng = np.random.default_rng(36)
        values = self.values(rng, 3, 50, 2, 8)
        tensors = [Tensor(v, requires_grad=True) for v in values]
        out = T.norm_attention(*tensors, 2)
        kept = [a for a in closure_arrays(out._node)
                if not any(a is t.data for t in tensors)]
        assert sorted(a.shape for a in kept) == [(3, 50, 1), (3, 50, 16)]
        by_shape = {a.shape: a for a in kept}
        xhat = T.layer_norm(values[0], np.ones(16), np.zeros(16)).data
        mu = values[0].mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(((values[0] - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        assert np.array_equal(by_shape[xhat.shape], xhat)
        assert np.array_equal(by_shape[inv.shape], inv)

    @pytest.mark.parametrize("operand", range(7), ids=OPERANDS["norm_attention"])
    def test_one_operand_keeps_the_fully_taped_arrays(self, operand):
        rng = np.random.default_rng(37)
        values = self.values(rng, 3, 50, 2, 8)
        kept = assert_taped_per_call(self.op(2), values, operand, rng.standard_normal((3, 50, 16)))
        assert kept == [(3, 50, 1), (3, 50, 16)]

    def test_second_backward_raises(self):
        rng = np.random.default_rng(38)
        values = self.values(rng, 3, 50, 2, 8)
        tensors = [Tensor(v, requires_grad=True) for v in values]
        loss = proj_loss(T.norm_attention(*tensors, 2), rng.standard_normal((3, 50, 16)))
        loss.backward()
        grads = [t.grad.copy() for t in tensors]
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert all(t.grad.tobytes() == g.tobytes() for t, g in zip(tensors, grads))

    def test_shape_errors(self):
        rng = np.random.default_rng(39)
        values = self.values(rng, 2, 3, 2, 2)
        with pytest.raises(ShapeError):  # 2-D input
            T.norm_attention(values[0][0], *values[1:], 2)
        with pytest.raises(ShapeError):  # qkv width not a multiple of 3 * heads
            T.norm_attention(*values, 3)
        wider = self.values(rng, 2, 3, 2, 2, m=5)
        with pytest.raises(ShapeError, match=r"norm_attention adds its input back.* 5 out"):
            T.norm_attention(*wider, 2)

    @pytest.mark.parametrize("index, name", [(4, "b_qkv"), (6, "b_o")])
    def test_none_bias_raises_shape_error(self, index, name):
        values = self.values(np.random.default_rng(41), 2, 3, 2, 2)
        values[index] = None
        with pytest.raises(ShapeError, match=f"norm_attention .* {name}"):
            T.norm_attention(*values, 2)


def layer_norm_formula(x):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5)


def gelu_formula(h):
    from scipy.special import erf

    return h * 0.5 * (1 + erf(h / np.sqrt(2)))


def assert_grads_match_fd(grads, values, terms, floor=1e-6):
    """Each of ``grads`` against central differences of ``terms(*values).sum()``,
    relative to magnitudes of at least ``floor``."""
    for i, g in enumerate(grads):

        def f(v, i=i):
            args = list(values)
            args[i] = v
            return float(terms(*args).sum())

        assert max_rel_err(g, central_diff(f, values[i]), floor) < 1e-5, i


# the unfused chain a ``norm_ffn`` node stands for
ffn_oracle = with_residual(unfused_ffn)


class TestNormFFN:
    # (x, w1) shapes: 150 x 64 pre-activations take eight GELU chunks,
    # 1204 x 131 nine (``TestLinearGelu.SHAPES``)
    SHAPES = TestLinearGelu.SHAPES
    # every subset of (x, gamma, beta, w1, b1, w2, b2) that needs a
    # gradient; the empty one is a forward without a tape
    GRADS = TestNormAttention.GRADS

    @staticmethod
    def values(rng, x_shape, w_shape, m=None):
        # the node adds x back, so its output width m is x's unless a test
        # asks for a mismatch
        f = w_shape[1]
        m = x_shape[-1] if m is None else m
        return norm_values(rng, x_shape, w_shape) + [
            rng.standard_normal((f, m)) / np.sqrt(f), rng.standard_normal(m)]

    @pytest.mark.parametrize("size", SHAPES)
    def test_matches_the_unfused_chain_bit_for_bit(self, size):
        x_shape, w_shape = self.SHAPES[size]
        rng = np.random.default_rng(37)
        values = self.values(rng, x_shape, w_shape)
        proj = rng.standard_normal(x_shape)
        for grads in self.GRADS:
            assert_fused_matches(T.norm_ffn, ffn_oracle, values, grads, proj)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(38)
        values = self.values(rng, (2, 3, 4), (4, 5))
        proj = rng.standard_normal((2, 3, 4))
        _, grads = run_op(T.norm_ffn, values, (True,) * 7, proj)
        assert_grads_match_fd(grads, values, lambda x, gamma, beta, w1, b1, w2, b2: (
            x + gelu_formula((layer_norm_formula(x) * gamma + beta) @ w1 + b1) @ w2 + b2) * proj)

    def test_keeps_normalized_rows_inverse_sigma_and_pre_activation(self):
        # never the norm's output, GELU's output or its derivative
        rng = np.random.default_rng(39)
        values = self.values(rng, (3, 50, 16), (16, 64))
        tensors = [Tensor(v, requires_grad=True) for v in values]
        out = T.norm_ffn(*tensors)
        kept = [a for a in closure_arrays(out._node)
                if not any(a is t.data for t in tensors)]
        assert sorted(a.shape for a in kept) == [(3, 50, 1), (3, 50, 16), (150, 64)]
        by_shape = {a.shape: a for a in kept}
        xhat = T.layer_norm(values[0], np.ones(16), np.zeros(16)).data
        pre = T.linear(T.layer_norm(*values[:3]), *values[3:5]).data.reshape(150, 64)
        assert np.array_equal(by_shape[xhat.shape], xhat)
        assert by_shape[pre.shape].tobytes() == pre.tobytes()

    @pytest.mark.parametrize("operand", range(7), ids=OPERANDS["norm_ffn"])
    def test_one_operand_keeps_the_fully_taped_arrays(self, operand):
        rng = np.random.default_rng(42)
        values = self.values(rng, (3, 50, 16), (16, 64))
        kept = assert_taped_per_call(T.norm_ffn, values, operand, rng.standard_normal((3, 50, 16)))
        assert kept == [(3, 50, 1), (3, 50, 16), (150, 64)]

    def test_second_backward_raises(self):
        rng = np.random.default_rng(40)
        values = self.values(rng, (3, 50, 16), (16, 64))
        tensors = [Tensor(v, requires_grad=True) for v in values]
        loss = proj_loss(T.norm_ffn(*tensors), rng.standard_normal((3, 50, 16)))
        loss.backward()
        grads = [t.grad.copy() for t in tensors]
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert all(t.grad.tobytes() == g.tobytes() for t, g in zip(tensors, grads))

    def test_output_width_must_be_the_input_width(self):
        values = self.values(np.random.default_rng(43), (2, 3, 4), (4, 5), m=3)
        with pytest.raises(ShapeError, match=r"norm_ffn adds its input back.* 3 out"):
            T.norm_ffn(*values)

    @pytest.mark.parametrize("index, name", [(4, "b1"), (6, "b2")])
    def test_none_bias_raises_shape_error(self, index, name):
        values = self.values(np.random.default_rng(41), (2, 3, 4), (4, 5))
        values[index] = None
        with pytest.raises(ShapeError, match=f"norm_ffn .* {name}"):
            T.norm_ffn(*values)


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

    # (rows, trailing shape, index) for the gather's backward
    GATHER_CASES = {
        "duplicates": (5, (3, 4), np.random.default_rng(43).integers(0, 2, (60, 7))),
        "broadcast_view": (9, (6,), np.broadcast_to(np.arange(9), (4, 9))),  # as tokenize passes
        "empty": (4, (3,), np.zeros((0, 2), dtype=int)),
    }

    @pytest.mark.parametrize("case", GATHER_CASES)
    def test_gather_backward_is_add_at_bit_for_bit(self, case):
        rows, trailing, index = self.GATHER_CASES[case]
        rng = np.random.default_rng(44)
        g = rng.standard_normal(index.shape + trailing) * 10.0 ** rng.integers(-8, 9, trailing)
        # signed zeros: a cell that only -0.0 reaches reads +0.0, from np.add.at's zeros
        g[..., 0] = -0.0
        g.reshape(-1)[::3] = -0.0
        t = Tensor(rng.standard_normal((rows,) + trailing), requires_grad=True)
        proj_loss(T.gather_rows(t, index), g).backward()
        want = np.zeros(t.shape)
        np.add.at(want, index, g)
        assert t.grad.tobytes() == want.tobytes()

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


def attention_whole_batch(qkv, heads, g):
    """Forward and input gradient of the attention op with every group in
    one batched call: what the blocked op must match bit for bit."""
    groups, s, three_w = qkv.shape
    width = three_w // 3
    hd = width // heads
    scale = 1.0 / np.sqrt(hd)
    split = qkv.reshape(groups, s, 3, heads, hd)
    q = np.ascontiguousarray(split[:, :, 0].transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(split[:, :, 1].transpose(0, 2, 3, 1))
    v = np.ascontiguousarray(split[:, :, 2].transpose(0, 2, 1, 3))
    p = q @ kt
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(groups, s, width)
    g_ctx = g.reshape(groups, s, heads, hd).transpose(0, 2, 1, 3)
    dqkv = np.empty((groups, s, 3, heads, hd))
    d = dqkv.transpose(2, 0, 3, 1, 4)
    np.matmul(p.swapaxes(-1, -2), g_ctx, out=d[2])
    dp = g_ctx @ v.swapaxes(-1, -2)
    dp -= (dp * p).sum(axis=-1, keepdims=True)
    dp *= p
    dp *= scale
    np.matmul(dp, kt.swapaxes(-1, -2), out=d[0])
    d[1] = (q.swapaxes(-1, -2) @ dp).swapaxes(-1, -2)
    return out, dqkv.reshape(groups, s, three_w)


def blocks_forward(qkv, heads):
    """The context ``_attention_blocks`` writes for packed (groups, s, 3w) qkv."""
    ctx = np.empty(qkv.shape[:2] + (qkv.shape[2] // 3,))
    T._attention_blocks(*T._attention_heads(qkv, heads), ctx)
    return ctx


class TestAttention:
    """``_attention_blocks``, the walk under ``norm_attention``, called
    directly: forward alone, the gradient alone, and both in one walk, as
    ``norm_attention``'s backward calls it."""

    # a block holds 2**18 probabilities: 16 of these 37 groups, 1 of these
    # 5, and all 40 single-token groups
    @pytest.mark.parametrize("groups,s,heads,hd", [(37, 64, 4, 4), (5, 300, 2, 3), (40, 1, 2, 2)])
    def test_blocked_matches_whole_batch(self, groups, s, heads, hd):
        rng = np.random.default_rng(24)
        qkv = rng.standard_normal((groups, s, 3 * heads * hd))
        g = rng.standard_normal((groups, s, heads * hd))
        out_want, dqkv_want = attention_whole_batch(qkv, heads, g)
        assert blocks_forward(qkv, heads).tobytes() == out_want.tobytes()
        q, kt, v = T._attention_heads(qkv, heads)
        assert T._attention_blocks(q, kt, v, None, g).tobytes() == dqkv_want.tobytes()
        ctx = np.empty(out_want.shape)
        assert T._attention_blocks(q, kt, v, ctx, g).tobytes() == dqkv_want.tobytes()
        assert ctx.tobytes() == out_want.tobytes()

    def test_no_tape_holds_one_block_of_probabilities(self):
        groups, s, heads, hd = 70, 64, 2, 4
        qkv = np.random.default_rng(25).standard_normal((groups, s, 3 * heads * hd))
        q, kt, v = T._attention_heads(qkv, heads)
        tracemalloc.start()
        try:
            ctx = np.empty((groups, s, heads * hd))
            T._attention_blocks(q, kt, v, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_group = heads * s * s * 8
        block = T._ATTENTION_BLOCK_FLOATS * 8
        assert block < groups * per_group / 2
        # the context is a third of qkv; one block's row maxima (32 KiB) and
        # numpy's ufunc buffer (64 KiB) come on top
        assert peak <= qkv.nbytes / 3 + block + 2**17, peak

    def test_tape_holds_one_block_of_probabilities(self):
        # 10 blocks of 32 groups: all the probabilities would be 18.75 MiB
        groups, s, heads, hd = 300, 64, 2, 4
        rng = np.random.default_rng(26)
        qkv = rng.standard_normal((groups, s, 3 * heads * hd))
        g = rng.standard_normal((groups, s, heads * hd))
        q, kt, v = T._attention_heads(qkv, heads)
        ctx = np.empty(g.shape)
        block = T._ATTENTION_BLOCK_FLOATS * 8
        assert groups * heads * s * s * 8 > 9 * block
        tracemalloc.start()
        try:
            T._attention_blocks(q, kt, v, ctx, g)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dqkv plus one block's working set: its probabilities, their
        # gradient and the product whose row sums the softmax backward takes
        assert backward_peak <= qkv.nbytes + 3 * block + 2**17, backward_peak

    @pytest.mark.parametrize(
        "groups,s,heads,hd", [(2, 3, 2, 2), (1, 1, 2, 3), (3, 4, 1, 4), (2, 5, 3, 2)]
    )
    def test_forward_and_grad_match_oracle(self, groups, s, heads, hd):
        rng = np.random.default_rng(14)
        qkv = rng.standard_normal((groups, s, 3 * heads * hd))
        w = rng.standard_normal((groups, s, heads * hd))
        assert np.allclose(blocks_forward(qkv, heads), attention_oracle(qkv, heads),
                           rtol=0, atol=1e-12)
        g = T._attention_blocks(*T._attention_heads(qkv, heads), None, w)
        fd = central_diff(lambda v: float((attention_oracle(v, heads) * w).sum()), qkv)
        assert max_rel_err(g, fd) < 1e-5

    def test_single_token_passes_values_through(self):
        rng = np.random.default_rng(15)
        qkv = rng.standard_normal((3, 1, 12))
        assert np.array_equal(blocks_forward(qkv, 2), qkv[..., 8:])


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
    def test_add_constant_operand_matches_fd_and_stays_unchanged(self, const):
        # ``g`` goes to the one parent uncopied; the constant is never written
        rng = np.random.default_rng(21)
        x, c, w = rng.standard_normal((3, 3, 4))
        c_before = c.copy()
        xt = Tensor(x, requires_grad=True)
        proj_loss(T.add(*((xt, c) if const else (c, xt))), w).backward()
        fd = central_diff(lambda v: float(((v + c) * w).sum()), x)
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
        # both ops hand on a view of ``g``, which a leaf copies, so it keeps
        # no view of the op's gradient (a concat slice would keep its
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
    def test_second_backward_raises_and_keeps_the_first_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(3.0, T.add(x, 1.0)))
        loss.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_released_graph_refuses_a_second_walk(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = T.add(x, 1.0)
        loss = T.tsum(T.mul(3.0, mid))
        other = T.tsum(mid)  # shares ``mid``'s node with ``loss``
        loss.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])
        for root in (loss, other):
            with pytest.raises(RuntimeError, match="released"):
                root.backward()
        assert np.array_equal(x.grad, [3.0, 3.0])

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

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match="huber delta"):
            T.huber_loss(Tensor([1.0]), np.zeros(1), delta)

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
