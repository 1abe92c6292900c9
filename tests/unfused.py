"""The unfused chains of public ops that ``tensor.norm_attention`` and
``tensor.norm_ffn`` stand for.

Built from the generic ops alone (``layer_norm``, ``linear``,
``slice_lastdim``, ``reshape``, ``transpose``, ``matmul``, ``mul``,
``softmax_lastdim``, ``gelu``, ``add``), so they share no code with the
fused nodes' blocked attention walk, chunked GELU or in-place residual and
can hold those nodes to the chains' bits.
"""
import numpy as np

import foldcast.tensor as T


def unfused_msa(x, gamma, beta, w_qkv, b_qkv, w_o, b_o, heads):
    """Pre-norm multi-head self-attention over (groups, s, k) ``x``, without
    its residual."""
    qkv = T.linear(T.layer_norm(x, gamma, beta), w_qkv, b_qkv)
    groups, s, three_w = qkv.shape
    width = three_w // 3
    head_dim = width // heads
    q, k, v = (T.transpose(T.reshape(T.slice_lastdim(qkv, lo, lo + width),
                                     (groups, s, heads, head_dim)), (0, 2, 1, 3))
               for lo in (0, width, 2 * width))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(head_dim))
    ctx = T.matmul(T.softmax_lastdim(scores), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (groups, s, width))
    return T.linear(ctx, w_o, b_o)


def unfused_ffn(x, gamma, beta, w1, b1, w2, b2):
    """The pre-norm feed-forward block over ``x``, without its residual."""
    return T.linear(T.gelu(T.linear(T.layer_norm(x, gamma, beta), w1, b1)), w2, b2)


def with_residual(sublayer):
    """``sublayer`` with its input added back by a generic ``add``, as
    ``add(sublayer(x, ...), x)``: the chain a fused sublayer node stands for."""
    return lambda x, *args: T.add(sublayer(x, *args), x)
