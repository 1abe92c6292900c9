"""The unfused chain of public ops that ``tensor.norm_attention`` stands for.

Built from the generic ops alone (``layer_norm``, ``linear``,
``slice_lastdim``, ``reshape``, ``transpose``, ``matmul``, ``mul``,
``softmax_lastdim``), so it shares no code with the fused node's blocked
attention walk and can hold that node to the chain's bits.
"""
import numpy as np

import foldcast.tensor as T


def unfused_msa(x, gamma, beta, w_qkv, b_qkv, w_o, b_o, heads):
    """Pre-norm multi-head self-attention over (groups, s, k) ``x``."""
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
