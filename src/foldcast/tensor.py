"""Dense float64 tensors with reverse-mode automatic differentiation.

Every array the forecaster touches is a :class:`Tensor`: a numpy float64
buffer plus, when gradients are required, a small grad node. The node
holds the gradient flowing into the tensor, the nodes of the parents that
need one, and the closure that pushes an output gradient back to them.
The tape links nodes, not tensors: each closure keeps only the arrays its
backward reads. A generic op decides per operand: it keeps nothing for
(and computes no gradient for) a parent that needs no gradient. So an op
output that no backward reads, such as a perturbed token sum, is freed as
soon as the forward drops it.
Calling ``backward()`` on a scalar walks the nodes once in reverse
topological order. Evaluation is single-threaded and tensors are treated
as immutable after creation (the optimizer step on parameters is the one
sanctioned exception), so repeated forward passes over identical inputs
are bit-identical.

Fused ops keep the tape short: ``linear`` (x @ w + b as one node),
``linear_gelu`` (GELU written over that GEMM's own output, so no
pre-activation sits beside it), ``norm_attention`` (a pre-norm attention
sublayer that keeps the normalized rows and 1/sigma, one tokens x width
array, not five: its backward rebuilds the norm's output, q, k^T, v and
the context by the forward's own calls), ``norm_ffn`` (a pre-norm
feed-forward block that keeps the normalized rows, 1/sigma and the
pre-activation, one tokens x ffn array, not two: its backward rebuilds
GELU and its derivative). The two sublayer nodes decide per call, not
per operand: taped when any operand needs a gradient, they compute every
gradient, and an operand that needs none drops its own. Each returns
``x + sublayer(x)``: it adds its input ``x`` into its own output buffer,
and its backward hands ``x``'s node one gradient, the norm's plus the
output's, so neither a residual sum nor a copy of its gradient exists.

``norm_attention`` and GELU work through their input a cache-sized block
at a time: attention by groups, GELU by elements. Each group or element
goes through the operations of one whole-array pass in the same order,
so blocking changes no bit (a NaN's sign aside).
Attention's probabilities live one block at a time, in scratch: its
backward recomputes each block's by the forward's own calls, as in the
FlashAttention backward, so a graph holds no groups * heads * s^2
array. GELU's erf is cephes', the bits of ``scipy.special.erf``, computed
in numpy for every input: its rational where |x / sqrt(2)| <= 1 and
1 - erfc elsewhere, with libm's exp reached through numpy's complex exp.
So the package needs numpy alone.

Gradient ownership: a node's ``.grad`` array belongs to that node alone.
A node takes over its first gradient and adds later ones into it in
place. An interior gradient is dropped once its closure has run, so a
closure may overwrite its incoming ``g`` or hand it, or views of
disjoint parts of it (``concat_lastdim``, ``transpose``), on to its
parents. Only ``add`` copies: for its earlier parent, when both take
``g`` unreduced. A leaf keeps its gradient, so ``_accumulate`` copies a
leaf's first gradient when it is a view of another array.

Release: ``backward()`` drops each interior node's gradient, closure and
parent links as soon as the closure has run, so the graph's arrays are
freed as the walk goes (``linear`` drops its saved input rows, a
``norm_attention`` node its rebuilt q, k^T, v and context and a
``norm_ffn`` node its rebuilt GELU output, before it allocates dx) and a
second ``backward()`` through a released node raises.

``Tensor(data)`` copies ``data``; an op wraps a raw float64, C-ordered
array operand without a copy.
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class _Node:
    """One tape entry. A leaf's node has no parents and no closure."""

    __slots__ = ("requires_grad", "grad", "parents", "backward")

    def __init__(self, requires_grad, parents=(), backward=None):
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = parents
        self.backward = backward


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        # C order, so an op that flattens leading dims (``linear``) takes a
        # view rather than a second copy of a transposed input
        self.data = np.array(data, dtype=np.float64, order="C")
        self._node = _Node(bool(requires_grad))

    def _leaf_node(self):
        # an op output that recorded nothing becomes a leaf when a flag or
        # a gradient is set on it
        if self._node is None:
            self._node = _Node(False)
        return self._node

    @property
    def requires_grad(self):
        return self._node is not None and self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self._leaf_node().requires_grad = bool(flag)

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._leaf_node().grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from this scalar, visiting each node once in reverse
        topological order; gradients add where paths rejoin. The walk
        releases each node once its closure has run (see "Release" above),
        so a later ``backward()`` that reaches one raises ``RuntimeError``."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        root = self._leaf_node()
        order = []
        visited = {id(root)}
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node.parents is None:
                raise RuntimeError("backward() reached a node an earlier backward() released")
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node.backward(node.grad)
                node.grad = None  # interior: free it now
            node.backward = node.parents = None


def _as_tensor(x):
    """``x`` itself if a Tensor; else a constant wrapping it, copied only
    when it is not already a float64, C-ordered array."""
    if isinstance(x, Tensor):
        return x
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(x, dtype=np.float64, order="C")
    t._node = None
    return t


def _grad_node(t):
    """The node ``t``'s gradient flows into, or None when it needs none."""
    node = t._node
    return node if node is not None and node.requires_grad else None


def _from_op(data, nodes, backward):
    """Wrap an op's output. ``nodes`` are its operands' ``_grad_node``s;
    the closure is recorded only when one of them needs a gradient."""
    out = Tensor.__new__(Tensor)
    out.data = data
    parents = tuple(n for n in nodes if n is not None)
    out._node = _Node(True, parents, backward) if parents else None
    return out


def _accumulate(node, g):
    """Add ``g`` into ``node.grad``, or drop it when ``node`` is None; a
    first gradient is taken over as the node's own, except that a leaf
    copies a view (see "Gradient ownership" above)."""
    if node is None or not node.requires_grad:
        return
    if node.grad is None:
        g = np.asarray(g)
        node.grad = g.copy() if node.backward is None and g.base is not None else g
    else:
        node.grad += g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    na, nb = _grad_node(a), _grad_node(b)
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        # ``g`` itself goes, uncopied, to the last parent that takes it
        # unreduced; an earlier one gets a copy (``add(x, x)`` gives 2g)
        if na is not None:
            ga = _unbroadcast(g, a_shape)
            _accumulate(na, np.array(ga) if nb is not None and a_shape == g.shape else ga)
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, b_shape))

    return _from_op(data, (na, nb), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    na, nb = _grad_node(a), _grad_node(b)
    data = a.data * b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand is kept only for the other one's gradient
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, b_shape))

    return _from_op(data, (na, nb), backward)


def matmul(a, b):
    """Matrix product with broadcasting over leading batch dimensions; a
    2-D right operand is a bias-free ``linear``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return linear(a, b)
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    data = a.data @ b.data
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g @ b_data.swapaxes(-1, -2), a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(a_data.swapaxes(-1, -2) @ g, b_shape))

    return _from_op(data, (na, nb), backward)


def linear(x, w, b=None):
    """``x @ w + b`` as one node: one GEMM, the bias added in place.

    ``w`` is (k, n) and ``b`` is (n,), or None for no bias; leading
    dimensions of ``x`` are flattened into the GEMM's rows.
    """
    return _affine(x, w, b, activate=False)


def linear_gelu(x, w, b):
    """``gelu(linear(x, w, b))`` as one node, bit for bit.

    GELU is written over the GEMM's own output buffer, so no
    pre-activation sits beside its output; the node keeps the GELU
    derivative (only when a gradient is needed) in place of ``gelu``'s.
    """
    return _affine(x, w, b, activate=True)


def norm_attention(x, gamma, beta, w_qkv, b_qkv, w_o, b_o, heads):
    """``x`` plus ``layer_norm``, the qkv projection (q, k and v side by
    side, each in ``heads`` heads of width hd), softmax(Q K^T / sqrt(hd)) V
    and the output projection, as one node, bit for bit: a pre-norm
    attention sublayer with its residual over (groups, s, k) input. The
    output projection must map back to width k.

    Taped when any operand needs a gradient (one decision per call, not
    per operand), the node keeps the normalized rows and 1/sigma, never the
    layer norm's output, q, k^T, v or the context, and its backward
    computes every gradient. It rebuilds q, k^T and v by the forward's own
    calls, then the context block by block from the probabilities it
    rebuilds for attention's gradient, and the norm's output once more for
    ``w_qkv``'s gradient: one more qkv GEMM for the unfused chain's bits.
    ``x`` is added into the output in place, and the output's gradient
    into ``x``'s before ``x``'s node receives it.
    """
    _require_biases("norm_attention", b_qkv=b_qkv, b_o=b_o)
    x = _as_tensor(x)
    gamma, beta = _ln_affine(x, gamma, beta)
    w_qkv, b_qkv = _linear_operands(x.data.shape, w_qkv, b_qkv)
    x_shape = x.data.shape
    if x.ndim != 3 or w_qkv.data.shape[1] % (3 * heads):
        raise ShapeError(f"attention needs (groups, s, k) @ (k, 3 * heads * hd), "
                         f"got {x.shape} @ {w_qkv.shape}")
    groups, s, k = x_shape
    width = w_qkv.data.shape[1] // 3
    w_o, b_o = _linear_operands((groups, s, width), w_o, b_o)
    _require_residual("norm_attention", x_shape, w_o.data.shape)
    nodes = [_grad_node(t) for t in (x, gamma, beta, w_qkv, b_qkv, w_o, b_o)]
    nx, ng, nbeta, nwq, nbq, nwo, nbo = nodes
    taped = any(node is not None for node in nodes)
    gamma, beta = gamma.data, beta.data
    w_qkv, b_qkv, w_o, b_o = w_qkv.data, b_qkv.data, w_o.data, b_o.data
    xhat, inv = _ln_normalize(x.data)
    # with no tape nothing reads xhat again, so the norm's output overwrites it
    q, kt, v = _norm_qkv(xhat, gamma, beta, w_qkv, b_qkv, heads, out=None if taped else xhat)
    ctx = np.empty((groups, s, width))
    _attention_blocks(q, kt, v, ctx)
    q = kt = v = None
    data = ctx.reshape(-1, width) @ w_o
    ctx = None
    data += b_o
    data = data.reshape(x_shape)
    data += x.data

    def backward(g):
        # the context is rebuilt beside attention's gradient, so the
        # probabilities are built once per block; q, k^T, v and the context
        # go before the norm's output is rebuilt for dW_qkv
        g2 = g.reshape(-1, k)
        _accumulate(nbo, g.sum(axis=(0, 1)))
        q, kt, v = _norm_qkv(xhat, gamma, beta, w_qkv, b_qkv, heads)
        g_ctx = (g2 @ w_o.T).reshape(groups, s, width)
        ctx = np.empty((groups, s, width))
        dqkv = _attention_blocks(q, kt, v, ctx, g_ctx)
        q = kt = v = g_ctx = None
        _accumulate(nwo, ctx.reshape(-1, width).T @ g2)
        ctx = None
        d2 = dqkv.reshape(-1, 3 * width)
        _accumulate(nwq, _ln_scale_shift(xhat, gamma, beta).reshape(-1, k).T @ d2)
        _accumulate(nbq, dqkv.sum(axis=(0, 1)))
        dx = (d2 @ w_qkv.T).reshape(x_shape)
        dqkv = d2 = None
        _ln_backward(dx, xhat, inv, gamma, nx, ng, nbeta, residual=g)

    return _from_op(data, nodes, backward)


def _norm_qkv(xhat, gamma, beta, w, b, heads, out=None):
    """q, k^T and v (``_attention_heads``) of the qkv projection of the
    layer norm's output, which is written into a new array or ``out``."""
    rows = _ln_scale_shift(xhat, gamma, beta, out=out).reshape(-1, xhat.shape[-1])
    qkv = rows @ w
    del rows
    qkv += b
    return _attention_heads(qkv.reshape(xhat.shape[:-1] + (w.shape[1],)), heads)


def norm_ffn(x, gamma, beta, w1, b1, w2, b2):
    """``x + linear(gelu(linear(layer_norm(x, gamma, beta), w1, b1)), w2, b2)``
    as one node, bit for bit: a pre-norm feed-forward block with its
    residual. ``w2`` must map back to ``x``'s width.

    Taped when any operand needs a gradient (one decision per call, not
    per operand), the node keeps the normalized rows, 1/sigma and the
    pre-activation ``a``, never the layer norm's output, GELU's output or
    its derivative, and its backward computes every gradient. It rebuilds
    GELU and the derivative over ``a`` by the forward's own chunks, writes
    ``a``'s gradient over that output, and rebuilds the norm's output for
    ``w1``'s gradient: one more GELU pass for the unfused chain's bits.
    ``x`` is added into the output in place, and the output's gradient
    into ``x``'s before ``x``'s node receives it.
    """
    _require_biases("norm_ffn", b1=b1, b2=b2)
    x = _as_tensor(x)
    gamma, beta = _ln_affine(x, gamma, beta)
    w1, b1 = _linear_operands(x.data.shape, w1, b1)
    x_shape = x.data.shape
    k, f = w1.data.shape
    w2, b2 = _linear_operands(x_shape[:-1] + (f,), w2, b2)
    _require_residual("norm_ffn", x_shape, w2.data.shape)
    nodes = [_grad_node(t) for t in (x, gamma, beta, w1, b1, w2, b2)]
    nx, ng, nbeta, nw1, nb1, nw2, nb2 = nodes
    taped = any(node is not None for node in nodes)
    gamma, beta = gamma.data, beta.data
    w1, b1, w2, b2 = w1.data, b1.data, w2.data, b2.data
    xhat, inv = _ln_normalize(x.data)
    # with no tape nothing reads xhat or a again: the norm's output and GELU overwrite them
    rows = _ln_scale_shift(xhat, gamma, beta, out=None if taped else xhat).reshape(-1, k)
    a = rows @ w1
    del rows
    a += b1
    h = np.empty(a.shape) if taped else a
    _gelu_into(a, h, None)
    data = h @ w2
    del h
    data += b2
    data = data.reshape(x_shape)
    data += x.data

    def backward(g):
        # GELU's output and derivative are rebuilt over a; dW2 and db2 read
        # the output, then a's gradient is written over it
        nonlocal a
        lead = tuple(range(g.ndim - 1))
        g2 = g.reshape(-1, k)
        deriv = np.empty(a.shape)
        _gelu_into(a, a, deriv)
        _accumulate(nw2, a.T @ g2)
        _accumulate(nb2, g.sum(axis=lead))
        da = np.matmul(g2, w2.T, out=a)
        a = None
        da *= deriv
        del deriv
        _accumulate(nw1, _ln_scale_shift(xhat, gamma, beta).reshape(-1, k).T @ da)
        _accumulate(nb1, da.reshape(x_shape[:-1] + (f,)).sum(axis=lead))
        dx = (da @ w1.T).reshape(x_shape)
        del da
        _ln_backward(dx, xhat, inv, gamma, nx, ng, nbeta, residual=g)

    return _from_op(data, nodes, backward)


def _linear_operands(x_shape, w, b):
    """``w`` and ``b`` as tensors, checked as ``linear``'s weight and bias
    (or None) for an input of shape ``x_shape``."""
    w = _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if len(x_shape) < 2 or w.ndim != 2:
        raise ShapeError(f"linear needs ndim >= 2 input, 2-D weight: {x_shape} @ {w.shape}")
    k, n = w.data.shape
    b_shape = None if b is None else b.data.shape
    if x_shape[-1] != k or b_shape not in (None, (n,)):
        raise ShapeError(f"linear shapes disagree: {x_shape} @ {w.shape} + {b_shape}")
    return w, b


def _require_biases(op, **biases):
    """Reject a None bias of a fused node, which always adds its biases."""
    for name, b in biases.items():
        if b is None:
            raise ShapeError(f"{op} needs a bias array for {name}, got None")


def _require_residual(op, x_shape, w_shape):
    """Reject a sublayer whose output projection ``w_shape`` changes the
    width of its input ``x_shape``: the node adds its input back."""
    if w_shape[1] != x_shape[-1]:
        raise ShapeError(f"{op} adds its input back, so its output width must be "
                         f"the input's: {x_shape} in, {w_shape[1]} out")


def _affine(x, w, b, activate):
    """``linear``, followed in place by GELU when ``activate``."""
    x = _as_tensor(x)
    w, b = _linear_operands(x.data.shape, w, b)
    k, n = w.data.shape
    nx, nw = _grad_node(x), _grad_node(w)
    nb = None if b is None else _grad_node(b)
    x_shape = x.data.shape
    rows = x.data if x.ndim == 2 else np.ascontiguousarray(x.data).reshape(-1, k)
    data = rows @ w.data
    x_rows = rows if nw is not None else None
    del rows
    if b is not None:
        data += b.data
    data = data.reshape(x_shape[:-1] + (n,))
    taped = any(node is not None for node in (nx, nw, nb))
    deriv = np.empty(data.shape) if activate and taped else None
    if activate:
        _gelu_into(data, data, deriv)
    w_data = w.data if nx is not None else None

    def backward(g):
        # dW and db first, then the saved input rows and the GELU
        # derivative go before dx is allocated
        nonlocal deriv, x_rows
        if deriv is not None:
            g *= deriv
        g2 = g.reshape(-1, n)
        if nw is not None:
            _accumulate(nw, x_rows.T @ g2)
        if nb is not None:
            _accumulate(nb, g.sum(axis=tuple(range(g.ndim - 1))))
        deriv = x_rows = None
        if nx is not None:
            _accumulate(nx, (g2 @ w_data.T).reshape(x_shape))

    return _from_op(data, (nx, nw, nb), backward)


def tsum(t):
    """Sum of every element: a 0-d tensor."""
    t = _as_tensor(t)
    node = _grad_node(t)
    shape = t.data.shape
    data = t.data.sum()

    def backward(g):
        _accumulate(node, np.broadcast_to(g, shape).copy())

    return _from_op(np.asarray(data), (node,), backward)


def reshape(t, shape):
    t = _as_tensor(t)
    node = _grad_node(t)
    in_shape = t.data.shape
    data = t.data.reshape(shape)

    def backward(g):
        _accumulate(node, g.reshape(in_shape))

    return _from_op(data, (node,), backward)


def transpose(t, axes):
    t = _as_tensor(t)
    node = _grad_node(t)
    data = np.transpose(t.data, axes).copy()
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(node, np.transpose(g, inverse))

    return _from_op(data, (node,), backward)


def concat_lastdim(parts):
    """Concatenate along the last dimension; gradient splits back exactly."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_lastdim needs at least one part")
    lead = parts[0].data.shape[:-1]
    for p in parts[1:]:
        if p.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat_lastdim leading shapes disagree: {parts[0].shape} vs {p.shape}"
            )
    data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])
    nodes = [_grad_node(p) for p in parts]

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                _accumulate(node, g[..., lo:hi])

    return _from_op(data, nodes, backward)


def slice_lastdim(t, start, stop):
    t = _as_tensor(t)
    node = _grad_node(t)
    shape = t.data.shape
    data = t.data[..., start:stop].copy()

    def backward(g):
        full = np.zeros(shape)
        full[..., start:stop] = g
        _accumulate(node, full)

    return _from_op(data, (node,), backward)


def gather_rows(t, index):
    """Select rows of ``t`` along axis 0 by an integer array.

    Output shape is ``index.shape + t.shape[1:]``; the gradient
    scatter-adds back into the selected rows, so repeated indices
    accumulate (this carries embedding-table gradients).
    """
    t = _as_tensor(t)
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= t.data.shape[0]):
        raise IndexError(f"gather_rows index out of range for {t.data.shape[0]} rows")
    node = _grad_node(t)
    shape = t.data.shape
    data = t.data[index]

    def backward(g):
        # np.add.at's bits: each flat cell adds its terms in index order from +0.0
        width = int(np.prod(shape[1:]))
        cells = (index.reshape(-1, 1).astype(np.intp) * width + np.arange(width)).ravel()
        full = np.bincount(cells, weights=g.ravel(), minlength=shape[0] * width)
        _accumulate(node, full.reshape(shape))

    return _from_op(data, (node,), backward)


def softmax_lastdim(x):
    """Numerically stabilized softmax over the last dimension."""
    x = _as_tensor(x)
    node = _grad_node(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(node, (g - inner) * data)

    return _from_op(data, (node,), backward)


# Probabilities one attention block holds: 2 MiB of float64.
_ATTENTION_BLOCK_FLOATS = 2**18


def _attention_heads(qkv, heads):
    """q, k^T and v of a packed (groups, s, 3w) array, each an array of its
    own: q and v (groups, h, s, hd), k^T (groups, h, hd, s)."""
    groups, s, three_w = qkv.shape
    split = qkv.reshape(groups, s, 3, heads, three_w // (3 * heads))
    q = np.ascontiguousarray(split[:, :, 0].transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(split[:, :, 1].transpose(0, 2, 3, 1))
    v = np.ascontiguousarray(split[:, :, 2].transpose(0, 2, 1, 3))
    return q, kt, v


def _attention_blocks(q, kt, v, ctx, g=None):
    """Walk attention's groups a block at a time. Each block's
    probabilities softmax(q k^T / sqrt(hd)) are built once, in one block's
    scratch, by the same calls in every direction, so a backward rebuilds
    the forward's bits. Unless ``ctx`` is None, P v goes into ``ctx``, the
    (groups, s, w) merged-head context. Given the context's gradient ``g``
    (groups, s, w), returns the gradient of the packed (groups, s, 3w)
    qkv."""
    groups, heads, s, hd = q.shape
    scale = 1.0 / np.sqrt(hd)
    block = max(1, _ATTENTION_BLOCK_FLOATS // (heads * s * s))
    if ctx is not None:
        ctx = ctx.reshape(groups, s, heads, hd)
    if g is not None:
        g = g.reshape(groups, s, heads, hd).transpose(0, 2, 1, 3)
        # dq, dk, dv land in qkv's own layout, so the reshape is a view
        dqkv = np.empty((groups, s, 3, heads, hd))
        d = dqkv.transpose(2, 0, 3, 1, 4)  # (3, groups, h, s, hd)
    scratch = np.empty((min(block, groups), heads, s, s))
    for lo in range(0, groups, block):
        b = slice(lo, lo + block)
        qb, ktb, vb = q[b], kt[b], v[b]
        p = scratch[: len(qb)]
        np.matmul(qb, ktb, out=p)
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        if ctx is not None:
            np.matmul(p, vb, out=ctx[b].transpose(0, 2, 1, 3))
        if g is not None:
            gb = g[b]
            np.matmul(p.swapaxes(-1, -2), gb, out=d[2, b])
            dp = gb @ vb.swapaxes(-1, -2)
            dp -= (dp * p).sum(axis=-1, keepdims=True)
            dp *= p
            dp *= scale
            np.matmul(dp, ktb.swapaxes(-1, -2), out=d[0, b])
            d[1, b] = (qb.swapaxes(-1, -2) @ dp).swapaxes(-1, -2)
    return None if g is None else dqkv.reshape(groups, s, 3 * heads * hd)


_LN_EPS = 1e-5  # added to the variance


def layer_norm(x, gamma, beta):
    """Normalize each last-dim slice to zero mean / unit population variance,
    then scale and shift. ``gamma``/``beta`` are 1-D of the last-dim length."""
    x = _as_tensor(x)
    gamma, beta = _ln_affine(x, gamma, beta)
    nx, ng, nb = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    xhat, inv = _ln_normalize(x.data)
    data = _ln_scale_shift(xhat, gamma.data, beta.data)
    gamma_data = gamma.data

    def backward(g):
        _ln_backward(g, xhat, inv, gamma_data, nx, ng, nb)

    return _from_op(data, (nx, ng, nb), backward)


# The layer-norm formulas, shared by ``layer_norm`` and the fused
# ``norm_attention`` and ``norm_ffn`` nodes so that all compute the same bits.


def _ln_affine(x, gamma, beta):
    """``gamma`` and ``beta`` as tensors, checked against ``x``'s last dim."""
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    n = x.data.shape[-1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} "
            f"do not match last dim {n}"
        )
    return gamma, beta


def _ln_normalize(x):
    """(xhat, 1/sigma): ``x``'s last-dim slices at zero mean and unit variance."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    return xhat, inv


def _ln_scale_shift(xhat, gamma, beta, out=None):
    """The layer norm's output ``xhat * gamma + beta``, in a new array or ``out``."""
    y = np.multiply(xhat, gamma, out=out)
    y += beta
    return y


def _ln_backward(g, xhat, inv, gamma, nx, ng, nb, residual=None):
    """Push the layer norm output's gradient ``g`` to the nodes of beta,
    gamma and x that need one; a sublayer node's ``residual``, the gradient
    of its output, is added into x's before x's node receives it."""
    lead = tuple(range(g.ndim - 1))
    if nb is not None:
        _accumulate(nb, g.sum(axis=lead))
    if ng is not None:
        _accumulate(ng, (g * xhat).sum(axis=lead))
    if nx is not None:
        dxhat = g * gamma
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        if residual is not None:
            dx += residual
        _accumulate(nx, dx)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Elements per GELU pass: a pass's buffers stay in cache.
_GELU_CHUNK = 2**15
# cephes' erf (Moshier's ndtr.c, after Cody 1969), whose coefficient tables
# leave out the leading 1 of the p1evl denominators U, Q and S. For
# |a| <= 1: a * polevl(a^2, T) / p1evl(a^2, U).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# Elsewhere 1 - erfc(|a|), with erfc(x) = exp(-x^2) * polevl(x, P) / p1evl(x, Q).
# cephes takes other coefficients from x = 8 on, but there erfc(x) <= 1.1e-29,
# so 1 - erfc rounds to 1.0 whichever rational computes it.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 where x^2 > MAXLOG


def _polevl(x, coefs, out):
    """cephes' polevl(x, coefs): Horner's rule from ``coefs[0]``, into ``out``."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coefs, out):
    """cephes' p1evl(x, coefs): ``_polevl`` with a leading 1 before ``coefs``."""
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erf_inplace(a, z, p, q):
    """Overwrite ``a`` with cephes' erf(a), the bits of ``scipy.special.erf``.

    Where a^2 <= 1 this is cephes' rational, in cephes' operation order;
    ``z``, ``p`` and ``q`` are scratch of ``a``'s shape. Every other
    element (|a| > 1, inf, NaN) is gathered for ``_erf_far``, which works
    in the scratch's leading elements once the rational is done.
    """
    np.multiply(a, a, out=z)
    _polevl(z, _ERF_T, p)
    _p1evl(z, _ERF_U, q)
    # integer indices: a boolean mask gathers and scatters ~10x slower
    far = np.flatnonzero(~(z <= 1.0))
    a_far = a[far]
    p *= a
    np.divide(p, q, out=a)
    m = far.size
    if m:
        a[far] = _erf_far(a_far, z[:m], p[:m], q[:m])


def _erf_far(a, x, p, q):
    """cephes' erf(a) = 1 - erfc(|a|), its sign copied back, for elements
    with |a| > 1, inf or NaN, in cephes' operation order; ``x``, ``p`` and
    ``q`` are scratch of ``a``'s shape, and the result is returned in ``p``.

    cephes calls libm's exp. numpy's float64 exp does not match it bit for
    bit, but its complex exp, given a zero imaginary part, computes the
    real part by libm's exp, so that is the exp used here.
    """
    np.abs(a, out=x)
    np.negative(x, out=p)
    p *= x  # z = -x * x
    # cephes' erfc returns 0 where z < -MAXLOG, before its exp; this also
    # makes erfc(inf) 0, and P / Q's inf / inf from x of about 1e39 on
    zero = p < -_ERFC_MAXLOG
    e = p.astype(np.complex128)
    np.exp(e, out=e)
    e = e.real
    # cephes' (z * p) / q, its z now exp(-x * x)
    y = np.multiply(e, _polevl(x, _ERFC_P, p), out=p)
    y /= _p1evl(x, _ERFC_Q, q)
    y[zero] = 0.0
    np.subtract(1.0, y, out=y)
    np.copysign(y, a, out=y)  # erf(-x) = -erf(x)
    y[np.isnan(a)] = np.nan  # cephes' NaN, whatever the input NaN's sign and payload
    return y


def gelu(x):
    """Exact-erf GELU: x * Phi(x).

    When ``x`` needs a gradient the forward also computes the derivative
    Phi(x) + x * phi(x), the one array the backward keeps. Both come from
    ``_gelu_into``, which ``linear_gelu`` and ``norm_ffn`` share.
    """
    x = _as_tensor(x)
    node = _grad_node(x)
    out = np.empty(x.data.shape)
    deriv = np.empty(x.data.shape) if node is not None else None
    _gelu_into(x.data, out, deriv)

    def backward(g):
        g *= deriv
        _accumulate(node, g)

    return _from_op(out, (node,), backward)


def _gelu_into(x, out, deriv):
    """Write GELU(x) into ``out`` and, unless ``deriv`` is None, its
    derivative into ``deriv``; ``out`` and ``deriv`` are C-ordered arrays
    of ``x``'s shape.

    ``out`` may be ``x`` itself: each chunk's input is then copied to a
    scratch row before the chunk is overwritten. The output is written
    into the Phi(x) buffer. Both are computed a cache-sized chunk at a time,
    each element by the same operations in the same order.
    """
    in_place = out is x
    x, out = x.reshape(-1), out.reshape(-1)
    if deriv is not None:
        deriv = deriv.reshape(-1)
    n = x.size
    # Chunks of n // 8, at most 2**15 elements: the scratch is 3 chunk rows
    # (in place, 4), so under half the output, and ``_erf_far``'s
    # temporaries add up to 3 rows more.
    chunk = max(1, min(_GELU_CHUNK, n // 8))
    scratch = np.empty((3, chunk))
    x_row = np.empty(chunk) if in_place else None
    # the rationals overflow to inf / inf, or 0 * inf, on elements that
    # the far branch redoes or zeroes
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, chunk):
            xc, cdf = x[lo : lo + chunk], out[lo : lo + chunk]
            if x_row is not None:
                x_row[: len(xc)] = xc
                xc = x_row[: len(xc)]
            np.multiply(xc, _INV_SQRT2, out=cdf)
            _erf_inplace(cdf, *scratch[:, : len(xc)])
            cdf += 1.0
            cdf *= 0.5
            if deriv is not None:
                # cdf + x * pdf with pdf = exp(-x^2 / 2) / sqrt(2 pi)
                dc = deriv[lo : lo + chunk]
                np.multiply(xc, -0.5, out=dc)
                dc *= xc
                np.exp(dc, out=dc)
                dc *= _INV_SQRT2PI
                dc *= xc
                dc += cdf
            np.multiply(xc, cdf, out=cdf)


def huber_loss(pred, target, delta, include=None):
    """Mean Huber loss over the included entries.

    Quadratic for |error| <= delta, linear beyond; the two branches agree
    in value and slope at the knee. ``include`` is an optional boolean
    mask broadcastable to ``pred``; entries outside it contribute nothing
    to the mean or the gradient.
    """
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if not 0 < delta < np.inf:  # written so that NaN fails too
        raise ValueError(f"huber delta must be finite and > 0, got {delta}")
    if target.shape != pred.data.shape:
        raise ShapeError(f"huber shapes disagree: {pred.shape} vs {target.shape}")
    node = _grad_node(pred)
    if include is None:
        inc = np.ones_like(pred.data, dtype=bool)
    else:
        inc = np.broadcast_to(np.asarray(include, dtype=bool), pred.data.shape)
    count = int(inc.sum())
    if count == 0:
        raise ValueError("huber_loss: every entry is excluded")
    err = pred.data - target
    a = np.abs(err)
    per = np.where(a <= delta, 0.5 * err * err, delta * (a - 0.5 * delta))
    data = np.asarray((per * inc).sum() / count)

    def backward(g):
        _accumulate(node, g * inc * np.clip(err, -delta, delta) / count)

    return _from_op(data, (node,), backward)


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.step = 0


_ADAM_BETAS = (0.9, 0.999)  # moment decay rates
_ADAM_EPS = 1e-8  # added to the second moment's root


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place on ``params``.

    ``params`` maps name -> Tensor, ``grads`` maps name -> ndarray (missing
    or None means zero gradient). Mutating parameter data here is the one
    place tensors change after creation; callers must not run it
    concurrently with a forward pass over the same parameters.
    """
    beta1, beta2 = _ADAM_BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: grad shape {g.shape} does not match "
                f"param {name} shape {p.data.shape}"
            )
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), one temporary
        denom = np.sqrt(v)
        denom *= 1.0 / np.sqrt(bc2)
        denom += _ADAM_EPS
        np.divide(m, denom, out=denom)
        denom *= lr / bc1
        p.data -= denom
    return state
