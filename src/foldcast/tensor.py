"""Dense float64 tensors with reverse-mode automatic differentiation.

Every array the forecaster touches is a :class:`Tensor`: a numpy float64
buffer plus, when gradients are required, a small grad node. The node
holds the gradient flowing into the tensor, the nodes of the parents that
need one, and the closure that pushes an output gradient back to them.
The tape links nodes, not tensors: each closure keeps only the arrays its
backward reads, and an op keeps nothing for (and computes no gradient
for) a parent that needs no gradient. So an op output that no backward
reads, such as a residual sum, is freed as soon as the forward drops it.
Calling ``backward()`` on a scalar walks the nodes once in reverse
topological order. Evaluation is single-threaded and tensors are treated
as immutable after creation (the optimizer step on parameters is the one
sanctioned exception), so repeated forward passes over identical inputs
are bit-identical.

Two fused ops keep the tape short: ``linear`` (x @ w + b as one node) and
``attention`` (multi-head softmax(QK^T/sqrt(hd))V over a packed qkv tensor,
with a hand-written backward).

Gradient ownership: a node's ``.grad`` array belongs to that node alone.
A node takes over its first gradient without a copy and adds later ones
into it in place, so an op hands each parent an array no other node
holds. ``backward()`` drops each interior gradient once its closure has
run, so a closure may overwrite its incoming ``g`` or pass it (or a view
of it) on to one parent. Only ``add`` (for its earlier parent, when both
take ``g`` unreduced), ``concat_lastdim`` (each slice) and ``transpose``
(its inverse view) copy a gradient before handing it on. After
``backward()`` only leaf tensors keep ``.grad``, so calling ``backward()``
again on the same graph adds exactly one more gradient to each leaf.
``Tensor(data)`` copies ``data``; an op wraps a raw float64, C-ordered
array operand without a copy.
"""
from __future__ import annotations

import numpy as np
from scipy.special import erf

_DEBUG_CHECKS = False


def set_debug_checks(enabled):
    """Toggle post-op finiteness assertions. Slow; meant for tests."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


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
        """Backpropagate from this scalar through the recorded graph.

        Each node is visited exactly once, in reverse topological order;
        gradients accumulate by addition where paths rejoin.
        """
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
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                node.grad = None  # interior: free it now; leaves keep theirs


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
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite value produced by tensor op")
    return out


def _accumulate(node, g):
    """Add ``g`` into ``node.grad``; a first gradient is taken over as the
    node's own (see "Gradient ownership" above)."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.asarray(g)
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
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear needs ndim >= 2 input, 2-D weight: {x.shape} @ {w.shape}")
    k, n = w.data.shape
    b_shape = None if b is None else b.data.shape
    if x.data.shape[-1] != k or b_shape not in (None, (n,)):
        raise ShapeError(f"linear shapes disagree: {x.shape} @ {w.shape} + {b_shape}")
    nx, nw = _grad_node(x), _grad_node(w)
    nb = None if b is None else _grad_node(b)
    x_shape = x.data.shape
    x2 = x.data if x.ndim == 2 else np.ascontiguousarray(x.data).reshape(-1, k)
    data = x2 @ w.data
    if b is not None:
        data += b.data
    data = data.reshape(x_shape[:-1] + (n,))
    w_data = w.data if nx is not None else None
    x_rows = x2 if nw is not None else None

    def backward(g):
        g2 = g.reshape(-1, n)
        if nx is not None:
            _accumulate(nx, (g2 @ w_data.T).reshape(x_shape))
        if nw is not None:
            _accumulate(nw, x_rows.T @ g2)
        if nb is not None:
            _accumulate(nb, g.sum(axis=tuple(range(g.ndim - 1))))

    return _from_op(data, (nx, nw, nb), backward)


def tsum(t, axis=None, keepdims=False):
    t = _as_tensor(t)
    node = _grad_node(t)
    shape = t.data.shape
    data = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
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
        _accumulate(node, np.array(np.transpose(g, inverse)))

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
                _accumulate(node, np.array(g[..., lo:hi]))

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
        full = np.zeros(shape)
        np.add.at(full, index, g)
        _accumulate(node, full)

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


def attention(qkv, heads):
    """Multi-head self-attention over packed projections, as one node.

    ``qkv`` is (groups, s, 3w): queries, keys and values side by side, each
    split into ``heads`` heads of width hd = w / heads. Returns the
    (groups, s, w) merged-head context softmax(Q K^T / sqrt(hd)) V. The
    backward keeps the probabilities, q, k^T and v, each an array of its
    own; k itself is not kept.
    """
    qkv = _as_tensor(qkv)
    if qkv.ndim != 3 or qkv.data.shape[-1] % (3 * heads):
        raise ShapeError(f"attention needs (groups, s, 3 * heads * hd), got {qkv.shape}")
    node = _grad_node(qkv)
    groups, s, three_w = qkv.data.shape
    width = three_w // 3
    head_dim = width // heads
    scale = 1.0 / np.sqrt(head_dim)
    split = qkv.data.reshape(groups, s, 3, heads, head_dim)
    # q and v are (groups, h, s, hd), kt is (groups, h, hd, s)
    q = np.ascontiguousarray(split[:, :, 0].transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(split[:, :, 1].transpose(0, 2, 3, 1))
    v = np.ascontiguousarray(split[:, :, 2].transpose(0, 2, 1, 3))
    p = q @ kt
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = (p @ v).transpose(0, 2, 1, 3).reshape(groups, s, width)

    def backward(g):
        g_ctx = g.reshape(groups, s, heads, head_dim).transpose(0, 2, 1, 3)
        # dq, dk, dv land in qkv's own layout, so the reshape is a view
        dqkv = np.empty((groups, s, 3, heads, head_dim))
        d = dqkv.transpose(2, 0, 3, 1, 4)  # (3, groups, h, s, hd)
        np.matmul(p.swapaxes(-1, -2), g_ctx, out=d[2])
        dp = g_ctx @ v.swapaxes(-1, -2)
        dp -= (dp * p).sum(axis=-1, keepdims=True)
        dp *= p
        dp *= scale
        np.matmul(dp, kt.swapaxes(-1, -2), out=d[0])
        d[1] = (q.swapaxes(-1, -2) @ dp).swapaxes(-1, -2)
        _accumulate(node, dqkv.reshape(groups, s, three_w))

    return _from_op(data, (node,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each last-dim slice to zero mean / unit population variance,
    then scale and shift. ``gamma``/``beta`` are 1-D of the last-dim length."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    n = x.data.shape[-1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} "
            f"do not match last dim {n}"
        )
    nx, ng, nb = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data
    gamma_data = gamma.data if nx is not None else None

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if nb is not None:
            _accumulate(nb, g.sum(axis=lead))
        if ng is not None:
            _accumulate(ng, (g * xhat).sum(axis=lead))
        if nx is not None:
            dxhat = g * gamma_data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            _accumulate(nx, dx)

    return _from_op(data, (nx, ng, nb), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    """Exact-erf GELU: x * Phi(x).

    When ``x`` needs a gradient the forward also computes the derivative
    Phi(x) + x * phi(x), the one array the backward keeps; the output is
    written into the Phi(x) buffer.
    """
    x = _as_tensor(x)
    node = _grad_node(x)
    x_data = x.data
    cdf = np.multiply(x_data, _INV_SQRT2, out=np.empty_like(x_data))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    deriv = None
    if node is not None:
        # cdf + x * pdf with pdf = exp(-x^2 / 2) / sqrt(2 pi)
        deriv = np.multiply(x_data, -0.5, out=np.empty_like(x_data))
        deriv *= x_data
        np.exp(deriv, out=deriv)
        deriv *= _INV_SQRT2PI
        deriv *= x_data
        deriv += cdf
    data = np.multiply(x_data, cdf, out=cdf)

    def backward(g):
        g *= deriv
        _accumulate(node, g)

    return _from_op(data, (node,), backward)


def huber_loss(pred, target, delta, include=None):
    """Mean Huber loss over the included entries.

    Quadratic for |error| <= delta, linear beyond; the two branches agree
    in value and slope at the knee. ``include`` is an optional boolean
    mask broadcastable to ``pred``; entries outside it contribute nothing
    to the mean or the gradient.
    """
    pred = _as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if delta <= 0:
        raise ValueError(f"huber delta must be positive, got {delta}")
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


def adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """One bias-corrected Adam update, in place on ``params``.

    ``params`` maps name -> Tensor, ``grads`` maps name -> ndarray (missing
    or None means zero gradient). Mutating parameter data here is the one
    place tensors change after creation; callers must not run it
    concurrently with a forward pass over the same parameters.
    """
    beta1, beta2 = betas
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
        denom += eps
        np.divide(m, denom, out=denom)
        denom *= lr / bc1
        p.data -= denom
    return state
