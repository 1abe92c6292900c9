"""Pre-norm transformer encoder over visible tokens plus an MLP head.

Attention is confined within each subgraph: the (groups x s x width)
token tensor batches groups along the leading axis, so a token attends
only to the s-1 peers sharing its group. There is no positional encoding;
slot order within a group carries no meaning and the encoder is
permutation-equivariant over it.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .tensor import Tensor

TFG = "TFG"
SF = "SF"
TOKEN_PARTS = {TFG: 4, SF: 3}  # d-wide embeddings per token; SF has no spatial one


class ModelParams:
    """Ordered name -> Tensor mapping; the insertion order is the stable
    checkpoint manifest order."""

    def __init__(self):
        self.tensors = {}

    def add(self, name, data):
        """Register ``data`` as ``name``, without a copy where ``_owned`` allows."""
        t = Tensor(0.0, requires_grad=True)
        t.data = _owned(data)
        self.tensors[name] = t
        return t

    def __getitem__(self, name):
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def manifest(self):
        return {name: t.shape for name, t in self.tensors.items()}

    def param_count(self):
        return sum(t.size for t in self.tensors.values())

    def zero_grads(self):
        for t in self.tensors.values():
            t.grad = None

    def grads(self):
        return {name: t.grad for name, t in self.tensors.items() if t.grad is not None}

    @contextmanager
    def no_grad(self):
        """Context in which forwards record no tape: every parameter's
        ``requires_grad`` is cleared on entry, and each flag is restored on
        exit, also when the body raises."""
        saved = [(t, t.requires_grad) for t in self.tensors.values()]
        for t, _ in saved:
            t.requires_grad = False
        try:
            yield self
        finally:
            for t, flag in saved:
                t.requires_grad = flag

    def clone_data(self):
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_data(self, blobs):
        """Point each parameter at ``blobs[name]``. An array that is
        float64, C-ordered, writable and owns its memory is taken over as
        it is, so the caller must not use ``blobs`` afterwards; any other
        is copied."""
        for name, t in self.tensors.items():
            t.data = _owned(blobs[name])


def _owned(data):
    """``data`` itself when it is a float64, C-ordered, writable array that
    owns its memory; else such a copy of it."""
    if (isinstance(data, np.ndarray) and data.dtype == np.float64 and data.flags.c_contiguous
            and data.flags.writeable and data.flags.owndata):
        return data
    return np.array(data, dtype=np.float64, order="C")


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_params(config, n_nodes, frequency, rng):
    """Initialize all learnable arrays for ``config`` (a ``TrainConfig``)
    over ``n_nodes`` nodes: uniform(+-1/sqrt(fan_in)) for projections,
    normal(0, 0.02) for embedding tables, zeros for biases, ones/zeros for
    layer-norm affines."""
    params = ModelParams()
    d = config.embed_dim
    f = config.ffn_dim
    w = config.width
    _, features, outputs = config.folded_shape(n_nodes)
    params.add("embed.wx", _uniform(rng, features, (features, d)))
    params.add("embed.wx_b", np.zeros(d))
    if config.folding == TFG:
        params.add("embed.s", rng.normal(0.0, 0.02, size=(n_nodes, d)))
    params.add("embed.tod", rng.normal(0.0, 0.02, size=(frequency, d)))
    params.add("embed.dow", rng.normal(0.0, 0.02, size=(7, d)))
    for i in range(config.layers):
        params.add(f"enc.{i}.ln1.g", np.ones(w))
        params.add(f"enc.{i}.ln1.b", np.zeros(w))
        params.add(f"enc.{i}.qkv", _uniform(rng, w, (w, 3 * w)))
        params.add(f"enc.{i}.qkv_b", np.zeros(3 * w))
        params.add(f"enc.{i}.wo", _uniform(rng, w, (w, w)))
        params.add(f"enc.{i}.wo_b", np.zeros(w))
        params.add(f"enc.{i}.ln2.g", np.ones(w))
        params.add(f"enc.{i}.ln2.b", np.zeros(w))
        params.add(f"enc.{i}.ffn1", _uniform(rng, w, (w, f)))
        params.add(f"enc.{i}.ffn1_b", np.zeros(f))
        params.add(f"enc.{i}.ffn2", _uniform(rng, f, (f, w)))
        params.add(f"enc.{i}.ffn2_b", np.zeros(w))
    params.add("head.0", _uniform(rng, w, (w, f)))
    params.add("head.0_b", np.zeros(f))
    params.add("head.1", _uniform(rng, f, (f, outputs)))
    params.add("head.1_b", np.zeros(outputs))
    if config.folding == SF:
        # SF emits one all-node forecast per time-step token; a final
        # linear over the time axis maps T tokens onto the T' horizon.
        params.add("sf.time", _uniform(rng, config.t_in, (config.t_in, config.horizon)))
        params.add("sf.time_b", np.zeros(config.horizon))
    return params


def msa(z, params, layer, heads):
    """The pre-norm attention sublayer with its residual: ``z`` plus
    multi-head self-attention, within each leading-axis group, over layer
    norm ``ln1`` of ``z``.

    The norm, the qkv projection, attention, the output projection and
    the residual add are one ``norm_attention`` node. Scores are divided by
    sqrt(width / heads); heads are concatenated and passed through the
    output projection.
    """
    return T.norm_attention(z, params[f"enc.{layer}.ln1.g"], params[f"enc.{layer}.ln1.b"],
                            params[f"enc.{layer}.qkv"], params[f"enc.{layer}.qkv_b"],
                            params[f"enc.{layer}.wo"], params[f"enc.{layer}.wo_b"], heads)


def encoder_forward(z0, params, layers, heads):
    """Pre-norm residual blocks: attention then feed-forward, each applied
    to the layer-normed input and added back. Each sublayer is one node
    that adds its own input back (``msa``'s ``norm_attention``, then
    ``norm_ffn``), so the tape holds two nodes per layer and no residual
    sum of its own."""
    z = z0
    for i in range(layers):
        z = msa(z, params, i, heads)
        z = T.norm_ffn(z, params[f"enc.{i}.ln2.g"], params[f"enc.{i}.ln2.b"],
                       params[f"enc.{i}.ffn1"], params[f"enc.{i}.ffn1_b"],
                       params[f"enc.{i}.ffn2"], params[f"enc.{i}.ffn2_b"])
    return z


def predict(z, params):
    """Per-token MLP head with GELU between the two linear maps."""
    h = T.linear_gelu(z, params["head.0"], params["head.0_b"])
    return T.linear(h, params["head.1"], params["head.1_b"])
