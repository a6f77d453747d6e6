"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray plus, for an op output, a data-free node record
(:class:`_Node`): its inputs' nodes and shapes and its backward rule.
Graphs are built eagerly by the op functions below, one function per op;
a Tensor adds only the arithmetic operators and indexing as sugar. Every
rule returns one gradient per op input, in input order, at the input's
shape or the one it broadcasts to; :func:`_record` alone decides which
inputs take a gradient, and :func:`backward` alone drops the others and
reduces the rest to their input's shape. Graph edges point at nodes,
never at Tensors (a leaf, a tensor no op produced such as a parameter, is
its own node), and a rule's closure holds only the arrays the rule reads:
``linear`` its input and weight, ``mul`` and ``matmul`` their operands,
``exp``, ``tanh`` and ``log_softmax`` their output, ``layer_norm`` x̂ and
1/σ, ``relu`` its mask, shape ops only shapes. An activation no rule
reads (a q/k/v projection, a pre-activation MLP output, a residual sum) is
freed as soon as the forward drops its Tensor, so a graph holds what its
backward reads and nothing more. ``backward`` walks the nodes once per
call and accumulates into the ``.grad`` of the leaves until the caller
clears it with :func:`zero_grads`; an intermediate node has no gradient
field. No node refers to its Tensor, so a graph is freed by reference
counting alone as soon as the caller drops its last tensor.

Attention's scores, softmax and context are one op, :func:`attention_core`,
with a hand-written backward; :func:`multi_head_attention` adds the head
projections around it, and :func:`attention_weights` rebuilds its weights,
graph-free, from Q and K. The core shifts a slab's scores by their row max
where a bound on the slab's scores, read from its (L, dh) operands, exceeds
:data:`EXP_SAFE_SCORE`; below it ``exp`` of the raw scores stays inside
float64's normal range, and the shift would only cost two passes over the
(L, L) scores. The core works one cache-sized block of slabs at a time, and
its backward rebuilds each block's weights instead of holding them, so no
graph keeps an (L, L) array. :func:`linear` and :func:`layer_norm` are one
node each too, so an encoder layer builds 20 nodes. Inside a :func:`no_grad`
block the ops record no node, so a forward-only pass (inference,
attention export) builds no graph and frees each intermediate array once
the next op has read it.

Every op reduces in numpy's own order, so results depend on the order of
the inputs at the last bit. Callers that need an output independent of an
input order put the inputs in a canonical order first (see
``model.BoxAnnotator.forward_global``).
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

from .errors import NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None  # an op output's _Node; a leaf is its own node

    # -- introspection ----------------------------------------------------
    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _grad_fn(self):
        return None if self._node is None else self._node._grad_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return self.data.item()

    def detach(self):
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """A named trainable tensor; the unit the optimizer and checkpoints see."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# a context variable, so a no_grad block in one thread leaves the others alone
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: op outputs have no parents and do
    not require gradients. Nests; the previous state returns on exit, also
    after an exception."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Node:
    """The backward record of one op output: its inputs' nodes and its rule.

    ``_grad_fn(g)`` maps the output's gradient to one gradient per op input,
    in input order, each at its input's shape or one it broadcasts to.
    ``_inputs`` holds, per op input, the input's node and shape if it
    takes a gradient and None if it takes none; ``_parents`` is those nodes
    in input order, the edges a graph walk follows. The rule's closure
    holds only the arrays the rule reads, never the output Tensor nor its
    inputs' Tensors, so an array no rule reads is freed once the forward
    drops its Tensor.
    """

    __slots__ = ("_parents", "_inputs", "_grad_fn")

    def __init__(self, parents, inputs, grad_fn):
        self._parents = parents
        self._inputs = inputs
        self._grad_fn = grad_fn


def _record(data, grad_fn, *inputs):
    """Internal: an op's output over `data`, whose rule `grad_fn` returns
    one gradient per Tensor of `inputs`.

    Outside :func:`no_grad`, an input takes a gradient if it requires one:
    an op output does exactly when it has a node, and its gradient goes to
    that node; a leaf is its own node. The output gets a node only if some
    input takes a gradient.
    """
    out = Tensor(data)
    if not _grad_enabled.get():
        return out
    edges = tuple([(t._node or t, t.data.shape) if t.requires_grad else None
                   for t in inputs])
    parents = tuple([e[0] for e in edges if e is not None])
    if parents:
        out.requires_grad = True
        out._node = _Node(parents, edges, grad_fn)
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        return g, g

    return _record(a.data + b.data, grad_fn, a, b)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        return g, -g

    return _record(a.data - b.data, grad_fn, a, b)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data

    def grad_fn(g):
        return g * y, g * x

    return _record(x * y, grad_fn, a, b)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data

    def grad_fn(g):
        return g / y, -g * x / (y * y)

    return _record(x / y, grad_fn, a, b)


def power(a, exponent):
    a = as_tensor(a)
    x = a.data
    e = float(exponent)

    def grad_fn(g):
        return (g * e * x ** (e - 1.0),)

    return _record(x**e, grad_fn, a)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def grad_fn(g):
        return (g * out_data,)

    return _record(out_data, grad_fn, a)


def cos(a):
    a = as_tensor(a)
    x = a.data

    def grad_fn(g):
        return (-g * np.sin(x),)

    return _record(np.cos(x), grad_fn, a)


def sin(a):
    a = as_tensor(a)
    x = a.data

    def grad_fn(g):
        return (g * np.cos(x),)

    return _record(np.sin(x), grad_fn, a)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out_data * out_data),)

    return _record(out_data, grad_fn, a)


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data

    def grad_fn(g):
        return g * take_a, g * ~take_a

    return _record(np.maximum(a.data, b.data), grad_fn, a, b)


def minimum(a, b):
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def grad_fn(g):
        return g * take_a, g * ~take_a

    return _record(np.minimum(a.data, b.data), grad_fn, a, b)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _record(a.data * mask, grad_fn, a)


LEAKY_SLOPE = 0.01  # slope of the head MLPs' activation below zero


def leaky_relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def grad_fn(g):
        return (g * np.where(mask, 1.0, LEAKY_SLOPE),)

    return _record(a.data * np.where(mask, 1.0, LEAKY_SLOPE), grad_fn, a)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def grad_fn(g):
        return (g.reshape(orig),)

    return _record(a.data.reshape(shape), grad_fn, a)


def swapaxes(a, ax0, ax1):
    a = as_tensor(a)

    def grad_fn(g):
        return (g.swapaxes(ax0, ax1),)

    return _record(a.data.swapaxes(ax0, ax1).copy(), grad_fn, a)


def broadcast_to(a, shape):
    a = as_tensor(a)

    def grad_fn(g):
        return (g,)

    return _record(np.broadcast_to(a.data, shape).copy(), grad_fn, a)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def grad_fn(g):
        return np.split(g, splits, axis=axis)

    return _record(np.concatenate([t.data for t in tensors], axis=axis), grad_fn, *tensors)


def getitem(a, idx):
    a = as_tensor(a)
    shape = a.data.shape

    def grad_fn(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return (buf,)

    out = a.data[idx]
    return _record(out.copy() if isinstance(out, np.ndarray) else out, grad_fn, a)


def permute(a, perm):
    """Reorder the leading axis by a permutation: ``out[i] = a[perm[i]]``.

    The forward equals ``a[perm]``; the backward is the inverse gather
    ``g[argsort(perm)]``, where :func:`getitem` would scatter with
    ``np.add.at``.
    """
    a = as_tensor(a)
    perm = np.asarray(perm, dtype=np.intp)
    if not np.array_equal(np.sort(perm), np.arange(a.shape[0])):
        raise NumericError(f"not a permutation of {a.shape[0]} rows: {perm.tolist()}")
    inverse = np.argsort(perm)

    def grad_fn(g):
        return (g[inverse],)

    return _record(a.data[perm], grad_fn, a)


# ---------------------------------------------------------------------------
# Reductions and contractions
# ---------------------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    shape = a.data.shape

    def grad_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, shape),)

    return _record(a.data.sum(axis=axis, keepdims=keepdims), grad_fn, a)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _select_along(a, axis, keepdims, reduce, arg):
    """Reduce one axis by picking an entry; the gradient goes to that entry."""
    a = as_tensor(a)
    x = a.data

    def grad_fn(g):
        buf = np.zeros(x.shape)
        picked = np.expand_dims(arg(x, axis=axis), axis)
        np.put_along_axis(buf, picked, g if keepdims else np.expand_dims(g, axis), axis)
        return (buf,)

    return _record(reduce(x, axis=axis, keepdims=keepdims), grad_fn, a)


def amax(a, axis, keepdims=False):
    """Maximum along one axis; ties route the gradient to the first index,
    as :func:`maximum` routes them to its first argument."""
    return _select_along(a, axis, keepdims, np.max, np.argmax)


def amin(a, axis, keepdims=False):
    """Minimum along one axis; ties route the gradient to the first index."""
    return _select_along(a, axis, keepdims, np.min, np.argmin)


def matmul(a, b):
    """Batched matrix product with broadcasting over leading axes.

    Both operands have rank 2 or more. Raises NumericError with both
    shapes on a lower rank or on inner or batch disagreement.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise NumericError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as err:
        raise NumericError(f"matmul batch extents disagree: {a.shape} x {b.shape}") from err
    x, y = a.data, b.data

    def grad_fn(g):
        return g @ y.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g

    return _record(x @ y, grad_fn, a, b)


# ---------------------------------------------------------------------------
# Normalization and attention building blocks
# ---------------------------------------------------------------------------


def log_softmax(a):
    """Log-softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def grad_fn(g):
        return (g - np.exp(out_data) * g.sum(axis=-1, keepdims=True),)

    return _record(out_data, grad_fn, a)


# Largest score bound under which a slab's scores are exponentiated unshifted.
# Every term then lies in [e⁻⁵¹², e⁵¹²] ≈ [4e-223, 2e222], inside float64's
# normal range (2.2e-308 to 1.8e308): no term underflows to 0 or a subnormal,
# the reciprocal of any row sum is finite, and a row sum or a row of e·V
# overflows only where keys × max|V| passes ~1e86. Slabs above it keep the
# row-max shift.
EXP_SAFE_SCORE = 512.0

# Bytes of (Lq, Lk) weights that attention_core builds at a time: as many
# whole slabs as fit, and at least one, so a block's passes run in cache.
ATTENTION_BLOCK_BYTES = 512 * 1024


def _abs_max(x):
    """max |x| over each (L, dh) slab of a (..., L, dh) array."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _block_weights(qs, kt, shifted):
    """Unnormalized softmax weights ``exp(qs @ kt - shift)`` of a block of
    (n, Lq, dh) and (n, dh, Lk) slabs, shifted by the row max only in the
    slabs that ``shifted`` (n,) marks: the forward and the backward both
    build a block's weights here, so the backward's are the forward's bit
    for bit."""
    e = qs @ kt
    if shifted.any():
        e[shifted] -= e[shifted].max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e


def _slabs(q, k, scale):
    """The (..., Lq, dh) queries scaled and the (..., Lk, dh) keys flattened
    to (n, L, dh) slabs, with a contiguous Kᵀ (its product runs ~25% faster
    than the transposed view's), each slab's shift decision (n,) and the
    blocks of whole slabs, at least one, that fit ATTENTION_BLOCK_BYTES."""
    *lead, Lq, dh = q.shape
    n, Lk = math.prod(lead), k.shape[-2]
    qs = (q * scale).reshape(n, Lq, dh)
    k = k.reshape(n, Lk, dh)
    shifted = dh * _abs_max(qs) * _abs_max(k) > EXP_SAFE_SCORE
    step = max(1, ATTENTION_BLOCK_BYTES // (8 * Lq * Lk))
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    return qs, k, k.swapaxes(-1, -2).copy(), shifted, blocks


def attention_core(Q, K, V, scale):
    """Scaled dot-product attention as one node: ``softmax(Q Kᵀ·scale) V``.

    Q: (..., Lq, dh), K and V: (..., Lk, dh); returns the context (..., Lq, dh).

    The scale is folded into Q, and the softmax's normalization is applied
    to the context (the deferred normalization of online softmax, Milakov &
    Gimelshein): with ``e = exp(S - shift)`` and ``r = 1/Σe`` per row, the
    context is ``(e V)·r``, so no (Lq, Lk) array is divided or scaled. The
    shift only keeps ``exp`` finite, so it is decided per slab (each leading
    index): every score of a slab is at most ``dh·max|Q·scale|·max|K|`` in
    magnitude, and where that bound is within :data:`EXP_SAFE_SCORE` the
    shift is 0 and the scores are exponentiated as they are; above it the
    shift is the row max. The decision reads only the slab's own operands,
    so a slab's bits do not depend on the rest of the batch. Where a caller
    passes only some query rows (a layer that computes only the box-token
    rows), the bound reads those rows alone: it still bounds every score
    the slab computes, though it may skip a shift that the same slab with
    every query row would take.

    The slabs are worked in blocks of as many whole slabs as fit
    :data:`ATTENTION_BLOCK_BYTES` of weights (Rabe & Staats; Dao et al.,
    FlashAttention): a block's ``e`` is built, reduced and multiplied while
    it is in cache, and no (Lq, Lk) array outlives its block. A slab's rows
    are never split, since the products of a slab are one BLAS call each
    and their bits would otherwise depend on where a block starts. The
    backward keeps only ``r``, the context and the operands, rebuilds each
    block's ``e`` as the forward built it, and never reads the shift: with
    ``gr = g·r`` and ``d = rowsum(gr ∘ context)``, an (Lq, dh) sum, the
    score gradient is ``e ∘ (gr Vᵀ − d)``. Results agree with the four-node
    composition (``tests/oracles.py``) to rounding, not bit for bit, and
    with the core that held ``e`` bit for bit.
    """
    Q, K, V = as_tensor(Q), as_tensor(K), as_tensor(V)
    q_shape, k_shape, v_shape = Q.data.shape, K.data.shape, V.data.shape
    qs, k, kt, shifted, blocks = _slabs(Q.data, K.data, scale)
    n, Lq, dh = qs.shape
    v = V.data.reshape(k.shape)
    r = np.empty((n, Lq, 1))
    ctx = np.empty((n, Lq, dh))
    for b in blocks:
        e = _block_weights(qs[b], kt[b], shifted[b])
        np.divide(1.0, e.sum(axis=-1, keepdims=True), out=r[b])
        np.matmul(e, v[b], out=ctx[b])
        ctx[b] *= r[b]

    def grad_fn(g):
        g = g.reshape(n, Lq, dh)
        gq, gk, gv = np.empty(qs.shape), np.empty(k.shape), np.empty(k.shape)
        for b in blocks:
            e = _block_weights(qs[b], kt[b], shifted[b])
            gr = g[b] * r[b]
            np.matmul(e.swapaxes(-1, -2), gr, out=gv[b])
            d = (gr * ctx[b]).sum(axis=-1, keepdims=True)
            gs = gr @ v[b].swapaxes(-1, -2)
            gs -= d
            gs *= e
            np.matmul(gs, k[b], out=gq[b])
            np.matmul(gs.swapaxes(-1, -2), qs[b], out=gk[b])
        gq *= scale
        return gq.reshape(q_shape), gk.reshape(k_shape), gv.reshape(v_shape)

    return _record(ctx.reshape(Q.shape), grad_fn, Q, K, V)


def linear(x, weight, bias):
    """Affine map along the last axis, ``x @ weight + bias``, as one node.

    x: (..., k), weight: (k, n), bias: (n,). The forward and the gradients
    are those of a ``matmul`` node followed by an ``add`` node, except that
    the weight gradient is one product over the folded leading axes, where
    ``matmul`` sums one product per leading index.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if weight.ndim != 2 or x.shape[-1:] != weight.shape[:1]:
        raise NumericError(f"linear extents disagree: {x.shape} x {weight.shape}")
    xd, wd = x.data, weight.data
    out_data = xd @ wd
    out_data += bias.data

    def grad_fn(g):
        k, n = wd.shape
        return g @ wd.T, xd.reshape(-1, k).T @ g.reshape(-1, n), g

    return _record(out_data, grad_fn, x, weight, bias)


LAYER_NORM_EPS = 1e-12  # see layer_norm's docstring


def layer_norm(x, gain, bias):
    """Zero-mean unit-variance normalization over the last axis, then
    affine, as one node with an analytic backward.

    The forward repeats the numpy operations of the mean / center /
    variance / ``power(-0.5)`` / affine chain of elementary nodes
    (``tests/oracles.py`` holds it), so its output matches the chain bit
    for bit. The backward is the closed form: with ``x̂`` the normalized
    input and ``ĝ = g·gain``, ``gx = (ĝ − mean(ĝ) − x̂·mean(ĝ∘x̂)) / σ``.
    The epsilon only guards exact zero variance; float64 keeps the
    normalized variance within ~1e-12 of 1 for any non-degenerate input.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    gd = gain.data
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + LAYER_NORM_EPS) ** -0.5
    xhat = centered * inv
    out_data = xhat * gd
    out_data += bias.data

    def grad_fn(g):
        gx = g * gd
        gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        gx *= inv
        return gx, g * xhat, g

    return _record(out_data, grad_fn, x, gain, bias)


def _heads(x, part, heads, params):
    """x (B, L, d) projected by ``params``' w/b ``part``: (B, heads, L, d/heads)."""
    B, L, d = x.shape
    y = linear(x, params[f"w{part}"], params[f"b{part}"])
    return swapaxes(reshape(y, (B, L, heads, d // heads)), 1, 2)


def multi_head_attention(q, k, v, heads, params):
    """Scaled dot-product attention with per-head projections.

    q: (B, Lq, d), k and v: (B, Lk, d). `params` maps wq, bq, wk, bk, wv,
    bv, wo, bo to tensors. Returns the output (B, Lq, d). This function only
    splits and merges the heads around their projections; the scores,
    softmax and context are one :func:`attention_core` node.

    Permuting the keys permutes the summands of the softmax and context
    reductions, so the output is key-order-invariant only up to rounding.
    Where the key axis is a batch of peer objects, the caller sorts that
    batch into a canonical order first.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise NumericError(f"attention expects rank-3 q/k/v, got {q.shape}, {k.shape}, {v.shape}")
    B, Lq, d = q.shape
    if k.shape[0] != B or v.shape[0] != B or k.shape[2] != d or v.shape[2] != d:
        raise NumericError(f"attention operands disagree: {q.shape}, {k.shape}, {v.shape}")
    if k.shape[1] != v.shape[1]:
        raise NumericError(f"key/value lengths disagree: {k.shape} vs {v.shape}")
    if d % heads != 0:
        raise NumericError(f"width {d} not divisible by {heads} heads")
    Q, K, V = (_heads(x, part, heads, params) for x, part in ((q, "q"), (k, "k"), (v, "v")))
    ctx = attention_core(Q, K, V, 1.0 / math.sqrt(d // heads))
    merged = reshape(swapaxes(ctx, 1, 2), (B, Lq, d))
    return linear(merged, params["wo"], params["bo"])


def attention_weights(q, k, heads, params):
    """The (B, heads, Lq, Lk) softmax weights ``multi_head_attention(q, k,
    v, heads, params)`` applies, bit for bit, as an ndarray built outside
    any graph from its head split, slabs, shift decisions and block weights.
    Rows are divided by their sum: a one-key row is exactly 1.0."""
    with no_grad():
        Q, K = _heads(q, "q", heads, params), _heads(k, "k", heads, params)
    qs, _, kt, shifted, blocks = _slabs(Q.data, K.data, 1.0 / math.sqrt(Q.shape[-1]))
    e = np.empty((len(qs), qs.shape[1], kt.shape[2]))
    for b in blocks:
        e[b] = _block_weights(qs[b], kt[b], shifted[b])
    e /= e.sum(axis=-1, keepdims=True)
    return e.reshape(*Q.shape[:-1], K.shape[-2])


def cross_entropy(logits, labels):
    """Mean cross-entropy of integer labels under the final-axis softmax."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    ls = log_softmax(logits)
    return mul(tsum(mul(ls, onehot)), -1.0 / n)


# ---------------------------------------------------------------------------
# Backpropagation
# ---------------------------------------------------------------------------


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` on the leaves reachable from a scalar loss.

    Only leaves (tensors no op produced, such as parameters) get ``.grad``;
    an intermediate's gradient lives only until its own backward rule has
    read it. Each rule's gradients are paired with its node's inputs, a
    count that differs raising ValueError; those of inputs that take none
    are dropped, the rest summed down to their input's shape. Leaf
    gradients accumulate across calls; clear with ``zero_grads`` between
    optimization steps.
    """
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise NumericError(f"backward needs a scalar, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node
    pending = {id(root): np.ones_like(loss.data)}
    for node in reversed(_toposort(root)):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            # grads are never mutated in place, so sharing buffers is safe
            node.grad = g if node.grad is None else node.grad + g
            continue
        for edge, pg in zip(node._inputs, node._grad_fn(g), strict=True):
            if edge is None:
                continue
            parent, shape = edge
            pg = _unbroadcast(np.asarray(pg, dtype=np.float64), shape)
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def zero_grads(tensors):
    """Clear the gradients of an iterable of tensors."""
    for t in tensors:
        t.grad = None
