"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray plus an optional backpropagation record. Graphs
are built eagerly by the op functions below, one function per op; a Tensor
adds only the arithmetic operators and indexing as sugar. ``backward``
walks the graph once per call and accumulates into the ``.grad`` of its
leaves (the tensors no op produced, such as parameters) until the caller
clears it with :func:`zero_grads`. An
intermediate never holds a gradient, so after ``backward`` a graph holds
its activations and nothing more, and it is freed as soon as the caller
drops its last tensor.

Attention's scores, softmax and context are one op, :func:`attention_core`,
with a hand-written backward; :func:`multi_head_attention` adds the head
projections around it. The core shifts a slab's scores by their row max only
where a bound on the slab's scores, read from its (L, dh) operands, exceeds
:data:`EXP_SAFE_SCORE`; below it ``exp`` of the raw scores stays inside
float64's normal range, and the shift would only cost two passes over the
(L, L) scores. The core works one cache-sized block of slabs at a time, and
its backward rebuilds each block's weights instead of holding them, so no
graph keeps an (L, L) array. :func:`linear` and :func:`layer_norm` are one
node each too, so an encoder layer builds 20 nodes. Inside a :func:`no_grad`
block the ops record no parents, so a forward-only pass (inference,
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None

    # -- introspection ----------------------------------------------------
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


def _node(data, inputs, grad_fn):
    """Internal: graph node over the `inputs` that require gradients."""
    out = Tensor(data)
    if not _grad_enabled.get():
        return out
    parents = tuple(t for t in inputs if t.requires_grad)
    if parents:
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
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
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g, b.data.shape)))
        return out

    return _node(a.data + b.data, (a, b), grad_fn)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(-g, b.data.shape)))
        return out

    return _node(a.data - b.data, (a, b), grad_fn)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g * b.data, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g * a.data, b.data.shape)))
        return out

    return _node(a.data * b.data, (a, b), grad_fn)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g / b.data, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))
        return out

    return _node(a.data / b.data, (a, b), grad_fn)


def power(a, exponent):
    a = as_tensor(a)
    e = float(exponent)
    out_data = a.data**e

    def grad_fn(g):
        return [(a, g * e * a.data ** (e - 1.0))]

    return _node(out_data, (a,), grad_fn)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def grad_fn(g):
        return [(a, g * out_data)]

    return _node(out_data, (a,), grad_fn)


def cos(a):
    a = as_tensor(a)

    def grad_fn(g):
        return [(a, -g * np.sin(a.data))]

    return _node(np.cos(a.data), (a,), grad_fn)


def sin(a):
    a = as_tensor(a)

    def grad_fn(g):
        return [(a, g * np.cos(a.data))]

    return _node(np.sin(a.data), (a,), grad_fn)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def grad_fn(g):
        return [(a, g * (1.0 - out_data * out_data))]

    return _node(out_data, (a,), grad_fn)


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g * take_a, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g * ~take_a, b.data.shape)))
        return out

    return _node(np.maximum(a.data, b.data), (a, b), grad_fn)


def minimum(a, b):
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g * take_a, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(g * ~take_a, b.data.shape)))
        return out

    return _node(np.minimum(a.data, b.data), (a, b), grad_fn)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def grad_fn(g):
        return [(a, g * mask)]

    return _node(a.data * mask, (a,), grad_fn)


LEAKY_SLOPE = 0.01  # slope of the head MLPs' activation below zero


def leaky_relu(a):
    a = as_tensor(a)
    factor = np.where(a.data > 0, 1.0, LEAKY_SLOPE)

    def grad_fn(g):
        return [(a, g * factor)]

    return _node(a.data * factor, (a,), grad_fn)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def grad_fn(g):
        return [(a, g.reshape(orig))]

    return _node(a.data.reshape(shape), (a,), grad_fn)


def swapaxes(a, ax0, ax1):
    a = as_tensor(a)

    def grad_fn(g):
        return [(a, g.swapaxes(ax0, ax1))]

    return _node(a.data.swapaxes(ax0, ax1).copy(), (a,), grad_fn)


def broadcast_to(a, shape):
    a = as_tensor(a)
    orig = a.data.shape

    def grad_fn(g):
        return [(a, _unbroadcast(g, orig))]

    return _node(np.broadcast_to(a.data, shape).copy(), (a,), grad_fn)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                out.append((t, g[tuple(sl)]))
        return out

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), grad_fn)


def getitem(a, idx):
    a = as_tensor(a)
    shape = a.data.shape

    def grad_fn(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return [(a, buf)]

    out = a.data[idx]
    return _node(out.copy() if isinstance(out, np.ndarray) else out, (a,), grad_fn)


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
        return [(a, g[inverse])]

    return _node(a.data[perm], (a,), grad_fn)


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
        return [(a, np.broadcast_to(gg, shape))]

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), grad_fn)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _select_along(a, axis, keepdims, reduce, arg):
    """Reduce one axis by picking an entry; the gradient goes to that entry."""
    a = as_tensor(a)

    def grad_fn(g):
        buf = np.zeros(a.data.shape)
        picked = np.expand_dims(arg(a.data, axis=axis), axis)
        np.put_along_axis(buf, picked, g if keepdims else np.expand_dims(g, axis), axis)
        return [(a, buf)]

    return _node(reduce(a.data, axis=axis, keepdims=keepdims), (a,), grad_fn)


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

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)))
        return out

    return _node(a.data @ b.data, (a, b), grad_fn)


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
        return [(a, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))]

    return _node(out_data, (a,), grad_fn)


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


def attention_core(Q, K, V, scale, capture=False):
    """Scaled dot-product attention as one node: ``softmax(Q Kᵀ·scale) V``.

    Q: (..., Lq, dh), K and V: (..., Lk, dh). Returns (context (..., Lq, dh),
    weights). The weights (..., Lq, Lk) are built only when ``capture`` is
    set, as a plain Tensor outside the graph; otherwise they are None.

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
    *lead, Lq, dh = Q.shape
    Lk = K.shape[-2]
    n = math.prod(lead)
    qs = (Q.data * scale).reshape(n, Lq, dh)
    k = K.data.reshape(n, Lk, dh)
    v = V.data.reshape(n, Lk, dh)
    # a contiguous Kᵀ runs the product ~25% faster than the transposed view
    kt = k.swapaxes(-1, -2).copy()
    shifted = dh * _abs_max(qs) * _abs_max(k) > EXP_SAFE_SCORE
    step = max(1, ATTENTION_BLOCK_BYTES // (8 * Lq * Lk))
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    r = np.empty((n, Lq, 1))
    ctx = np.empty((n, Lq, dh))
    weights = np.empty((n, Lq, Lk)) if capture else None
    for b in blocks:
        e = _block_weights(qs[b], kt[b], shifted[b])
        total = e.sum(axis=-1, keepdims=True)
        np.divide(1.0, total, out=r[b])
        np.matmul(e, v[b], out=ctx[b])
        ctx[b] *= r[b]
        if capture:
            # dividing keeps a one-key row exactly 1.0, where e·(1/e) may miss by an ulp
            np.divide(e, total, out=weights[b])

    def grad_fn(g):
        g = g.reshape(n, Lq, dh)
        gq = np.empty((n, Lq, dh)) if Q.requires_grad else None
        gk = np.empty((n, Lk, dh)) if K.requires_grad else None
        gv = np.empty((n, Lk, dh)) if V.requires_grad else None
        for b in blocks:
            e = _block_weights(qs[b], kt[b], shifted[b])
            gr = g[b] * r[b]
            if gv is not None:
                np.matmul(e.swapaxes(-1, -2), gr, out=gv[b])
            d = (gr * ctx[b]).sum(axis=-1, keepdims=True)
            gs = gr @ v[b].swapaxes(-1, -2)
            gs -= d
            gs *= e
            if gq is not None:
                np.matmul(gs, k[b], out=gq[b])
            if gk is not None:
                np.matmul(gs.swapaxes(-1, -2), qs[b], out=gk[b])
        out = []
        if gv is not None:
            out.append((V, gv.reshape(V.shape)))
        if gq is not None:
            gq *= scale
            out.append((Q, gq.reshape(Q.shape)))
        if gk is not None:
            out.append((K, gk.reshape(K.shape)))
        return out

    out = _node(ctx.reshape(Q.shape), (Q, K, V), grad_fn)
    return out, None if weights is None else Tensor(weights.reshape(*lead, Lq, Lk))


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
    out_data = x.data @ weight.data
    out_data += bias.data

    def grad_fn(g):
        out = []
        if x.requires_grad:
            out.append((x, g @ weight.data.T))
        if weight.requires_grad:
            k, n = weight.shape
            out.append((weight, x.data.reshape(-1, k).T @ g.reshape(-1, n)))
        if bias.requires_grad:
            out.append((bias, _unbroadcast(g, bias.data.shape)))
        return out

    return _node(out_data, (x, weight, bias), grad_fn)


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
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + LAYER_NORM_EPS) ** -0.5
    xhat = centered * inv
    out_data = xhat * gain.data
    out_data += bias.data

    def grad_fn(g):
        out = []
        if x.requires_grad:
            gx = g * gain.data
            gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx *= inv
            out.append((x, gx))
        if gain.requires_grad:
            out.append((gain, _unbroadcast(g * xhat, gain.data.shape)))
        if bias.requires_grad:
            out.append((bias, _unbroadcast(g, bias.data.shape)))
        return out

    return _node(out_data, (x, gain, bias), grad_fn)


def multi_head_attention(q, k, v, heads, params, capture=False):
    """Scaled dot-product attention with per-head projections.

    q: (B, Lq, d), k and v: (B, Lk, d). `params` maps wq, bq, wk, bk, wv,
    bv, wo, bo to tensors. Returns (output (B, Lq, d), weights): the
    weights (B, heads, Lq, Lk) are built only when ``capture`` is set, for
    callers that export attention maps, and are None otherwise. This
    function only splits
    and merges the heads around their projections; the scores, softmax and
    context are one :func:`attention_core` node.

    Permuting the keys permutes the summands of the softmax and context
    reductions, so the output is key-order-invariant only up to rounding.
    Where the key axis is a batch of peer objects, the caller sorts that
    batch into a canonical order first.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise NumericError(
            f"attention expects rank-3 q/k/v, got {q.shape}, {k.shape}, {v.shape}"
        )
    B, Lq, d = q.shape
    if k.shape[0] != B or v.shape[0] != B or k.shape[2] != d or v.shape[2] != d:
        raise NumericError(f"attention operands disagree: {q.shape}, {k.shape}, {v.shape}")
    if k.shape[1] != v.shape[1]:
        raise NumericError(f"key/value lengths disagree: {k.shape} vs {v.shape}")
    if d % heads != 0:
        raise NumericError(f"width {d} not divisible by {heads} heads")
    Lk = k.shape[1]
    dh = d // heads

    def split(x, L):
        return swapaxes(reshape(x, (B, L, heads, dh)), 1, 2)

    Q = split(linear(q, params["wq"], params["bq"]), Lq)
    K = split(linear(k, params["wk"], params["bk"]), Lk)
    V = split(linear(v, params["wv"], params["bv"]), Lk)

    ctx, weights = attention_core(Q, K, V, 1.0 / math.sqrt(dh), capture)

    merged = reshape(swapaxes(ctx, 1, 2), (B, Lq, d))
    return linear(merged, params["wo"], params["bo"]), weights


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
    read it, so it stays None. Leaf gradients accumulate across calls;
    clear with ``zero_grads`` between optimization steps.
    """
    loss = as_tensor(loss)
    if loss.data.size != 1:
        raise NumericError(f"backward needs a scalar, got shape {loss.shape}")
    pending = {id(loss): np.ones_like(loss.data)}
    for node in reversed(_toposort(loss)):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            # grads are never mutated in place, so sharing buffers is safe
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in node._grad_fn(g):
            pg = np.asarray(pg, dtype=np.float64)
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def zero_grads(tensors):
    """Clear the gradients of an iterable of tensors."""
    for t in tensors:
        t.grad = None
