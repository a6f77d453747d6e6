"""Minimal reverse-mode autodiff over float64 numpy arrays.

A Tensor wraps an ndarray plus, for an op output, a data-free node record
(:class:`_Node`): its parents' nodes and its backward rule. Graphs are
built eagerly by the op functions below, one function per op; a Tensor
adds only the arithmetic operators and indexing as sugar. Graph edges
point at nodes, never at Tensors (a leaf, a tensor no op produced such as
a parameter, is its own node), and a rule's closure holds only the arrays
the rule reads: ``linear`` its input and weight, ``mul`` and ``matmul``
their operands, ``exp``, ``tanh`` and ``log_softmax`` their output,
``layer_norm`` x̂ and 1/σ, ``relu`` its mask, shape ops only shapes. An
activation no rule reads (a q/k/v projection, a pre-activation MLP output,
a residual sum) is freed as soon as the forward drops its Tensor, so a
graph holds what its backward reads and nothing more. ``backward`` walks
the nodes once per call and accumulates into the ``.grad`` of the leaves
until the caller clears it with :func:`zero_grads`; an intermediate node
never holds a gradient. No node refers to its Tensor, so a graph is freed
by reference counting alone as soon as the caller drops its last tensor.

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
    """The backward record of one op output: its parents' nodes and its rule.

    ``_grad_fn(g)`` maps the output's gradient to (parent node, gradient)
    pairs. The rule's closure holds the parents' nodes and the arrays the
    rule reads, never the output Tensor nor its parents' Tensors, so an
    array no rule reads is freed once the forward drops its Tensor.
    ``grad`` stays None under :func:`backward`; a sweep that keeps
    intermediate gradients may write it.
    """

    __slots__ = ("_parents", "_grad_fn", "grad")

    def __init__(self, parents, grad_fn):
        self._parents = parents
        self._grad_fn = grad_fn
        self.grad = None


def _graph_nodes(*tensors):
    """Internal: the node each tensor's gradient flows to, None for a tensor
    that takes none (all of them inside :func:`no_grad`). An op output's
    node is its _Node record; a leaf that requires gradients is its own."""
    if not _grad_enabled.get():
        return (None,) * len(tensors)
    return tuple([t._node if t._node is not None else t if t.requires_grad else None
                  for t in tensors])


def _record(data, grad_fn, *parents):
    """Internal: an op's output over `data`, with a node over the parent
    nodes that are not None."""
    out = Tensor(data)
    if None in parents:  # all None inside no_grad: skip the filter
        parents = (tuple([p for p in parents if p is not None])
                   if parents.count(None) < len(parents) else ())
    if parents:
        out.requires_grad = True
        out._node = _Node(parents, grad_fn)
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
    na, nb = _graph_nodes(a, b)
    sa, sb = a.data.shape, b.data.shape

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g, sa)))
        if nb is not None:
            out.append((nb, _unbroadcast(g, sb)))
        return out

    return _record(a.data + b.data, grad_fn, na, nb)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _graph_nodes(a, b)
    sa, sb = a.data.shape, b.data.shape

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g, sa)))
        if nb is not None:
            out.append((nb, _unbroadcast(-g, sb)))
        return out

    return _record(a.data - b.data, grad_fn, na, nb)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _graph_nodes(a, b)
    x, y = a.data, b.data

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g * y, x.shape)))
        if nb is not None:
            out.append((nb, _unbroadcast(g * x, y.shape)))
        return out

    return _record(x * y, grad_fn, na, nb)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _graph_nodes(a, b)
    x, y = a.data, b.data

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g / y, x.shape)))
        if nb is not None:
            out.append((nb, _unbroadcast(-g * x / (y * y), y.shape)))
        return out

    return _record(x / y, grad_fn, na, nb)


def power(a, exponent):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    x = a.data
    e = float(exponent)

    def grad_fn(g):
        return [(na, g * e * x ** (e - 1.0))]

    return _record(x**e, grad_fn, na)


def exp(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    out_data = np.exp(a.data)

    def grad_fn(g):
        return [(na, g * out_data)]

    return _record(out_data, grad_fn, na)


def cos(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    x = a.data

    def grad_fn(g):
        return [(na, -g * np.sin(x))]

    return _record(np.cos(x), grad_fn, na)


def sin(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    x = a.data

    def grad_fn(g):
        return [(na, g * np.cos(x))]

    return _record(np.sin(x), grad_fn, na)


def tanh(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    out_data = np.tanh(a.data)

    def grad_fn(g):
        return [(na, g * (1.0 - out_data * out_data))]

    return _record(out_data, grad_fn, na)


def maximum(a, b):
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _graph_nodes(a, b)
    sa, sb = a.data.shape, b.data.shape
    take_a = a.data >= b.data

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g * take_a, sa)))
        if nb is not None:
            out.append((nb, _unbroadcast(g * ~take_a, sb)))
        return out

    return _record(np.maximum(a.data, b.data), grad_fn, na, nb)


def minimum(a, b):
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _graph_nodes(a, b)
    sa, sb = a.data.shape, b.data.shape
    take_a = a.data <= b.data

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g * take_a, sa)))
        if nb is not None:
            out.append((nb, _unbroadcast(g * ~take_a, sb)))
        return out

    return _record(np.minimum(a.data, b.data), grad_fn, na, nb)


def relu(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    mask = a.data > 0

    def grad_fn(g):
        return [(na, g * mask)]

    return _record(a.data * mask, grad_fn, na)


LEAKY_SLOPE = 0.01  # slope of the head MLPs' activation below zero


def leaky_relu(a):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    mask = a.data > 0

    def grad_fn(g):
        return [(na, g * np.where(mask, 1.0, LEAKY_SLOPE))]

    return _record(a.data * np.where(mask, 1.0, LEAKY_SLOPE), grad_fn, na)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    orig = a.data.shape

    def grad_fn(g):
        return [(na, g.reshape(orig))]

    return _record(a.data.reshape(shape), grad_fn, na)


def swapaxes(a, ax0, ax1):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)

    def grad_fn(g):
        return [(na, g.swapaxes(ax0, ax1))]

    return _record(a.data.swapaxes(ax0, ax1).copy(), grad_fn, na)


def broadcast_to(a, shape):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    orig = a.data.shape

    def grad_fn(g):
        return [(na, _unbroadcast(g, orig))]

    return _record(np.broadcast_to(a.data, shape).copy(), grad_fn, na)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    nodes = _graph_nodes(*tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        out = []
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                out.append((node, g[tuple(sl)]))
        return out

    return _record(np.concatenate([t.data for t in tensors], axis=axis), grad_fn, *nodes)


def getitem(a, idx):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    shape = a.data.shape

    def grad_fn(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        return [(na, buf)]

    out = a.data[idx]
    return _record(out.copy() if isinstance(out, np.ndarray) else out, grad_fn, na)


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
    (na,) = _graph_nodes(a)

    def grad_fn(g):
        return [(na, g[inverse])]

    return _record(a.data[perm], grad_fn, na)


# ---------------------------------------------------------------------------
# Reductions and contractions
# ---------------------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    shape = a.data.shape

    def grad_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return [(na, np.broadcast_to(gg, shape))]

    return _record(a.data.sum(axis=axis, keepdims=keepdims), grad_fn, na)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def _select_along(a, axis, keepdims, reduce, arg):
    """Reduce one axis by picking an entry; the gradient goes to that entry."""
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    x = a.data

    def grad_fn(g):
        buf = np.zeros(x.shape)
        picked = np.expand_dims(arg(x, axis=axis), axis)
        np.put_along_axis(buf, picked, g if keepdims else np.expand_dims(g, axis), axis)
        return [(na, buf)]

    return _record(reduce(x, axis=axis, keepdims=keepdims), grad_fn, na)


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
    na, nb = _graph_nodes(a, b)
    x, y = a.data, b.data

    def grad_fn(g):
        out = []
        if na is not None:
            out.append((na, _unbroadcast(g @ y.swapaxes(-1, -2), x.shape)))
        if nb is not None:
            out.append((nb, _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape)))
        return out

    return _record(x @ y, grad_fn, na, nb)


# ---------------------------------------------------------------------------
# Normalization and attention building blocks
# ---------------------------------------------------------------------------


def log_softmax(a):
    """Log-softmax over the last axis."""
    a = as_tensor(a)
    (na,) = _graph_nodes(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def grad_fn(g):
        return [(na, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))]

    return _record(out_data, grad_fn, na)


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
    nq, nk, nv = _graph_nodes(Q, K, V)
    shapes = Q.data.shape, K.data.shape, V.data.shape
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
        gq = np.empty((n, Lq, dh)) if nq is not None else None
        gk = np.empty((n, Lk, dh)) if nk is not None else None
        gv = np.empty((n, Lk, dh)) if nv is not None else None
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
        q_shape, k_shape, v_shape = shapes
        out = []
        if gv is not None:
            out.append((nv, gv.reshape(v_shape)))
        if gq is not None:
            gq *= scale
            out.append((nq, gq.reshape(q_shape)))
        if gk is not None:
            out.append((nk, gk.reshape(k_shape)))
        return out

    out = _record(ctx.reshape(Q.shape), grad_fn, nq, nk, nv)
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
    nx, nw, nb = _graph_nodes(x, weight, bias)
    xd, wd, bias_shape = x.data, weight.data, bias.data.shape
    out_data = xd @ wd
    out_data += bias.data

    def grad_fn(g):
        out = []
        if nx is not None:
            out.append((nx, g @ wd.T))
        if nw is not None:
            k, n = wd.shape
            out.append((nw, xd.reshape(-1, k).T @ g.reshape(-1, n)))
        if nb is not None:
            out.append((nb, _unbroadcast(g, bias_shape)))
        return out

    return _record(out_data, grad_fn, nx, nw, nb)


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
    nx, ng, nb = _graph_nodes(x, gain, bias)
    gd, gain_shape, bias_shape = gain.data, gain.data.shape, bias.data.shape
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + LAYER_NORM_EPS) ** -0.5
    xhat = centered * inv
    out_data = xhat * gd
    out_data += bias.data

    def grad_fn(g):
        out = []
        if nx is not None:
            gx = g * gd
            gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx *= inv
            out.append((nx, gx))
        if ng is not None:
            out.append((ng, _unbroadcast(g * xhat, gain_shape)))
        if nb is not None:
            out.append((nb, _unbroadcast(g, bias_shape)))
        return out

    return _record(out_data, grad_fn, nx, ng, nb)


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
