import math
import threading

import numpy as np
import pytest

from frustumbox import tensor as T
from oracles import (
    attention_core_composed,
    attention_core_held,
    held_self_attention_weights,
    layer_norm_composed,
    linear_composed,
    softmax,
    split_heads,
)
from frustumbox.errors import NumericError
from frustumbox.tensor import (
    Parameter,
    Tensor,
    backward,
    zero_grads,
)


def fd_grad(f, x, step=1e-6):
    """Central finite differences of scalar f at array x, entry by entry."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f(x)
        x[idx] = orig - step
        lo = f(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return g


def rel_diff(a, b):
    """Largest entry difference relative to the reference's largest entry."""
    return np.abs(a - b).max() / np.abs(b).max()


def check_grad(build_loss, x0, step=1e-6, tol=1e-4):
    """Compare autodiff gradient of build_loss(Tensor) against finite diffs."""
    p = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(p)
    backward(loss)
    numeric = fd_grad(lambda arr: build_loss(Tensor(arr)).item(), x0.copy(), step)
    denom = np.abs(p.grad) + np.abs(numeric) + 1e-10
    rel = np.abs(p.grad - numeric) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3g}"


class TestElementwise:
    def test_add_and_mul_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_array_equal((a + b).data, [4.0, 6.0])
        np.testing.assert_array_equal((a * b).data, [3.0, 8.0])

    def test_add_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal((Tensor(x) + 0.0).data, x)

    def test_mul_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal((Tensor(x) * 1.0).data, x)

    @pytest.mark.parametrize(
        "expr",
        [
            lambda p: T.tsum(p + 2.0),
            lambda p: T.tsum(p * p),
            lambda p: T.tsum(p * 3.0 - p * p),
            lambda p: T.tsum(p / 2.5),
            lambda p: T.tsum(T.div(1.0, p + 5.0)),
            lambda p: T.tsum(p**3),
            lambda p: T.tsum(T.exp(p)),
            lambda p: T.tsum(T.tanh(p)),
            lambda p: T.tsum(T.cos(p)),
            lambda p: T.tsum(T.sin(p)),
            lambda p: T.tsum(T.leaky_relu(p)),
            lambda p: T.tsum(T.relu(p)),
        ],
    )
    def test_gradients_match_finite_differences(self, expr):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(4, 3)) + 0.1  # nudge off relu kinks
        check_grad(expr, x0)

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 1))
        other = rng.normal(size=(3, 4))
        check_grad(lambda p: T.tsum(p * Tensor(other)), x0)
        check_grad(lambda p: T.tsum(p + Tensor(other)), x0)

    def test_maximum_minimum_values_and_grads(self):
        a = Tensor(np.array([1.0, 5.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0, 2.0]), requires_grad=True)
        out = T.maximum(a, b)
        np.testing.assert_array_equal(out.data, [3.0, 5.0, 2.0])
        backward(T.tsum(out))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 1.0])  # tie goes to a
        np.testing.assert_array_equal(b.grad, [1.0, 0.0, 0.0])
        out2 = T.minimum(Tensor([1.0, 5.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out2.data, [1.0, 4.0])

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor([-2.0, 3.0]))
        np.testing.assert_allclose(out.data, [-0.02, 3.0])


class TestMatmul:
    def test_identity(self):
        v = np.array([[1.0], [-2.0], [3.0]])
        out = T.matmul(Tensor(np.eye(3)), Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_ones_product(self):
        out = T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))

    def test_shape_mismatch_message(self):
        with pytest.raises(NumericError, match="matmul inner extents disagree") as ei:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)

    def test_batch_mismatch(self):
        with pytest.raises(NumericError, match="matmul batch extents disagree"):
            T.matmul(Tensor(np.ones((2, 5, 3)), ), Tensor(np.ones((3, 3, 4))))

    def test_gradient_both_sides(self):
        rng = np.random.default_rng(3)
        a0 = rng.normal(size=(4, 5))
        b = Tensor(rng.normal(size=(5, 6)))
        check_grad(lambda p: T.tsum(T.matmul(p, b)), a0, tol=1e-6)
        a = Tensor(a0)
        b0 = rng.normal(size=(5, 6))
        check_grad(lambda p: T.tsum(T.matmul(a, p)), b0, tol=1e-6)

    def test_batched_gradient(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(2, 3, 4))
        w = Tensor(rng.normal(size=(4, 5)))
        check_grad(lambda p: T.tsum(T.matmul(p, w) ** 2), x0, tol=1e-5)

    def test_vector_operand_rejected(self):
        m, v = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        for a, b in ((m, v), (v, T.swapaxes(m, 0, 1))):
            with pytest.raises(NumericError, match=r"inner extents disagree.*\(4,\)"):
                T.matmul(a, b)


class TestSoftmax:
    def test_constant_row_uniform(self):
        out = softmax(Tensor(np.full((2, 5), 3.0)), axis=-1)
        np.testing.assert_allclose(out.data, 0.2)

    def test_huge_gap_one_hot(self):
        x = np.zeros(4)
        x[2] = 1e6
        out = softmax(Tensor(x), axis=-1)
        assert out.data[2] == pytest.approx(1.0)
        assert out.data[[0, 1, 3]].max() < 1e-100

    def test_rows_normalize(self):
        rng = np.random.default_rng(8)
        out = softmax(Tensor(rng.normal(size=(6, 9))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (out.data >= 0).all()

    def test_gradient(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        check_grad(lambda p: T.tsum(softmax(p, axis=-1) * Tensor(w)), x0, tol=1e-6)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        check_grad(lambda p: T.tsum(T.log_softmax(p) * Tensor(w)), x0, tol=1e-6)


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        gain = Tensor(np.ones(6))
        bias = Tensor(np.zeros(6))
        out = T.layer_norm(Tensor(np.full((2, 6), 4.2)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_mean_zero_variance_one(self):
        rng = np.random.default_rng(14)
        x = rng.normal(loc=3.0, scale=2.0, size=(5, 16))
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(15)
        x0 = rng.normal(size=(3, 8))
        gain = Tensor(rng.normal(size=8), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        w = rng.normal(size=(3, 8))
        check_grad(
            lambda p: T.tsum(T.layer_norm(p, gain, bias) * Tensor(w)), x0, tol=1e-5
        )

    def test_affine_params_gradient(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(3, 8)))
        w = rng.normal(size=(3, 8))
        g0 = rng.normal(size=8)
        check_grad(lambda p: T.tsum(T.layer_norm(x, p, Tensor(np.zeros(8))) * Tensor(w)), g0)

    def test_matches_composition(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(loc=1.5, scale=2.0, size=(3, 5, 16))
        g0, b0, probe = rng.normal(size=16), rng.normal(size=16), rng.normal(size=(3, 5, 16))
        results = []
        for fn in (T.layer_norm, layer_norm_composed):
            x, gain, bias = (Tensor(a.copy(), requires_grad=True) for a in (x0, g0, b0))
            out = fn(x, gain, bias)
            backward(T.tsum(out * Tensor(probe)))
            results.append((out.data, x.grad, gain.grad, bias.grad))
        for name, a, b in zip(("output", "gx", "ggain", "gbias"), *results):
            assert rel_diff(a, b) < 1e-12, name

    @pytest.mark.parametrize("which", ["x", "gain", "bias"])
    def test_gradient_3d(self, which):
        rng = np.random.default_rng(18)
        args = {"x": rng.normal(size=(2, 3, 6)), "gain": rng.normal(size=6),
                "bias": rng.normal(size=6)}
        probe = Tensor(rng.normal(size=(2, 3, 6)))

        def loss(p):
            ops = {k: Tensor(v) for k, v in args.items()}
            ops[which] = p
            return T.tsum(T.layer_norm(ops["x"], ops["gain"], ops["bias"]) * probe)

        check_grad(loss, args[which].copy(), tol=1e-6)


class TestLinear:
    def test_matches_composition(self):
        rng = np.random.default_rng(19)
        x0, w0, b0 = rng.normal(size=(4, 9, 8)), rng.normal(size=(8, 5)), rng.normal(size=5)
        probe = rng.normal(size=(4, 9, 5))
        results = []
        for fn in (T.linear, linear_composed):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
            out = fn(x, w, b)
            backward(T.tsum(out * Tensor(probe)))
            results.append((out.data, x.grad, w.grad, b.grad))
        for name, a, b in zip(("output", "gx", "gweight", "gbias"), *results):
            assert rel_diff(a, b) < 1e-12, name

    @pytest.mark.parametrize("which", ["x", "weight", "bias"])
    def test_gradient_3d(self, which):
        rng = np.random.default_rng(20)
        args = {"x": rng.normal(size=(2, 3, 4)), "weight": rng.normal(size=(4, 5)),
                "bias": rng.normal(size=5)}
        probe = Tensor(rng.normal(size=(2, 3, 5)))

        def loss(p):
            ops = {k: Tensor(v) for k, v in args.items()}
            ops[which] = p
            return T.tsum(T.linear(ops["x"], ops["weight"], ops["bias"]) * probe)

        check_grad(loss, args[which].copy(), tol=1e-6)

    def test_2d_input(self):
        rng = np.random.default_rng(21)
        x0, w0, b0 = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        out = T.linear(Tensor(x0), Tensor(w0), Tensor(b0))
        np.testing.assert_array_equal(out.data, x0 @ w0 + b0)
        check_grad(lambda p: T.tsum(T.linear(Tensor(x0), p, Tensor(b0)) * Tensor(x0 @ w0)), w0,
                   tol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(NumericError, match="linear extents disagree"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


class TestShapes:
    def test_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(18)
        x0 = rng.normal(size=(2, 6))
        check_grad(lambda p: T.tsum(T.reshape(p, (3, 4)) ** 2), x0, tol=1e-6)

    def test_swapaxes_gradient(self):
        rng = np.random.default_rng(19)
        x0 = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(3, 2, 4))
        check_grad(lambda p: T.tsum(T.swapaxes(p, 0, 1) * Tensor(w)), x0, tol=1e-6)

    def test_concat_values_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        backward(T.tsum(out * Tensor(np.arange(10.0).reshape(2, 5))))
        np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_getitem_gradient_scatters(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = x[1]
        backward(T.tsum(out))
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_permute_matches_getitem_forward_and_scatter_backward(self):
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=(6, 5, 4))
        w = rng.normal(size=(6, 5, 4))
        perm = [3, 0, 5, 1, 4, 2]
        a = Tensor(x0, requires_grad=True)
        b = Tensor(x0, requires_grad=True)
        out_a, out_b = T.permute(a, perm), b[perm]
        assert out_a.data.tobytes() == out_b.data.tobytes()
        backward(T.tsum(out_a * Tensor(w)))
        backward(T.tsum(out_b * Tensor(w)))
        scattered = np.zeros_like(x0)
        np.add.at(scattered, perm, w)
        np.testing.assert_array_equal(a.grad, scattered)
        np.testing.assert_array_equal(a.grad, b.grad)
        check_grad(lambda p: T.tsum(T.permute(p, perm) * Tensor(w)), x0.copy(), tol=1e-6)

    def test_permute_rejects_non_permutation(self):
        x = Tensor(np.zeros((3, 2)))
        for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
            with pytest.raises(NumericError, match="not a permutation"):
                T.permute(x, bad)

    def test_broadcast_to_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = T.broadcast_to(T.reshape(x, (1, 2)), (4, 2))
        backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.tsum(x).item() == 15.0
        np.testing.assert_array_equal(T.tsum(x, axis=0).data, [3.0, 5.0, 7.0])
        assert T.tsum(x, axis=1, keepdims=True).shape == (2, 1)

    def test_mean_gradient(self):
        rng = np.random.default_rng(20)
        x0 = rng.normal(size=(4, 5))
        check_grad(lambda p: T.tmean(p), x0, tol=1e-6)
        check_grad(lambda p: T.tsum(T.tmean(p, axis=0) ** 2), x0, tol=1e-6)


class TestAmaxAmin:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_forward_matches_numpy(self, axis, keepdims):
        x = np.random.default_rng(21).normal(size=(3, 4, 5))
        np.testing.assert_array_equal(T.amax(Tensor(x), axis, keepdims).data,
                                      np.max(x, axis=axis, keepdims=keepdims))
        np.testing.assert_array_equal(T.amin(Tensor(x), axis, keepdims).data,
                                      np.min(x, axis=axis, keepdims=keepdims))

    @pytest.mark.parametrize("op", [T.amax, T.amin])
    def test_ties_route_to_first_index(self, op):
        p = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.5]]),
                   requires_grad=True)
        backward(T.tsum(op(p, axis=1)))
        first = [1, 0, 2] if op is T.amax else [0, 0, 0]
        expected = np.zeros((3, 3))
        expected[np.arange(3), first] = 1.0
        np.testing.assert_array_equal(p.grad, expected)

    @pytest.mark.parametrize("op", [T.amax, T.amin])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_gradient_matches_finite_differences(self, op, axis):
        x0 = np.random.default_rng(22).normal(size=(3, 4, 5))
        weights = Tensor(np.random.default_rng(23).normal(size=(3, 4, 5)).sum(axis=axis))
        check_grad(lambda p: T.tsum(op(p, axis) * weights), x0, tol=1e-6)

    def test_records_no_parents_under_no_grad(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.no_grad():
            outs = [T.amax(p, 1), T.amin(p, 0, keepdims=True)]
        for out in outs:
            assert not out.requires_grad and out._parents == () and out._grad_fn is None


class TestTransposeBatchSeq:
    """``swapaxes(x, 0, 1)``, the batch/sequence transpose around the global stack."""

    def test_full_scale_shape(self):
        x = Tensor(np.zeros((24, 1031, 512)))
        out = T.swapaxes(x, 0, 1)
        assert out.shape == (1031, 24, 512)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 5, 2))
        out = T.swapaxes(T.swapaxes(Tensor(x), 0, 1), 0, 1)
        assert (out.data == x).all()

    def test_element_mapping(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 6, 3))
        out = T.swapaxes(Tensor(x), 0, 1).data
        for _ in range(20):
            b, l, c = rng.integers(0, [4, 6, 3])
            assert x[b, l, c] == out[l, b, c]

    def test_gradient_routes_through_inverse(self):
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(3, 2, 4))
        check_grad(lambda p: T.tsum(T.swapaxes(p, 0, 1) * Tensor(w)), x0, tol=1e-6)


class TestAttention:
    def _params(self, rng, d):
        names = ["wq", "wk", "wv", "wo"]
        p = {n: Tensor(rng.normal(size=(d, d)) / math.sqrt(d), requires_grad=True) for n in names}
        for n in ["bq", "bk", "bv", "bo"]:
            p[n] = Tensor(np.zeros(d), requires_grad=True)
        return p

    def test_single_key_broadcasts_value(self):
        rng = np.random.default_rng(26)
        d = 8
        p = self._params(rng, d)
        q = Tensor(rng.normal(size=(2, 5, d)))
        kv = Tensor(rng.normal(size=(2, 1, d)))
        out = T.multi_head_attention(q, kv, kv, 2, p)
        # each row is divided by its sum, so a one-key row is exactly 1.0
        assert (T.attention_weights(q, kv, 2, p) == 1.0).all()
        # with one key every query position receives the same context vector
        for b in range(2):
            for i in range(1, 5):
                np.testing.assert_allclose(out.data[b, i], out.data[b, 0], atol=1e-12)

    def test_weights_normalize(self):
        rng = np.random.default_rng(27)
        d = 8
        p = self._params(rng, d)
        x = Tensor(rng.normal(size=(3, 6, d)))
        w = T.attention_weights(x, x, 4, p)
        assert w.shape == (3, 4, 6, 6)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("case", ["shifted", "slab_over_budget", "global"])
    def test_weights_equal_held_core_bit_for_bit(self, case):
        # the weights multi_head_attention applies, from the held core's one
        # pass over every slab: a batch with shifted and unshifted slabs, a
        # slab past ATTENTION_BLOCK_BYTES, and the global stack's (L, H, B, dh)
        # slabs (positions as the batch, objects as the sequence)
        rng = np.random.default_rng(50)
        d, heads = 16, 2
        p = self._params(rng, d)
        shape = {"shifted": (3, 9, d), "slab_over_budget": (1, 300, d), "global": (135, 3, d)}
        x = rng.normal(size=shape[case])
        if case == "shifted":
            x[1] *= 60.0
        x = Tensor(x)
        Q, K = (split_heads(x, p[f"w{part}"], p[f"b{part}"], heads) for part in "qk")
        scale = 1.0 / math.sqrt(d // heads)
        bound = 8 * np.abs(Q.data * scale).max(axis=(-2, -1)) * np.abs(K.data).max(axis=(-2, -1))
        over = bound > T.EXP_SAFE_SCORE
        if case == "shifted":
            assert over[1].all() and not over[[0, 2]].any()
        if case == "slab_over_budget":
            assert 8 * 300 * 300 > T.ATTENTION_BLOCK_BYTES
        if case == "global":
            assert Q.shape == (135, heads, 3, 8)
        held = held_self_attention_weights(x, heads, p)
        w = T.attention_weights(x, x, heads, p)
        assert w.shape == held.shape and np.array_equal(w, held.data)

    def test_head_divisibility(self):
        rng = np.random.default_rng(28)
        p = self._params(rng, 8)
        x = Tensor(np.zeros((1, 2, 8)))
        with pytest.raises(NumericError, match="width 8 not divisible by 3 heads"):
            T.multi_head_attention(x, x, x, 3, p)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(29)
        p = self._params(rng, 8)
        q = Tensor(np.zeros((1, 2, 8)))
        k = Tensor(np.zeros((1, 3, 8)))
        v = Tensor(np.zeros((1, 4, 8)))
        with pytest.raises(NumericError, match="key/value lengths disagree"):
            T.multi_head_attention(q, k, v, 2, p)

    def test_whole_block_gradient(self):
        rng = np.random.default_rng(30)
        d = 8
        p = self._params(rng, d)
        x0 = rng.normal(size=(2, 3, d))
        w = rng.normal(size=(2, 3, d))

        def loss(t):
            return T.tsum(T.multi_head_attention(t, t, t, 2, p) * Tensor(w))

        check_grad(loss, x0, step=1e-6, tol=1e-4)


class TestAttentionCore:
    # (Q shape, K/V shape): local self-attention over 7 tokens + 128 points,
    # decoder cross-attention of the 7 box tokens, and the global stack's
    # batch-as-sequence layout (135 positions, a batch of 3 objects)
    SHAPES = {
        "self": ((2, 4, 135, 8), (2, 4, 135, 8)),
        "cross": ((2, 4, 7, 8), (2, 4, 128, 8)),
        "global": ((135, 4, 3, 8), (135, 4, 3, 8)),
    }

    def _run(self, fn, q0, k0, v0, g0):
        Q, K, V = (Tensor(x.copy(), requires_grad=True) for x in (q0, k0, v0))
        ctx = fn(Q, K, V, 1.0 / math.sqrt(q0.shape[-1]))
        if isinstance(ctx, tuple):  # an oracle's (context, weights)
            ctx = ctx[0]
        # the upstream gradient arrives strided, as from the head merge
        backward(T.tsum(T.swapaxes(ctx, 1, 2) * Tensor(g0)))
        return ctx.data, Q.grad, K.grad, V.grad

    @pytest.mark.parametrize("case", sorted(SHAPES))
    def test_matches_composition(self, case):
        # the scale is folded into Q and the normalization into the context,
        # so the fused node agrees with the chain to rounding, not bit for bit
        q_shape, kv_shape = self.SHAPES[case]
        rng = np.random.default_rng(41)
        q0, k0, v0 = rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)
        g0 = rng.normal(size=T.swapaxes(Tensor(q0), 1, 2).shape)
        fused = self._run(T.attention_core, q0, k0, v0, g0)
        composed = self._run(attention_core_composed, q0, k0, v0, g0)
        for name, a, b in zip(("context", "gQ", "gK", "gV"), fused, composed):
            assert rel_diff(a, b) < 1e-12, f"{case}: {name} differs"

    @staticmethod
    def _slabs_per_block(q_shape, k_shape):
        return max(1, T.ATTENTION_BLOCK_BYTES // (8 * q_shape[-2] * k_shape[-2]))

    @pytest.mark.parametrize("case", sorted(SHAPES) + ["ragged_blocks", "slab_over_budget"])
    def test_blocks_match_held_weights_bit_for_bit(self, case):
        # the core builds each block's weights twice, in the forward and
        # again in the backward; both must be those of one pass over the
        # whole batch that holds the weights for the backward
        rng = np.random.default_rng(49)
        if case == "ragged_blocks":
            # 10 slabs of (135, 135) in blocks of 3: the last block is short,
            # and slab 4, in a middle block, is over EXP_SAFE_SCORE
            q_shape = kv_shape = (2, 5, 135, 8)
        elif case == "slab_over_budget":
            q_shape = kv_shape = (1, 2, 300, 8)
        else:
            q_shape, kv_shape = self.SHAPES[case]
        q0, k0, v0 = rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)
        per_block = self._slabs_per_block(q_shape, kv_shape)
        if case == "ragged_blocks":
            q0[0, 4] *= 500.0
            bound = 8 * np.abs(q0 / math.sqrt(8)).max(axis=(-2, -1)) * np.abs(k0).max(axis=(-2, -1))
            assert np.flatnonzero(bound.ravel() > T.EXP_SAFE_SCORE).tolist() == [4]
            assert 10 % per_block and 0 < 4 // per_block < (10 - 1) // per_block
        if case == "slab_over_budget":
            assert 8 * 300 * 300 > T.ATTENTION_BLOCK_BYTES and per_block == 1
        g0 = rng.normal(size=T.swapaxes(Tensor(q0), 1, 2).shape)
        blocked = self._run(T.attention_core, q0, k0, v0, g0)
        held = self._run(attention_core_held, q0, k0, v0, g0)
        for name, a, b in zip(("context", "gQ", "gK", "gV"), blocked, held):
            assert np.array_equal(a, b), f"{case}: {name} differs"

    def test_weights_outside_graph(self):
        # the core returns the context alone; the weights are an array built
        # without a graph, even from parameters and inputs that take gradients
        rng = np.random.default_rng(42)
        Q, K, V = (Tensor(rng.normal(size=(1, 2, 3, 4)), requires_grad=True) for _ in range(3))
        assert isinstance(T.attention_core(Q, K, V, 0.5), Tensor)
        p = {f"{w}{part}": Tensor(rng.normal(size=(4, 4) if w == "w" else 4), requires_grad=True)
             for w in "wb" for part in "qk"}
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        w = T.attention_weights(x, x, 2, p)
        assert type(w) is np.ndarray and w.shape == (1, 2, 3, 3)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert T.linear(x, p["wq"], p["bq"]).requires_grad  # the graph is on again

    @staticmethod
    def _reference_context(q0, k0, v0, shift):
        # the core's forward written out, with its scores and its shift
        e = np.exp(q0 * (1.0 / math.sqrt(q0.shape[-1])) @ k0.swapaxes(-1, -2).copy() - shift)
        return (e @ v0) * (1.0 / e.sum(axis=-1, keepdims=True))

    def test_slab_under_the_bound_is_not_shifted(self):
        rng = np.random.default_rng(47)
        q0 = rng.normal(size=(2, 3, 9, 4))
        k0, v0 = rng.normal(size=(2, 3, 11, 4)), rng.normal(size=(2, 3, 11, 4))
        assert 4 * np.abs(0.5 * q0).max() * np.abs(k0).max() <= T.EXP_SAFE_SCORE
        ctx = T.attention_core(q0, k0, v0, 0.5)
        assert np.array_equal(ctx.data, self._reference_context(q0, k0, v0, 0.0))

    @pytest.mark.parametrize("side", ["under", "over"])
    def test_scores_at_the_bound_stay_finite(self, side):
        # two aligned rows of Q and K score ±dh·scale·c², the slab's bound:
        # just under it the scores reach ±EXP_SAFE_SCORE unshifted, just over
        # it they are shifted; the other rows keep the gradients O(1)
        rng = np.random.default_rng(48)
        q0, k0 = rng.uniform(-1, 1, size=(1, 1, 6, 4)), rng.uniform(-1, 1, size=(1, 1, 7, 4))
        v0 = rng.normal(size=(1, 1, 7, 4))
        edge = T.EXP_SAFE_SCORE * (1.0 - 1e-9 if side == "under" else 1.0 + 1e-9)
        c = math.sqrt(edge / (4 * 0.5))
        q0[0, 0, :2] = k0[0, 0, :2] = [[c] * 4, [-c] * 4]
        scores = 0.5 * q0 @ k0.swapaxes(-1, -2)
        assert np.abs(scores).max() == pytest.approx(T.EXP_SAFE_SCORE, rel=1e-8)
        g0 = rng.normal(size=(1, 6, 1, 4))
        fused = self._run(T.attention_core, q0, k0, v0, g0)
        composed = self._run(attention_core_composed, q0, k0, v0, g0)
        for name, a, b in zip(("context", "gQ", "gK", "gV"), fused, composed):
            assert np.isfinite(a).all(), name
            assert rel_diff(a, b) < 1e-12, name
        shift = 0.0 if side == "under" else scores.max(axis=-1, keepdims=True)
        assert np.array_equal(fused[0], self._reference_context(q0, k0, v0, shift))

    def test_scores_past_exp_overflow_stay_finite(self):
        # slab (0, 1) scores past exp's overflow, so its bound is far over
        # EXP_SAFE_SCORE and its rows keep the row-max shift; the other
        # slabs, under the bound, go unshifted in the same call
        rng = np.random.default_rng(45)
        q0 = rng.normal(size=(2, 2, 6, 4))
        k0, v0 = rng.normal(size=(2, 2, 7, 4)), rng.normal(size=(2, 2, 7, 4))
        q0[0, 1, 2:4] *= 500.0
        assert (0.5 * q0 @ k0.swapaxes(-1, -2)).max() > np.log(np.finfo(float).max)
        g0 = rng.normal(size=(2, 6, 2, 4))
        fused = self._run(T.attention_core, q0, k0, v0, g0)
        composed = self._run(attention_core_composed, q0, k0, v0, g0)
        for name, a, b in zip(("context", "gQ", "gK", "gV"), fused, composed):
            assert np.isfinite(a).all(), name
            assert rel_diff(a, b) < 1e-12, name

    def test_object_output_independent_of_its_batch(self):
        # an object with huge scores in the batch changes no other object's
        # bits; with one head blown up, slabs under and over EXP_SAFE_SCORE
        # share the object and the batch, and each slab equals its own run
        rng = np.random.default_rng(46)
        q0, k0, v0 = (rng.normal(size=(2, 2, 5, 4)) for _ in range(3))
        g0 = rng.normal(size=(2, 5, 2, 4))
        alone = self._run(T.attention_core, q0[:1], k0[:1], v0[:1], g0[:1])
        for huge in ((1,), (1, 0)):
            q = q0.copy()
            q[huge] *= 3000.0
            bound = 4 * np.abs(0.5 * q).max(axis=(-2, -1)) * np.abs(k0).max(axis=(-2, -1))
            assert (bound[0] <= T.EXP_SAFE_SCORE).all() and (bound[huge] > T.EXP_SAFE_SCORE).all()
            batched = self._run(T.attention_core, q, k0, v0, g0)
            for a, b in zip(alone, batched):
                assert np.array_equal(a[0], b[0])
            for h in range(2):
                one = self._run(T.attention_core, q[1:, h:h + 1], k0[1:, h:h + 1],
                                v0[1:, h:h + 1], g0[1:, :, h:h + 1])
                for a, b in zip(one, batched):
                    assert np.array_equal(a[0, 0], b[1, h])

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, which):
        rng = np.random.default_rng(43 + which)
        ops = [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 2, 5, 4)),
               rng.normal(size=(2, 2, 5, 4))]
        probe = Tensor(rng.normal(size=(2, 2, 3, 4)))

        def loss(t):
            args = [Tensor(x) for x in ops]
            args[which] = t
            return T.tsum(T.attention_core(*args, 0.5) * probe)

        check_grad(loss, ops[which], step=1e-6, tol=1e-6)


class TestNoGrad:
    def test_records_no_parents(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        with T.no_grad():
            out = T.tsum(p * p)
            ctx = T.attention_core(*(T.reshape(p, (1, 3, 1)) for _ in range(3)), 1.0)
        for t in (out, ctx):
            assert not t.requires_grad and t._parents == () and t._grad_fn is None
        np.testing.assert_array_equal(out.data, 5.0)
        assert T.tsum(p * p)._parents != ()

    def test_nests(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not (p + 1.0).requires_grad
            # leaving the inner block keeps the outer one in force
            assert not (p + 1.0).requires_grad
        assert (p + 1.0).requires_grad

    def test_other_threads_keep_recording(self):
        p = Tensor(np.ones(2), requires_grad=True)
        seen = []
        worker = threading.Thread(target=lambda: seen.append((p + 1.0).requires_grad))
        with T.no_grad():
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive() and seen == [True]

    def test_restored_after_exception(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(NumericError, match="matmul inner extents disagree"):
            with T.no_grad():
                T.matmul(p, Tensor(np.ones(3)))
        assert (p * 2.0).requires_grad


def _elementwise_cases():
    ops = [T.add, T.sub, T.mul, T.div, T.maximum, T.minimum]
    forms = [[(3, 4), (3, 4)], [(3, 4), (4,)], [(1, 4), (3, 4)], [(3, 4), ()], [(), (3, 4)]]
    return [pytest.param(op, shapes, id=f"{op.__name__}-{shapes}")
            for op in ops for shapes in forms]


MULTI_INPUT_CASES = _elementwise_cases() + [
    pytest.param(T.matmul, [(2, 3, 4), (4, 5)], id="matmul-folded"),
    pytest.param(T.matmul, [(1, 3, 4), (2, 4, 5)], id="matmul-batch-broadcast"),
    pytest.param(lambda *ts: T.concat(ts, axis=1), [(2, 3), (2, 1), (2, 2)], id="concat"),
    pytest.param(T.linear, [(2, 3, 4), (4, 5), (5,)], id="linear"),
    pytest.param(T.linear, [(2, 3, 4), (4, 5), (1, 5)], id="linear-bias-(1, d)"),
    pytest.param(T.layer_norm, [(2, 3, 4), (4,), (1, 4)], id="layer_norm"),
    pytest.param(T.layer_norm, [(2, 3, 4), (), ()], id="layer_norm-scalar-affine"),
    pytest.param(lambda q, k, v: T.attention_core(q, k, v, 0.5),
                 [(2, 3, 4), (2, 5, 4), (2, 5, 4)], id="attention_core"),
]


class TestInputsTakingNoGradient:
    """Every rule returns a gradient for every input; ``backward`` drops the
    ones of inputs that take none and reduces the rest to their shape."""

    @staticmethod
    def _arrays(shapes):
        rng = np.random.default_rng(41)
        # positive and apart from each other: div stays finite, maximum has no ties
        return [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]

    @staticmethod
    def _backward(out):
        probe = np.random.default_rng(42).normal(size=out.shape)
        backward(T.tsum(T.mul(out, probe)))

    @pytest.mark.parametrize("op, shapes", MULTI_INPUT_CASES)
    def test_input_alone_gets_its_gradient_among_all(self, op, shapes):
        arrays = self._arrays(shapes)
        every = [Tensor(a, requires_grad=True) for a in arrays]
        self._backward(op(*every))
        for i, a in enumerate(arrays):
            alone = Tensor(a, requires_grad=True)
            out = op(*[alone if j == i else other for j, other in enumerate(arrays)])
            assert len(out._parents) == 1 and out._parents[0] is alone
            self._backward(out)
            assert alone.grad.shape == a.shape
            assert alone.grad.tobytes() == every[i].grad.tobytes()

    @pytest.mark.parametrize("op, shapes", MULTI_INPUT_CASES)
    def test_builds_no_node_under_no_grad(self, op, shapes):
        inputs = [Tensor(a, requires_grad=True) for a in self._arrays(shapes)]
        with T.no_grad():
            out = op(*inputs)
        assert not out.requires_grad and out._node is None


class TestCrossEntropy:
    def test_uniform_logits_ln2(self):
        logits = Tensor(np.zeros((5, 2)))
        loss = T.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((3, 2))
        logits[:, 1] = 50.0
        loss = T.cross_entropy(Tensor(logits), np.ones(3, dtype=int))
        assert loss.item() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(33)
        x0 = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        check_grad(lambda p: T.cross_entropy(p, labels), x0, tol=1e-6)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(4.0), requires_grad=True)
        backward(T.tsum(p))
        np.testing.assert_array_equal(p.grad, np.ones(4))

    def test_quadratic_gradient(self):
        x = np.array([1.0, -2.0, 3.0])
        p = Tensor(x, requires_grad=True)
        backward(T.tsum(p * p) * 0.5)
        np.testing.assert_allclose(p.grad, x)

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(NumericError, match="backward needs a scalar"):
            backward(Tensor(np.zeros(3), requires_grad=True))

    def test_reuse_sums_both_paths(self):
        x = np.array([1.0, 2.0])
        p = Tensor(x, requires_grad=True)
        backward(T.tsum(p) + T.tsum(p * p))
        np.testing.assert_allclose(p.grad, 1.0 + 2.0 * x)

    def test_accumulates_until_cleared(self):
        p = Tensor(np.ones(3), requires_grad=True)
        backward(T.tsum(p))
        backward(T.tsum(p))
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))
        zero_grads([p])
        assert p.grad is None

    def test_only_leaves_keep_gradients(self):
        x = np.array([1.0, -2.0, 3.0])
        p = Tensor(x, requires_grad=True)
        h = p * p
        loss = T.tsum(h + p)
        backward(loss)
        assert h.grad is None and loss.grad is None
        np.testing.assert_array_equal(p.grad, 2.0 * x + 1.0)
        backward(loss)  # a second walk of the same graph adds to the leaf only
        assert h.grad is None and loss.grad is None
        np.testing.assert_array_equal(p.grad, 2.0 * (2.0 * x + 1.0))

    def test_deep_chain_no_recursion_limit(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        x = p
        for _ in range(5000):
            x = x + 1.0
        backward(x)
        assert p.grad == 1.0

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("b_takes_one", [True, False])
    def test_rule_returning_a_wrong_gradient_count_raises(self, count, b_takes_one):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=b_takes_one)

        def grad_fn(g):
            return (g,) * count  # add has two inputs

        out = T._record(a.data + b.data, grad_fn, a, b)
        with pytest.raises(ValueError, match="zip"):
            backward(T.tsum(out))

    def test_constant_branches_pruned(self):
        c = Tensor(np.ones(3)) * 2.0  # no gradient requirement anywhere
        assert c._grad_fn is None and c._parents == ()

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(77)
            p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            x = Tensor(rng.normal(size=(4, 4)))
            loss = T.tsum(softmax(T.matmul(x, p), axis=-1) ** 2)
            backward(loss)
            return loss.item(), p.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert (g1 == g2).all()


class TestParameter:
    def test_named_and_requires_grad(self):
        p = Parameter(np.zeros((2, 2)), name="enc.w")
        assert p.requires_grad and p.name == "enc.w"
