import numpy as np
import pytest

from frustumbox.errors import NumericError
from frustumbox.optim import Adam, cosine_lr
from frustumbox.tensor import Parameter


def make_param(value, name="p"):
    p = Parameter(np.array(value, dtype=np.float64), name=name)
    return p


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 1e-4) == pytest.approx(1e-4)
        assert cosine_lr(100, 100, 1e-4, 1e-6) == pytest.approx(1e-6)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 2.0, 1.0) == pytest.approx(1.5)

    def test_monotone_decrease(self):
        vals = [cosine_lr(s, 10, 1.0) for s in range(11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1.0)
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 1.0)


class TestAdam:
    def test_zero_grad_zero_decay_no_change(self):
        p = make_param([1.0, -2.0])
        p.grad = np.zeros(2)
        opt = Adam({"p": p}, weight_decay=0.0)
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_lr(self):
        # hand recurrence: m_hat = g, v_hat = g*g, update = lr * g/(|g|+eps)
        p = make_param(1.0)
        p.grad = np.array(1.0)
        opt = Adam({"p": p}, weight_decay=0.0)
        opt.step(0.1)
        assert p.data == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_shrinks(self):
        p = make_param(2.0)
        opt = Adam({"p": p}, weight_decay=0.05)
        for k in range(1, 4):
            p.grad = np.array(0.0)
            opt.step(0.1)
            assert p.data == pytest.approx(2.0 * (1 - 0.1 * 0.05) ** k, rel=1e-12)

    def test_missing_gradient_names_parameter(self):
        p = make_param(1.0, name="enc.layer0.w")
        opt = Adam({"enc.layer0.w": p}, weight_decay=0.0)
        with pytest.raises(NumericError, match="has no gradient") as ei:
            opt.step(0.1)
        assert "enc.layer0.w" in str(ei.value)

    def test_grads_left_untouched(self):
        p = make_param(1.0)
        p.grad = np.array(3.0)
        opt = Adam({"p": p}, weight_decay=0.05)
        opt.step(0.01)
        assert p.grad == 3.0

    def test_state_roundtrip_resumes_identically(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=10)

        def run(split):
            p = make_param(1.0)
            opt = Adam({"p": p}, weight_decay=0.05)
            state = None
            for i, g in enumerate(grads):
                if split is not None and i == split:
                    state = opt.state_dict()
                    data = p.data.copy()
                    p = make_param(float(data))
                    opt = Adam({"p": p}, weight_decay=0.05)
                    opt.load_state_dict(state)
                p.grad = np.array(g)
                opt.step(0.05)
            return float(p.data)

        assert run(None) == run(5)

    def test_state_is_step_count_and_moments_only(self):
        p = make_param(1.0)
        p.grad = np.array(0.5)
        first = Adam({"p": p}, weight_decay=0.05)
        first.step(0.1)
        state = first.state_dict()
        assert sorted(state) == ["m", "step_count", "v"]
        second = Adam({"p": p}, weight_decay=0.0)
        second.load_state_dict(state)
        assert second.weight_decay == 0.0 and second.step_count == 1
