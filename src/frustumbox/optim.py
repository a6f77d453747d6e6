"""Adam with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import CheckpointError, NumericError


# Moment decay rates and the denominator guard (Kingma & Ba, arXiv:1412.6980).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def cosine_lr(step, total, lr_max, lr_min=0.0):
    """Cosine annealing from lr_max at step 0 to lr_min at step == total."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return lr_min + (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total)) / 2.0


class Adam:
    """Bias-corrected Adam; weight decay is applied to the value, not the
    gradient, before the moment update (decoupled decay, Loshchilov & Hutter,
    arXiv:1711.05101).

    The rate comes with each ``step`` and the decay with construction, both
    from the run's config; the state is only the step count and moments.
    Gradients are left untouched; the caller clears them between steps.
    """

    def __init__(self, params, weight_decay):
        self.params = dict(params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, lr):
        """One update over all parameters at learning rate ``lr``."""
        for name, p in self.params.items():
            if p.grad is None:
                raise NumericError(f"parameter {name!r} has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for name, p in self.params.items():
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def state_dict(self):
        """Step count and moment buffers for exact training resumption."""
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state):
        for moment in ("m", "v"):
            if set(state[moment]) != set(self.m):
                raise CheckpointError(
                    f"optimizer state parameter names do not match: {moment} moments missing="
                    f"{sorted(set(self.m) - set(state[moment]))}, unexpected="
                    f"{sorted(set(state[moment]) - set(self.m))}")
        self.step_count = int(state["step_count"])
        for k in self.m:
            self.m[k] = np.array(state["m"][k], dtype=np.float64)
            self.v[k] = np.array(state["v"][k], dtype=np.float64)
