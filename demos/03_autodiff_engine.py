"""The reverse-mode engine: graphs, gradients, attention, and the optimizer.

Everything the annotator learns runs through this little engine: float64
numpy arrays with a recorded backward rule per op. The demo differentiates
a few expressions, checks one against finite differences, and fits a toy
regression with the same Adam + cosine schedule the trainer uses.
"""

import math

import numpy as np

from frustumbox import tensor as T
from frustumbox.optim import Adam, cosine_lr
from frustumbox.tensor import Parameter, Tensor, backward

# -- a tiny graph ----------------------------------------------------------
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
loss = T.tsum(x * x) * 0.5
backward(loss)
print("d/dx of sum(x^2)/2 :", x.grad, "(equals x)")

# gradients accumulate until cleared, and shared nodes sum both paths
T.zero_grads([x])
backward(T.tsum(x) + T.tsum(x * x))
print("two paths through x:", x.grad, "(equals 1 + 2x)")

# -- attention block with a finite-difference check --------------------------
rng = np.random.default_rng(0)
d, heads = 8, 2
params = {
    name: Tensor(rng.normal(size=(d, d)) / math.sqrt(d), requires_grad=True)
    for name in ("wq", "wk", "wv", "wo")
}
params.update({name: Tensor(np.zeros(d), requires_grad=True)
               for name in ("bq", "bk", "bv", "bo")})
seq = Tensor(rng.normal(size=(1, 5, d)), requires_grad=True)
out = T.multi_head_attention(seq, seq, seq, heads, params)
# the weights it applied, rebuilt from the queries and keys alone, outside the graph
weights = T.attention_weights(seq, seq, heads, params)
print(f"\nattention weights shape {weights.shape}, rows sum to "
      f"{weights.sum(-1).round(12).max()}")

probe = Tensor(rng.normal(size=out.shape))
backward(T.tsum(out * probe))
analytic = seq.grad[0, 2, 3]
h = 1e-6
bumped = seq.data.copy()
bumped[0, 2, 3] += h
hi = T.multi_head_attention(Tensor(bumped), Tensor(bumped), Tensor(bumped), heads, params)
bumped[0, 2, 3] -= 2 * h
lo = T.multi_head_attention(Tensor(bumped), Tensor(bumped), Tensor(bumped), heads, params)
numeric = ((hi.data - lo.data) * probe.data).sum() / (2 * h)
print(f"attention gradient: analytic {analytic:.8f} vs finite-diff {numeric:.8f}")

# -- a toy fit with the real optimizer ---------------------------------------
w_true = np.array([[2.0], [-1.0], [0.5]])
X = rng.normal(size=(64, 3))
y = Tensor(X @ w_true)
w = Parameter(np.zeros((3, 1)), name="w")
opt = Adam({"w": w}, weight_decay=0.0)
steps = 200
for step in range(steps):
    T.zero_grads([w])
    pred = T.matmul(Tensor(X), w)
    loss = T.tmean((pred - y) ** 2)
    backward(loss)
    opt.step(lr=cosine_lr(step, steps - 1, 0.05))
print(f"\nfitted weights {w.data.ravel().round(4)} (true {w_true.ravel()})")
print(f"final loss {loss.item():.2e}")
print(f"cosine schedule: lr(0)={cosine_lr(0, 99, 1e-4):.2e} "
      f"lr(50)={cosine_lr(50, 99, 1e-4):.2e} lr(99)={cosine_lr(99, 99, 1e-4):.2e}")
