"""Finite-difference validation of the full model's backward pass.

For every parameter the harness probes random unit directions: the analytic
directional derivative (from one backward pass of the real training
objective) is compared against a central finite difference of the loss along
the same direction. A corrupted backward rule in any op on the path shows up
as a large relative error in the parameters feeding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NumericError
from .loss import total_loss

DEFAULT_STEP = 1e-4
# A check passes when every parameter's worst relative error is below this.
TOLERANCE = 1e-3

# Absolute floor on the error denominator: directional derivatives this
# small are below central-difference rounding noise, so the comparison is
# meaningful only relative to the floor. Key-projection biases, for example,
# have identically zero gradients (a uniform key shift cancels inside the
# softmax) and would otherwise fail on noise alone.
ABSOLUTE_FLOOR = 1e-7


@dataclass
class GradCheckRow:
    name: str
    rel_error: float
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    rows: list = field(default_factory=list)

    @property
    def worst(self):
        return max((r.rel_error for r in self.rows), default=0.0)

    @property
    def passed(self):
        return self.worst < TOLERANCE

    def format_lines(self):
        lines = [
            f"{r.name:40s} rel_err {r.rel_error:10.3e}  "
            f"analytic {r.analytic: .6e}  numeric {r.numeric: .6e}"
            for r in sorted(self.rows, key=lambda r: -r.rel_error)
        ]
        lines.append(
            f"worst relative error {self.worst:.3e} "
            f"({'PASS' if self.passed else 'FAIL'} at {TOLERANCE:g})"
        )
        return lines


def _loss_value(model, points, gt_boxes, lambda_box):
    with T.no_grad():
        out = model.forward(points)
        return total_loss(out.boxes, out.direction_logits, gt_boxes, lambda_box).total.item()


def model_gradient_check(model, points, gt_boxes, lambda_box, probes, seed,
                         step=DEFAULT_STEP):
    """Directional finite-difference check over every parameter of the
    training objective weighted by ``lambda_box`` (the run's
    ``TrainConfig.lambda_box``).

    Returns a GradCheckReport with one row per parameter (its worst probe).
    The training objective is piecewise smooth; probes are taken at the
    model's current point, which for random inputs sits away from the
    non-smooth configuration boundaries with probability one.
    """
    rng = np.random.default_rng(seed)
    T.zero_grads(model.params.values())
    out = model.forward(points)
    breakdown = total_loss(out.boxes, out.direction_logits, gt_boxes, lambda_box)
    T.backward(breakdown.total)
    del out, breakdown  # the parameters hold the gradients; free the graph before probing

    report = GradCheckReport()
    for name, p in model.params.items():
        if p.grad is None:
            raise NumericError(f"parameter {name!r} received no gradient")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"parameter {name!r} received a non-finite gradient")
        directions = [p.grad / max(np.linalg.norm(p.grad), 1e-30)]
        for _ in range(probes - 1):
            d = rng.normal(size=p.data.shape)
            directions.append(d / np.linalg.norm(d))
        worst = None
        for direction in directions:
            row = _probe(model, points, gt_boxes, lambda_box, p, direction, step, name)
            if worst is None or row.rel_error > worst.rel_error:
                worst = row
        report.rows.append(worst)
    T.zero_grads(model.params.values())
    return report


def _probe(model, points, gt_boxes, lambda_box, param, direction, step, name):
    """One directional probe, shrinking the step when the window straddles a
    non-smooth boundary of the piecewise objective.

    A kink crossing inflates the difference quotient only while the step
    spans the boundary, so it vanishes as the step shrinks; a wrong backward
    rule disagrees at every step. The best agreement across steps is
    reported.
    """
    analytic = float(np.sum(param.grad * direction))
    best = None
    for h in (step, step / 10.0, step / 100.0):
        saved = param.data.copy()
        param.data = saved + h * direction
        hi = _loss_value(model, points, gt_boxes, lambda_box)
        param.data = saved - h * direction
        lo = _loss_value(model, points, gt_boxes, lambda_box)
        param.data = saved
        numeric = (hi - lo) / (2.0 * h)
        rel = abs(analytic - numeric) / (abs(analytic) + abs(numeric) + ABSOLUTE_FLOOR)
        row = GradCheckRow(name=name, rel_error=rel, analytic=analytic, numeric=numeric)
        if best is None or row.rel_error < best.rel_error:
            best = row
        if best.rel_error < TOLERANCE / 10.0:
            break
    return best
