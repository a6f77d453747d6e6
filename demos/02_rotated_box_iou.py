"""Rotated 3D box geometry: corners, exact IoU, and the distance penalty.

The exact IoU has one implementation, the batched kernel
``geometry.box_iou``: in the second box's own frame, every edge of each
bird's-eye footprint is clipped against the other footprint's half-planes,
the overlap area is summed from the clipped edges by Green's theorem and
scaled by the vertical overlap. ``iou_3d`` runs it without a graph; the
training loss runs it with one, here with the two boxes' roles swapped. A
Monte-Carlo estimate over the same pair shows the clipping is right; the
distance-IoU penalty the loss adds and the front/back label round out the
objective's geometric ingredients.
"""

import math

import numpy as np

from frustumbox.geometry import (
    Box3D,
    box_corners,
    direction_label,
    iou_3d,
)
from frustumbox.loss import diou_loss
from frustumbox.tensor import Tensor


def penalty(pred, gt):
    """The distance penalty the training loss adds, read as loss - (1 - IoU)."""
    loss, (iou,) = diou_loss(Tensor([pred.as_tuple()]), [gt])
    return loss.item() - (1.0 - iou)


a = Box3D(cx=0.0, cy=0.0, cz=0.0, width=2.0, length=4.0, height=1.5, yaw=0.0)
b = Box3D(cx=0.8, cy=0.4, cz=0.2, width=2.0, length=4.0, height=1.5, yaw=math.pi / 6)

print("corners of box a (bottom face first, counter-clockwise):")
print(np.round(box_corners(a), 3))

print(f"\nanalytic IoU(a, b)          = {iou_3d(a, b):.12f}")

# the training loss computes the IoU from b's box row, as the network emits it, in a's frame
_, (loss_iou,) = diou_loss(Tensor([b.as_tuple()]), [a])
print(f"training-loss IoU(b, a)     = {loss_iou:.12f}")

# Monte-Carlo cross-check: sample the joint bounding volume uniformly
rng = np.random.default_rng(0)
lo = np.array([-3.0, -3.0, -1.0])
hi = np.array([4.0, 4.0, 1.2])
pts = rng.uniform(lo, hi, size=(400_000, 3))


def inside(points, box):
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    d = points - box.center
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    return (
        (np.abs(lx) <= box.width / 2)
        & (np.abs(ly) <= box.length / 2)
        & (np.abs(d[:, 2]) <= box.height / 2)
    )


in_a, in_b = inside(pts, a), inside(pts, b)
estimate = (in_a & in_b).sum() / (in_a | in_b).sum()
print(f"Monte-Carlo IoU             = {estimate:.6f}")

# the identical box rotated by pi has the same footprint: IoU is heading-blind
flipped = Box3D(b.cx, b.cy, b.cz, b.width, b.length, b.height, b.yaw + math.pi)
print(f"IoU against the pi-flip     = {iou_3d(a, flipped):.6f}")

# which is why the objective carries a separate front/back term
for yaw in (0.0, math.pi / 3, math.pi / 2, -math.pi):
    label = "front" if direction_label(yaw) == 0 else "back"
    print(f"direction_label(yaw={yaw:+.3f}) = {label}")

# the penalty term: squared center distance over the joint enclosing diagonal
print(f"\ndIoU penalty(a, b)      = {penalty(b, a):.6f}")
far = Box3D(9.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.3)
print(f"dIoU penalty(a, far)    = {penalty(far, a):.6f}  (grows with separation)")
print(f"dIoU penalty(a, a)      = {penalty(a, a):.6f}  (zero at coincident centers)")
