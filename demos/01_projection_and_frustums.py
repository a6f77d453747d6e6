"""Calibrated projection and frustum extraction, step by step.

A LiDAR point maps into a camera through the rigid transform, the
rectification, and the projective matrix; a 2D box then selects the rows of
the cloud whose pixels fall inside it. A frame's cloud is projected once and
every box of the frame is cut from the same pixels. Run this file directly;
it prints every intermediate quantity.
"""

import numpy as np

from frustumbox.geometry import extract_frustum
from frustumbox.synthetic import SceneSpec, generate_synthetic_scene, virtual_calibration

calib = virtual_calibration()
print("projection matrix P:\n", calib.P)
print("sensor-to-camera transform Tr:\n", calib.Tr)

# one point, 10 m ahead and a little to the left
p = np.array([10.0, 1.5, -0.5])
uv, depth = calib.project(p.reshape(1, 3))
print(f"\npoint {p} projects to pixel ({uv[0, 0]:.1f}, {uv[0, 1]:.1f}) "
      f"at camera depth {depth[0]:.2f}")
assert depth[0] > 0

# a point behind the sensor has no pixel: its rectified depth is not positive,
# so every frustum cut drops it
_, depth = calib.project(np.array([[-5.0, 0.0, 0.0]]))
print(f"behind the camera: depth {depth[0]:.2f}, not projected")
assert depth[0] <= 0

# now a whole scene: objects on a ground plane, seen by the same rig
rng = np.random.default_rng(7)
scene = generate_synthetic_scene(SceneSpec(noise_sigma=0.02), rng)
print(f"\nscene: {len(scene.points)} points, {len(scene.objects)} objects")

# one projection of the cloud serves every box of the frame; a frustum is
# the ascending row indices of the cloud's points inside the box
frustums = extract_frustum(scene.points, [obj.box2d for obj in scene.objects], calib)
for i, (obj, rows) in enumerate(zip(scene.objects, frustums)):
    b = obj.box2d
    print(
        f"object {i}: 2D box ({b.u_min:6.1f},{b.v_min:6.1f})-({b.u_max:6.1f},{b.v_max:6.1f})"
        f"  frustum holds {len(rows):4d} of {len(scene.points)} points"
    )

# membership is exact: every frustum point, gathered by its row index,
# projects back inside its box, and cutting one box alone gives the same rows
obj = scene.objects[0]
(rows,) = extract_frustum(scene.points, [obj.box2d], calib)
assert np.array_equal(rows, frustums[0])
uv, depth = calib.project(scene.points[rows])
assert (depth > 0).all()
assert obj.box2d.contains(uv[:, 0], uv[:, 1]).all()
print("\nevery extracted point projects back inside its 2D box: verified")
