"""Calibrated projection and frustum extraction, step by step.

A LiDAR point maps into a camera through the rigid transform, the
rectification, and the projective matrix; a 2D box then selects the
sub-cloud whose pixels fall inside it. A frame's cloud is projected once and
every box of the frame is cut from the same pixels. Run this file directly;
it prints every intermediate quantity.
"""

import numpy as np

from frustumbox.geometry import Box2D, extract_frustum, project_point
from frustumbox.synthetic import SceneSpec, generate_synthetic_scene, virtual_calibration

calib = virtual_calibration()
print("projection matrix P:\n", calib.P)
print("sensor-to-camera transform Tr:\n", calib.Tr)

# one point, 10 m ahead and a little to the left
p = np.array([10.0, 1.5, -0.5])
u, v = project_point(p, calib)
print(f"\npoint {p} projects to pixel ({u:.1f}, {v:.1f})")

# a point behind the sensor has no pixel
try:
    project_point([-5.0, 0.0, 0.0], calib)
except Exception as err:
    print("behind the camera:", err)

# now a whole scene: objects on a ground plane, seen by the same rig
rng = np.random.default_rng(7)
scene = generate_synthetic_scene(SceneSpec(noise_sigma=0.02), rng)
print(f"\nscene: {len(scene.points)} points, {len(scene.objects)} objects")

# one projection of the cloud serves every box of the frame
frustums = extract_frustum(scene.points, [obj.box2d for obj in scene.objects], calib)
for i, (obj, frustum) in enumerate(zip(scene.objects, frustums)):
    b = obj.box2d
    print(
        f"object {i}: 2D box ({b.u_min:6.1f},{b.v_min:6.1f})-({b.u_max:6.1f},{b.v_max:6.1f})"
        f"  frustum holds {len(frustum):4d} of {len(scene.points)} points"
    )

# membership is exact: every frustum point projects back inside its box,
# and cutting one box alone gives the same points
obj = scene.objects[0]
frustum = extract_frustum(scene.points, obj.box2d, calib)
assert np.array_equal(frustum, frustums[0])
uv, depth = calib.project(frustum)
assert (depth > 0).all()
assert obj.box2d.contains(uv[:, 0], uv[:, 1]).all()
print("\nevery extracted point projects back inside its 2D box: verified")
