"""Attention export: which points a reference point (or the box) looks at.

`local_attention` recomputes one local-encoder layer's weights in a
graph-free pass, which is enough to rank, for any reference point, the
sequence positions it attends to, plus the seven box-token rows. The dumps
are what the `attn` subcommand writes for external plotting.
"""

import tempfile
from pathlib import Path

import numpy as np

from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.model import BoxAnnotator, ModelConfig, export_attention, ranked
from frustumbox.synthetic import SceneSpec, write_synthetic_dataset

root = Path(tempfile.mkdtemp(prefix="frustumbox_demo_"))
spec = SceneSpec(noise_sigma=0.02, points_base=700, range_max=20.0)
write_synthetic_dataset(root, spec, n_scenes=2, rng=np.random.default_rng(3), val_every=0)

config = ModelConfig(d=32, n_points=96, n_local_layers=2, n_global_layers=1,
                     n_decoder_layers=1, heads=4, head_hidden=64)
model = BoxAnnotator(config, rng=np.random.default_rng(0))

samples, _ = filter_samples(build_dataset_samples(root, n_points=96, seed=0))
batch = np.stack([s.points for s in samples[:4]])
# the last local layer's weights; layer 0 or -2 would give the first
weights = model.local_attention(batch, layer=-1)
print("local layer weight shape:", weights.shape, "(object, head, query, key)")

# rank what point 10 of object 0 attends to
export = export_attention(weights, object_index=0, reference_point_index=10, top_k=8)
print(f"\nreference row sums to {export.full_row.sum():.12f}")
print("top attended sequence positions (0-6 are box tokens, 7+ are points):")
for rank, (idx, score) in enumerate(zip(export.indices, export.scores)):
    kind = f"token {idx}" if idx < 7 else f"point {idx - 7}"
    print(f"  #{rank}  {kind:>10s}  score {score:.4f}")

# the box-to-points rows: how each box token reads the cloud
strongest = export.token_rows[:, 7:].max(axis=1)
for t, s in enumerate(strongest):
    print(f"box token {t}: strongest point weight {s:.4f} "
          f"(row sum {export.token_rows[t].sum():.9f})")

# the box-token rows rank the same way: token 6 is the yaw token
print("\nyaw token attends first to:",
      ", ".join(f"{'token ' + str(i) if i < 7 else 'point ' + str(i - 7)}"
                for i in ranked(export.token_rows[6], 5)))
