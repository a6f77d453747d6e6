"""End to end at toy scale: train, export pseudo-labels, score them.

Eight close-range frustums, a reduced model, a few hundred steps. The same
loop drives the real thing; only the sizes differ. Takes roughly a minute.
"""

import tempfile
from pathlib import Path

import numpy as np

from frustumbox.evaluate import evaluate_model
from frustumbox.frustums import build_dataset_samples, filter_samples
from frustumbox.inference import predict_samples, prediction_record
from frustumbox.kitti import serialize_kitti_label
from frustumbox.model import BoxAnnotator, ModelConfig
from frustumbox.synthetic import SceneSpec, write_synthetic_dataset
from frustumbox.train import TrainConfig, train

root = Path(tempfile.mkdtemp(prefix="frustumbox_demo_"))
spec = SceneSpec(noise_sigma=0.02, clutter_density=0.02, points_base=800,
                 range_min=6.0, range_max=18.0, n_objects_min=2, n_objects_max=4)
write_synthetic_dataset(root, spec, n_scenes=4, rng=np.random.default_rng(0), val_every=0)

samples, _ = filter_samples(build_dataset_samples(root, n_points=64, seed=0))
samples = samples[:8]
print(f"training on {len(samples)} frustum samples")

config = ModelConfig(d=32, n_points=64, n_local_layers=1, n_global_layers=1,
                     n_decoder_layers=1, heads=4, head_hidden=64)
model = BoxAnnotator(config, rng=np.random.default_rng(0))
print(f"model holds {model.num_parameters()} parameters")

result = train(model, samples, TrainConfig(batch_size=8, epochs=150, lr_max=1e-3), 0)
steps = [r for r in result.history if "total" in r]
for r in steps[:: max(1, len(steps) // 6)]:
    print(f"  step {r['step']:4d}  loss {r['total']:7.3f}  batch mIoU {r['batch_miou']:.3f}")
print(f"train-set mIoU through the export path: {result.final_train_miou:.4f}")

# the full report on the same objects: each prediction scored as its
# exported label row read back, the numbers `frustumbox eval` prints
report = evaluate_model(model, samples, batch_size=8)
print(f"\n{report.format_row()}")
direction_acc = np.mean([r.direction_correct for r in report.per_object])
print(f"direction accuracy: {direction_acc:.0%}")

# what the exported annotation lines look like
preds = predict_samples(model, samples[:3], batch_size=8)
print("\nexported pseudo-label lines:")
print(serialize_kitti_label([prediction_record(p) for p in preds]), end="")
