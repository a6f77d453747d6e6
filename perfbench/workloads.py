"""The two workloads: what each one sets up and what one timed round runs.

Every command goes through `frustumbox.cli.main` with the program seed
fixed at 0; the workload seed reaches the program only through the scenes
`frustumbox synth` generates from it.

Set-up (timed as `setup_s`, repeated in fresh processes by `prepare.py`):

- the annotation checkpoint: the workload's own architecture trained by
  one fixed recipe on its own fixed data seed, so every workload seed labels
  with the same weights and `annotate_miou` compares like with like across
  seeds (a 3-epoch `train` result swings 6x in mIoU from seed to seed);
- the frames the timed `annotate` labels, drawn from the workload seed;
- for train_local_b4, the labeled scenes `train` fits, also drawn from the
  workload seed.

One round (timed): `annotate` of the frames with the set-up checkpoint and
`eval` of the written labels, then `train`, then (train_local_b4 only) a
second `annotate` and `eval`. annotate_kitti_scale's `train` re-runs the
set-up's recipe; its traced run leaves that `train` out, so the workload's
per-layer numbers stay forward-only.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from pipeline import StepClock, label_tally, last_epoch_loss, read_labels, run_command

PROGRAM_SEED = 0
DENSE = ("scene.clutter_density=100", "scene.n_objects_min=8", "scene.n_objects_max=14")

# Fixed recipe of the annotation checkpoint: two dense frames, four epochs.
# The full model's boxes then overlap about a third of their ground truth
# boxes on dense frames and three quarters on standard ones, so eval clips
# real polygons.
RECIPE_SEED = 2303
RECIPE_SCENES = ("n_scenes=2", "val_every=0", *DENSE)
RECIPE_TRAIN = ("train.batch_size=8", "train.lr_max=1e-3", "train.epochs=4")
RECIPE_EPOCHS = 4

# Standard synthetic scenes at the generator defaults; every fourth frame is
# val, so `train` fits about 183 objects from 48 frames.
TRAIN_SCENES = ("n_scenes=64",)
STD_FRAMES = ("n_scenes=64", "val_every=0")
DENSE_FRAMES = ("n_scenes=32", "val_every=0", *DENSE)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    roadmap: str
    frames: tuple  # synth overrides of the frames `annotate` labels
    train_data: str  # set-up directory the timed `train` fits
    train_overrides: tuple
    epochs: int
    train_options: tuple = ()
    annotate_passes: int = 1  # annotate+eval units per round: before `train`, then after it
    trace_train: bool = True  # False: the traced run leaves `train` out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_local_b4",
            why="local encoder only at batch 4 with per-epoch checkpoints: bypasses the global "
                "stack; loss graph, optimizer and checkpoint writes weigh most per sample",
            roadmap="ROADMAP items 2 (must read no change), 3 and 5 (checkpoint writes)",
            frames=STD_FRAMES,
            train_data="scenes",
            train_options=("--ablation", "A"),
            train_overrides=("train.batch_size=4", "train.lr_max=1e-3", "train.epochs=2",
                             "train.checkpoint_every=1", "train.augment=true"),
            epochs=2,
            annotate_passes=2,
        ),
        Workload(
            name="annotate_kitti_scale",
            why="forward-only annotate and eval of ~100k-point scans: re-projecting the whole "
                "cloud per object makes the data layers most of the command",
            roadmap="ROADMAP items 2 and 4 (one projection per frame); eval is ~1% of the "
                    "annotate time",
            frames=DENSE_FRAMES,
            train_data="recipe",
            train_overrides=RECIPE_TRAIN,
            epochs=RECIPE_EPOCHS,
            trace_train=False,
        ),
    )
}


class CommandFailed(RuntimeError):
    pass


def data_seeds(seed):
    """(training scenes, annotated frames) synth seeds of a workload seed."""
    return 2 * seed, 2 * seed + 1


def _synth(out, seed, overrides):
    code, _, err, _ = run_command(["synth", "--out", out, "--seed", seed, *overrides])
    if code != 0:
        raise CommandFailed(f"synth {out} exited {code}: {err.strip()}")


def setup(workload, seed, out):
    """Build a workload's inputs under `out`; returns its wall seconds."""
    out = Path(out)
    scenes_seed, frames_seed = data_seeds(seed)
    start = time.perf_counter()
    _synth(out / "recipe", RECIPE_SEED, RECIPE_SCENES)
    code, _, err, _ = run_command(
        ["train", *workload.train_options, "--dataset", out / "recipe",
         "--out", out / "fixture", "--seed", PROGRAM_SEED, *RECIPE_TRAIN])
    if code != 0:
        raise CommandFailed(f"recipe train exited {code}: {err.strip()}")
    _synth(out / "frames", frames_seed, workload.frames)
    if workload.train_data == "scenes":
        _synth(out / "scenes", scenes_seed, TRAIN_SCENES)
    return {"setup_s": time.perf_counter() - start}


@dataclass
class Round:
    """What one timed round did, and every check it failed."""

    commands: int = 0
    failed_commands: int = 0
    steps: int = 0
    non_finite: int = 0
    care: int = 0
    missing: int = 0
    labeled: int = 0
    train_wall_s: float = 0.0
    samples: int = 0
    step_s: list = field(default_factory=list)
    loss: float | None = None
    annotate_rates: list = field(default_factory=list)  # objects/s of each `annotate`
    miou: list = field(default_factory=list)  # of each `eval`
    problems: list = field(default_factory=list)

    def command(self, name, argv):
        code, text, err, wall = run_command(argv)
        self.commands += 1
        if code != 0:
            self.failed_commands += 1
            self.problems.append(f"{name} exited {code}: {err.strip()}")
        return code, text, wall

    def fingerprint(self):
        """Outputs that must repeat exactly from one round to the next."""
        return {"labeled": self.labeled, "care": self.care, "miou": self.miou,
                "loss": self.loss, "samples": self.samples, "steps": self.steps}


def run_round(workload, inputs, out, train=True):
    """One round: annotate+eval, then `train` (unless `train` is False), then
    annotate+eval again if `workload.annotate_passes` is 2."""
    inputs, out = Path(inputs), Path(out)
    it = Round()
    for k in range(workload.annotate_passes):
        annotate_and_eval(it, inputs, out / f"labels{k}")
        if k == 0 and train:
            train_unit(it, workload, inputs, out / "train")
    if any(m != it.miou[0] for m in it.miou[1:]):
        it.problems.append(f"annotate passes of one round disagree on mIoU: {it.miou}")
    return it


def train_unit(it, workload, inputs, out):
    """`train` of the workload's set-up data under a step clock."""
    with StepClock() as clock:
        code, _, wall = it.command("train", [
            "train", *workload.train_options, "--dataset", inputs / workload.train_data,
            "--out", out, "--seed", PROGRAM_SEED, *workload.train_overrides])
    it.train_wall_s, it.samples = wall, clock.samples
    it.step_s, it.non_finite = clock.step_s, clock.non_finite
    it.steps = len(clock.step_s) + clock.non_finite
    if code == 0:
        try:
            it.loss = last_epoch_loss(out / "metrics.jsonl", workload.epochs)
        except ValueError as err:
            it.problems.append(str(err))


def annotate_and_eval(it, inputs, out):
    """`annotate` the frames with the set-up checkpoint, then `eval` the labels."""
    labeled = annotate(it, inputs / "fixture" / "ckpt_final.bin", inputs / "frames", out)
    code, _, _ = it.command("eval", ["eval", "--pred", out, "--gt", inputs / "frames",
                                     "--out", out / "report.json"])
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        miou = report["miou"]
        it.miou.append(miou)
        if not (math.isfinite(miou) and 0.0 <= miou <= 1.0):
            it.problems.append(f"eval mIoU {miou} outside [0, 1]")
        if len(report["per_object"]) != labeled:
            it.problems.append(f"eval paired {len(report['per_object'])} of {labeled} labels")


def annotate(it, checkpoint, frames, out):
    """Run `annotate` and hold its labels to the care rows of `frames`.

    Returns the number of care rows that got a label line.
    """
    code, text, wall = it.command("annotate", [
        "annotate", "--checkpoint", checkpoint, "--dataset", frames, "--out", out,
        "--seed", PROGRAM_SEED])
    from frustumbox.kitti import KittiFormatError

    try:
        care, labeled, missing = label_tally(frames, out)
    except (OSError, KittiFormatError) as err:
        it.problems.append(f"labels under {out}: {err}")
        return 0
    it.care += care
    it.labeled += labeled
    it.missing += missing
    if code != 0:
        return labeled
    it.annotate_rates.append(labeled / wall)
    empty = text.count(": empty frustum")
    if labeled != care - empty:
        it.problems.append(f"{labeled} labeled objects, expected {care} care rows - {empty} empty")
    reported = [line for line in text.splitlines() if line.startswith("annotated ")]
    if not reported or int(reported[0].split()[1]) != labeled:
        it.problems.append(f"annotate reported {reported}, label files hold {labeled}")
    return labeled


def probe_2d_only(inputs, out, n_frames=4):
    """Annotate a copy of a few frames whose rows carry 2D boxes only.

    Care rows are rewritten to the no-3D-box convention (dims -1, location
    -1000, ry -10). Untimed. Returns the Round holding the tally.
    """
    from frustumbox.kitti import manifest_frames, serialize_kitti_label, write_manifest

    src, dst = Path(inputs) / "frames", Path(out) / "frames_2d"
    frames = manifest_frames(src)[:n_frames]
    for sub in ("velodyne", "calib", "label_2"):
        (dst / sub).mkdir(parents=True, exist_ok=True)
    for frame in frames:
        shutil.copyfile(src / "velodyne" / f"{frame}.bin", dst / "velodyne" / f"{frame}.bin")
        shutil.copyfile(src / "calib" / f"{frame}.txt", dst / "calib" / f"{frame}.txt")
        rows = [
            replace(r, height=-1.0, width=-1.0, length=-1.0,
                    location=(-1000.0, -1000.0, -1000.0), rotation_y=-10.0)
            if r.is_care else r
            for r in read_labels(src, frame)
        ]
        (dst / "label_2" / f"{frame}.txt").write_text(serialize_kitti_label(rows))
    write_manifest(dst, {f: "train" for f in frames})
    it = Round()
    annotate(it, Path(inputs) / "fixture" / "ckpt_final.bin", dst, Path(out) / "labels_2d")
    return it
