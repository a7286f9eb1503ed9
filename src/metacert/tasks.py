"""Synthetic task environment: randomly transformed two-moons datasets.

Each task draws a rotation, a translation and a scale, applies them to the
canonical interleaving half-circles, and stores the draw alongside the data
so any task can be regenerated exactly from (environment spec, task id).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Rng, STREAM_TASKS

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
VALIDATION_FRACTION = 0.2  # task-level holdout carved from the training tasks


@dataclass(frozen=True)
class MoonsEnvironmentSpec:
    n_train_tasks: int = 300
    n_test_tasks: int = 100
    examples_per_task: int = 200
    noise_sigma: float = 0.1
    rotation_range: tuple[float, float] = (0.0, 360.0)
    center_range: tuple[float, float] = (-10.0, 10.0)
    scale_range: tuple[float, float] = (0.2, 5.0)
    master_seed: int = 0

    def __post_init__(self):
        if self.examples_per_task % 2 != 0:
            raise ValueError("examples_per_task must be even (balanced classes, equal split)")
        if self.scale_range[0] <= 0.0:
            raise ValueError("scale range must be positive")


@dataclass(frozen=True)
class TaskProvenance:
    rotation_deg: float
    center: tuple[float, float]
    scale: float


@dataclass
class TaskDataset:
    """One supervised task: features, +-1 labels, and how it was generated."""

    features: np.ndarray  # (m, d)
    labels: np.ndarray    # (m,), values in {-1, +1}
    task_id: int
    provenance: TaskProvenance | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features/labels length mismatch")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError(f"task {self.task_id}: labels must be -1 or +1")
        if len(np.unique(self.labels)) < 2:
            raise ValueError(f"task {self.task_id}: both classes must be present")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class MetaDataset:
    train: list[TaskDataset]
    val: list[TaskDataset]
    test: list[TaskDataset]


def _canonical_moons(m: int) -> tuple[np.ndarray, np.ndarray]:
    half = m // 2
    t = np.linspace(0.0, math.pi, half)
    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    features = np.vstack([outer, inner])
    labels = np.concatenate([np.ones(half), -np.ones(half)])
    return features, labels


def gen_moons_task(spec: MoonsEnvironmentSpec, task_id: int,
                   noise_repeat: int = 0) -> TaskDataset:
    """Generate one task; (spec, task_id) pins it down bit for bit.

    ``noise_repeat > 0`` redraws the noise (and only the noise) from a fresh
    sub-stream while keeping the task's rotation/center/scale, which yields
    extra i.i.d. samples from the same task distribution.
    """
    stream = Rng(spec.master_seed).split(STREAM_TASKS, task_id)
    # Draw order is part of the format: rotation, center, scale, then noise.
    rotation = float(stream.uniform(*spec.rotation_range))
    center = stream.uniform(spec.center_range[0], spec.center_range[1], 2)
    scale = float(stream.uniform(*spec.scale_range))
    noise_stream = stream if noise_repeat == 0 else stream.split(noise_repeat)
    features, labels = _canonical_moons(spec.examples_per_task)
    features = features + spec.noise_sigma * noise_stream.normal(features.shape)
    features = features * scale
    theta = math.radians(rotation)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    features = features @ rot.T + center
    return TaskDataset(features, labels, task_id,
                       TaskProvenance(rotation, (float(center[0]), float(center[1])), scale))


def gen_meta_dataset(spec: MoonsEnvironmentSpec) -> MetaDataset:
    """Generate the train/validation/test task collections.

    The validation tasks are carved off the end of the training range, so the
    three splits occupy disjoint, contiguous task-id ranges.
    """
    n_val = int(round(spec.n_train_tasks * VALIDATION_FRACTION))
    if spec.n_train_tasks >= 2:
        n_val = min(max(n_val, 1), spec.n_train_tasks - 1)
    n_train = spec.n_train_tasks - n_val
    ids_train = range(0, n_train)
    ids_val = range(n_train, spec.n_train_tasks)
    ids_test = range(spec.n_train_tasks, spec.n_train_tasks + spec.n_test_tasks)
    return MetaDataset(
        train=[gen_moons_task(spec, i) for i in ids_train],
        val=[gen_moons_task(spec, i) for i in ids_val],
        test=[gen_moons_task(spec, i) for i in ids_test],
    )


# ---------------------------------------------------------------------------
# file I/O: one CSV per task plus a JSON manifest


def save_tasks(directory, meta: MetaDataset, spec: MoonsEnvironmentSpec) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for split, tasks in (("train", meta.train), ("val", meta.val), ("test", meta.test)):
        for task in tasks:
            fname = f"task_{task.task_id:05d}.csv"
            _write_task_csv(directory / fname, task)
            entry = {"task_id": task.task_id, "file": fname, "split": split}
            if task.provenance is not None:
                entry.update({
                    "rotation_deg": task.provenance.rotation_deg,
                    "center": list(task.provenance.center),
                    "scale": task.provenance.scale,
                })
            entries.append(entry)
    manifest = {"format_version": FORMAT_VERSION,
                "environment": dataclasses.asdict(spec), "tasks": entries}
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def _write_task_csv(path: Path, task: TaskDataset) -> None:
    d = task.features.shape[1]
    np.savetxt(path, np.column_stack([task.features, task.labels]),
               fmt=["%.17g"] * d + ["%d"], delimiter=",",
               header=",".join([f"x{i + 1}" for i in range(d)] + ["y"]), comments="")


def load_tasks(directory) -> tuple[MetaDataset, MoonsEnvironmentSpec]:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported task format version {manifest.get('format_version')}")
    spec = settings_from_json(MoonsEnvironmentSpec, manifest.get("environment"),
                              "task manifest environment")
    splits: dict[str, list[TaskDataset]] = {"train": [], "val": [], "test": []}
    for entry in manifest["tasks"]:
        if entry["split"] not in splits:
            raise ValueError(f"unknown split {entry['split']!r} in manifest")
        task = _read_task_csv(directory / entry["file"], entry["task_id"])
        if "rotation_deg" in entry:
            task.provenance = TaskProvenance(
                entry["rotation_deg"], tuple(entry["center"]), entry["scale"])
        splits[entry["split"]].append(task)
    return MetaDataset(**splits), spec


def settings_from_json(cls, doc, what: str):
    """Rebuild the settings dataclass ``cls`` from the JSON object ``doc``.

    Every field must be there with a value of its annotated type, a tuple as
    an array; the first unknown, missing or mistyped key raises
    ``ValueError`` naming it.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is missing or not a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in [*doc, *types]:
        if key not in types:
            raise ValueError(f"{what} has unknown key {key!r}")
        if key not in doc:
            raise ValueError(f"{what} has no key {key!r}")
        if not _has_type(doc[key], types[key]):
            raise ValueError(f"{what} key {key!r} is {doc[key]!r}, expected {types[key]}")
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in doc.items()})


def _has_type(value, annotation: str) -> bool:
    """Whether a JSON value fits an ``int``/``float``/``str``/``tuple[...]`` field."""
    if annotation.startswith("tuple["):
        if not isinstance(value, list):
            return False
        items = annotation[len("tuple["):-1].split(", ")
        if items[-1] == "...":
            items = items[:1] * len(value)
        return len(value) == len(items) and all(map(_has_type, value, items))
    return type(value).__name__ == annotation or (annotation == "float" and type(value) is int)


def _read_task_csv(path: Path, task_id: int) -> TaskDataset:
    if not path.exists():
        raise FileNotFoundError(f"task file missing: {path}")
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[-1] != "y":
            raise ValueError(f"{path}: malformed header {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: expected {len(header)} columns, got {data.shape[1]}")
    # copies keep both arrays C-contiguous, as freshly generated tasks are
    return TaskDataset(data[:, :-1].copy(), data[:, -1].copy(), task_id)
