"""Synthetic task environment: randomly transformed two-moons datasets.

Each task draws a rotation, a translation and a scale, applies them to the
canonical interleaving half-circles, and stores the draw alongside the data
so any task can be regenerated exactly from (environment spec, task id).
``gen_moons_tasks`` generates a list of ids at once: each task draws from
its own stream, in id order, and one stacked transform of the shared
template gives every task the bits it gets when generated alone.
``save_tasks`` writes one array per non-empty split and deletes the array
of each empty one, so a repeated ``gen`` leaves the tree a fresh one would.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Rng, STREAM_TASKS

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 3
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
        # each check is written so that NaN fails it
        for name in ("n_train_tasks", "n_test_tasks", "master_seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (self.examples_per_task >= 2 and self.examples_per_task % 2 == 0):
            raise ValueError(f"examples_per_task must be even and >= 2 (balanced classes, "
                             f"equal split), got {self.examples_per_task}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        for name in ("rotation_range", "center_range", "scale_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise ValueError(f"{name} must be finite with low <= high, got {low},{high}")
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
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"task {self.task_id}: features must be finite")
        positive = self.labels == 1.0
        if not (positive | (self.labels == -1.0)).all():
            raise ValueError(f"task {self.task_id}: labels must be -1 or +1")
        if positive.all() or not positive.any():
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


def gen_moons_tasks(spec: MoonsEnvironmentSpec, task_ids,
                    noise_repeat: int = 0) -> list[TaskDataset]:
    """Generate the task of each id, in order; (spec, task_id) pins a task
    down bit for bit, whatever other ids it is generated with.

    Each task draws from its own stream, in id order; the template is built
    once and the (T, m, 2) stack of noise is transformed as a whole.  Each
    task's features are its own C-contiguous block of that stack.

    ``noise_repeat > 0`` redraws the noise (and only the noise) from a fresh
    sub-stream while keeping each task's rotation/center/scale, which yields
    extra i.i.d. samples from the same task distribution.
    """
    task_ids = list(task_ids)
    template, labels = _canonical_moons(spec.examples_per_task)
    features = np.empty((len(task_ids), *template.shape))
    rots = np.empty((len(task_ids), 2, 2))
    centers = np.empty((len(task_ids), 1, 2))
    scales = np.empty((len(task_ids), 1, 1))
    provenance = []
    for k, task_id in enumerate(task_ids):
        stream = Rng(spec.master_seed, (STREAM_TASKS, task_id))
        # Draw order is part of the format: rotation, center, scale, then noise.
        rotation = float(stream.uniform(*spec.rotation_range))
        center = stream.uniform(spec.center_range[0], spec.center_range[1], 2)
        scale = float(stream.uniform(*spec.scale_range))
        noise_stream = stream if noise_repeat == 0 else stream.split(noise_repeat)
        features[k] = noise_stream.normal(template.shape)
        theta = math.radians(rotation)
        rots[k] = [[math.cos(theta), -math.sin(theta)],
                   [math.sin(theta), math.cos(theta)]]
        centers[k, 0], scales[k] = center, scale
        provenance.append(TaskProvenance(rotation, (float(center[0]), float(center[1])), scale))
    # The one-task bits: IEEE * and + commute, so noise * sigma + template is
    # template + sigma * noise, and each slice of the stacked matmul is the
    # one-task product with the transposed view rot.T of a C-order rot.
    features *= spec.noise_sigma
    features += template
    features *= scales
    features = np.matmul(features, rots.transpose(0, 2, 1))
    features += centers
    return [TaskDataset(features[k], labels.copy(), task_id, provenance[k])
            for k, task_id in enumerate(task_ids)]


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
    return MetaDataset(train=gen_moons_tasks(spec, ids_train),
                       val=gen_moons_tasks(spec, ids_val),
                       test=gen_moons_tasks(spec, ids_test))


# ---------------------------------------------------------------------------
# file I/O: one ``<split>.npy`` array per split plus a JSON manifest


def _split_file(split: str) -> str:
    """The file holding a split's ``[features | label]`` rows."""
    return f"{split}.npy"


def save_tasks(directory, meta: MetaDataset, spec: MoonsEnvironmentSpec) -> Path:
    """Write each non-empty split as one float64 array and the manifest, and
    delete the array file of each empty split.

    A split's array stacks its tasks' ``[features | label]`` rows in
    manifest order.  The manifest states each split's feature count once,
    and each of its entries a task's id, its example count and, where it has
    one, its ``TaskProvenance`` fields.  The tasks of one split must share a
    feature dimension.  The old manifest is deleted before the first array is
    written and the new one is moved into place last, so a ``gen`` stopped
    half-way leaves no manifest to pair with the wrong arrays.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    path.unlink(missing_ok=True)
    splits = {}
    for split, tasks in (("train", meta.train), ("val", meta.val), ("test", meta.test)):
        if not tasks:  # a file left by an earlier ``gen`` would outlive its split
            (directory / _split_file(split)).unlink(missing_ok=True)
            continue
        d = tasks[0].features.shape[1]
        for task in tasks:
            if task.features.shape[1] != d:
                raise ValueError(f"task {task.task_id} has {task.features.shape[1]} features, "
                                 f"but the {split} split's first task has {d}")
        # vars() is a provenance's fields; dataclasses.asdict would deep-copy each one
        splits[split] = {"features": d, "tasks": [
            {"task_id": t.task_id, "examples": len(t),
             **(vars(t.provenance) if t.provenance is not None else {})}
            for t in tasks]}
        rows = np.column_stack([np.concatenate([t.features for t in tasks]),
                                np.concatenate([t.labels for t in tasks])])
        np.save(directory / _split_file(split), rows, allow_pickle=False)
    manifest = {"format_version": FORMAT_VERSION,
                "environment": dataclasses.asdict(spec), "splits": splits}
    partial = path.with_name(MANIFEST_NAME + ".partial")
    partial.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    os.replace(partial, path)
    return path


# The keys a manifest holds: at its top level, in a split's object and in an
# entry (its first two, or all of them with a provenance).
_MANIFEST_KEYS = ("format_version", "environment", "splits")
_SPLIT_KEYS = ("features", "tasks")
_ENTRY_KEYS = ("task_id", "examples", *TaskProvenance.__annotations__)


def load_tasks(directory, splits=("train", "val", "test")) -> tuple[MetaDataset,
                                                                   MoonsEnvironmentSpec]:
    """Read the task manifest and the split arrays of ``splits``.

    Every split's feature count and every entry is checked, each
    ``task_id`` a distinct int >= 0 across all splits and its provenance,
    where it has one, ``TaskProvenance``'s fields with their types; the
    first unknown key of the manifest, a split or an entry is refused.  The
    arrays of the other splits are not read, and those come back empty.
    """
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if (version := require_key(manifest, "format_version", "task manifest")) != FORMAT_VERSION:
        raise ValueError(f"unsupported task format version {version}")
    _refuse_unknown_keys(manifest, _MANIFEST_KEYS, "task manifest")
    spec = settings_from_json(MoonsEnvironmentSpec, manifest.get("environment"),
                              "task manifest environment")
    loaded: dict[str, list[TaskDataset]] = {"train": [], "val": [], "test": []}
    seen_ids: set[int] = set()
    for split, doc in require_key(manifest, "splits", "task manifest", dict).items():
        if split not in loaded:
            raise ValueError(f"unknown split {split!r} in manifest")
        what = f"task manifest split {split!r}"
        if type(d := require_key(doc, "features", what)) is not int or d < 0:
            raise ValueError(f"{what} key 'features' is {d!r}, expected an int >= 0")
        _refuse_unknown_keys(doc, _SPLIT_KEYS, what)
        entries = require_key(doc, "tasks", what, list)
        for pos, entry in enumerate(entries):
            what = f"task manifest {split} entry {pos}"
            task_id = require_key(entry, "task_id", what)
            if type(task_id) is not int or task_id < 0 or task_id in seen_ids:
                raise ValueError(f"{what} key 'task_id' is {task_id!r}, "
                                 f"expected an unused int >= 0")
            seen_ids.add(task_id)
            if type(count := require_key(entry, "examples", what)) is not int or count < 0:
                raise ValueError(f"{what} key 'examples' is {count!r}, expected an int >= 0")
            if len(entry) > 2:  # a provenance: each of its fields, with its type
                _refuse_unknown_keys(entry, _ENTRY_KEYS, what)
                for key, kind in TaskProvenance.__annotations__.items():
                    if not _has_type(value := require_key(entry, key, what), kind):
                        raise ValueError(f"{what} key {key!r} is {value!r}, expected {kind}")
        if split in splits and entries:
            loaded[split] = _read_split(directory / _split_file(split), d, entries)
    return MetaDataset(**loaded), spec


def _read_split(path: Path, d: int, entries: list[dict]) -> list[TaskDataset]:
    """Cut a split's array into its manifest entries' tasks of ``d`` features,
    checking its shape."""
    try:
        rows = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if rows.ndim != 2 or rows.dtype != np.float64:
        raise ValueError(f"{path}: expected a 2-D float64 array, got {rows.ndim}-D {rows.dtype}")
    if len(rows) != (total := sum(entry["examples"] for entry in entries)):
        raise ValueError(f"{path}: {len(rows)} rows, but its manifest entries count {total}")
    if rows.shape[1] != d + 1:
        raise ValueError(f"{path}: {rows.shape[1]} columns, but its split has {d} features "
                         f"and a label")
    tasks, start = [], 0
    for entry in entries:
        stop = start + entry["examples"]
        provenance = (TaskProvenance(entry["rotation_deg"], tuple(entry["center"]),
                                     entry["scale"]) if len(entry) > 2 else None)
        # copies keep both arrays C-contiguous, as freshly generated tasks are
        tasks.append(TaskDataset(rows[start:stop, :d].copy(), rows[start:stop, d].copy(),
                                 entry["task_id"], provenance))
        start = stop
    return tasks


def require_key(doc, key: str, what: str, kind: type = object):
    """``doc[key]``; ``ValueError`` naming the key if ``doc`` is not a JSON
    object holding it, or if its value is not a ``kind`` (``dict``: a JSON
    object, ``list``: an array)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} has no key {key!r}")
    if not isinstance(value := doc[key], kind):
        raise ValueError(f"{what} key {key!r} is {type(value).__name__}, expected {kind.__name__}")
    return value


def _refuse_unknown_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    """``ValueError`` naming the first key of ``doc`` outside ``known``.  A
    ``doc`` with as many keys as ``known`` is only counted: its caller
    requires each known key."""
    if len(doc) != len(known):
        for key in doc:
            if key not in known:
                raise ValueError(f"{what} has unknown key {key!r}")


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
