"""Moons environment generation and task file round-trips."""

import json
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from metacert import autodiff as ad
from metacert.autodiff import Tensor
from metacert.optim import Adam
from metacert.rng import STREAM_TASKS, Rng
from metacert.tasks import (MetaDataset, MoonsEnvironmentSpec, TaskDataset, TaskProvenance,
                            gen_meta_dataset, gen_moons_task, gen_moons_tasks, load_tasks,
                            save_tasks, settings_from_json)


def canonical_spec(**kw):
    defaults = dict(n_train_tasks=10, n_test_tasks=4, examples_per_task=40,
                    master_seed=123)
    defaults.update(kw)
    return MoonsEnvironmentSpec(**defaults)


class TestGeneration:
    def test_canonical_point_at_t_zero(self):
        # sigma=0, scale=1, rotation=0, center=(0,0): first +1 point is (1, 0)
        spec = canonical_spec(noise_sigma=0.0, rotation_range=(0.0, 0.0),
                              center_range=(0.0, 0.0), scale_range=(1.0, 1.0))
        task = gen_moons_task(spec, 0)
        assert np.allclose(task.features[0], [1.0, 0.0], atol=1e-15)
        assert task.labels[0] == 1.0
        # first point of the second class sits at (1 - cos 0, 0.5 - sin 0) = (0, 0.5)
        half = len(task) // 2
        assert np.allclose(task.features[half], [0.0, 0.5], atol=1e-15)
        assert task.labels[half] == -1.0

    def test_deterministic_regeneration(self):
        spec = canonical_spec()
        a, b = gen_moons_task(spec, 3), gen_moons_task(spec, 3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.provenance == b.provenance

    def test_class_balance(self):
        task = gen_moons_task(canonical_spec(), 1)
        assert (task.labels == 1).sum() == (task.labels == -1).sum() == 20

    def test_provenance_ranges(self):
        spec = canonical_spec(n_train_tasks=40)
        for i in range(40):
            p = gen_moons_task(spec, i).provenance
            assert 0.0 <= p.rotation_deg < 360.0
            assert all(-10.0 <= c <= 10.0 for c in p.center)
            assert 0.2 <= p.scale <= 5.0

    def test_transform_matches_provenance(self):
        # regenerating with sigma=0 and applying the stored transform by hand
        spec = canonical_spec(noise_sigma=0.0)
        task = gen_moons_task(spec, 5)
        p = task.provenance
        half = len(task) // 2
        t = np.linspace(0, math.pi, half)
        canon = np.vstack([np.column_stack([np.cos(t), np.sin(t)]),
                           np.column_stack([1 - np.cos(t), 0.5 - np.sin(t)])])
        theta = math.radians(p.rotation_deg)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        expect = canon * p.scale @ rot.T + np.array(p.center)
        assert np.allclose(task.features, expect, atol=1e-12)

    def test_noise_repeat_changes_noise_only(self):
        spec = canonical_spec()
        base = gen_moons_task(spec, 2)
        fresh = gen_moons_task(spec, 2, noise_repeat=1)
        assert base.provenance == fresh.provenance
        assert not np.array_equal(base.features, fresh.features)
        assert np.array_equal(base.labels, fresh.labels)

    def test_odd_examples_rejected(self):
        with pytest.raises(ValueError):
            canonical_spec(examples_per_task=41)

    @pytest.mark.parametrize("field, value", [
        ("n_train_tasks", -1), ("n_test_tasks", -1), ("examples_per_task", -2),
        ("examples_per_task", 0),
        ("noise_sigma", -1.0), ("noise_sigma", math.nan), ("noise_sigma", math.inf),
        ("scale_range", (math.nan, 1.0)), ("rotation_range", (0.0, math.inf)),
        ("center_range", (1.0, -1.0)), ("center_range", (-math.inf, 0.0)),
        ("master_seed", -1)])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            MoonsEnvironmentSpec(**{field: value})

    def test_linear_probe_fails_but_small_mlp_separates(self):
        # noiseless canonical moons: not linearly separable, but a width-5
        # one-hidden-layer MLP drives the training error to zero
        spec = canonical_spec(noise_sigma=0.0, rotation_range=(0.0, 0.0),
                              center_range=(0.0, 0.0), scale_range=(1.0, 1.0),
                              examples_per_task=200)
        task = gen_moons_task(spec, 0)
        x, y = task.features, task.labels

        def train(widths, steps, lr):
            rng = Rng(0)
            params = {}
            sizes = [2, *widths, 1]
            for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
                bound = math.sqrt(6.0 / a)
                params[f"w{i}"] = Tensor(rng.uniform(-bound, bound, (a, b)), requires_grad=True)
                params[f"b{i}"] = Tensor(np.zeros((1, b)), requires_grad=True)
            opt = Adam(params, lr=lr)
            for _ in range(steps):
                h = ad.constant(x)
                for i in range(len(sizes) - 1):
                    h = ad.dense(h, params[f"w{i}"], params[f"b{i}"],
                                 relu=i < len(sizes) - 2)
                loss = ad.binary_cross_entropy(h, y)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return ad.zero_one_loss(h.data, y)

        assert train([], steps=400, lr=0.05) > 0.05       # linear probe stuck
        assert train([5], steps=2000, lr=0.02) == 0.0     # small MLP separates


def reference_task(spec, task_id, noise_repeat=0):
    """One task by the one-task formula, step by step: the bit oracle for
    batched generation."""
    stream = Rng(spec.master_seed).split(STREAM_TASKS, task_id)
    rotation = float(stream.uniform(*spec.rotation_range))
    center = stream.uniform(spec.center_range[0], spec.center_range[1], 2)
    scale = float(stream.uniform(*spec.scale_range))
    noise_stream = stream if noise_repeat == 0 else stream.split(noise_repeat)
    half = spec.examples_per_task // 2
    t = np.linspace(0.0, math.pi, half)
    features = np.vstack([np.column_stack([np.cos(t), np.sin(t)]),
                          np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])])
    labels = np.concatenate([np.ones(half), -np.ones(half)])
    features = features + spec.noise_sigma * noise_stream.normal(features.shape)
    features = features * scale
    theta = math.radians(rotation)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    features = features @ rot.T + center
    return features, labels, (rotation, (float(center[0]), float(center[1])), scale)


def assert_matches_reference(task, spec, task_id, noise_repeat=0):
    features, labels, (rotation, center, scale) = reference_task(spec, task_id, noise_repeat)
    assert task.task_id == task_id
    assert task.features.tobytes() == features.tobytes()
    assert task.labels.tobytes() == labels.tobytes()
    assert (task.provenance.rotation_deg, task.provenance.center,
            task.provenance.scale) == (rotation, center, scale)
    assert task.features.flags.c_contiguous and task.labels.flags.c_contiguous


ORACLE_SPECS = [
    dict(),
    dict(noise_sigma=0.0, master_seed=4),
    dict(examples_per_task=2, master_seed=9),
    dict(rotation_range=(30.0, 30.0), scale_range=(1.5, 1.5), master_seed=2),
    dict(center_range=(-1e3, 1e3), scale_range=(1e-3, 1e3), master_seed=77),
]


class TestBatchedGeneration:
    @pytest.mark.parametrize("noise_repeat", [0, 1, 3])
    @pytest.mark.parametrize("spec_kw", ORACLE_SPECS)
    def test_matches_the_one_task_formula_bit_for_bit(self, spec_kw, noise_repeat):
        spec = MoonsEnvironmentSpec(**spec_kw)
        ids = [*range(60), 12345, 1000]  # not contiguous, not ascending
        tasks = gen_moons_tasks(spec, ids, noise_repeat)
        assert len(tasks) == len(ids)
        for task, task_id in zip(tasks, ids):
            assert_matches_reference(task, spec, task_id, noise_repeat)
        # the one-id case is gen_moons_task
        for task_id in (0, 12345):
            assert_matches_reference(gen_moons_task(spec, task_id, noise_repeat),
                                     spec, task_id, noise_repeat)

    def test_empty_id_list(self):
        assert gen_moons_tasks(canonical_spec(), []) == []

    @pytest.mark.parametrize("spec_kw", ORACLE_SPECS)
    @pytest.mark.parametrize("n_test_tasks", [0, 7])
    def test_meta_dataset_matches_the_one_task_formula(self, spec_kw, n_test_tasks):
        spec = MoonsEnvironmentSpec(**{**spec_kw, "n_train_tasks": 21,
                                       "n_test_tasks": n_test_tasks})
        meta = gen_meta_dataset(spec)
        tasks = meta.train + meta.val + meta.test
        assert len(meta.test) == n_test_tasks
        assert [t.task_id for t in tasks] == list(range(21 + n_test_tasks))
        for task in tasks:
            assert_matches_reference(task, spec, task.task_id)

    def test_tasks_of_one_batch_do_not_alias(self):
        spec = canonical_spec()
        tasks = gen_moons_tasks(spec, range(5))
        before = [(t.features.copy(), t.labels.copy()) for t in tasks]
        tasks[2].features[...] = 99.0
        tasks[2].labels[...] = 0.0
        for k, (task, (features, labels)) in enumerate(zip(tasks, before)):
            assert task.features.flags.c_contiguous
            if k != 2:
                assert np.array_equal(task.features, features)
                assert np.array_equal(task.labels, labels)


class TestMetaDataset:
    def test_split_counts_and_disjoint_id_ranges(self):
        spec = MoonsEnvironmentSpec(n_train_tasks=300, n_test_tasks=100,
                                    examples_per_task=4, master_seed=0)
        # examples_per_task tiny to keep generation fast
        meta = gen_meta_dataset(spec)
        assert (len(meta.train), len(meta.val), len(meta.test)) == (240, 60, 100)
        ids = lambda tasks: {t.task_id for t in tasks}
        assert ids(meta.train) == set(range(0, 240))
        assert ids(meta.val) == set(range(240, 300))
        assert ids(meta.test) == set(range(300, 400))

    def test_same_master_seed_reproduces(self):
        spec = canonical_spec()
        a, b = gen_meta_dataset(spec), gen_meta_dataset(spec)
        for ta, tb in zip(a.train + a.val + a.test, b.train + b.val + b.test):
            assert np.array_equal(ta.features, tb.features)


class TestTaskValidation:
    def test_rejects_non_pm1_labels(self):
        with pytest.raises(ValueError):
            TaskDataset(np.zeros((2, 2)), np.array([0.0, 1.0]), 0)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            TaskDataset(np.zeros((2, 2)), np.array([1.0, 1.0]), 0)

    @pytest.mark.parametrize("labels, message", [
        ([0.0, 1.0], "labels must be -1 or +1"), ([-1.0, 2.0], "labels must be -1 or +1"),
        ([np.nan, 1.0], "labels must be -1 or +1"), ([-1.0, -0.5], "labels must be -1 or +1"),
        ([1.0, 1.0], "both classes must be present"),
        ([-1.0, -1.0], "both classes must be present"), ([], "both classes must be present")],
        ids=["zero", "two", "nan", "fraction", "only_positive", "only_negative", "empty"])
    def test_label_checks_name_the_task(self, labels, message):
        with pytest.raises(ValueError, match=f"^task 3: {re.escape(message)}$"):
            TaskDataset(np.zeros((len(labels), 2)), np.array(labels), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        features = np.zeros((2, 2))
        features[1, 0] = value
        with pytest.raises(ValueError, match="task 7: features must be finite"):
            TaskDataset(features, np.array([-1.0, 1.0]), 7)


def _count_one_more_example(directory):
    """Make the first training entry count one example its array does not hold."""
    manifest = directory / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["splits"]["train"]["tasks"][0]["examples"] += 1
    manifest.write_text(json.dumps(doc))


def _load_as_format_version(tmp_path, version):
    """Save a tree, relabel its manifest ``version`` and expect it refused."""
    spec = canonical_spec()
    save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
    manifest = tmp_path / "tasks" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["format_version"] = version
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^unsupported task format version {version}$"):
        load_tasks(tmp_path / "tasks")


class TestFileRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        spec = canonical_spec()
        meta = gen_meta_dataset(spec)
        save_tasks(tmp_path / "tasks", meta, spec)
        loaded, loaded_spec = load_tasks(tmp_path / "tasks")
        assert loaded_spec == spec
        for orig, back in zip(meta.train + meta.val + meta.test,
                              loaded.train + loaded.val + loaded.test):
            assert orig.task_id == back.task_id
            assert np.array_equal(orig.features, back.features)
            assert np.array_equal(orig.labels, back.labels)
            # the stacked BLAS products' bits depend on the operands' layout
            for array in (back.features, back.labels):
                assert array.dtype == np.float64 and array.flags.c_contiguous
            assert back.provenance is not None
            assert back.provenance.scale == orig.provenance.scale

    def test_load_reads_only_the_requested_splits(self, tmp_path):
        spec = canonical_spec()
        meta = gen_meta_dataset(spec)
        save_tasks(tmp_path / "tasks", meta, spec)
        (tmp_path / "tasks" / "train.npy").unlink()
        loaded, _ = load_tasks(tmp_path / "tasks", ("test",))
        assert loaded.train == [] and loaded.val == []
        assert [t.task_id for t in loaded.test] == [t.task_id for t in meta.test]
        assert all(np.array_equal(a.features, b.features)
                   for a, b in zip(loaded.test, meta.test))
        with pytest.raises(FileNotFoundError):
            load_tasks(tmp_path / "tasks", ("train", "val"))
        # every manifest entry is still checked, read or not
        manifest = tmp_path / "tasks" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"examples"', '"example"', 1))
        with pytest.raises(ValueError, match="^task manifest test entry 0 has no key 'examples'$"):
            load_tasks(tmp_path / "tasks", ("train",))

    def test_manifest_counts_match_files(self, tmp_path):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        splits = json.loads((tmp_path / "tasks" / "manifest.json").read_text())["splits"]
        rows = {path.name: np.load(path).shape for path in (tmp_path / "tasks").glob("*.npy")}
        assert rows == {f"{split}.npy": (sum(e["examples"] for e in doc["tasks"]),
                                         doc["features"] + 1) for split, doc in splits.items()}
        assert sorted(splits) == ["test", "train", "val"]
        assert sum(len(doc["tasks"]) for doc in splits.values()) == (spec.n_train_tasks
                                                                    + spec.n_test_tasks)

    def test_bad_label_in_file_is_rejected(self, tmp_path):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        victim = tmp_path / "tasks" / "train.npy"
        rows = np.load(victim)
        rows[np.flatnonzero(rows[:, -1] == 1)[0], -1] = 2
        np.save(victim, rows)
        with pytest.raises(ValueError, match="label"):
            load_tasks(tmp_path / "tasks")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_in_file_is_rejected(self, tmp_path, cell):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        victim = tmp_path / "tasks" / "train.npy"
        rows = np.load(victim)
        rows[0, 0] = float(cell)
        np.save(victim, rows)
        with pytest.raises(ValueError, match="features must be finite"):
            load_tasks(tmp_path / "tasks")

    def test_empty_split_round_trips_without_a_file(self, tmp_path):
        spec = canonical_spec()
        test = gen_meta_dataset(spec).test
        save_tasks(tmp_path / "tasks", MetaDataset([], [], test), spec)
        assert not (tmp_path / "tasks" / "train.npy").exists()
        loaded, _ = load_tasks(tmp_path / "tasks")
        assert loaded.train == [] and loaded.val == []
        assert [t.task_id for t in loaded.test] == [t.task_id for t in test]

    def test_repeated_save_leaves_the_tree_of_a_fresh_one(self, tmp_path):
        # a split that is empty now loses the array an earlier save wrote
        spec = canonical_spec(n_test_tasks=4)
        save_tasks(tmp_path / "again", gen_meta_dataset(spec), spec)
        (tmp_path / "again" / "notes.txt").write_text("kept")
        spec = canonical_spec(n_test_tasks=0)
        save_tasks(tmp_path / "again", gen_meta_dataset(spec), spec)
        save_tasks(tmp_path / "fresh", gen_meta_dataset(spec), spec)
        tree = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
        again = tree(tmp_path / "again")
        assert again.pop("notes.txt") == b"kept"
        assert again == tree(tmp_path / "fresh")
        assert sorted(again) == ["manifest.json", "train.npy", "val.npy"]

    def test_mixed_feature_dimension_in_a_split_is_refused(self, tmp_path):
        spec = canonical_spec()
        test = gen_meta_dataset(spec).test
        test[2] = TaskDataset(np.ones((4, 3)), np.array([1.0, -1.0, 1.0, -1.0]), 77)
        with pytest.raises(ValueError, match="^task 77 has 3 features, but the test split's "
                                             "first task has 2$"):
            save_tasks(tmp_path / "tasks", MetaDataset([], [], test), spec)

    @pytest.mark.parametrize("key, value", [
        ("examples", -1), ("examples", 40.0), ("features", True), ("rotation_deg", "x"),
        ("center", "ab"), ("center", [1.0]), ("scale", "x")])
    def test_bad_entry_file_or_count_is_refused_in_any_split(self, tmp_path, key, value):
        # the feature count is the split's, every other key its entry's
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        manifest = tmp_path / "tasks" / "manifest.json"
        doc = json.loads(manifest.read_text())
        train = doc["splits"]["train"]
        (train if key == "features" else train["tasks"][0])[key] = value
        manifest.write_text(json.dumps(doc))
        what = "split 'train'" if key == "features" else "train entry 0"
        with pytest.raises(ValueError, match=f"^task manifest {what} key '{key}' is "):
            load_tasks(tmp_path / "tasks", ("test",))

    def test_format_version_1_is_refused(self, tmp_path):
        _load_as_format_version(tmp_path, 1)

    def test_format_version_2_is_refused(self, tmp_path):
        # one manifest entry per task, each naming its split, file and feature count
        _load_as_format_version(tmp_path, 2)

    def test_interrupted_save_leaves_no_manifest(self, tmp_path, monkeypatch):
        # a save stopped after its first array used to leave the old manifest
        # beside it, and load_tasks paired the new features with the old
        # provenance and environment without an error
        old = canonical_spec(master_seed=1)
        save_tasks(tmp_path / "tasks", gen_meta_dataset(old), old)
        spec = canonical_spec(master_seed=2)
        meta = gen_meta_dataset(spec)
        real_save, saved = np.save, []

        def save_one_split(path, *args, **kwargs):
            if saved:
                raise OSError("disk full")
            saved.append(path)
            real_save(path, *args, **kwargs)

        monkeypatch.setattr(np, "save", save_one_split)
        with pytest.raises(OSError, match="disk full"):
            save_tasks(tmp_path / "tasks", meta, spec)
        monkeypatch.undo()
        with pytest.raises(FileNotFoundError):
            load_tasks(tmp_path / "tasks")
        # a rerun mends the tree, and no temporary manifest outlives it
        save_tasks(tmp_path / "tasks", meta, spec)
        loaded, loaded_spec = load_tasks(tmp_path / "tasks")
        assert loaded_spec == spec
        assert np.array_equal(loaded.train[0].features, meta.train[0].features)
        assert sorted(p.name for p in (tmp_path / "tasks").iterdir()) == [
            "manifest.json", "test.npy", "train.npy", "val.npy"]

    @pytest.mark.parametrize("damage, message", [
        (_count_one_more_example, "rows, but its manifest entries count"),
        (lambda d: np.save(d / "train.npy", np.load(d / "train.npy").astype(np.float32)),
         "expected a 2-D float64 array, got 2-D float32"),
        (lambda d: np.save(d / "train.npy", np.load(d / "train.npy").reshape(-1)),
         "expected a 2-D float64 array, got 1-D float64"),
        (lambda d: np.save(d / "train.npy", np.load(d / "train.npy")[:, 1:]),
         "2 columns, but its split has 2 features and a label"),
        (lambda d: np.save(d / "train.npy", np.array([{"x": 1.0}], dtype=object),
                           allow_pickle=True), "pickle"),
    ], ids=["count_mismatch", "float32", "one_dimensional", "missing_column",
            "pickled_object_array"])
    def test_damaged_split_array_names_the_file(self, tmp_path, damage, message):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        damage(tmp_path / "tasks")
        with pytest.raises(ValueError, match="train.npy: .*" + message):
            load_tasks(tmp_path / "tasks")
        # the other splits' arrays are not opened
        loaded, _ = load_tasks(tmp_path / "tasks", ("test",))
        assert len(loaded.test) == spec.n_test_tasks

    def test_settings_from_json_checks_every_field(self):
        doc = {"n_train_tasks": 10, "n_test_tasks": 4, "examples_per_task": 40,
               "noise_sigma": 0, "rotation_range": [0, 90.5],
               "center_range": [-1.0, 1.0], "scale_range": [1.0, 2.0], "master_seed": 5}
        spec = settings_from_json(MoonsEnvironmentSpec, doc, "env")
        assert spec.rotation_range == (0, 90.5) and spec.noise_sigma == 0
        for key, bad in (("n_test_tasks", True), ("n_test_tasks", 4.0),
                         ("noise_sigma", "0.1"), ("rotation_range", [0.0]),
                         ("scale_range", [1.0, "2"]), ("center_range", 1.0)):
            with pytest.raises(ValueError, match=f"env key '{key}'"):
                settings_from_json(MoonsEnvironmentSpec, {**doc, key: bad}, "env")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tasks(tmp_path)


def _provenance_bits(provenance):
    if provenance is None:
        return None
    return np.array([provenance.rotation_deg, *provenance.center,
                     provenance.scale]).view(np.uint64).tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def split_tasks(draw, task_ids):
    """Tasks of one split: a shared feature count, mixed example counts, and
    each task with or without a provenance."""
    d = draw(st.integers(1, 3))
    tasks = []
    for task_id in task_ids:
        m = draw(st.integers(2, 6))
        labels = draw(hnp.arrays(np.float64, m, elements=st.sampled_from([-1.0, 1.0])))
        labels[:2] = (1.0, -1.0)
        provenance = draw(st.none() | st.builds(TaskProvenance, finite,
                                                st.tuples(finite, finite), finite))
        tasks.append(TaskDataset(draw(hnp.arrays(np.float64, (m, d), elements=finite)),
                                 labels, task_id, provenance))
    return tasks


@st.composite
def meta_datasets(draw):
    sizes = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    ids = iter(draw(st.lists(st.integers(0, 10**6), min_size=sum(sizes),
                             max_size=sum(sizes), unique=True)))
    return MetaDataset(*(draw(split_tasks([next(ids) for _ in range(n)])) for n in sizes))


@settings(max_examples=60, deadline=None)
@given(meta=meta_datasets(), splits=st.sets(st.sampled_from(["train", "val", "test"])))
def test_any_tree_round_trips_for_any_subset_of_splits(meta, splits):
    spec = MoonsEnvironmentSpec()
    with tempfile.TemporaryDirectory() as directory:
        save_tasks(directory, meta, spec)
        loaded, loaded_spec = load_tasks(directory, tuple(splits))
    assert loaded_spec == spec
    for split in ("train", "val", "test"):
        back = getattr(loaded, split)
        if split not in splits:
            assert back == []
            continue
        orig = getattr(meta, split)
        assert [t.task_id for t in back] == [t.task_id for t in orig]
        for a, b in zip(orig, back):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert b.provenance == a.provenance
            assert _provenance_bits(b.provenance) == _provenance_bits(a.provenance)
