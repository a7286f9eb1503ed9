"""Moons environment generation and task file round-trips."""

import math

import numpy as np
import pytest

from metacert import autodiff as ad
from metacert.autodiff import Tensor
from metacert.optim import Adam
from metacert.rng import Rng
from metacert.tasks import (MoonsEnvironmentSpec, TaskDataset, gen_meta_dataset,
                            gen_moons_task, load_tasks, save_tasks,
                            settings_from_json)


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
            assert back.provenance is not None
            assert back.provenance.scale == orig.provenance.scale

    def test_manifest_counts_match_files(self, tmp_path):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        csvs = list((tmp_path / "tasks").glob("task_*.csv"))
        assert len(csvs) == spec.n_train_tasks + spec.n_test_tasks

    def test_bad_label_in_file_is_rejected(self, tmp_path):
        spec = canonical_spec()
        save_tasks(tmp_path / "tasks", gen_meta_dataset(spec), spec)
        victim = sorted((tmp_path / "tasks").glob("task_*.csv"))[0]
        text = victim.read_text().replace(",1\n", ",2\n", 1)
        victim.write_text(text)
        with pytest.raises(ValueError, match="label"):
            load_tasks(tmp_path / "tasks")

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
