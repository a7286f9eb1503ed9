"""End-to-end CLI tests: config handling, pipeline commands, bound printers."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metacert import cli, metalearn
from metacert.bounds import log_binomial
from metacert.cli import CONFIG_DEFAULTS, CONFIG_SCHEMA, main, parse_config, ConfigError
from metacert.hypernet import HypernetConfig, init_hypernet_params, save_checkpoint
from metacert.metalearn import DEFAULT_GRID
from metacert.rng import Rng
from metacert.tasks import (MetaDataset, MoonsEnvironmentSpec, TaskDataset, gen_moons_task,
                            save_tasks)

MICRO_CONFIG = """\
# micro moons environment for fast pipeline tests
output_dir = {out}
master_seed = 424242
n_train_tasks = 10
n_test_tasks = 3
examples_per_task = 40
architecture = SCH_MINUS
compression_size = 2
message_size = 0
mlp1 = 12
mlp2 = 10
mlp3 = 4
deepset_dim = 6
attention_dim = 8
support_size = 20
max_epochs = 3
patience = 3
n_mc = 4
"""


def in_array(doc):
    """A damage that puts the whole JSON document inside an array."""
    return [doc]


def first_entry(doc):
    """The task manifest's entry of the first training task."""
    return doc["splits"]["train"]["tasks"][0]


def last_entry(doc):
    """The task manifest's entry of the last test task."""
    return doc["splits"]["test"]["tasks"][-1]


def write_config(tmp_path, text=None):
    cfg = tmp_path / "run.conf"
    cfg.write_text((text or MICRO_CONFIG).format(out=tmp_path / "out"))
    return cfg


class TestConfigParsing:
    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("output_dir = x\nmaster_seed = 1\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("output_dir = x\n")
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(cfg)

    def test_comments_and_defaults(self, tmp_path):
        cfg = tmp_path / "ok.conf"
        cfg.write_text("output_dir = x  # inline comment\nmaster_seed = 7\n")
        values = parse_config(cfg)
        expected = {
            "output_dir": "x", "master_seed": 7,
            "n_train_tasks": 300, "n_test_tasks": 100, "examples_per_task": 200,
            "noise_sigma": 0.1, "rotation_range": (0.0, 360.0),
            "center_range": (-10.0, 10.0), "scale_range": (0.2, 5.0),
            "architecture": "SCH_MINUS", "compression_size": 3, "message_size": 0,
            "mlp1": (100,), "mlp2": (100,), "mlp3": (5,),
            "deepset_dim": 16, "attention_dim": 32,
            "learning_rate": 1e-4, "max_epochs": 200, "patience": 20,
            "support_size": 100, "n_mc": 100,
            "delta": 0.05, "certify_loss_kind": "zero_one",
        }
        assert values == expected
        assert {k: type(v) for k, v in values.items()} == {
            k: type(v) for k, v in expected.items()}
        for key in ("rotation_range", "center_range", "scale_range", "mlp1"):
            assert all(type(x) is type(y) for x, y in zip(values[key], expected[key]))
        assert not any(key.startswith("sweep_") for key in values)

    def test_every_sweep_key_filters_the_grid(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, MICRO_CONFIG + (
            "sweep_learning_rate = 0.01, 0.001\nsweep_mlp1 = 8,8; 16\nsweep_mlp2 = 4\n"
            "sweep_mlp3 = 2;3,3\nsweep_c = 1,2\nsweep_b = 0\n"))
        assert main(["gen", "--config", str(cfg)]) == 0
        seen = {}

        def fake_sweep(train, val, hypernet, protocol, rng, grid=None, log_fn=None):
            seen.update(architecture=hypernet["architecture"], grid=grid)
            return None, []

        monkeypatch.setattr("metacert.cli.sweep", fake_sweep)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert seen["architecture"] == "SCH_MINUS"
        assert seen["grid"] == {"learning_rate": [0.01, 0.001],
                                "mlp1": [(8, 8), (16,)], "mlp2": [(4,)],
                                "mlp3": [(2,), (3, 3)], "c": (1, 2), "b": (0,)}

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "dup.conf"
        cfg.write_text("output_dir = x\nmaster_seed = 1\nmaster_seed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    def test_bad_value_reports_key_and_line(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("output_dir = x\nmaster_seed = not_an_int\n")
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config(cfg)

    def test_unknown_certify_loss_kind_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"output_dir = {tmp_path / 'out'}\nmaster_seed = 1\n"
                       "certify_loss_kind = bogus\n")
        with pytest.raises(ConfigError, match="certify_loss_kind"):
            parse_config(cfg)
        assert main(["certify", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("output_dir = x\nmaster_seed = 1\nwhatever = 3\n")
        assert main(["gen", "--config", str(cfg)]) == 1
        assert "whatever" in capsys.readouterr().err

    def test_every_setting_key_is_a_record_field(self):
        # one schema: no key but output_dir and the sweep filters is hand-written
        settings = {key for cls in cli._SETTINGS for key, _ in cli._setting_fields(cls)}
        filters = {f"sweep_{axis}" for axis in DEFAULT_GRID}
        assert set(CONFIG_SCHEMA) - {"output_dir"} - filters == settings
        assert set(CONFIG_DEFAULTS) == settings - {"master_seed"}


class TestPipeline:
    def test_gen_train_certify_pipeline(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg)]) == 0
        assert (out / "tasks" / "manifest.json").exists()
        assert (out / "run_gen.json").exists()
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "train_log.txt").exists()
        assert main(["certify", "--config", str(cfg)]) == 0
        cert_path = out / "certificates.csv"
        with open(cert_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 3 test tasks x 2 certificate kinds for SCH-
        assert len(rows) == 6
        assert {r["kind"] for r in rows} == {"SCH_BINARY", "SCH_REAL"}
        for r in rows:
            assert 0.0 <= float(r["tau_star"]) <= 1.0
            assert float(r["tau_star"]) >= float(r["emp_loss"]) - 1e-9

    def test_certify_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["gen", "--config", str(cfg)])
        main(["train", "--config", str(cfg)])
        main(["certify", "--config", str(cfg)])
        first = (out / "certificates.csv").read_bytes()
        main(["certify", "--config", str(cfg)])
        assert (out / "certificates.csv").read_bytes() == first

    def test_certify_mixed_task_sizes_equals_per_task_certification(self, tmp_path,
                                                                    monkeypatch):
        # a test split of seven 30-example and four 40-example tasks, certified
        # in chunks of 3 that neither count fills; under these sizes and
        # parameters task seed 8 collides two of the three attention heads
        out = tmp_path / "out"
        cfg = HypernetConfig("PBSCH", c=3, b=3, mlp1=(12,), mlp2=(10,), mlp3=(5,),
                             deepset_dim=6, attention_dim=8)
        sizes_seeds = [(30, 8), (40, 5), (30, 5), (30, 9), (40, 8), (30, 12), (30, 13),
                       (40, 6), (30, 14), (40, 7), (30, 15)]
        test = [gen_moons_task(MoonsEnvironmentSpec(examples_per_task=m, master_seed=seed), 0)
                for m, seed in sizes_seeds]
        test = [TaskDataset(t.features, t.labels, task_id=50 + i) for i, t in enumerate(test)]
        save_tasks(out / "tasks", MetaDataset([], [], test), MoonsEnvironmentSpec())
        save_checkpoint(out / "checkpoint.json", cfg,
                        init_hypernet_params(cfg, Rng(1).split(0)), 77)
        conf = write_config(tmp_path, "output_dir = {out}\nmaster_seed = 77\nn_mc = 4\n")
        chunks = []
        real_decode = metalearn.decode_gamma

        def spy_decode(params, hcfg, features, *args):
            chunks.append(np.shape(features)[:2])
            return real_decode(params, hcfg, features, *args)

        monkeypatch.setattr(metalearn, "_chunk_size", lambda params, set_size, n_rows: 3)
        monkeypatch.setattr(metalearn, "decode_gamma", spy_decode)
        assert main(["certify", "--config", str(conf)]) == 0
        # full samples, then half-sample support sets, per chunk
        assert chunks == [(3, 30), (3, 15), (3, 30), (3, 15), (1, 30), (1, 15),
                          (3, 40), (3, 20), (1, 40), (1, 20)]
        chunked = (out / "certificates.csv").read_bytes()
        with open(out / "certificates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["task_id"]) for r in rows[::2]] == [t.task_id for t in test]
        assert any(int(r["c_effective"]) < 3 for r in rows)

        def per_task(params, hcfg, tasks, protocol, rng):
            return [metalearn.certify_tasks(params, hcfg, [task], protocol, rng)[0]
                    for task in tasks]

        monkeypatch.setattr(cli, "certify_tasks", per_task)
        assert main(["certify", "--config", str(conf)]) == 0
        assert (out / "certificates.csv").read_bytes() == chunked

    def test_gen_rerun_writes_byte_identical_tasks(self, tmp_path):
        cfg = write_config(tmp_path)
        tasks = tmp_path / "out" / "tasks"

        def tree():
            return {path.name: path.read_bytes() for path in sorted(tasks.iterdir())}

        assert main(["gen", "--config", str(cfg)]) == 0
        first = tree()
        for path in tasks.iterdir():
            path.unlink()
        assert main(["gen", "--config", str(cfg)]) == 0
        assert set(first) == {"manifest.json", "train.npy", "val.npy", "test.npy"}
        assert tree() == first

    def test_run_json_echoes_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["gen", "--config", str(cfg)])
        doc = json.loads((tmp_path / "out" / "run_gen.json").read_text())
        assert doc["command"] == "gen"
        assert doc["config"]["master_seed"] == 424242
        assert doc["config"]["noise_sigma"] == 0.1  # default echoed too

    def test_sweep_writes_table(self, tmp_path):
        sweep_cfg = MICRO_CONFIG + (
            "sweep_learning_rate = 0.001\nsweep_mlp1 = 12\nsweep_mlp2 = 10\n"
            "sweep_mlp3 = 4\nsweep_c = 0,2\nsweep_b = 0\n")
        cfg = write_config(tmp_path, sweep_cfg)
        main(["gen", "--config", str(cfg)])
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        skipped = [r for r in rows if r["skipped"]]
        assert len(skipped) == 1 and skipped[0]["c"] == "0"

    def test_sweep_points_keep_the_configured_hypernet_sizes(self, tmp_path, monkeypatch):
        # a grid point used to fall back to deepset_dim 16 and attention_dim 32
        sweep_cfg = MICRO_CONFIG + (
            "sweep_learning_rate = 0.001\nsweep_mlp1 = 12\nsweep_mlp2 = 10\n"
            "sweep_mlp3 = 4\nsweep_c = 1,2\nsweep_b = 0\n")
        cfg = write_config(tmp_path, sweep_cfg)
        assert main(["gen", "--config", str(cfg)]) == 0
        trained = []
        real_meta_train = metalearn.meta_train

        def spy_meta_train(train, val, hcfg, protocol, rng):
            trained.append((hcfg.deepset_dim, hcfg.attention_dim))
            return real_meta_train(train, val, hcfg, protocol, rng)

        monkeypatch.setattr("metacert.metalearn.meta_train", spy_meta_train)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert trained == [(6, 8), (6, 8)]

    def test_train_on_nan_feature_exits_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        tasks = tmp_path / "out" / "tasks"
        task_file = tasks / "train.npy"
        rows = np.load(task_file)
        rows[0, 0] = np.nan
        np.save(task_file, rows)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key, value", [
        ("gen", "n_test_tasks", "-1"), ("gen", "noise_sigma", "-1"),
        ("gen", "scale_range", "nan,1"), ("gen", "rotation_range", "0,inf"),
        ("gen", "examples_per_task", "-2"),
        ("train", "attention_dim", "0"), ("train", "mlp1", "0"), ("train", "mlp3", "0"),
        ("train", "mlp2", "-3"), ("train", "learning_rate", "-1"),
        ("train", "learning_rate", "nan")])
    def test_invalid_setting_names_the_field(self, tmp_path, capsys, command, key, value):
        # each was an unrelated numpy error, or a silent 0-task / gradient-ascent run
        text = MICRO_CONFIG.replace(f"\n{key} = ", f"\n# {key} = ") + f"{key} = {value}\n"
        cfg = write_config(tmp_path, text)
        if command == "train":
            assert main(["gen", "--config", str(cfg)]) == 0
            capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {key} ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, setup", [
        ("gen", ()), ("train", ("gen",)), ("certify", ("gen", "train")), ("sweep", ("gen",))],
        ids=["gen", "train", "certify", "sweep"])
    def test_negative_master_seed_is_refused_before_any_output(self, tmp_path, capsys,
                                                               command, setup):
        # each exited 2 with numpy's "expected non-negative integer", which
        # names no key; gen left an empty output directory behind and sweep
        # logged its points first
        cfg = write_config(tmp_path)
        for step in setup:
            assert main([step, "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace("master_seed = 424242", "master_seed = -1"))
        files = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "'master_seed'" in err and "must be >= 0" in err
        assert sorted(tmp_path.rglob("*")) == files

    @pytest.mark.parametrize("command, split", [("train", "train"), ("certify", "test")])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_the_task(self, tmp_path, capsys, command, split, cell):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        if command == "certify":
            assert main(["train", "--config", str(cfg)]) == 0
        tasks = tmp_path / "out" / "tasks"
        doc = json.loads((tasks / "manifest.json").read_text())
        task_id = doc["splits"][split]["tasks"][0]["task_id"]
        # the split's first task holds the array's first rows
        rows = np.load(tasks / f"{split}.npy")
        rows[1, -2] = float(cell)
        np.save(tasks / f"{split}.npy", rows)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: task {task_id}: features must be finite\n"

    @pytest.mark.parametrize("artifact, damage, name", [
        ("checkpoint.json", lambda doc: doc["params"].pop("recon.trunk.w0"),
         "recon.trunk.w0"),
        ("checkpoint.json", lambda doc: doc["params"]["recon.trunk.w0"].update(shape=[-1]),
         "recon.trunk.w0"),
        ("checkpoint.json", lambda doc: doc["config"].update(bogus=1), "bogus"),
        ("checkpoint.json", lambda doc: doc["config"].pop("architecture"), "architecture"),
        ("checkpoint.json", lambda doc: doc["config"].update(c="2"), "'c'"),
        ("tasks/manifest.json", lambda doc: doc["environment"].update(bogus=1), "bogus"),
        ("tasks/manifest.json", lambda doc: doc.pop("environment"), "environment"),
        ("checkpoint.json", lambda doc: doc.pop("params"), "'params'"),
        ("checkpoint.json", lambda doc: doc.pop("master_seed"), "'master_seed'"),
        ("checkpoint.json", lambda doc: doc["params"]["recon.trunk.b0"].pop("values"),
         "'values'"),
        ("tasks/manifest.json", lambda doc: doc.pop("splits"), "'splits'"),
        ("tasks/manifest.json", lambda doc: doc["splits"]["train"].pop("features"),
         "'features'"),
        ("tasks/manifest.json", lambda doc: doc["splits"].update(extra=doc["splits"]["val"]),
         "'extra'"),
        ("tasks/manifest.json", lambda doc: first_entry(doc).pop("task_id"), "'task_id'"),
        ("tasks/manifest.json", lambda doc: last_entry(doc).update(task_id=11.5), "11.5"),
        ("tasks/manifest.json", lambda doc: last_entry(doc).update(task_id=True), "True"),
        ("tasks/manifest.json", lambda doc: last_entry(doc).update(task_id=-1), "-1"),
        ("tasks/manifest.json", lambda doc: last_entry(doc).update(task_id="12"), "'12'"),
        ("tasks/manifest.json",
         lambda doc: last_entry(doc).update(task_id=first_entry(doc)["task_id"]), "'task_id'"),
        ("checkpoint.json", lambda doc: doc["params"]["recon.trunk.w0"].update(values=[0.0]),
         "recon.trunk.w0"),
        ("checkpoint.json", lambda doc: doc["params"]["recon.trunk.w0"].update(values="AAAA*AAAA"),
         "recon.trunk.w0"),
        ("checkpoint.json",
         lambda doc: doc["params"]["recon.trunk.w0"].update(values="AAAAAAAAAAA="),
         "recon.trunk.w0"),
        ("checkpoint.json", lambda doc: doc.update(params=list(doc["params"])), "'params'"),
        ("checkpoint.json", lambda doc: doc.update(params=" ".join(doc["params"])), "'params'"),
        ("checkpoint.json", in_array, "'format_version'"),
        ("tasks/manifest.json", lambda doc: doc.update(splits=5), "'splits'"),
        ("tasks/manifest.json", lambda doc: doc.update(splits=None), "'splits'"),
        ("tasks/manifest.json", lambda doc: doc["splits"]["test"].update(tasks={}), "'tasks'"),
        ("tasks/manifest.json", in_array, "'format_version'"),
    ], ids=["missing", "wrong_shape", "config_unknown_key", "config_missing_key",
            "config_string_c", "manifest_unknown_key", "manifest_no_environment",
            "no_params", "no_master_seed", "tensor_no_values", "manifest_no_tasks",
            "split_no_features", "unknown_split", "entry_no_task_id", "entry_float_task_id",
            "entry_bool_task_id", "entry_negative_task_id", "entry_string_task_id",
            "entry_duplicate_task_id", "values_not_a_string", "values_not_base64",
            "values_byte_count", "params_array", "params_string", "checkpoint_array",
            "manifest_tasks_number", "manifest_tasks_null", "split_tasks_object",
            "manifest_array"])
    def test_certify_on_damaged_checkpoint_names_the_tensor(self, tmp_path, capsys,
                                                            artifact, damage, name):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / artifact
        doc = json.loads(path.read_text())
        damaged = damage(doc)
        path.write_text(json.dumps(damaged if damage is in_array else doc))
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err

    def test_certify_without_mc_draws_names_n_mc(self, tmp_path, capsys):
        pbsch = MICRO_CONFIG.replace("architecture = SCH_MINUS", "architecture = PBSCH")
        pbsch = pbsch.replace("message_size = 0", "message_size = 3")
        cfg = write_config(tmp_path, pbsch)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        # train never reads n_mc; certify checks it through its protocol
        cfg = write_config(tmp_path, pbsch.replace("n_mc = 4", "n_mc = 0"))
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "n_mc" in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("architecture, message_size", [("SCH_MINUS", 0), ("PBSCH", 3)])
    def test_only_certify_reads_n_mc(self, tmp_path, capsys, architecture, message_size):
        # train used to reject n_mc = 0, which it never reads, and certify
        # accepted it for an architecture without Monte-Carlo draws
        text = (MICRO_CONFIG.replace("architecture = SCH_MINUS", f"architecture = {architecture}")
                .replace("message_size = 0", f"message_size = {message_size}")
                .replace("n_mc = 4", "n_mc = 0"))
        cfg = write_config(tmp_path, text)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "n_mc" in err

    @pytest.mark.parametrize("delta", ["5", "nan"])
    def test_certify_checks_delta_before_reading_tasks(self, tmp_path, capsys, delta):
        # without test tasks no certificate reached BoundBudget's check, so
        # certify exited 0 and wrote a header-only certificates.csv
        text = (MICRO_CONFIG.replace("n_test_tasks = 3", "n_test_tasks = 0")
                + f"delta = {delta}\n")
        cfg = write_config(tmp_path, text)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "delta" in err
        assert not (tmp_path / "out" / "certificates.csv").exists()

    def test_train_without_tasks_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["train", "--config", str(cfg)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBoundCommand:
    def test_pb_worked_example(self, capsys):
        code = main(["bound", "pb", "--m", "100", "--mu-norm-sq", "0",
                     "--emp-loss", "0", "--delta", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        tau = float([l for l in out.splitlines() if l.startswith("tau_star")][0].split()[1])
        assert tau == pytest.approx(0.058155, abs=1e-5)

    def test_sch_binary_worked_example(self, capsys):
        code = main(["bound", "sch-binary", "--m", "2000", "--c", "8", "--b", "0",
                     "--errors", "0", "--delta", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        tau = float([l for l in out.splitlines() if l.startswith("tau_star")][0].split()[1])
        assert tau == pytest.approx(0.02635, abs=1e-5)

    @pytest.mark.parametrize("kind, cert_kind, flags", [
        ("pb", "PB", ["--emp-loss", "0.1", "--mu-norm-sq", "2.0"]),
        ("sch-binary", "SCH_BINARY", ["--b", "8", "--c", "2", "--errors", "10"]),
        ("sch-real", "SCH_REAL", ["--b", "8", "--emp-loss", "0.1", "--c", "2"]),
        ("pbsch", "PBSCH", ["--emp-loss", "0.1", "--mu-norm-sq", "2.0", "--c", "2"]),
        ("pbsch-disintegrated", "PBSCH_DISINTEGRATED",
         ["--emp-loss", "0.1", "--mu-norm-sq", "2.0", "--c", "2"]),
    ], ids=["pb", "sch-binary", "sch-real", "pbsch", "pbsch-disintegrated"])
    def test_breakdown_table_printed(self, capsys, kind, cert_kind, flags):
        assert main(["bound", kind, "--m", "400", *flags]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["kind", cert_kind]
        for label in ("empirical_loss", "confidence", "message_cost",
                      "compression_set_cost"):
            assert label in out

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["bound", "sch-binary", "--m", "100"]) == 1
        assert "errors" in capsys.readouterr().err

    def test_precondition_violation_reports_flag_value(self, capsys):
        code = main(["bound", "pb", "--m", "100", "--delta", "1.5"])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_catoni_and_linear_scalars(self, capsys):
        assert main(["bound", "catoni", "--m", "100", "--catoni-c", "1.0",
                     "--delta", "0.05"]) == 0
        tau = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert tau == pytest.approx(0.046689, abs=1e-6)
        assert main(["bound", "linear", "--m", "100", "--lambda", "1.0",
                     "--emp-loss", "0.3", "--delta", "1.0"]) == 0
        tau = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert tau == pytest.approx(0.3, abs=1e-12)

    def test_primitive_calculators(self, capsys):
        cases = [
            (["bound", "kl", "--q", "0.1", "--p", "0.5"], 0.3680642071684971),
            (["bound", "kl-inverse", "--q", "0", "--budget", "0.05"], 0.04877057549928599),
            (["bound", "log-binomial", "--m", "10", "--c", "3"], 4.787491742782046),
            (["bound", "binomial-tail", "--m", "10", "--errors", "0",
              "--log-delta-prime", "-2.995732273553991"], 0.2588655508930523),
            (["bound", "gaussian-kl", "--mu", "3,4"], 12.5),
            (["bound", "renyi", "--mu", "1,1", "--alpha", "2"], 2.0),
        ]
        for argv, expected in cases:
            assert main(argv) == 0
            assert float(capsys.readouterr().out.strip()) == pytest.approx(expected, abs=1e-9)

    def test_primitive_missing_m(self, capsys):
        assert main(["bound", "log-binomial", "--c", "3"]) == 1
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["pbsch", "--m", "400", "--c", "2", "--emp-loss", "0.1",
          "--mu-norm-sq", "nan"], "mu_norm_sq"),
        (["sch-binary", "--m", "100", "--c", "2", "--errors", "3", "--log-prior-j", "nan"],
         "log_prior_j"),
        (["kl-inverse", "--q", "0.1", "--budget", "nan"], "budget"),
        (["binomial-tail", "--m", "100", "--errors", "3", "--log-delta-prime", "nan"],
         "log_delta_prime"),
        (["catoni", "--m", "100", "--kl-msg", "nan"], "kl_msg"),
        (["linear", "--m", "100", "--emp-loss", "nan"], "emp_loss"),
        (["gaussian-kl", "--mu", "1,nan"], "mu"),
        (["renyi", "--mu", "1", "--alpha", "nan"], "alpha"),
    ], ids=["pbsch", "sch-binary", "kl-inverse", "binomial-tail", "catoni", "linear",
            "gaussian-kl", "renyi"])
    def test_nan_input_is_numeric_error(self, capsys, argv, name):
        assert main(["bound", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert name in err and "nan" in err.lower()

    @pytest.mark.parametrize("argv, name", [
        (["catoni", "--m", "100", "--catoni-c", "inf"], "C must"),
        (["linear", "--m", "100", "--lambda", "inf"], "lambda"),
        (["linear", "--m", "100", "--emp-loss=-inf"], "emp_loss"),
    ], ids=["catoni-c", "linear-lambda", "linear-emp-loss"])
    def test_infinite_input_is_numeric_error(self, capsys, argv, name):
        # each used to print a tau_star of 0, nan or -inf and exit 0
        assert main(["bound", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert name in err and "inf" in err

    @pytest.mark.parametrize("emp_loss", ["-3", "1.7"])
    def test_catoni_emp_loss_outside_unit_interval_is_numeric_error(self, capsys, emp_loss):
        # Catoni's bound is for [0, 1] losses: -3 used to certify tau_star 0
        assert main(["bound", "catoni", "--m", "100", "--emp-loss", emp_loss]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "emp_loss" in err

    @pytest.mark.parametrize("argv", [["gaussian-kl", "--mu", "abc"],
                                      ["renyi", "--mu", "1,x"]])
    def test_malformed_mu_is_usage_error(self, capsys, argv):
        # was a numeric error (exit 2), unlike every other malformed flag value
        assert main(["bound", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--mu" in err

    def test_malformed_mu_names_the_flag_not_its_parser(self, capsys):
        assert main(["bound", "gaussian-kl", "--mu", "abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--mu" in err and "comma-separated list of floats" in err
        assert "_parse" not in err

    @pytest.mark.parametrize("argv, flag, value, expected", [
        (["binomial-tail", "--m", "197", "--errors", "30"], "--log-delta-prime", "-1e-9",
         "0.0442167515586\n"),
        (["binomial-tail", "--m", "197", "--errors", "30"], "--log-delta-prime", "-1E+2",
         None),
        (["binomial-tail", "--m", "197", "--errors", "30"], "--log-delta-prime", "-inf", None),
        (["sch-real", "--m", "100", "--c", "2", "--emp-loss", "0.1"], "--log-prior-j", "-1e1",
         None),
        (["gaussian-kl"], "--mu", "-1e-3,2", "2.0000005\n"),
        (["renyi", "--alpha", "3"], "--mu", "-inf,-1e-3", "inf\n"),
    ], ids=["log-delta-prime", "upper-case-exponent", "minus-inf", "log-prior-j", "mu",
            "mu-minus-inf"])
    def test_negative_value_in_exponent_notation(self, capsys, argv, flag, value, expected):
        # argparse reads only -1 and -1.5 forms as negative numbers: each of
        # these exited 1 with "expected one argument" unless written flag=value
        assert main(["bound", *argv, f"{flag}={value}"]) == 0
        joined = capsys.readouterr().out
        assert main(["bound", *argv, flag, value]) == 0
        assert capsys.readouterr().out == joined
        assert expected is None or joined == expected

    @pytest.mark.parametrize("argv", [["--bogus", "-1e-9"], ["-inf"], ["--log-delta-prime"]],
                             ids=["undeclared-flag", "stray-value", "missing-value"])
    def test_negative_values_leave_usage_errors_alone(self, capsys, argv):
        assert main(["bound", "binomial-tail", "--m", "197", "--errors", "30", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert argv[0] in err

    @pytest.mark.parametrize("token", ["-1abc", "-infile", "-1e", "-1,"])
    def test_tokens_that_only_begin_like_a_number_stay_flags(self, capsys, token):
        assert main(["bound", "binomial-tail", "--m", "197", "--errors", "30",
                     "--log-delta-prime", token]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--log-delta-prime" in err and "expected one argument" in err

    @pytest.mark.parametrize("argv, explicit_argv, expected", [
        (["linear", "--m", "100", "--c", "5", "--lambda", "1", "--sigma-sq", "0.01",
          "--emp-loss", "0.1"], None, "kind      LINEAR\ntau_star  0.316075572155\n"),
        (["catoni", "--m", "100", "--c", "5", "--catoni-c", "1"],
         ["catoni", "--m", "100", "--catoni-c", "1"],
         "kind      CATONI\ntau_star  0.301349999512\n"),
    ], ids=["linear", "catoni"])
    def test_comparator_prior_defaults_to_uniform_over_sets(self, capsys, argv, explicit_argv,
                                                            expected):
        # -ln C(100, 5), the documented default of --log-prior-j; catoni refuses
        # --c beside it, so its explicit run drops --c
        explicit = ["--log-prior-j", repr(-log_binomial(100, 5))]
        assert main(["bound", *argv]) == 0
        assert capsys.readouterr().out == expected
        assert main(["bound", *(explicit_argv or argv), *explicit]) == 0
        assert capsys.readouterr().out == expected

    def test_catoni_rejects_c_beside_log_prior_j(self, capsys):
        # catoni's n_eff is --m, so --c only defaults --log-prior-j: beside an
        # explicit prior it used to be ignored, --c 5 and --c 50 both exit 0
        # with tau_star 0.233847548584
        for c in ("5", "50"):
            assert main(["bound", "catoni", "--m", "100", "--c", c, "--log-prior-j", "-3",
                         "--emp-loss", "0.1"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            assert "--c" in err and "--log-prior-j" in err and "catoni" in err

    def test_pb_rejects_log_prior_j(self, capsys):
        # PB has no compression set: the flag used to be ignored, exit 0
        assert main(["bound", "pb", "--m", "400", "--emp-loss", "0.1",
                     "--log-prior-j", "-3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--log-prior-j" in err and "pb" in err

    def test_bound_csv_output(self, tmp_path, capsys):
        path = tmp_path / "bound.csv"
        main(["bound", "pb", "--m", "100", "--csv", str(path)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[-1]["term"] == "compression_set_cost"

    @pytest.mark.parametrize("argv", [
        ["catoni", "--m", "100"],
        ["linear", "--m", "100"],
        ["kl", "--q", "0.1", "--p", "0.3"],
        ["kl-inverse", "--q", "0.1", "--budget", "0.3"],
        ["log-binomial", "--m", "10", "--c", "3"],
        ["binomial-tail", "--m", "100", "--errors", "3"],
        ["gaussian-kl", "--mu", "1,2"],
        ["renyi", "--mu", "1,2"],
    ], ids=lambda argv: argv[0])
    def test_csv_without_breakdown_is_usage_error(self, tmp_path, capsys, argv):
        # these kinds have no breakdown: --csv used to be ignored, exit 0, no file
        path = tmp_path / "out.csv"
        assert main(["bound", *argv, "--csv", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--csv" in err and argv[0] in err
        assert not path.exists()


# kind -> the flags it reads, each exactly once; --m is required wherever it
# appears, and --errors for sch-binary
BOUND_KIND_FLAGS = {
    "pb": ["m", "delta", "emp-loss", "mu-norm-sq", "csv"],
    "sch-binary": ["m", "c", "b", "delta", "log-prior-j", "errors", "csv"],
    "sch-real": ["m", "c", "b", "delta", "emp-loss", "log-prior-j", "csv"],
    "pbsch": ["m", "c", "delta", "emp-loss", "mu-norm-sq", "log-prior-j", "csv"],
    "pbsch-disintegrated": ["m", "c", "delta", "emp-loss", "mu-norm-sq", "log-prior-j", "csv"],
    "catoni": ["m", "c", "delta", "emp-loss", "kl-msg", "log-prior-j", "catoni-c"],
    "linear": ["m", "c", "delta", "emp-loss", "kl-msg", "log-prior-j", "lambda", "sigma-sq"],
    "kl": ["q", "p"],
    "kl-inverse": ["q", "budget"],
    "log-binomial": ["m", "c"],
    "binomial-tail": ["m", "errors", "log-delta-prime"],
    "gaussian-kl": ["mu"],
    "renyi": ["mu", "alpha"],
}
_PBSCH_PERTURBED = {"m": "300", "c": "3", "delta": "0.01", "emp-loss": "0.2",
                    "mu-norm-sq": "2.0", "log-prior-j": "-3", "csv": None}
# kind -> (a base argv, flag -> a value that must change what the kind prints)
PERTURBED = {
    "pb": (["--m", "400", "--emp-loss", "0.1"],
           {"m": "300", "delta": "0.01", "emp-loss": "0.2", "mu-norm-sq": "2.0", "csv": None}),
    "sch-binary": (["--m", "400", "--c", "2", "--errors", "10"],
                   {"m": "300", "c": "3", "b": "8", "delta": "0.01", "log-prior-j": "-3",
                    "errors": "11", "csv": None}),
    "sch-real": (["--m", "400", "--c", "2", "--emp-loss", "0.1"],
                 {"m": "300", "c": "3", "b": "8", "delta": "0.01", "emp-loss": "0.2",
                  "log-prior-j": "-3", "csv": None}),
    "pbsch": (["--m", "400", "--c", "2", "--emp-loss", "0.1"], _PBSCH_PERTURBED),
    "pbsch-disintegrated": (["--m", "400", "--c", "2", "--emp-loss", "0.1"], _PBSCH_PERTURBED),
    "catoni": (["--m", "100", "--emp-loss", "0.1"],
               {"m": "200", "c": "3", "delta": "0.01", "emp-loss": "0.2", "kl-msg": "2",
                "log-prior-j": "-3", "catoni-c": "2"}),
    "linear": (["--m", "100", "--c", "5", "--emp-loss", "0.1", "--sigma-sq", "0.01"],
               {"m": "200", "c": "3", "delta": "0.01", "emp-loss": "0.2", "kl-msg": "2",
                "log-prior-j": "-3", "lambda": "2", "sigma-sq": "0.02"}),
    "kl": (["--q", "0.1", "--p", "0.5"], {"q": "0.2", "p": "0.3"}),
    "kl-inverse": (["--q", "0.1", "--budget", "0.05"], {"q": "0.2", "budget": "0.1"}),
    "log-binomial": (["--m", "10", "--c", "3"], {"m": "11", "c": "4"}),
    "binomial-tail": (["--m", "100", "--log-delta-prime", "-3"],
                      {"m": "50", "errors": "3", "log-delta-prime": "-4"}),
    "gaussian-kl": (["--mu", "3,4"], {"mu": "1,2"}),
    "renyi": (["--mu", "1,1"], {"mu": "1,2", "alpha": "3"}),
}


def _with_flag(argv, flag, value):
    """``argv`` with --flag set to ``value``: replaced if present, else appended."""
    if f"--{flag}" in argv:
        i = argv.index(f"--{flag}")
        return [*argv[:i + 1], value, *argv[i + 2:]]
    return [*argv, f"--{flag}", value]


class TestBoundKindFlags:
    """Each `bound` kind's parser declares exactly the flags its calculator reads."""

    @pytest.mark.parametrize("kind", list(BOUND_KIND_FLAGS))
    def test_help_lists_exactly_the_flags_the_kind_reads(self, capsys, kind):
        with pytest.raises(SystemExit) as exc:
            main(["bound", kind, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        declared = [flag[2:] for flag in re.findall(r"--[a-z-]+", usage)]
        assert declared == BOUND_KIND_FLAGS[kind]
        assert set(PERTURBED[kind][1]) == set(declared)

    @pytest.mark.parametrize("argv, flags", [
        (["pb", "--m", "400", "--emp-loss", "0.1", "--b", "64"], ["--b"]),
        (["pbsch", "--m", "400", "--c", "2", "--emp-loss", "0.1", "--b", "8"], ["--b"]),
        (["sch-binary", "--m", "100", "--c", "2", "--errors", "3", "--emp-loss", "0.9"],
         ["--emp-loss"]),
        (["catoni", "--m", "100", "--mu-norm-sq", "50"], ["--mu-norm-sq"]),
        (["kl-inverse", "--q", "0.1", "--budget", "0.3", "--m", "7", "--delta", "0.5"],
         ["--m", "--delta"]),
        (["sch-binary", "--m", "100", "--c", "2", "--errors", "3", "--emp-loss", "1.5"],
         ["--emp-loss"]),
        (["pbsch", "--m", "400", "--c", "2", "--emp-loss", "0.1", "--b", "-1"], ["--b"]),
        (["pb", "--m", "400", "--c", "0"], ["--c"]),
    ], ids=["pb-b", "pbsch-b", "sch-binary-emp-loss", "catoni-mu-norm-sq",
            "kl-inverse-m-delta", "sch-binary-emp-loss-out-of-range", "pbsch-negative-b",
            "pb-c"])
    def test_flag_the_kind_does_not_read_is_usage_error(self, capsys, argv, flags):
        # each used to exit 0 with the flagless value, or 2 on a value never used
        assert main(["bound", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        words = err.split()
        assert f"{argv[0]}:" in words and all(flag in words for flag in flags)

    @pytest.mark.parametrize("kind, flag", [(kind, flag) for kind, (_, perturbed)
                                            in PERTURBED.items() for flag in perturbed])
    def test_every_declared_flag_changes_the_output(self, tmp_path, capsys, kind, flag):
        base, perturbed = PERTURBED[kind]
        assert main(["bound", kind, *base]) == 0
        expected = capsys.readouterr().out
        if flag == "csv":
            path = tmp_path / "breakdown.csv"
            assert main(["bound", kind, *base, "--csv", str(path)]) == 0
            assert capsys.readouterr().out == expected
            tau_star = expected.splitlines()[2].split()[1]
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [f"{float(r['tau_star']):.12g}" for r in rows] == [tau_star] * 4
        else:
            assert main(["bound", kind, *_with_flag(base, flag, perturbed[flag])]) == 0
            assert capsys.readouterr().out != expected

    @pytest.mark.parametrize("kind, flag", [(kind, flag) for kind, flags
                                            in BOUND_KIND_FLAGS.items()
                                            for flag in flags if flag != "csv"])
    def test_negative_value_token_is_the_flags_value(self, capsys, kind, flag):
        # each value reaches the flag's parser as --flag=value would: printed,
        # or refused with the same message, never taken for a flag
        base = PERTURBED[kind][0]
        if f"--{flag}" in base:
            i = base.index(f"--{flag}")
            base = [*base[:i], *base[i + 2:]]
        for value in ("-1e-9", "-1E+2", "-inf", "-1e-3,2"):
            code = main(["bound", kind, *base, f"--{flag}={value}"])
            joined = capsys.readouterr()
            assert main(["bound", kind, *base, f"--{flag}", value]) == code, value
            assert capsys.readouterr() == joined, value
            assert "expected one argument" not in joined.err

    @pytest.mark.parametrize("kind", [k for k, flags in BOUND_KIND_FLAGS.items() if "m" in flags])
    def test_m_is_required_wherever_declared(self, capsys, kind):
        base = PERTURBED[kind][0]
        i = base.index("--m")
        assert main(["bound", kind, *base[:i], *base[i + 2:]]) == 1
        assert "--m" in capsys.readouterr().err


class TestCompareBoundsCommand:
    def test_default_gap_table(self, capsys):
        assert main(["compare-bounds", "--grid", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "val_loss,bound_squared,bound_kl_pinsker,gap"
        gaps = [float(l.split(",")[3]) for l in lines[1:]]
        assert gaps[0] == pytest.approx(0.3719836801198102, abs=1e-9)
        assert gaps[-1] == pytest.approx(0.17198368011981024, abs=1e-9)

    def test_csv_file_holds_the_table(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        assert main(["compare-bounds", "--grid", "3", "--csv", str(path)]) == 0
        assert capsys.readouterr().out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "val_loss,bound_squared,bound_kl_pinsker,gap"
        assert len(lines) == 4
        assert float(lines[1].split(",")[3]) == pytest.approx(0.3719836801198102, abs=1e-9)

    def test_grid_resolution_one_single_row_at_zero(self, capsys):
        assert main(["compare-bounds", "--grid", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.0

    def test_kl_10000_sign_change(self, capsys):
        assert main(["compare-bounds", "--kl", "10000", "--grid", "101"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rows = [(float(l.split(",")[0]), float(l.split(",")[3])) for l in lines]
        crossings = [(a, b) for a, b in zip(rows, rows[1:]) if a[1] > 0 >= b[1]]
        assert len(crossings) == 1
        assert 0.55 <= crossings[0][1][0] <= 0.65

    def test_invalid_comp_size_is_numeric_error(self, capsys):
        assert main(["compare-bounds", "--m", "10", "--comp-size", "10"]) == 2


# The exact bytes every bound printer wrote before the command tables were
# introduced; the float tests above parse with tolerances and would not
# notice a changed format.
PB_FLAGS = ["--m", "400", "--emp-loss", "0.1", "--mu-norm-sq", "2.0"]
TERMS = "term                                  nats    cumulative_tau\n"
PINNED_STDOUT = [
    (["pb", *PB_FLAGS],
     "kind      PB\ndelta     0.05\ntau_star  0.168787921808\n" + TERMS
     + "empirical_loss                           0               0.1\n"
     "confidence                   6.68461172767    0.163552519278\n"
     "message_cost                             1    0.168787921808\n"
     "compression_set_cost                     0    0.168787921808\n"),
    (["sch-binary", "--m", "400", "--c", "2", "--b", "8", "--errors", "10"],
     "kind      SCH_BINARY\ndelta     0.05\ntau_star  0.102450380878\n" + TERMS
     + "empirical_loss                           0   0.0251256281407\n"
     "confidence                   2.99573227355   0.0422459204811\n"
     "message_cost                 5.54517744448   0.0657709033844\n"
     "compression_set_cost         11.2872787834    0.102450380878\n"),
    (["sch-real", "--m", "400", "--c", "2", "--b", "8", "--emp-loss", "0.1"],
     "kind      SCH_REAL\ndelta     0.05\ntau_star  0.232665804929\n" + TERMS
     + "empirical_loss                           0               0.1\n"
     "confidence                   6.68210545676    0.163719583099\n"
     "message_cost                 5.54517744448    0.190141416071\n"
     "compression_set_cost         11.2872787834    0.232665804929\n"),
    (["pbsch", "--c", "2", *PB_FLAGS],
     "kind      PBSCH\ndelta     0.05\ntau_star  0.216707334431\n" + TERMS
     + "empirical_loss                           0               0.1\n"
     "confidence                   6.68210545676    0.163719583099\n"
     "message_cost                             1    0.168971814233\n"
     "compression_set_cost         11.2872787834    0.216707334431\n"),
    (["pbsch-disintegrated", "--c", "2", *PB_FLAGS],
     "kind      PBSCH_DISINTEGRATED\ndelta     0.05\ntau_star  0.247478079519\n" + TERMS
     + "empirical_loss                           0               0.1\n"
     "confidence                   14.7530115455    0.200603430028\n"
     "message_cost                             2    0.208426191643\n"
     "compression_set_cost         11.2872787834    0.247478079519\n"),
    (["catoni", "--m", "100", "--c", "0", "--catoni-c", "1", "--emp-loss", "0.1",
      "--kl-msg", "2"],
     "kind      CATONI\ntau_star  0.220298625293\n"),
    (["linear", "--m", "100", "--c", "0", "--lambda", "1", "--sigma-sq", "0.01",
      "--emp-loss", "0.1", "--kl-msg", "2"],
     "kind      LINEAR\ntau_star  0.154957322736\n"),
    (["kl", "--q", "0.1", "--p", "0.5"], "0.368064207168\n"),
    (["kl-inverse", "--q", "0.1", "--budget", "0.05"], "0.220078601107\n"),
    (["log-binomial", "--m", "10", "--c", "3"], "4.78749174278\n"),
    (["binomial-tail", "--m", "100", "--errors", "3", "--log-delta-prime", "-3"],
     "0.0757708510869\n"),
    (["gaussian-kl", "--mu", "3,4"], "12.5\n"),
    (["renyi", "--mu", "1,1", "--alpha", "2"], "2\n"),
]
GAP_TABLE = ("val_loss,bound_squared,bound_kl_pinsker,gap\n"
             "0.0,0.454820838062698,0.0828371579428878,0.3719836801198102\n"
             "0.5,0.854820838062698,0.5828371579428878,0.2719836801198102\n"
             "1.0,1.254820838062698,1.0828371579428877,0.17198368011981024\n")


class TestPinnedOutputBytes:
    @pytest.mark.parametrize("argv, expected", PINNED_STDOUT,
                             ids=[argv[0] for argv, _ in PINNED_STDOUT])
    def test_bound_stdout(self, capsys, argv, expected):
        assert main(["bound", *argv]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_bound_csv_file(self, tmp_path, capsys):
        path = tmp_path / "pb.csv"
        assert main(["bound", "pb", *PB_FLAGS, "--csv", str(path)]) == 0
        assert capsys.readouterr().out == PINNED_STDOUT[0][1]
        assert path.read_bytes() == (
            b"kind,delta,tau_star,term,nats,cumulative_tau\n"
            b"PB,0.05,0.16878792180799682,empirical_loss,0.0,0.1\n"
            b"PB,0.05,0.16878792180799682,confidence,6.684611727667927,0.16355251927799763\n"
            b"PB,0.05,0.16878792180799682,message_cost,1.0,0.16878792180799682\n"
            b"PB,0.05,0.16878792180799682,compression_set_cost,0.0,0.16878792180799682\n")

    def test_compare_bounds_stdout_and_csv(self, tmp_path, capsys):
        assert main(["compare-bounds", "--grid", "3"]) == 0
        assert capsys.readouterr() == (GAP_TABLE, "")
        path = tmp_path / "gap.csv"
        assert main(["compare-bounds", "--grid", "3", "--csv", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_bytes() == GAP_TABLE.encode()

    def test_unknown_kind_error_line(self, capsys):
        assert main(["bound", "bogus", "--m", "10"]) == 1
        assert capsys.readouterr() == ("", (
            "error: argument kind: invalid choice: 'bogus' (choose from 'pb', "
            "'sch-binary', 'sch-real', 'pbsch', 'pbsch-disintegrated', 'catoni', "
            "'linear', 'kl', 'kl-inverse', 'log-binomial', 'binomial-tail', "
            "'gaussian-kl', 'renyi')\n"))


class TestProcess:
    def test_parser_is_built_once_per_process(self, capsys):
        parser = cli.build_parser()
        assert main(["bound", "kl", "--q", "0.1", "--p", "0.2"]) == 0
        assert main(["bound", "nope"]) == 1
        assert cli.build_parser() is parser

    def test_bound_commands_load_no_scipy(self):
        # the runtime needs numpy only; scipy.special alone is about 24 MB of RSS
        script = (
            "import sys\n"
            "from metacert import cli\n"
            "assert cli.main(['bound', 'sch-binary', '--m', '200', '--c', '3', '--b', '4',"
            " '--errors', '10']) == 0\n"
            "assert cli.main(['bound', 'pbsch', '--m', '200', '--c', '3', '--emp-loss', '0.1',"
            " '--mu-norm-sq', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
