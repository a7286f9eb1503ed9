"""End-to-end CLI tests: config handling, pipeline commands, bound printers."""

import csv
import json

import pytest

from metacert.cli import main, parse_config, ConfigError

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

        def fake_sweep(train, val, architecture, protocol, rng, grid=None, log_fn=None):
            seen.update(architecture=architecture, grid=grid)
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

    def test_train_on_nan_feature_exits_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        tasks = tmp_path / "out" / "tasks"
        manifest = json.loads((tasks / "manifest.json").read_text())
        task_file = tasks / next(e["file"] for e in manifest["tasks"]
                                 if e["split"] == "train")
        lines = task_file.read_text().splitlines()
        lines[1] = ",".join(["nan", *lines[1].split(",")[1:]])
        task_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

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
    ], ids=["missing", "wrong_shape", "config_unknown_key", "config_missing_key",
            "config_string_c", "manifest_unknown_key", "manifest_no_environment"])
    def test_certify_on_damaged_checkpoint_names_the_tensor(self, tmp_path, capsys,
                                                            artifact, damage, name):
        cfg = write_config(tmp_path)
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / artifact
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err

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
        ("pb", "PB", ["--c", "0"]),
        ("sch-binary", "SCH_BINARY", ["--c", "2", "--errors", "10"]),
        ("sch-real", "SCH_REAL", ["--c", "2"]),
        ("pbsch", "PBSCH", ["--c", "2"]),
        ("pbsch-disintegrated", "PBSCH_DISINTEGRATED", ["--c", "2"]),
    ], ids=["pb", "sch-binary", "sch-real", "pbsch", "pbsch-disintegrated"])
    def test_breakdown_table_printed(self, capsys, kind, cert_kind, flags):
        assert main(["bound", kind, "--m", "400", "--b", "8", "--emp-loss", "0.1",
                     "--mu-norm-sq", "2.0", *flags]) == 0
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

    def test_bound_csv_output(self, tmp_path, capsys):
        path = tmp_path / "bound.csv"
        main(["bound", "pb", "--m", "100", "--csv", str(path)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[-1]["term"] == "compression_set_cost"


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
