"""Command-line front door: generate tasks, train, certify, sweep, and
evaluate standalone bounds.

Every pipeline command is a pure function of (config file, input artifacts):
a single master seed in the config governs all randomness, outputs land under
the configured output directory, and rerunning a command reproduces its
outputs byte for byte.  Exit codes: 0 success, 1 usage/config error,
2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bounds
from .hypernet import HypernetConfig, load_checkpoint, save_checkpoint
from .metalearn import (TrainingDivergedError, TrainProtocol, certify_task,
                        meta_train, sweep)
from .rng import Rng, STREAM_CERTIFY, STREAM_SWEEP, STREAM_TRAIN
from .tasks import MoonsEnvironmentSpec, gen_meta_dataset, load_tasks, save_tasks


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    return tuple(int(s) for s in items)


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'low,high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_grid_lists(text: str) -> list[tuple[int, ...]]:
    return [_parse_int_list(part) for part in text.split(";") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(s.strip()) for s in text.split(",") if s.strip()]


def _parse_loss_kind(text: str) -> str:
    if text not in ("zero_one", "linear"):
        raise ValueError(f"expected zero_one or linear, got {text!r}")
    return text


# A run config sets the fields of these dataclasses.  Where the CLI departs
# from them: two fields have other key names, three keys other defaults, and
# the moons tasks fix the input dimension.
_SETTINGS = (MoonsEnvironmentSpec, HypernetConfig, TrainProtocol)
_KEY_OF_FIELD = {"c": "compression_size", "b": "message_size"}
_CLI_DEFAULTS = {"architecture": "SCH_MINUS", "compression_size": 3, "support_size": 100}
_FIXED_FIELDS = {"input_dim"}
_REQUIRED_KEYS = {"output_dir", "master_seed"}
_PARSER_OF_TYPE = {"int": int, "float": float, "str": str,
                   "tuple[int, ...]": _parse_int_list,
                   "tuple[float, float]": _parse_float_pair}


def _setting_fields(cls) -> list:
    """(config key, field) for every field of ``cls`` that a config sets."""
    return [(_KEY_OF_FIELD.get(f.name, f.name), f) for f in fields(cls)
            if f.name not in _FIXED_FIELDS]


_SETTING_FIELDS = [kf for cls in _SETTINGS for kf in _setting_fields(cls)]

# key -> parser
CONFIG_SCHEMA = {
    "output_dir": str,
    "delta": float,
    "certify_loss_kind": _parse_loss_kind,
    # optional filters of the sweep's default grid, one per grid axis
    "sweep_learning_rate": _parse_float_list,
    "sweep_mlp1": _parse_grid_lists,
    "sweep_mlp2": _parse_grid_lists,
    "sweep_mlp3": _parse_grid_lists,
    "sweep_c": _parse_int_list,
    "sweep_b": _parse_int_list,
    **{key: _PARSER_OF_TYPE[f.type] for key, f in _SETTING_FIELDS},
}

# the value of every key a config may leave out, except the sweep filters
CONFIG_DEFAULTS = {
    "delta": 0.05,
    "certify_loss_kind": "zero_one",
    **{key: _CLI_DEFAULTS.get(key, f.default) for key, f in _SETTING_FIELDS
       if key not in _REQUIRED_KEYS},
}


def parse_config(path) -> dict:
    """Parse a line-oriented 'key = value' file; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
        try:
            values[key] = CONFIG_SCHEMA[key](text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    missing = _REQUIRED_KEYS - set(values)
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(sorted(missing))}")
    return {**CONFIG_DEFAULTS, **values}


def _build(cls, cfg: dict):
    """The settings dataclass ``cls`` with every field a config sets."""
    return cls(**{f.name: cfg[key] for key, f in _setting_fields(cls)})


def _write_run_json(out_dir: Path, command: str, cfg: dict) -> None:
    doc = {"command": command, "config": dict(sorted(cfg.items()))}
    (out_dir / f"run_{command}.json").write_text(json.dumps(doc, indent=1) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _build(MoonsEnvironmentSpec, cfg)
    meta = gen_meta_dataset(spec)
    save_tasks(out_dir / "tasks", meta, spec)
    _write_run_json(out_dir, "gen", cfg)
    print(f"generated {len(meta.train)} train / {len(meta.val)} val / "
          f"{len(meta.test)} test tasks under {out_dir / 'tasks'}")
    return 0


def cmd_train(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    meta, _ = load_tasks(out_dir / "tasks")
    hcfg = _build(HypernetConfig, cfg)
    protocol = _build(TrainProtocol, cfg)
    rng = Rng(cfg["master_seed"]).split(STREAM_TRAIN)
    params, log = meta_train(meta.train, meta.val, hcfg, protocol, rng)
    save_checkpoint(out_dir / "checkpoint.json", hcfg, params, cfg["master_seed"])
    lines = [f"epoch={s.epoch} train_loss={_fmt(s.train_loss)} val_error={_fmt(s.val_error)}"
             for s in log.epochs]
    lines.append(f"best_epoch={log.best_epoch} best_val_error={_fmt(log.best_val_error)} "
                 f"stopped_early={log.stopped_early}")
    (out_dir / "train_log.txt").write_text("\n".join(lines) + "\n")
    _write_run_json(out_dir, "train", cfg)
    print(f"trained {hcfg.architecture}: best val error {log.best_val_error:.4f} "
          f"at epoch {log.best_epoch} ({len(log.epochs)} epochs run)")
    return 0


CERT_HEADER = ["task_id", "architecture", "kind", "m_prime", "c_effective", "b",
               "delta", "emp_loss", "emp_loss_kind", "mc_stderr", "tau_star",
               "emp_complement_01", "emp_complement_linear", "test_query_error"]


def cmd_certify(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    meta, _ = load_tasks(out_dir / "tasks")
    hcfg, params, _ = load_checkpoint(out_dir / "checkpoint.json")
    rng = Rng(cfg["master_seed"]).split(STREAM_CERTIFY)
    rows = []
    for task in meta.test:
        row = certify_task(params, hcfg, task, cfg["delta"], rng.split(task.task_id),
                           n_mc=cfg["n_mc"], loss_kind=cfg["certify_loss_kind"])
        for entry in row.certificates:
            rows.append([row.task_id, row.architecture, entry.kind, row.m_prime,
                         row.c_effective, row.b, _fmt(cfg["delta"]),
                         _fmt(entry.emp_loss), entry.emp_loss_kind,
                         "" if entry.mc_stderr is None else _fmt(entry.mc_stderr),
                         _fmt(entry.tau_star), _fmt(row.emp_complement_01),
                         _fmt(row.emp_complement_linear), _fmt(row.test_query_error)])
    with open(out_dir / "certificates.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CERT_HEADER)
        writer.writerows(rows)
    _write_run_json(out_dir, "certify", cfg)
    print(f"certified {len(meta.test)} tasks -> {out_dir / 'certificates.csv'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    meta, _ = load_tasks(out_dir / "tasks")
    protocol = _build(TrainProtocol, cfg)
    grid = {key.removeprefix("sweep_"): v for key, v in cfg.items()
            if key.startswith("sweep_")}
    rng = Rng(cfg["master_seed"]).split(STREAM_SWEEP)
    best, rows = sweep(meta.train, meta.val, cfg["architecture"], protocol, rng,
                       grid=grid or None, log_fn=lambda msg: print(msg, file=sys.stderr))
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["learning_rate", "mlp1", "mlp2", "mlp3", "c", "b",
                         "val_error", "best_epoch", "skipped"])
        for r in rows:
            writer.writerow([
                _fmt(r.learning_rate),
                ",".join(map(str, r.mlp1)), ",".join(map(str, r.mlp2)),
                ",".join(map(str, r.mlp3)), r.c, r.b,
                "" if r.val_error is None else _fmt(r.val_error),
                "" if r.best_epoch is None else r.best_epoch,
                r.skipped or ""])
    _write_run_json(out_dir, "sweep", cfg)
    if best is None:
        print("sweep finished: no valid grid point")
    else:
        print(f"sweep finished: best c={best.c} b={best.b} lr={best.learning_rate} "
              f"val_error={best.val_error:.4f} -> {out_dir / 'sweep.csv'}")
    return 0


def _print_certificate(cert: bounds.Certificate) -> None:
    print(f"kind      {cert.kind}")
    print(f"delta     {cert.delta:.12g}")
    print(f"tau_star  {cert.tau_star:.12g}")
    print(f"{'term':<24}{'nats':>18}{'cumulative_tau':>18}")
    for label, nats, tau in cert.breakdown:
        print(f"{label:<24}{nats:>18.12g}{tau:>18.12g}")


def cmd_bound(args) -> int:
    calculators = {
        "pb": bounds.bound_pb,
        "sch-binary": lambda budget: bounds.bound_sch_binary(budget, args.errors),
        "sch-real": bounds.bound_sch_real,
        "pbsch": bounds.bound_pbsch,
        "pbsch-disintegrated": bounds.bound_pbsch_disintegrated,
    }
    primitives = {
        "kl": lambda: bounds.bernoulli_kl(args.q, args.p),
        "kl-inverse": lambda: bounds.kl_inverse(args.q, args.budget),
        "log-binomial": lambda: bounds.log_binomial(args.m, args.c),
        "binomial-tail": lambda: bounds.binomial_tail_inverse(
            args.m, args.errors if args.errors is not None else 0,
            args.log_delta_prime),
        "gaussian-kl": lambda: bounds.gaussian_kl(_parse_float_list(args.mu)),
        "renyi": lambda: bounds.renyi_divergence_gaussian(_parse_float_list(args.mu),
                                                          args.alpha),
    }
    needs_m = args.kind not in ("kl", "kl-inverse", "gaussian-kl", "renyi")
    if needs_m and args.m is None:
        raise ConfigError(f"bound {args.kind} requires --m")
    if args.kind in primitives:
        print(f"{primitives[args.kind]():.12g}")
        return 0
    if args.kind in calculators:
        budget = bounds.BoundBudget(
            m_prime=args.m, c=args.c, b=args.b, delta=args.delta,
            emp_loss=args.emp_loss, mu_norm_sq=args.mu_norm_sq,
            log_prior_j=args.log_prior_j)
        if args.kind == "sch-binary" and args.errors is None:
            raise ConfigError("sch-binary requires --errors")
        cert = calculators[args.kind](budget)
        _print_certificate(cert)
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["kind", "delta", "tau_star", "term", "nats", "cumulative_tau"])
                for label, nats, tau in cert.breakdown:
                    writer.writerow([cert.kind, _fmt(cert.delta), _fmt(cert.tau_star),
                                     label, _fmt(nats), _fmt(tau)])
    elif args.kind == "catoni":
        value = bounds.bound_catoni(args.catoni_c, args.emp_loss, args.kl_msg,
                                    args.log_prior_j or 0.0, args.delta, args.m)
        print(f"kind      CATONI\ntau_star  {value:.12g}")
    elif args.kind == "linear":
        value = bounds.bound_linear_subgaussian(
            args.lam, args.sigma_sq, args.emp_loss, args.kl_msg,
            args.log_prior_j or 0.0, args.delta, args.m, args.m - args.c)
        print(f"kind      LINEAR\ntau_star  {value:.12g}")
    else:
        raise ConfigError(f"unknown bound kind {args.kind!r}")
    return 0


def cmd_compare_bounds(args) -> int:
    if args.grid < 1:
        raise ConfigError("--grid must be >= 1")
    grid = [0.0] if args.grid == 1 else list(np.linspace(0.0, 1.0, args.grid))
    rows = bounds.compare_trainset_bounds(args.m, args.comp_size, args.kl,
                                          args.delta, grid)
    with nullcontext(sys.stdout) if args.csv is None else open(args.csv, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["val_loss", "bound_squared", "bound_kl_pinsker", "gap"])
        for r in rows:
            out.writerow([_fmt(r.val_loss), _fmt(r.bound_squared),
                          _fmt(r.bound_kl_pinsker), _fmt(r.gap)])
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-parsable usage errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metacert",
                     description="meta-learned hypernetworks with risk certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("gen", "generate the moons task environment"),
                            ("train", "meta-train a hypernetwork"),
                            ("certify", "certify every test task"),
                            ("sweep", "grid search over hyperparameters")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value config file")

    p = sub.add_parser("bound", help="evaluate one certificate calculator")
    p.add_argument("kind", choices=["pb", "sch-binary", "sch-real", "pbsch",
                                    "pbsch-disintegrated", "catoni", "linear",
                                    "kl", "kl-inverse", "log-binomial",
                                    "binomial-tail", "gaussian-kl", "renyi"])
    p.add_argument("--m", type=int, default=None,
                   help="sample size (n_eff for catoni/linear; n for the primitives)")
    p.add_argument("--c", type=int, default=0, help="compression set size")
    p.add_argument("--b", type=int, default=0, help="message size in bits")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--emp-loss", type=float, default=0.0, dest="emp_loss")
    p.add_argument("--mu-norm-sq", type=float, default=0.0, dest="mu_norm_sq")
    p.add_argument("--log-prior-j", type=float, default=None, dest="log_prior_j",
                   help="ln P_J(j); defaults to -ln C(m, c)")
    p.add_argument("--errors", type=int, default=None, help="0-1 error count (sch-binary)")
    p.add_argument("--kl-msg", type=float, default=0.0, dest="kl_msg",
                   help="KL divergence of the message posterior (catoni/linear)")
    p.add_argument("--catoni-c", type=float, default=1.0, dest="catoni_c")
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--sigma-sq", type=float, default=0.0, dest="sigma_sq")
    p.add_argument("--q", type=float, default=0.0, help="first Bernoulli argument")
    p.add_argument("--p", type=float, default=0.5, help="second Bernoulli argument")
    p.add_argument("--budget", type=float, default=0.0, help="kl budget in nats")
    p.add_argument("--log-delta-prime", type=float, default=0.0, dest="log_delta_prime")
    p.add_argument("--mu", default="0", help="comma-separated posterior mean vector")
    p.add_argument("--alpha", type=float, default=2.0, help="Renyi order")
    p.add_argument("--csv", default=None, help="also write the breakdown as CSV")

    p = sub.add_parser("compare-bounds", help="train-set vs complement-set bound gap table")
    p.add_argument("--m", type=int, default=10000)
    p.add_argument("--comp-size", type=int, default=2000, dest="comp_size")
    p.add_argument("--kl", type=float, default=100.0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--grid", type=int, default=101, help="number of val_loss grid points")
    p.add_argument("--csv", default=None, help="write the table here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("gen", "train", "certify", "sweep"):
            cfg = parse_config(args.config)
            return {"gen": cmd_gen, "train": cmd_train,
                    "certify": cmd_certify, "sweep": cmd_sweep}[args.command](cfg)
        if args.command == "bound":
            return cmd_bound(args)
        return cmd_compare_bounds(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
