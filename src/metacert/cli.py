"""Command-line front door: generate tasks, train, certify, sweep, and
evaluate standalone bounds.

Every pipeline command is a pure function of (config file, input artifacts):
a single master seed in the config governs all randomness, outputs land under
the configured output directory, and rerunning a command reproduces its
outputs byte for byte.  Exit codes: 0 success, 1 usage/config error,
2 numeric failure (NaN inputs and non-finite task features included).
``PIPELINE_COMMANDS``, ``BOUND_KINDS`` and ``metalearn.DEFAULT_GRID`` (the
``sweep_<axis>`` keys) are the one list each of commands, kinds and axes;
``BOUND_KINDS`` also names the flags each kind reads, and a kind's parser
accepts no other.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import bounds
from .hypernet import HypernetConfig, load_checkpoint, save_checkpoint
from .metalearn import (DEFAULT_GRID, CertifyProtocol, SweepRow, TrainingDivergedError,
                        TrainProtocol, certify_tasks, meta_train, sweep)
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


def _float_list_flag(text: str) -> list[float]:
    """``_parse_float_list`` for a flag: argparse's own message for a failed
    ``type`` would name the parser function instead of the expected value."""
    try:
        return _parse_float_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of floats, got {text!r}") from None


# A run config sets the fields of these dataclasses.  Where the CLI departs
# from them: three fields have other key names, three keys other defaults, two
# keys are checked by their records as they are parsed, and the moons tasks fix
# the input dimension.
_SETTINGS = (MoonsEnvironmentSpec, HypernetConfig, TrainProtocol, CertifyProtocol)
_KEY_OF_FIELD = {"c": "compression_size", "b": "message_size", "loss_kind": "certify_loss_kind"}
_CLI_DEFAULTS = {"architecture": "SCH_MINUS", "compression_size": 3, "support_size": 100}
_CLI_PARSERS = {
    "certify_loss_kind": lambda text: CertifyProtocol(loss_kind=text).loss_kind,
    "master_seed": lambda text: MoonsEnvironmentSpec(master_seed=int(text)).master_seed,
}
_FIXED_FIELDS = {"input_dim"}
_REQUIRED_KEYS = {"output_dir", "master_seed"}
_PARSER_OF_TYPE = {"int": int, "float": float, "str": str,
                   "float | None": float, "tuple[int, ...]": _parse_int_list,
                   "tuple[float, float]": _parse_float_pair}
# sweep axis value type -> parser of its `sweep_<axis>` filter
_AXIS_PARSER = {float: _parse_float_list, tuple: _parse_grid_lists, int: _parse_int_list}


def _setting_fields(cls) -> list:
    """(config key, field) for every field of ``cls`` that a config sets."""
    return [(_KEY_OF_FIELD.get(f.name, f.name), f) for f in fields(cls)
            if f.name not in _FIXED_FIELDS]


_SETTING_FIELDS = [kf for cls in _SETTINGS for kf in _setting_fields(cls)]

# key -> parser
CONFIG_SCHEMA = {
    "output_dir": str,
    # optional filters of the sweep's default grid, one per grid axis
    **{f"sweep_{axis}": _AXIS_PARSER[type(v[0])] for axis, v in DEFAULT_GRID.items()},
    **{key: _CLI_PARSERS.get(key, _PARSER_OF_TYPE[f.type]) for key, f in _SETTING_FIELDS},
}

# the value of every key a config may leave out, except the sweep filters
CONFIG_DEFAULTS = {key: _CLI_DEFAULTS.get(key, f.default) for key, f in _SETTING_FIELDS
                   if key not in _REQUIRED_KEYS}


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


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header: list[str], rows) -> None:
    """``header`` then ``rows`` as CSV to ``path``, or to stdout when it is None."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    """A sweep.csv cell: floats as ``_fmt``, tuples comma-joined, None empty."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "" if value is None else _fmt(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _build(MoonsEnvironmentSpec, cfg)
    meta = gen_meta_dataset(spec)
    save_tasks(out_dir / "tasks", meta, spec)
    print(f"generated {len(meta.train)} train / {len(meta.val)} val / "
          f"{len(meta.test)} test tasks under {out_dir / 'tasks'}")
    return 0


def cmd_train(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    meta, _ = load_tasks(out_dir / "tasks", ("train", "val"))
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
    print(f"trained {hcfg.architecture}: best val error {log.best_val_error:.4f} "
          f"at epoch {log.best_epoch} ({len(log.epochs)} epochs run)")
    return 0


CERT_HEADER = ["task_id", "architecture", "kind", "m_prime", "c_effective", "b",
               "delta", "emp_loss", "emp_loss_kind", "mc_stderr", "tau_star",
               "emp_complement_01", "emp_complement_linear", "test_query_error"]


def cmd_certify(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    protocol = _build(CertifyProtocol, cfg)
    meta, _ = load_tasks(out_dir / "tasks", ("test",))
    hcfg, params, _ = load_checkpoint(out_dir / "checkpoint.json")
    rng = Rng(cfg["master_seed"]).split(STREAM_CERTIFY)
    rows = []
    for row in certify_tasks(params, hcfg, meta.test, protocol, rng):
        for entry in row.certificates:
            rows.append([row.task_id, row.architecture, entry.kind, row.m_prime,
                         row.c_effective, row.b, _fmt(protocol.delta),
                         _fmt(entry.emp_loss), entry.emp_loss_kind,
                         "" if entry.mc_stderr is None else _fmt(entry.mc_stderr),
                         _fmt(entry.tau_star), _fmt(row.emp_complement_01),
                         _fmt(row.emp_complement_linear), _fmt(row.test_query_error)])
    _write_csv(out_dir / "certificates.csv", CERT_HEADER, rows)
    print(f"certified {len(meta.test)} tasks -> {out_dir / 'certificates.csv'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    out_dir = Path(cfg["output_dir"])
    meta, _ = load_tasks(out_dir / "tasks", ("train", "val"))
    protocol = _build(TrainProtocol, cfg)
    grid = {axis: cfg[f"sweep_{axis}"] for axis in DEFAULT_GRID if f"sweep_{axis}" in cfg}
    rng = Rng(cfg["master_seed"]).split(STREAM_SWEEP)
    hypernet = {f.name: cfg[key] for key, f in _setting_fields(HypernetConfig)}
    best, rows = sweep(meta.train, meta.val, hypernet, protocol, rng,
                       grid=grid or None, log_fn=lambda msg: print(msg, file=sys.stderr))
    columns = [f.name for f in fields(SweepRow)]
    _write_csv(out_dir / "sweep.csv", columns,
               ([_cell(getattr(r, name)) for name in columns] for r in rows))
    if best is None:
        print("sweep finished: no valid grid point")
    else:
        print(f"sweep finished: best c={best.c} b={best.b} lr={best.learning_rate} "
              f"val_error={best.val_error:.4f} -> {out_dir / 'sweep.csv'}")
    return 0


def _budget(args) -> bounds.BoundBudget:
    """The ``BoundBudget`` of the budget flags a kind declares."""
    return bounds.BoundBudget(**{f.name: getattr(args, f.name)
                                 for f in fields(bounds.BoundBudget) if hasattr(args, f.name)})


def _log_prior_j(args) -> float:
    """--log-prior-j, defaulting as ``BoundBudget`` does to -ln C(m, c).

    catoni's n_eff is --m, so it reads --c only for that default: beside an
    explicit --log-prior-j, --c is refused rather than ignored."""
    if args.kind == "catoni" and args.c and args.log_prior_j is not None:
        raise ConfigError("catoni: --c only sets the default of --log-prior-j; "
                          "pass --c or --log-prior-j, not both")
    return bounds.BoundBudget(args.m_prime, args.c, log_prior_j=args.log_prior_j).log_prior_j


# `bound` flag -> its add_argument keywords.  The budget flags are the fields of
# BoundBudget, whose type and default they take; --m's field has no default,
# so --m is required wherever a kind declares it.
_BUDGET_HELP = {"m_prime": "sample size (n_eff for catoni/linear; n for the primitives)",
                "c": "compression set size", "b": "message size in bits",
                "log_prior_j": "ln P_J(j); defaults to -ln C(m, c)"}
BOUND_FLAGS = {
    **{"m" if f.name == "m_prime" else f.name.replace("_", "-"): dict(
        dest=f.name, type=_PARSER_OF_TYPE[f.type], default=f.default,
        required=f.default is MISSING, help=_BUDGET_HELP.get(f.name))
       for f in fields(bounds.BoundBudget)},
    "errors": dict(type=int, default=0, help="0-1 error count"),
    "kl-msg": dict(type=float, default=0.0, help="KL divergence of the message posterior"),
    "catoni-c": dict(type=float, default=1.0), "log-delta-prime": dict(type=float, default=0.0),
    "lambda": dict(type=float, default=1.0, dest="lam"), "sigma-sq": dict(type=float, default=0.0),
    "q": dict(type=float, default=0.0, help="first Bernoulli argument"),
    "p": dict(type=float, default=0.5, help="second Bernoulli argument"),
    "budget": dict(type=float, default=0.0, help="kl budget in nats"),
    "mu": dict(type=_float_list_flag, default="0", help="comma-separated posterior mean vector"),
    "alpha": dict(type=float, default=2.0, help="Renyi order"),
    "csv": dict(help="also write the breakdown as CSV"),
}

_PBSCH_FLAGS = "m c delta emp-loss mu-norm-sq log-prior-j csv"

# kind -> (calculator of its parsed arguments, the flags it reads), in the order
# usage lists them; a flag marked "!" is required.  A kind's parser accepts
# exactly its flags.  A calculator returns a Certificate, a (comparator, tau*)
# pair or a number; the five certificate kinds, and only they, take --csv.
BOUND_KINDS = {
    "pb": (lambda a: bounds.bound_pb(_budget(a)), "m delta emp-loss mu-norm-sq csv"),
    "sch-binary": (lambda a: bounds.bound_sch_binary(_budget(a), a.errors),
                   "m c b delta log-prior-j errors! csv"),
    "sch-real": (lambda a: bounds.bound_sch_real(_budget(a)),
                 "m c b delta emp-loss log-prior-j csv"),
    "pbsch": (lambda a: bounds.bound_pbsch(_budget(a)), _PBSCH_FLAGS),
    "pbsch-disintegrated": (lambda a: bounds.bound_pbsch_disintegrated(_budget(a)), _PBSCH_FLAGS),
    "catoni": (lambda a: ("CATONI", bounds.bound_catoni(
        a.catoni_c, a.emp_loss, a.kl_msg, _log_prior_j(a), a.delta, a.m_prime)),
        "m c delta emp-loss kl-msg log-prior-j catoni-c"),
    "linear": (lambda a: ("LINEAR", bounds.bound_linear_subgaussian(
        a.lam, a.sigma_sq, a.emp_loss, a.kl_msg, _log_prior_j(a), a.delta, a.m_prime,
        a.m_prime - a.c)), "m c delta emp-loss kl-msg log-prior-j lambda sigma-sq"),
    "kl": (lambda a: bounds.bernoulli_kl(a.q, a.p), "q p"),
    "kl-inverse": (lambda a: bounds.kl_inverse(a.q, a.budget), "q budget"),
    "log-binomial": (lambda a: bounds.log_binomial(a.m_prime, a.c), "m c"),
    "binomial-tail": (lambda a: bounds.binomial_tail_inverse(
        a.m_prime, a.errors, a.log_delta_prime), "m errors log-delta-prime"),
    "gaussian-kl": (lambda a: bounds.gaussian_kl(a.mu), "mu"),
    "renyi": (lambda a: bounds.renyi_divergence_gaussian(a.mu, a.alpha), "mu alpha"),
}


def cmd_bound(args) -> int:
    result = BOUND_KINDS[args.kind][0](args)
    if isinstance(result, bounds.Certificate):
        print(f"kind      {result.kind}\ndelta     {result.delta:.12g}\n"
              f"tau_star  {result.tau_star:.12g}")
        print(f"{'term':<24}{'nats':>18}{'cumulative_tau':>18}")
        for label, nats, tau in result.breakdown:
            print(f"{label:<24}{nats:>18.12g}{tau:>18.12g}")
        if args.csv:
            _write_csv(args.csv, ["kind", "delta", "tau_star", "term", "nats", "cumulative_tau"],
                       ([result.kind, _fmt(result.delta), _fmt(result.tau_star),
                         label, _fmt(nats), _fmt(tau)] for label, nats, tau in result.breakdown))
    elif isinstance(result, tuple):
        print(f"kind      {result[0]}\ntau_star  {result[1]:.12g}")
    else:
        print(f"{result:.12g}")
    return 0


def cmd_compare_bounds(args) -> int:
    if args.grid < 1:
        raise ConfigError("--grid must be >= 1")
    grid = [0.0] if args.grid == 1 else list(np.linspace(0.0, 1.0, args.grid))
    rows = bounds.compare_trainset_bounds(args.m, args.comp_size, args.kl,
                                          args.delta, grid)
    _write_csv(args.csv, ["val_loss", "bound_squared", "bound_kl_pinsker", "gap"],
               ([_fmt(r.val_loss), _fmt(r.bound_squared), _fmt(r.bound_kl_pinsker),
                 _fmt(r.gap)] for r in rows))
    return 0


# command -> (handler of the parsed config, help text)
PIPELINE_COMMANDS = {
    "gen": (cmd_gen, "generate the moons task environment"),
    "train": (cmd_train, "meta-train a hypernetwork"),
    "certify": (cmd_certify, "certify every test task"),
    "sweep": (cmd_sweep, "grid search over hyperparameters"),
}


def _run_pipeline(args) -> int:
    """Run a pipeline command on its config, then echo that in run_<command>.json."""
    cfg = parse_config(args.config)
    code = PIPELINE_COMMANDS[args.command][0](cfg)
    doc = {"command": args.command, "config": dict(sorted(cfg.items()))}
    (Path(cfg["output_dir"]) / f"run_{args.command}.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    return code


# ---------------------------------------------------------------------------
# argument parsing

# A whole token that is a negative float, or a comma list of floats whose
# first is negative: ``-1e-9``, ``-1E+2``, ``-.5``, ``-inf``, ``-1e-3,2``.
_FLOAT = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?)"
_NEGATIVE_VALUE = re.compile(rf"-{_FLOAT}(?:,[-+]?{_FLOAT})*\Z", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Single-line, machine-parsable usage errors; an argument no parser
    declares is an error of the innermost parser, named by its prog.

    A token that is a negative float in any form (``-1e-9``, ``-1E+2``,
    ``-.5``, ``-inf``) or a comma list starting with one (``-1e-3,2``) is a
    value, not a flag: argparse's own pattern takes only the ``-1`` and
    ``-1.5`` forms for negative numbers, and read ``--log-delta-prime -1e-9``
    as a flag missing its argument.  No declared flag has that form."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern is private and has changed across Python
        # versions; test_cli's test_negative_value_token_is_the_flags_value,
        # over every value flag of every bound kind, guards this override.
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            raise ConfigError(f"{self.prog}: unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  It is built once per process, as its
    tree of sub-parsers (one per ``bound`` kind) costs milliseconds; parsing
    leaves it unchanged, so every ``main`` call reuses it."""
    parser = _Parser(prog="metacert",
                     description="meta-learned hypernetworks with risk certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in PIPELINE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value config file")
        p.set_defaults(run=_run_pipeline)

    p = sub.add_parser("bound", help="evaluate one certificate calculator")
    p.set_defaults(run=cmd_bound)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (_, flags) in BOUND_KINDS.items():
        k = kinds.add_parser(kind, allow_abbrev=False)  # else pb would read --c as --csv
        for flag in flags.split():
            name = flag.rstrip("!")
            k.add_argument(f"--{name}", **BOUND_FLAGS[name]).required |= name != flag

    p = sub.add_parser("compare-bounds", help="train-set vs complement-set bound gap table")
    p.set_defaults(run=cmd_compare_bounds)
    p.add_argument("--m", type=int, default=10000)
    p.add_argument("--comp-size", type=int, default=2000, dest="comp_size")
    p.add_argument("--kl", type=float, default=100.0)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--grid", type=int, default=101, help="number of val_loss grid points")
    p.add_argument("--csv", default=None, help="write the table here instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
