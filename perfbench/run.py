"""metacert benchmark: train and certify throughput through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload certify_mc --seed 1 --seconds 20 --trace 0

Each workload writes a config file generated from ``--seed`` and runs
``metacert.cli.main`` in-process on it, exactly as a user's ``metacert
train`` or ``metacert certify`` would run.  Set-up (``gen``, plus a short
``train`` for the certify workloads) is repeated ``SETUP_REPEATS`` times and
reported as its median; then the workload's command is repeated until
``--seconds`` have passed and its throughput is the median over repeats.
The host is shared: its speed drifts by 10-40% over tens of seconds to
minutes, in wall time and CPU time alike, and a whole run can fall in a
slow or a fast phase.  So a fixed reference loop (``reference_seconds``)
runs before and after every set-up and command, and ``setup_s`` and
``tasks_per_s`` are given at the reference host speed: each wall time is
divided by the mean reference time around it over ``REF_NOMINAL_S``.  The
reference loop runs no metacert code, so a change to the program moves
these numbers exactly as it moves wall time at a fixed host speed.  The raw
wall-clock figures are printed too, as ``wall_setup_s`` and
``wall_tasks_per_s``.

Workloads (why each exists):

* ``train_pbsch``: ``train`` PBSCH c=2 b=4 on the default moons environment
  with patience = max_epochs, so the work per command is fixed.  Time goes
  to hypernet forwards, autodiff backward and the Adam step; no Monte-Carlo
  and no bound inversion run.
* ``certify_mc``: ``certify`` PBSCH c=2 b=4 with n_mc = 100 on the 100 test
  tasks.  Most time is the forward-only Monte-Carlo decodes; there is no
  backward and no Adam.
* ``certify_sch``: ``certify`` SCH_PLUS c=3 b=4 on the 100 test tasks.  No
  Monte-Carlo; two full hypernet forwards and the binomial-tail and kl
  bisections per task, and task-file parsing is a large share.  It is the
  only workload that runs the binary message head.

Correctness checks: every command exits 0; ``train_log.txt`` losses are
finite; ``certificates.csv`` has test tasks x kinds rows, each with a finite
tau_star in [emp_loss, 1]; the sha256 of ``checkpoint.json``,
``train_log.txt``, ``certificates.csv`` and the generated task files is the
same across every repeat, traced or not.  A breach counts as a failed
operation (a command run, a training task visit or a certificate row) and
makes the run exit 1.

With ``--trace 1`` the run reports per-layer metrics instead: the first
half of ``--seconds`` runs the command untraced and the second half traced
(see ``spans.py``), which gives the tracing overhead and proves that tracing
does not change any output.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report of every metric with its unit and the
environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"

# Every matrix is at most 200 x 100, so BLAS threads only add contention.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# The reference loop's usual time on a 2-core Xeon VM host; it only sets
# the scale of the host-normalized figures.
REF_NOMINAL_S = 0.04
SETUP_EPOCHS = 1  # the certify workloads' checkpoint: one epoch, fixed seed
TRAIN_EPOCHS = 2  # per measured train command
N_TRAIN_TASKS = 300  # 240 training + 60 validation tasks
N_TRAIN_VISITS = 240
N_TEST_TASKS = 100

ENVIRONMENT = {"n_train_tasks": N_TRAIN_TASKS, "n_test_tasks": N_TEST_TASKS,
               "examples_per_task": 200, "support_size": 100}

CERT_KINDS = {"PBSCH": ("PBSCH", "PBSCH_DISINTEGRATED"),
              "SCH_PLUS": ("SCH_BINARY", "SCH_REAL")}


@dataclass(frozen=True)
class Workload:
    command: str    # "train" or "certify"
    settings: dict  # config keys beyond ENVIRONMENT
    alias: str      # what tasks_per_s measures on this workload

    @property
    def architecture(self) -> str:
        return self.settings["architecture"]

    @property
    def units(self) -> int:
        """Operations one command attempts: task visits or certificate rows."""
        if self.command == "train":
            return N_TRAIN_VISITS * TRAIN_EPOCHS
        return N_TEST_TASKS * len(CERT_KINDS[self.architecture])

    @property
    def tasks(self) -> int:
        """Tasks one command completes: task visits or certified test tasks."""
        return N_TRAIN_VISITS * TRAIN_EPOCHS if self.command == "train" else N_TEST_TASKS


WORKLOADS = {
    "train_pbsch": Workload("train", {
        "architecture": "PBSCH", "compression_size": 2, "message_size": 4,
        "max_epochs": TRAIN_EPOCHS, "patience": TRAIN_EPOCHS},
        "train_task_steps_per_s"),
    "certify_mc": Workload("certify", {
        "architecture": "PBSCH", "compression_size": 2, "message_size": 4,
        "n_mc": 100, "max_epochs": SETUP_EPOCHS, "patience": SETUP_EPOCHS},
        "certify_tasks_per_s"),
    "certify_sch": Workload("certify", {
        "architecture": "SCH_PLUS", "compression_size": 3, "message_size": 4,
        "max_epochs": SETUP_EPOCHS, "patience": SETUP_EPOCHS},
        "certify_tasks_per_s"),
}

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics in the JSON result.  Only times that every workload
# produces are listed, so none reads 0 by construction; the report lines
# give every traced function, including those a workload never calls.
PER_LAYER = {
    # per set-up, median over traced set-ups
    "tasks.gen_meta_dataset_s": "s",
    "tasks.save_tasks_s": "s",
    # self time per command, median over traced commands
    "tasks.load_tasks_s": "s",
    "hypernet.hypernet_forward_s": "s",
    "hypernet.sample_compress_s": "s",
    "hypernet.reconstruct_s": "s",
    "hypernet.downstream_forward_s": "s",
    "rng.Rng_s": "s",
    "cli.self_s": "s",
    # per call, over every traced phase (the certify workloads train in set-up)
    "autodiff.backward_ms_per_call": "ms",
    "optim.Adam.step_ms_per_call": "ms",
    # exact counts
    "hypernet.canonical_order.calls_per_forward": "count",
    "autodiff.nodes_per_task_step": "count",
    "autodiff.nodes_per_certified_task": "count",
    "autodiff.nodes_per_command": "count",
    "optim.adam_step.calls_per_step": "count",
    "hypernet.hypernet_forward.calls": "count",
    "hypernet.pb_encode.calls": "count",
    "hypernet.msg_compress.calls": "count",
    "hypernet.decode_gamma.calls": "count",
    "metalearn.certify_task.calls": "count",
    "metalearn.mc_expected_loss.calls": "count",
    "bounds.kl_inverse.calls": "count",
    "bounds.binomial_tail_inverse.calls": "count",
    "rng.Rng.calls": "count",
    "autodiff.backward.calls": "count",
    "optim.Adam.step.calls": "count",
}
SETUP_SELF_TIME_SPANS = ("tasks.gen_meta_dataset", "tasks.save_tasks")
SELF_TIME_SPANS = ("tasks.load_tasks", "hypernet.hypernet_forward",
                   "hypernet.sample_compress", "hypernet.reconstruct",
                   "hypernet.downstream_forward", "rng.Rng", "cli.main")
CALL_COUNT_SPANS = ("hypernet.hypernet_forward", "hypernet.pb_encode",
                    "hypernet.msg_compress", "hypernet.decode_gamma",
                    "metalearn.certify_task", "metalearn.mc_expected_loss",
                    "bounds.kl_inverse", "bounds.binomial_tail_inverse",
                    "rng.Rng", "autodiff.backward", "optim.Adam.step")


class BenchmarkError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, scipy, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "processes": 1,
    }


# ---------------------------------------------------------------------------
# host speed


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def reference_seconds(np) -> float:
    """Wall seconds of a fixed loop of Python bookkeeping and small numpy
    operations, the mix metacert's commands spend their time on."""
    acc = 0.0
    start = time.perf_counter()
    for i in range(20000):
        pair = _Pair(float(i), 1.5)
        record = {"step": i, "values": [pair.a, pair.b]}
        acc += pair.a * 0.5 + pair.b * (i % 7) + len(record["values"])
    for i in range(1500):
        x = np.linspace(0.0, 1.0, 100).reshape(50, 2)
        w = np.full((2, 20), 0.1 * (i % 5))
        acc += float(np.maximum(x @ w, 0.0).sum())
    wall = time.perf_counter() - start
    if not math.isfinite(acc):
        raise BenchmarkError("reference loop produced a non-finite sum")
    return wall


class HostClock:
    """Brackets each timed operation with runs of the reference loop."""

    def __init__(self, np):
        self._np = np
        self._last = reference_seconds(np)
        self.factors: list[float] = []

    def bracket(self) -> None:
        """Record the host slowness over the operation that just ended: the
        mean reference time before and after it, over REF_NOMINAL_S."""
        before, self._last = self._last, reference_seconds(self._np)
        self.factors.append((before + self._last) / (2 * REF_NOMINAL_S))


# ---------------------------------------------------------------------------
# running commands and checking their outputs


def write_config(path: Path, out_dir: Path, seed: int, workload: Workload) -> None:
    lines = [f"output_dir = {out_dir}", f"master_seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in {**ENVIRONMENT, **workload.settings}.items()]
    path.write_text("\n".join(lines) + "\n")


def run_cli(cli, argv: list[str]) -> tuple[float, bool]:
    """Run one metacert command in-process; returns (wall seconds, exited 0)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # a raising command is a failed operation, not a crash
        wall = time.perf_counter() - start
        print(f"command {' '.join(argv)} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return wall, False
    wall = time.perf_counter() - start
    if code != 0:
        print(f"command {' '.join(argv)} exited {code}: {sink.getvalue()}", file=sys.stderr)
    return wall, code == 0


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bad_epochs(log_path: Path, epochs: int) -> int:
    """Epochs whose logged training loss is missing or not finite."""
    losses = []
    for line in log_path.read_text().splitlines():
        if line.startswith("epoch="):
            fields = dict(part.split("=", 1) for part in line.split())
            losses.append(float(fields["train_loss"]))
    good = sum(1 for loss in losses[:epochs] if math.isfinite(loss))
    return epochs - good


def read_certificates(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def bad_rows(rows: list[dict], workload: Workload) -> int:
    """Certificate rows missing, of the wrong kind, or with tau* outside [emp_loss, 1]."""
    kinds = CERT_KINDS[workload.architecture]
    bad = max(0, workload.units - len(rows))
    for row in rows:
        tau, emp = float(row["tau_star"]), float(row["emp_loss"])
        if (row["kind"] not in kinds or not math.isfinite(tau)
                or not math.isfinite(emp) or not emp <= tau <= 1.0):
            bad += 1
    return bad


class Ledger:
    """Attempted and failed operations, plus the output digests seen so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.digests: dict[str, str] = {}

    def same_digest(self, key: str, digest: str) -> bool:
        self.checks += 1
        return self.digests.setdefault(key, digest) == digest

    def record(self, units: int, ok: bool, bad_units: int) -> None:
        self.attempted += 1 + units
        if not ok:
            self.failed += 1 + units
        elif bad_units:
            self.failed += 1 + bad_units


def check_train(out_dir: Path, epochs: int, ledger: Ledger, tag: str) -> tuple[bool, int]:
    """(outputs match every earlier repeat, training task visits that failed)."""
    ledger.checks += 1
    bad = N_TRAIN_VISITS * bad_epochs(out_dir / "train_log.txt", epochs)
    same = (ledger.same_digest(f"{tag}checkpoint", file_digest(out_dir / "checkpoint.json"))
            and ledger.same_digest(f"{tag}train log", file_digest(out_dir / "train_log.txt")))
    return same, bad


def run_setup(cli, workload: Workload, cfg: Path, out_dir: Path,
              ledger: Ledger) -> float:
    """gen, plus a short train for the certify workloads; returns wall seconds."""
    wall, ok = run_cli(cli, ["gen", "--config", str(cfg)])
    ok = ok and ledger.same_digest("tasks", tree_digest(out_dir / "tasks"))
    ledger.record(0, ok, 0)
    if workload.command == "certify":
        train_wall, ok = run_cli(cli, ["train", "--config", str(cfg)])
        wall += train_wall
        bad = 0
        if ok:
            ok, bad = check_train(out_dir, SETUP_EPOCHS, ledger, "setup ")
        ledger.record(N_TRAIN_VISITS * SETUP_EPOCHS, ok, bad)
    return wall


def run_command(cli, workload: Workload, cfg: Path, out_dir: Path,
                ledger: Ledger) -> float | None:
    """The measured command once; returns its wall seconds, or None if it failed."""
    wall, ok = run_cli(cli, [workload.command, "--config", str(cfg)])
    bad = 0
    if ok and workload.command == "train":
        ok, bad = check_train(out_dir, TRAIN_EPOCHS, ledger, "")
    elif ok:
        path = out_dir / "certificates.csv"
        bad = bad_rows(read_certificates(path), workload)
        ledger.checks += 1
        ok = ledger.same_digest("certificates", file_digest(path))
    ledger.record(workload.units, ok, bad)
    return wall if ok and not bad else None


def output_quality(out_dir: Path, workload: Workload) -> dict:
    """Certificate quality of the last certify command (reported, not gated)."""
    rows = read_certificates(out_dir / "certificates.csv")
    quality = {}
    for kind in CERT_KINDS[workload.architecture]:
        taus = [float(r["tau_star"]) for r in rows if r["kind"] == kind]
        quality[f"bounds.mean_tau_star.{kind}"] = (statistics.fmean(taus), "ratio")
    tasks = {r["task_id"]: r for r in rows}.values()
    quality["metalearn.mean_test_query_error"] = (
        statistics.fmean(float(r["test_query_error"]) for r in tasks), "ratio")
    c = workload.settings["compression_size"]
    quality["hypernet.collided_tasks"] = (
        sum(1 for r in tasks if int(r["c_effective"]) < c), "count")
    return quality


# ---------------------------------------------------------------------------
# per-layer metrics from tracer snapshots


def _sum(snaps: list[dict], field: str, key) -> float:
    return sum(s[field].get(key, 0) for s in snaps)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(setup_snaps: list[dict], command_snaps: list[dict]) -> dict:
    med = statistics.median
    every = setup_snaps + command_snaps
    m = {f"{span}_s": med(s["self_s"].get(span, 0.0) for s in setup_snaps)
         for span in SETUP_SELF_TIME_SPANS}
    for span in SELF_TIME_SPANS:
        name = "cli.self_s" if span == "cli.main" else f"{span}_s"
        m[name] = med(s["self_s"].get(span, 0.0) for s in command_snaps)
    m["autodiff.backward_ms_per_call"] = 1e3 * _ratio(
        _sum(every, "total_s", "autodiff.backward"), _sum(every, "calls", "autodiff.backward"))
    m["optim.Adam.step_ms_per_call"] = 1e3 * _ratio(
        _sum(every, "total_s", "optim.Adam.step"), _sum(every, "calls", "optim.Adam.step"))
    m["hypernet.canonical_order.calls_per_forward"] = _ratio(
        _sum(every, "nested", ("hypernet.canonical_order", "hypernet.hypernet_forward")),
        _sum(every, "calls", "hypernet.hypernet_forward"))
    step_nodes = (_sum(every, "nodes_in", "metalearn.meta_train")
                  - _sum(every, "nodes_in", "metalearn.validation_error")
                  - _sum(every, "nodes_in", "hypernet.init_hypernet_params"))
    m["autodiff.nodes_per_task_step"] = _ratio(step_nodes, _sum(every, "calls", "optim.Adam.step"))
    m["autodiff.nodes_per_certified_task"] = _ratio(
        _sum(command_snaps, "nodes_in", "metalearn.certify_task"),
        _sum(command_snaps, "calls", "metalearn.certify_task"))
    m["autodiff.nodes_per_command"] = med(s["nodes"] for s in command_snaps)
    m["optim.adam_step.calls_per_step"] = _ratio(
        _sum(every, "calls", "optim.adam_step"), _sum(every, "calls", "optim.Adam.step"))
    for span in CALL_COUNT_SPANS:
        m[f"{span}.calls"] = med(s["calls"].get(span, 0) for s in command_snaps)
    return m


def span_table(snaps: list[dict], walls: list[float]) -> list[str]:
    """Readable per-span and per-layer lines: calls, self seconds, share of wall.

    Every traced function is listed, with zeros where the workload never
    calls it.
    """
    names = sorted(span for _, _, span in spans.SPANS)
    wall = statistics.median(walls)
    lines = [f"  {'span':<36}{'calls':>10}{'self_s':>12}{'total_s':>12}{'self_share':>12}"]
    layers: dict[str, float] = {}
    for name in names:
        calls = statistics.median(s["calls"].get(name, 0) for s in snaps)
        self_s = statistics.median(s["self_s"].get(name, 0.0) for s in snaps)
        total = statistics.median(s["total_s"].get(name, 0.0) for s in snaps)
        lines.append(f"  {name:<36}{calls:>10g}{self_s:>12.6f}{total:>12.6f}"
                     f"{self_s / wall:>12.4f}")
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + self_s
    covered = sum(v for k, v in layers.items() if k != "cli")
    lines.append(f"  per-layer self time (s, share of {wall:.6f} s wall):")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<12}{secs:>12.6f}{secs / wall:>10.4f}")
    lines.append(f"  coverage: layer self time {covered:.6f} s of {wall:.6f} s wall "
                 f"= {covered / wall:.4f} (the rest is cli self time and untraced "
                 f"overhead)")
    return lines


def report_end_to_end(workload: Workload, setup_walls: list[float],
                      setup_clock: HostClock, walls: list[float], clock: HostClock,
                      peak_rss_mb: float) -> dict:
    """Medians of the wall figures and of the same figures at the reference
    host speed; ``walls[i]`` ran when the host was ``clock.factors[i]`` slow."""
    med = statistics.median
    setup_s = med(wall / f for wall, f in zip(setup_walls, setup_clock.factors))
    rate = med(workload.tasks / wall * f for wall, f in zip(walls, clock.factors))
    print(f"wall_setup_s = {med(setup_walls)!r} s (median of {len(setup_walls)} set-ups)")
    print(f"wall_tasks_per_s = {workload.tasks / med(walls)!r} 1/s ({workload.tasks} "
          f"tasks per command, median of {len(walls)} commands)")
    print(f"host slowness = {med(clock.factors)!r} (median over commands; min "
          f"{min(clock.factors)!r}, max {max(clock.factors)!r}; reference loop time "
          f"over {REF_NOMINAL_S} s)")
    print(f"setup_s = {setup_s!r} s (median of {len(setup_walls)}, at reference host speed)")
    print(f"tasks_per_s = {rate!r} 1/s (median of {len(walls)} commands, at reference "
          f"host speed)")
    print(f"{workload.alias} = {rate!r} 1/s (tasks_per_s of this workload)")
    print(f"peak_rss_mb = {peak_rss_mb!r} MB")
    return {"setup_s": setup_s, "tasks_per_s": rate, "peak_rss_mb": peak_rss_mb}


def report_trace(setup_snaps: list[dict], setup_walls: list[float],
                 command_snaps: list[dict], walls: list[float],
                 traced_walls: list[float]) -> dict:
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    print(f"tracing overhead = {traced - untraced!r} s per command "
          f"({(traced - untraced) / untraced:.4f} of {untraced!r} s untraced)")
    print("set-up spans (median per traced set-up):")
    print("\n".join(span_table(setup_snaps, setup_walls)))
    print("command spans (median per traced command):")
    print("\n".join(span_table(command_snaps, traced_walls)))
    per_command = [[d * 1e3 for d in s["durations"].get("metalearn.certify_task", [])]
                   for s in command_snaps]
    if any(per_command):
        p50 = statistics.median(_percentile(c, 50) for c in per_command)
        p90 = statistics.median(_percentile(c, 90) for c in per_command)
        print(f"metalearn.certify_task_p50_ms = {p50!r} ms, "
              f"metalearn.certify_task_p90_ms = {p90!r} ms "
              f"({N_TEST_TASKS} tasks per command, median over {len(per_command)} commands)")
    metrics = per_layer_metrics(setup_snaps, command_snaps)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {PER_LAYER[name]}")
    return metrics


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_package():
    """Import metacert from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "metacert" / "__init__.py").is_file():
        raise BenchmarkError(f"no metacert package under {src}")
    sys.path.insert(0, str(src))
    import metacert.cli as cli
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise BenchmarkError(f"imported metacert from {cli.__file__}, not {src}")
    return cli


def measure(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    cli = load_package()
    import numpy as np
    import scipy

    workload = WORKLOADS[args.workload]
    env = environment(np, scipy, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger()
    work = Path(WORK_DIR) / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer()
    setup_walls, setup_snaps = [], []
    setup_clock = HostClock(np)
    walls, traced_walls, command_snaps = [], [], []
    try:
        for k in range(SETUP_REPEATS):
            out_dir = work / f"setup{k}"
            cfg = work / f"setup{k}.conf"
            out_dir.mkdir(parents=True)
            write_config(cfg, out_dir, args.seed, workload)
            if args.trace and k > 0:
                with spans.instrumented(tracer):
                    setup_walls.append(run_setup(cli, workload, cfg, out_dir, ledger))
                    setup_snaps.append(tracer.snapshot())
            else:
                setup_walls.append(run_setup(cli, workload, cfg, out_dir, ledger))
            setup_clock.bracket()

        out_dir, cfg = work / "setup0", work / "setup0.conf"
        start = time.perf_counter()
        untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
        clock = HostClock(np)
        while True:
            walls.append(run_command(cli, workload, cfg, out_dir, ledger))
            clock.bracket()
            if time.perf_counter() >= untraced_until:
                break
        if args.trace:
            deadline = start + args.seconds
            with spans.instrumented(tracer):
                while True:
                    traced_walls.append(run_command(cli, workload, cfg, out_dir, ledger))
                    command_snaps.append(tracer.snapshot())
                    if time.perf_counter() >= deadline:
                        break
        quality = {}
        if workload.command == "certify" and any(w is not None for w in walls):
            quality = output_quality(out_dir, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_walls = [w for w in walls if w is not None]
    ok_traced = [w for w in traced_walls if w is not None]
    correct = ledger.failed == 0 and bool(ok_walls) and (not args.trace or bool(ok_traced))

    print(f"workload {args.workload}: {workload.command} {workload.architecture} "
          f"c={workload.settings['compression_size']} b={workload.settings['message_size']}, "
          f"{N_TRAIN_VISITS} train/{N_TRAIN_TASKS - N_TRAIN_VISITS} val/"
          f"{N_TEST_TASKS} test tasks of {ENVIRONMENT['examples_per_task']} examples, "
          f"seed {args.seed}, {len(walls)} untraced and {len(traced_walls)} traced commands, "
          f"{SETUP_REPEATS} set-ups")
    print(f"failed_op_ratio = {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6g} (base: command runs + training task "
          f"visits + certificate rows; {ledger.checks} correctness checks ran)")
    for key, digest in sorted(ledger.digests.items()):
        print(f"sha256 {key} {digest}")
    for name, (value, unit) in sorted(quality.items()):
        print(f"quality {name} = {value!r} {unit}")

    metrics: dict[str, float] = {}
    if correct and args.trace:
        metrics = report_trace(setup_snaps, setup_walls[1:], command_snaps, ok_walls, ok_traced)
    elif correct:
        metrics = report_end_to_end(workload, setup_walls, setup_clock, ok_walls, clock,
                                    peak_rss_mb)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        return measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
