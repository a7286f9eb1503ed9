"""Smoke test of the benchmark itself.

Runs every workload once at minimal length, untraced and traced, and checks
that each metric named in BENCHMARK.json is printed with its unit, that the
correctness checks ran and passed, and that the readable report names every
traced function and the workload's own throughput name.  Finally it checks
that the benchmark fails without printing a result when the package source
is missing.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

TIMEOUT_S = 180


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = "\n".join(lines[:-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    checks = re.search(r"(\d+) correctness checks ran", report)
    assert checks and int(checks.group(1)) > 0, f"{where}: no correctness checks"
    assert "failed_op_ratio = 0/" in report, where
    assert "sha256 " in report, where
    assert report.startswith("env {"), where
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, f"{where}: {sorted(metrics)}"
    for m in expected:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {m['name']}"
        assert re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b",
                         report, re.M), f"{where}: {m['name']} not in report"
    if trace:
        for _, _, span in spans.SPANS:
            assert re.search(rf"^  {re.escape(span)} ", report, re.M), f"{where}: {span}"
        assert "tracing overhead = " in report and "coverage: " in report, where
        if run.WORKLOADS[workload].command == "certify":
            assert "metalearn.certify_task_p90_ms = " in report, where
    else:
        assert f"{run.WORKLOADS[workload].alias} = " in report, where
    if run.WORKLOADS[workload].command == "certify":
        for name in ("bounds.mean_tau_star.", "metalearn.mean_test_query_error",
                     "hypernet.collided_tasks"):
            assert f"quality {name}" in report, f"{where}: {name}"


def check_bare_directory() -> None:
    """Without the package source the benchmark must fail and print no result."""
    bare = ROOT / run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, "--workload", "certify_sch", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0, "bare directory: exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok {workload} --trace {trace}", flush=True)
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
