#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at toy size, both modes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For each workload and each of --trace 0 and --trace 1 it runs
`perfbench/run.py --toy` and asserts that the run exits 0, that the last
line of its output is the JSON result with exactly the keys `correct`,
`attempted`, `failed` and `metrics`, that the metric names and units are
the ones BENCHMARK.json lists for that mode, that every output check
passed, and that the workload's named figures were printed.  Last, it
copies BENCHMARK.json and perfbench/ alone into a scratch directory and
asserts that the benchmark exits nonzero there without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PRINTED = {
    "factorial_sample": ["full_factorial_cpu_h", "rpe_mean", "coverage_gap", "error_rate"],
    "fit_grid": ["fit_cells_per_s", "fit_cell_s_p50", "fit_cell_s_p90", "rpe_mean", "error_rate"],
    "cli_files": ["cli_pass_s", "error_rate"],
}
# traced figures printed besides the JSON metrics
PRINTED_TRACED = [
    "fitting.self_s", "posterior.self_s", "fileio.self_s", "bench.self_s",
    "untraced_op_s", "traced_op_s", "trace.overhead_pct",
]


def run(cwd: Path, workload: str, trace: int, toy: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: {set(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}\n{done.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    table = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), f"{label}: {name} is {m['value']!r}"
    for name in ("setup_s", "op_ref") if not trace else ():
        assert result["metrics"][name]["value"] > 0, f"{label}: {name} is not positive"
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    expected = PRINTED_TRACED + ["error_rate"] if trace else PRINTED[workload]
    missing = [name for name in expected if name not in printed]
    assert not missing, f"{label}: not printed: {missing}"
    assert "machine" in printed, f"{label}: machine line missing"
    print(f"ok  {label}: {result['attempted']} attempted, {len(result['metrics'])} metrics")


def check_bare_copy(spec: dict) -> None:
    """Without the package beside it the benchmark must refuse to run."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0, toy=False)
        assert done.returncode != 0, "bare copy: exit 0"
        assert '"correct"' not in done.stdout, "bare copy printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("ok  bare copy: refused to run")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_copy(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
