"""Smoke test of the benchmark itself.

    python3 benchmarks/smoke.py

On two seeds at short length, every workload in both modes must print
every metric BENCHMARK.json names, with its unit and nothing else, and
no check may fail.  A copy holding only BENCHMARK.json and the benchmark
directory must exit non-zero without printing a result.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from harness import BENCH, OUT, ROOT

SEEDS = (1, 2)
SECONDS = 2
TIMEOUT_S = 180


def run(root, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list[str]:
    done = run(ROOT, workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-400:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    if any(not isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
        problems.append(f"{label}: a metric value is not a number")
    if result["failed"] != 0 or not result["correct"] or "fail_share 0.0 share" not in lines:
        problems.append(f"{label}: fail_share is not 0 ({result['failed']} of {result['attempted']})")
    return problems


def check_bare_copy() -> list[str]:
    """Without src/ the benchmark must fail before printing a result."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, f"{bare}/benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "stream", SEEDS[0], 0)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare copy: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_copy()
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                problems += check_run(spec, workload, seed, trace)
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
