"""Closed-loop request runner, statistics and the run record.

One client sends the next request only after the previous one returned.
Requests come in decks: each deck holds every request kind of the
workload once, in seeded order, so every run sees the same mix and the
seed changes only the order and the generated inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "benchmarks"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60
SETUP_PROBES = 7


@dataclass
class Request:
    """One unit of work: `run` is timed, `check` lists what came out wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    bits: float = 0.0
    run_traced: Callable[[int], object] | None = None  # replaces `run` in traced runs


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    request_bits: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def record(self, request: Request, elapsed: float, problems: list[str], timed: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{request.kind}: {problems[0]}")
        if timed:
            self.latencies.append(elapsed)
            self.kinds.append(request.kind)
            self.request_bits.append(request.bits)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion; a timeout kills it and waits for it."""
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
    )


def attempt(request: Request, runner: Callable[[], object]) -> tuple[float, list[str], object]:
    """Time one call; a raised exception or a failed check is a failure."""
    started = time.perf_counter()
    try:
        output = runner()
    except Exception as exc:  # noqa: BLE001 - a failing request must not stop the run
        elapsed = time.perf_counter() - started
        return elapsed, [f"raised {type(exc).__name__}: {exc}"], None
    elapsed = time.perf_counter() - started
    try:
        problems = request.check(output)
    except Exception as exc:  # noqa: BLE001
        problems = [f"check raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    return elapsed, problems, output


def measure(
    deck: Callable[[], list[Request]], seconds: float, interlude: Callable[[], None], times: int
) -> Outcome:
    """Untraced closed loop for `seconds` of wall time.

    `interlude` runs `times` times at evenly spaced points of the loop, so
    its samples see the same machine conditions as the requests; the time
    it takes is added to the deadline rather than taken from the requests.
    """
    outcome = Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    marks = [start + seconds * (i + 1) / (times + 1) for i in range(times)]
    while time.perf_counter() < deadline:
        for request in deck():
            now = time.perf_counter()
            if now >= deadline:
                break
            if marks and now >= marks[0]:
                interlude()
                shift = time.perf_counter() - now
                deadline += shift
                marks = [mark + shift for mark in marks[1:]]
            elapsed, problems, _ = attempt(request, request.run)
            outcome.record(request, elapsed, problems, timed=True)
    for _ in marks:
        interlude()
    return outcome


def measure_traced(deck: Callable[[], list[Request]], seconds: float, tracer) -> Outcome:
    """Run each request untraced and traced, alternating which goes first.

    The untraced latencies are the timed samples; the pair sums give the
    tracing overhead.
    """
    outcome = Outcome()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        for request in deck():
            if time.perf_counter() >= deadline:
                break
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if not traced:
                    elapsed, problems, _ = attempt(request, request.run)
                    outcome.untraced_s += elapsed
                    outcome.record(request, elapsed, problems, timed=True)
                    continue
                if request.run_traced is not None:
                    elapsed, problems, _ = attempt(request, lambda: request.run_traced(index))
                else:
                    tracer.activate()
                    try:
                        with tracer.begin_request(index, request.kind):
                            elapsed, problems, _ = attempt(request, request.run)
                    finally:
                        tracer.deactivate()
                outcome.traced_s += elapsed
                outcome.record(request, elapsed, problems, timed=False)
            index += 1
    return outcome


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def time_child(argv: list[str], ready_line: bool = False) -> float:
    """Wall time of one fresh child, to its exit or to its first line."""
    started = time.perf_counter()
    if not ready_line:
        done = run_child(argv)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr[-500:]!r}")
        return elapsed
    with subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-500:]!r}")
    return elapsed


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lamcode").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: bool, sizes: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "sizes": sizes,
    }
