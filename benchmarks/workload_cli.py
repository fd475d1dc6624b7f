"""`cli`: one fresh interpreter per request, as desk users run the tool.

Each request is `python -m lamcode.cli <argv>` in a new process.  The mix
is the 13 report ids plus the leaf commands at their default sizes; the
seed orders each deck and picks the `--seed` of the randomized commands.
Interpreter start plus `import lamcode.cli` dominate, so codec layers do
almost no work here and a codec optimisation should not move this
workload.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import tracer as tracing
from harness import BENCH, Request, run_child

TAIL_PERCENTILE = 75.0

REPORT_IDS = (
    "tbt-table13-census",
    "tbt-table9-pages",
    "t1-table6-symmetric",
    "t1-table6-dm",
    "t1-table6-budget",
    "t1s-table14-jump",
    "t1l-table6-dictionary",
    "t1l-table8-dictionary",
    "t1l-table10-delimiters",
    "t1l-table7-portrait",
    "t1l-table9-portrait",
    "t1-table7-sweep",
    "t1-table8-features",
)

# (kind, argv, takes --seed)
LEAF_COMMANDS = (
    ("lam.enum", ["lam", "enum"], False),
    ("lam.pages", ["lam", "pages"], False),
    ("lam.codec", ["lam", "codec"], True),
    ("scramble.solve", ["scramble", "solve", "--r", "15"], False),
    ("scramble.map", ["scramble", "map", "--bins", "18"], False),
    ("scramble.budget", ["scramble", "budget"], False),
    ("reconcile.run", ["reconcile", "run"], True),
    ("t1l.codec.reference", ["t1l", "codec", "--variant", "reference"], True),
    ("t1l.codec.broadened", ["t1l", "codec", "--variant", "broadened"], True),
    ("t1l.portrait", ["t1l", "portrait"], False),
    ("echo.plan", ["echo", "plan", "--data", "256", "--capable", "259"], False),
    ("echo.census", ["echo", "census", "--head", "8", "--tail", "8", "--dc", "8", "--transits", "2"], False),
)

KINDS = tuple(f"report.{table}" for table in REPORT_IDS) + tuple(kind for kind, _, _ in LEAF_COMMANDS)


def sizes() -> dict:
    return {
        "kinds": len(KINDS),
        "reports": list(REPORT_IDS),
        "leaf_commands": {kind: argv for kind, argv, _ in LEAF_COMMANDS},
        "seeded_commands": [kind for kind, _, seeded in LEAF_COMMANDS if seeded],
    }


def setup(rng, trace_dir) -> SimpleNamespace:
    commands = [(f"report.{table}", ["report", table]) for table in REPORT_IDS]
    for kind, argv, seeded in LEAF_COMMANDS:
        commands.append((kind, argv + (["--seed", str(rng.randrange(1 << 31))] if seeded else [])))
    return SimpleNamespace(commands=commands, outputs={}, stats={}, children=[], trace_dir=trace_dir)


def _check(st: SimpleNamespace, argv: list[str], done) -> list[str]:
    problems = []
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit {done.returncode}: {tail}"]
    for line in done.stdout.decode().splitlines():
        fields = line.split()
        if fields[:1] == ["round_trip"] and fields[1:2] != ["PASS"]:
            problems.append(f"round_trip row reads {line!r}")
    first = st.outputs.setdefault(tuple(argv), done.stdout)
    if first != done.stdout:
        problems.append("output differs from an earlier run of the same argv")
    return problems


def deck(st: SimpleNamespace, rng, tracer) -> list[Request]:
    order = list(st.commands)
    rng.shuffle(order)
    requests = []
    for kind, argv in order:

        def run(argv=argv):
            return run_child([sys.executable, "-m", "lamcode.cli", *argv])

        def run_traced(index, argv=argv):
            path = st.trace_dir / f"cli-child-{index}.json"
            done = run_child([sys.executable, str(BENCH / "probe.py"), "cli-child", str(path), *argv])
            if path.exists():
                tracing.merge_stats(st.stats, tracing.load_stats(path))
                st.children.append(path)
            return done

        requests.append(
            Request(
                kind,
                run,
                lambda done, argv=argv: _check(st, argv, done),
                run_traced=run_traced,
            )
        )
    return requests


def collect_trace(st: SimpleNamespace, path) -> None:
    """Fold the per-invocation span files into one output file."""
    with open(path, "w", encoding="utf-8") as sink:
        sink.write('{"invocations":[')
        for i, child in enumerate(st.children):
            if i:
                sink.write(",")
            sink.write(child.read_text(encoding="utf-8"))
            os.remove(child)
        sink.write("]}")
