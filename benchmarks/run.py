"""lamcode benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload {cli,stream,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 nothing is wrapped and the run reports the end-to-end
metrics.  With --trace 1 every request runs once untraced and once with
lamcode's public entry points wrapped in spans; the run reports the
per-layer metrics and the tracing overhead and writes the spans to
.bench_out/.  Every metric is printed as `name value unit`; the last line
is one JSON object holding the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from collections import defaultdict
from statistics import median

from harness import (
    BENCH,
    OUT,
    SETUP_PROBES,
    SRC,
    measure,
    measure_traced,
    percentile,
    run_child,
    run_record,
    time_child,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_tail_s": "s",
    "sustained_requests_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Each kind's latency percentile that sets the sustained rate.  On a
# shared 2-vCPU virtual machine the CPU switches between a fast and a
# ~1.7x slower state for tens of seconds at a time; medians swing with the
# share of time spent in each, while upper percentiles stay put.
SUSTAINED_PERCENTILE = 90.0


def parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=("cli", "stream", "exact"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(workload: str, seed: int) -> list[str]:
    """A fresh process doing the run's set-up: interpreter, import, warm-up."""
    if workload == "cli":
        return [sys.executable, "-c", "import lamcode.cli"]
    return [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(seed)]


def cli_floor() -> dict:
    """Bare interpreter start and the in-process time of `import lamcode.cli`."""
    imports = []
    for _ in range(SETUP_PROBES):
        done = run_child([sys.executable, str(BENCH / "probe.py"), "import"])
        if done.returncode != 0:
            raise RuntimeError(f"import probe exited {done.returncode}: {done.stderr[-500:]!r}")
        imports.append(float(done.stdout))
    interpreter = [time_child([sys.executable, "-c", "pass"]) for _ in range(SETUP_PROBES)]
    return {"interpreter_s": median(interpreter), "import_s": median(imports)}


def sustained_throughput(outcome) -> tuple[float, float]:
    """Requests and payload bits per second over one deck in which every
    kind takes its SUSTAINED_PERCENTILE latency."""
    latency, bits = defaultdict(list), defaultdict(list)
    for kind, elapsed, carried in zip(outcome.kinds, outcome.latencies, outcome.request_bits):
        latency[kind].append(elapsed)
        bits[kind].append(carried)
    deck_s = sum(percentile(v, SUSTAINED_PERCENTILE) for v in latency.values())
    return len(latency) / deck_s, sum(median(v) for v in bits.values()) / deck_s


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "lamcode" / "__init__.py").is_file():
        print(f"error: no lamcode package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import tracer as tracing
    import workload_cli
    import workloads

    rng = random.Random(args.seed)
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    spans = tracing.Tracer()

    setups = []
    if args.workload == "cli":
        module = workload_cli
        workloads.import_lamcode()  # fail once here rather than in every child
        state = workload_cli.setup(rng, OUT)
    else:
        module = workloads.IN_PROCESS[args.workload]
        state = workloads.prepare(args.workload, args.seed)
        if trace:
            spans.install(tracing.targets(sys.modules["lamcode"]))
            spans.deactivate()

    def deck():
        return module.deck(state, rng, spans)

    if trace:
        outcome = measure_traced(deck, args.seconds, spans)
    else:
        probe = setup_probe(args.workload, args.seed)
        ready = args.workload != "cli"
        outcome = measure(
            deck, args.seconds, lambda: setups.append(time_child(probe, ready)), SETUP_PROBES
        )
    latencies = outcome.latencies
    if not latencies:
        print("error: no request completed", file=sys.stderr)
        return 1

    if trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        if args.workload == "cli":
            workload_cli.collect_trace(state, trace_path)
            stats = state.stats
        else:
            spans.dump(trace_path)
            stats = spans.stats()
        by_kind = defaultdict(list)
        for kind, latency in zip(outcome.kinds, latencies):
            by_kind[kind].append(latency)
        cli = cli_floor()
        cli["latency"] = {kind: median(v) for kind, v in by_kind.items()} if args.workload == "cli" else {}
        values = layers.compute(stats, len(latencies), outcome.traced_s, outcome.untraced_s, cli)
        units = {entry["name"]: entry["unit"] for entry in layers.catalogue()}
    else:
        requests_per_s, payload_bits_per_s = sustained_throughput(outcome)
        values = {
            "setup_s": median(setups),
            "latency_tail_s": percentile(latencies, module.TAIL_PERCENTILE),
            "sustained_requests_per_s": requests_per_s,
            "peak_rss_mib": peak_rss_mib(children=args.workload == "cli"),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    # Printed, not in the result line: the median swings with the machine
    # state (see SUSTAINED_PERCENTILE) and fail_share is `failed / attempted`.
    extra = {
        "latency_p50_s": (median(latencies), "s"),
        "latency_tail_percentile": (module.TAIL_PERCENTILE, "pct"),
        "latency_tail_samples_beyond": (len(latencies) * (100 - module.TAIL_PERCENTILE) / 100, "count"),
        "latency_samples": (len(latencies), "count"),
        "fail_share": (outcome.failed / outcome.attempted, "share"),
    }
    if args.workload == "stream" and not trace:
        extra["payload_bits_per_s"] = (payload_bits_per_s, "bit/s")

    record = run_record(args.workload, args.seed, args.seconds, trace, module.sizes())
    print(json.dumps({"run_record": record}))
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
