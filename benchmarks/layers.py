"""Per-layer metrics of a traced run, computed from the span statistics.

Rates divide a span's work count by its inclusive time, `self_s` is the
mean self time per call, `calls` is calls per workload request and
`<module>.self_share` is the module's self time over the traced request
time (for `cli` that includes `import lamcode.cli` in each child).  A
layer a workload never enters reports 0 for each of these.
"""

from __future__ import annotations

from workload_cli import KINDS

MODULES = ("cli", "manchester", "dictionary", "scrambler", "reconciler", "ternary", "echo")

# metric name -> (unit, span name)
RATES = {
    "manchester.bits_to_letters.bits_per_s": ("bit/s", "manchester.bits_to_letters"),
    "manchester.letters_to_bits.bits_per_s": ("bit/s", "manchester.letters_to_bits"),
    "manchester.metrics.letters_per_s": ("letter/s", "manchester.metrics"),
    "dictionary.encode_stream.words_per_s": ("word/s", "dictionary.encode_stream"),
    "dictionary.decode_stream.words_per_s": ("word/s", "dictionary.decode_stream"),
    "scrambler.lfsr_values.draws_per_s": ("draw/s", "scrambler.lfsr_values"),
    "scrambler.convert.draws_per_s": ("draw/s", "scrambler.convert"),
    "scrambler.scramble_point.points_per_s": ("point/s", "scrambler.scramble_point"),
    "reconciler.encode_stream.symbols_per_s.k1": ("symbol/s", "reconciler.encode_stream.k1"),
    "reconciler.encode_stream.symbols_per_s.k2e20": ("symbol/s", "reconciler.encode_stream.k2e20"),
    "reconciler.decode_stream.symbols_per_s.k1": ("symbol/s", "reconciler.decode_stream.k1"),
    "reconciler.decode_stream.symbols_per_s.k2e20": ("symbol/s", "reconciler.decode_stream.k2e20"),
    "ternary.encode_stream.words_per_s.reference": ("word/s", "ternary.encode_stream.reference"),
    "ternary.encode_stream.words_per_s.broadened": ("word/s", "ternary.encode_stream.broadened"),
    "ternary.decode_stream.words_per_s.reference": ("word/s", "ternary.decode_stream.reference"),
    "ternary.decode_stream.words_per_s.broadened": ("word/s", "ternary.decode_stream.broadened"),
    "ternary.scrambled_word.calls_per_s": ("call/s", "ternary.scrambled_word"),
    "echo.pack.samples_per_s": ("sample/s", "echo.pack"),
    "echo.unpack_sample.points_per_s": ("point/s", "echo.unpack_sample"),
}
SELF_TIMES = (
    "manchester.metrics",
    "dictionary.build_pages",
    "dictionary.enumerate_valid",
    "dictionary.census",
    "scrambler.solve_partitions",
    "ternary.portrait",
    "echo.image_features",
    "echo.image_filter_census",
    "echo.schedule_round",
)
CALL_COUNTS = ("manchester.metrics", "dictionary.build_pages", "echo.schedule_round")


def catalogue() -> list[dict]:
    """Every per-layer metric with its unit and direction, in print order."""
    out = [
        {"name": "cli.interpreter_s", "unit": "s", "better": "lower"},
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
        {"name": "cli.self_s", "unit": "s", "better": "lower"},
    ]
    out += [{"name": f"cli.{kind}.latency_s", "unit": "s", "better": "lower"} for kind in KINDS]
    out += [{"name": name, "unit": unit, "better": "higher"} for name, (unit, _) in RATES.items()]
    out += [{"name": f"{span}.self_s", "unit": "s", "better": "lower"} for span in SELF_TIMES]
    out += [{"name": f"{span}.calls", "unit": "call/request", "better": "lower"} for span in CALL_COUNTS]
    out.append({"name": "reconciler.outputs_per_input", "unit": "ratio", "better": "lower"})
    out += [{"name": f"{module}.self_share", "unit": "share", "better": "lower"} for module in MODULES]
    out.append({"name": "trace.overhead_share", "unit": "share", "better": "lower"})
    return out


def compute(stats: dict, requests: int, traced_s: float, untraced_s: float, cli: dict) -> dict[str, float]:
    """`cli` carries interpreter_s, import_s and per-kind median latencies."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0, "aux": 0.0}

    def get(span):
        return stats.get(span, empty)

    values = {
        "cli.interpreter_s": cli["interpreter_s"],
        "cli.import_s": cli["import_s"],
        "cli.self_s": get("cli.main")["self_s"] / get("cli.main")["calls"] if get("cli.main")["calls"] else 0.0,
    }
    for kind in KINDS:
        values[f"cli.{kind}.latency_s"] = cli["latency"].get(kind, 0.0)
    for name, (_, span) in RATES.items():
        entry = get(span)
        values[name] = entry["work"] / entry["incl_s"] if entry["incl_s"] > 0 else 0.0
    for span in SELF_TIMES:
        entry = get(span)
        values[f"{span}.self_s"] = entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
    for span in CALL_COUNTS:
        values[f"{span}.calls"] = get(span)["calls"] / requests if requests else 0.0
    k2e20 = get("reconciler.encode_stream.k2e20")
    values["reconciler.outputs_per_input"] = k2e20["aux"] / k2e20["work"] if k2e20["work"] else 0.0
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, entry in stats.items():
        module = span.split(".", 1)[0]
        if module in module_self:
            module_self[module] += entry["self_s"]
    for module in MODULES:
        values[f"{module}.self_share"] = module_self[module] / traced_s if traced_s > 0 else 0.0
    values["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return values
