"""Command-line front end emitting reproducible table reports.

Every subcommand renders one table as text, CSV, or JSON.  Randomized
subcommands take a seed and default to a fixed one, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import math
import random
import sys

from . import dictionary, echo, manchester, reconciler, scrambler, ternary  # each runs on its first attribute read
from .errors import WorkbenchError

DEFAULT_SEED = 20259
EVEN_LETTERS = tuple(range(2, 21, 2))
PAGE_LETTERS = (8, 12, 16)
JUMP_LETTERS = 8
SYMMETRIC_ROWS = (9, 27, 28, 29, 35, 36, 37, 38, 44, 45)
DM_ROWS = (14, 15, 19, 20, 23, 26)
BUDGET_DEMANDS = (72, 36, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20)


class UsageError(WorkbenchError, ValueError):
    """Malformed request, reported with exit code 2."""


def _census_report(args) -> tuple[list[str], list[list]]:
    header = ["count"] + [f"m{m}" for m in EVEN_LETTERS]
    totals = [{mask: sum(row.values()) for mask, row in dictionary.census(m).items()} for m in EVEN_LETTERS]
    rows = [[f"mask_{mask.lower()}"] + [total[mask] for total in totals] for mask in dictionary.MASKS]
    return header, [["valid"] + [sum(total.values()) for total in totals]] + rows


def _check_letters(letters: int) -> None:
    if letters % 2 or letters < 2:
        raise UsageError("letter count must be a positive even number")
    dictionary.check_length(letters)


def _pages_report(letters: tuple[int, ...]) -> tuple[list[str], list[list]]:
    header = ["letters", "data_bits", "selection", "page_a", "page_b", "multiplex_ok"]
    rows = []
    for m in letters:
        bits = m // 2
        chooser = dictionary.filter_for_data_bits(bits)
        page_a, page_b = dictionary.page_sizes(m, chooser)
        kind = "balanced" if chooser.balanced_only else f"bias<={chooser.max_abs_bias}"
        rows.append([m, bits, kind, page_a, page_b, dictionary.multiplex_feasible(bits)])
    return header, rows


def _lam_pages_command(args) -> tuple[list[str], list[list]]:
    if args.letters is None:
        return _pages_report(PAGE_LETTERS)
    _check_letters(args.letters)
    return _pages_report((args.letters,))


def _partition_table(label: str, labelled, extra: tuple[str, ...] = ()) -> tuple[list[str], list[list]]:
    """One row per (solution, label cell, *extra cells): its counts, the cell under `label`, its unbalances, the extras."""
    header = ["r", "m_even", "m_odd", "x_even", "x_odd", label, "unb_pos", "unb_neg", *extra]
    rows = []
    for sol, cell, *cells in labelled:
        unbalance = [scrambler.format_unbalance(side) for side in scrambler.unbalance(sol)]
        rows.append([sol.r, sol.m_even, sol.m_odd, sol.x_even, sol.x_odd, cell, *unbalance, *cells])
    return header, rows


def _symmetric_report(args) -> tuple[list[str], list[list]]:
    rows = []
    for r in SYMMETRIC_ROWS:
        sol = scrambler.symmetric_solutions(r, scrambler.ROOT_BASE)[0]
        anchor = "x_even" if sol.symmetric_e else "x_odd"
        rows.append((sol, anchor, f"{scrambler.observation_time(r):.3g}"))
    return _partition_table("anchor", rows, ("obs_s",))


def _dm_report(args) -> tuple[list[str], list[list]]:
    solutions = [scrambler.solve_dm1(r, scrambler.ROOT_BASE)[0] for r in DM_ROWS]
    return _partition_table("delta_x", [(sol, sol.delta_x) for sol in solutions])


def _budget_report(args) -> tuple[list[str], list[list]]:
    header = ["t", "r", "repetition_s", "observation_s", "root_feasible"]
    rows = []
    for t in BUDGET_DEMANDS:
        _, r, repetition, observation, feasible = scrambler.budget(t)
        rows.append([t, r, f"{repetition:.4g}", f"{observation:.3g}", feasible])
    return header, rows


def _jump_report(args) -> tuple[list[str], list[list]]:
    pages = dictionary.build_pages(JUMP_LETTERS)
    header = ["position", *(mask.lower() for mask in dictionary.MASKS), "all"]
    rows = []
    for i in range(JUMP_LETTERS):
        cells = [i]
        for mask in (*dictionary.MASKS, None):
            p = dictionary.position_jump_probability(pages, i, mask=mask)
            cells.append(f"{float(p):.4f}")
        rows.append(cells)
    return header, rows


def _records_report(rows) -> tuple[list[str], list[list]]:
    header = list(rows[0].keys())
    return header, [[row[key] for key in header] for row in rows]


def _delimiter_report(args) -> tuple[list[str], list[list]]:
    header = ["s4", "sigma", "period", "kind", "word"]
    return header, [[*cell, word] for cell, word in ternary.delimiter_cells().items()]


def _portrait_report(variant: str) -> tuple[list[str], list[list]]:
    stats = ternary.portrait(ternary.dictionary_for(variant))
    header = ["quantity", "phase_1", "phase_2", "phase_3", "average"]

    def row(name: str, phases, average, key) -> list:
        return [f"{name}_{key}"] + [f"{float(p[key]):.2f}" if key in p else "" for p in (*phases, average)]

    rows = [row("p_sum", stats.p_sigma_phase, stats.p_sigma, level) for level in range(6)]
    rows += [row("p_letter", stats.p_letter_phase, stats.p_letter, letter) for letter in ternary.SYMBOLS]
    average = sum(stats.p_transit) / 3
    rows.append(["p_transit"] + [f"{float(p):.2f}" for p in (*stats.p_transit, average)])
    for sigma, share in zip(ternary.SIGMA_LEVELS, stats.boundary):
        rows.append([f"pi_{sigma}", "", "", "", f"{float(share):.2f}"])
    for letter, bound in sorted(stats.run_bounds.items()):
        rows.append([f"run_{letter}", "", "", "", bound])
    return header, rows


def _features_report(args) -> tuple[list[str], list[list]]:
    pools = echo.pool_arithmetic()
    resolution, uncertainty = echo.event_resolution()
    mii_resolution, mii_uncertainty = echo.event_resolution(mii=True)
    words_per_event = 5 * echo.GROUP_WORDS
    cells = echo.image_features()
    mean_transits = sum(key[3] * count for key, count in cells.items()) / echo.IMAGE_SPACE
    rows = [
        ["tx_delay_words", echo.GROUP_WORDS],
        ["tx_delay_ns", int(echo.GROUP_WORDS * scrambler.WORD_NS)],
        ["rx_delay_words", 2 * echo.GROUP_WORDS],
        ["rx_delay_ns", int(2 * echo.GROUP_WORDS * scrambler.WORD_NS)],
        ["event_resolution_ns", f"{resolution:g}"],
        ["event_uncertainty_ns", f"{uncertainty:g}"],
        ["mii_resolution_ns", f"{mii_resolution:g}"],
        ["mii_uncertainty_ns", f"{mii_uncertainty:g}"],
        ["mii_positions", echo.MII_POSITIONS],
        ["event_rate_words", words_per_event],
        ["event_rate_mev_s", f"{1e3 / (words_per_event * scrambler.WORD_NS):.2f}"],
        ["mean_transits_per_image", f"{mean_transits:.2f}"],
        ["native_pool", pools["native"]],
        ["forced_pool", pools["forced"]],
        ["pool_total", pools["total"]],
        ["image_space", pools["image_space"]],
    ]
    return ["parameter", "value"], rows


REPORTS = {
    "tbt-table13-census": _census_report,
    "tbt-table9-pages": lambda args: _pages_report(PAGE_LETTERS),
    "t1-table6-symmetric": _symmetric_report,
    "t1-table6-dm": _dm_report,
    "t1-table6-budget": _budget_report,
    "t1s-table14-jump": _jump_report,
    "t1l-table6-dictionary": lambda args: _records_report(ternary.reference_rows()),
    "t1l-table8-dictionary": lambda args: _records_report(ternary.broadened_rows()),
    "t1l-table10-delimiters": _delimiter_report,
    "t1l-table7-portrait": lambda args: _portrait_report(ternary.REFERENCE),
    "t1l-table9-portrait": lambda args: _portrait_report(ternary.BROADENED),
    "t1-table7-sweep": lambda args: _records_report(echo.selection_sweep()),
    "t1-table8-features": _features_report,
}


def _report_command(args) -> tuple[list[str], list[list]]:
    builder = REPORTS.get(args.table)
    if builder is None:
        known = ", ".join(sorted(REPORTS))
        raise UsageError(f"unknown table id {args.table!r}; known ids: {known}")
    return builder(args)


def _seeded(seed: int, count: int, noun: str) -> random.Random:
    """The draws of a seeded round trip of `count` items, after a negative count is refused."""
    if count < 0:
        raise UsageError(f"{noun} count must be nonnegative")
    return random.Random(seed)


def _round_trip(passed: bool, detail: str, rows: list[list]) -> tuple[list[str], list[list]]:
    """The check table of a seeded round trip: its verdict row, then the command's own rows."""
    return ["check", "result", "detail"], [["round_trip", "PASS" if passed else "FAIL", detail], *rows]


def _lam_codec_command(args) -> tuple[list[str], list[list]]:
    _check_letters(args.letters)
    rng = _seeded(args.seed, args.count, "word")
    space = 1 << (args.letters // 2)
    data = [rng.randrange(space) for _ in range(args.count)]
    letters = dictionary.encode_stream(data, args.letters)
    passed = dictionary.decode_stream(letters, args.letters) == data
    stream = ["stream_letters", len(letters), f"bias {manchester.metrics(letters).dc_bias:+d}"]
    return _round_trip(passed, f"{args.count} words of {args.letters} letters", [stream])


def _reconcile_command(args) -> tuple[list[str], list[list]]:
    if args.n_in < 2:
        raise UsageError("input radix must be at least 2")
    if args.n_out <= args.n_in:
        raise UsageError("output radix must exceed input radix")
    rng = _seeded(args.seed, args.count, "symbol")
    data = [rng.randrange(args.n_in) for _ in range(args.count)]
    oracle = reconciler.constant_oracle(args.n_in, args.n_out)
    config = reconciler.ReconcilerConfig(capacity_threshold=args.threshold)
    encoded = reconciler.encode_stream(data, oracle, config)
    passed = reconciler.decode_stream(encoded, oracle, config) == data
    efficiency = (
        len(data) * math.log2(args.n_in) / (len(encoded.symbols) * math.log2(args.n_out))
        if encoded.symbols
        else 0.0
    )
    return _round_trip(passed, f"{args.count} symbols base {args.n_in} -> base {args.n_out}", [
        ["outputs", len(encoded.symbols), f"threshold {args.threshold}"],
        ["efficiency", f"{efficiency:.4f}", "input bits over output bits"],
    ])


def _t1l_codec_command(args) -> tuple[list[str], list[list]]:
    rng = _seeded(args.seed, args.words, "word")
    codes = []
    sigma = floor = ceiling = ternary.START_SIGMA
    successors = ternary.paged_codec(args.variant).successors
    for _ in range(args.words):
        code = rng.randrange(len(successors[sigma]))
        codes.append(code)
        sigma = successors[sigma][code]
        floor, ceiling = min(floor, sigma), max(ceiling, sigma)
    letters = ternary.encode_stream(codes, args.variant)
    passed = ternary.decode_stream(letters, args.variant) == codes
    band = ["sum_band", f"{floor}..{ceiling}", "running disparity stays on a page"]
    return _round_trip(passed, f"{args.words} words, variant {args.variant}", [band])


def _echo_plan_command(args) -> tuple[list[str], list[list]]:
    plan = echo.plan_round(args.data, args.capable, args.modulus)
    header = ["data_radix", "echo_radix", "echo_modulus", "word_count"]
    return header, [[plan.data_radix, plan.echo_radix, plan.echo_modulus, plan.word_count]]


def _echo_census_command(args) -> tuple[list[str], list[list]]:
    row = echo.selection_row(
        max_head_droop=args.head, max_tail_droop=args.tail, dc_bound=args.dc, min_transits=args.transits
    )
    return _records_report([row])


def _render(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        import csv
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return sink.getvalue()
    if fmt == "json":
        import json
        records = [dict(zip(header, row)) for row in rows]
        return json.dumps(records, indent=2) + "\n"
    table = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines) + "\n"


def _solve_command(args) -> tuple[list[str], list[list]]:
    solutions = scrambler.solve_partitions(args.r, args.n)
    return _partition_table("kind", [(sol, "dx1" if sol.delta_x <= 1 else "dm1") for sol in solutions])


def _map_command(args) -> tuple[list[str], list[list]]:
    layout = scrambler.bubble_map(args.bins)
    header = ["bin", "size"]
    rows = [[i, size] for i, size in enumerate(layout.sizes)]
    return header, rows


def _t1l_portrait_command(args) -> tuple[list[str], list[list]]:
    return _portrait_report(args.variant)


def _image_symbols() -> int:
    return echo.IMAGE_SYMBOLS


_SEED = ("seed", DEFAULT_SEED)
_VARIANT = ("variant", lambda: (ternary.VARIANTS, ternary.REFERENCE))
# group -> (help, {command: (help, handler, flags)}).  A flag is (name, default): an int default, None for
# none, ... for a required flag, or a function that reads a layer constant when its group is built and
# returns an int default or (choices, default).
_COMMANDS = {
    "lam": ("two-level letter dictionaries", {
        "enum": ("valid-image census table", _census_report, ()),
        "pages": ("page sizes per letter count", _lam_pages_command, (("letters", None),)),
        "codec": ("randomized codec round trip", _lam_codec_command, (("letters", 8), ("count", 2000), _SEED)),
    }),
    "scramble": ("partition solver and budgets", {
        "solve": ("partition rows for one width", _solve_command, (("r", ...), ("n", lambda: scrambler.ROOT_BASE))),
        "map": ("bubble bin layout", _map_command, (("bins", ...),)),
        "budget": ("repetition and observation budget", _budget_report, ()),
    }),
    "reconcile": ("mixed-radix reconciler", {
        "run": ("randomized round-trip suite", _reconcile_command, (
            ("count", 2000), ("n-in", 256), ("n-out", 259), ("threshold", 1 << 20), _SEED,
        )),
    }),
    "t1l": ("paged ternary transport", {
        "codec": ("randomized codec round trip", _t1l_codec_command, (("words", 10000), _VARIANT, _SEED)),
        "portrait": ("stationary statistics table", _t1l_portrait_command, (_VARIANT,)),
    }),
    "echo": ("echo pools and image census", {
        "plan": ("round-length plan", _echo_plan_command, (("data", 16), ("capable", 20), ("modulus", 2))),
        "census": ("image filter census", _echo_census_command, (
            ("head", _image_symbols), ("tail", _image_symbols), ("dc", _image_symbols), ("transits", 0),
        )),
    }),
}


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every group, with leaf commands only under the groups `argv` names (their flags read layer constants)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    parser = argparse.ArgumentParser(prog="lamcode", description="constrained line-code workbench reports")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        leaves = sub.add_parser(group, help=group_help).add_subparsers(dest="command", required=True)
        for command, (command_help, handler, flags) in commands.items() if group in argv else ():
            leaf = leaves.add_parser(command, parents=[common], help=command_help)
            for name, default in flags:
                default = default() if callable(default) else default
                if isinstance(default, tuple):
                    leaf.add_argument(f"--{name}", choices=default[0], default=default[1])
                else:
                    leaf.add_argument(f"--{name}", type=int, required=default is ..., default=default)
            leaf.set_defaults(handler=handler)
    report = sub.add_parser("report", parents=[common], help="render a table by id")
    report.add_argument("table")
    report.set_defaults(handler=_report_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv).parse_args(argv)
    try:
        header, rows = args.handler(args)
        text = _render(header, rows, args.format)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the contract maps these to exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
