"""CLI subcommands: formats, determinism, exit codes, spot values."""

import contextlib
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lamcode import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_csv_valid_row(capsys):
    code, out, _ = run_cli(capsys, "report", "tbt-table13-census", "--format", "csv")
    assert code == 0
    assert "valid,3,7,18,47,123,322,843,2207,5778,15127" in out.splitlines()


def test_solve_prints_both_partitions(capsys):
    code, out, _ = run_cli(capsys, "scramble", "solve", "--r", "15")
    assert code == 0
    lines = out.splitlines()
    dm_row = next(line for line in lines if "dm1" in line)
    for token in ("129", "130", "122", "131", "+3.543%", "-3.571%"):
        assert token in dm_row
    assert any("dx1" in line for line in lines)


def test_reconcile_self_test_passes(capsys):
    code, out, _ = run_cli(capsys, "reconcile", "run", "--count", "800")
    assert code == 0
    assert "PASS" in out
    efficiency = next(line for line in out.splitlines() if line.startswith("efficiency"))
    assert float(efficiency.split()[1]) >= 0.99


def test_repeated_runs_byte_identical(capsys):
    first = run_cli(capsys, "t1l", "codec", "--words", "500", "--variant", "broadened")
    second = run_cli(capsys, "t1l", "codec", "--words", "500", "--variant", "broadened")
    assert first == second
    assert first[0] == 0 and "PASS" in first[1]
    one = run_cli(capsys, "reconcile", "run", "--count", "300")
    two = run_cli(capsys, "reconcile", "run", "--count", "300")
    assert one == two


def test_formats_agree(capsys):
    code, text, _ = run_cli(capsys, "report", "tbt-table9-pages")
    assert code == 0 and text.startswith("letters")
    code, raw_csv, _ = run_cli(capsys, "report", "tbt-table9-pages", "--format", "csv")
    assert code == 0
    assert raw_csv.splitlines()[0] == "letters,data_bits,selection,page_a,page_b,multiplex_ok"
    code, raw_json, _ = run_cli(capsys, "report", "tbt-table9-pages", "--format", "json")
    assert code == 0
    records = json.loads(raw_json)
    assert [r["page_a"] for r in records] == [27, 162, 376]
    assert all(r["page_a"] == r["page_b"] for r in records)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "pages.csv"
    code, out, _ = run_cli(
        capsys, "report", "tbt-table9-pages", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("letters,")


@pytest.mark.parametrize("where, reason", [("missing/x.txt", "No such file"), (".", "Is a directory")])
def test_unwritable_out_exits_2(tmp_path, capsys, where, reason):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "report", "t1-table6-budget", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: {reason}")


def test_unknown_table_exits_2(capsys):
    code, out, err = run_cli(capsys, "report", "no-such-table")
    assert code == 2 and out == ""
    assert "unknown table id" in err


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "scramble", "map", "--bins", "33")
    assert code == 2
    assert "error:" in err


def test_internal_error_exits_1(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("synthetic fault")

    monkeypatch.setitem(cli.REPORTS, "t1-table8-features", boom)
    code, _, err = run_cli(capsys, "report", "t1-table8-features")
    assert code == 1
    assert "internal error" in err


def test_malformed_argv_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["lam"])
    capsys.readouterr()
    assert info.value.code == 2


def test_every_report_id_renders(capsys):
    for table_id in sorted(cli.REPORTS):
        code, out, err = run_cli(capsys, "report", table_id)
        assert code == 0, f"{table_id}: {err}"
        assert out.count("\n") >= 2, table_id


def test_echo_census_cell(capsys):
    code, out, _ = run_cli(
        capsys, "echo", "census", "--head", "8", "--tail", "8", "--dc", "8", "--transits", "2"
    )
    assert code == 0
    row = out.splitlines()[1]
    assert "530432" in row and "True" in row


def test_pages_letters_flag(capsys):
    code, out, _ = run_cli(capsys, "lam", "pages", "--letters", "16", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "16,8,balanced,376,376,True"


def test_portrait_report_cells(capsys):
    code, raw, _ = run_cli(capsys, "report", "t1l-table7-portrait", "--format", "json")
    assert code == 0
    cells = {record["quantity"]: record for record in json.loads(raw)}
    assert cells["p_transit"]["average"] == "0.76"
    assert cells["p_letter_z"]["average"] == "0.36"
    assert cells["p_sum_0"]["phase_2"] == "0.02"
    assert cells["p_sum_0"]["phase_3"] == ""
    assert cells["run_z"]["average"] == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lamcode.cli", "report", "tbt-table9-pages"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("letters")


def _readme_cli_lines() -> list[str]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("lamcode ")]


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: {err}"


@pytest.mark.parametrize(
    "argv",
    [
        ("lam", "codec", "--count", "-3"),
        ("reconcile", "run", "--count", "-3"),
        ("t1l", "codec", "--words", "-5"),
        ("reconcile", "run", "--n-in", "0"),
        ("lam", "pages", "--letters", "0"),
        ("lam", "pages", "--letters", "3"),
        ("echo", "census", "--head", "-1"),
    ],
)
def test_negative_counts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    expected = {
        "--count": "must be nonnegative",
        "--words": "must be nonnegative",
        "--n-in": "input radix must be at least 2",
        "--letters": "letter count must be a positive even number",
        "--head": "thresholds must be nonnegative",
    }
    assert expected[argv[-2]] in err


@pytest.mark.parametrize(
    "line, expected",
    [
        ("report t1-table7-sweep --seed 1", 2),
        ("lam enum --seed 1", 2),
        ("scramble budget --seed 1", 2),
        ("echo census --sweep", 2),
        ("echo census --dc-unit 2", 2),
        ("lam codec --count 50 --seed 3", 0),
        ("reconcile run --count 50 --seed 3", 0),
        ("t1l codec --words 50 --seed 3", 0),
    ],
)
def test_only_commands_that_draw_take_seed(capsys, line, expected):
    try:
        code = cli.main(line.split())
    except SystemExit as exit_:
        code = exit_.code
    out = capsys.readouterr().out
    assert code == expected, line
    assert (out == "") == bool(expected), line


def test_cli_import_leaves_numpy_out():
    probe = "import sys, lamcode.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Prints the stem of each lamcode module whose code ran in a fresh `import lamcode.cli`,
# followed by `cli.main(argv)` when argv is given.
MODULES_RUN_PROBE = """
import contextlib, io, sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
from lamcode import cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(*sorted(Path(name).stem for name in ran if Path(name).parent.name == "lamcode"))
sys.exit(code)
"""
CLI_MODULES = {"__init__", "cli", "errors"}
# the modules each layer's code runs, itself and what it imports
LAYER_MODULES = {
    "dictionary": {"dictionary", "manchester", "paging", "record"},
    "echo": {"echo", "record", "scrambler"},
    "reconciler": {"reconciler", "record"},
    "scrambler": {"record", "scrambler"},
    "ternary": {"paging", "record", "scrambler", "ternary"},
}
# the layer each command of benchmarks/workload_cli.py calls; after " - ", a module that the layer reaches through
# the package and the command never reads from, so it never runs. `lam codec` also calls manchester and the
# features report scrambler, which those layers import
COMMAND_LAYER = {
    "report.tbt-table13-census": "dictionary - paging",
    "report.tbt-table9-pages": "dictionary - paging",
    "report.t1-table6-symmetric": "scrambler",
    "report.t1-table6-dm": "scrambler",
    "report.t1-table6-budget": "scrambler",
    "report.t1s-table14-jump": "dictionary - paging",
    "report.t1l-table6-dictionary": "ternary",
    "report.t1l-table8-dictionary": "ternary",
    "report.t1l-table10-delimiters": "ternary",
    "report.t1l-table7-portrait": "ternary",
    "report.t1l-table9-portrait": "ternary",
    "report.t1-table7-sweep": "echo - scrambler",
    "report.t1-table8-features": "echo",
    "lam.enum": "dictionary - paging",
    "lam.pages": "dictionary - paging",
    "lam.codec": "dictionary",
    "scramble.solve": "scrambler",
    "scramble.map": "scrambler",
    "scramble.budget": "scrambler",
    "reconcile.run": "reconciler",
    "t1l.codec.reference": "ternary",
    "t1l.codec.broadened": "ternary",
    "t1l.portrait": "ternary",
    "echo.plan": "echo - scrambler",
    "echo.census": "echo - scrambler",
}


def _modules_run(argv: list[str]) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_RUN_PROBE, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_runs_no_layer():
    assert _modules_run([]) == CLI_MODULES


@pytest.fixture(scope="module")
def cli_workload_commands() -> dict[str, list[str]]:
    """kind -> argv of each command that benchmarks/workload_cli.py runs."""
    with _benchmarks_importable():
        workload = _bench_module("workload_cli")
        return dict(workload.setup(random.Random(20259), None).commands)


def test_layer_table_covers_the_cli_workload(cli_workload_commands):
    assert sorted(COMMAND_LAYER) == sorted(cli_workload_commands)


@pytest.mark.parametrize("kind", COMMAND_LAYER)
def test_each_command_runs_only_its_layers(kind, cli_workload_commands):
    layer, _, unread = COMMAND_LAYER[kind].partition(" - ")
    expected = CLI_MODULES | LAYER_MODULES[layer] - {unread}
    assert _modules_run(cli_workload_commands[kind]) == expected


HUGE = str(10**4000)  # argparse's int() takes up to 4300 digits
NEXT_TO_HUGE = str(10**4000 + 1)
EXTREMES = [
    (("scramble", "solve", "--r", "4096"), 0),
    (("scramble", "solve", "--r", "4096", "--n", str(2**4096)), 0),
    (("scramble", "solve", "--r", "4097"), 2),
    (("scramble", "solve", "--r", "1000000"), 2),
    (("lam", "codec", "--letters", "24", "--count", "2000"), 0),
    (("lam", "codec", "--letters", "26"), 2),
    (("lam", "codec", "--letters", "200000", "--count", "2000"), 2),
    (("lam", "pages", "--letters", "24"), 0),
    (("lam", "pages", "--letters", "26"), 2),
    (("echo", "plan", "--data", "3000", "--capable", "3001", "--modulus", "3000"), 0),
    (("echo", "plan", "--data", "2", "--capable", "3", "--modulus", HUGE), 0),
    (("echo", "plan", "--data", "100000", "--capable", "100001", "--modulus", "100000"), 2),
    (("echo", "plan", "--data", str(10**330), "--capable", str(10**330 + 1)), 2),
    (("echo", "plan", "--data", HUGE, "--capable", NEXT_TO_HUGE, "--modulus", HUGE), 2),
    (("echo", "census", "--head", HUGE, "--tail", HUGE, "--dc", HUGE, "--transits", HUGE), 0),
    (("reconcile", "run", "--count", "200", "--threshold", HUGE), 0),
]


def test_accepted_extremes_exit_0_or_2_in_bounded_time(capsys):
    started = time.perf_counter()
    for argv, expected in EXTREMES:
        code, _, err = run_cli(capsys, *argv)
        assert code == expected, f"{' '.join(argv)[:80]}: {err[:200]}"
    assert time.perf_counter() - started < 10.0


def _int_flag_edges():
    """argv of every int flag of every leaf command at -1 and at 0, read off the command table: the
    other flags keep their defaults, and the other required ones are given 8."""
    for group, (_, commands) in cli._COMMANDS.items():
        for command, (_, _, flags) in commands.items():
            for name, default in flags:
                if not isinstance(default() if callable(default) else default, tuple):
                    others = [arg for other, d in flags if d is ... and other != name for arg in (f"--{other}", "8")]
                    yield from ([group, command, f"--{name}", value, *others] for value in ("-1", "0"))


def test_every_int_flag_edge_exits_0_or_2_in_bounded_time(capsys):
    cases = list(_int_flag_edges())
    assert len(cases) >= 42  # 21 int flags when this test was written
    started = time.perf_counter()
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 2), f"{' '.join(argv)}: {err[:200]}"
    assert time.perf_counter() - started < 10.0


CHILD_RSS_BOUND_KIB = 64 * 1024
# Runs each argv of argv[1] (JSON) as `python -m lamcode.cli`, one child at a time, and prints the exit code,
# the stderr head and the peak resident set (KiB on Linux) that os.wait4 reports for that child.  A child's
# peak counts the memory of the process that spawned it, so this small launcher spawns them, not the test run.
RSS_PROBE = """
import json, os, subprocess, sys
found = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, "-m", "lamcode.cli", *argv], stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stderr.close()
    found.append((" ".join(argv), child.returncode, err[:200], usage.ru_maxrss))
print(json.dumps(found))
"""


def test_every_int_flag_edge_child_stays_under_the_memory_bound():
    cases = list(_int_flag_edges())
    assert len(cases) >= 42
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, json.dumps(cases)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert len(found) == len(cases)
    assert [(argv, err) for argv, code, err, _ in found if code not in (0, 2)] == []
    assert [(argv, peak) for argv, _, _, peak in found if peak >= CHILD_RSS_BOUND_KIB] == []
    assert time.perf_counter() - started < 15.0


BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"lamcode_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _benchmarks_importable():
    """benchmarks/ on sys.path for the block; the modules loaded from it leave sys.modules after."""
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH))
        for added in set(sys.modules) - before:
            if str(BENCH) in (getattr(sys.modules[added], "__file__", None) or ""):
                del sys.modules[added]


def test_tracer_targets_resolve():
    # benchmarks/tracer.py patches each (module, attr) by name, including the re-exported
    # dictionary.metrics and ternary.bubble_map bindings; `import lamcode` alone must do
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lamcode, tracer; targets = tracer.targets(lamcode); "
        "print(len(targets), *(f'{m.__name__}.{a}' for m, a, _, _ in targets if not callable(getattr(m, a, None))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(BENCH)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, *uncallable = proc.stdout.split()
    assert int(count) > 0 and uncallable == []


@pytest.mark.parametrize("name", ["workload_stream", "workload_exact"])
def test_benchmark_workload_checks_pass(name):
    # The benchmark reads data shapes (page entries, rep counts, partition
    # fields) and checks outputs against its oracles; a request whose check
    # lists problems counts as failed there, so one seeded deck runs here.
    import lamcode

    with _benchmarks_importable():
        workload = _bench_module(name)
        tracer = _bench_module("tracer").Tracer()
        state = workload.setup(lamcode)
        for request in workload.deck(state, random.Random(20259), tracer):
            assert request.check(request.run()) == [], request.kind
