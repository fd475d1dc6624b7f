"""Child processes the benchmark starts.

    probe.py setup <workload> <seed>
        Import lamcode and do the workload's set-up and warm-up, print
        "ready" and exit; the parent times process start to that line.
    probe.py import
        Print the seconds `import lamcode.cli` takes in a fresh interpreter.
    probe.py cli-child <trace.json> <argv...>
        Run `lamcode.cli.main(argv)` with every entry point traced and
        write the spans to <trace.json>.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.prepare(argv[1], int(argv[2]))
        print("ready", flush=True)
        return 0
    if mode == "import":
        started = time.perf_counter()
        import lamcode.cli  # noqa: F401

        print(time.perf_counter() - started)
        return 0
    if mode == "cli-child":
        import tracer as tracing

        spans = tracing.Tracer()
        spans.active = True
        with spans.span("cli.import"):
            import lamcode
            import lamcode.cli
        spans.install(tracing.targets(lamcode))
        try:
            with spans.span("cli.main"):
                code = lamcode.cli.main(argv[2:])
        finally:
            sys.stdout.flush()
            spans.dump(argv[1])
        return code
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
