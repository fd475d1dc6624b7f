"""Constrained line-code workbench.

Block coding over the jump-and-keep Manchester abstraction, quasi-uniform
base conversion with composite scrambling, streaming mixed-radix capacity
reconciliation, paged PAM-3 ternary transport, and echo-multiplexing
arithmetic. Results are exact (integers, fractions) wherever the
underlying combinatorics are exact; floats appear only in time budgets
and rate measurements.
"""

__version__ = "0.1.0"

__all__ = [
    "manchester",
    "dictionary",
    "paging",
    "scrambler",
    "reconciler",
    "ternary",
    "echo",
    "cli",
]


def __getattr__(name: str):
    """`lamcode.<name>` on first access (PEP 562). `cli` is imported; a layer is bound through a LazyLoader, so it
    runs on its first attribute read, however it is reached, and a command runs only the layers it reads from."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib.util
    import sys
    fullname = f"{__name__}.{name}"
    if name == "cli":
        return importlib.import_module(fullname)
    if fullname not in sys.modules:  # a lazy module stays lazy: importing it again would run it
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]
