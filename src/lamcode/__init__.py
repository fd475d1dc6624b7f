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
    """Import `lamcode.<name>` on first access, so `import lamcode` loads no layer (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return import_module(f"{__name__}.{name}")
