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
