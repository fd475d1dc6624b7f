"""Workload registry and the set-up every run and set-up probe shares."""

from __future__ import annotations

import importlib
import random

import workload_exact
import workload_stream
from harness import SRC, attempt
from tracer import Tracer

IN_PROCESS = {"stream": workload_stream, "exact": workload_exact}
LAYERS = ("manchester", "dictionary", "scrambler", "reconciler", "ternary", "echo")
WARMUP_SALT = 0x5EED


def import_lamcode():
    """Import the package from this checkout's src/ and nowhere else."""
    lamcode = importlib.import_module("lamcode")
    for name in LAYERS + ("cli",):
        importlib.import_module(f"lamcode.{name}")
    origin = getattr(lamcode, "__file__", None) or ""
    if not origin.startswith(str(SRC)):
        raise ImportError(f"lamcode imported from {origin!r}, not from {SRC}")
    return lamcode


def prepare(name: str, seed: int):
    """Import, build the static tables and run one untimed deck.

    The warm-up deck fills lazy caches (and the checks' own tables); it
    uses its own generator so the timed sequence does not depend on it.
    Its failures are not counted: the timed requests that follow repeat
    every kind.  Returns the workload state.
    """
    lamcode = import_lamcode()
    module = IN_PROCESS[name]
    state = module.setup(lamcode)
    for request in module.deck(state, random.Random(seed ^ WARMUP_SALT), Tracer()):
        attempt(request, request.run)
    return state
