"""Every short stream through the reconciler decoder: each accepted stream
re-encodes to itself, every other one is refused with a WorkbenchError, and
the accepted count per input count is what the schedule's walk takes in.

The bounded-exhaustive check of `test_codec_sweep.py` for the reconciler: the
counts come from `reconciler._schedule`, never from a literal, so a decoder
that accepted a stray stream or lost an input stream shows.
"""

from collections import Counter
from itertools import product
from math import prod

from lamcode import reconciler
from lamcode.errors import WorkbenchError

MAX_COUNT = 5
MAX_SYMBOLS = 5
SYMBOLS = range(-1, 6)  # one below every radix up to one past the output radix 5


def _input_streams(count: int, oracle, config) -> int:
    """How many input streams of `count` symbols encode within MAX_SYMBOLS symbols, read off one schedule walk:
    the walk's outputs do not depend on the values, and each input stream encodes to its own output stream."""
    steps = list(reconciler._schedule(count, oracle, config))
    if sum(op != "enqueue" for op, *_ in steps) > MAX_SYMBOLS:
        return 0
    return prod(radix for op, radix, *_ in steps if op == "enqueue")


def test_every_short_reconciler_stream():
    # 3 -> 5 at K = 1: every count up to 5 with every string of up to 5 symbols in -1..5, 117,648 streams
    oracle, config = reconciler.constant_oracle(3, 5), reconciler.ReconcilerConfig(1)
    accepted = Counter()
    for count in range(MAX_COUNT + 1):
        for length in range(MAX_SYMBOLS + 1):
            for symbols in product(SYMBOLS, repeat=length):
                encoded = reconciler.EncodedStream(count, symbols)
                try:
                    inputs = reconciler.decode_stream(encoded, oracle, config)
                except WorkbenchError:
                    continue
                assert reconciler.encode_stream(inputs, oracle, config) == encoded
                accepted[count] += 1
    walks = {count: _input_streams(count, oracle, config) for count in range(MAX_COUNT + 1)}
    assert accepted == +Counter(walks)
    assert walks[MAX_COUNT] > 1
