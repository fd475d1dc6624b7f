"""Every short letter string, through the Manchester decoder from both levels:
each accepted string re-encodes to itself, every other one is refused with a
WorkbenchError, and the accepted strings are exactly the encodings of the
short bit strings.

A bounded-exhaustive check of the small scope, beside the paged-codec sweep
in `test_codec_sweep.py`. X stands for a stray letter, so the sweep meets
stray letters, KK runs, torn cells and cells with no mid transition. The
accepted set is computed from `bits_to_letters`, never written as a count.
"""

from itertools import product

import pytest

from lamcode import manchester
from lamcode.errors import WorkbenchError

ALPHABET = manchester.J + manchester.K + "X"
MAX_LETTERS = 9


@pytest.mark.parametrize("level", (manchester.LOW, manchester.HIGH))
def test_every_short_letter_string(level):
    accepted = set()
    for length in range(MAX_LETTERS + 1):
        for text in map("".join, product(ALPHABET, repeat=length)):
            try:
                bits = manchester.letters_to_bits(text, level)
            except WorkbenchError:
                continue
            assert manchester.bits_to_letters(bits, level) == text
            accepted.add(text)
    encodings = {
        manchester.bits_to_letters(bits, level)
        for width in range(MAX_LETTERS // 2 + 1)
        for bits in product((0, 1), repeat=width)
    }
    assert accepted == encodings and len(encodings) > 1
