"""Jump-and-keep letter model of Manchester line signaling.

The line is observed in half-bit periods, one letter per period. A J
("jump") toggles the line level at its leading edge and a K ("keep")
holds the level. Every waveform a Manchester transmitter can emit maps
onto a letter stream with no two consecutive K letters, and the no-KK
rule is the only constraint a transport-legal stream must obey, which is
what makes the alphabet usable for block coding on top of the original
signaling.

Letter phase is shifted a quarter bit against the pulse train, so a J
period straddles its transition and contributes nothing to the DC
balance, while a K period sits at a constant level and contributes one
half-bit unit at the sign of that level. A narrow pulse corresponds to
the glued pair JJ and a wide pulse to JKJ, adjacent pulses sharing one J.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import ne, xor
from typing import Iterable

from .errors import RangeError, WorkbenchError
from .record import Record

J = "J"
K = "K"
LOW = "L"
HIGH = "H"

_NOT_JK = str.maketrans("", "", J + K)
_CELL = {False: J + J, True: K + J}  # has the bit changed? -> the cell's two letters
_BOUNDARY_FLAG = bytes.maketrans((J + K).encode(), b"\0\1")  # letter -> bit change flag
_BLOCK = 1 << 16  # letters metrics splits at once


class InvalidRun(WorkbenchError, ValueError):
    """A letter stream contains the forbidden KK run."""


class FramingError(WorkbenchError, ValueError):
    """A letter stream does not decompose into whole Manchester bit cells."""


def _check_level(level: str) -> None:
    if level not in (LOW, HIGH):
        raise RangeError(f"level must be {LOW!r} or {HIGH!r}, got {level!r}")


def check_letters(letters: str) -> None:
    """Validate a JK string; a non-str or a stray letter raises RangeError, KK adjacency
    InvalidRun. A valid string is counted, not copied."""
    if letters.__class__ is not str or letters.count(J) + letters.count(K) != len(letters):
        if not isinstance(letters, str):
            raise RangeError(f"letters must be a str, not {type(letters).__name__}")
        stray = letters.translate(_NOT_JK)  # names the stray letter
        if stray:
            raise RangeError(f"letter must be {J!r} or {K!r}, got {stray[0]!r}")
    if K + K in letters:
        raise InvalidRun(f"KK run in {letters!r}")


def bits_to_letters(bits: Iterable[int], initial_level: str = LOW) -> str:
    """Encode data bits (0 or 1) as a JK letter stream, two letters per bit.

    A 0 cell drives the line high then low, a 1 cell low then high, so
    every cell carries a mid-cell transition and the encoding is total.
    The result never contains a KK run: K can only appear at a bit
    boundary, and the following mid-cell slot is always a J.

    Each cell ends at the level of its bit (H for 1), so the boundary
    letter is K exactly when the bit differs from the one before it; the
    initial level stands as the bit before the first.
    """
    _check_level(initial_level)
    try:
        bits = list(bits)
    except TypeError:
        raise RangeError(f"bits must be iterable, not {type(bits).__name__}") from None
    if bits.count(0) + bits.count(1) != len(bits):
        bad = next(bit for bit in bits if bit not in (0, 1))
        raise RangeError(f"bit must be 0 or 1, got {bad!r}")
    return "".join(map(_CELL.__getitem__, map(ne, bits, chain((initial_level == HIGH,), bits))))


def level_trace(letters: str, initial_level: str = LOW) -> str:
    """Per-letter line levels, each letter reported at its settled level; a non-str raises RangeError."""
    if not isinstance(letters, str):
        raise RangeError(f"letters must be a str, not {type(letters).__name__}")
    _check_level(initial_level)
    level = initial_level
    out: list[str] = []
    for ch in letters:
        if ch == J:
            level = HIGH if level == LOW else LOW
        elif ch != K:
            raise RangeError(f"letter must be {J!r} or {K!r}, got {ch!r}")
        out.append(level)
    return "".join(out)


def letters_to_bits(letters: str, initial_level: str = LOW) -> list[int]:
    """Decode a letter stream back to data bits.

    Raises InvalidRun on a KK run and FramingError when the stream is
    not a whole number of bit cells or a cell lacks its mid transition
    (any K in an odd, mid-cell slot).

    Every mid letter is J, so each bit is the one before it flipped by a
    K at its cell boundary: the running XOR of the boundary flags.
    """
    check_letters(letters)
    if len(letters) % 2:
        raise FramingError("odd letter count, stream truncated mid cell")
    _check_level(initial_level)
    missing = letters[1::2].find(K)
    if missing >= 0:
        raise FramingError(f"no mid-cell transition in bit cell {missing}")
    flags = letters[0::2].encode().translate(_BOUNDARY_FLAG)
    return list(accumulate(flags, xor, initial=int(initial_level == HIGH)))[1:]


class ImageMetrics(Record):
    """Per-stream accounting in half-bit level units."""

    j_count: int
    k_count: int
    dc_bias: int
    peak_pos: int  # most positive running bias, 0 when never positive
    peak_neg: int  # most negative running bias, 0 when never negative
    final_level: str
    inverting: bool  # odd J count flips the line state for the successor
    transit_count: int
    head_run: int  # constant-level letters at the head of the trace
    tail_run: int

    @property
    def length(self) -> int:
        return self.j_count + self.k_count


def metrics(letters: str, initial_level: str = LOW) -> ImageMetrics:
    """Accumulate DC bias, peaks, and droop runs of a letter stream.

    The running bias changes only at K letters: +1 when the held level
    is H, -1 when it is L. J letters toggle the level and contribute 0.
    Only a K extends a level run and no K follows a K, so a droop run is 2
    when the second (for the tail, the last) letter is K, else 1.

    Only the K letters are walked: the J run before each K flips the level
    once per J. The stream is split in blocks of _BLOCK letters, so the
    run strings held at once stay bounded; the J run left open at a block's
    end flips the level there, and the next block's first run continues it.
    """
    check_letters(letters)
    _check_level(initial_level)
    high = initial_level == HIGH
    bias = peak_pos = peak_neg = k_count = 0
    for start in range(0, len(letters), _BLOCK):
        runs = letters[start : start + _BLOCK].split(K)
        open_run = runs.pop()  # the J run after the block's last K
        for run in runs:
            if len(run) % 2:
                high = not high
            if high:
                bias += 1
                if bias > peak_pos:
                    peak_pos = bias
            else:
                bias -= 1
                if bias < peak_neg:
                    peak_neg = bias
        if len(open_run) % 2:
            high = not high
        k_count += len(runs)
    j_count = len(letters) - k_count
    head_run = min(len(letters), 2 if letters[1:2] == K else 1)
    tail_run = min(len(letters), 2 if letters[-1:] == K else 1)
    final_level = HIGH if high else LOW
    return ImageMetrics(
        j_count, k_count, bias, peak_pos, peak_neg, final_level, bool(j_count % 2), j_count, head_run, tail_run
    )


def letter_contributions(letters: str, initial_level: str = LOW) -> list[int]:
    """Per-letter DC contributions: 0 for J, +1/-1 for K at H/L."""
    check_letters(letters)
    levels = level_trace(letters, initial_level)
    return [0 if ch == J else 1 if level == HIGH else -1 for ch, level in zip(letters, levels)]
