"""Echo multiplexing arithmetic for the PAM-3 transport.

Two disjoint sample pools share one code-point range: native echoes carry
an auxiliary bit plus six octal digits, forced echoes carry an event
position plus three octal digits.  Around them sit the event resolution,
round-length planning, the single-word mocking round, and an exact census
over the 3^12 serial-image space.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import scrambler
from .errors import RangeError, SizeLimit, WorkbenchError
from .record import Record, integer

OCTAL = 8
NATIVE_DIGITS = 6
FORCED_DIGITS = 3
GROUP_WORDS = 12
NATIVE_POOL = 2 * OCTAL**NATIVE_DIGITS
FORCED_POOL = GROUP_WORDS * OCTAL**FORCED_DIGITS
POOL_TOTAL = NATIVE_POOL + FORCED_POOL
IMAGE_SYMBOLS = 12
IMAGE_SPACE = 3**IMAGE_SYMBOLS
NIBBLE_NS = 40.0
MII_POSITIONS = 9
ROUND_BIT_BUDGET = 1 << 20  # largest power, in bits, a round plan may build


class Infeasible(WorkbenchError, ArithmeticError):
    """The echo-capable radix cannot outrun the data radix."""


_OCTAL_DIGITS = frozenset(range(OCTAL))


def _octal_digits(pool: str, digits: tuple[int, ...], count: int) -> tuple[int, ...]:
    """Digits that failed a sample's quick test, refused or returned as ints (numpy integers pass)."""
    try:
        if len(digits) != count:
            raise RangeError(f"{pool} sample carries {count} digits")
        if not _OCTAL_DIGITS.issuperset(digits):
            raise RangeError("digits must be octal")
    except TypeError:  # no length (None, a bare number) or an unhashable digit
        raise RangeError(f"{pool} sample carries {count} octal digits") from None
    return tuple(integer("digit", digit) for digit in digits)  # a float or Fraction equal to one is refused


class NativeSample(Record):
    """Auxiliary bit plus six octal digits, low digit first."""

    __slots__ = ()
    aux: int
    digits: tuple[int, ...]

    def __new__(cls, aux: int, digits: tuple[int, ...]) -> NativeSample:
        if aux.__class__ is not int:  # a plain int skips the call: this runs per element
            aux = integer("aux", aux)
        if aux not in (0, 1):
            raise RangeError("aux is a single bit")
        try:  # quick test: plain ints whose bitwise OR lies in 0..7 are octal digits
            d0, d1, d2, d3, d4, d5 = digits
            bits = d0 | d1 | d2 | d3 | d4 | d5
        except (TypeError, ValueError):  # not six digits, or one without an integer OR
            bits = None
        if bits.__class__ is not int or not 0 <= bits < OCTAL:
            digits = _octal_digits("native", digits, NATIVE_DIGITS)
        elif digits.__class__ is not tuple:  # a list of octal ints: stored as a tuple, so the sample hashes
            digits = (d0, d1, d2, d3, d4, d5)
        return tuple.__new__(cls, (aux, digits))


class ForcedSample(Record):
    """Event position within a super group plus three octal digits."""

    __slots__ = ()
    position: int
    digits: tuple[int, ...] = (0, 0, 0)

    def __new__(cls, position: int, digits: tuple[int, ...] = (0, 0, 0)) -> ForcedSample:
        if position.__class__ is not int:  # a plain int skips the call: this runs per element
            position = integer("position", position)
        if not 0 <= position < GROUP_WORDS:
            raise RangeError(f"position must lie in [0, {GROUP_WORDS})")
        try:  # the quick test of a native sample
            d0, d1, d2 = digits
            bits = d0 | d1 | d2
        except (TypeError, ValueError):
            bits = None
        if bits.__class__ is not int or not 0 <= bits < OCTAL:
            digits = _octal_digits("forced", digits, FORCED_DIGITS)
        elif digits.__class__ is not tuple:
            digits = (d0, d1, d2)
        return tuple.__new__(cls, (position, digits))


def pool_arithmetic() -> dict[str, int]:
    """Report the pool sizes and their shared factorization."""
    return {
        "native": NATIVE_POOL,
        "forced": FORCED_POOL,
        "total": POOL_TOTAL,
        "n_q": scrambler.POINT_SPACE,
        "image_space": IMAGE_SPACE,
        "slack": IMAGE_SPACE - POOL_TOTAL,
    }


def pack_native(sample: NativeSample) -> scrambler.CodePoint:
    """Map a native sample into the low code-point range, 3 bits per octal digit, split by `unpack_point`."""
    d0, d1, d2, d3, d4, d5 = sample.digits
    return scrambler.unpack_point(sample.aux << 18 | d5 << 15 | d4 << 12 | d3 << 9 | d2 << 6 | d1 << 3 | d0)


def pack_forced(sample: ForcedSample) -> scrambler.CodePoint:
    """Map a forced sample into the high code-point range, split as a native one."""
    d0, d1, d2 = sample.digits
    return scrambler.unpack_point(NATIVE_POOL + (sample.position << 9 | d2 << 6 | d1 << 3 | d0))


# The three octal digits of every 9-bit value, low digit first.  An octal
# digit is 3 bits, so a native value is aux << 18 over two such 9-bit
# groups, and a forced offset is position << 9 over one.
_OCTAL3 = tuple((v & 7, v >> 3 & 7, v >> 6) for v in range(OCTAL**3))


def unpack_sample(point: scrambler.CodePoint | int) -> NativeSample | ForcedSample:
    """Recover the sample behind a code point, picking the pool by range.

    The value is read as an int, and one that is not an integer is a RangeError.
    The range check puts every field in range, so the sample is built unchecked.
    """
    value = integer("code point", point.value if isinstance(point, scrambler.CodePoint) else point)
    if not 0 <= value < POOL_TOTAL:
        raise RangeError(f"code point must lie in [0, {POOL_TOTAL})")
    if value < NATIVE_POOL:
        return tuple.__new__(NativeSample, (value >> 18, _OCTAL3[value & 511] + _OCTAL3[value >> 9 & 511]))
    offset = value - NATIVE_POOL
    return tuple.__new__(ForcedSample, (offset >> 9, _OCTAL3[offset & 511]))


def event_resolution(mii: bool = False) -> tuple[float, float]:
    """Fixation resolution and uncertainty in nanoseconds."""
    period = NIBBLE_NS if mii else scrambler.WORD_NS
    return (period, period / 2)


class RoundPlan(Record):
    """Multiplexing round sized so the echo factor cancels within it."""

    data_radix: int
    echo_radix: int
    echo_modulus: int
    cancellation: int
    word_count: int

    def _check(self) -> None:
        if self.data_radix < 2 or self.echo_radix < 2:
            raise RangeError("radices must be at least 2")
        if not 1 < self.cancellation <= self.echo_modulus:
            raise RangeError("cancellation must lie in (1, echo_modulus]")
        if self.word_count < 1:
            raise RangeError("a round spans at least one word")
        if not _cancels(self.data_radix, self.echo_radix, self.cancellation, self.word_count):
            raise RangeError("round too short to cancel the echo factor")


@lru_cache(maxsize=16)
def _cancels(data_radix: int, echo_radix: int, cancellation: int, count: int) -> bool:
    """cancellation * data_radix**count <= echo_radix**count, within the bit budget.

    Cached, so the round `schedule_round` settles on is not rebuilt when
    `RoundPlan` checks it.
    """
    if count * echo_radix.bit_length() > ROUND_BIT_BUDGET:
        raise SizeLimit(f"a {count}-word round needs powers beyond {ROUND_BIT_BUDGET} bits")
    return cancellation * data_radix**count <= echo_radix**count


def schedule_round(data_radix: int, echo_radix: int, echo_modulus: int) -> int:
    """Smallest word count n with echo_modulus * data_radix**n <= echo_radix**n."""
    data_radix, echo_radix = integer("data radix", data_radix), integer("echo radix", echo_radix)
    echo_modulus = integer("echo modulus", echo_modulus)
    if data_radix < 2:
        raise RangeError("data radix must be at least 2")
    if echo_modulus < 2:
        raise RangeError("echo modulus must exceed 1")
    if echo_radix <= data_radix:
        raise Infeasible("echo-capable radix must exceed the data radix")

    # n >= log(modulus) / log(echo/data), with the step taken from the logs of
    # the integers, which a float holds at any size.  log1p keeps the step
    # sharp when the radices are close (their ratio gap/data may underflow);
    # far-apart radices take the difference of logs.  A round past the bit
    # budget is refused before any power is built.  The condition is monotone
    # in n, so exact comparisons walk the estimate onto the boundary.
    gap = echo_radix - data_radix
    log_data = math.log(data_radix)
    if gap < data_radix:
        step = math.log1p(math.exp(math.log(gap) - log_data))
    else:
        step = math.log(echo_radix) - log_data
    need = math.log(echo_modulus)
    if need * echo_radix.bit_length() > ROUND_BIT_BUDGET * step:
        raise SizeLimit(f"the round needs powers beyond {ROUND_BIT_BUDGET} bits")
    count = max(1, math.ceil(need / step))
    while not _cancels(data_radix, echo_radix, echo_modulus, count):
        count += 1
    while count > 1 and _cancels(data_radix, echo_radix, echo_modulus, count - 1):
        count -= 1
    return count


def plan_round(data_radix: int, echo_radix: int, echo_modulus: int) -> RoundPlan:
    """Build the minimal-length plan cancelling the full echo modulus."""
    count = schedule_round(data_radix, echo_radix, echo_modulus)
    return RoundPlan(data_radix, echo_radix, echo_modulus, echo_modulus, count)


class MockRound(Record):
    """Round that is informationally a fixed stream delay in one word."""

    echo_modulus: int
    delay_bits: int
    word_count: int = 1


def mock_round(echo_modulus: int) -> MockRound:
    """Describe the power-of-two round equivalent to delaying the stream."""
    echo_modulus = integer("echo modulus", echo_modulus)
    if echo_modulus < 1 or echo_modulus & (echo_modulus - 1):
        raise RangeError("echo modulus must be a power of two")
    return MockRound(echo_modulus, echo_modulus.bit_length() - 1)


# Every count over the 3^12 images is at most IMAGE_SPACE, so a coefficient of this
# many bits never carries into the next one of a packed int.
_COUNT_BITS = IMAGE_SPACE.bit_length()
_COUNT_MASK = (1 << _COUNT_BITS) - 1


@lru_cache(maxsize=1)
def image_features() -> Mapping[tuple[int, int, int, int], int]:
    """(head droop, tail droop, |dc|, transits) -> count over all 3^12 images.

    A transfer-matrix count over the run automaton instead of a listing.
    The state is the last level, the current run, the closed head run (0
    while the first run is still open) and the transits so far; the dc sum
    is one axis of a generating function (Marcus, Roth & Siegel): each
    state holds one packed int whose coefficient dc + IMAGE_SYMBOLS counts
    its images at that dc, so a level step of -1, 0 or +1 is one shift.
    Every filter compares |dc|, so the cells fold the sign away.
    """
    states = {(level, 1, 0, 0): 1 << _COUNT_BITS * (IMAGE_SYMBOLS + level) for level in (-1, 0, 1)}  # one image at dc level
    for _ in range(IMAGE_SYMBOLS - 1):
        grown = {}
        for (last, run, head, transits), packed in states.items():
            stepped = (packed >> _COUNT_BITS, packed, packed << _COUNT_BITS)  # the next level -1, 0, +1
            grown[last, run + 1, head, transits] = stepped[last + 1]  # the only way into a run past 1
            head = head or run
            for level in (-1, 0, 1):
                if level != last:
                    key = level, 1, head, transits + 1
                    grown[key] = grown.get(key, 0) + stepped[level + 1]
        states = grown
    folded = Counter()  # the last level dropped
    for (_, run, head, transits), packed in states.items():
        folded[head or run, run, transits] += packed
    cells = Counter()
    for (head, tail, transits), packed in folded.items():
        for dc in range(-IMAGE_SYMBOLS, IMAGE_SYMBOLS + 1):
            if count := packed >> _COUNT_BITS * (dc + IMAGE_SYMBOLS) & _COUNT_MASK:
                cells[head, tail, abs(dc), transits] += count
    return MappingProxyType(cells)


@lru_cache(maxsize=1)
def _image_dominance() -> tuple[int, ...]:
    """image_filter_census at every threshold tuple in 0..IMAGE_SYMBOLS, one packed row per (head, tail, dc).

    With n = IMAGE_SYMBOLS + 1, coefficient `transits` of row (head * n + tail) * n + dc
    counts the images whose head droop, tail droop and |dc| are at most
    those values and whose transits are at least that one: the
    image_features cells summed as suffixes over transits, four
    shift-adds a row, then as prefixes over |dc|, tail and head, a row add a cell.
    """
    n = IMAGE_SYMBOLS + 1
    rows = [0] * n**3
    for (head, tail, dc, transits), count in image_features().items():
        rows[(head * n + tail) * n + dc] += count << _COUNT_BITS * transits
    for span in (1, 2, 4, 8):  # doubling: each coefficient ends as the sum of the 16 >= n from its own up
        rows = [row + (row >> _COUNT_BITS * span) for row in rows]
    for stride in (1, n, n * n):
        for row in range(n**3):
            if row // stride % n:
                rows[row] += rows[row - stride]
    return tuple(rows)


def image_filter_census(
    max_head_droop: int = IMAGE_SYMBOLS,
    max_tail_droop: int = IMAGE_SYMBOLS,
    dc_bound: int = IMAGE_SYMBOLS,
    min_transits: int = 0,
) -> int:
    """Count images passing every threshold, exactly over 3^12.

    One shift and mask of one dominance row. No image has a droop, |dc| or transit
    count above IMAGE_SYMBOLS, so each threshold is clamped there, and a
    fractional one is rounded to the integers it admits.
    """
    n, top, floor = IMAGE_SYMBOLS + 1, IMAGE_SYMBOLS, math.floor
    try:
        if not (0 <= max_head_droop and 0 <= max_tail_droop and 0 <= dc_bound and 0 <= min_transits):  # NaN too
            raise RangeError("image filter thresholds must be nonnegative")
        row = (floor(min(max_head_droop, top)) * n + floor(min(max_tail_droop, top))) * n + floor(min(dc_bound, top))
        shift = _COUNT_BITS * math.ceil(min(min_transits, top))
    except TypeError:  # None, a string, a sequence: no order against a number
        raise RangeError("image filter thresholds must be numbers") from None
    return _image_dominance()[row] >> shift & _COUNT_MASK


SELECTION_GRID = (
    {"max_head_droop": 7, "max_tail_droop": 7, "dc_bound": 7, "min_transits": 3},
    {"max_head_droop": 8, "max_tail_droop": 8, "dc_bound": 8, "min_transits": 2},
    {"max_head_droop": 12, "max_tail_droop": 12, "dc_bound": 12, "min_transits": 0},
)


def selection_row(**criteria: int) -> dict:
    """Census one set of image_filter_census thresholds, noting a pool-size match."""
    count = image_filter_census(**criteria)
    return {**criteria, "count": count, "matches_pool": count == POOL_TOTAL}


def selection_sweep() -> list[dict]:
    """Census every selection-criteria row, noting pool-size matches."""
    return [selection_row(**criteria) for criteria in SELECTION_GRID]
