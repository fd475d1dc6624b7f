"""Side-stream randomness and quasi-uniform base conversion.

A 33-bit maximal-length LFSR supplies equiprobable r-bit draws. A draw
is folded onto a base-N digit through a bin map built from an exact
integer partition of the 2^r outcome space: m_even bins of an even size
x_even and m_odd bins of an odd size x_odd, with m_even + m_odd = N and
(x_even + x_odd) odd. Two solution families matter in practice: sizes
differing by one (quasi-uniform, |delta x| = 1) and bin-class counts
differing by one (|delta m| = 1, size gap minimized).

The module also packs transport values into composite code points
(base-259 root, 11-bit affix, 1-bit inversion), scrambles them with a
per-morpheme key, and prices the whole scheme in time: PRNG repetition
period against the observation time a given root width implies.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import RangeError, WorkbenchError
from .record import Record, integer

LFSR_WIDTH = 33
LFSR_TAP = 13  # x^33 + x^13 + 1, the Clause 40 master generator
LFSR_PERIOD = (1 << LFSR_WIDTH) - 1
_LFSR_MASK = (1 << LFSR_WIDTH) - 1

ROOT_BASE = 259
AFFIX_BITS = 11
AFFIX_SPACE = 1 << AFFIX_BITS
POINT_SPACE = ROOT_BASE * AFFIX_SPACE  # 530,432 = 524,288 + 6,144
KEY_BITS = 5  # per-word key width of the small paged dictionaries

WORD_NS = 30.0
ROUND_NS = 180.0  # six words per echo round
ROUND_BITS = 72
ROOT_MIN_BITS = 9  # ceil(log2 259)
MAX_WIDTH = 4096  # widest partition: its cells stay well inside int-to-str limits


class ZeroState(WorkbenchError, ValueError):
    """The all-zero LFSR state, which the recurrence can never leave."""


class NoSolution(WorkbenchError, ValueError):
    """No partition satisfies the requested constraints."""


def _check_state(state: int) -> None:
    if state == 0:
        raise ZeroState("LFSR state must be nonzero")
    if state != state & _LFSR_MASK:
        raise RangeError(f"state needs at most {LFSR_WIDTH} bits")


def _advance_word(state: int) -> int:
    """Advance a checked state 33 ticks at once; the draw loop checks once, not per step.

    The next 33 output bits of a Fibonacci register are exactly the
    current state, LSB first, so whole-state draws need only this step.
    """
    folded = state ^ (state >> LFSR_TAP)
    return (folded & 0xFFFFF) | ((((folded >> 20) ^ folded) & 0x1FFF) << 20)


def lfsr_values(state: int, nbits: int, count: int) -> tuple[int, list[int]]:
    """Draw `count` values of `nbits` each; first output bit lands in the LSB."""
    state, nbits, count = integer("state", state), integer("nbits", nbits), integer("count", count)
    if nbits < 1:
        raise RangeError("nbits must be positive")
    if count < 0:
        raise RangeError("count must be nonnegative")
    _check_state(state)
    out: list[int] = []
    buffer = 0
    filled = 0
    mask = (1 << nbits) - 1
    for _ in range(count):
        while filled < nbits:
            buffer |= state << filled
            filled += LFSR_WIDTH
            state = _advance_word(state)
        out.append(buffer & mask)
        buffer >>= nbits
        filled -= nbits
    return state, out


def _nests(a: int, b: int) -> bool:
    """The smaller count is positive and divides the larger."""
    lo, hi = sorted((a, b))
    return lo > 0 and hi % lo == 0


class PartitionSolution(Record):
    """One solution of m_even*x_even + m_odd*x_odd = 2^r, m_even + m_odd = N.

    The even/odd labels follow the parity of the x values, not of the
    counts. A class may be empty (m = 0) when 2^r divides evenly.
    """

    r: int
    n: int
    m_even: int
    m_odd: int
    x_even: int
    x_odd: int

    def _check(self) -> None:
        _check_width(self.r)
        if min(self.m_even, self.m_odd, self.x_even, self.x_odd) < 0:
            raise RangeError("all partition quantities must be nonnegative")
        if self.x_even % 2 or self.x_odd % 2 == 0:
            raise RangeError("x_even must be even and x_odd odd")
        if self.m_even + self.m_odd != self.n:
            raise RangeError("bin counts must sum to the base")
        if self.m_even * self.x_even + self.m_odd * self.x_odd != 1 << self.r:
            raise RangeError("bin sizes must partition the whole outcome space")

    @property
    def delta_m(self) -> int:
        return abs(self.m_even - self.m_odd)

    @property
    def delta_x(self) -> int:
        return abs(self.x_even - self.x_odd)

    @property
    def symmetric_e(self) -> bool:
        return _nests(self.m_even - 1, self.m_odd)

    @property
    def symmetric_o(self) -> bool:
        return _nests(self.m_even, self.m_odd - 1)


def _check_width(r: int) -> int:
    """The width as an int; refuse one outside [1, MAX_WIDTH] before anything shifts by it."""
    r = integer("r", r)
    if not 1 <= r <= MAX_WIDTH:
        raise RangeError(f"r must lie in [1, {MAX_WIDTH}]")
    return r


def _check_rn(r: int, n: int) -> tuple[int, int]:
    r, n = _check_width(r), integer("base", n)
    if n < 1:
        raise RangeError("base must be at least 1")
    if n > 1 << r:
        raise NoSolution(f"base {n} exceeds the 2^{r} outcome space")
    return r, n


def solve_dx1(r: int, n: int) -> PartitionSolution:
    """The quasi-uniform solution: bin sizes differ by at most one.

    With sizes floor(2^r/N) and one more, the size-parity constraint is
    automatic; when N divides 2^r the second class is left empty. The
    counts and sizes tile 2^r by construction, so the solution is built unchecked.
    """
    r, n = _check_rn(r, n)
    low, m_high = divmod(1 << r, n)
    counts = {low: n - m_high, low + 1: m_high}
    x_even, x_odd = (low, low + 1) if low % 2 == 0 else (low + 1, low)
    return tuple.__new__(PartitionSolution, (r, n, counts[x_even], counts[x_odd], x_even, x_odd))


def solve_dm1(r: int, n: int) -> list[PartitionSolution]:
    """Solutions with bin-class counts differing by one and minimal size gap.

    Only defined for odd N. Since 2^r is even and x_odd is odd, the odd
    size class must have an even count, which pins the count assignment;
    candidate sizes then live on one residue class, so the minimum of
    |x_even - x_odd| is found by inspecting the neighbours of 2^r/N.
    Returns every solution attaining the minimum (usually one), each built
    unchecked: the residue class and the bound on x_odd make every field valid.
    """
    r, n = _check_rn(r, n)
    if n % 2 == 0:
        raise NoSolution("count split of an even base cannot differ by one")
    total = 1 << r
    halves = (n // 2, n // 2 + 1)
    m_odd = halves[0] if halves[0] % 2 == 0 else halves[1]
    m_even = n - m_odd
    # x_odd must satisfy m_odd * x_odd = 2^r (mod m_even), gcd = 1
    x0 = total * pow(m_odd, -1, m_even) % m_even
    if x0 % 2 == 0:
        x0 += m_even  # m_even is odd, so this flips parity
    step = 2 * m_even
    # |x_even - x_odd| is |total - n*x_odd| / m_even, convex along x0, x0 + step, ...:
    # its minimum lies on the two terms around total/n. An empty odd class (N = 1) bounds no size.
    k = max(0, (total - n * x0) // (n * step))
    found = [
        tuple.__new__(PartitionSolution, (r, n, m_even, m_odd, (total - m_odd * x_odd) // m_even, x_odd))
        for x_odd in (x0 + k * step, x0 + (k + 1) * step)
        if m_odd * x_odd <= total
    ]
    least = min((sol.delta_x for sol in found), default=None)
    return [sol for sol in found if sol.delta_x == least]


def solve_partitions(r: int, n: int) -> list[PartitionSolution]:
    """Both targeted families: the |dx|<=1 solution, then |dm|=1 minima."""
    solutions = [solve_dx1(r, n)]
    if n % 2:
        for sol in solve_dm1(r, n):
            if sol not in solutions:
                solutions.append(sol)
    return solutions


def symmetric_solutions(r: int, n: int) -> list[PartitionSolution]:
    """Quasi-uniform solutions passing either symmetry criterion."""
    sol = solve_dx1(r, n)
    return [sol] if sol.symmetric_e or sol.symmetric_o else []


def unbalance(sol: PartitionSolution) -> tuple[Fraction, Fraction]:
    """Signed relative deviation (largest bin, smallest bin) from uniform.

    Classes with no bins are ignored; an exact-divisor partition is
    perfectly uniform and reports (0, 0).
    """
    total = 1 << sol.r
    sizes = [x for m, x in ((sol.m_even, sol.x_even), (sol.m_odd, sol.x_odd)) if m > 0]
    return Fraction(sol.n * max(sizes) - total, total), Fraction(sol.n * min(sizes) - total, total)


def format_unbalance(value: Fraction) -> str:
    """Render a deviation with the unit its magnitude calls for.

    Percent down to 0.001%, then ppm down to 0.1 ppm, then ppB; two
    decimals for magnitudes of ten and above, else three.
    """
    magnitude = abs(value)
    if magnitude >= Fraction(1, 10**5):
        unit, scale = "%", 100
    elif magnitude >= Fraction(1, 10**7):
        unit, scale = " ppm", 10**6
    else:
        unit, scale = " ppB", 10**9
    scaled = value * scale
    decimals = 2 if abs(scaled) >= 10 else 3
    return f"{float(scaled):+.{decimals}f}{unit}"


class BinMap(Record):
    """Contiguous partition of [0, 2^r) into N digit bins."""

    r: int
    n: int
    sizes: tuple[int, ...]  # per digit, left to right
    layout: tuple[int, int, int]  # leaf, core, leaf bin counts

    def _check(self) -> None:
        _check_width(self.r)
        if sum(map(int, self.sizes)) != 1 << self.r or len(self.sizes) != self.n or min(self.sizes) < 0:
            raise RangeError("bin sizes must tile the outcome space")  # summed as ints: numpy sums wrap
        if sum(map(int, self.layout)) != self.n or min(self.layout) < 0:
            raise RangeError("layout must be three nonnegative bin counts summing to n")

    @cached_property
    def _table(self) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """The outcome count, the bin starts, a guide shift and the guide table
        (Chen & Asau, 1974): guide[b] is the bin of b << shift, so a value's
        bin lies between the guide entries of its top bits. The shift leaves
        at most 4n + 1 entries. After the first read, one plain attribute per draw."""
        starts = tuple(accumulate((0,) + self.sizes[:-1]))
        shift = max(0, self.r - self.n.bit_length() - 1)
        guide = tuple(bisect_right(starts, b << shift) - 1 for b in range(((1 << self.r) >> shift) + 1))
        return 1 << self.r, starts, shift, guide


def build_bin_map(sol: PartitionSolution) -> BinMap:
    """Arrange the partition: minority bins flank the majority core.

    The class with fewer bins is split into a left and a right leaf
    group (odd remainder to the left); the other class forms the core.
    The sizes of a checked partition tile 2^r, so the map is built unchecked.
    """
    classes = [
        (m, x) for m, x in ((sol.m_even, sol.x_even), (sol.m_odd, sol.x_odd)) if m > 0
    ]
    if len(classes) == 1:
        (m, x), = classes
        return tuple.__new__(BinMap, (sol.r, sol.n, (x,) * m, (0, m, 0)))
    (m_minor, x_minor), (m_major, x_major) = sorted(classes)
    left = (m_minor + 1) // 2
    right = m_minor - left
    sizes = (x_minor,) * left + (x_major,) * m_major + (x_minor,) * right
    return tuple.__new__(BinMap, (sol.r, sol.n, sizes, (left, m_major, right)))


def convert(value: int, bin_map: BinMap) -> int:
    """Fold one equiprobable r-bit draw onto a base-N digit: a bisect between
    the guide entries of its top bits. A value that is not an integer fails
    the comparison or the shift, raised as RangeError."""
    space, starts, shift, guide = bin_map._table
    try:
        if not 0 <= value < space:
            raise RangeError(f"value must lie in [0, 2^{bin_map.r})")
        top = value >> shift
    except TypeError:
        raise RangeError(f"value must be an integer, not {type(value).__name__}") from None
    return bisect_right(starts, value, guide[top], guide[top + 1] + 1) - 1


def bubble_map(n: int) -> BinMap:
    """Per-word cipher-point map for small paged dictionaries (N <= 2^KEY_BITS)."""
    if integer("word count", n) > 1 << KEY_BITS:
        raise NoSolution(f"{n} words cannot share {1 << KEY_BITS} cipher points")
    return build_bin_map(solve_dx1(KEY_BITS, n))


class CodePoint(Record):
    """Composite transport value: base-259 root, 11-bit affix, inversion flag.

    The numeric value packs root and affix only; inversion rides outside
    as a separate morpheme selecting image inversion downstream.
    """

    __slots__ = ()
    root: int
    affix: int
    inversion: int = 0

    def __new__(cls, root: int, affix: int, inversion: int = 0) -> CodePoint:
        if root.__class__ is not int or affix.__class__ is not int or inversion.__class__ is not int:  # per element
            root, affix, inversion = integer("root", root), integer("affix", affix), integer("inversion", inversion)
        if not 0 <= root < ROOT_BASE:
            raise RangeError(f"root must lie in [0, {ROOT_BASE})")
        if not 0 <= affix < AFFIX_SPACE:
            raise RangeError(f"affix must lie in [0, {AFFIX_SPACE})")
        if inversion not in (0, 1):
            raise RangeError("inversion is a single bit")
        return tuple.__new__(cls, (root, affix, inversion))

    @property
    def value(self) -> int:
        return self[0] * AFFIX_SPACE + self[1]


pack_point = CodePoint


def unpack_point(value: int) -> CodePoint:
    """The point of a packed value, read as an int (a non-integer is a RangeError); the one split of a value."""
    if value.__class__ is not int:  # a plain int skips the call: echo packs every sample through here
        value = integer("value", value)
    if not 0 <= value < POINT_SPACE:
        raise RangeError(f"value must lie in [0, {POINT_SPACE})")
    return tuple.__new__(CodePoint, (value >> AFFIX_BITS, value & AFFIX_SPACE - 1, 0))


def _key_step(point: CodePoint, key: tuple[int, int, int], sign: int) -> CodePoint:
    """Shift the root by sign * s259, XOR the affix and the inversion.

    A checked point and a checked root key keep every field in range, so
    the result is built unchecked; key parts are read as ints.
    """
    s259, s11, s1 = key
    if s259.__class__ is not int or s11.__class__ is not int or s1.__class__ is not int:  # per point
        s259, s11, s1 = integer("root key", s259), integer("affix key", s11), integer("inversion key", s1)
    if not 0 <= s259 < ROOT_BASE:
        raise RangeError(f"root key must lie in [0, {ROOT_BASE})")
    return tuple.__new__(
        CodePoint,
        (
            (point.root + sign * s259) % ROOT_BASE,
            point.affix ^ (s11 & (AFFIX_SPACE - 1)),
            point.inversion ^ (s1 & 1),
        ),
    )


def scramble_point(point: CodePoint, key: tuple[int, int, int]) -> CodePoint:
    """Additive root, XOR affix, XOR inversion; one sub-scrambler each."""
    return _key_step(point, key, 1)


def descramble_point(point: CodePoint, key: tuple[int, int, int]) -> CodePoint:
    return _key_step(point, key, -1)


def scramble_values(values, key: tuple[int, int, int]):
    """Vectorized scramble of packed numeric values (inversion excluded), as a new int64 array.

    The affix key only touches the bits below AFFIX_BITS, and a root plus
    a root key stays below 2 * ROOT_BASE, so the scramble is one XOR, one
    add of the shifted root key and one subtract of POINT_SPACE where the
    sum wrapped. That holds for in-range values only: the root key, a
    value outside the point space and a value that is not an integer
    (a float, or an int too wide for int64) are refused with RangeError,
    as the scalar path refuses them.
    """
    import numpy as np  # bulk audit path only

    s259, s11, _ = key
    if not 0 <= s259 < ROOT_BASE:
        raise RangeError(f"root key must lie in [0, {ROOT_BASE})")
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        raise RangeError("values must be an array of integers") from None
    if not values.size:
        return np.empty(values.shape, np.int64)
    if values.dtype.kind not in "iu":
        raise RangeError(f"values must be integers, not {values.dtype}")
    # a new array, the caller's stays; asarray keeps a 0-d input's result an array, not a numpy scalar
    out = np.asarray(np.bitwise_xor(values, s11 & (AFFIX_SPACE - 1), dtype=np.int64))
    # The XOR keeps every value on its side of 0 and of POINT_SPACE, and a
    # negative one read unsigned is huge: one pass checks the range.
    if out.view(np.uint64).max() >= POINT_SPACE:
        raise RangeError(f"values must lie in [0, {POINT_SPACE})")
    out += s259 << AFFIX_BITS
    np.subtract(out, POINT_SPACE, out=out, where=out >= POINT_SPACE)
    return out


def repetition_period(t: int) -> float:
    """Seconds before the side stream repeats when t bits feed each round."""
    t = integer("t", t)
    if not 1 <= t <= ROUND_BITS:
        raise RangeError(f"t must lie in [1, {ROUND_BITS}]")
    return LFSR_PERIOD * WORD_NS * 1e-9 * ROUND_BITS / t


def observation_time(r: int) -> float:
    """Seconds to watch all 2^r draws once at one draw per round."""
    r = integer("draw width", r)
    if not 0 <= r < sys.float_info.max_exp:
        raise RangeError(f"draw width must lie in [0, {sys.float_info.max_exp})")
    return (2.0**r) * ROUND_NS * 1e-9


class BudgetReport(Record):
    t: int
    r: int
    repetition_period: float  # seconds
    observation_time: float  # seconds
    root_feasible: bool  # r wide enough for a base-259 root


def budget(t: int) -> BudgetReport:
    """Time budget when t side-stream bits are demanded per echo round."""
    r = integer("t", t) - AFFIX_BITS - 1  # the affix and the inversion bit take the other 12
    return BudgetReport(t, r, repetition_period(t), observation_time(r), r >= ROOT_MIN_BITS)
