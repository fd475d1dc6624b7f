"""PRNG, partition solver, bin maps, code points, budgets."""

import copy
import operator
import pickle
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamcode import scrambler
from lamcode.errors import RangeError
from lamcode.scrambler import (
    AFFIX_BITS,
    AFFIX_SPACE,
    LFSR_PERIOD,
    LFSR_TAP,
    LFSR_WIDTH,
    MAX_WIDTH,
    POINT_SPACE,
    ROOT_BASE,
    BinMap,
    BudgetReport,
    CodePoint,
    NoSolution,
    ZeroState,
    WORD_NS,
    budget,
    bubble_map,
    build_bin_map,
    convert,
    descramble_point,
    format_unbalance,
    lfsr_values,
    observation_time,
    pack_point,
    repetition_period,
    scramble_point,
    scramble_values,
    solve_dm1,
    solve_dx1,
    solve_partitions,
    symmetric_solutions,
    unbalance,
    unpack_point,
)

states = st.integers(min_value=1, max_value=(1 << 33) - 1)


# --- LFSR ---------------------------------------------------------------
# The register one tick at a time, x^33 + x^13 + 1 in Fibonacci form: the
# bit-serial oracle of the word step that lfsr_values draws with.


def lfsr_next(state):
    """Advance the register one half-bit tick; returns (state, output bit)."""
    feedback = (state ^ (state >> LFSR_TAP)) & 1
    return (state >> 1) | (feedback << (LFSR_WIDTH - 1)), state & 1


def lfsr_advance_word(state):
    """Advance 33 ticks, one at a time."""
    for _ in range(LFSR_WIDTH):
        state, _ = lfsr_next(state)
    return state


def test_lfsr_rejects_zero():
    with pytest.raises(ZeroState):
        lfsr_values(0, 5, 3)


@pytest.mark.parametrize("state", [1 << 40, -5])
def test_lfsr_rejects_states_outside_the_register(state):
    with pytest.raises(RangeError):
        lfsr_values(state, 5, 3)


def test_lfsr_never_reaches_zero_locally():
    state = 1
    seen = set()
    for _ in range(1000):
        state, _ = lfsr_next(state)
        assert state != 0
        assert state not in seen
        seen.add(state)


@given(states)
def test_word_advance_matches_single_steps(state):
    stepped = state
    outputs = []
    for _ in range(LFSR_WIDTH):
        stepped, bit = lfsr_next(stepped)
        outputs.append(bit)
    assert scrambler._advance_word(state) == lfsr_advance_word(state) == stepped
    # the 33 outputs are the old state read LSB-first
    assert sum(bit << i for i, bit in enumerate(outputs)) == state


@given(states, states)
def test_lfsr_step_injective(a, b):
    if a != b:
        assert lfsr_next(a)[0] != lfsr_next(b)[0]


def test_lfsr_values_packs_lsb_first():
    state, draws = lfsr_values(1, 33, 4)
    # whole-state draws reproduce the state orbit
    expected = [1]
    for _ in range(3):
        expected.append(lfsr_advance_word(expected[-1]))
    assert draws == expected
    assert state == lfsr_advance_word(expected[-1])
    _, narrow = lfsr_values(1, 5, 1)
    assert narrow == [1]


def test_lfsr_full_period():
    """The register step has multiplicative order 2^33 - 1.

    The step is linear over GF(2); composing basis images lets us raise
    it to huge powers cheaply. Order divides 2^33 - 1 (shown by direct
    exponentiation) and divides no maximal proper divisor, which pins it.
    """
    factors = [7, 23, 89, 599479]
    product = 1
    for q in factors:
        for d in range(2, q):
            if d * d > q:
                break
            assert q % d != 0, f"{q} is composite"
        product *= q
    assert product == LFSR_PERIOD

    def compose(a, b):
        out = []
        for image in b:
            acc = 0
            i = 0
            while image:
                if image & 1:
                    acc ^= a[i]
                image >>= 1
                i += 1
            out.append(acc)
        return out

    def power(m, e):
        result = [1 << i for i in range(LFSR_WIDTH)]
        while e:
            if e & 1:
                result = compose(m, result)
            m = compose(m, m)
            e >>= 1
        return result

    identity = [1 << i for i in range(LFSR_WIDTH)]
    step = [lfsr_next(1 << i)[0] for i in range(LFSR_WIDTH)]
    assert power(step, LFSR_PERIOD) == identity
    for q in factors:
        assert power(step, LFSR_PERIOD // q) != identity


# --- partition solver ---------------------------------------------------

# (m_even, m_odd, x_even, x_odd, crit_e, crit_o, unbalance hi/lo)
QUASI_UNIFORM_ROWS = {
    9: (253, 6, 2, 1, True, False, "+1.172%", "-49.41%"),
    27: (43, 216, 518_216, 518_215, False, True, "+1.609 ppm", "-0.320 ppm"),
    28: (173, 86, 1_036_430, 1_036_431, True, False, "+0.644 ppm", "-0.320 ppm"),
    29: (87, 172, 2_072_860, 2_072_861, True, False, "+0.162 ppm", "-0.320 ppm"),
    35: (129, 130, 132_663_082, 132_663_083, False, True, "+3.754 ppB", "-3.783 ppB"),
    36: (1, 258, 265_326_166, 265_326_165, False, True, "+3.754 ppB", "-0.015 ppB"),
    37: (257, 2, 530_652_330, 530_652_331, True, True, "+1.870 ppB", "-0.015 ppB"),
    38: (255, 4, 1_061_304_660, 1_061_304_661, False, True, "+0.928 ppB", "-0.015 ppB"),
    44: (3, 256, 67_923_498_240, 67_923_498_241, True, True, "+0.000 ppB", "-0.015 ppB"),
    45: (253, 6, 135_846_996_482, 135_846_996_481, True, False, "+0.000 ppB", "-0.007 ppB"),
}

# (x_even, x_odd, delta_x, unbalance hi/lo)
COUNT_SPLIT_ROWS = {
    14: (126, 1, 125, "+99.18%", "-98.41%"),
    15: (122, 131, 9, "+3.543%", "-3.571%"),
    19: (2_082, 1_967, 115, "+2.851%", "-2.830%"),
    20: (4_034, 4_063, 29, "+0.357%", "-0.360%"),
    23: (32_402, 32_375, 27, "+0.042%", "-0.042%"),
    26: (259_086, 259_129, 43, "+0.008%", "-0.008%"),
}


def test_quasi_uniform_rows():
    for r, (m_e, m_o, x_e, x_o, e, o, hi, lo) in QUASI_UNIFORM_ROWS.items():
        sol = solve_dx1(r, 259)
        assert (sol.m_even, sol.m_odd, sol.x_even, sol.x_odd) == (m_e, m_o, x_e, x_o)
        assert sol.symmetric_e is e and sol.symmetric_o is o
        got_hi, got_lo = unbalance(sol)
        assert (format_unbalance(got_hi), format_unbalance(got_lo)) == (hi, lo)
        assert symmetric_solutions(r, 259) == [sol]


def test_no_other_symmetric_solutions():
    listed = set(QUASI_UNIFORM_ROWS)
    for r in range(9, 61):
        if r not in listed:
            assert symmetric_solutions(r, 259) == []


def test_count_split_rows():
    for r, (x_e, x_o, dx, hi, lo) in COUNT_SPLIT_ROWS.items():
        sols = solve_dm1(r, 259)
        assert len(sols) == 1
        sol = sols[0]
        assert (sol.m_even, sol.m_odd) == (129, 130)
        assert (sol.x_even, sol.x_odd, sol.delta_x) == (x_e, x_o, dx)
        for got, printed in zip(unbalance(sol), (hi, lo)):
            if format_unbalance(got) != printed:
                # one source cell (r=14 low side) is truncated, not rounded;
                # accept a deviation below one unit of its printed precision
                assert r == 14
                assert abs(float(got) * 100 - float(printed.rstrip("%"))) < 0.01


def test_count_split_absent_at_small_r():
    for r in range(9, 14):
        assert solve_dm1(r, 259) == []


def test_count_split_matches_exhaustive_search():
    # independent route: scan every admissible odd size directly
    for r in range(9, 22):
        total = 1 << r
        best = None
        found = []
        for x_odd in range(1, total // 130 + 1, 2):
            rest = total - 130 * x_odd
            if rest % 129:
                continue
            x_even = rest // 129
            gap = abs(x_even - x_odd)
            if best is None or gap < best:
                best = gap
                found = []
            if gap == best:
                found.append((x_even, x_odd))
        got = [(s.x_even, s.x_odd) for s in solve_dm1(r, 259)]
        assert got == found


def six_candidate_dm1(r, n):
    """The wider count-split search: both anchors floor(2^r/N) and one more,
    each shifted by -1, 0 and +1 steps, scored with a running best. The
    oracle of the two terms solve_dm1 keeps. Base 1 divides by zero here."""
    total = 1 << r
    halves = (n // 2, n // 2 + 1)
    m_odd = halves[0] if halves[0] % 2 == 0 else halves[1]
    m_even = n - m_odd
    x0 = total * pow(m_odd, -1, m_even) % m_even
    if x0 % 2 == 0:
        x0 += m_even
    step = 2 * m_even
    x_max = total // m_odd
    if x0 > x_max:
        return []
    candidates = set()
    for anchor in (total // n, total // n + 1):
        k = (anchor - x0) // step
        for shift in (-1, 0, 1):
            x = x0 + (k + shift) * step
            if x0 <= x <= x_max:
                candidates.add(x)
    best, best_gap = [], None
    for x_odd in sorted(candidates):
        x_even = (total - m_odd * x_odd) // m_even
        gap = abs(x_even - x_odd)
        if best_gap is None or gap < best_gap:
            best, best_gap = [], gap
        if gap == best_gap:
            best.append(scrambler.PartitionSolution(r, n, m_even, m_odd, x_even, x_odd))
    return best


def test_count_split_keeps_the_two_terms_around_the_anchor():
    # every odd base from 3 to 1199 that fits 2^r, at every r up to 47: ties and empty results included
    for r in range(1, 48):
        for n in range(3, min(1199, 1 << r) + 1, 2):
            assert solve_dm1(r, n) == six_candidate_dm1(r, n), (r, n)
    # base 1: the odd class is empty, so no count bounds its size, and 2^r - 1 and 2^r + 1 tie
    for r in (1, 5, 40):
        total = 1 << r
        assert [tuple(s) for s in solve_dm1(r, 1)] == [(r, 1, 1, 0, total, total - 1), (r, 1, 1, 0, total, total + 1)]
    assert solve_partitions(5, 1) == [solve_dx1(5, 1), solve_dm1(5, 1)[0]]


def test_unbalance_uniform_case():
    sol = solve_dx1(5, 16)
    assert unbalance(sol) == (0, 0)


def test_unbalance_exact_fractions():
    hi, lo = unbalance(solve_dm1(15, 259)[0])
    assert hi == Fraction(1161, 32768)
    assert lo == Fraction(-1170, 32768)
    hi, lo = unbalance(solve_dx1(9, 259))
    assert hi == Fraction(6, 512)
    assert lo == Fraction(-253, 512)


def test_solve_partitions_combines_families():
    sols = solve_partitions(15, 259)
    assert sols[0] == solve_dx1(15, 259)
    assert sols[1:] == solve_dm1(15, 259)
    assert solve_partitions(9, 259) == [solve_dx1(9, 259)]


@given(st.integers(min_value=1, max_value=40), st.data())
def test_dx1_properties(r, data):
    n = data.draw(st.integers(min_value=1, max_value=min(1 << r, 5000)))
    sol = solve_dx1(r, n)
    assert sol.delta_x == 1
    assert {sol.x_even % 2, sol.x_odd % 2} == {0, 1}
    hi, lo = unbalance(sol)
    assert hi >= 0 >= lo


def test_solver_range_errors():
    with pytest.raises(NoSolution):
        solve_dx1(3, 9)
    with pytest.raises(NoSolution):
        solve_dm1(5, 16)  # even base
    # a solution built by hand is checked: 2^3 = 1*2 + 2*3 over N = 3 holds, each of these breaks one rule
    assert scrambler.PartitionSolution(3, 3, 1, 2, 2, 3).delta_x == 1
    for fields, message in (
        ((3, 3, 1, 2, -2, 5), "must be nonnegative"),
        ((3, 3, 1, 2, 3, 3), "x_even must be even and x_odd odd"),
        ((3, 3, 1, 1, 2, 3), "must sum to the base"),
        ((3, 3, 1, 2, 4, 3), "must partition the whole outcome space"),
    ):
        with pytest.raises(RangeError, match=message):
            scrambler.PartitionSolution(*fields)


# --- bin maps -----------------------------------------------------------


def test_bubble_splits():
    assert bubble_map(9).sizes == (3, 3, 4, 4, 4, 4, 4, 3, 3)
    assert bubble_map(12).sizes == (2, 2) + (3,) * 8 + (2, 2)
    assert bubble_map(16).sizes == (2,) * 16
    assert bubble_map(18).sizes == (1, 1) + (2,) * 14 + (1, 1)
    assert bubble_map(32).sizes == (1,) * 32
    with pytest.raises(NoSolution):
        bubble_map(33)


def test_bubble_layouts():
    assert bubble_map(9).layout == (2, 5, 2)
    assert bubble_map(16).layout == (0, 16, 0)
    assert bubble_map(18).layout == (2, 14, 2)


def test_quasi_uniform_map_layout():
    m = build_bin_map(solve_dx1(9, 259))
    assert m.layout == (3, 253, 3)
    assert m.sizes[:3] == (1, 1, 1) and m.sizes[-3:] == (1, 1, 1)
    assert set(m.sizes[3:-3]) == {2}


def test_convert_endpoints_and_monotone():
    m = bubble_map(9)
    assert convert(0, m) == 0
    assert convert(31, m) == 8
    digits = [convert(v, m) for v in range(32)]
    assert digits == sorted(digits)
    assert [digits.count(d) for d in range(9)] == [3, 3, 4, 4, 4, 4, 4, 3, 3]
    with pytest.raises(RangeError):
        convert(32, m)
    with pytest.raises(RangeError):
        convert(-1, m)


def full_bisect(bin_map, value):
    """The digit of a value by one bisect over every bin start: the oracle of the guided bisect."""
    return bisect_right(list(accumulate((0,) + bin_map.sizes[:-1])), value) - 1


def test_guided_convert_matches_the_full_bisect_exhaustively():
    # every value of every solved map with r <= 9 and 1 <= n <= 2^r
    checks = 0
    for r in range(1, 10):
        for n in range(1, (1 << r) + 1):
            for sol in solve_partitions(r, n):
                m = build_bin_map(sol)
                starts = list(accumulate((0,) + m.sizes[:-1]))
                assert [convert(v, m) for v in range(1 << r)] == [bisect_right(starts, v) - 1 for v in range(1 << r)]
                checks += 1 << r
    assert checks == 365_618


def test_guided_convert_on_zero_size_and_skewed_bins():
    gapped = BinMap(3, 4, (0, 4, 0, 4), (1, 2, 1))
    assert [convert(v, gapped) for v in range(8)] == [full_bisect(gapped, v) for v in range(8)] == [1] * 4 + [3] * 4
    rng = random.Random(20)
    for _ in range(300):
        r = rng.randrange(1, 13)
        cuts = sorted(rng.choices(range((1 << r) + 1), k=rng.randrange(1, 40)))
        sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [1 << r]))
        m = BinMap(r, len(sizes), sizes, (0, len(sizes), 0))
        values = {0, (1 << r) - 1} | {rng.randrange(1 << r) for _ in range(64)}
        values |= {start + d for start in accumulate((0,) + sizes) for d in (-1, 0, 1) if 0 <= start + d < 1 << r}
        assert all(convert(v, m) == full_bisect(m, v) for v in values)
    for r in (64, MAX_WIDTH):
        space = 1 << r
        m = BinMap(r, 2, (1, space - 1), (1, 1, 0))
        assert [convert(v, m) for v in (0, 1, 2, space - 2, space - 1)] == [0, 1, 1, 1, 1]
        for value in (-1, space):
            with pytest.raises(RangeError, match=rf"value must lie in \[0, 2\^{r}\)"):
                convert(value, m)
    assert len(m._table[3]) <= 4 * m.n + 1
    # a wide map keeps its guide within 4n + 1 entries as well
    wide = build_bin_map(solve_dx1(MAX_WIDTH, 1000))
    assert len(wide._table[3]) <= 4 * 1000 + 1
    assert convert((1 << MAX_WIDTH) - 1, wide) == 999 and convert(0, wide) == 0


def test_convert_refuses_non_integer_draws():
    m = bubble_map(9)
    for value, name in ((1.5, "float"), (Fraction(7, 2), "Fraction"), ("3", "str"), (None, "NoneType"), (np.float64(2), "float64")):
        with pytest.raises(RangeError, match=f"value must be an integer, not {name}$"):
            convert(value, m)
    assert convert(True, m) == convert(1, m) == 0
    assert convert(np.int64(31), m) == convert(np.uint8(31), m) == 8


def test_count_split_histogram():
    # exhaustive preimage histogram of the r=15 count-split map
    m = build_bin_map(solve_dm1(15, 259)[0])
    counts = {}
    for v in range(1 << 15):
        d = convert(v, m)
        counts[d] = counts.get(d, 0) + 1
    sizes = sorted(counts.values())
    assert sizes.count(122) == 129
    assert sizes.count(131) == 130


def test_prng_drive_is_quasi_uniform():
    # exact 5-sigma binomial bounds on a million seeded draws
    m = build_bin_map(solve_dm1(15, 259)[0])
    n = 10**6
    _, draws = lfsr_values(0x1ACCE55, 15, n)
    counts = [0] * 259
    for v in draws:
        counts[convert(v, m)] += 1
    for digit, size in enumerate(m.sizes):
        p = size / 32768
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[digit] - n * p) <= 5 * sigma


# --- code points --------------------------------------------------------


def test_point_space_identity():
    assert POINT_SPACE == 530_432
    assert POINT_SPACE == 259 * 2**11
    assert POINT_SPACE == 524_288 + 6_144


def test_pack_examples():
    assert pack_point(0, 0, 0).value == 0
    assert pack_point(258, 2047).value == 530_431
    assert unpack_point(530_431) == CodePoint(258, 2047, 0)
    with pytest.raises(RangeError):
        pack_point(259, 0)
    with pytest.raises(RangeError):
        pack_point(0, 2048)
    with pytest.raises(RangeError):
        unpack_point(530_432)


def test_unpack_point_refuses_non_integers():
    # 5.5 would otherwise unpack to CodePoint(0.0, 5.5, 0), a record its constructor refuses
    for value in (5.5, 3.0, Fraction(3), "3", None):
        with pytest.raises(RangeError, match="value must be an integer"):
            unpack_point(value)
    assert unpack_point(True) == unpack_point(1) == CodePoint(0, 1)


@given(st.integers(min_value=0, max_value=POINT_SPACE - 1))
def test_pack_unpack_round_trip(value):
    assert unpack_point(value).value == value


points = st.builds(
    CodePoint,
    st.integers(min_value=0, max_value=ROOT_BASE - 1),
    st.integers(min_value=0, max_value=AFFIX_SPACE - 1),
    st.integers(min_value=0, max_value=1),
)
keys = st.tuples(
    st.integers(min_value=0, max_value=ROOT_BASE - 1),
    st.integers(min_value=0, max_value=AFFIX_SPACE - 1),
    st.integers(min_value=0, max_value=1),
)


@given(points, keys)
def test_scramble_round_trip(point, key):
    assert descramble_point(scramble_point(point, key), key) == point
    assert scramble_point(descramble_point(point, key), key) == point


def test_code_point_record_semantics():
    point = CodePoint(1, 2)
    assert point == CodePoint(1, 2, 0) and hash(point) == hash(CodePoint(1, 2, 0))
    # equal only to its own type, never to the plain tuple of its fields
    assert point != (1, 2, 0) and (1, 2, 0) != point and not point == (1, 2, 0)
    assert point != CodePoint(1, 2, 1)
    assert {point, unpack_point(point.value)} == {point}
    assert repr(point) == "CodePoint(root=1, affix=2, inversion=0)"
    # no ordering, as with the frozen dataclass: not against tuples, not among records
    for left, right in ((point, (1, 3)), ((1, 3), point), (point, CodePoint(1, 3))):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="CodePoint records do not order"):
                compare(left, right)
    with pytest.raises(TypeError):
        sorted([point, (1, 3)])
    assert (point.root, point.affix, point.inversion, point.value) == (1, 2, 0, 2050)
    match point:
        case CodePoint(root, affix, inversion):
            assert (root, affix, inversion) == (1, 2, 0)
    with pytest.raises(AttributeError):
        point.root = 3
    with pytest.raises(AttributeError):
        point.extra = 3
    assert copy.copy(point) == point == pickle.loads(pickle.dumps(point))
    for fields in ((-1, 0), (259, 0), (0, -1), (0, 2048), (0, 0, 2), (0, 0, -1), (0.5, 0, 0.5), (0.5, 0), (1, 2, 1.0)):
        with pytest.raises(RangeError):
            CodePoint(*fields)


@given(st.integers(min_value=0, max_value=POINT_SPACE - 1), keys)
def test_unchecked_points_equal_checked_constructor(value, key):
    # unpack_point and the key steps build their records unchecked
    point = unpack_point(value)
    assert point == CodePoint(value // AFFIX_SPACE, value % AFFIX_SPACE, 0)
    for step in (scramble_point, descramble_point):
        for source in (point, CodePoint(point.root, point.affix, 1)):
            out = step(source, key)
            assert type(out) is CodePoint and out == CodePoint(out.root, out.affix, out.inversion)


def test_scramble_examples():
    p = CodePoint(258, 5, 1)
    assert scramble_point(p, (0, 0, 0)) == p
    assert scramble_point(p, (1, 0, 0)).root == 0  # modular wraparound
    assert scramble_point(p, (0, 0, 1)).inversion == 0


def test_scramble_values_is_permutation():
    values = np.arange(POINT_SPACE)
    for key in ((37, 0x155, 1), (258, 2047, 0)):
        image = scramble_values(values, key)
        assert image.min() == 0 and image.max() == POINT_SPACE - 1
        assert np.unique(image).size == POINT_SPACE
        point = scramble_point(CodePoint(123, 456), key)
        assert image[123 * AFFIX_SPACE + 456] == point.value


def modulo_scramble_values(values, key):
    """The root and the affix apart, the root sum reduced by an int64 modulo: the oracle of the packed scramble."""
    s259, s11, _ = key
    values = np.asarray(values, dtype=np.int64)
    root = (values >> AFFIX_BITS) + s259
    root %= ROOT_BASE
    affix = (values & (AFFIX_SPACE - 1)) ^ (s11 & (AFFIX_SPACE - 1))
    return (root << AFFIX_BITS) | affix


def test_scramble_values_matches_modulo_oracle():
    rng = random.Random(17)
    keys = [(0, 0, 0), (1, 0x7FF, 1), (258, 0x2AA, 0), (0, 0xFFFF, 1)]
    keys += [(rng.randrange(ROOT_BASE), rng.getrandbits(16), rng.getrandbits(1)) for _ in range(4)]
    values = np.arange(POINT_SPACE)
    for key in keys:
        image = scramble_values(values, key)
        assert image.dtype == np.int64
        assert np.array_equal(image, modulo_scramble_values(values, key))
        assert np.array_equal(values, np.arange(POINT_SPACE))  # the caller's array is read, never written
    narrow = scramble_values(values.astype(np.int32), keys[-1])
    assert narrow.dtype == np.int64 and np.array_equal(narrow, modulo_scramble_values(values, keys[-1]))
    assert scramble_values([POINT_SPACE - 1, 0], (1, 0, 0)).tolist() == [AFFIX_SPACE - 1, AFFIX_SPACE]
    # a 0-d input, a Python or numpy scalar included, scrambles to a 0-d int64 array
    for scalar in (5, np.int64(5), np.asarray(5, dtype=np.int8), np.uint64(POINT_SPACE - 1), np.asarray(7, np.uint64)):
        image = scramble_values(scalar, keys[-1])
        assert type(image) is np.ndarray and image.dtype == np.int64 and image.shape == ()
        assert image == modulo_scramble_values(scalar, keys[-1]) == scramble_point(unpack_point(int(scalar)), keys[-1]).value


def test_scramble_values_refuses_what_the_scalar_path_refuses():
    for s259 in (ROOT_BASE, 300, -1):
        message = f"root key must lie in \\[0, {ROOT_BASE}\\)"
        with pytest.raises(RangeError, match=message):
            scramble_point(CodePoint(0, 0), (s259, 0, 0))
        with pytest.raises(RangeError, match=message):
            scramble_values(np.arange(4), (s259, 0, 0))
    for values in ([-1], [POINT_SPACE], np.array([0, POINT_SPACE + 5]), np.array([2**63], dtype=np.uint64)):
        with pytest.raises(RangeError, match="values must lie in"):
            scramble_values(values, (1, 2, 0))
    for values in ([1.5], np.array([1.0, 2.0]), [10**400], [0, 10**400], "12", None, [[1], [1, 2]]):
        with pytest.raises(RangeError, match="values must be"):
            scramble_values(values, (1, 2, 0))
    for empty in ([], np.array([], dtype=np.float64)):
        out = scramble_values(empty, (1, 2, 0))
        assert out.dtype == np.int64 and out.shape == (0,)


def test_scramble_values_refuses_negatives_of_every_width():
    # a negative value read unsigned at its own width may stay below POINT_SPACE (int8 -1 is 255)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        with pytest.raises(RangeError, match="values must lie in"):
            scramble_values(np.array([3, -1], dtype=dtype), (1, 2, 0))
        assert scramble_values(np.array([3, 100], dtype=dtype), (1, 2, 0)).tolist() == [2049, 2150]


# --- budgets ------------------------------------------------------------


def test_repetition_period_values():
    assert repetition_period(72) == pytest.approx(257.698, rel=1e-4)
    assert repetition_period(21) == pytest.approx(883.5, rel=1e-3)
    assert repetition_period(72) == LFSR_PERIOD * WORD_NS * 1e-9
    with pytest.raises(RangeError):
        repetition_period(0)
    with pytest.raises(RangeError):
        repetition_period(73)


def test_observation_times():
    assert observation_time(9) == pytest.approx(92.16e-6)
    assert observation_time(15) == pytest.approx(5.89824e-3)
    assert observation_time(27) == pytest.approx(24.159, rel=1e-3)
    assert observation_time(0) == pytest.approx(180e-9)
    assert observation_time(1023) > 0
    for r in (-1, 1024, 2000):
        with pytest.raises(RangeError):
            observation_time(r)
    with pytest.raises(RangeError):
        budget(11)  # r = -1


def test_budget_report():
    report = budget(21)
    assert report == BudgetReport(
        t=21,
        r=9,
        repetition_period=repetition_period(21),
        observation_time=observation_time(9),
        root_feasible=True,
    )
    assert not budget(20).root_feasible
    with pytest.raises(RangeError):
        budget(0)


@settings(max_examples=20)
@given(st.integers(min_value=12, max_value=72))
def test_budget_monotone(t):
    # more demanded bits per round: faster repetition, longer observation
    if t < 72:
        assert budget(t).repetition_period > budget(t + 1).repetition_period
        assert budget(t).observation_time < budget(t + 1).observation_time
