"""Echo pools, event resolution, round planning, image census."""

import itertools
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lamcode import echo, scrambler
from lamcode.errors import RangeError, SizeLimit, WorkbenchError

STRAYS = 64  # values tried past each end of the sample pools


def test_pool_arithmetic():
    report = echo.pool_arithmetic()
    assert report["native"] == 2 * 8**6 == 524288
    assert report["forced"] == 12 * 8**3 == 6144
    assert report["total"] == 530432
    assert report["total"] == report["native"] + report["forced"]
    assert report["n_q"] == 259 * 2**11 == report["total"]
    assert report["total"] == scrambler.POINT_SPACE
    assert report["image_space"] == 9**6 == 3**12 == 531441
    assert report["slack"] == 1009
    assert report["total"] <= report["image_space"]


def test_pack_extremes():
    low = echo.pack_native(echo.NativeSample(0, (0,) * 6))
    assert low.value == 0
    high = echo.pack_forced(echo.ForcedSample(11, (7, 7, 7)))
    assert high.value == 530431
    assert isinstance(low, scrambler.CodePoint)


def test_sample_validation():
    with pytest.raises(RangeError):
        echo.NativeSample(2, (0,) * 6)
    with pytest.raises(RangeError):
        echo.NativeSample(0, (0,) * 5)
    with pytest.raises(RangeError):
        echo.NativeSample(0, (0, 0, 0, 0, 0, 8))
    with pytest.raises(RangeError):
        echo.ForcedSample(12, (0, 0, 0))
    with pytest.raises(RangeError):
        echo.ForcedSample(0, (-1, 0, 0))
    with pytest.raises(RangeError):
        echo.unpack_sample(530432)
    with pytest.raises(RangeError):
        echo.unpack_sample(-1)


def test_pack_round_trip_exhaustive():
    # unpack_sample builds its records unchecked: each equals the checked constructor's; of the values around
    # the pools, it takes exactly the pools and refuses the STRAYS on each side
    accepted, refused = 0, []
    for value in range(-STRAYS, echo.POOL_TOTAL + STRAYS):
        try:
            sample = echo.unpack_sample(value)
        except RangeError:
            refused.append(value)
            continue
        accepted += 1
        if value < echo.NATIVE_POOL:
            assert isinstance(sample, echo.NativeSample)
            assert sample == echo.NativeSample(sample.aux, sample.digits)
            assert echo.pack_native(sample).value == value
        else:
            assert isinstance(sample, echo.ForcedSample)
            assert sample == echo.ForcedSample(sample.position, sample.digits)
            assert echo.pack_forced(sample).value == value
    assert accepted == echo.NATIVE_POOL + echo.FORCED_POOL
    assert refused == [*range(-STRAYS, 0), *range(echo.POOL_TOTAL, echo.POOL_TOTAL + STRAYS)]


def test_non_integer_digits_are_refused_in_both_pools():
    # a float or Fraction equal to an octal digit passes the digit set; the sample refuses it
    for digits in ((1.0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6.0), (0, 0, Fraction(4), 0, 0, 0)):
        with pytest.raises(RangeError, match="digit must be an integer, not"):
            echo.NativeSample(1, digits)
    for digits in ((1.0, 2, 3), (0, 0, np.float64(7))):
        with pytest.raises(RangeError, match="digit must be an integer, not"):
            echo.ForcedSample(3, digits)
    # numpy integer digits are stored as ints, so the packers fold them without overflow
    native = echo.NativeSample(1, (np.int8(7),) * 6)
    assert native.digits == (7,) * 6 and {type(digit) for digit in native.digits} == {int}
    assert echo.pack_native(native).value == echo.NATIVE_POOL - 1
    assert echo.pack_forced(echo.ForcedSample(11, (np.uint8(7),) * 3)).value == echo.POOL_TOTAL - 1


def test_sample_record_semantics():
    native = echo.NativeSample(1, (1, 2, 3, 4, 5, 6))
    forced = echo.ForcedSample(3)
    assert repr(native) == "NativeSample(aux=1, digits=(1, 2, 3, 4, 5, 6))"
    assert repr(forced) == "ForcedSample(position=3, digits=(0, 0, 0))"
    assert forced == echo.ForcedSample(3, (0, 0, 0)) == echo.unpack_sample(echo.NATIVE_POOL + 3 * 512)
    assert native == echo.unpack_sample(echo.pack_native(native))
    # equal only to their own type, never to the plain tuple of their fields
    assert native != (1, (1, 2, 3, 4, 5, 6)) and forced != (3, (0, 0, 0))
    assert (3, (0, 0, 0)) != forced
    assert len({native, forced, echo.ForcedSample(3), echo.unpack_sample(echo.pack_native(native))}) == 2
    # digits given as a list are stored as a tuple: the sample hashes and equals the tuple-built one
    from_lists = (echo.NativeSample(1, [1, 2, 3, 4, 5, 6]), echo.ForcedSample(3, [0, 0, 0]))
    assert from_lists == (native, forced) and hash(from_lists) == hash((native, forced))
    assert all(type(sample.digits) is tuple for sample in from_lists)
    for sample, field in ((native, "aux"), (forced, "position"), (forced, "digits")):
        with pytest.raises(AttributeError):
            setattr(sample, field, 0)
    bad_native = ((-1, (0,) * 6), (0, (0,) * 7), (0, (0, 0, 0, 0, 0, -1)), (1.0, (0,) * 6), (1, None), (1, ([1],) * 6))
    for fields in bad_native:
        with pytest.raises(RangeError):
            echo.NativeSample(*fields)
    for fields in ((-1, (0, 0, 0)), (0, (0, 0)), (0, (0, 0, 8)), (0, (0, 0, 0, 0)), (0.5,), (1, 5)):
        with pytest.raises(RangeError):
            echo.ForcedSample(*fields)
    # a digit must equal one of 0..7: numbers between them are refused
    with pytest.raises(RangeError, match="digits must be octal"):
        echo.NativeSample(0, (1.5, 0, 0, 0, 0, 0))
    with pytest.raises(RangeError, match="digits must be octal"):
        echo.ForcedSample(0, (Fraction(1, 2), 0, 0))


@given(st.one_of(st.integers(min_value=0, max_value=echo.POOL_TOTAL - 1), st.integers()))
def test_unpack_round_trips_or_raises(value):
    try:
        sample = echo.unpack_sample(value)
    except WorkbenchError:
        return
    pack = echo.pack_native if isinstance(sample, echo.NativeSample) else echo.pack_forced
    assert pack(sample).value == value


def test_unpack_accepts_code_points():
    point = scrambler.unpack_point(524288)
    sample = echo.unpack_sample(point)
    assert isinstance(sample, echo.ForcedSample)
    assert sample.position == 0 and sample.digits == (0, 0, 0)


def test_unpack_refuses_non_integers():
    for value in (1.5, "3", None, 3.0, Fraction(3), echo.NATIVE_POOL + 0.5):
        with pytest.raises(RangeError, match="code point must be an integer"):
            echo.unpack_sample(value)
    # a code point with a fractional root is refused where it would be built
    with pytest.raises(RangeError, match="root must be an integer"):
        scrambler.CodePoint(0.5, 0)
    # bools and numpy integers decode as the ints they equal
    for value in (0, 1, 5, (1 << 18) + 9, echo.NATIVE_POOL + 7, echo.POOL_TOTAL - 1):
        sample = echo.unpack_sample(value)
        assert echo.unpack_sample(np.int64(value)) == echo.unpack_sample(np.uint32(value)) == sample
        assert echo.unpack_sample(scrambler.unpack_point(value)) == sample
    assert echo.unpack_sample(True) == echo.unpack_sample(1)


def test_schedule_round_example():
    assert echo.schedule_round(16, 20, 2) == 4
    assert 2 * 16**4 <= 20**4
    assert 2 * 16**3 > 20**3
    assert echo.schedule_round(8, 16, 2) == 1
    with pytest.raises(echo.Infeasible):
        echo.schedule_round(16, 16, 2)
    with pytest.raises(echo.Infeasible):
        echo.schedule_round(4, 3, 2)
    with pytest.raises(RangeError):
        echo.schedule_round(1, 3, 2)
    with pytest.raises(RangeError):
        echo.schedule_round(2, 3, 1)


def test_schedule_round_minimality():
    started = time.perf_counter()
    rng = random.Random(0xEC40)
    cases = []
    for _ in range(10000):
        data = rng.randrange(2, 65)
        cases.append((data, rng.randrange(data + 1, 129), rng.randrange(2, 1000000)))
    # adjacent radices: a linear search needs 1711, 6912 and 24024 steps
    cases += [(300, 301, 297), (1000, 1001, 1000), (3000, 3001, 3000)]
    for data, capable, modulus in cases:
        count = echo.schedule_round(data, capable, modulus)
        assert modulus * data**count <= capable**count
        if count > 1:
            assert modulus * data ** (count - 1) > capable ** (count - 1)
    assert time.perf_counter() - started < 5.0


def test_round_plan_invariant():
    plan = echo.plan_round(16, 20, 2)
    assert plan.word_count == 4
    assert plan.cancellation == 2
    with pytest.raises(RangeError):
        echo.RoundPlan(16, 20, 2, 2, 3)
    with pytest.raises(RangeError):
        echo.RoundPlan(16, 20, 2, 1, 4)
    with pytest.raises(RangeError):
        echo.RoundPlan(16, 20, 2, 3, 4)
    with pytest.raises(RangeError, match="radices must be at least 2"):
        echo.RoundPlan(1, 20, 2, 2, 4)
    with pytest.raises(RangeError, match="a round spans at least one word"):
        echo.RoundPlan(16, 20, 2, 2, 0)


def test_rounds_past_the_bit_budget_are_refused():
    started = time.perf_counter()
    # 1151299 words of 17 bits; adjacent radices whose ratio underflows a float;
    # a modulus of 10^400000 over radices 2 and 3
    for args in ((10**5, 10**5 + 1, 10**5), (10**330, 10**330 + 1, 2), (2, 3, 10**400000)):
        with pytest.raises(SizeLimit):
            echo.plan_round(*args)
    with pytest.raises(SizeLimit):
        echo.RoundPlan(16, 20, 2, 2, 10**9)
    assert echo.plan_round(2, 3, 10**4000).word_count == 22716
    assert time.perf_counter() - started < 1.0


def test_event_resolution():
    assert echo.event_resolution() == (30.0, 15.0)
    assert echo.event_resolution(mii=True) == (40.0, 20.0)


def test_mock_round():
    assert echo.mock_round(2) == echo.MockRound(2, 1, 1)
    assert echo.mock_round(1).delay_bits == 0
    assert echo.mock_round(16).delay_bits == 4
    assert echo.mock_round(2).word_count == 1
    for bad in (0, 3, 12, -2):
        with pytest.raises(RangeError):
            echo.mock_round(bad)


def test_census_open_and_impossible():
    assert echo.image_filter_census() == 531441
    assert echo.image_filter_census(min_transits=13) == 0
    assert echo.image_filter_census(min_transits=12) == 0
    assert echo.image_filter_census(min_transits=11) > 0
    for threshold in ("max_head_droop", "max_tail_droop", "dc_bound", "min_transits"):
        with pytest.raises(RangeError):
            echo.image_filter_census(**{threshold: -4})
        for value in (None, "3", [1]):  # no order against a number
            with pytest.raises(RangeError, match="thresholds must be numbers"):
                echo.image_filter_census(**{threshold: value})


def test_census_monotone_in_every_threshold():
    heads = [echo.image_filter_census(max_head_droop=h) for h in range(1, 13)]
    assert heads == sorted(heads)
    tails = [echo.image_filter_census(max_tail_droop=t) for t in range(1, 13)]
    assert tails == sorted(tails)
    bounds = [echo.image_filter_census(dc_bound=b) for b in range(13)]
    assert bounds == sorted(bounds)
    floors = [echo.image_filter_census(min_transits=t) for t in range(13)]
    assert floors == sorted(floors, reverse=True)


@lru_cache(maxsize=1)
def feature_columns() -> dict[str, np.ndarray]:
    """Independent oracle: head, tail, dc and transits of every image by index."""
    rest = np.arange(echo.IMAGE_SPACE)
    trits = np.empty((echo.IMAGE_SPACE, echo.IMAGE_SYMBOLS), dtype=np.int8)
    for pos in range(echo.IMAGE_SYMBOLS - 1, -1, -1):
        trits[:, pos] = rest % 3
        rest //= 3
    jumps = trits[:, 1:] != trits[:, :-1]
    return {
        "head": 1 + (np.cumsum(jumps, axis=1) == 0).sum(axis=1),
        "tail": 1 + (np.cumsum(jumps[:, ::-1], axis=1) == 0).sum(axis=1),
        "dc": (trits.astype(np.int16) - 1).sum(axis=1),
        "transits": jumps.sum(axis=1),
    }


def image_profile(index):
    """Head run, tail run, dc sum and transits of one image, first symbol most significant."""
    levels = [index // 3**k % 3 - 1 for k in reversed(range(echo.IMAGE_SYMBOLS))]
    runs = [len(list(run)) for _, run in itertools.groupby(levels)]  # head run first, tail run last
    return runs[0], runs[-1], sum(levels), len(runs) - 1


def test_census_matches_scalar_profile():
    cols = feature_columns()
    radix = echo.IMAGE_SYMBOLS + 1  # every feature lies in [0, 12]
    codes = ((cols["head"] * radix + cols["tail"]) * radix + np.abs(cols["dc"])) * radix + cols["transits"]
    counts = np.bincount(codes)
    oracle = {}
    for code in np.flatnonzero(counts):
        rest, transits = divmod(int(code), radix)
        rest, dc = divmod(rest, radix)
        head, tail = divmod(rest, radix)
        oracle[head, tail, dc, transits] = int(counts[code])
    histogram = echo.image_features()
    assert histogram == oracle
    assert len(histogram) == 1882
    rng = random.Random(0x1A6E)
    for _ in range(300):
        index = rng.randrange(echo.IMAGE_SPACE)
        head, tail, dc, transits = image_profile(index)
        assert head == int(cols["head"][index])
        assert tail == int(cols["tail"][index])
        assert dc == int(cols["dc"][index])
        assert transits == int(cols["transits"][index])
        assert histogram[head, tail, abs(dc), transits] >= 1


def test_mean_transits_over_whole_space():
    transits = Counter()
    for (_, _, _, cell_transits), count in echo.image_features().items():
        transits[cell_transits] += count
    # eleven boundaries, each unequal with probability 2/3
    assert sum(t * n for t, n in transits.items()) * 3 == 22 * echo.IMAGE_SPACE
    assert transits == {t: 3 * 2**t * math.comb(11, t) for t in range(12)}


def test_selection_sweep():
    rows = echo.selection_sweep()
    assert [r["count"] for r in rows] == sorted(r["count"] for r in rows)
    assert rows[2]["count"] == 531441
    assert rows[0]["count"] < echo.POOL_TOTAL
    # the middle criteria row reproduces the pool size exactly under the
    # plain signed-sum reading of the unbalance bound
    assert rows[1]["count"] == 530432
    assert rows[1]["matches_pool"] is True
    assert rows[0]["count"] == 527378


def test_census_sharding_agrees():
    assert echo.image_filter_census(8, 8, 8, 2) == 530432
    assert echo.image_filter_census(7, 7, 7, 3) == 527378


def filter_census_oracle(max_head_droop, max_tail_droop, dc_bound, min_transits):
    """The generator sum over the feature cells: the reference for the dominance table."""
    return sum(
        count
        for (head, tail, dc, transits), count in echo.image_features().items()
        if head <= max_head_droop and tail <= max_tail_droop and dc <= dc_bound and transits >= min_transits
    )


def test_census_table_matches_the_feature_sum():
    # 0 admits nothing on a droop axis, 11..13 meet the clamp at IMAGE_SYMBOLS, 40 lies far past it
    for thresholds in itertools.product((0, 1, 2, 6, 11, 12, 13, 40), repeat=4):
        assert echo.image_filter_census(*thresholds) == filter_census_oracle(*thresholds)
    # a fractional threshold admits what the oracle's comparisons admit
    for thresholds in ((7.5, 8, 8.9, 2.5), (0.5, 12.5, Fraction(13, 2), Fraction(1, 3))):
        assert echo.image_filter_census(*thresholds) == filter_census_oracle(*thresholds)
    for at in range(4):  # a NaN bound is no threshold: refused as a negative one is
        with pytest.raises(RangeError, match="nonnegative"):
            echo.image_filter_census(*[math.nan if k == at else 6 for k in range(4)])


def counted_features() -> dict:
    """The image features by a Counter walk with the dc sum in the state: the oracle of the packed dc axis."""
    states = Counter({(level, 1, 0, level, 0): 1 for level in (-1, 0, 1)})
    for _ in range(echo.IMAGE_SYMBOLS - 1):
        grown = Counter()
        for (last, run, head, dc, transits), count in states.items():
            for level in (-1, 0, 1):
                if level == last:
                    grown[last, run + 1, head, dc + level, transits] += count
                else:
                    grown[level, 1, head or run, dc + level, transits + 1] += count
        states = grown
    cells = Counter()
    for (_, run, head, dc, transits), count in states.items():
        cells[head or run, run, abs(dc), transits] += count
    return dict(cells)


def listed_dominance(features: dict) -> list[int]:
    """Cell ((head * n + tail) * n + dc) * n + transits of the dominance table, one list entry a cell:
    suffix sums over transits, then prefix sums over |dc|, tail and head. The oracle of the packed rows."""
    n = echo.IMAGE_SYMBOLS + 1
    rows = {}
    for (head, tail, dc, transits), count in features.items():
        rows.setdefault((head * n + tail) * n + dc, [0] * n)[transits] = count
    table = [0] * n**4
    for row, counts in rows.items():
        table[row * n : row * n + n] = reversed(list(itertools.accumulate(reversed(counts))))
    for stride in (n, n**2, n**3):
        for block in range(0, n**4, stride * n):
            for low in range(block + stride, block + stride * n, stride):
                table[low : low + stride] = map(operator.add, table[low : low + stride], table[low - stride : low])
    return table


def test_packed_features_match_the_counter_walk():
    features = counted_features()
    assert dict(echo.image_features()) == features
    assert sum(features.values()) == echo.IMAGE_SPACE


def test_packed_dominance_matches_the_listed_table_at_every_cell():
    table = listed_dominance(counted_features())
    thresholds = itertools.product(range(echo.IMAGE_SYMBOLS + 1), repeat=4)
    assert [echo.image_filter_census(*cell) for cell in thresholds] == table
    assert table[-echo.IMAGE_SYMBOLS - 1] == echo.IMAGE_SPACE  # every image under the loosest thresholds
