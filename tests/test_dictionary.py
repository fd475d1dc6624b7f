"""Image enumeration, census, pages, stream codec, page chain."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamcode import dictionary
from lamcode.dictionary import (
    BALANCED,
    MASKS,
    PATTERNS,
    UNIT_BIAS,
    EmptyPage,
    ImageFilter,
    SizeLimit,
    build_pages,
    census,
    count_valid,
    decode_stream,
    encode_stream,
    enumerate_valid,
    fibonacci,
    filter_for_data_bits,
    multiplex_feasible,
    next_page,
    page_sizes,
    paged_codec,
    pattern_of,
    position_jump_probability,
)
from lamcode.errors import RangeError, WorkbenchError
from lamcode.manchester import J, K, check_letters, metrics
from lamcode.paging import CodeOutOfRange, PageMiss, Reducible, stationary_distribution


def mask_of(letters: str) -> str:
    """An image's first and last letter: the oracle of the census masks."""
    if not letters:
        raise RangeError("empty image has no mask")
    return letters[0] + letters[-1]


def brute_force_census(m: int) -> Counter:
    """Independent route: scan all 2^m letter masks bit by bit."""
    counts: Counter = Counter()
    for v in range(1 << m):  # bit i set means letter i is K
        if v & (v >> 1):
            continue
        if v & 1 and (v >> (m - 1)) & 1:
            continue
        letters = "".join(K if (v >> i) & 1 else J for i in range(m))
        counts[mask_of(letters)] += 1
    return counts


def test_counts_match_brute_force():
    for m in range(2, 15):
        images = enumerate_valid(m)
        expected = brute_force_census(m)
        assert len(images) == sum(expected.values()) == count_valid(m)
        got = Counter(image.mask for image in images)
        assert got == expected


def test_counts_are_fibonacci():
    for m in range(2, 25):
        assert count_valid(m) == fibonacci(m) + 2 * fibonacci(m - 1)
    by_mask = Counter(image.mask for image in enumerate_valid(20))
    assert len(enumerate_valid(20)) == 15_127
    assert by_mask["JJ"] == 6_765
    assert by_mask["JK"] == by_mask["KJ"] == 4_181


def test_smallest_case():
    assert [i.letters for i in enumerate_valid(2)] == ["JJ", "JK", "KJ"]
    assert len(enumerate_valid(8)) == 47


def test_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_valid(25)
    with pytest.raises(SizeLimit):
        enumerate_valid(1)


def test_fibonacci_index_is_bounded_like_the_image_length():
    assert fibonacci(dictionary.MAX_IMAGE_LENGTH) == 46_368
    for index in (dictionary.MAX_IMAGE_LENGTH + 1, 10**400):  # 10**400 looped without bound
        with pytest.raises(SizeLimit, match="fibonacci index"):
            fibonacci(index)
    with pytest.raises(RangeError):
        fibonacci(2.5)


def test_a_filter_that_is_not_an_image_filter_is_refused():
    # each was an AttributeError, or a TypeError from the codec cache for an unhashable one
    calls = (
        lambda: build_pages(8, "x"),
        lambda: page_sizes(8, "x"),
        lambda: census(8, 3),
        lambda: paged_codec(8, [1, 2]),
        lambda: encode_stream([0], 8, "x"),
        lambda: decode_stream("J" * 8, 8, (1, False, 0, None)),  # the fields of a filter, not one
    )
    for call in calls:
        with pytest.raises(RangeError, match="must be an ImageFilter"):
            call()
    assert paged_codec(8, None) is paged_codec(8)  # None stays the default


def test_bias_classes_and_filters_read_their_arguments_as_ints():
    # pattern_of(None) and a bias-bounded filter's admits("x", ...) raised untyped TypeErrors, the balanced
    # filter said False to "x", and float footprints were judged as numbers
    strict = ImageFilter(max_abs_bias=1, min_transits=2, max_droop=2)
    for call in (
        lambda: pattern_of(None),
        lambda: pattern_of(0.0),
        lambda: UNIT_BIAS.admits("x", 1, 1),
        lambda: BALANCED.admits("x", 1, 1),
        lambda: BALANCED.admits(0, 3.0, 1),
        lambda: strict.admits(0, 3, float("nan")),
        lambda: ImageFilter().admits(0, 0, None),
    ):
        with pytest.raises(RangeError, match="must be an integer"):
            call()
    assert pattern_of(np.int64(-1)) == "unit" and pattern_of(True) == "unit"
    assert strict.admits(np.int8(1), np.int64(2), np.uint8(2)) and not strict.admits(np.int64(2), 2, 2)


def test_images_are_valid_and_sorted():
    for m in range(2, 17):
        images = enumerate_valid(m)
        letters = [i.letters for i in images]
        assert letters == sorted(letters)
        for image in images:
            check_letters(image.letters)  # no KK
            assert image.mask == mask_of(image.letters) != "KK"
            measured = metrics(image.letters)
            assert image.bias == measured.dc_bias
            assert image.transits == measured.transit_count
            assert image.droop == max(measured.head_run, measured.tail_run)
            assert image.pattern == pattern_of(image.bias)


def automaton_walk(m: int, head: int):
    """The valid images of length m, as end states of the no-KK automaton: the oracle of the opening split.

    A transfer-matrix count: the state is the first `head` letters, the last
    letter, the line level (-1 for L, +1 for H), the bias and the transits so
    far. J toggles the level and counts a transit, K holds it and adds it to
    the bias, and no K follows a K. With head = m each state is one word,
    reached in lexicographic order (J before K). Yields (prefix, mask, bias,
    transits, droop, count); words anchored by K at both ends are dropped,
    and the droop is 2 when the second or the last letter is K, else 1.
    """
    states = Counter({("", "", -1, 0, 0): 1})
    for _ in range(m):
        grown = Counter()
        for (prefix, last, level, bias, transits), count in states.items():
            grown[(prefix + J)[:head], J, -level, bias, transits + 1] += count
            if last != K:
                grown[(prefix + K)[:head], K, level, bias + level, transits] += count
        states = grown
    for (prefix, last, _, bias, transits), count in states.items():
        if prefix[0] == K == last:
            continue
        droop = 2 if K in (prefix[1], last) else 1
        yield prefix, prefix[0] + last, bias, transits, droop, count


def test_openings_match_the_automaton_walk():
    # the listing (each word's cell and their order) and the census histogram, at every accepted length
    for m in range(2, dictionary.MAX_IMAGE_LENGTH + 1):
        cells, rows = dictionary._listing(m)
        assert all(before < after for (before, _), (after, _) in zip(rows, rows[1:]))
        assert all(letters[0] == K == letters[-1] for letters, state in rows if cells[state] is None)
        assert tuple((letters, *cells[state]) for letters, state in rows if cells[state]) == tuple(
            (letters, mask, bias, pattern_of(bias), transits, droop)
            for letters, mask, bias, transits, droop, _ in automaton_walk(m, m)
        )
        histogram = Counter()
        for _, mask, bias, transits, droop, count in automaton_walk(m, 2):
            histogram[mask, bias, transits, droop] += count
        assert dict(dictionary.image_histogram(m)) == dict(histogram)


def test_census_pinned_cells():
    c8 = census(8, UNIT_BIAS)
    assert c8["JJ"]["balanced"] == 7
    assert c8["JJ"]["balanced"] + c8["JJ"]["unit"] == 17
    c16 = census(16, BALANCED)
    assert c16["JJ"]["balanced"] + c16["JK"]["balanced"] == 376
    c12 = census(12, UNIT_BIAS)
    page_jj = c12["JJ"]["balanced"] + c12["JJ"]["unit"]
    page_jk = c12["JK"]["balanced"] + c12["JK"]["unit"]
    assert (page_jj, page_jk) == (103, 59)


def test_census_partitions_the_valid_set():
    unfiltered = census(10)
    total = sum(sum(row.values()) for row in unfiltered.values())
    assert total == count_valid(10)


def test_filter_monotone():
    sizes = []
    for bound in range(0, 4):
        c = census(10, ImageFilter(max_abs_bias=bound))
        sizes.append(sum(sum(row.values()) for row in c.values()))
    assert sizes == sorted(sizes)
    loose = census(10, ImageFilter(min_transits=0))
    tight = census(10, ImageFilter(min_transits=4))
    for mask in MASKS:
        for pattern, n in tight[mask].items():
            assert n <= loose[mask][pattern]


@lru_cache(maxsize=None)
def bitmask_features(m: int) -> tuple[tuple[str, int, int, int], ...]:
    """(mask, bias, transits, droop) of each valid image, scanning all 2^m
    masks: K is a 1 bit, letter 0 the top bit, the line starts low (-1)."""
    top = 1 << (m - 1)
    rows = []
    for v in range(1 << m):
        if v & (v >> 1) or (v & top and v & 1):
            continue
        level = -1
        bias = transits = 0
        for bit in range(m - 1, -1, -1):
            if (v >> bit) & 1:
                bias += level
            else:
                level = -level
                transits += 1
        droop = 2 if v & (top >> 1) or v & 1 else 1
        mask = "KJ" if v & top else "JK" if v & 1 else "JJ"
        rows.append((mask, bias, transits, droop))
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.builds(
        ImageFilter,
        max_abs_bias=st.none() | st.integers(min_value=0, max_value=9),
        balanced_only=st.booleans(),
        min_transits=st.integers(min_value=0, max_value=17),
        max_droop=st.none() | st.integers(min_value=0, max_value=3),
    ),
)
def test_census_matches_bitmask_brute_force(m, image_filter):
    expected = {mask: {pattern: 0 for pattern in PATTERNS} for mask in MASKS}
    for mask, bias, transits, droop in bitmask_features(m):
        if image_filter.balanced_only and bias:
            continue
        if image_filter.max_abs_bias is not None and abs(bias) > image_filter.max_abs_bias:
            continue
        if transits < image_filter.min_transits:
            continue
        if image_filter.max_droop is not None and droop > image_filter.max_droop:
            continue
        expected[mask][PATTERNS[min(abs(bias), 2)]] += 1
    assert census(m, image_filter) == expected


def test_page_sizes():
    for m, image_filter, size in [
        (4, UNIT_BIAS, 5),
        (8, UNIT_BIAS, 27),
        (12, UNIT_BIAS, 162),
        (16, BALANCED, 376),
    ]:
        a, b = build_pages(m, image_filter)
        assert len(a) == len(b) == size


def test_page_sizes_match_listed_pages():
    for m in range(2, 25, 2):
        filters = (
            UNIT_BIAS,
            BALANCED,
            filter_for_data_bits(m // 2),
            ImageFilter(min_transits=m // 4, max_droop=1),
        )
        for image_filter in filters:
            a, b = build_pages(m, image_filter)
            assert page_sizes(m, image_filter) == (len(a), len(b)), (m, image_filter)


def test_page_structure():
    a, b = build_pages(8, UNIT_BIAS)
    assert all(w[0] == J for w in a)
    assert all(w[-1] == J for w in b)
    assert list(a) == sorted(a)


def test_page_reversal_symmetry():
    for m in (4, 8, 12):
        a, b = build_pages(m, UNIT_BIAS)
        assert {w[::-1] for w in a} == set(b)
        for w in a:
            assert abs(metrics(w).dc_bias) == abs(metrics(w[::-1]).dc_bias)


def test_empty_page():
    with pytest.raises(EmptyPage):
        build_pages(4, ImageFilter(min_transits=100))
    with pytest.raises(EmptyPage):
        page_sizes(4, ImageFilter(min_transits=100))


def test_next_page():
    assert next_page("JKJKJKJK") == "A"
    assert next_page("JJJJJJJJ") == "B"


def test_no_kk_across_any_page_boundary():
    a, b = build_pages(8, UNIT_BIAS)
    pages = {"A": a, "B": b}
    for page in pages.values():
        for word in page:
            for successor in pages[next_page(word)]:
                check_letters(word + successor)


def test_codec_round_trip():
    rng = random.Random(0xD1C7)
    nibbles = [rng.randrange(16) for _ in range(10_000)]
    stream = encode_stream(nibbles, 8)
    assert len(stream) == 8 * len(nibbles)
    check_letters(stream)  # globally KK-free
    assert decode_stream(stream, 8) == nibbles


def test_codec_empty():
    assert encode_stream([], 8) == ""
    assert decode_stream("", 8) == []


def test_codec_value_out_of_range():
    with pytest.raises(CodeOutOfRange):
        encode_stream([27], 8)
    encode_stream([26], 8)  # page A has exactly 27 words


def test_codec_detects_corruption():
    stream = encode_stream([3, 5, 7], 8)
    # the opening word comes from the J-starting page; forging a K start
    # guarantees a page miss at the affected word
    corrupted = K + stream[1:]
    with pytest.raises(PageMiss):
        decode_stream(corrupted, 8)
    with pytest.raises(PageMiss):
        decode_stream(stream[:-1], 8)  # torn word


def test_codec_bias_stays_bounded():
    rng = random.Random(7)
    values = [rng.randrange(16) for _ in range(500)]
    stream = encode_stream(values, 8)
    assert abs(metrics(stream).dc_bias) <= len(values) + 2


def test_multiplex_feasibility():
    assert [multiplex_feasible(m) for m in range(1, 13)] == [False] + [True] * 11
    for m in (0, 13):
        with pytest.raises(RangeError):
            multiplex_feasible(m)
    a, _ = build_pages(4, filter_for_data_bits(2))
    assert len(a) == 5  # exactly 2^2 + 1


def two_page(p_a, p_b):
    """Stationary vector of the chain that stays in state 0 with odds p_a and enters it from 1 with odds p_b."""
    return stationary_distribution(((p_a, 1 - p_a), (p_b, 1 - p_b)))


def test_stationary_examples():
    q = Fraction(1, 3)
    assert two_page(q, q) == (q, 1 - q)
    pa, pb = two_page(Fraction(1, 2), Fraction(1, 4))
    assert (pa, pb) == (Fraction(1, 3), Fraction(2, 3))
    # both pages absorb: two closed classes
    with pytest.raises(Reducible):
        two_page(1, 0)
    # the period-two alternation has one fixed point
    assert two_page(0, 1) == (Fraction(1, 2), Fraction(1, 2))
    # entries are read as exact ratios: a float chain is answered in Fractions of the floats given
    assert two_page(0.5, 0.25) == (Fraction(1, 3), Fraction(2, 3))
    assert all(type(share) is Fraction for share in two_page(0.375, 0.625))
    with pytest.raises(RangeError):
        two_page(Fraction(3, 2), Fraction(1, 2))
    # a float row is read exactly: 0.3 + 0.7 and 0.1 + 0.9 are 1 as floats but not as the ratios solved
    for p_a in (0.3, 0.1):
        with pytest.raises(RangeError, match="row 0 of the chain is not a probability vector"):
            two_page(p_a, 0.5)


PROBABILITIES = st.one_of(st.sampled_from((Fraction(0), Fraction(1))), st.fractions(0, 1, max_denominator=1000))


@given(PROBABILITIES, PROBABILITIES)
def test_stationary_matches_closed_form(p_a, p_b):
    # the source's fixed-point equation is the oracle; an absorbing page leaves a
    # transient one or a second closed class, and either is Reducible
    if p_a == 1 or p_b == 0:
        with pytest.raises(Reducible):
            two_page(p_a, p_b)
        return
    share_a = p_b / (1 - p_a + p_b)
    assert two_page(p_a, p_b) == (share_a, 1 - share_a)


DYADIC = st.integers(103, 921).map(lambda k: k / 1024)  # in [0.1, 0.9], and 1 - p is exact


@given(DYADIC, DYADIC)
def test_stationary_matches_power_iteration(p_a, p_b):
    got_a, got_b = two_page(p_a, p_b)
    va, vb = 0.5, 0.5
    for _ in range(400):
        va, vb = va * p_a + vb * p_b, va * (1 - p_a) + vb * (1 - p_b)
    assert got_a == pytest.approx(va, abs=1e-12)
    assert got_b == pytest.approx(vb, abs=1e-12)
    assert got_a + got_b == pytest.approx(1)


@pytest.mark.parametrize("m, stay_a", [(8, Fraction(10, 27)), (12, Fraction(59, 162)), (16, Fraction(143, 376))])
def test_jk_page_chain_is_absorbing(m, stay_a):
    # uniform codes on the codec's pages: a K-ending word keeps page A, and
    # page B words all end in J, so page B absorbs and page A is transient
    codec = paged_codec(m)
    rows = []
    for page in "AB":
        shares = dict.fromkeys("AB", Fraction(0))
        successors = codec.successors[page]
        for after in successors:
            shares[after] += Fraction(1, len(successors))
        rows.append(tuple(shares.values()))
    assert rows == [(stay_a, 1 - stay_a), (0, 1)]
    with pytest.raises(Reducible, match=r"transient states \[0\]"):
        stationary_distribution(rows)


def test_jump_probability_forced_positions():
    pages = build_pages(8, UNIT_BIAS)
    assert position_jump_probability(pages, 0, mask="JJ") == 1
    assert position_jump_probability(pages, 7, mask="JJ") == 1
    assert position_jump_probability(pages, 0, mask="KJ") == 0
    assert position_jump_probability(pages, 1, mask="KJ") == 1
    assert position_jump_probability(pages, 6, mask="JK") == 1
    assert position_jump_probability(pages, 7, mask="JK") == 0


def test_jump_probability_interior():
    pages = build_pages(8, UNIT_BIAS)
    p = position_jump_probability(pages, 1, mask="JJ")
    assert p.denominator == 17
    assert Fraction(6, 10) <= p <= Fraction(9, 10)
    # union deduplicates the shared J..J words
    total = position_jump_probability(pages, 0)
    union_size = total.denominator
    assert union_size == len(set(pages[0]) | set(pages[1]))


def jump_oracle(pages, i, mask=None):
    """The set-comprehension count, kept as the reference for the shared census."""
    union = {word for page in pages for word in page}
    if mask is not None:
        union = [word for word in union if mask_of(word) == mask]
    if not union:
        raise EmptyPage("no words to sample")
    length = len(next(iter(union)))
    if not 0 <= i < length:
        raise RangeError(f"position must lie in [0, {length})")
    return Fraction(sum(word[i] == J for word in union), len(union))


def _outcome(call):
    try:
        return call()
    except WorkbenchError as exc:
        return type(exc), str(exc)


@st.composite
def equal_width_pages(draw, alphabet="JK"):
    width = draw(st.integers(0, 6))
    pool = draw(st.lists(st.text(alphabet=alphabet, min_size=width, max_size=width), min_size=1, max_size=6))
    # pages drawn from a small pool repeat words within and across pages
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=3))


@settings(max_examples=200, deadline=None)
@given(
    pages=equal_width_pages(),
    shape=st.sampled_from(["tuple", "list", "generator"]),
    i=st.integers(-2, 8),
    mask=st.sampled_from([None, "JJ", "JK", "KJ", "KK", "J", "JKJ", ["JJ"]]),
)
def test_jump_probability_matches_oracle(pages, shape, i, mask):
    def shaped():
        if shape == "tuple":
            return tuple(map(tuple, pages))
        if shape == "list":
            return [list(page) for page in pages]
        return [iter(page) for page in pages]

    expected = _outcome(lambda: jump_oracle(pages, i, mask))
    assert _outcome(lambda: position_jump_probability(shaped(), i, mask)) == expected
    # a second call reads the cached census and answers the same
    assert _outcome(lambda: position_jump_probability(shaped(), i, mask)) == expected


@settings(max_examples=200, deadline=None)
@given(
    pages=equal_width_pages("JKX"),
    i=st.integers(-1, 7),
    mask=st.sampled_from([None, "JJ", "KJ", "XJ", "JX", "XX", "KX", "X", "XJX"]),
)
def test_jump_census_groups_every_letter_by_mask(pages, i, mask):
    # letters other than J and K count as not-J and still open or close a mask of their own
    shaped = tuple(map(tuple, pages))
    expected = _outcome(lambda: jump_oracle(pages, i, mask))
    assert _outcome(lambda: position_jump_probability(shaped, i, mask)) == expected
    assert _outcome(lambda: position_jump_probability([list(page) for page in pages], i, mask)) == expected


def test_jump_probability_refuses_mixed_widths():
    for i in (0, 2):
        with pytest.raises(RangeError, match=r"mixed widths \[2, 3\]"):
            position_jump_probability((("JJ",), ("JJJ",)), i)


def test_jump_probability_sees_mutated_list_page():
    page = ["JJJ", "JKJ"]
    pages = [page, ["JJJ"]]
    assert position_jump_probability(pages, 1) == Fraction(1, 2)
    with pytest.raises(EmptyPage):
        position_jump_probability(pages, 1, mask="JK")
    page.append("JJK")
    assert position_jump_probability(pages, 1) == Fraction(2, 3)
    assert position_jump_probability(pages, 1, mask="JK") == 1


def test_jump_census_once_per_page_set(monkeypatch):
    # every (position, mask) call on one page set reads one census
    built = []
    count_letters = dictionary._jump_census.__wrapped__

    def census(pages):
        built.append(pages)
        return count_letters(pages)

    monkeypatch.setattr(dictionary, "_jump_census", lru_cache(maxsize=4)(census))
    for m in (8, 12, 16):
        pages = build_pages(m, filter_for_data_bits(m // 2))
        cells = [(i, mask) for i in range(m) for mask in ("JJ", "JK", "KJ", None)]
        assert [position_jump_probability(pages, *cell) for cell in cells] == [jump_oracle(pages, *cell) for cell in cells]
    assert len(built) == 3


def test_jump_reuses_the_census_of_the_same_page_tuples(monkeypatch):
    # the same tuple objects skip the content key; equal new tuples and lists take it
    keyed = []
    count_letters = dictionary._jump_census.__wrapped__
    monkeypatch.setattr(dictionary, "_jump_census", lambda pages: keyed.append(pages) or count_letters(pages))
    pages = build_pages(12, filter_for_data_bits(6))
    assert [position_jump_probability(pages, i) for i in range(12)] == [jump_oracle(pages, i) for i in range(12)]
    assert len(keyed) == 1
    position_jump_probability(tuple(tuple(page) for page in build_pages(12, filter_for_data_bits(6))), 0)
    position_jump_probability([list(page) for page in pages], 0)
    position_jump_probability([list(page) for page in pages], 0)
    assert len(keyed) == 4


def test_decode_stream_bad_length_is_size_limit():
    with pytest.raises(SizeLimit):
        decode_stream("", 0, UNIT_BIAS)


@given(
    text=st.text(alphabet="JKx", max_size=24),
    m=st.sampled_from([0, 1, 2, 3, 4, 8, 25]),
    image_filter=st.sampled_from([None, UNIT_BIAS, BALANCED]),
    state=st.sampled_from("ABC"),
)
def test_paged_decoder_round_trips_or_raises(text, m, image_filter, state):
    # any letter string from any page state, "C" and "x" being foreign
    try:
        codec = paged_codec(m, image_filter)
        values, _ = codec.decode(text, state)
    except WorkbenchError:
        return
    assert codec.encode(values, state)[0] == text
