"""The paged codec's chained tables against the tuple-keyed walk they replace,
and the integer stationary solve against the Fraction Gauss-Jordan it replaces."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lamcode import dictionary, ternary
from lamcode.errors import RangeError
from lamcode.paging import CodeOutOfRange, PageMiss, Reducible, stationary_distribution

STREAM_WORDS = 200


# --- the oracle: one (state, code) or (state, word) lookup per symbol ----


class TupleKeyed:
    """The walk over one (state, code)-keyed table, built from the pages it is given."""

    def __init__(self, pages):
        self.pages = pages
        self.forward = {(s, code): entry for s, page in pages.items() for code, entry in enumerate(page)}
        self.inverse = {(s, word): (code, nxt) for (s, code), (word, nxt) in self.forward.items()}
        self.width = len(next(iter(self.forward.values()))[0])

    def _check_state(self, state):
        if state not in self.pages:
            raise RangeError(f"state {state!r} outside pages {tuple(self.pages)}")

    def encode(self, codes, state):
        self._check_state(state)
        words = []
        for code in codes:
            try:
                word, state = self.forward[state, code]
            except KeyError:
                raise CodeOutOfRange(f"code {code} outside page {state} of {len(self.pages[state])} words") from None
            words.append(word)
        return "".join(words), state

    def decode(self, text, state):
        self._check_state(state)
        if len(text) % self.width:
            raise PageMiss("stream length is not a whole number of words")
        codes = []
        for start in range(0, len(text), self.width):
            word = text[start : start + self.width]
            try:
                code, state = self.inverse[state, word]
            except KeyError:
                raise PageMiss(f"word {word!r} not in page {state}") from None
            codes.append(code)
        return codes, state


def _outcome(call):
    """The result of a call, or the class and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def _jk_pages(m, image_filter):
    """The J/K pages that `dictionary.paged_codec` is built from, listed here again."""
    if image_filter is None:
        image_filter = dictionary.filter_for_data_bits(m // 2)
    pages = zip("AB", dictionary.build_pages(m, image_filter))
    return {page: [(word, dictionary.next_page(word)) for word in words] for page, words in pages}


def _pam3_pages(variant):
    """The PAM-3 pages that `ternary.paged_codec` is built from: each word moves the disparity by its sum."""
    book = ternary.dictionary_for(variant)
    return {p.sigma: [(e.word.symbols, p.sigma + e.word.delta_dc) for e in p.entries] for p in book.pages}


CODECS = [
    pytest.param(lambda m=m, f=f: (dictionary.paged_codec(m, f), _jk_pages(m, f)), id=f"m{m}-{name}")
    for m in (2, 4, 8, 12, 16)
    for name, f in (("unit", dictionary.UNIT_BIAS), ("balanced", dictionary.BALANCED), ("default", None))
] + [pytest.param(lambda v=variant: (ternary.paged_codec(v), _pam3_pages(v)), id=variant) for variant in ternary.VARIANTS]


def _stream(oracle, rng, state, count):
    codes = []
    for _ in range(count):
        code = rng.randrange(len(oracle.pages[state]))
        codes.append(code)
        state = oracle.forward[state, code][1]
    return codes


@pytest.mark.parametrize("build", CODECS)
def test_chained_tables_match_the_tuple_keyed_walk(build):
    codec, pages = build()
    oracle = TupleKeyed(pages)
    assert list(codec.successors) == list(pages) and codec.width == oracle.width
    rng = random.Random(20)
    for state in pages:
        codes = _stream(oracle, rng, state, STREAM_WORDS)
        text, end = codec.encode(codes, state)
        assert (text, end) == oracle.encode(codes, state)
        assert codec.decode(text, state) == oracle.decode(text, state) == (codes, end)
        assert codec.encode([], state) == ("", state) and codec.decode("", state) == ([], state)
        # a code past its page, a negative one, a torn stream and a foreign word, each somewhere inside
        at = rng.randrange(STREAM_WORDS)
        for bad in (len(pages[state]) + rng.randrange(3), -1):
            spoiled = codes[:at] + [bad] + codes[at:]
            for probe in (spoiled, [bad] * 2):
                expected = _outcome(lambda: oracle.encode(probe, state))
                assert _outcome(lambda: codec.encode(probe, state)) == expected
        edge = at * codec.width
        for probe in (text[: edge + 1], text[:edge] + "?" * codec.width + text[edge:]):
            expected = _outcome(lambda: oracle.decode(probe, state))
            assert _outcome(lambda: codec.decode(probe, state)) == expected
    for state in ("Z", 99, None):
        expected = _outcome(lambda: oracle.encode([0], state))
        assert expected[0] is RangeError
        assert _outcome(lambda: codec.encode([0], state)) == expected
        assert _outcome(lambda: codec.decode("", state)) == _outcome(lambda: oracle.decode("", state))


def test_every_foreign_word_is_a_page_miss():
    # each word of the union, received from each page it is not in, names the page it missed
    codec = dictionary.paged_codec(8, dictionary.UNIT_BIAS)
    pages = _jk_pages(8, dictionary.UNIT_BIAS)
    oracle = TupleKeyed(pages)
    union = {word for page in pages.values() for word, _ in page}
    for state, page in pages.items():
        for word in sorted(union - {word for word, _ in page}):
            expected = _outcome(lambda: oracle.decode(word, state))
            assert expected == (PageMiss, f"word {word!r} not in page {state}")
            assert _outcome(lambda: codec.decode(word, state)) == expected


def test_wrong_type_arguments_are_refused():
    codec = ternary.paged_codec()
    for codes in (None, 5, 1.5, object()):
        with pytest.raises(RangeError, match="codes must be an iterable of integers, not"):
            codec.encode(codes, ternary.START_SIGMA)
    for code in ([1, 2], {}, None, "3", 1.5):
        with pytest.raises(CodeOutOfRange, match=re.escape(f"code {code} outside page {ternary.START_SIGMA} of")):
            codec.encode([code], ternary.START_SIGMA)
    for text in (None, 5, b"LzH", ["LzH"], ()):
        with pytest.raises(RangeError, match=f"text must be a str, not {type(text).__name__}"):
            codec.decode(text, ternary.START_SIGMA)
    # integer-like codes still find their word, and an iterator is read once
    assert codec.encode(iter([True, 0]), ternary.START_SIGMA) == codec.encode([1, 0], ternary.START_SIGMA)


@pytest.mark.parametrize("module, args", [(ternary, ()), (dictionary, (8,))], ids=("ternary", "dictionary"))
def test_non_integer_and_negative_codes_are_refused(module, args):
    # the code-keyed encode dict found 2.0 and Fraction(3) by their equal hash and sent the words of 2 and 3;
    # a list indexed by code would read a negative code from its end
    for codes in ([2.0, 1], [Fraction(3)], [-1], [1, -1], [np.float64(2.0)], [np.array([1, 2])]):
        with pytest.raises(CodeOutOfRange):
            module.encode_stream(codes, *args)
    assert module.encode_stream(np.array([2, 1]), *args) == module.encode_stream([2, 1], *args)
    assert module.encode_stream([np.int64(2), np.uint8(1)], *args) == module.encode_stream([2, 1], *args)


def test_unhashable_state_is_an_unknown_state():
    # the refusal of any state that names no page, not a bare TypeError from the lookup
    codec = ternary.paged_codec()
    for call in (
        lambda: codec.encode([0], [1, 2]),
        lambda: codec.decode("", [1, 2]),
    ):
        assert _outcome(call) == (RangeError, "state [1, 2] outside pages (1, 2, 3, 4)")


def test_non_square_or_empty_chain_is_refused():
    # each was answered before: a Reducible verdict, a vector that ignored the third column, and ()
    for matrix in (((1,), (1,)), ((0, 1, 0), (1, 0, 0)), ()):
        with pytest.raises(RangeError, match="the chain must be a nonempty square matrix"):
            stationary_distribution(matrix)


# --- the oracle of the stationary solve: Gauss-Jordan, one Fraction at a time ----


def gauss_jordan_stationary(matrix):
    for i, row in enumerate(matrix):
        if any(p < 0 for p in row) or sum(row) != 1:
            raise RangeError(f"row {i} of the chain is not a probability vector")
    n = len(matrix)
    rows = []
    for j in range(n - 1):
        row = [matrix[i][j] - (Fraction(1) if i == j else Fraction(0)) for i in range(n)]
        rows.append(row + [Fraction(0)])
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise Reducible("chain splits into several closed components")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    pi = tuple(rows[i][n] for i in range(n))
    transient = [i for i, share in enumerate(pi) if share == 0]
    if transient:
        raise Reducible(f"chain has transient states {transient}")
    return pi


@st.composite
def chains(draw):
    """Rows of n = 1..6 states, about half of their entries zero; a row's shares are its integer weights over their sum."""
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0), st.integers(1, 9))
    rows = draw(st.lists(st.lists(weight, min_size=n, max_size=n).filter(any), min_size=n, max_size=n))
    return tuple(tuple(Fraction(w, sum(row)) for w in row) for row in rows)


HALF, ONE, ZERO = Fraction(1, 2), Fraction(1), Fraction(0)


@given(chains())
@example(((ZERO, ONE), (ONE, ZERO)))  # periodic
@example(((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ZERO, ZERO)))  # periodic, period three
@example(((HALF, HALF), (ZERO, ONE)))  # state 0 transient
@example(((ONE, ZERO, ZERO), (HALF, ZERO, HALF), (ZERO, ZERO, ONE)))  # two closed classes
@example(((1, 0), (0, 1)))  # plain integers, two closed classes
@example(((0, 1), (Fraction(1, 3), Fraction(2, 3))))
def test_integer_solve_matches_gauss_jordan(matrix):
    # the reprs match too, so every share is a Fraction, as the oracle's are
    expected = _outcome(lambda: gauss_jordan_stationary(matrix))
    assert repr(_outcome(lambda: stationary_distribution(matrix))) == repr(expected)
