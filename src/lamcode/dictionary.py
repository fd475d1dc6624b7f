"""Valid serial images and switched page dictionaries.

A transport word is a fixed-length letter string with no KK run; words
anchored by K at both ends are excluded outright so that any word can
legally follow a J-ending word. The remaining three mask classes count
Fibonacci-style: F(M) words of mask J..J plus F(M-1) each of J..K and
K..J, F(1) = F(2) = 1.

Words are served from two equal-size pages switched by the boundary
letter of the previous word: page A holds the J-starting masks (legal
after anything, mandatory after K), page B holds the J-ending masks.
Page B words all end in J, so page B absorbs and page A is transient.
Bias filters narrow a page to its DC-safe subset before the stream
codec maps ordinal values onto words.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from operator import is_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import paging
from .errors import RangeError, SizeLimit, WorkbenchError
from .manchester import J, K
from .manchester import metrics  # noqa: F401 - benchmarks/tracer.py patches dictionary.metrics
from .record import Record, integer

MAX_IMAGE_LENGTH = 24
MASKS = ("JJ", "JK", "KJ")
PATTERNS = ("balanced", "unit", "other")


class EmptyPage(WorkbenchError, ValueError):
    """A filter admitted no words for one of the pages."""


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1 indexing; F(0) = 0. The index is read as an int, at most MAX_IMAGE_LENGTH."""
    n = integer("fibonacci index", n)
    if n < 0:
        raise RangeError("fibonacci index must be nonnegative")
    if n > MAX_IMAGE_LENGTH:
        raise SizeLimit(f"fibonacci index must be at most {MAX_IMAGE_LENGTH}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pattern_of(bias: int) -> str:
    if bias == 0:
        return "balanced"
    if abs(bias) == 1:
        return "unit"
    return "other"


class ValidImage(Record):
    """One transport word with its mask, bias classification and footprint."""

    letters: str
    mask: str
    bias: int  # at initial line level L
    pattern: str
    transits: int
    droop: int  # the longer of the head and the tail run


def check_length(m: int) -> int:
    m = integer("image length", m)
    if not 2 <= m <= MAX_IMAGE_LENGTH:
        raise SizeLimit(f"image length must lie in [2, {MAX_IMAGE_LENGTH}]")
    return m


# Every no-KK word is J or KJ before a shorter one. Read from the low level,
# J negates the rest's bias and counts a transit; a leading K adds -1 first.
_OPENINGS = ((J, 0), (K + J, -1))  # (opening, the bias it adds to the negated rest)


def _ends(head: str, last: str) -> tuple[tuple[str, int], ...]:
    """The (mask, droop) of a word from its first two letters and its last, none for a K..K word;
    the droop is 2 when the second or the last letter is K, else 1."""
    return () if head[0] == K == last else ((head[0] + last, 2 if K in (head[1], last) else 1),)


@lru_cache(maxsize=8)
def _listing(m: int) -> tuple[tuple[tuple[str, int, str, int, int] | None, ...], tuple[tuple[str, int], ...]]:
    """The valid images of length m, an int checked by the caller, as (cells, rows), no record built. A state
    is (first two letters, last letter, bias, transits): cells holds each state's (mask, bias, pattern,
    transits, droop), None for the K..K words, and rows each word's (letters, state index).
    Words grow from their openings, J first, so each length is in lexicographic order, and a word's state
    is its rest's state stepped by the opening, so a caller judges each state once, not each word."""
    shorter, words = ((("", "", 0, 0),), [("", 0)]), (((J, J, 0, 1), (K, K, -1, 0)), [(J, 0), (K, 1)])  # (states, rows)
    for _ in range(m - 1):
        index, grown = {}, []  # the states of the longer words and their rows
        for (opening, add), (states, rows) in zip(_OPENINGS, (words, shorter)):
            step = [  # each state's successor under this opening
                index.setdefault(((opening + head)[:2], last or opening[-1], add - bias, transits + 1), len(index))
                for head, last, bias, transits in states
            ]
            grown += [(opening + rest, step[state]) for rest, state in rows]
        shorter, words = words, (tuple(index), grown)
    states, rows = words
    cells = [None] * len(states)
    for at, (head, last, bias, transits) in enumerate(states):
        for mask, droop in _ends(head, last):
            cells[at] = mask, bias, pattern_of(bias), transits, droop
    return tuple(cells), tuple(rows)


def enumerate_valid(m: int) -> tuple[ValidImage, ...]:
    """All valid serial images of length m, J before K; built unchecked from the integer listing."""
    return _enumerate_valid(check_length(m))


@lru_cache(maxsize=8)
def _enumerate_valid(m: int) -> tuple[ValidImage, ...]:
    cells, rows = _listing(m)
    return tuple(tuple.__new__(ValidImage, (letters, *cells[state])) for letters, state in rows if cells[state])


def count_valid(m: int) -> int:
    check_length(m)
    return fibonacci(m) + 2 * fibonacci(m - 1)


class ImageFilter(Record):
    """Word admission thresholds; every field loosens monotonically."""

    max_abs_bias: int | None = None
    balanced_only: bool = False
    min_transits: int = 0
    max_droop: int | None = None

    def admits(self, bias: int, transits: int, droop: int) -> bool:
        max_abs_bias, balanced_only, min_transits, max_droop = self  # one read of the fields
        if balanced_only and bias != 0:
            return False
        if max_abs_bias is not None and abs(bias) > max_abs_bias:
            return False
        if transits < min_transits:
            return False
        return max_droop is None or droop <= max_droop


def _checked(image_filter: ImageFilter) -> ImageFilter:
    """The filter itself; anything but an ImageFilter is a RangeError."""
    if not isinstance(image_filter, ImageFilter):
        raise RangeError(f"image filter must be an ImageFilter, not {type(image_filter).__name__}")
    return image_filter


UNIT_BIAS = ImageFilter(max_abs_bias=1)
BALANCED = ImageFilter(balanced_only=True)


def filter_for_data_bits(m_bits: int) -> ImageFilter:
    """Applicability filter per payload width: |bias| <= 1, except
    balanced-only at the 8-bit (16-letter) point."""
    if integer("payload width", m_bits) < 1:
        raise RangeError("payload width must be positive")
    return BALANCED if m_bits == 8 else UNIT_BIAS


def image_histogram(m: int) -> Mapping[tuple[str, int, int, int], int]:
    """(mask, bias, transits, droop) -> count over the valid images of length m: a transfer-matrix count
    (Marcus, Roth & Siegel) over the listing's openings, whose state is (first two letters, last letter,
    bias, transits), so it counts the words instead of listing them."""
    return _image_histogram(check_length(m))


@lru_cache(maxsize=32)
def _image_histogram(m: int) -> Mapping[tuple[str, int, int, int], int]:
    shorter, words = Counter({("", "", 0, 0): 1}), Counter({(J, J, 0, 1): 1, (K, K, -1, 0): 1})
    for _ in range(m - 1):
        grown = Counter()
        for (opening, add), tails in zip(_OPENINGS, (words, shorter)):
            for (head, last, bias, transits), count in tails.items():
                grown[(opening + head)[:2], last or opening[-1], add - bias, transits + 1] += count
        shorter, words = words, grown
    cells = Counter()
    for (head, last, bias, transits), count in words.items():
        for mask, droop in _ends(head, last):
            cells[mask, bias, transits, droop] += count
    return MappingProxyType(cells)


def census(m: int, image_filter: ImageFilter = ImageFilter()) -> dict[str, dict[str, int]]:
    """Per-mask, per-pattern counts of the admitted valid images."""
    admits = _checked(image_filter).admits
    counts = {mask: {pattern: 0 for pattern in PATTERNS} for mask in MASKS}
    for (mask, bias, transits, droop), count in image_histogram(m).items():
        if admits(bias, transits, droop):
            counts[mask][pattern_of(bias)] += count
    return counts


PAGE_A_MASKS = frozenset({"JJ", "JK"})  # J-starting: legal after any word
PAGE_B_MASKS = frozenset({"JJ", "KJ"})  # J-ending


def build_pages(m: int, image_filter: ImageFilter = UNIT_BIAS) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The admitted words of pages A and B, each in lexicographic order."""
    admits = _checked(image_filter).admits
    cells, rows = _listing(check_length(m))  # the filter judges each state once, not each word
    admitted = [cell is not None and admits(cell[1], cell[3], cell[4]) for cell in cells]
    pages = []
    for masks in (PAGE_A_MASKS, PAGE_B_MASKS):
        kept = [ok and cell[0] in masks for ok, cell in zip(admitted, cells)]
        pages.append(tuple([letters for letters, state in rows if kept[state]]))
    if not all(pages):
        raise EmptyPage(f"filter admits no page words at length {m}")
    return pages[0], pages[1]


def page_sizes(m: int, image_filter: ImageFilter = UNIT_BIAS) -> tuple[int, int]:
    """The sizes of pages A and B, counted from the census without listing words."""
    totals = {mask: sum(row.values()) for mask, row in census(m, image_filter).items()}
    size_a = sum(totals[mask] for mask in PAGE_A_MASKS)
    size_b = sum(totals[mask] for mask in PAGE_B_MASKS)
    if not size_a or not size_b:
        raise EmptyPage(f"filter admits no page words at length {m}")
    return size_a, size_b


def next_page(previous: str) -> str:
    """Page id for the word after `previous`.

    A K-ending word forces a J-starting successor, served by page A; a J-ending
    word leads to page B, whose words all end in J: page B absorbs, page A is transient.
    """
    if not isinstance(previous, str) or not previous:
        raise RangeError("previous word must be a nonempty str")
    return "A" if previous.endswith(K) else "B"


START_PAGE = "A"  # a stream opens as if its predecessor ended with K


def paged_codec(m: int, image_filter: ImageFilter | None = None) -> paging.PagedCodec:
    """The page tables of length-m words, m read as an int in range; the state is the page id.

    The default filter is resolved, and any other checked, before the cache, so each (m, filter) has one codec.
    """
    m = check_length(m)
    return _paged_codec(m, filter_for_data_bits(m // 2) if image_filter is None else _checked(image_filter))


@lru_cache(maxsize=8)
def _paged_codec(m: int, image_filter: ImageFilter) -> paging.PagedCodec:
    page_a, page_b = build_pages(m, image_filter)  # page B absorbs: each of its words leads back to it
    return paging.PagedCodec({"A": [(word, next_page(word)) for word in page_a], "B": [(word, "B") for word in page_b]})


def encode_stream(
    data: Iterable[int], m: int, image_filter: ImageFilter | None = None
) -> str:
    """Map ordinal values onto page words, switching pages per word."""
    return paged_codec(m, image_filter).encode(data, START_PAGE)[0]


def decode_stream(
    letters: str, m: int, image_filter: ImageFilter | None = None
) -> list[int]:
    """The ordinal values of `letters`; a word length `m` that is not an integer is a RangeError."""
    return paged_codec(m, image_filter).decode(letters, START_PAGE)[0]


def multiplex_feasible(m_bits: int) -> bool:
    """Whether one page can carry 2^m data words plus a control word."""
    m_bits = integer("payload width", m_bits)
    if not 1 <= m_bits <= MAX_IMAGE_LENGTH // 2:
        raise RangeError(f"payload width must lie in [1, {MAX_IMAGE_LENGTH // 2}]")
    size_a, _ = page_sizes(2 * m_bits, filter_for_data_bits(m_bits))
    return size_a >= (1 << m_bits) + 1


def _marks(letters: str, letter: str) -> int:
    """The letters read as binary, most significant first: 1 where `letter` stands, 0 for any other letter."""
    return int(letters.translate(defaultdict(lambda: "0", {ord(letter): "1"})), 2)


@lru_cache(maxsize=4)
def _jump_census(pages: tuple[tuple[str, ...], ...]) -> tuple[int, tuple[int, ...], dict[str, int], dict[str, int]]:
    """The deduplicated page union, bit-sliced: word k of the joined union
    is bit k from the top of every int here. Gives the bits of every word,
    per letter position the bits of the words with J there, and per first
    and per last letter the bits of the words that open or close with it;
    a mask's word and J counts are popcounts of their ANDs."""
    union = {word for page in pages for word in page}
    widths = sorted(set(map(len, union)))
    if len(widths) > 1:
        raise RangeError(f"page words have mixed widths {widths}")
    width = widths[0] if widths else 0
    letters = "".join(union)  # letter i of every word sits at i, i + width, ...
    columns, firsts, lasts = (), {}, {}
    if width:  # the empty word has no letters and no mask
        columns = tuple(_marks(letters[i::width], J) for i in range(width))
        for ends, column in ((firsts, letters[::width]), (lasts, letters[width - 1 :: width])):
            ends.update((letter, _marks(column, letter)) for letter in set(column))
    return (1 << len(union)) - 1, columns, firsts, lasts


_last_jump = [((), _jump_census(()))]  # the page tuples of the last all-tuple call and their census


def position_jump_probability(
    pages: Sequence[Iterable[str]], i: int, mask: str | None = None
) -> Fraction:
    """Probability that letter i is J over the deduplicated page union.

    Every call on one page set reads one shared census of the union, so a
    table of positions and masks counts the letters once. When every page
    is the same tuple object as in the last call, that call's census is
    read without hashing the words again; other pages are keyed by
    content, so a list page mutated between calls is censused afresh.
    Words of mixed widths are refused with RangeError.
    """
    pages = tuple(pages)
    last_pages, census = _last_jump[0]
    if len(pages) != len(last_pages) or not all(map(is_, pages, last_pages)):
        key = tuple(map(tuple, pages))
        census = _jump_census(key)
        if all(map(is_, key, pages)):  # every page a tuple: immutable, and held here so no id is reused
            _last_jump[0] = key, census
    words, columns, firsts, lasts = census
    if mask is not None:
        if words and not columns:  # the union is the empty word alone
            raise RangeError("empty image has no mask")
        # a mask is a first and a last letter; anything else matches no word
        words = firsts.get(mask[0], 0) & lasts.get(mask[1], 0) if isinstance(mask, str) and len(mask) == 2 else 0
    size = words.bit_count()
    if not size:
        raise EmptyPage("no words to sample")
    i = integer("position", i)
    if not 0 <= i < len(columns):
        raise RangeError(f"position must lie in [0, {len(columns)})")
    return Fraction((columns[i] & words).bit_count(), size)
