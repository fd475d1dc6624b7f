"""Paged PAM-3 transport dictionaries with delimiters and occupancy statistics.

Three-symbol words over the ternary line alphabet are grouped into pages
indexed by the running disparity.  Encoding a value at disparity S picks a
word from page S and moves the line to S plus the word sum, so the running
sum never leaves the defined band.  Two dictionary variants ship as data
files: a 16-word-per-page reference set keyed by nibbles and a broadened
16/18/18/16 set keyed by word indices with per-word representation counts.
Exact rational occupancy statistics (disparity, letter, and transition
profiles per letter phase) come from the induced Markov chain.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from math import lcm
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import RangeError, WorkbenchError
from .paging import PagedCodec, stationary_distribution  # benchmarks/tracer.py patches this binding
from .paging import PageMiss, Reducible  # noqa: F401 - re-exported beside the codec and its solver
from .record import Record, integer
from .scrambler import KEY_BITS, bubble_map  # noqa: F401 - benchmarks/tracer.py patches ternary.bubble_map

SYMBOLS = "LzH"
SYMBOL_VALUES = {"L": -1, "z": 0, "H": 1}
WORD_LENGTH = 3
SIGMA_LEVELS = (1, 2, 3, 4)
START_SIGMA = 1
REFERENCE = "reference"
BROADENED = "broadened"
VARIANTS = (REFERENCE, BROADENED)
KEY_SPACE = 1 << KEY_BITS
DELIMITER_KINDS = ("SSD", "ESD", "ESD_ERR")
DELIMITER_PERIODS = (1, 2, 3, 4)

# Longest same-symbol run the bound search will tolerate before giving up.
RUN_CAP = 16


class UndefinedCell(WorkbenchError, ValueError):
    """Delimiter slot with no word assigned."""


def _check_sigma(sigma: int) -> None:
    if sigma not in SIGMA_LEVELS:
        raise RangeError(f"disparity {sigma} outside {SIGMA_LEVELS}")


def check_word(symbols: str) -> None:
    if len(symbols) != WORD_LENGTH:
        raise RangeError(f"word needs {WORD_LENGTH} symbols, got {symbols!r}")
    for ch in symbols:
        if ch not in SYMBOL_VALUES:
            raise RangeError(f"unknown symbol {ch!r}")


class TernaryWord(Record):
    """A word and its disparity footprint.

    Peaks are the extrema of the running sum against zero; a peak of 0
    means the sum never crossed to that side.
    """

    symbols: str
    delta_dc: int
    peak_pos: int
    peak_neg: int
    transits: int


def word_metrics(symbols: str) -> TernaryWord:
    check_word(symbols)
    total = 0
    peak_pos = 0
    peak_neg = 0
    for ch in symbols:
        total += SYMBOL_VALUES[ch]
        peak_pos = max(peak_pos, total)
        peak_neg = min(peak_neg, total)
    transits = sum(1 for a, b in zip(symbols, symbols[1:]) if a != b)
    return TernaryWord(symbols, total, peak_pos, peak_neg, transits)


class PageEntry(Record):
    """One page slot: a word, its code, and its representation count."""

    word: TernaryWord
    code: int
    rep_count: int


class TernaryPage(Record):
    """Words legal at one disparity level, ordered by code; a record, not a container of its `entries`."""

    sigma: int
    entries: tuple[PageEntry, ...]

    def _check(self) -> None:
        if [entry.code for entry in self.entries] != list(range(len(self.entries))):
            raise RangeError(f"page {self.sigma} codes must run 0..{len(self.entries) - 1}")

    def entry_for(self, code: int) -> PageEntry:
        code = integer("code", code)
        if not 0 <= code < len(self.entries):
            raise RangeError(f"code {code} outside page {self.sigma} of {len(self.entries)} words")
        return self.entries[code]


class PagedTernaryDictionary(Record):
    """Four disparity pages closed under their own encode moves."""

    variant: str
    pages: tuple[TernaryPage, ...]

    def _check(self) -> None:
        if tuple(page.sigma for page in self.pages) != SIGMA_LEVELS:
            raise RangeError(f"pages must be a tuple of the pages at disparities {SIGMA_LEVELS}, in order")

    def page(self, sigma: int) -> TernaryPage:
        _check_sigma(sigma)
        return self.pages[integer("disparity", sigma) - 1]  # 2.0 == 2 passes the check

    @cached_property
    def codec(self) -> PagedCodec:
        """The page tables, built on first read; the state is the running disparity."""
        moves = {p.sigma: [(e.word.symbols, p.sigma + e.word.delta_dc) for e in p.entries] for p in self.pages}
        return PagedCodec(moves)

    @cached_property
    def chain(self) -> tuple[tuple[int, int, int, TernaryWord, int], ...]:
        """The word-choice chain, built on first read: per page entry (disparity, rep_count,
        page total, word, the codec's next disparity); a uniform key picks the entry with
        chance rep_count over its page's total. A page without weight raises RangeError,
        a word that leaves the band PageMiss."""
        successors, chain = self.codec.successors, []
        for page in self.pages:
            total = sum(entry.rep_count for entry in page.entries)
            if total <= 0:
                raise RangeError(f"page {page.sigma} has no representation weight to share")
            chain.extend((page.sigma, e.rep_count, total, e.word, successors[page.sigma][e.code]) for e in page.entries)
        return tuple(chain)


def _data_rows(name: str) -> tuple[dict[str, str], ...]:
    text = (Path(__file__).with_name("data") / name).read_text(encoding="utf-8")
    return tuple(csv.DictReader(text.splitlines()))


@lru_cache(maxsize=None)
def reference_rows() -> tuple[dict[str, str], ...]:
    """Raw reference-table rows, one per word, metric cells included."""
    return _data_rows("t1l_reference_dictionary.csv")


@lru_cache(maxsize=None)
def broadened_rows() -> tuple[dict[str, str], ...]:
    """Raw broadened-table rows with per-page ids and representation counts."""
    return _data_rows("t1l_broadened_dictionary.csv")


# Per variant: the table's rows, its page-code column and the code's base,
# and its representation-count column (None: every word holds 2 key slots).
_LAYOUTS = {
    REFERENCE: (reference_rows, "nibble_s{}", 2, None),
    BROADENED: (broadened_rows, "s{}_id", 10, "s{}_rn"),
}


@lru_cache(maxsize=None)
def _load(variant: str) -> PagedTernaryDictionary:
    """Pages of one shipped table; every word is measured from its symbols."""
    rows, code_cell, base, rep_cell = _LAYOUTS[variant]
    pages = {sigma: [] for sigma in SIGMA_LEVELS}
    for row in rows():
        word = word_metrics(row["image"])
        for sigma, entries in pages.items():
            code = row[code_cell.format(sigma)]
            if code:
                rep = int(row[rep_cell.format(sigma)]) if rep_cell else 2
                entries.append(PageEntry(word, int(code, base), rep))
    ordered = (TernaryPage(s, tuple(sorted(entries, key=lambda e: e.code))) for s, entries in pages.items())
    return PagedTernaryDictionary(variant, tuple(ordered))


def reference_dictionary() -> PagedTernaryDictionary:
    return _load(REFERENCE)


def broadened_dictionary() -> PagedTernaryDictionary:
    return _load(BROADENED)


def dictionary_for(variant: str) -> PagedTernaryDictionary:
    if variant not in VARIANTS:
        raise RangeError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _load(variant)


def encode_nibble(code: int, sigma: int, variant: str = REFERENCE) -> TernaryWord:
    """Word for a data value at the current disparity.

    The code is a nibble for the reference variant and a word index for the
    broadened one.  The caller advances the disparity by the returned word's
    delta_dc; page closure keeps the sum inside the band.
    """
    return dictionary_for(variant).page(sigma).entry_for(code).word


def paged_codec(variant: str = REFERENCE) -> PagedCodec:
    """The page tables of one shipped variant."""
    return dictionary_for(variant).codec


def encode_stream(codes, variant: str = REFERENCE) -> str:
    return paged_codec(variant).encode(codes, START_SIGMA)[0]


def decode_stream(symbols: str, variant: str = REFERENCE) -> list[int]:
    return paged_codec(variant).decode(symbols, START_SIGMA)[0]


def representation_table(page: TernaryPage) -> tuple[int, ...]:
    """The 32 scrambler-key slots of a page; widths follow rep_count."""
    slots = []
    for entry in page.entries:
        slots.extend([entry.code] * entry.rep_count)
    if len(slots) != KEY_SPACE:
        raise RangeError(f"page {page.sigma} fills {len(slots)} of {KEY_SPACE} slots")
    return tuple(slots)


@lru_cache(maxsize=None)
def _key_words(variant: str, sigma: int) -> tuple[TernaryWord, ...]:
    """The word each scrambler key selects on one page."""
    page = dictionary_for(variant).page(sigma)
    return tuple(page.entry_for(code).word for code in representation_table(page))


def scrambled_word(key: int, sigma: int, variant: str = BROADENED) -> TernaryWord:
    """Word selected by a 5-bit key on page sigma, both read as ints; selection weight equals rep_count."""
    if key.__class__ is not int:  # converted off the per-key int path
        key = integer("key", key)
    if not 0 <= key < KEY_SPACE:
        raise RangeError(f"key {key} outside [0, {KEY_SPACE})")
    if sigma.__class__ is not int:  # before the cache, which keys 2.0 as 2
        sigma = integer("disparity", sigma)
    if variant.__class__ is not str:  # before the cache, which cannot hash a list; _key_words refuses an unknown str
        dictionary_for(variant)
    return _key_words(variant, sigma)[key]


@lru_cache(maxsize=None)
def delimiter_cells() -> Mapping[tuple[int, int, int, str], str]:
    """The shipped delimiting grid in table order, read-only: (s4, sigma, period, kind) -> word, no blank cell."""
    rows = _data_rows("t1l_delimiters.csv")
    return MappingProxyType({(int(r["s4"]), int(r["sigma"]), int(r["period"]), r["kind"]): r["word"] for r in rows})


def delimiter_word(s4: int, sigma: int, period: int, kind: str = "any") -> str:
    """One cell of the delimiting grid; blank cells raise UndefinedCell."""
    if s4 not in (0, 1):
        raise RangeError(f"scrambler bit must be 0 or 1, got {s4!r}")
    _check_sigma(sigma)
    if period not in DELIMITER_PERIODS:
        raise RangeError(f"period {period} outside {DELIMITER_PERIODS}")
    if kind != "any" and kind not in DELIMITER_KINDS:
        raise RangeError(f"kind must be 'any' or one of {DELIMITER_KINDS}, got {kind!r}")
    word = delimiter_cells().get((s4, sigma, period, kind))
    if word is None:
        raise UndefinedCell(f"no word at s4={s4} sigma={sigma} period={period} kind={kind}")
    return word


def transition_matrix(dictionary: PagedTernaryDictionary) -> tuple[tuple[Fraction, ...], ...]:
    """Page-to-page chain under uniform codes weighted by rep_count; each cell is one Fraction over the page total."""
    counts = {sigma: [0] * len(SIGMA_LEVELS) for sigma in SIGMA_LEVELS}
    for sigma, rep, _, _, after in dictionary.chain:
        counts[sigma][after - 1] += rep
    # every entry lands in one cell of its page's row, so a row sums to its page total
    return tuple(tuple(Fraction(count, sum(row)) for count in row) for row in counts.values())


@lru_cache(maxsize=None)
def _runs(symbols: str) -> tuple[tuple[str, int], ...]:
    """A word's same-symbol runs in order, as (symbol, length)."""
    return tuple((ch, len(list(group))) for ch, group in groupby(symbols))


def run_bounds(dictionary: PagedTernaryDictionary) -> dict[str, int]:
    """Longest same-symbol run over every reachable word path, per symbol.

    A state is (page, the symbol the line ends on, its run). Only a word
    that opens with that symbol lengthens the run; its other runs, and the
    state after any word that is not one run, are the same from every
    state. So each page scores its words' runs and pushes their fresh
    states once, when the walk first enters it, and a state visits only the
    words that open with its symbol. A fresh run scored or pushed for a
    word that every entry lengthens is shorter than the lengthened one, so
    it changes no bound and no refusal.
    """
    moves = {sigma: [] for sigma in SIGMA_LEVELS}
    for sigma, rep, _, word, after in dictionary.chain:
        if rep > 0:
            moves[sigma].append((_runs(word.symbols), after))
    best = {ch: 0 for ch in SYMBOLS}

    def reach(ch: str, length: int) -> None:
        if length > best[ch]:
            if length > RUN_CAP:
                raise RangeError(f"run of {ch!r} exceeds the cap of {RUN_CAP}")
            best[ch] = length

    openers = {}  # per entered page: symbol -> [(leading run, whether the word is one run, next page)]
    seen = set()
    frontier = [(START_SIGMA, "", 0)]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        sigma, tail, run = state
        if sigma not in openers:
            openers[sigma] = {}
            for runs, after in moves[sigma]:
                for ch, length in runs:
                    reach(ch, length)
                (first, lead), (last, trail) = runs[0], runs[-1]
                openers[sigma].setdefault(first, []).append((lead, len(runs) == 1, after))
                frontier.append((after, last, trail))
        for lead, whole, after in openers[sigma].get(tail, ()):
            reach(tail, run + lead)
            if whole:
                frontier.append((after, tail, run + lead))
    return best


class PortraitStats(Record):
    """Exact letter-resolution statistics of the word-choice chain.

    Phase k covers the state right after the (k+1)-th symbol of a word;
    the last phase therefore coincides with the word boundary.
    """

    variant: str
    boundary: tuple[Fraction, ...]
    p_sigma_phase: tuple[dict[int, Fraction], ...]
    p_letter_phase: tuple[dict[str, Fraction], ...]
    p_transit: tuple[Fraction, ...]
    run_bounds: dict[str, int]

    @property
    def p_sigma(self) -> dict[int, Fraction]:
        levels = sorted(set().union(*self.p_sigma_phase))
        phases = len(self.p_sigma_phase)
        return {
            level: sum((ph.get(level, Fraction(0)) for ph in self.p_sigma_phase), Fraction(0)) / phases
            for level in levels
        }

    @property
    def p_letter(self) -> dict[str, Fraction]:
        phases = len(self.p_letter_phase)
        return {ch: sum((ph[ch] for ph in self.p_letter_phase), Fraction(0)) / phases for ch in SYMBOLS}


def portrait(dictionary: PagedTernaryDictionary) -> PortraitStats:
    """Exact occupancy statistics under uniform code flow, in one pass.

    Every cell sums weights boundary[sigma] * rep_count / page total. They
    are summed as integers over one scale, the boundary denominators' lcm
    times the page totals' lcm, and each cell becomes a Fraction once. The
    boundary transit is one minus the chance that the next word opens with
    the symbol this one ends on: `ends` meets `opens` per (page, symbol),
    over scale times the totals' lcm.
    """
    boundary = stationary_distribution(transition_matrix(dictionary))
    boundary_lcm = lcm(*(p.denominator for p in boundary))
    share_lcm = lcm(*(total for _, _, total, _, _ in dictionary.chain))
    scale = boundary_lcm * share_lcm
    page_weights = [p.numerator * (boundary_lcm // p.denominator) for p in boundary]
    levels = [{} for _ in range(WORD_LENGTH)]
    letters = [dict.fromkeys(SYMBOLS, 0) for _ in range(WORD_LENGTH)]
    transits = [0] * (WORD_LENGTH - 1)  # within words; the boundary transit is appended last
    opens = {}  # (disparity, symbol): share of the page's words that open with it, times share_lcm
    ends = {}  # (next disparity, symbol): weight of words that end with it there, times scale
    for sigma, rep, total, word, after in dictionary.chain:
        share = rep * (share_lcm // total)
        weight = page_weights[sigma - 1] * share
        symbols = word.symbols
        level = sigma
        for k, ch in enumerate(symbols):
            level += SYMBOL_VALUES[ch]
            levels[k][level] = levels[k].get(level, 0) + weight
            letters[k][ch] += weight
            if k + 1 < WORD_LENGTH and ch != symbols[k + 1]:
                transits[k] += weight
        opens[sigma, symbols[0]] = opens.get((sigma, symbols[0]), 0) + share
        ends[after, symbols[-1]] = ends.get((after, symbols[-1]), 0) + weight
    repeats = sum(weight * opens.get(key, 0) for key, weight in ends.items())
    p_transit = [Fraction(n, scale) for n in transits]
    p_transit.append(Fraction(scale * share_lcm - repeats, scale * share_lcm))

    return PortraitStats(
        variant=dictionary.variant,
        boundary=boundary,
        p_sigma_phase=tuple({level: Fraction(phase[level], scale) for level in sorted(phase)} for phase in levels),
        p_letter_phase=tuple({ch: Fraction(n, scale) for ch, n in phase.items()} for phase in letters),
        p_transit=tuple(p_transit),
        run_bounds=run_bounds(dictionary),
    )
