"""Paged ternary transport: stored tables, codec closure, exact statistics."""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamcode import scrambler, ternary
from lamcode.errors import RangeError, WorkbenchError
from lamcode.paging import PagedCodec, PageMiss


def invert_word(symbols):
    """The word mirrored through level 0, H and L swapped."""
    return symbols.translate(str.maketrans("LH", "HL"))


def test_word_metrics_examples():
    m = ternary.word_metrics("LLL")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (-3, (0, -3), 0)
    m = ternary.word_metrics("zzz")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (0, (0, 0), 0)
    m = ternary.word_metrics("LzL")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (-2, (0, -2), 2)
    m = ternary.word_metrics("HLL")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (-1, (1, -1), 1)
    m = ternary.word_metrics("LzH")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (0, (0, -1), 2)
    m = ternary.word_metrics("HHH")
    assert (m.delta_dc, (m.peak_pos, m.peak_neg), m.transits) == (3, (3, 0), 0)
    with pytest.raises(RangeError):
        ternary.word_metrics("LL")
    with pytest.raises(ValueError):
        ternary.word_metrics("LXH")


@given(st.text(alphabet="LzH", min_size=3, max_size=3))
def test_metrics_inversion(symbols):
    m = ternary.word_metrics(symbols)
    flipped = ternary.word_metrics(invert_word(symbols))
    assert flipped.delta_dc == -m.delta_dc
    assert (flipped.peak_pos, flipped.peak_neg) == (-m.peak_neg, -m.peak_pos)
    assert flipped.transits == m.transits
    assert -3 <= m.delta_dc <= 3
    assert 0 <= m.transits <= 2
    assert m.peak_neg <= 0 <= m.peak_pos


def test_invert_word_involution():
    assert invert_word("LzH") == "HzL"
    for a in "LzH":
        for b in "LzH":
            for c in "LzH":
                word = a + b + c
                assert invert_word(invert_word(word)) == word


def test_stored_cells_match_measurement():
    rows = ternary.table_rows(ternary.REFERENCE)
    assert len(rows) == 27
    for row in rows:
        m = ternary.word_metrics(row["image"])
        assert m.delta_dc == int(row["delta_dc"])
        assert m.peak_pos == int(row["peak_pos"] or 0)
        assert m.peak_neg == int(row["peak_neg"] or 0)
        assert m.transits == int(row["transits"])
    for row in ternary.table_rows(ternary.BROADENED):
        assert ternary.word_metrics(row["image"]).delta_dc == int(row["delta_dc"])


def test_reference_page_shape():
    d = ternary.dictionary_for(ternary.REFERENCE)
    for sigma in ternary.SIGMA_LEVELS:
        page = d.page(sigma).entries
        assert len(page) == 16
        assert [e.code for e in page] == list(range(16))
        assert "zzz" not in [e.word.symbols for e in page]
        assert all(e.rep_count == 2 for e in page)
        for entry in page:
            assert sigma + entry.word.delta_dc in ternary.SIGMA_LEVELS


def test_broadened_page_shape():
    d = ternary.dictionary_for(ternary.BROADENED)
    assert [len(p.entries) for p in d.pages] == [16, 18, 18, 16]
    for sigma in ternary.SIGMA_LEVELS:
        page = d.page(sigma).entries
        assert [e.code for e in page] == list(range(len(page)))
        assert "zzz" not in [e.word.symbols for e in page]
        assert sum(e.rep_count for e in page) == 32
        profile = sorted(e.rep_count for e in page)
        assert profile == sorted(scrambler.bubble_map(len(page)).sizes)
        for entry in page:
            assert sigma + entry.word.delta_dc in ternary.SIGMA_LEVELS


def test_page_inversion_symmetry():
    for variant in ternary.VARIANTS:
        d = ternary.dictionary_for(variant)
        for sigma in ternary.SIGMA_LEVELS:
            low = d.page(sigma).entries
            high = d.page(5 - sigma).entries
            flipped = {invert_word(e.word.symbols): e.rep_count for e in low}
            assert flipped == {e.word.symbols: e.rep_count for e in high}


def test_encode_examples():
    assert ternary.encode_nibble(0b1001, 4).symbols == "LLL"
    for sigma in ternary.SIGMA_LEVELS:
        assert ternary.encode_nibble(0b0111, sigma).symbols == "LzH"
    assert ternary.encode_nibble(0b1100, 1).symbols == "HHH"
    assert ternary.paged_codec().decode("LLL", 4) == ([0b1001], 1)
    assert ternary.paged_codec().decode("HHH", 1) == ([0b1100], 4)


def test_decode_errors():
    with pytest.raises(ternary.PageMiss):
        ternary.paged_codec().decode("HHH", 4)
    with pytest.raises(ternary.PageMiss):
        ternary.paged_codec().decode("zzz", 2)
    with pytest.raises(RangeError):
        ternary.encode_nibble(16, 1)
    with pytest.raises(RangeError):
        ternary.encode_nibble(0, 0)
    with pytest.raises(RangeError):
        ternary.encode_nibble(18, 2, ternary.BROADENED)
    with pytest.raises(ternary.PageMiss):
        ternary.decode_stream("LzHz")
    with pytest.raises(RangeError):
        ternary.dictionary_for("extended")


def test_codec_round_trip_reference():
    rng = random.Random(0x71F1)
    nibbles = [rng.randrange(16) for _ in range(20000)]
    letters = ternary.paged_codec().encode(nibbles, 2)[0]
    assert len(letters) == 3 * len(nibbles)
    sigma = 2
    for i in range(0, len(letters), 3):
        assert sigma in ternary.SIGMA_LEVELS
        sigma += ternary.word_metrics(letters[i : i + 3]).delta_dc
    assert sigma in ternary.SIGMA_LEVELS
    assert ternary.paged_codec().decode(letters, 2)[0] == nibbles


def test_codec_round_trip_broadened():
    rng = random.Random(0x71F2)
    d = ternary.dictionary_for(ternary.BROADENED)
    codes = []
    sigma = ternary.START_SIGMA
    for _ in range(20000):
        code = rng.randrange(len(d.page(sigma).entries))
        codes.append(code)
        sigma += ternary.encode_nibble(code, sigma, ternary.BROADENED).delta_dc
    letters = ternary.encode_stream(codes, ternary.BROADENED)
    assert ternary.decode_stream(letters, ternary.BROADENED) == codes


def test_representation_tables():
    assert ternary.scrambled_word(0, 1).symbols == "HHH"
    with pytest.raises(RangeError):
        ternary.scrambled_word(32, 1)


def test_scrambled_selection_matches_weights():
    for variant, sigma in itertools.product(ternary.VARIANTS, ternary.SIGMA_LEVELS):
        page = ternary.dictionary_for(variant).page(sigma)
        hist = {}
        for key in range(32):
            word = ternary.scrambled_word(key, sigma, variant)
            hist[word.symbols] = hist.get(word.symbols, 0) + 1
        assert hist == {e.word.symbols: e.rep_count for e in page.entries}


def delimiter(kind, sigma, s4):
    """The four-word delimiting run; only the closing word depends on the kind."""
    return tuple(ternary.delimiter_word(s4, sigma, period) for period in (1, 2, 3)) + (
        ternary.delimiter_word(s4, sigma, 4, kind),
    )


def test_delimiter_sequences():
    assert delimiter("SSD", 1, 0) == ("zzz", "zzz", "LzH", "HHL")
    assert delimiter("ESD", 1, 0) == ("zzz", "zzz", "LzH", "HLH")
    assert delimiter("ESD_ERR", 1, 0) == ("zzz", "zzz", "LzH", "LHH")
    assert delimiter("SSD", 4, 1) == ("zzz", "zzz", "HzL", "LLH")
    assert delimiter("ESD", 4, 1) == ("zzz", "zzz", "HzL", "LHL")
    assert delimiter("ESD_ERR", 4, 1) == ("zzz", "zzz", "HzL", "HLL")


def test_delimiter_grid():
    thirds_0 = [ternary.delimiter_word(0, s, 3) for s in ternary.SIGMA_LEVELS]
    thirds_1 = [ternary.delimiter_word(1, s, 3) for s in ternary.SIGMA_LEVELS]
    assert thirds_0 == ["LzH", "Lzz", "LzL", "LLL"]
    assert thirds_1 == ["HHH", "HLH", "Hzz", "HzL"]
    for s4 in (0, 1):
        for sigma in ternary.SIGMA_LEVELS:
            assert ternary.delimiter_word(s4, sigma, 1) == "zzz"
            assert ternary.delimiter_word(s4, sigma, 2) == "zzz"
    # the low-key closing run always drains the disparity to the bottom page
    for sigma in ternary.SIGMA_LEVELS:
        word = ternary.delimiter_word(0, sigma, 3)
        assert sigma + ternary.word_metrics(word).delta_dc == 1


def test_delimiter_blanks_and_ranges():
    for sigma in (2, 3, 4):
        with pytest.raises(ternary.UndefinedCell):
            delimiter("SSD", sigma, 0)
    for sigma in (1, 2, 3):
        with pytest.raises(ternary.UndefinedCell):
            delimiter("ESD", sigma, 1)
    with pytest.raises(ternary.UndefinedCell):
        ternary.delimiter_word(0, 2, 4, "SSD")
    with pytest.raises(RangeError):
        delimiter("SFD", 1, 0)
    with pytest.raises(RangeError):
        ternary.delimiter_word(2, 1, 3)
    with pytest.raises(RangeError):
        ternary.delimiter_word(0, 5, 3)
    with pytest.raises(RangeError):
        ternary.delimiter_word(0, 1, 5)


# Reserved broadened-page codes per event slot, keyed by disparity; the flag
# slot has no pair at the edge pages.
FADE_IN_PAIRS = {1: (1, 9), 2: (0, 11), 3: (0, 11), 4: (1, 9)}
FLAG_PAIRS = {2: (0, 17), 3: (0, 17)}


def test_event_pattern_words():
    d = ternary.dictionary_for(ternary.BROADENED)
    fade = [d.page(1).entry_for(c).word for c in FADE_IN_PAIRS[1]]
    assert [w.symbols for w in fade] == ["HHz", "LHH"]
    assert sorted(w.delta_dc for w in fade) == [1, 2]
    flag2 = [d.page(2).entry_for(c).word for c in FLAG_PAIRS[2]]
    assert [w.symbols for w in flag2] == ["HHL", "LLH"]
    assert [w.delta_dc for w in flag2] == [1, -1]
    flag3 = [d.page(3).entry_for(c).word for c in FLAG_PAIRS[3]]
    assert [w.symbols for w in flag3] == ["LLH", "HHL"]
    fade4 = [d.page(4).entry_for(c).word for c in FADE_IN_PAIRS[4]]
    assert [w.symbols for w in fade4] == ["LLz", "HLL"]
    assert sorted(w.delta_dc for w in fade4) == [-2, -1]


def test_flag_rep_counts_stored():
    # alternate representation counts shipped for event-flag periods, beside each page code
    edge = {1: 5, 2: 4, 3: 5, 4: 3, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3}
    mid = {0: 2, 1: 2, 2: 3, 3: 3, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3, 11: 3}
    counts = {
        sigma: {
            int(row[f"s{sigma}_id"]): int(row[f"s{sigma}_rprev"])
            for row in ternary.table_rows(ternary.BROADENED)
            if row[f"s{sigma}_id"] and row[f"s{sigma}_rprev"]
        }
        for sigma in ternary.SIGMA_LEVELS
    }
    assert counts == {1: edge, 2: mid, 3: mid, 4: edge}
    for sigma in ternary.SIGMA_LEVELS:
        assert sum(counts[sigma].values()) == 32


def test_transition_matrix_exact():
    expected = (
        (Fraction(6, 16), Fraction(6, 16), Fraction(3, 16), Fraction(1, 16)),
        (Fraction(4, 16), Fraction(6, 16), Fraction(6, 16), Fraction(0)),
        (Fraction(0), Fraction(6, 16), Fraction(6, 16), Fraction(4, 16)),
        (Fraction(1, 16), Fraction(3, 16), Fraction(6, 16), Fraction(6, 16)),
    )
    ref = ternary.transition_matrix(ternary.dictionary_for(ternary.REFERENCE))
    assert ref == expected
    # the widened pages keep the page-to-page probabilities untouched
    assert ternary.transition_matrix(ternary.dictionary_for(ternary.BROADENED)) == expected


def test_stationary_exact():
    for variant in ternary.VARIANTS:
        matrix = ternary.transition_matrix(ternary.dictionary_for(variant))
        pi = ternary.stationary_distribution(matrix)
        assert pi == (Fraction(2, 13), Fraction(9, 26), Fraction(9, 26), Fraction(2, 13))


def test_reducible_chain_reported():
    one, half, zero = Fraction(1), Fraction(1, 2), Fraction(0)
    frozen = ((one, zero), (zero, one))
    with pytest.raises(ternary.Reducible) as info:
        ternary.stationary_distribution(frozen)
    assert "components" in str(info.value)
    # two closed classes, {0} and {2}, with state 1 leaking into both
    two_classes = ((one, zero, zero), (half, zero, half), (zero, zero, one))
    with pytest.raises(ternary.Reducible, match="components"):
        ternary.stationary_distribution(two_classes)
    # one closed class {1}; state 0 is transient
    leaking = ((half, half), (zero, one))
    with pytest.raises(ternary.Reducible, match=r"transient states \[0\]"):
        ternary.stationary_distribution(leaking)
    # irreducible but periodic: still one positive stationary vector
    assert ternary.stationary_distribution(((zero, one), (one, zero))) == (half, half)


def test_word_leaving_the_band_is_a_page_miss():
    pages = list(ternary.dictionary_for(ternary.REFERENCE).pages)
    top = pages[-1]
    escape = ternary.PageEntry(ternary.word_metrics("HHH"), 0, top.entries[0].rep_count)
    pages[-1] = ternary.TernaryPage(top.sigma, (escape,) + top.entries[1:])
    broken = ternary.PagedTernaryDictionary("reference", tuple(pages))
    for reader in (ternary.transition_matrix, ternary.run_bounds, ternary.portrait):
        with pytest.raises(ternary.PageMiss, match="'HHH' leaves the band from 4"):
            reader(broken)


def test_open_codec_is_refused_when_built():
    # closure is checked once, when the codec is built, not on first use
    with pytest.raises(PageMiss, match="'a' leaves the band from 1"):
        PagedCodec({1: [("a", 2)]})


def test_mixed_word_widths_are_refused_when_built():
    # a codec that took its width from the first word would encode [1, 0] as
    # 'bba' and then fail to decode it
    with pytest.raises(RangeError, match="word 'bb' has width 2, not 1"):
        PagedCodec({1: [("a", 1), ("bb", 1)]})
    with pytest.raises(RangeError, match="word 'L' has width 1, not 3"):
        PagedCodec({1: [("LzH", 2)], 2: [("zzz", 1), ("L", 2)]})


def test_empty_words_are_refused_when_built():
    # a codec of width 0 would divide by zero on decode and send every stream as ""
    with pytest.raises(RangeError, match="words must hold at least one symbol"):
        PagedCodec({1: [("", 1)]})


def _entries(codec):
    """Each state's (word, next state) in code order, each word encoded alone from its state."""
    return {state: [codec.encode([code], state) for code in range(len(nexts))] for state, nexts in codec.successors.items()}


def test_portrait_builds_one_codec(monkeypatch):
    # every chain pass of a portrait reads the dictionary's one codec
    built = []
    shipped = ternary.dictionary_for(ternary.REFERENCE)
    shipped.codec  # built before the count starts, so the test counts the same alone as in the suite
    monkeypatch.setattr(ternary, "PagedCodec", lambda pages: built.append(pages) or PagedCodec(pages))
    book = ternary.PagedTernaryDictionary("reference", shipped.pages)
    assert ternary.portrait(book) == ternary.portrait(book) == ternary.portrait(shipped)
    assert len(built) == 1
    assert book.codec is book.codec and _entries(book.codec) == _entries(shipped.codec)
    # the word-choice chain is built once per dictionary too, beside its codec
    assert book.chain is book.chain == shipped.chain and len(ternary.dictionary_for(ternary.BROADENED).chain) == 68
    assert ternary.paged_codec(ternary.REFERENCE) is shipped.codec


def test_misordered_or_malformed_pages_are_refused():
    # a page is read at index sigma - 1, so pages out of order would answer for the wrong disparity
    pages = ternary.dictionary_for(ternary.REFERENCE).pages
    for given in (
        (pages[1], pages[0]) + pages[2:],  # swapped: the portrait reported run_H 7, not 5
        pages[:3],
        pages + pages[:1],
        tuple(ternary.TernaryPage(p.sigma + 1, p.entries) for p in pages),
    ):
        with pytest.raises(RangeError, match=r"pages must be a tuple of the pages at disparities \(1, 2, 3, 4\)"):
            ternary.PagedTernaryDictionary("reference", given)
    # the annotation rule names the field: not a tuple, or holding something other than pages
    for given, message in (
        (None, "pages must be a tuple, not NoneType"),
        (list(pages), "pages must be a tuple, not list"),  # a list would leave the record unhashable
        ((1, 2, 3, 4), "pages[0] must be a TernaryPage, not int"),
    ):
        with pytest.raises(RangeError, match=re.escape(message)):
            ternary.PagedTernaryDictionary("reference", given)
    with pytest.raises(RangeError, match="entries must be a tuple, not list"):
        ternary.TernaryPage(1, list(pages[0].entries))


def _reference_with_page_two(entries):
    pages = list(ternary.dictionary_for(ternary.REFERENCE).pages)
    pages[1] = ternary.TernaryPage(2, entries)
    return ternary.PagedTernaryDictionary("reference", tuple(pages))


def test_empty_page_is_refused():
    # an empty page would leave a zero row and a "stationary" vector of a chain that leaks
    with pytest.raises(RangeError, match="page 2"):
        ternary.portrait(_reference_with_page_two(()))
    # with no word on any page there is no codec to build either
    empty = tuple(ternary.TernaryPage(s, ()) for s in ternary.SIGMA_LEVELS)
    with pytest.raises(RangeError):
        ternary.portrait(ternary.PagedTernaryDictionary("reference", empty))


def test_weightless_page_is_refused():
    page = ternary.dictionary_for(ternary.REFERENCE).page(2)
    weightless = _reference_with_page_two(tuple(ternary.PageEntry(e.word, e.code, 0) for e in page.entries))
    for _ in range(2):  # a refusal is not cached as an answer: the second call raises it again
        with pytest.raises(RangeError, match="page 2 has no representation weight"):
            ternary.portrait(weightless)


def test_substochastic_row_is_refused():
    half, zero = Fraction(1, 2), Fraction(0)
    with pytest.raises(RangeError, match="row 1 of the chain is not a probability vector"):
        ternary.stationary_distribution(((half, half), (zero, zero)))
    with pytest.raises(RangeError, match="row 0"):
        ternary.stationary_distribution(((Fraction(3, 2), -half), (half, half)))


def test_reference_portrait_cells():
    stats = ternary.portrait(ternary.dictionary_for(ternary.REFERENCE))
    assert stats.boundary == (Fraction(2, 13), Fraction(9, 26), Fraction(9, 26), Fraction(2, 13))
    assert stats.p_sigma_phase[0] == {
        0: Fraction(12, 416), 1: Fraction(65, 416), 2: Fraction(131, 416),
        3: Fraction(131, 416), 4: Fraction(65, 416), 5: Fraction(12, 416),
    }
    assert stats.p_sigma_phase[1] == {
        0: Fraction(8, 416), 1: Fraction(65, 416), 2: Fraction(135, 416),
        3: Fraction(135, 416), 4: Fraction(65, 416), 5: Fraction(8, 416),
    }
    assert stats.p_sigma_phase[2] == {
        1: Fraction(4, 26), 2: Fraction(9, 26), 3: Fraction(9, 26), 4: Fraction(4, 26),
    }
    for phase in stats.p_letter_phase:
        assert phase == {
            "L": Fraction(134, 416), "z": Fraction(148, 416), "H": Fraction(134, 416),
        }
    assert stats.p_sigma == {
        0: Fraction(20, 1248), 1: Fraction(194, 1248), 2: Fraction(410, 1248),
        3: Fraction(410, 1248), 4: Fraction(194, 1248), 5: Fraction(20, 1248),
    }
    assert stats.p_letter == {
        "L": Fraction(402, 1248), "z": Fraction(444, 1248), "H": Fraction(402, 1248),
    }
    assert stats.p_transit == (Fraction(330, 416), Fraction(330, 416), Fraction(569, 832))
    assert [round(float(v), 2) for v in stats.p_transit] == [0.79, 0.79, 0.68]
    assert round(float(sum(stats.p_transit) / 3), 2) == 0.76
    mean = sum(level * p for level, p in stats.p_sigma.items())
    assert mean == Fraction(5, 2)


def test_portrait_families_sum_to_one():
    for variant in ternary.VARIANTS:
        stats = ternary.portrait(ternary.dictionary_for(variant))
        assert sum(stats.boundary) == 1
        for phase in stats.p_sigma_phase:
            assert sum(phase.values()) == 1
        for phase in stats.p_letter_phase:
            assert sum(phase.values()) == 1


def test_broadened_portrait_cells():
    stats = ternary.portrait(ternary.dictionary_for(ternary.BROADENED))
    assert stats.p_sigma_phase[0] == {
        0: Fraction(24, 832), 1: Fraction(130, 832), 2: Fraction(262, 832),
        3: Fraction(262, 832), 4: Fraction(130, 832), 5: Fraction(24, 832),
    }
    assert stats.p_sigma_phase[1] == {
        0: Fraction(25, 832), 1: Fraction(121, 832), 2: Fraction(270, 832),
        3: Fraction(270, 832), 4: Fraction(121, 832), 5: Fraction(25, 832),
    }
    assert stats.p_sigma_phase[2] == {
        1: Fraction(4, 26), 2: Fraction(9, 26), 3: Fraction(9, 26), 4: Fraction(4, 26),
    }
    assert stats.p_letter_phase[0] == {
        "L": Fraction(277, 832), "z": Fraction(278, 832), "H": Fraction(277, 832),
    }
    assert stats.p_letter_phase[1] == {
        "L": Fraction(268, 832), "z": Fraction(296, 832), "H": Fraction(268, 832),
    }
    assert stats.p_letter_phase[2] == stats.p_letter_phase[0]
    assert stats.p_sigma == {
        0: Fraction(49, 2496), 1: Fraction(379, 2496), 2: Fraction(820, 2496),
        3: Fraction(820, 2496), 4: Fraction(379, 2496), 5: Fraction(49, 2496),
    }
    assert stats.p_letter == {
        "L": Fraction(822, 2496), "z": Fraction(852, 2496), "H": Fraction(822, 2496),
    }
    # two within-word cells, then the boundary cell; the source prints 0.58
    # for the last, an erratum shown by test_boundary_transit_oracle and
    # test_boundary_transit_conventions_ruled_out
    assert stats.p_transit[0] == Fraction(642, 832)
    assert stats.p_transit[1] == Fraction(642, 832)
    assert stats.p_transit[2] == Fraction(2267, 3328)
    assert round(float(stats.p_transit[0]), 2) == 0.77


def fraction_portrait(dictionary):
    """The portrait summed Fraction by Fraction, one weight at a time: the oracle of the integer sums."""
    boundary = ternary.stationary_distribution(ternary.transition_matrix(dictionary))
    levels = [{} for _ in range(ternary.WORD_LENGTH)]
    letters = [dict.fromkeys(ternary.SYMBOLS, Fraction(0)) for _ in range(ternary.WORD_LENGTH)]
    transits = [Fraction(0)] * ternary.WORD_LENGTH
    opens, ends = {}, {}
    for sigma, rep, total, word, after in dictionary.chain:
        share = Fraction(rep, total)
        weight = boundary[sigma - 1] * share
        level = sigma
        for k, ch in enumerate(word.symbols):
            level += ternary.SYMBOL_VALUES[ch]
            levels[k][level] = levels[k].get(level, 0) + weight
            letters[k][ch] += weight
            if k + 1 < ternary.WORD_LENGTH and ch != word.symbols[k + 1]:
                transits[k] += weight
        opens[sigma, word.symbols[0]] = opens.get((sigma, word.symbols[0]), 0) + share
        ends[after, word.symbols[-1]] = ends.get((after, word.symbols[-1]), 0) + weight
    transits[-1] = 1 - sum(weight * opens.get(key, 0) for key, weight in ends.items())
    return ternary.PortraitStats(
        variant=dictionary.variant,
        boundary=boundary,
        p_sigma_phase=tuple({level: phase[level] for level in sorted(phase)} for phase in levels),
        p_letter_phase=tuple(letters),
        p_transit=tuple(transits),
        run_bounds=ternary.run_bounds(dictionary),
    )


def test_portrait_matches_fraction_oracle():
    for variant in ternary.VARIANTS:
        book = ternary.dictionary_for(variant)
        stats, oracle = ternary.portrait(book), fraction_portrait(book)
        assert stats == oracle and repr(stats) == repr(oracle)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ternary.VARIANTS), st.data())
def test_portrait_matches_fraction_oracle_on_redrawn_rep_counts(variant, data):
    # the same pages and words, each page with its own positive weights, so
    # the share denominators differ from page to page
    shipped = ternary.dictionary_for(variant)
    pages = []
    for page in shipped.pages:
        reps = data.draw(st.lists(st.integers(1, 97), min_size=len(page.entries), max_size=len(page.entries)))
        entries = tuple(ternary.PageEntry(e.word, e.code, rep) for e, rep in zip(page.entries, reps))
        pages.append(ternary.TernaryPage(page.sigma, entries))
    book = ternary.PagedTernaryDictionary(variant, tuple(pages))
    assert ternary.portrait(book) == fraction_portrait(book)


def test_run_bounds_skip_words_no_key_picks():
    # a word at rep count 0 is never sent: with every zz word muted, no z run passes two letters
    shipped = ternary.dictionary_for(ternary.REFERENCE)
    pages = tuple(
        ternary.TernaryPage(page.sigma, tuple(
            ternary.PageEntry(e.word, e.code, 0 if "zz" in e.word.symbols else e.rep_count) for e in page.entries
        ))
        for page in shipped.pages
    )
    muted = ternary.PagedTernaryDictionary(shipped.variant, pages)
    assert ternary.run_bounds(shipped) == {"L": 5, "z": 4, "H": 5}
    assert ternary.run_bounds(muted) == {"L": 5, "z": 2, "H": 5}


def symbol_walk_run_bounds(dictionary):
    """The run bounds stepped one symbol at a time over every word of every state: the oracle of the run walk."""
    moves = {sigma: [] for sigma in ternary.SIGMA_LEVELS}
    for sigma, rep, _, word, after in dictionary.chain:
        if rep > 0:
            moves[sigma].append((word.symbols, after))
    best = {ch: 0 for ch in ternary.SYMBOLS}
    seen = set()
    frontier = [(ternary.START_SIGMA, "", 0)]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        sigma, tail, run = state
        for symbols, after in moves[sigma]:
            current, length = tail, run
            for ch in symbols:
                length = length + 1 if ch == current else 1
                current = ch
                if length > best[ch]:
                    if length > ternary.RUN_CAP:
                        raise RangeError(f"run of {ch!r} exceeds the cap of {ternary.RUN_CAP}")
                    best[ch] = length
            frontier.append((after, current, length))
    return best


def _run_outcome(reader, dictionary):
    try:
        return reader(dictionary)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def test_run_walk_matches_symbol_walk_on_shipped_variants():
    for variant in ternary.VARIANTS:
        book = ternary.dictionary_for(variant)
        assert ternary.run_bounds(book) == symbol_walk_run_bounds(book) == {"L": 5, "z": 4, "H": 5}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ternary.VARIANTS), st.data())
def test_run_walk_matches_symbol_walk_on_muted_rep_counts(variant, data):
    # about half the words muted (rep count 0): a muted word is never sent, a page may become
    # unreachable, and now and then one has no weight left, which both walks refuse
    shipped = ternary.dictionary_for(variant)
    pages = []
    for page in shipped.pages:
        reps = data.draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=len(page.entries), max_size=len(page.entries)))
        entries = tuple(ternary.PageEntry(e.word, e.code, rep) for e, rep in zip(page.entries, reps))
        pages.append(ternary.TernaryPage(page.sigma, entries))
    book = ternary.PagedTernaryDictionary(variant, tuple(pages))
    assert _run_outcome(ternary.run_bounds, book) == _run_outcome(symbol_walk_run_bounds, book)


def test_run_past_the_cap_is_refused():
    # zzz keeps the disparity, so on page 2 it loops on its own page and the z run grows without end
    page = ternary.dictionary_for(ternary.REFERENCE).page(2)
    looping = (ternary.PageEntry(ternary.word_metrics("zzz"), 0, page.entries[0].rep_count),) + page.entries[1:]
    book = _reference_with_page_two(looping)
    message = "run of 'z' exceeds the cap of 16"
    assert _run_outcome(symbol_walk_run_bounds, book) == (RangeError, message)
    with pytest.raises(RangeError, match=message):
        ternary.run_bounds(book)
    for _ in range(2):  # and again on the second call
        with pytest.raises(RangeError, match=message):
            ternary.portrait(book)


def _fresh(variant):
    """A book equal to a shipped one, with none of its derived tables built yet."""
    shipped = ternary.dictionary_for(variant)
    return ternary.PagedTernaryDictionary(shipped.variant, shipped.pages)


def test_portrait_is_solved_once_per_dictionary(monkeypatch):
    # the stationary solve and the run walk ran again on every call; an equal book is solved once, for itself
    counts = {"stationary_distribution": 0, "run_bounds": 0}

    def counted(name):
        solve = getattr(ternary, name)

        def wrapper(*args):
            counts[name] += 1
            return solve(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(ternary, name, counted(name))
    book = _fresh(ternary.BROADENED)
    first = [ternary.portrait(book) for _ in range(3)]
    assert counts == {"stationary_distribution": 1, "run_bounds": 1}
    twin = _fresh(ternary.BROADENED)
    assert [ternary.portrait(twin) for _ in range(3)] == first
    assert counts == {"stationary_distribution": 2, "run_bounds": 2}


def test_each_portrait_owns_its_dicts():
    # a cached result handed to every caller would carry one caller's edit into the next report
    book = _fresh(ternary.REFERENCE)
    edited, kept = ternary.portrait(book), ternary.portrait(book)
    edited.p_sigma_phase[0].clear()
    edited.p_letter_phase[1]["L"] = Fraction(1)
    edited.run_bounds["z"] = 99
    again = ternary.portrait(book)
    assert again.p_sigma_phase[0] and again.p_letter_phase[1]["L"] == Fraction(134, 416) and again.run_bounds["z"] == 4
    assert kept == again == fraction_portrait(book) != edited
    assert repr(again) == repr(fraction_portrait(book))


# Page occupancy at a word boundary: the stationary vector that
# test_stationary_exact pins, printed as the last-phase disparity cells of
# both portraits (0.15/0.35/0.35/0.15).
BOUNDARY_OCCUPANCY = (Fraction(2, 13), Fraction(9, 26), Fraction(9, 26), Fraction(2, 13))

# Per-word weights a reading of the broadened table could give its pages.
WEIGHTINGS = {
    "rep": lambda row, sigma: int(row[f"s{sigma}_rn"]),
    "uniform": lambda row, sigma: 1,
    "rprev": lambda row, sigma: int(row[f"s{sigma}_rprev"] or 0),
}


def _table_pages(rows, member, weight):
    """Per-page (symbols, delta_dc, weight) lists read straight from table rows."""
    return {
        sigma: [
            (row["image"], int(row["delta_dc"]), weight(row, sigma))
            for row in rows
            if row[member.format(sigma)]
        ]
        for sigma in ternary.SIGMA_LEVELS
    }


def _boundary_transit(chosen, follow, occupancy=BOUNDARY_OCCUPANCY, next_page=True):
    """Share of word boundaries whose two symbols differ, summed pair by pair.

    A word is drawn from its page by its `chosen` weight; the word after it
    is drawn by its `follow` weight from the page the first word leads to,
    or from the same page when next_page is False.
    """
    total = 0
    for sigma, share in zip(ternary.SIGMA_LEVELS, occupancy):
        page_weight = sum(w for _, _, w in chosen[sigma])
        for word, delta, weight in chosen[sigma]:
            after = follow[sigma + delta if next_page else sigma]
            after_weight = sum(w for _, _, w in after)
            for second, _, second_weight in after:
                if word[-1] != second[0]:
                    total += share * weight * second_weight / (page_weight * after_weight)
    return total


def _occupancy(pages):
    """Float stationary page occupancy of the chain that the page weights drive."""
    matrix = np.zeros((4, 4))
    for sigma, page in pages.items():
        total = sum(w for _, _, w in page)
        for _, delta, weight in page:
            matrix[sigma - 1, sigma + delta - 1] += weight / total
    system = np.vstack([(matrix.T - np.eye(4))[:-1], np.ones(4)])
    return np.linalg.solve(system, [0, 0, 0, 1])


def test_boundary_transit_oracle():
    broadened = _table_pages(ternary.table_rows(ternary.BROADENED), "s{}_id", WEIGHTINGS["rep"])
    reference = _table_pages(ternary.table_rows(ternary.REFERENCE), "nibble_s{}", WEIGHTINGS["uniform"])
    wide = ternary.portrait(ternary.dictionary_for(ternary.BROADENED))
    narrow = ternary.portrait(ternary.dictionary_for(ternary.REFERENCE))
    assert _boundary_transit(broadened, broadened) == wide.p_transit[2] == Fraction(2267, 3328)
    assert _boundary_transit(reference, reference) == narrow.p_transit[2] == Fraction(569, 832)


def test_boundary_transit_conventions_ruled_out():
    """No reading of the broadened table brings the boundary cell near 0.58.

    Word and follow-word weights each range over rep_count, uniform and the
    s*_rprev flag counts; the follow word comes from the next page or from
    the current one.  The current-page reading is also refuted by the
    reference table, whose printed 0.68 it misses.
    """
    rows = ternary.table_rows(ternary.BROADENED)
    pages = {name: _table_pages(rows, "s{}_id", weight) for name, weight in WEIGHTINGS.items()}
    cells = {
        (chosen, follow, next_page): _boundary_transit(pages[chosen], pages[follow], next_page=next_page)
        for chosen, follow in itertools.product(pages, repeat=2)
        for next_page in (True, False)
    }
    assert len(cells) == 18
    assert cells["rep", "rep", True] == Fraction(2267, 3328)
    assert min(cells, key=cells.get) == ("rprev", "rprev", False)
    assert min(cells.values()) == Fraction(4155, 6656)
    assert max(cells, key=cells.get) == ("uniform", "rprev", True)
    assert max(cells.values()) == Fraction(89, 128)
    assert 0.62 < min(cells.values()) and max(cells.values()) < 0.70

    reference = _table_pages(ternary.table_rows(ternary.REFERENCE), "nibble_s{}", WEIGHTINGS["uniform"])
    current = _boundary_transit(reference, reference, next_page=False)
    assert current == Fraction(1081, 1664)
    assert abs(float(current) - 0.68) > 0.01


def test_boundary_transit_profile_sweep():
    """Every mirror-symmetric bubble-map profile keeps the cell in [0.67, 0.70].

    The 18-word pages spend 32 key slots as fourteen rep-2 words and four
    rep-1 words; page 3 mirrors page 2, so the four rep-1 words of page 2
    fix the profile.  Each profile gets the occupancy of its own chain.
    """
    shipped = _table_pages(ternary.table_rows(ternary.BROADENED), "s{}_id", WEIGHTINGS["rep"])
    assert sorted(w for _, _, w in shipped[2]) == [1] * 4 + [2] * 14
    cells = []
    for light in itertools.combinations([word for word, _, _ in shipped[2]], 4):
        mirrored = {invert_word(word) for word in light}
        pages = dict(shipped)
        pages[2] = [(word, delta, 1 if word in light else 2) for word, delta, _ in shipped[2]]
        pages[3] = [(word, delta, 1 if word in mirrored else 2) for word, delta, _ in shipped[3]]
        cells.append(_boundary_transit(pages, pages, occupancy=_occupancy(pages)))
    assert len(cells) == 3060
    assert 0.67 < min(cells) and max(cells) < 0.70


def test_run_bounds():
    for variant in ternary.VARIANTS:
        stats = ternary.portrait(ternary.dictionary_for(variant))
        assert stats.run_bounds == {"L": 5, "z": 4, "H": 5}


def test_run_bound_witnesses():
    # LzH, HHH, HLL is a legal walk 1 -> 1 -> 4 -> 3 holding five H's in a row
    assert ternary.paged_codec().decode("LzHHHHHLL", 1)[0]
    # Hzz, zzH walks 1 -> 2 -> 3 holding four z's in a row
    assert ternary.paged_codec().decode("HzzzzH", 1)[0]


def test_simulated_frequencies_track_exact_values():
    rng = random.Random(0xBEA7)
    stats = ternary.portrait(ternary.dictionary_for(ternary.REFERENCE))
    words = 333334
    counts = {ch: 0 for ch in ternary.SYMBOLS}
    runs = {ch: 0 for ch in ternary.SYMBOLS}
    current, streak = "", 0
    sigma = ternary.START_SIGMA
    for _ in range(words):
        word = ternary.encode_nibble(rng.randrange(16), sigma)
        sigma += word.delta_dc
        for ch in word.symbols:
            counts[ch] += 1
            streak = streak + 1 if ch == current else 1
            current = ch
            runs[ch] = max(runs[ch], streak)
    letters = 3 * words
    for ch in ternary.SYMBOLS:
        p = float(stats.p_letter[ch])
        margin = 3 * (letters * p * (1 - p)) ** 0.5
        assert abs(counts[ch] - letters * p) <= margin
    assert runs["z"] <= 4 and runs["L"] <= 5 and runs["H"] <= 5


def test_simulated_broadened_key_stream():
    rng = random.Random(0xB0A7)
    stats = ternary.portrait(ternary.dictionary_for(ternary.BROADENED))
    words = 120000
    counts = {ch: 0 for ch in ternary.SYMBOLS}
    changes = [0, 0, 0]  # after the first and second symbol, then at the boundary
    sigma = ternary.START_SIGMA
    last = None
    for _ in range(words):
        word = ternary.scrambled_word(rng.randrange(32), sigma)
        sigma += word.delta_dc
        assert sigma in ternary.SIGMA_LEVELS
        symbols = word.symbols
        for ch in symbols:
            counts[ch] += 1
        changes[0] += symbols[0] != symbols[1]
        changes[1] += symbols[1] != symbols[2]
        if last is not None:
            changes[2] += last != symbols[0]
        last = symbols[-1]
    letters = 3 * words
    for ch in ternary.SYMBOLS:
        p = float(stats.p_letter[ch])
        margin = 3 * (letters * p * (1 - p)) ** 0.5
        assert abs(counts[ch] - letters * p) <= margin
    # three binomial sigmas: 0.0040 on the boundary share, which the printed
    # 0.58 would miss by 75 sigmas
    for k, observed in enumerate(changes):
        trials = words - 1 if k == ternary.WORD_LENGTH - 1 else words
        p = float(stats.p_transit[k])
        margin = 3 * (trials * p * (1 - p)) ** 0.5
        assert abs(observed - trials * p) <= margin


def test_page_code_gap_is_range_error():
    entries = ternary.dictionary_for(ternary.REFERENCE).page(1).entries
    with pytest.raises(RangeError):
        ternary.TernaryPage(1, entries[1:])


@given(
    text=st.text(alphabet="LzHx", max_size=15),
    variant=st.sampled_from(ternary.VARIANTS),
    sigma=st.integers(min_value=-1, max_value=6),
)
def test_paged_decoder_round_trips_or_raises(text, variant, sigma):
    # any symbol string from any disparity, "x" and sigma outside 1..4 being foreign
    try:
        codes = ternary.paged_codec(variant).decode(text, sigma)[0]
    except WorkbenchError:
        return
    assert ternary.paged_codec(variant).encode(codes, sigma)[0] == text
