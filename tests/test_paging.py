"""The paged codec's chained tables against the tuple-keyed walk they replace."""

import random
import re

import pytest

from lamcode import dictionary, ternary
from lamcode.errors import RangeError
from lamcode.paging import CodeOutOfRange, PageMiss

STREAM_WORDS = 200


# --- the oracle: one (state, code) or (state, word) lookup per symbol ----


def _check_state(codec, state):
    if state not in codec.sizes:
        raise RangeError(f"state {state!r} outside pages {tuple(codec.sizes)}")


def tuple_keyed_encode(codec, codes, state):
    _check_state(codec, state)
    words = []
    for code in codes:
        try:
            word, state = codec.forward[state, code]
        except KeyError:
            raise CodeOutOfRange(f"code {code} outside page {state} of {codec.sizes[state]} words") from None
        words.append(word)
    return "".join(words), state


def tuple_keyed_decode(codec, text, state):
    inverse = {(s, word): (code, nxt) for (s, code), (word, nxt) in codec.forward.items()}
    _check_state(codec, state)
    if len(text) % codec.width:
        raise PageMiss("stream length is not a whole number of words")
    codes = []
    for start in range(0, len(text), codec.width):
        word = text[start : start + codec.width]
        try:
            code, state = inverse[state, word]
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


CODECS = [
    pytest.param(lambda m=m, f=f: dictionary.paged_codec(m, f), id=f"m{m}-{name}")
    for m in (2, 4, 8, 12, 16)
    for name, f in (("unit", dictionary.UNIT_BIAS), ("balanced", dictionary.BALANCED), ("default", None))
] + [pytest.param(lambda v=variant: ternary.paged_codec(v), id=variant) for variant in ternary.VARIANTS]


def _stream(codec, rng, state, count):
    codes = []
    for _ in range(count):
        code = rng.randrange(codec.sizes[state])
        codes.append(code)
        state = codec.forward[state, code][1]
    return codes


@pytest.mark.parametrize("build", CODECS)
def test_chained_tables_match_the_tuple_keyed_walk(build):
    codec = build()
    rng = random.Random(20)
    for state in codec.sizes:
        codes = _stream(codec, rng, state, STREAM_WORDS)
        text, end = codec.encode(codes, state)
        assert (text, end) == tuple_keyed_encode(codec, codes, state)
        assert codec.decode(text, state) == tuple_keyed_decode(codec, text, state) == (codes, end)
        assert codec.encode([], state) == ("", state) and codec.decode("", state) == ([], state)
        # a code past its page, a negative one, a torn stream and a foreign word, each somewhere inside
        at = rng.randrange(STREAM_WORDS)
        for bad in (codec.sizes[state] + rng.randrange(3), -1):
            spoiled = codes[:at] + [bad] + codes[at:]
            for probe in (spoiled, [bad] * 2):
                expected = _outcome(lambda: tuple_keyed_encode(codec, probe, state))
                assert _outcome(lambda: codec.encode(probe, state)) == expected
        edge = at * codec.width
        for probe in (text[: edge + 1], text[:edge] + "?" * codec.width + text[edge:]):
            expected = _outcome(lambda: tuple_keyed_decode(codec, probe, state))
            assert _outcome(lambda: codec.decode(probe, state)) == expected
    for state in ("Z", 99, None):
        expected = _outcome(lambda: tuple_keyed_encode(codec, [0], state))
        assert expected[0] is RangeError
        assert _outcome(lambda: codec.encode([0], state)) == expected
        assert _outcome(lambda: codec.decode("", state)) == _outcome(lambda: tuple_keyed_decode(codec, "", state))


def test_every_foreign_word_is_a_page_miss():
    # each word of the union, received from each page it is not in, names the page it missed
    codec = dictionary.paged_codec(8, dictionary.UNIT_BIAS)
    union = {word for word, _ in codec.forward.values()}
    for state in codec.sizes:
        listed = {word for (s, _), (word, _) in codec.forward.items() if s == state}
        for word in sorted(union - listed):
            expected = _outcome(lambda: tuple_keyed_decode(codec, word, state))
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
