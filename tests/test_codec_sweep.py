"""Every input up to a size, through both paged codecs: each accepted input
re-encodes to itself, every other one is refused with a WorkbenchError, and
the accepted count is the number of walks over the codec's next states.

A bounded-exhaustive check of the small scope (Jackson, Software
Abstractions, 2006): the counts come from `PagedCodec.successors`, never
from a literal, so a page that lost, doubled or misrouted a word shows.
"""

from collections import Counter
from itertools import product

import pytest

from lamcode import dictionary, ternary
from lamcode.errors import WorkbenchError


def _walks(successors: dict, state, words: int) -> int:
    """The number of walks of `words` steps from `state` over the next states."""
    ends = Counter({state: 1})
    for _ in range(words):
        after = Counter()
        for here, count in ends.items():
            for nxt in successors[here]:
                after[nxt] += count
        ends = after
    return sum(ends.values())


def _accepted(codec, texts, state) -> int:
    """How many of `texts` decode from `state`; each one that does must re-encode to itself."""
    accepted = 0
    for text in texts:
        try:
            codes, end = codec.decode(text, state)
        except WorkbenchError:
            continue
        assert codec.encode(codes, state) == (text, end)
        accepted += 1
    return accepted


def _strings(alphabet: str, length: int):
    return map("".join, product(alphabet, repeat=length))


@pytest.mark.parametrize("page", "AB")
def test_every_two_word_jk_string(page):
    # m = 8: all 65,536 {J, K} strings of 16 letters
    codec = dictionary.paged_codec(8)
    accepted = _accepted(codec, _strings("JK", 2 * codec.width), page)
    assert accepted == _walks(codec.successors, page, 2) > 1


@pytest.mark.parametrize("variant", ternary.VARIANTS)
@pytest.mark.parametrize("sigma", ternary.SIGMA_LEVELS)
def test_every_short_pam3_string(variant, sigma):
    # all {L, z, H} strings of at most three words: the torn ones, and the whole ones that leave the pages, refused
    codec = ternary.paged_codec(variant)
    texts = (text for length in range(3 * codec.width + 1) for text in _strings("LzH", length))
    accepted = _accepted(codec, texts, sigma)
    assert accepted == sum(_walks(codec.successors, sigma, words) for words in range(4)) > 1
