"""Table-driven paged stream codec.

Each word of a paged stream comes from a page, and the word just sent picks
the page (the state) for the next word. Both ends read one fixed-state map,
built once from the pages, as tabled ANS does (Duda, arXiv:1311.2540).
"""

from __future__ import annotations

from .errors import RangeError, WorkbenchError


class CodeOutOfRange(RangeError):
    """A code exceeds the size of the page its state selects."""


class PageMiss(WorkbenchError, ValueError):
    """A word is torn or absent from the page its state selects."""


class PagedCodec:
    """Closed pages of equal-width words, given as {state: [(word, next_state), ...]}
    in code order. `forward` maps (state, code) to (word, next_state) and
    `inverse` maps (state, word) to (code, next_state)."""

    def __init__(self, pages: dict) -> None:
        self.sizes = {state: len(page) for state, page in pages.items()}
        self.forward = {(s, code): entry for s, page in pages.items() for code, entry in enumerate(page)}
        self.inverse = {(s, word): (code, nxt) for (s, code), (word, nxt) in self.forward.items()}
        self.width = len(next(iter(self.forward.values()))[0])

    def _check_state(self, state) -> None:
        if state not in self.sizes:
            raise RangeError(f"state {state!r} outside pages {tuple(self.sizes)}")

    def encode(self, codes, state) -> tuple[str, object]:
        """The words for `codes` sent from `state`, and the state after them."""
        self._check_state(state)
        words = []
        for code in codes:
            try:
                word, state = self.forward[state, code]
            except KeyError:
                size = self.sizes[state]
                raise CodeOutOfRange(f"code {code} outside page {state} of {size} words") from None
            words.append(word)
        return "".join(words), state

    def decode(self, text: str, state) -> tuple[list[int], object]:
        """The codes of `text` received from `state`, and the state after them."""
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
