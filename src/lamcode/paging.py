"""Table-driven paged stream codec.

Each word of a paged stream comes from a page, and the word just sent picks
the page (the state) for the next word. Both ends read one fixed-state map,
built once from the pages, as tabled ANS does (Duda, arXiv:1311.2540).
The page chain that this choice drives has one exact stationary solve,
`stationary_distribution`; it refuses chains with transient states, such
as the J/K chain, whose page B absorbs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import RangeError, WorkbenchError


class CodeOutOfRange(RangeError):
    """A code exceeds the size of the page its state selects."""


class PageMiss(WorkbenchError, ValueError):
    """A word is torn or absent from the page its state selects."""


class Reducible(WorkbenchError, ArithmeticError):
    """Page chain with several closed classes or transient states."""


class PagedCodec:
    """Closed pages of equal-width words, given as {state: [(word, next_state), ...]}
    in code order; a next state that names no page raises PageMiss, no word,
    an empty first word or a word of another width than the first RangeError.
    `successors` maps each state to its next states in code order. The private
    encode table of a state lists, per code, (word, next_state, the next encode
    table), and its decode table maps a word to (code, next_state, the next decode
    table); each entry is stored once per direction, and a symbol costs one lookup."""

    def __init__(self, pages: dict) -> None:
        encoders = self._encoders = {state: [] for state in pages}
        decoders = self._decoders = {state: {} for state in pages}
        width = self.width = next((len(word) for page in pages.values() for word, _ in page), 0)
        if not width:
            raise RangeError("words must hold at least one symbol, and the pages at least one word")
        for state, page in pages.items():
            encode, decode = encoders[state], decoders[state]
            for code, (word, nxt) in enumerate(page):
                if nxt not in encoders:
                    raise PageMiss(f"word {word!r} leaves the band from {state}")
                if len(word) != width:
                    raise RangeError(f"word {word!r} has width {len(word)}, not {width}")
                encode.append((word, nxt, encoders[nxt]))
                decode[word] = code, nxt, decoders[nxt]
        self.successors = {state: tuple(nxt for _, nxt in page) for state, page in pages.items()}

    def encode(self, codes, state) -> tuple[str, object]:
        """The words for `codes` sent from `state`, and the state after them.

        `codes` that is not iterable is a RangeError; a code that is not an
        integer (`__index__`) in the current page's range is a CodeOutOfRange.
        """
        table = _table(self._encoders, state)
        try:
            codes = iter(codes)
        except TypeError:
            raise RangeError(f"codes must be an iterable of integers, not {type(codes).__name__}") from None
        words = []
        for code in codes:
            try:
                if code < 0:  # a negative index would read from the end of the list
                    raise IndexError(code)
                word, state, table = table[code]
            except (IndexError, TypeError, ValueError):  # ValueError: an array's truth value is ambiguous
                raise CodeOutOfRange(f"code {code} outside page {state} of {len(self._encoders[state])} words") from None
            words.append(word)
        return "".join(words), state

    def decode(self, text: str, state) -> tuple[list[int], object]:
        """The codes of `text` received from `state`, and the state after them; `text` that is not a str is a RangeError."""
        table = _table(self._decoders, state)
        if not isinstance(text, str):
            raise RangeError(f"text must be a str, not {type(text).__name__}")
        width = self.width
        if len(text) % width:
            raise PageMiss("stream length is not a whole number of words")
        codes = []
        for start in range(0, len(text), width):
            word = text[start : start + width]  # sliced here, not listed first: a listing holds every word at once
            try:
                code, state, table = table[word]
            except KeyError:
                raise PageMiss(f"word {word!r} not in page {state}") from None
            codes.append(code)
        return codes, state


def _table(tables: dict, state) -> dict:
    try:
        return tables[state]
    except (KeyError, TypeError):  # an unhashable state names no page either
        raise RangeError(f"state {state!r} outside pages {tuple(tables)}") from None


def stationary_distribution(matrix) -> tuple:
    """Exact stationary row vector of a page chain given as transition rows.

    The matrix must be square and nonempty, and every row a probability
    vector. Each entry is read as its exact ratio (`as_integer_ratio`), so a
    chain of floats is answered exactly, in `Fraction`s of the floats given,
    and a float row must sum to 1 in those ratios: (0.3, 0.7) sums to 1 as
    floats, not exactly, and is a RangeError. The balance equations with the
    normalisation have one solution exactly when the chain has one closed
    class (Kemeny & Snell, ch. 5; periodic chains included), and that
    solution is positive exactly when no state is transient. Several closed
    classes raise Reducible, and so do transient states.

    Row i is scaled to integer weights over its denominators' lcm d_i,
    and is refused unless they are nonnegative and sum to d_i. The system
    in pi_i / d_i is solved by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968): every division is exact, and each share is one
    Fraction over the determinant.
    """
    try:
        n = len(matrix)
        square = n and all(len(row) == n for row in matrix)
    except TypeError:  # a matrix or a row with no length
        square = False
    if not square:
        raise RangeError("the chain must be a nonempty square matrix")
    scales, weights = [], []
    for i, row in enumerate(matrix):
        refusal = f"row {i} of the chain is not a probability vector"
        try:
            ratios = [p.as_integer_ratio() for p in row]
        except (AttributeError, ValueError, OverflowError):  # no exact ratio: a non-number, nan or an infinity
            raise RangeError(refusal) from None
        scale = lcm(*(q for _, q in ratios))
        weight = [p * (scale // q) for p, q in ratios]
        if any(w < 0 for w in weight) or sum(weight) != scale:
            raise RangeError(refusal)
        scales.append(scale)
        weights.append(weight)
    rows = [[weights[i][j] - (scales[i] if i == j else 0) for i in range(n)] + [0] for j in range(n - 1)]
    rows.append(scales + [1])
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise Reducible("chain splits into several closed components")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        lead = head[col]
        for r in range(col + 1, n):
            row = rows[r]
            factor = row[col]
            rows[r] = [(v * lead - factor * w) // previous for v, w in zip(row, head)]
        previous = lead
    # previous is now the determinant up to sign; det * (pi_i / d_i) is an integer
    solved = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        rest = sum(row[j] * solved[j] for j in range(i + 1, n))
        solved[i] = (previous * row[n] - rest) // row[i]
    transient = [i for i, y in enumerate(solved) if y == 0]
    if transient:
        raise Reducible(f"chain has transient states {transient}")
    return tuple(Fraction(y * d, previous) for y, d in zip(solved, scales))
