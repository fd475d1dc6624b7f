"""Reference computations the benchmark checks lamcode's outputs against.

Each one is derived independently of the package code it checks: J/K
words are enumerated as bitmasks (K as a 1 bit, KK rejected by
`v & (v >> 1)`), PAM-3 image features are measured by direct scans, and
the LFSR is stepped one bit at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MASK_NAMES = ("JJ", "JK", "KJ")


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def closed_form_masks(m: int) -> dict[str, int]:
    """Valid words per mask: F(m) of J..J and F(m-1) each of J..K and K..J."""
    return {"JJ": fibonacci(m), "JK": fibonacci(m - 1), "KJ": fibonacci(m - 1)}


@lru_cache(maxsize=None)
def jk_table(m: int) -> dict[str, np.ndarray]:
    """Mask, DC bias, J count and droop of every valid length-m word."""
    v = np.arange(1 << m, dtype=np.int64)
    k = (v[:, None] >> np.arange(m - 1, -1, -1)) & 1  # letter 0 is the top bit
    keep = ((v & (v >> 1)) == 0) & ~((k[:, 0] == 1) & (k[:, -1] == 1))
    k = k[keep]
    j = 1 - k
    high = np.cumsum(j, axis=1) % 2  # level after each letter, starting low
    bias = np.where(k == 1, 2 * high - 1, 0).sum(axis=1)
    head = np.cumprod(high == high[:, :1], axis=1).sum(axis=1)
    tail = np.cumprod(high[:, ::-1] == high[:, -1:], axis=1).sum(axis=1)
    mask = np.where(k[:, 0] == 1, 2, np.where(k[:, -1] == 1, 1, 0))  # JJ, JK, KJ
    return {
        "mask": mask,
        "bias": bias,
        "transits": j.sum(axis=1),
        "droop": np.maximum(head, tail),
    }


def _admitted(m: int, image_filter) -> tuple[dict[str, np.ndarray], np.ndarray]:
    table = jk_table(m)
    keep = np.ones(len(table["mask"]), dtype=bool)
    if image_filter.balanced_only:
        keep &= table["bias"] == 0
    if image_filter.max_abs_bias is not None:
        keep &= np.abs(table["bias"]) <= image_filter.max_abs_bias
    keep &= table["transits"] >= image_filter.min_transits
    if image_filter.max_droop is not None:
        keep &= table["droop"] <= image_filter.max_droop
    return table, keep


def census(m: int, image_filter) -> dict[str, dict[str, int]]:
    table, keep = _admitted(m, image_filter)
    magnitude = np.abs(table["bias"])
    out = {}
    for code, mask in enumerate(MASK_NAMES):
        in_mask = keep & (table["mask"] == code)
        out[mask] = {
            "balanced": int(np.count_nonzero(in_mask & (magnitude == 0))),
            "unit": int(np.count_nonzero(in_mask & (magnitude == 1))),
            "other": int(np.count_nonzero(in_mask & (magnitude > 1))),
        }
    return out


def page_sizes(m: int, image_filter) -> tuple[int, int]:
    """Page A holds J-starting words (JJ, JK), page B J-ending ones (JJ, KJ)."""
    counts = {mask: sum(row.values()) for mask, row in census(m, image_filter).items()}
    return counts["JJ"] + counts["JK"], counts["JJ"] + counts["KJ"]


def jump_probability(pages, i: int, mask: str | None) -> Fraction:
    words = {word for page in pages for word in page}
    if mask is not None:
        words = {word for word in words if word[0] + word[-1] == mask}
    return Fraction(sum(word[i] == "J" for word in words), len(words))


@lru_cache(maxsize=1)
def pam3_columns() -> dict[str, np.ndarray]:
    """Head run, tail run, DC sum and transit count of all 3^12 images."""
    symbols = 12
    index = np.arange(3**symbols, dtype=np.int32)

    def level(p: int) -> np.ndarray:  # symbol p, the first one most significant
        return ((index // 3 ** (symbols - 1 - p)) % 3 - 1).astype(np.int8)

    first, last = level(0), level(symbols - 1)
    head = np.ones(len(index), dtype=np.int8)
    tail = np.ones(len(index), dtype=np.int8)
    same_head = np.ones(len(index), dtype=bool)
    same_tail = np.ones(len(index), dtype=bool)
    dc = first.astype(np.int16)
    transits = np.zeros(len(index), dtype=np.int8)
    previous = first
    for p in range(1, symbols):
        current = level(p)
        same_head &= current == first
        same_tail &= level(symbols - 1 - p) == last
        head += same_head
        tail += same_tail
        dc += current
        transits += current != previous
        previous = current
    return {"head": head, "tail": tail, "dc": dc, "transits": transits}


def image_census(max_head: int, max_tail: int, dc_bound: int, min_transits: int) -> int:
    cols = pam3_columns()
    keep = (cols["head"] <= max_head) & (cols["tail"] <= max_tail)
    keep &= (np.abs(cols["dc"]) <= dc_bound) & (cols["transits"] >= min_transits)
    return int(np.count_nonzero(keep))


def lfsr_draws(state: int, nbits: int, count: int, width: int = 33, tap: int = 13) -> list[int]:
    """Bit-serial x^33 + x^13 + 1 register; the first output bit is the LSB."""
    out = []
    for _ in range(count):
        value = 0
        for position in range(nbits):
            bit = state & 1
            feedback = (state ^ (state >> tap)) & 1
            state = (state >> 1) | (feedback << (width - 1))
            value |= bit << position
        out.append(value)
    return out


def minimal_rounds(data: int, capable: int, modulus: int) -> int:
    """Smallest n with modulus * data**n <= capable**n, by a float estimate
    refined with exact integer comparisons."""
    n = max(1, math.ceil(math.log(modulus) / math.log(capable / data)))
    while n > 1 and modulus * data ** (n - 1) <= capable ** (n - 1):
        n -= 1
    while modulus * data**n > capable**n:
        n += 1
    return n


def transition_matrix(dictionary) -> list[list[Fraction]]:
    """Page-to-page chain from the words' own symbol sums and rep counts."""
    value = {"L": -1, "z": 0, "H": 1}
    levels = (1, 2, 3, 4)
    rows = []
    for sigma in levels:
        entries = dictionary.page(sigma).entries
        total = sum(entry.rep_count for entry in entries)
        row = [Fraction(0)] * len(levels)
        for entry in entries:
            target = sigma + sum(value[ch] for ch in entry.word.symbols)
            row[target - 1] += Fraction(entry.rep_count, total)
        rows.append(row)
    return rows
