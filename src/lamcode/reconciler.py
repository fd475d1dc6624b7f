"""Streaming mixed-radix capacity reconciliation.

A FIFO of fractional capacity: input symbols of arbitrary radix are
positionally accumulated into an unbounded integer pair (B_q, N_q), and
output symbols of page-dependent radix are peeled off the bottom. The
capacity update after a dequeue rounds up, N_q <- ceil(N_q / $N), which
costs a sliver of capacity but keeps the state integral and the whole
schedule value-independent: both ends can replay when each queue
operation happened from the radix sequences alone.

Dequeues are gated by a threshold test N_q >= K * $N. Larger K wastes
less (the rounding loss per output symbol is at most log2(1 + 1/K)
bits) at the price of a larger resident value. When the encoder and
decoder both run the same gate, the emitted stream plus the input
symbol count is exactly decodable; the count rides in a fixed header.
Both ends therefore walk the one generator `_schedule`.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Iterable, Iterator

from .errors import RangeError, WorkbenchError
from .record import Record


class FlushAmbiguity(WorkbenchError, ValueError):
    """Symbol count does not match the replayed schedule."""


class DecodeError(WorkbenchError, ValueError):
    """Symbol values are inconsistent with any input stream."""


class RadixOracle(Record):
    """Per-step radices, known to both ends of the link."""

    input_radix: Callable[[int], int]
    output_radix: Callable[[int], int]


def constant_oracle(n_in: int, n_out: int) -> RadixOracle:
    return RadixOracle(lambda m: n_in, lambda n: n_out)


class ReconcilerConfig(Record):
    capacity_threshold: int = 1  # K: dequeue only while N_q >= K * $N

    def _check(self) -> None:
        if self.capacity_threshold < 1:
            raise RangeError("capacity threshold K must be at least 1")


class EncodedStream(Record):
    """Wire container: consumed-input count header plus output symbols."""

    count: int
    symbols: tuple[int, ...]


def _schedule(
    count: int, oracle: RadixOracle, config: ReconcilerConfig
) -> Iterator[tuple[str, int, int, int]]:
    """The capacity gate: (op, radix, N_q before, N_q after) per queue step.

    op is "enqueue", "dequeue" (gated mid-stream) or "flush" (the final
    drain). The only reader of the oracle and K; it validates every radix
    it reads.
    """
    k = config.capacity_threshold
    input_radix, output_radix = oracle.input_radix, oracle.output_radix  # bound once, not per step

    def out_radix(n: int) -> int:
        radix = output_radix(n)
        if radix < 3:
            raise RangeError("output radix must be at least 3")
        return radix

    n_q = 1
    n = 0
    for m in range(count):
        radix = input_radix(m)
        if radix < 2:
            raise RangeError("input radix must be at least 2")
        before, n_q = n_q, n_q * radix
        yield "enqueue", radix, before, n_q
        radix = out_radix(n)
        while n_q >= k * radix:
            before, n_q = n_q, -(-n_q // radix)
            n += 1
            yield "dequeue", radix, before, n_q
            radix = out_radix(n)
    while n_q > 1:
        radix = out_radix(n)
        before, n_q = n_q, -(-n_q // radix)
        n += 1
        yield "flush", radix, before, n_q


def encode_stream(
    inputs: Iterable[int],
    oracle: RadixOracle,
    config: ReconcilerConfig = ReconcilerConfig(),
    trace: list[str] | None = None,
) -> EncodedStream:
    """Walk the capacity schedule over a whole input stream.

    After each enqueue, dequeues take priority and repeat while the
    threshold test holds; termination drains every remaining digit.
    The schedule owns N_q; the queued value B_q is a plain int here.
    Each step appends "stage,B_q,N_q,symbol" to `trace` when given.
    Inputs are read as ints; a non-integer one is a RangeError.
    """
    try:
        inputs = list(map(index, inputs))  # 2.5 would enqueue a fraction, and numpy products overflow
    except TypeError:  # a non-integer input, or inputs that are no iterable
        raise RangeError("inputs must be integers") from None
    pending = iter(inputs)
    b_q = 0
    out: list[int] = []
    if trace is not None:
        trace.append("init,0,1,")
    for op, radix, n_q_before, n_q in _schedule(len(inputs), oracle, config):
        if op == "enqueue":
            symbol = next(pending)
            if not 0 <= symbol < radix:
                raise RangeError(f"symbol {symbol} outside radix {radix}")
            b_q += symbol * n_q_before
        else:
            b_q, symbol = divmod(b_q, radix)
            out.append(symbol)
        if not 0 <= b_q < n_q:
            raise RangeError(f"queue invariant violated: B_q={b_q}, N_q={n_q}")
        if trace is not None:
            trace.append(f"{op},{b_q},{n_q},{symbol}")
    return tuple.__new__(EncodedStream, (len(inputs), tuple(out)))  # a count and symbols made here: unchecked


def decode_stream(
    encoded: EncodedStream,
    oracle: RadixOracle,
    config: ReconcilerConfig = ReconcilerConfig(),
) -> list[int]:
    """Invert encode_stream: the same schedule forward, values backward.

    Walking the op list in reverse turns every dequeue into a positional
    push and every enqueue into a division by the capacity the queue had
    at that moment, recovering inputs last-to-first. `encoded` that is not
    an EncodedStream is a RangeError. `oracle` is configuration, not wire
    data, and is not type-checked: one that is not a RadixOracle of int
    radices raises TypeError or AttributeError.
    """
    if not isinstance(encoded, EncodedStream):
        raise RangeError(f"encoded must be an EncodedStream, not {type(encoded).__name__}")
    if encoded.count < 0:
        raise RangeError("negative input count")
    try:
        symbols = list(map(index, encoded.symbols))  # 5.5 would decode to 5.0
    except TypeError:  # a non-integer symbol, or symbols that are no sequence
        raise DecodeError("symbols must be integers") from None
    carried = len(symbols)
    ops = []
    produced = 0
    for step in _schedule(encoded.count, oracle, config):
        produced += step[0] != "enqueue"
        if produced > carried:
            break
        ops.append(step)
    if produced != carried:
        raise FlushAmbiguity(f"schedule does not yield the {carried} symbols the stream carries")
    value = 0
    inputs: list[int] = []
    for op, radix, n_q_before, _ in reversed(ops):
        if op == "enqueue":
            b_in, value = divmod(value, n_q_before)
            if b_in >= radix:
                raise DecodeError("recovered symbol exceeds its radix")
            inputs.append(b_in)
        else:
            symbol = symbols.pop()
            if not 0 <= symbol < radix:
                raise DecodeError(f"symbol {symbol} outside radix {radix}")
            value = value * radix + symbol
    inputs.reverse()
    return inputs
