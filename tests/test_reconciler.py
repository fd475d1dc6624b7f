"""Mixed-radix queue operations and the streaming transcoder."""

import itertools
import math
import random

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamcode.errors import RangeError, WorkbenchError
from lamcode.reconciler import (
    DecodeError,
    EncodedStream,
    FlushAmbiguity,
    RadixOracle,
    ReconcilerConfig,
    constant_oracle,
    decode_stream,
    encode_stream,
)

# --- reference queue steps ----------------------------------------------------
# One queue operation at a time on the state (B_q, N_q, inputs m, outputs n):
# the oracle that the encoder's schedule walk is checked against.

MixedRadixQueue = namedtuple("MixedRadixQueue", "b_q n_q m n", defaults=(0, 1, 0, 0))


def enqueue(q, b_in, n_in):
    """Push one radix-N_in symbol on top of the queued value."""
    assert 0 <= b_in < n_in
    return MixedRadixQueue(b_in * q.n_q + q.b_q, n_in * q.n_q, q.m + 1, q.n)


def gate(q, out_radix, k):
    """Whether a mid-stream dequeue may run."""
    return q.n_q >= k * out_radix


def dequeue(q, out_radix):
    """Peel the bottom radix-$N digit off the queued value; the capacity rounds up."""
    assert q.n_q > 1, "queue holds no information"
    return MixedRadixQueue(q.b_q // out_radix, -(-q.n_q // out_radix), q.m, q.n + 1), q.b_q % out_radix


def test_reference_steps():
    q = enqueue(enqueue(MixedRadixQueue(), 3, 10), 7, 10)
    assert q == (73, 100, 2, 0)
    assert dequeue(q, 3) == ((24, 34, 2, 1), 1)
    assert gate(MixedRadixQueue(0, 3), 3, k=1) and not gate(MixedRadixQueue(0, 3), 3, k=2)


def test_full_drain_renumbers():
    # pushing digits of a number and draining fully re-expresses it
    q = MixedRadixQueue()
    for digit in (3, 7, 2):
        q = enqueue(q, digit, 10)
    assert q.b_q == 3 + 7 * 10 + 2 * 100
    value = q.b_q
    digits = []
    while q.n_q > 1:
        q, b = dequeue(q, 7)
        digits.append(b)
    assert q.b_q == 0
    rebuilt = 0
    for d in reversed(digits):
        rebuilt = rebuilt * 7 + d
    assert rebuilt == value


def test_config_validation():
    with pytest.raises(RangeError):
        ReconcilerConfig(capacity_threshold=0)
    with pytest.raises(RangeError, match="capacity_threshold must be an integer"):
        ReconcilerConfig(1.5)


def test_encode_empty():
    out = encode_stream([], constant_oracle(16, 3))
    assert out == EncodedStream(count=0, symbols=())
    assert decode_stream(out, constant_oracle(16, 3)) == []


def test_round_trip_small():
    oracle = constant_oracle(16, 3)
    config = ReconcilerConfig(capacity_threshold=4)
    data = [15, 0, 7, 7, 1, 9]
    encoded = encode_stream(data, oracle, config)
    assert encoded.count == len(data)
    assert all(0 <= s < 3 for s in encoded.symbols)
    assert decode_stream(encoded, oracle, config) == data


def test_round_trip_varying_radices():
    rng = random.Random(0xCAFE)
    in_radices = [rng.randrange(2, 33) for _ in range(4000)]
    out_radices = [rng.randrange(3, 30) for _ in range(200_000)]
    oracle = RadixOracle(
        input_radix=lambda m: in_radices[m],
        output_radix=lambda n: out_radices[n],
    )
    data = [rng.randrange(in_radices[m]) for m in range(len(in_radices))]
    for k in (1, 2, 64):
        config = ReconcilerConfig(capacity_threshold=k)
        encoded = encode_stream(data, oracle, config)
        assert decode_stream(encoded, oracle, config) == data


def test_trace_format_and_invariant():
    trace: list[str] = []
    oracle = constant_oracle(16, 3)
    encode_stream([5, 11, 2], oracle, ReconcilerConfig(capacity_threshold=2), trace)
    assert trace[0] == "init,0,1,"
    stages = {line.split(",")[0] for line in trace}
    assert stages <= {"init", "enqueue", "dequeue", "flush"}
    for line in trace:
        stage, b_q, n_q, _ = line.split(",")
        assert 0 <= int(b_q) < int(n_q)
    assert any(line.startswith("flush,") for line in trace)


def test_symbol_count_mismatch():
    oracle = constant_oracle(16, 3)
    encoded = encode_stream([5, 11, 2], oracle)
    clipped = EncodedStream(encoded.count, encoded.symbols[:-1])
    with pytest.raises(FlushAmbiguity):
        decode_stream(clipped, oracle)
    padded = EncodedStream(encoded.count, encoded.symbols + (0,))
    with pytest.raises(FlushAmbiguity):
        decode_stream(padded, oracle)
    with pytest.raises(RangeError, match="negative input count"):
        decode_stream(EncodedStream(-1, encoded.symbols), oracle)


def test_corrupt_symbol_detected():
    oracle = constant_oracle(4, 3)
    data = [0, 0, 0, 0, 0, 0]
    encoded = encode_stream(data, oracle)
    symbols = list(encoded.symbols)
    symbols[0] = 2  # inflate the low digit beyond any radix-4 preimage
    corrupted = EncodedStream(encoded.count, tuple(symbols))
    try:
        recovered = decode_stream(corrupted, oracle)
        assert recovered != data
    except DecodeError:
        pass
    with pytest.raises(DecodeError):
        bad = EncodedStream(encoded.count, encoded.symbols[:-1] + (9,))
        decode_stream(bad, oracle)


def test_rate_at_small_radices():
    # steady-state rate: 16-ary in, ternary out, K=64
    rng = random.Random(1)
    data = [rng.randrange(16) for _ in range(20_000)]
    oracle = constant_oracle(16, 3)
    encoded = encode_stream(data, oracle, ReconcilerConfig(capacity_threshold=64))
    bits_per_output = len(data) * 4 / len(encoded.symbols)
    assert bits_per_output >= 0.95 * math.log2(3)
    assert decode_stream(encoded, oracle, ReconcilerConfig(capacity_threshold=64)) == data


def test_efficiency_monotone_in_k():
    rng = random.Random(2)
    data = [rng.randrange(16) for _ in range(5_000)]
    oracle = constant_oracle(16, 3)
    outputs = []
    for k in (1, 4, 16, 64, 256):
        encoded = encode_stream(data, oracle, ReconcilerConfig(capacity_threshold=k))
        outputs.append(len(encoded.symbols))
    assert outputs == sorted(outputs, reverse=True)


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=15), max_size=60),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=3, max_value=9),
)
def test_round_trip_property(data, k, out_radix):
    oracle = constant_oracle(16, out_radix)
    config = ReconcilerConfig(capacity_threshold=k)
    assert decode_stream(encode_stream(data, oracle, config), oracle, config) == data


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=8),
    st.lists(st.integers(min_value=-1, max_value=9), max_size=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=3, max_value=7),
    st.sampled_from([1, 2, 64]),
)
def test_decoder_round_trips_or_raises(count, symbols, in_radix, out_radix, k):
    # any header count and symbol list, out-of-radix symbols included
    oracle = constant_oracle(in_radix, out_radix)
    config = ReconcilerConfig(capacity_threshold=k)
    encoded = EncodedStream(count, tuple(symbols))
    try:
        data = decode_stream(encoded, oracle, config)
    except WorkbenchError:
        return
    assert encode_stream(data, oracle, config) == encoded


def test_decoder_refuses_non_integer_symbols():
    # (5.5,) would otherwise decode to [5.0], which neither round-trips nor raises
    oracle = constant_oracle(256, 259)
    assert decode_stream(EncodedStream(1, (5,)), oracle) == [5]
    for symbols in ((5.5,), (5.0,), ("5",), (None,), 5, None):
        # the constructor refuses them; a stream built unchecked reaches the decoder, which refuses them too
        with pytest.raises(RangeError, match=r"^symbols(\[0\] must be an integer| must be a tuple), not "):
            EncodedStream(1, symbols)
        with pytest.raises(DecodeError, match="symbols must be integers"):
            decode_stream(tuple.__new__(EncodedStream, (1, symbols)), oracle)
    # a float header count is refused where the stream is built
    with pytest.raises(RangeError, match="count must be an integer"):
        EncodedStream(1.0, (5,))
    assert decode_stream(EncodedStream(True, (np.int64(5),)), oracle) == [5]


@pytest.mark.parametrize("symbols", [(), (1, 2, 3)])
def test_header_count_beyond_symbols_rejected_early(symbols):
    reads = itertools.count()

    def output_radix(n):
        assert next(reads) < 1000, "the decoder walks the whole header count"
        return 259

    oracle = RadixOracle(input_radix=lambda m: 256, output_radix=output_radix)
    with pytest.raises(FlushAmbiguity):
        decode_stream(EncodedStream(10**9, symbols), oracle)


@pytest.mark.parametrize("out_radix", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 8])
def test_small_output_radix_rejected_by_both_ends(out_radix, k):
    reads = itertools.count()

    def output_radix(n):
        assert next(reads) < 100, "the schedule keeps reading the oracle"
        return out_radix

    oracle = RadixOracle(input_radix=lambda m: 16, output_radix=output_radix)
    config = ReconcilerConfig(capacity_threshold=k)
    with pytest.raises(RangeError):
        encode_stream([1, 2, 3], oracle, config)
    with pytest.raises(RangeError):
        decode_stream(EncodedStream(1, (0,)), oracle, config)


def _reference_fold(data, oracle, k):
    """Symbols and trace from the reference single-step functions."""
    q = MixedRadixQueue()
    trace = [f"init,{q.b_q},{q.n_q},"]
    out = []

    def drain(stage):
        nonlocal q
        q, b_out = dequeue(q, oracle.output_radix(q.n))
        out.append(b_out)
        trace.append(f"{stage},{q.b_q},{q.n_q},{b_out}")

    for b_in in data:
        q = enqueue(q, b_in, oracle.input_radix(q.m))
        trace.append(f"enqueue,{q.b_q},{q.n_q},{b_in}")
        while gate(q, oracle.output_radix(q.n), k):
            drain("dequeue")
    while q.n_q > 1:
        drain("flush")
    return tuple(out), trace


@settings(max_examples=200)
@given(
    st.lists(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda radix: st.tuples(st.just(radix), st.integers(0, radix - 1))
        ),
        max_size=40,
    ),
    st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=12),
    st.one_of(st.integers(min_value=1, max_value=64), st.just(1 << 20)),
)
def test_encoder_matches_reference_fold(pairs, out_radices, k):
    in_radices = [radix for radix, _ in pairs]
    data = [symbol for _, symbol in pairs]
    oracle = RadixOracle(
        input_radix=lambda m: in_radices[m],
        output_radix=lambda n: out_radices[n % len(out_radices)],
    )
    config = ReconcilerConfig(capacity_threshold=k)
    trace: list[str] = []
    encoded = encode_stream(data, oracle, config, trace)
    assert (encoded.symbols, trace) == _reference_fold(data, oracle, k)
    assert encoded.count == len(data)
    assert decode_stream(encoded, oracle, config) == data
