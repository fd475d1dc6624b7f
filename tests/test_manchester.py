"""Letter-level codec and waveform accounting."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamcode import manchester, ternary
from lamcode.errors import WorkbenchError
from lamcode.errors import RangeError
from lamcode.manchester import (
    HIGH,
    J,
    K,
    LOW,
    FramingError,
    ImageMetrics,
    InvalidRun,
    bits_to_letters,
    check_letters,
    letters_to_bits,
    level_trace,
    metrics,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=24)
levels = st.sampled_from([LOW, HIGH])


def legal_letter_strings(max_size: int = 16):
    """JK strings free of KK runs."""
    return (
        st.text(alphabet=[J, K], max_size=max_size)
        .filter(lambda s: K + K not in s)
    )


def test_encode_examples():
    # 0 drives high then low, 1 low then high, J on every level change
    assert bits_to_letters([0], LOW) == "JJ"
    assert bits_to_letters([1], LOW) == "KJ"
    assert bits_to_letters([0], HIGH) == "KJ"
    assert bits_to_letters([1], HIGH) == "JJ"
    assert bits_to_letters([0, 1], LOW) == "JJKJ"
    assert bits_to_letters([0, 0], LOW) == "JJJJ"
    assert bits_to_letters([1, 1, 0], LOW) == "KJJJKJ"


def test_encode_never_produces_kk():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            for level in (LOW, HIGH):
                letters = bits_to_letters(bits, level)
                assert K + K not in letters
                assert len(letters) == 2 * n


def test_exhaustive_round_trip():
    for n in range(0, 13):
        for bits in itertools.product((0, 1), repeat=n):
            for level in (LOW, HIGH):
                assert letters_to_bits(bits_to_letters(bits, level), level) == list(bits)


def test_decode_rejects_kk():
    with pytest.raises(InvalidRun):
        letters_to_bits("JKKJ")


def test_decode_rejects_odd_length():
    with pytest.raises(FramingError):
        letters_to_bits("JJJ")


def test_decode_rejects_missing_mid_transition():
    # trace of "JK" from LOW is H,H: no transition inside the bit cell
    with pytest.raises(FramingError):
        letters_to_bits("JK", LOW)


def test_level_trace():
    assert level_trace("JJJKJKJ", LOW) == "HLHHLLH"
    assert level_trace("KJ", LOW) == "LH"
    assert level_trace("", LOW) == ""


def test_check_letters():
    check_letters("JKJKJ")
    with pytest.raises(InvalidRun):
        check_letters("JKKJ")
    with pytest.raises(ValueError):
        check_letters("JX")


def test_check_letters_copies_no_valid_stream():
    letters = (J + K + J) * (1 << 18)
    tracemalloc.start()
    try:
        check_letters(letters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(letters) // 16
    with pytest.raises(RangeError, match="got 'x'"):
        check_letters(letters + "x")
    for not_text in ([J, K], b"JK"):  # a list or bytes is no letter string, though it counts J and K
        with pytest.raises(RangeError, match="letters must be a str"):
            check_letters(not_text)


def test_metrics_example():
    # per-letter bias contributions of JJJKJKJ from LOW: 0 0 0 +1 0 -1 0
    m = metrics("JJJKJKJ", LOW)
    assert m.dc_bias == 0
    assert m.peak_pos == 1
    assert m.peak_neg == 0
    assert m.j_count == 5
    assert m.k_count == 2
    assert m.length == 7
    assert m.inverting  # odd J count
    assert m.final_level == HIGH
    assert m.transit_count == 5


def test_metrics_runs():
    m = metrics("KJJJKJ", LOW)  # trace LHLLLH
    assert m.head_run == 1
    assert m.tail_run == 1
    m = metrics("JJ", LOW)  # trace HL
    assert m.head_run == 1
    assert m.tail_run == 1
    m = metrics("JKJK", HIGH)  # trace LLHH
    assert m.head_run == 2
    assert m.tail_run == 2


def test_metrics_extremes():
    all_j = metrics(J * 10, LOW)
    assert all_j.dc_bias == 0
    assert all_j.peak_pos == 0 and all_j.peak_neg == 0
    assert not all_j.inverting
    alternating = metrics("JK" * 5, LOW)  # holds alternate between H and L
    assert alternating.dc_bias == 1
    assert alternating.peak_pos == 1 and alternating.peak_neg == 0
    ramp = metrics("JK" + "JJK" * 4, LOW)  # every K lands on HIGH
    assert ramp.dc_bias == 5
    assert ramp.peak_pos == 5 and ramp.peak_neg == 0


@given(legal_letter_strings())
def test_inversion_negates_bias(letters):
    lo = metrics(letters, LOW)
    hi = metrics(letters, HIGH)
    assert hi.dc_bias == -lo.dc_bias
    assert hi.peak_pos == -lo.peak_neg
    assert hi.peak_neg == -lo.peak_pos
    assert hi.inverting == lo.inverting
    if letters:
        assert hi.final_level == (HIGH if lo.final_level == LOW else LOW)


@given(legal_letter_strings(), legal_letter_strings(), levels)
def test_concatenation_threads_level(a, b, level):
    if a.endswith(K) and b.startswith(K):
        b = J + b[1:] if b else b
    whole = metrics(a + b, level)
    head = metrics(a, level)
    tail = metrics(b, head.final_level if a else level)
    assert whole.dc_bias == head.dc_bias + tail.dc_bias
    assert whole.j_count == head.j_count + tail.j_count
    assert whole.inverting == (head.inverting != tail.inverting)


@given(bit_lists, levels)
def test_bias_of_encoded_bits_is_bounded(bits, level):
    # each bit cell holds the line half a cell high and half low up to
    # boundary effects, so the running bias of any data stream stays small
    m = metrics(bits_to_letters(bits, level), level)
    assert abs(m.dc_bias) <= 1
    assert m.peak_pos - m.peak_neg <= 2


# --- pulse model -------------------------------------------------------------
# The MDI pulse train, a pulse being (polarity, wide): an independent reading
# of the waveform that the letter codec and level trace must agree with.


def pulse_train(bits, level):
    """Interior pulses between the first and last mid-cell transitions."""
    window = level_trace(bits_to_letters(bits, level), level)[1:-1]
    train = []
    i = 0
    while i < len(window):
        run = 1
        while i + run < len(window) and window[i + run] == window[i]:
            run += 1
        assert run <= 2, "level run beyond one bit time"
        train.append(("+" if window[i] == HIGH else "-", run == 2))
        i += run
    return train


def glue_pulses(train):
    """Letters of a pulse train, narrow = JJ and wide = JKJ, glued on shared Js."""
    return J + "".join(K + J if wide else J for _, wide in train) if train else ""


def test_pulse_train_examples():
    assert pulse_train([0, 1], LOW) == [("-", True)]  # levels H L | L H, window L L
    assert pulse_train([0, 0], LOW) == [("-", False), ("+", False)]  # window L H
    assert pulse_train([0], LOW) == []
    assert pulse_train([], LOW) == []
    assert glue_pulses([]) == ""


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=20), levels)
def test_glue_recovers_letters(bits, level):
    # the interior pulse run pins every letter after the first
    letters = bits_to_letters(bits, level)
    assert glue_pulses(pulse_train(bits, level)) == letters[1:]


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20), levels)
def test_pulse_polarity_alternates(bits, level):
    train = pulse_train(bits, level)
    for (first, _), (second, _) in zip(train, train[1:]):
        assert first != second


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_letters("JX"),
        lambda: bits_to_letters([2]),
        lambda: bits_to_letters([0], "X"),
        lambda: level_trace("JX"),
        lambda: ternary.check_word("LXH"),
    ],
)
def test_domain_errors_are_workbench_errors(call):
    # a WorkbenchError is what the CLI reports with exit code 2
    with pytest.raises(WorkbenchError):
        call()


@settings(max_examples=500)
@given(st.text(alphabet=[J, K, "x"], max_size=12), levels)
def test_decoder_round_trips_or_raises(letters, level):
    # any letter string, "x" being foreign
    try:
        bits = letters_to_bits(letters, level)
    except WorkbenchError:
        return
    assert bits_to_letters(bits, level) == letters


def _trace_runs(letters, level):
    """Head and tail runs counted on the level trace."""
    trace = level_trace(letters, level)
    head = tail = 0
    if trace:
        while head < len(trace) and trace[head] == trace[0]:
            head += 1
        while tail < len(trace) and trace[-1 - tail] == trace[-1]:
            tail += 1
    return head, tail


def test_metrics_runs_match_level_trace():
    cases = 0
    for length in range(16):
        for combo in itertools.product(J + K, repeat=length):
            letters = "".join(combo)
            if K + K in letters:
                continue
            for level in (LOW, HIGH):
                m = metrics(letters, level)
                assert (m.head_run, m.tail_run) == _trace_runs(letters, level), (letters, level)
                cases += 1
    assert cases == 8358


# --- bit-serial reference ---------------------------------------------------
# The codec works on whole strings; these walk one bit cell or one letter at a
# time, the way the line itself is driven, and serve as its oracle.


def _serial_check_letters(letters):
    for ch in letters:
        if ch not in (J, K):
            raise RangeError(f"letter must be {J!r} or {K!r}, got {ch!r}")
    if K + K in letters:
        raise InvalidRun(f"KK run in {letters!r}")


def _serial_check_level(level):
    if level not in (LOW, HIGH):
        raise RangeError(f"level must be {LOW!r} or {HIGH!r}, got {level!r}")


def _serial_flip(level):
    return HIGH if level == LOW else LOW


def _serial_bits_to_letters(bits, initial_level=LOW):
    _serial_check_level(initial_level)
    level = initial_level
    out = []
    for bit in bits:
        if bit not in (0, 1):
            raise RangeError(f"bit must be 0 or 1, got {bit!r}")
        first = HIGH if bit == 0 else LOW
        for target in (first, _serial_flip(first)):
            out.append(K if target == level else J)
            level = target
    return "".join(out)


def _serial_letters_to_bits(letters, initial_level=LOW):
    _serial_check_letters(letters)
    if len(letters) % 2:
        raise FramingError("odd letter count, stream truncated mid cell")
    _serial_check_level(initial_level)
    level, trace = initial_level, []
    for ch in letters:
        level = _serial_flip(level) if ch == J else level
        trace.append(level)
    bits = []
    for i in range(0, len(trace), 2):
        if trace[i] == trace[i + 1]:
            raise FramingError(f"no mid-cell transition in bit cell {i // 2}")
        bits.append(0 if trace[i] == HIGH else 1)
    return bits


def _serial_metrics(letters, initial_level=LOW):
    _serial_check_letters(letters)
    _serial_check_level(initial_level)
    level = initial_level
    bias = peak_pos = peak_neg = j_count = k_count = 0
    for ch in letters:
        if ch == J:
            level = _serial_flip(level)
            j_count += 1
        else:
            k_count += 1
            bias += 1 if level == HIGH else -1
            peak_pos, peak_neg = max(peak_pos, bias), min(peak_neg, bias)
    return ImageMetrics(
        j_count=j_count,
        k_count=k_count,
        dc_bias=bias,
        peak_pos=peak_pos,
        peak_neg=peak_neg,
        final_level=level,
        inverting=bool(j_count % 2),
        transit_count=j_count,
        head_run=min(len(letters), 2 if letters[1:2] == K else 1),
        tail_run=min(len(letters), 2 if letters[-1:] == K else 1),
    )


def _outcome(call, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return call(*args)
    except WorkbenchError as error:
        return type(error), str(error)


@settings(max_examples=400)
@given(st.lists(st.sampled_from([0, 1, 1, 0, 2]), max_size=40), levels)
def test_bits_to_letters_matches_serial_walk(bits, level):
    assert _outcome(bits_to_letters, bits, level) == _outcome(_serial_bits_to_letters, bits, level)


@settings(max_examples=400)
@given(st.text(alphabet=[J, J, K, "x", "y"], max_size=40), levels)
def test_letters_to_bits_matches_serial_walk(letters, level):
    assert _outcome(letters_to_bits, letters, level) == _outcome(_serial_letters_to_bits, letters, level)


@settings(max_examples=400)
@given(st.one_of(legal_letter_strings(40), st.text(alphabet=[J, K, "x"], max_size=12)), levels)
def test_metrics_matches_serial_walk(letters, level):
    assert _outcome(metrics, letters, level) == _outcome(_serial_metrics, letters, level)


def test_round_trip_matches_serial_walk_on_long_streams():
    rng = random.Random(0x3A7C)
    for level in (LOW, HIGH):
        bits = rng.choices((0, 1), k=3072)
        letters = bits_to_letters(bits, level)
        assert letters == _serial_bits_to_letters(bits, level)
        assert letters_to_bits(letters, level) == _serial_letters_to_bits(letters, level) == bits
        assert metrics(letters, level) == _serial_metrics(letters, level)


@pytest.mark.parametrize(
    "letters",
    [
        "J" * (manchester._BLOCK - 1) + "K" + "J" * 7,  # K at the last letter of the first block
        "J" * manchester._BLOCK + "KJ" * 9,  # K at the first letter of the second block
        "JK" * (manchester._BLOCK // 2 - 2) + "J" * 7 + "K",  # a J run across the boundary
        "KJJ" * manchester._BLOCK,  # three blocks, the last one partial
    ],
    ids=["k-ends-block", "k-opens-block", "j-run-spans", "three-blocks"],
)
@pytest.mark.parametrize("level", [LOW, HIGH])
def test_metrics_across_block_boundaries(letters, level):
    assert metrics(letters, level) == _serial_metrics(letters, level)


def test_encoder_takes_any_number_equal_to_a_bit():
    # bools, floats and numpy integers pass the 0-or-1 check, so they encode like ints
    expected = _serial_bits_to_letters([0, 1, 1, 0, 0], HIGH)
    assert bits_to_letters(np.array([0, 1, 1, 0, 0]), HIGH) == expected
    assert bits_to_letters([False, 1.0, True, 0, 0.0], HIGH) == expected


@pytest.mark.parametrize(
    "letters, level, error, message",
    [
        # each stream also breaks every rule checked after the one it reports
        ("JxKKyJ", "X", RangeError, "letter must be 'J' or 'K', got 'x'"),
        ("JKKJJ", "X", InvalidRun, "KK run in 'JKKJJ'"),
        ("JJKJK", "X", FramingError, "odd letter count, stream truncated mid cell"),
        ("JJJK", "X", RangeError, "level must be 'L' or 'H', got 'X'"),
        ("JJJKJK", LOW, FramingError, "no mid-cell transition in bit cell 1"),
        ("JK", HIGH, FramingError, "no mid-cell transition in bit cell 0"),
    ],
)
def test_decoder_refusal_precedence(letters, level, error, message):
    assert _outcome(letters_to_bits, letters, level) == (error, message)
    assert _outcome(_serial_letters_to_bits, letters, level) == (error, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bits_to_letters([2], "X"), RangeError, "level must be 'L' or 'H', got 'X'"),
        (lambda: bits_to_letters([0, 1, 2, 3]), RangeError, "bit must be 0 or 1, got 2"),
        (lambda: bits_to_letters(iter([1, "1"])), RangeError, "bit must be 0 or 1, got '1'"),
        (lambda: metrics("KKx", "X"), RangeError, "letter must be 'J' or 'K', got 'x'"),
        (lambda: metrics("KK", "X"), InvalidRun, "KK run in 'KK'"),
        (lambda: metrics("JK", "X"), RangeError, "level must be 'L' or 'H', got 'X'"),
        (lambda: check_letters("JK\nK"), RangeError, "letter must be 'J' or 'K', got '\\n'"),
    ],
)
def test_encoder_and_metrics_refusals(call, error, message):
    assert _outcome(call) == (error, message)
