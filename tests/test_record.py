"""The one record contract, checked on every record class in lamcode."""

import copy
import operator
import os
import pickle
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lamcode import dictionary, echo, manchester, paging, reconciler, scrambler, ternary
from lamcode.errors import RangeError, WorkbenchError
from lamcode.record import Record

SRC = Path(__file__).resolve().parents[1] / "src"


def _examples() -> dict[type, tuple]:
    """Field values of one valid record of each class."""
    records = [
        scrambler.CodePoint(1, 2, 1),
        scrambler.solve_dx1(10, 259),
        scrambler.build_bin_map(scrambler.solve_dx1(5, 7)),
        scrambler.budget(33),
        echo.NativeSample(1, (1, 2, 3, 4, 5, 6)),
        echo.ForcedSample(3, (1, 2, 3)),
        echo.plan_round(16, 20, 2),
        echo.mock_round(4),
        dictionary.enumerate_valid(4)[1],
        dictionary.ImageFilter(2, False, 1, 2),
        manchester.metrics("JKJJ"),
        reconciler.RadixOracle(abs, abs),  # picklable callables
        reconciler.ReconcilerConfig(4),
        reconciler.EncodedStream(3, (1, 2)),
        ternary.word_metrics("LzH"),
        ternary.PageEntry(ternary.word_metrics("LzH"), 0, 2),
        ternary.dictionary_for(ternary.REFERENCE).page(1),
        ternary.dictionary_for(ternary.REFERENCE),
        ternary.portrait(ternary.dictionary_for(ternary.REFERENCE)),
    ]
    return {type(record): tuple(record) for record in records}


EXAMPLES = _examples()


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("lamcode."):
            yield cls
        yield from _record_classes(cls)


RECORD_CLASSES = sorted(set(_record_classes()), key=lambda cls: (cls.__module__, cls.__qualname__))


def test_every_record_class_has_an_example():
    assert set(EXAMPLES) == set(RECORD_CLASSES)
    assert len(RECORD_CLASSES) == 19


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_record_contract(cls):
    values = EXAMPLES[cls]
    fields = cls._fields
    assert len(fields) == len(values) and cls.__match_args__ == fields
    record = cls(*values)
    keywords = dict(zip(fields, values))
    # keyword and positional construction agree
    assert type(record) is cls and record == cls(**keywords) == cls(*values[:1], **dict(list(keywords.items())[1:]))
    assert tuple(getattr(record, name) for name in fields) == values

    # missing, unknown and duplicate arguments
    required = [name for name in fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in keywords.items() if name != required[-1]})
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])

    # equal only to a record of its own class, never to a plain tuple
    other = next(c for c in RECORD_CLASSES if c is not cls)
    assert record != values and values != record and not record == values
    assert record != tuple.__new__(other, values)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match="records do not order"):
            compare(record, record)

    # immutable: no field, no derived value and no new name can be set or deleted
    for name in fields + ("not_a_field", "codec", "chain", "admits", "_table"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(record) == values

    # copies and pickles go back through the constructor
    assert record.__reduce__() == (cls, values)
    for duplicate in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is cls and tuple(duplicate) == tuple(record)

    text = repr(record)
    assert text.startswith(f"{cls.__qualname__}(") and all(f"{name}=" in text for name in fields)


def test_copies_are_checked():
    # a record built unchecked with an out-of-range field cannot be copied
    for bad in (
        tuple.__new__(scrambler.CodePoint, (259, 0, 0)),
        tuple.__new__(echo.RoundPlan, (16, 20, 2, 2, 3)),
        tuple.__new__(ternary.TernaryPage, (1, (ternary.PageEntry(ternary.word_metrics("LzH"), 1, 2),))),
    ):
        with pytest.raises(RangeError):
            copy.copy(bad)
        with pytest.raises(RangeError):
            pickle.loads(pickle.dumps(bad))


def test_derived_values_are_rebuilt_not_copied():
    bin_map = scrambler.build_bin_map(scrambler.solve_dx1(5, 7))
    assert scrambler.convert(31, bin_map) == 6
    clone = pickle.loads(pickle.dumps(bin_map))
    assert "_table" not in vars(clone) and scrambler.convert(31, clone) == 6
    keep = dictionary.ImageFilter(max_abs_bias=1)
    assert keep.admits(1, 0, 2) and not keep.admits(2, 0, 1)
    assert copy.copy(keep) == keep and hash(copy.copy(keep)) == hash(keep)


def test_non_integer_fields_are_refused():
    # beside the code point, sample and reconciler refusal tests: the other checked records
    for build in (
        lambda: echo.RoundPlan(16, 20, 2, 2, 3.0),
        lambda: reconciler.ReconcilerConfig(1.5),
        lambda: scrambler.PartitionSolution(1, 2, 1, 1, 0, 2.0),
        lambda: scrambler.BinMap(1.0, 2, (1, 1), (0, 2, 0)),
        lambda: ternary.TernaryPage(1.5, ternary.dictionary_for(ternary.REFERENCE).page(1).entries),
        lambda: reconciler.EncodedStream(1.0, ()),
        lambda: reconciler.EncodedStream(None, ()),
        lambda: dictionary.ImageFilter(min_transits=0.5),
        lambda: dictionary.ImageFilter(max_droop=2.0),
    ):
        with pytest.raises(RangeError, match="must be an integer"):
            build()
    # a width outside [1, MAX_WIDTH] is refused before anything shifts by it
    for r in (10**400, -1, 0):
        with pytest.raises(RangeError, match=r"r must lie in \[1, 4096\]"):
            scrambler.PartitionSolution(r, 2, 1, 1, 0, 2)
        with pytest.raises(RangeError, match=r"r must lie in \[1, 4096\]"):
            scrambler.BinMap(r, 2, (1, 1), (0, 2, 0))


def _shape_refusal(field: str) -> str:
    """The message of the annotation rule's refusal of one field or of one of its items."""
    return rf"^{field}(\[\d+\])? must (be a tuple|hold \d+ items|be an integer|be a [A-Z]\w*), not "


def test_non_sequence_fields_are_refused():
    # a page's entries must be a tuple of page entries, not None, a number or bare values
    for entries in (None, 5, (1, 2)):
        with pytest.raises(RangeError, match=_shape_refusal("entries")):
            ternary.TernaryPage(1, entries)
    for sizes in (None, 5, "3", [1, 1], (0.5, 1.5), (Fraction(1, 2), Fraction(3, 2))):
        with pytest.raises(RangeError, match=_shape_refusal("sizes")):
            scrambler.BinMap(1, 2, sizes, (0, 2, 0))
    for sizes in ((1, 2), (1, 1, 0)):  # 3 outcomes, or 2 outcomes over three bins
        with pytest.raises(RangeError, match="bin sizes must tile the outcome space"):
            scrambler.BinMap(1, 2, sizes, (0, 2, 0))
    # the layout is a tuple of three integer bin counts, nonnegative and over all n bins
    for layout in (None, 2, [0, 2, 0], (0, 2), (0, 2, 0, 0), (0, 2.0, 0), ("0", "2", "0")):
        with pytest.raises(RangeError, match=_shape_refusal("layout")):
            scrambler.BinMap(1, 2, (1, 1), layout)
    for layout in ((0, 3, -1), (1, 0, 0)):
        with pytest.raises(RangeError, match="layout must be three nonnegative bin counts summing to n"):
            scrambler.BinMap(1, 2, (1, 1), layout)
    # integer-like counts pass, as they do in int fields
    assert scrambler.convert(1, scrambler.BinMap(1, 2, (True, np.int64(1)), (0, np.int64(2), 0))) == 1


def test_integer_like_bin_sizes_are_summed_exactly():
    # numpy sizes that wrap past 2^64 summed to 8 = 2^3 in int64: the map was built, and every draw fell on digit 3
    wrapped = (np.int64(1 << 62),) * 3 + (np.int64((1 << 62) + 8),)
    with pytest.raises(RangeError, match="bin sizes must tile the outcome space"):
        scrambler.BinMap(3, 4, wrapped, (0, 4, 0))


HOSTILE = (None, 1.5, "3", (), 5, -1, Fraction(1, 2), object(), [1, 2], 10**400, 2.0, float("nan"), float("inf"))
JK_ENTRIES = ("build_pages", "page_sizes", "census", "enumerate_valid", "count_valid", "image_histogram",
              "filter_for_data_bits", "multiplex_feasible", "next_page", "fibonacci")
FILTER_ENTRIES = ("build_pages", "page_sizes", "census", "paged_codec")
CALL_BOUND_S = 2.0
THRESHOLDS = dictionary.ImageFilter(max_abs_bias=1, min_transits=2, max_droop=2)  # every footprint argument is compared
SCALAR_ENTRIES = {
    "solve_dx1[r]": lambda v: scrambler.solve_dx1(v, 259),
    "solve_dx1[n]": lambda v: scrambler.solve_dx1(15, v),
    "solve_dm1[n]": lambda v: scrambler.solve_dm1(15, v),
    "solve_partitions[r]": lambda v: scrambler.solve_partitions(v, 259),
    "symmetric_solutions[n]": lambda v: scrambler.symmetric_solutions(15, v),
    "bubble_map": scrambler.bubble_map,
    "repetition_period": scrambler.repetition_period,
    "observation_time": scrambler.observation_time,
    "budget": scrambler.budget,
    "bits_to_letters": manchester.bits_to_letters,
    "level_trace": manchester.level_trace,
    "word_metrics": ternary.word_metrics,
    "check_word": ternary.check_word,
    "delimiter_word[s4]": lambda v: ternary.delimiter_word(v, 1, 1),
    "delimiter_word[sigma]": lambda v: ternary.delimiter_word(0, v, 1),
    "delimiter_word[period]": lambda v: ternary.delimiter_word(0, 1, v),
    "pattern_of": dictionary.pattern_of,
    "admits[bias]": lambda v: THRESHOLDS.admits(v, 3, 1),
    "admits[transits]": lambda v: THRESHOLDS.admits(0, v, 1),
    "admits[droop]": lambda v: THRESHOLDS.admits(0, 3, v),
}


class _Overrun(Exception):
    pass


def _stop(signum, frame):
    raise _Overrun


def _misbehaviour(call) -> str | None:
    """None when the call returns or raises a WorkbenchError within CALL_BOUND_S; else what it did."""
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, CALL_BOUND_S)
    try:
        call()
    except WorkbenchError:
        pass
    except _Overrun:
        return f"ran past {CALL_BOUND_S} s"
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None


def test_hostile_values_are_taken_or_refused():
    # one hostile value at a time: into each field of each record class, each census threshold, the bulk
    # scramble, a draw's value, the codes, the text and a lone code of each paged stream codec, the
    # wire data of the Manchester and reconciler decoders, the reconciler encoder's inputs and a lone
    # input, a ternary code, key and disparity, a scrambled word's disparity and variant, a shipped table's
    # variant, a J/K codec's word length, a jump position, an echo modulus, a page chain and its one row, each
    # J/K length, payload width, previous word and Fibonacci index, the image filter of each J/K entry that takes
    # one, each scalar argument of the scrambler's solvers, maps and budgets, the Manchester bits and trace
    # letters, a ternary word, each coordinate of the delimiter grid, a bias class and each footprint an image filter judges
    calls = []
    for cls, values in EXAMPLES.items():
        for at, name in enumerate(cls._fields):
            for value in HOSTILE:
                fields = values[:at] + (value,) + values[at + 1 :]
                calls.append((f"{cls.__qualname__}.{name}", value, lambda cls=cls, fields=fields: cls(*fields)))
    for at in range(4):
        for value in HOSTILE:
            thresholds = [value if k == at else 6 for k in range(4)]
            calls.append((f"image_filter_census[{at}]", value, lambda t=thresholds: echo.image_filter_census(*t)))
    for at in range(3):
        for value in HOSTILE:
            radices = [value if k == at else (16, 20, 2)[k] for k in range(3)]
            calls.append((f"schedule_round[{at}]", value, lambda r=radices: echo.schedule_round(*r)))
    bin_map = scrambler.build_bin_map(scrambler.solve_dx1(15, 259))
    streams = {"ternary": (ternary, ()), "dictionary": (dictionary, (8,))}
    oracle = reconciler.constant_oracle(256, 259)
    pages, reference = dictionary.build_pages(8), ternary.dictionary_for(ternary.REFERENCE)
    for value in HOSTILE:
        calls.append(("letters_to_bits", value, lambda v=value: manchester.letters_to_bits(v)))
        calls.append(("reconciler.decode_stream", value, lambda v=value: reconciler.decode_stream(v, oracle)))
        calls.append(("reconciler.encode_stream", value, lambda v=value: reconciler.encode_stream(v, oracle)))
        calls.append(("reconciler.encode_stream[0]", value, lambda v=value: reconciler.encode_stream([v], oracle)))
        calls.append(("encode_nibble", value, lambda v=value: ternary.encode_nibble(v, 1)))
        calls.append(("scrambled_word", value, lambda v=value: ternary.scrambled_word(v, 1)))
        calls.append(("scrambled_word[sigma]", value, lambda v=value: ternary.scrambled_word(1, v)))
        calls.append(("scrambled_word[variant]", value, lambda v=value: ternary.scrambled_word(1, 1, v)))
        calls.append(("table_rows", value, lambda v=value: ternary.table_rows(v)))
        calls.append(("dictionary.paged_codec", value, lambda v=value: dictionary.paged_codec(v)))
        calls.append(("page", value, lambda v=value: reference.page(v)))
        calls.append(("position_jump_probability", value, lambda v=value: dictionary.position_jump_probability(pages, v)))
        calls.append(("mock_round", value, lambda v=value: echo.mock_round(v)))
        calls.append(("scramble_values", value, lambda v=value: scrambler.scramble_values(v, (1, 2, 0))))
        calls.append(("convert", value, lambda v=value: scrambler.convert(v, bin_map)))
        calls.append(("stationary_distribution", value, lambda v=value: paging.stationary_distribution(v)))
        calls.append(("stationary_distribution[0]", value, lambda v=value: paging.stationary_distribution((v,))))
        for name, call in SCALAR_ENTRIES.items():
            calls.append((name, value, lambda f=call, v=value: f(v)))
        for name in JK_ENTRIES:
            calls.append((f"dictionary.{name}", value, lambda f=getattr(dictionary, name), v=value: f(v)))
        for name in FILTER_ENTRIES:
            calls.append((f"dictionary.{name}[filter]", value, lambda f=getattr(dictionary, name), v=value: f(8, v)))
        for name, (module, args) in streams.items():
            calls.append((f"{name}.encode_stream", value, lambda m=module, a=args, v=value: m.encode_stream(v, *a)))
            calls.append((f"{name}.encode_stream[0]", value, lambda m=module, a=args, v=value: m.encode_stream([v], *a)))
            calls.append((f"{name}.decode_stream", value, lambda m=module, a=args, v=value: m.decode_stream(v, *a)))
    found = [(label, f"{value!r:.24}", problem) for label, value, call in calls if (problem := _misbehaviour(call))]
    assert not found
    # taken would be wrong here: a negative bin size tiles the sum but folds draws onto the wrong digit
    with pytest.raises(RangeError, match="bin sizes must tile the outcome space"):
        scrambler.BinMap(2, 3, (3, -1, 2), (0, 3, 0))
    zero_bins = scrambler.BinMap(3, 4, (0, 4, 0, 4), (1, 2, 1))  # empty bins stay legal
    assert [scrambler.convert(v, zero_bins) for v in range(8)] == [1] * 4 + [3] * 4


def test_integer_like_fields_are_accepted():
    assert scrambler.CodePoint(np.int64(3), np.uint16(4), True) == scrambler.CodePoint(3, 4, 1)
    assert echo.NativeSample(np.int8(1), (0,) * 6) == echo.NativeSample(True, (0,) * 6)
    assert echo.ForcedSample(np.int32(11)).position == 11
    assert reconciler.EncodedStream(np.int64(1), ()).count == 1
    assert reconciler.ReconcilerConfig(np.int64(2)).capacity_threshold == 2


def test_integer_like_arguments_draw_and_plan_as_ints():
    # a numpy state's shifts wrapped (49 of 50 draws differed), a numpy width overflowed, numpy radices had no
    # bit_length, a negative count drew nothing and a float radix was planned
    draws = scrambler.lfsr_values(123456789, 40, 50)
    assert scrambler.lfsr_values(np.int64(123456789), np.int64(40), np.int64(50)) == draws
    assert scrambler.lfsr_values(np.uint32(123456789), 40, 50) == draws
    assert echo.schedule_round(np.int64(16), np.int64(20), np.int64(2)) == echo.schedule_round(16, 20, 2) == 4
    for call in (lambda: scrambler.lfsr_values(5, 5, -1), lambda: echo.schedule_round(2.5, 3, 2)):
        with pytest.raises(RangeError):
            call()


@pytest.mark.parametrize("n_in, n_out", [(256, 259), (2**40, 2**41 + 1)], ids=("byte", "wide"))
def test_integer_like_inputs_encode_as_ints(n_in, n_out):
    # numpy inputs came back as numpy symbols, and at the wide oracle int64 products overflowed into a wrong stream
    # or a refused one; a float input was enqueued as a fraction
    oracle = reconciler.constant_oracle(n_in, n_out)
    inputs = [n_in - 1, 5, n_in // 2, 7, 1, n_in - 2, 0, 3]
    encoded = reconciler.encode_stream(inputs, oracle)
    for dtype in (np.int64, np.uint64):
        taken = reconciler.encode_stream(np.array(inputs, dtype=dtype), oracle)
        assert taken == encoded and all(type(symbol) is int for symbol in taken.symbols)
    with pytest.raises(RangeError):
        reconciler.encode_stream([2, 1.5, 7], oracle)


def test_unchecked_points_and_samples_hold_ints():
    # the unchecked builds stored numpy values, and a uint64 point's root wrapped with OverflowError when descrambled
    point = scrambler.CodePoint(1, 2)
    points = [
        scrambler.unpack_point(np.int64(1000)),
        scrambler.unpack_point(np.uint64(1000)),
        scrambler.scramble_point(point, (np.int64(3), np.int64(5), np.int64(1))),
        scrambler.descramble_point(scrambler.unpack_point(np.uint64(1000)), (5, 1, 1)),
    ]
    sample = echo.unpack_sample(np.uint32(300000))
    assert all(type(field) is int for field in [*(field for p in points for field in p), sample.aux, *sample.digits])
    assert points[0] == points[1] == scrambler.unpack_point(1000)
    assert points[2] == scrambler.scramble_point(point, (3, 5, 1))
    assert points[3] == scrambler.descramble_point(scrambler.unpack_point(1000), (5, 1, 1))
    assert sample == echo.unpack_sample(300000)


def test_float_codes_keys_positions_and_moduli_are_refused():
    # each indexed a table or compared as a float and raised an untyped TypeError; a numpy modulus had no bit_length
    pages = dictionary.build_pages(8)
    for call in (
        lambda: ternary.encode_nibble(1.0, 1),
        lambda: ternary.scrambled_word(1.0, 1),
        lambda: ternary.dictionary_for(ternary.REFERENCE).page(2.0),
        lambda: dictionary.position_jump_probability(pages, 1.0),
        lambda: echo.mock_round(2.0),
        lambda: scrambler.repetition_period(2.5),
        lambda: scrambler.observation_time(9.5),
        lambda: scrambler.solve_dx1(15.0, 259),
        lambda: ternary.delimiter_word(0, 2.0, 1),
    ):
        with pytest.raises(RangeError):
            call()
    assert echo.mock_round(np.int64(4)) == echo.mock_round(4)


# In a fresh process, so the first calls meet cold caches: both floats answer, their int twins run, and both
# floats answer again.
COLD_WARM_PROBE = """
import sys; sys.path.insert(0, sys.argv[1])
from lamcode import dictionary, ternary
text = dictionary.build_pages(8)[0][0]
def answer(call):
    try:
        return repr(call())
    except Exception as exc:
        return type(exc).__name__
calls = (lambda: ternary.scrambled_word(1, 2.0), lambda: dictionary.decode_stream(text, 8.0))
print(*map(answer, calls))
assert ternary.scrambled_word(1, 2) and dictionary.decode_stream(text, 8) == [0]
print(*map(answer, calls))
"""


def test_float_disparity_and_word_length_answer_alike_cold_and_warm():
    # the lru caches keyed 2.0 as 2 and 8.0 as 8: each float was refused (the length with an untyped TypeError)
    # until its int twin had run, and then taken; and the default filter was a second and third J/K codec
    out = subprocess.run(
        [sys.executable, "-B", "-c", COLD_WARM_PROBE, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert out.stdout.splitlines() == ["RangeError RangeError"] * 2, out.stderr
    assert dictionary.paged_codec(8) is dictionary.paged_codec(8, None) is dictionary.paged_codec(8, dictionary.UNIT_BIAS)


@pytest.mark.parametrize(
    "cls, fields",
    [
        (scrambler.BinMap, (64, 2, (1 << 63, 1 << 63), (0, 2, 0))),
        (scrambler.PartitionSolution, (64, 2, 2, 0, 1 << 63, 1)),
    ],
    ids=("BinMap", "PartitionSolution"),
)
def test_integer_like_width_is_stored_as_an_int(cls, fields):
    # stored as given, a numpy width made 1 << r wrap, and both records were refused at r = 64
    record = cls(np.int64(fields[0]), *fields[1:])
    assert record == cls(*fields) and type(record.r) is int


def test_integer_rule_follows_the_annotations():
    class Span(Record):  # annotations evaluated here, postponed (strings) in lamcode
        start: int
        stop: int | None = None
        scale: float = 1.0

    assert Span._fields == ("start", "stop", "scale") and Span._defaults == {"stop": None, "scale": 1.0}
    assert Span(1) == Span(start=1, stop=None, scale=1.0) and Span(1, scale=0.5).scale == 0.5
    assert Span(np.int64(2), True).stop is True  # integer-like values pass; only the bool is stored as given
    for args in ((1.5,), (None,), ("1",), (1, 2.0), (1, Fraction(2))):
        with pytest.raises(RangeError, match="must be an integer"):
            Span(*args)
    assert [cls for cls in RECORD_CLASSES if cls._integers] == [
        cls for cls in RECORD_CLASSES if {"int", "int | None"} & set(cls.__annotations__.values())
    ]


def _shaped_fields(cls):
    """(index, name, kind) of each field annotated tuple[...] ("tuple") or with a record class ("record")."""
    scope = vars(sys.modules[cls.__module__])
    for at, (name, kind) in enumerate(cls.__annotations__.items()):
        named = scope.get(kind)
        if kind.startswith("tuple["):
            yield at, name, "tuple"
        elif isinstance(named, type) and issubclass(named, Record):
            yield at, name, "record"


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_shape_rule_follows_the_annotations(cls):
    # a tuple field given a list of the example's own items, a record field given a plain tuple of its fields
    values = EXAMPLES[cls]
    for at, name, kind in _shaped_fields(cls):
        given = list(values[at]) if kind == "tuple" else tuple(values[at])
        fields = values[:at] + (given,) + values[at + 1 :]
        if cls.__new__ is Record.__new__:
            with pytest.raises(RangeError, match=rf"^{name} must be a \w+, not "):
                cls(*fields)
        else:  # the echo samples build their own records: a list of digits is stored as a tuple
            assert cls(*fields)[at].__class__ is tuple and cls(*fields) == cls(*values)


def test_shape_rule_reads_every_tuple_and_record_annotation():
    # the fields read off the annotations here are the fields the rule checks
    shaped = {(cls, name) for cls in RECORD_CLASSES for _, name, _ in _shaped_fields(cls)}
    assert shaped and shaped == {(cls, name) for cls in RECORD_CLASSES for _, name, _ in cls._shapes}


def test_fields_off_their_shape_are_refused():
    # each was accepted before the annotations were read: a list or an iterator of symbols, which leaves the
    # stream unhashable or decodable once (a second decode of the same record raised FlushAmbiguity), a page
    # entry whose word is a str (its codec and portrait then failed with AttributeError), a list boundary
    stats = ternary.portrait(ternary.dictionary_for(ternary.REFERENCE))
    for build, message in (
        (lambda: reconciler.EncodedStream(2, [1, 2]), "symbols must be a tuple, not list"),
        (lambda: reconciler.EncodedStream(0, iter(())), "symbols must be a tuple, not tuple_iterator"),
        (lambda: ternary.PageEntry("LzH", 0, 2), "word must be a TernaryWord, not str"),
        (lambda: ternary.PortraitStats(stats.variant, list(stats.boundary), *stats[2:]), "boundary must be a tuple"),
    ):
        with pytest.raises(RangeError, match=message):
            build()


def test_shape_rule_reads_evaluated_annotations():
    class Pair(Record):  # annotations evaluated here, postponed (strings) in lamcode
        ends: tuple[int, int]
        spans: tuple[tuple[int, int], ...] = ()
        label: tuple[str, ...] = ()

    class Chain(Record):
        head: Pair
        links: tuple[Pair, ...] = ()

    assert Pair((np.int64(1), True)).ends == (1, 1) and Pair((1, 2), ((3, 4),), (5,)).label == (5,)
    for args, message in (
        (([1, 2],), "ends must be a tuple, not list"),
        (((1, 2, 3),), "ends must hold 2 items, not 3"),
        (((1, 2.5),), r"ends\[1\] must be an integer, not float"),
        (((1, 2), ((3, 4), (5, None))), r"spans\[1\]\[1\] must be an integer, not NoneType"),
    ):
        with pytest.raises(RangeError, match=message):
            Pair(*args)
    pair = Pair((1, 2))
    assert Chain(pair, (pair,)).links == (pair,)
    for args, message in (
        (((1, 2),), "head must be a Pair, not tuple"),
        ((pair, (pair, (1, 2))), r"links\[1\] must be a Pair, not tuple"),
    ):
        with pytest.raises(RangeError, match=message):
            Chain(*args)


def test_bad_record_classes_are_refused_when_defined():
    with pytest.raises(TypeError, match="follows one with a default"):

        class Late(Record):  # namedtuple would move the default onto b
            a: int = 0
            b: int

    with pytest.raises(ValueError, match="underscore"):

        class Hidden(Record):
            _a: int


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the package binds its layers lazily, so the probe reads from every module of the package to run it;
    # -B because the stripped environment drops PYTHONDONTWRITEBYTECODE, and bytecode cached in src/
    # would change every later cold timing of the tree
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lamcode.cli; "
        "[getattr(lamcode, name).__doc__ for name in lamcode.__all__]; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    out = subprocess.run(
        [sys.executable, "-S", "-B", "-c", probe, str(SRC)], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
