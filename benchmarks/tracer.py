"""In-memory span tracer that wraps lamcode's public entry points.

A span records (name, start, end, parent, request id) plus a work count,
e.g. the number of symbols a codec call carried.  Spans live in flat
arrays until the run ends and are then written out as one JSON file.
Self time is a span's duration minus the time its direct children cover.

Only public entry points that the benchmark or another layer calls are
wrapped.  Helpers that run once per symbol (enqueue, encode_nibble,
unpack_point, ...) are left alone; where the benchmark itself calls a
per-element function in a loop it opens one span around the loop.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "work", "index")

    def __init__(self, tracer: "Tracer", name: str, work: float):
        self.tracer = tracer
        self.name = name
        self.work = work

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index, self.work)
        return False


class Tracer:
    """Span store plus the patches that feed it.

    Patches and explicit spans record only while the tracer is active, so
    one request can run traced and untraced back to back.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.work = array("d")
        self.aux = array("d")
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []

    # -- span recording -------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.work.append(0.0)
        self.aux.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, work=0.0) -> None:
        """End a span; `work` is a count or a (count, secondary count) pair."""
        self.end[index] = time.perf_counter()
        if isinstance(work, tuple):
            self.work[index], self.aux[index] = work
        else:
            self.work[index] = work
        self._stack.pop()

    def span(self, name: str, work: float = 0.0):
        return _Span(self, name, work) if self.active else _NULL_SPAN

    def begin_request(self, request_id: int, kind: str) -> _Span:
        self._request = request_id
        return _Span(self, f"bench.request.{kind}", 0.0)

    # -- patching -------------------------------------------------------
    def install(self, targets) -> None:
        """Replace each (module, attr) with a span-opening wrapper."""
        for module, attr, name, work in targets:
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, name, work)))
        self.activate()

    def activate(self) -> None:
        self.active = True
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def deactivate(self) -> None:
        self.active = False
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, name, work):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = tracer.open(label)
            amount = 0.0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, kwargs, result)
                return result
            finally:
                tracer.close(index, amount)

        traced.__wrapped__ = fn
        return traced

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        payload = {
            "columns": ["name", "start", "end", "parent", "request", "work", "aux"],
            "names": self.names,
            "name": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "request": list(self.request),
            "work": list(self.work),
            "aux": list(self.aux),
        }
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink, separators=(",", ":"))

    def stats(self) -> dict[str, dict[str, float]]:
        return span_stats(
            self.names, self.name_id, self.start, self.end, self.parent, self.work, self.aux
        )


def load_stats(path) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as source:
        data = json.load(source)
    return span_stats(
        data["names"],
        data["name"],
        data["start"],
        data["end"],
        data["parent"],
        data["work"],
        data["aux"],
    )


def span_stats(names, name_id, start, end, parent, work, aux) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and work counts."""
    count = len(start)
    covered = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0, "aux": 0.0}
    )
    for i in range(count):
        entry = stats[names[name_id[i]]]
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["incl_s"] += duration
        entry["self_s"] += duration - covered[i]
        entry["work"] += work[i]
        entry["aux"] += aux[i]
    return dict(stats)


def merge_stats(into: dict, other: dict) -> None:
    for name, entry in other.items():
        target = into.setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0, "aux": 0.0}
        )
        for key, value in entry.items():
            target[key] += value


# -- what gets wrapped ------------------------------------------------------


def _length(position: int, keyword: str):
    def work(args, kwargs, result):
        value = args[position] if len(args) > position else kwargs[keyword]
        return len(value)

    return work


def _len_result(args, kwargs, result):
    return len(result)


def _k_tag(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs.get("config")
    k = 1 if config is None else config.capacity_threshold
    exponent = k.bit_length() - 1
    return f"k2e{exponent}" if k == 1 << exponent and exponent > 0 else f"k{k}"


def _variant_tag(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("variant", "reference")


def targets(lamcode) -> list[tuple]:
    """(module, attribute, span name, work counter) for every wrapped entry point.

    `dictionary` binds `manchester.metrics` and `ternary` binds
    `scrambler.bubble_map` by name, so those bindings are patched as well.
    """
    manchester = lamcode.manchester
    dictionary = lamcode.dictionary
    scrambler = lamcode.scrambler
    reconciler = lamcode.reconciler
    ternary = lamcode.ternary
    echo = lamcode.echo
    letters = _length(0, "letters")
    out = [
        (manchester, "bits_to_letters", "manchester.bits_to_letters", _length(0, "bits")),
        (manchester, "letters_to_bits", "manchester.letters_to_bits", _len_result),
        (manchester, "metrics", "manchester.metrics", letters),
        (dictionary, "metrics", "manchester.metrics", letters),
        (dictionary, "enumerate_valid", "dictionary.enumerate_valid", None),
        (dictionary, "count_valid", "dictionary.count_valid", None),
        (dictionary, "census", "dictionary.census", None),
        (dictionary, "build_pages", "dictionary.build_pages", None),
        (dictionary, "encode_stream", "dictionary.encode_stream", _length(0, "data")),
        (dictionary, "decode_stream", "dictionary.decode_stream", _len_result),
        (dictionary, "position_jump_probability", "dictionary.position_jump_probability", None),
        (dictionary, "multiplex_feasible", "dictionary.multiplex_feasible", None),
        (scrambler, "lfsr_values", "scrambler.lfsr_values", lambda a, k, r: len(r[1])),
        (scrambler, "solve_partitions", "scrambler.solve_partitions", _len_result),
        (scrambler, "solve_dx1", "scrambler.solve_dx1", None),
        (scrambler, "solve_dm1", "scrambler.solve_dm1", None),
        (scrambler, "symmetric_solutions", "scrambler.symmetric_solutions", None),
        (scrambler, "unbalance", "scrambler.unbalance", None),
        (scrambler, "build_bin_map", "scrambler.build_bin_map", None),
        (scrambler, "bubble_map", "scrambler.bubble_map", None),
        (ternary, "bubble_map", "scrambler.bubble_map", None),
        (scrambler, "scramble_values", "scrambler.scramble_values", _len_result),
        (scrambler, "budget", "scrambler.budget", None),
        (
            reconciler,
            "encode_stream",
            lambda a, k: "reconciler.encode_stream." + _k_tag(a, k),
            lambda a, k, r: (r.count, len(r.symbols)),
        ),
        (
            reconciler,
            "decode_stream",
            lambda a, k: "reconciler.decode_stream." + _k_tag(a, k),
            lambda a, k, r: (len(r), len(a[0].symbols)),
        ),
        (
            ternary,
            "encode_stream",
            lambda a, k: "ternary.encode_stream." + _variant_tag(a, k),
            _length(0, "codes"),
        ),
        (
            ternary,
            "decode_stream",
            lambda a, k: "ternary.decode_stream." + _variant_tag(a, k),
            _len_result,
        ),
        (ternary, "portrait", "ternary.portrait", None),
        (ternary, "transition_matrix", "ternary.transition_matrix", None),
        (ternary, "stationary_distribution", "ternary.stationary_distribution", None),
        (echo, "image_features", "echo.image_features", None),
        (echo, "image_filter_census", "echo.image_filter_census", None),
        (echo, "selection_sweep", "echo.selection_sweep", None),
        (echo, "schedule_round", "echo.schedule_round", None),
        (echo, "plan_round", "echo.plan_round", None),
    ]
    return out
