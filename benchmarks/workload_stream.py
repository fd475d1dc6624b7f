"""`stream`: warm, in-process round trips of fixed-size blocks, one codec each.

Python loops that run once per symbol dominate here.  Import and page
enumeration fall into set-up, so import work should not move this
workload.  Block sizes are chosen so that every kind takes a few
milliseconds and no single codec dominates the deck.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import oracles
from harness import Request

TAIL_PERCENTILE = 99.0

RECONCILER_BLOCK = 512
RECONCILER_RADICES = (256, 259)
RECONCILER_K = {"k1": 1, "k2e20": 1 << 20}
TERNARY_BLOCK = 4096
KEYED_BLOCK = 512
DICTIONARY_BLOCKS = {"m8": (8, 2048, "unit"), "m16": (16, 1024, "balanced")}
MANCHESTER_BITS = 3072
DRAW_BLOCK = 4096
DRAW_BITS = 15
DRAW_BASE = 259
POINT_BLOCK = 1024
ECHO_BLOCK = 512
CHECKED_DRAWS = 8


def sizes() -> dict:
    return {
        "reconciler": {"symbols": RECONCILER_BLOCK, "radices": RECONCILER_RADICES, "K": RECONCILER_K},
        "ternary": {"words": TERNARY_BLOCK, "variants": ["reference", "broadened"]},
        "ternary.scrambled_word": {"keys": KEYED_BLOCK, "key_bits": 5},
        "dictionary": {k: {"letters": m, "words": n, "pages": f} for k, (m, n, f) in DICTIONARY_BLOCKS.items()},
        "manchester": {"bits": MANCHESTER_BITS},
        "scrambler.draws": {"draws": DRAW_BLOCK, "r": DRAW_BITS, "base": DRAW_BASE},
        "scrambler.points": {"points": POINT_BLOCK},
        "echo": {"samples": ECHO_BLOCK, "pools": ["native", "forced"]},
    }


def setup(lam) -> SimpleNamespace:
    """Static tables: page sizes, sigma walks, slot ranges and the bin map."""
    d, t, s = lam.dictionary, lam.ternary, lam.scrambler
    filters = {"unit": d.UNIT_BIAS, "balanced": d.BALANCED}
    page_size = {}
    for key, (m, _, name) in DICTIONARY_BLOCKS.items():
        page_a, page_b = d.build_pages(m, filters[name])
        page_size[key] = min(len(page_a), len(page_b))
    walks = {}
    for variant in t.VARIANTS:
        book = t.dictionary_for(variant)
        walks[variant] = {
            sigma: [entry.word.delta_dc for entry in book.page(sigma).entries]
            for sigma in t.SIGMA_LEVELS
        }
    broadened = t.dictionary_for(t.BROADENED)
    slots = {}
    for sigma in t.SIGMA_LEVELS:
        table = []
        for entry in broadened.page(sigma).entries:
            table.extend([entry] * entry.rep_count)
        slots[sigma] = table
    bin_map = s.build_bin_map(s.solve_dx1(DRAW_BITS, DRAW_BASE))
    starts = [0]
    for size in bin_map.sizes:
        starts.append(starts[-1] + size)
    return SimpleNamespace(
        lam=lam, filters=filters, page_size=page_size, walks=walks, slots=slots,
        bin_map=bin_map, starts=starts,
    )


def _walk(rng, walk: dict[int, list[int]], count: int, start: int) -> tuple[list[int], float]:
    codes, bits, sigma = [], 0.0, start
    for _ in range(count):
        page = walk[sigma]
        code = rng.randrange(len(page))
        codes.append(code)
        bits += math.log2(len(page))
        sigma += page[code]
    return codes, bits


def _lfsr_state(rng) -> int:
    return rng.randrange(1, 1 << 33)


def _first_draws(state: int, nbits: int, values: list[int]) -> list[str]:
    expected = oracles.lfsr_draws(state, nbits, CHECKED_DRAWS)
    return [] if values[:CHECKED_DRAWS] == expected else ["LFSR draws differ from the bit-serial register"]


def deck(st: SimpleNamespace, rng, tracer) -> list[Request]:
    lam = st.lam
    rec, ter, dic, man, scr, ech = (
        lam.reconciler, lam.ternary, lam.dictionary, lam.manchester, lam.scrambler, lam.echo,
    )
    requests = []

    oracle = rec.constant_oracle(*RECONCILER_RADICES)
    for tag, k in RECONCILER_K.items():
        config = rec.ReconcilerConfig(capacity_threshold=k)
        data = rng.choices(range(RECONCILER_RADICES[0]), k=RECONCILER_BLOCK)

        def run(data=data, config=config):
            encoded = rec.encode_stream(data, oracle, config)
            return encoded, rec.decode_stream(encoded, oracle, config)

        def check(out, data=data):
            encoded, decoded = out
            problems = [] if decoded == data else ["reconciler round trip differs"]
            if encoded.count != len(data) or any(not 0 <= b < RECONCILER_RADICES[1] for b in encoded.symbols):
                problems.append("reconciler header or symbol range wrong")
            return problems

        requests.append(Request(f"reconciler.{tag}", run, check, RECONCILER_BLOCK * math.log2(RECONCILER_RADICES[0])))

    for variant in ter.VARIANTS:
        codes, bits = _walk(rng, st.walks[variant], TERNARY_BLOCK, ter.START_SIGMA)

        def run(codes=codes, variant=variant):
            symbols = ter.encode_stream(codes, variant)
            return symbols, ter.decode_stream(symbols, variant)

        def check(out, codes=codes):
            symbols, decoded = out
            ok = decoded == codes and len(symbols) == ter.WORD_LENGTH * len(codes)
            return [] if ok else ["ternary round trip differs"]

        requests.append(Request(f"ternary.{variant}", run, check, bits))

    key_state = _lfsr_state(rng)

    def run_keyed(state=key_state):
        _, keys = scr.lfsr_values(state, 5, KEYED_BLOCK)
        sigma, words = ter.START_SIGMA, []
        with tracer.span("ternary.scrambled_word", KEYED_BLOCK):
            for key in keys:
                word = ter.scrambled_word(key, sigma)
                words.append(word)
                sigma += word.delta_dc
        return keys, words

    def check_keyed(out, state=key_state):
        keys, words = out
        problems = _first_draws(state, 5, keys)
        sigma = ter.START_SIGMA
        for key, word in zip(keys, words):
            entry = st.slots[sigma][key]
            if word.symbols != entry.word.symbols:
                return problems + [f"key {key} at sigma {sigma} chose {word.symbols}"]
            sigma += entry.word.delta_dc
        return problems

    requests.append(Request("ternary.scrambled_word", run_keyed, check_keyed, KEYED_BLOCK * 5))

    for tag, (m, count, name) in DICTIONARY_BLOCKS.items():
        size = st.page_size[tag]
        values = rng.choices(range(size), k=count)
        image_filter = st.filters[name]

        def run(values=values, m=m, image_filter=image_filter):
            letters = dic.encode_stream(values, m, image_filter)
            return letters, dic.decode_stream(letters, m, image_filter)

        def check(out, values=values, m=m):
            letters, decoded = out
            ok = decoded == values and len(letters) == m * len(values) and "KK" not in letters
            return [] if ok else ["dictionary round trip differs"]

        requests.append(Request(f"dictionary.{tag}", run, check, count * math.log2(size)))

    bits = rng.choices((0, 1), k=MANCHESTER_BITS)

    def run_manchester(bits=bits):
        letters = man.bits_to_letters(bits)
        return letters, man.letters_to_bits(letters), man.metrics(letters)

    def check_manchester(out, bits=bits):
        letters, decoded, metrics = out
        ok = decoded == bits and "KK" not in letters and metrics.length == 2 * len(bits)
        ok = ok and metrics.j_count == letters.count("J")
        return [] if ok else ["manchester round trip or metrics differ"]

    requests.append(Request("manchester", run_manchester, check_manchester, MANCHESTER_BITS))

    draw_state = _lfsr_state(rng)

    def run_draws(state=draw_state):
        _, values = scr.lfsr_values(state, DRAW_BITS, DRAW_BLOCK)
        with tracer.span("scrambler.convert", DRAW_BLOCK):
            digits = [scr.convert(value, st.bin_map) for value in values]
        return values, digits

    def check_draws(out, state=draw_state):
        values, digits = out
        problems = _first_draws(state, DRAW_BITS, values)
        starts = st.starts
        if any(not starts[d] <= v < starts[d + 1] for v, d in zip(values, digits)):
            problems.append("draw folded into the wrong bin")
        return problems

    requests.append(Request("scrambler.draws", run_draws, check_draws, DRAW_BLOCK * math.log2(DRAW_BASE)))

    points = [
        (rng.randrange(scr.ROOT_BASE), rng.getrandbits(scr.AFFIX_BITS), rng.getrandbits(1))
        for _ in range(POINT_BLOCK)
    ]
    keys = [
        (rng.randrange(scr.ROOT_BASE), rng.getrandbits(scr.AFFIX_BITS), rng.getrandbits(1))
        for _ in range(POINT_BLOCK)
    ]

    def run_points(points=points, keys=keys):
        with tracer.span("scrambler.scramble_point", POINT_BLOCK):
            scrambled = [scr.scramble_point(scr.pack_point(*p), k) for p, k in zip(points, keys)]
        with tracer.span("scrambler.descramble_point", POINT_BLOCK):
            restored = [scr.descramble_point(p, k) for p, k in zip(scrambled, keys)]
        return scrambled, restored

    def check_points(out, points=points, keys=keys):
        scrambled, restored = out
        for (root, affix, inv), key, s, r in zip(points, keys, scrambled, restored):
            if (r.root, r.affix, r.inversion) != (root, affix, inv):
                return ["scramble_point round trip differs"]
            if s.root != (root + key[0]) % scr.ROOT_BASE or s.affix != affix ^ key[1]:
                return ["scramble_point output differs from the key arithmetic"]
        return []

    point_bits = POINT_BLOCK * (math.log2(scr.POINT_SPACE) + 1)
    requests.append(Request("scrambler.points", run_points, check_points, point_bits))

    samples = []
    for _ in range(ECHO_BLOCK):
        if rng.getrandbits(1):
            samples.append(("native", rng.getrandbits(1), tuple(rng.choices(range(8), k=ech.NATIVE_DIGITS))))
        else:
            samples.append(("forced", rng.randrange(ech.GROUP_WORDS), tuple(rng.choices(range(8), k=ech.FORCED_DIGITS))))

    def run_echo(samples=samples):
        with tracer.span("echo.pack", ECHO_BLOCK):
            points = [
                ech.pack_native(ech.NativeSample(a, d)) if pool == "native" else ech.pack_forced(ech.ForcedSample(a, d))
                for pool, a, d in samples
            ]
        with tracer.span("echo.unpack_sample", ECHO_BLOCK):
            back = [ech.unpack_sample(point) for point in points]
        return points, back

    def check_echo(out, samples=samples):
        points, back = out
        for (pool, a, digits), point, sample in zip(samples, points, back):
            value = sum(d * 8**p for p, d in enumerate(digits))
            if pool == "native":
                value += a * 8**ech.NATIVE_DIGITS
                fields = (getattr(sample, "aux", None), sample.digits)
            else:
                value += ech.NATIVE_POOL + a * 8**ech.FORCED_DIGITS
                fields = (getattr(sample, "position", None), sample.digits)
            if point.value != value or fields != (a, digits):
                return ["echo pack/unpack round trip differs"]
        return []

    requests.append(Request("echo.samples", run_echo, check_echo, ECHO_BLOCK * math.log2(ech.POOL_TOTAL)))

    rng.shuffle(requests)
    return requests
