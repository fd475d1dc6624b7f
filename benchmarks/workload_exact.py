"""`exact`: warm, in-process exact tables from seeded parameter grids.

The same modules as `stream`, used differently: filtering instead of
coding, many short words instead of one long stream, scheduling instead
of pack/unpack, solvers instead of draws.  The parameters that set a
request's cost (word length, data radix band, variant) are a fixed grid
covered once per deck; the seed draws the thresholds, keys and radix
offsets inside each grid cell.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import oracles
from harness import Request

TAIL_PERCENTILE = 99.0

CENSUS_LETTERS = (12, 14, 16)
PAGE_LETTERS = (8, 12, 16)
PARTITION_WIDTHS = 24
IMAGE_THRESHOLDS = 8
SCHEDULE_BANDS = (100, 200, 300)  # data radix tops; capable radix is data + 1
SCHEDULE_JITTER = 4


def sizes() -> dict:
    return {
        "census": {"letters": CENSUS_LETTERS, "min_transits": "1..m/2-1", "max_droop": [1, 2, None]},
        "pages": {"letters": PAGE_LETTERS, "max_abs_bias": [1, 2, 3], "min_transits": "1..m/2-1",
                  "jump_positions": "all", "mask": ["JJ", "JK", "KJ", None]},
        "partitions": {"base": "130..999", "widths": PARTITION_WIDTHS},
        "scramble_values": {"points": 530432},
        "image_census": {"thresholds_per_request": IMAGE_THRESHOLDS, "head": "4..12", "tail": "4..12",
                         "dc": "2..12", "min_transits": "0..6"},
        "schedule": {"data_radix_tops": SCHEDULE_BANDS, "jitter": SCHEDULE_JITTER, "capable": "data + 1",
                     "modulus": "data - 0..3"},
        "portrait": {"variants": ["reference", "broadened"]},
    }


def setup(lam) -> SimpleNamespace:
    lam.echo.image_features()
    for m in sorted(set(CENSUS_LETTERS + PAGE_LETTERS)):
        lam.dictionary.enumerate_valid(m)
    return SimpleNamespace(lam=lam, points=np.arange(lam.scrambler.POINT_SPACE))


def deck(st: SimpleNamespace, rng, tracer) -> list[Request]:
    lam = st.lam
    dic, scr, ech, ter = lam.dictionary, lam.scrambler, lam.echo, lam.ternary
    requests = []

    for m in CENSUS_LETTERS:
        image_filter = dic.ImageFilter(
            min_transits=rng.randrange(1, m // 2), max_droop=rng.choice((1, 2, None))
        )

        def run(m=m, image_filter=image_filter):
            full = dic.census(m)
            return full, dic.census(m, image_filter), len(dic.enumerate_valid(m)), dic.count_valid(m)

        def check(out, m=m, image_filter=image_filter):
            full, filtered, listed, counted = out
            problems = []
            if listed != counted:
                problems.append(f"len(enumerate_valid({m})) = {listed} != count_valid = {counted}")
            totals = {mask: sum(row.values()) for mask, row in full.items()}
            if totals != oracles.closed_form_masks(m):
                problems.append(f"census({m}) totals {totals} differ from the closed form")
            if filtered != oracles.census(m, image_filter):
                problems.append(f"census({m}, {image_filter}) differs from the bitmask census")
            return problems

        requests.append(Request(f"census.m{m}", run, check))

    for m in PAGE_LETTERS:
        image_filter = dic.ImageFilter(
            max_abs_bias=rng.choice((1, 2, 3)), min_transits=rng.randrange(1, m // 2)
        )
        masks = [rng.choice(("JJ", "JK", "KJ", None)) for _ in range(m)]

        def run(m=m, image_filter=image_filter, masks=masks):
            pages = dic.build_pages(m, image_filter)
            return pages, [dic.position_jump_probability(pages, i, mask) for i, mask in enumerate(masks)]

        def check(out, m=m, image_filter=image_filter, masks=masks):
            pages, jumps = out
            problems = []
            if (len(pages[0]), len(pages[1])) != oracles.page_sizes(m, image_filter):
                problems.append(f"build_pages({m}, {image_filter}) sizes differ from the bitmask census")
            expected = [oracles.jump_probability(pages, i, mask) for i, mask in enumerate(masks)]
            if jumps != expected:
                problems.append("position_jump_probability differs from a direct count")
            return problems

        requests.append(Request(f"pages.m{m}", run, check))

    base = rng.randrange(130, 1000)
    widths = range(base.bit_length(), base.bit_length() + PARTITION_WIDTHS)

    def run_partitions(base=base):
        rows = []
        for r in widths:
            solutions = scr.solve_partitions(r, base)
            rows.append([(sol, scr.unbalance(sol), scr.build_bin_map(sol)) for sol in solutions])
        return rows

    def check_partitions(rows, base=base):
        for group in rows:
            if not group or group[0][0].delta_x > 1:
                return [f"no quasi-uniform solution leads the row for base {base}"]
            for sol, (hi, lo), bin_map in group:
                total = 1 << sol.r
                if sol.m_even * sol.x_even + sol.m_odd * sol.x_odd != total or sol.m_even + sol.m_odd != base:
                    return [f"partition {sol} does not tile 2^{sol.r} into {base} bins"]
                if sol.delta_x > 1 and sol.delta_m != 1:
                    return [f"partition {sol} is in neither targeted family"]
                used = [x for count, x in ((sol.m_even, sol.x_even), (sol.m_odd, sol.x_odd)) if count]
                if (hi, lo) != (Fraction(base * max(used), total) - 1, Fraction(base * min(used), total) - 1):
                    return [f"unbalance of {sol} is wrong"]
                if sum(bin_map.sizes) != total or len(bin_map.sizes) != base:
                    return [f"bin map of {sol} does not tile the outcome space"]
        return []

    requests.append(Request("partitions", run_partitions, check_partitions))

    key = (rng.randrange(scr.ROOT_BASE), rng.getrandbits(scr.AFFIX_BITS), rng.getrandbits(1))
    probes = [rng.randrange(scr.POINT_SPACE) for _ in range(8)]

    def check_scramble(out, key=key, probes=probes):
        out = np.asarray(out)
        if out.shape != st.points.shape or out.min() < 0 or out.max() >= scr.POINT_SPACE:
            return ["scramble_values left the point space"]
        if not np.all(np.bincount(out, minlength=scr.POINT_SPACE) == 1):
            return ["scramble_values is not a permutation of POINT_SPACE"]
        for value in probes:
            root, affix = divmod(value, scr.AFFIX_SPACE)
            expected = ((root + key[0]) % scr.ROOT_BASE) * scr.AFFIX_SPACE + (affix ^ key[1])
            if int(out[value]) != expected:
                return [f"scramble_values[{value}] differs from the scalar scramble"]
        return []

    requests.append(
        Request("scramble_values", lambda key=key: scr.scramble_values(st.points, key), check_scramble)
    )

    thresholds = [
        (rng.randint(4, 12), rng.randint(4, 12), rng.randint(2, 12), rng.randint(0, 6))
        for _ in range(IMAGE_THRESHOLDS)
    ]

    def run_images(thresholds=thresholds):
        return [ech.image_filter_census(h, t, dc, tr) for h, t, dc, tr in thresholds]

    def check_images(counts, thresholds=thresholds):
        expected = [oracles.image_census(*row) for row in thresholds]
        return [] if counts == expected else [f"image_filter_census {counts} != {expected}"]

    requests.append(Request("image_census", run_images, check_images))

    for top in SCHEDULE_BANDS:
        data = top - rng.randrange(SCHEDULE_JITTER)
        modulus = data - rng.randrange(SCHEDULE_JITTER)
        args = (data, data + 1, modulus)

        def check_plan(plan, args=args):
            data, capable, modulus = args
            n = plan.word_count
            holds = modulus * data**n <= capable**n
            minimal = n == 1 or modulus * data ** (n - 1) > capable ** (n - 1)
            if not (holds and minimal) or n != oracles.minimal_rounds(*args):
                return [f"schedule_round{args} = {n} is not the minimal round"]
            return []

        requests.append(Request(f"schedule.d{top}", lambda args=args: ech.plan_round(*args), check_plan))

    for variant in ter.VARIANTS:

        def run_portrait(variant=variant):
            book = ter.dictionary_for(variant)
            return book, ter.portrait(book)

        def check_portrait(out):
            book, stats = out
            matrix = oracles.transition_matrix(book)
            pi = stats.boundary
            moved = tuple(sum(pi[i] * matrix[i][j] for i in range(len(pi))) for j in range(len(pi)))
            problems = []
            if sum(pi) != 1 or moved != tuple(pi):
                problems.append(f"{book.variant} boundary vector is not a stationary distribution")
            if any(sum(phase.values()) != 1 for phase in stats.p_letter_phase):
                problems.append(f"{book.variant} letter phases do not sum to 1")
            return problems

        requests.append(Request(f"portrait.{variant}", run_portrait, check_portrait))

    rng.shuffle(requests)
    return requests
