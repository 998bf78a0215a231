"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.  The full-grid consistency criterion dominates the
runtime (a few minutes at the default search budget).
"""

import hashlib
import io
import time
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

import numpy as np

from mcwc.asymptotics import INNER_CODES, concat_rate, emit_curves, gv_rate, mrrw_upper, mrrw_upper_half, pseudo_product_rate
from mcwc.bounds import (
    exact_search,
    johnson_homogeneous,
    table_build,
    tightness_exact,
)
from mcwc.codes import BinaryCode, WeightProfile, find_systematic_set, verify_code
from mcwc.constructions import (
    builtin_code,
    complement_extend,
    pseudo_product,
    reed_solomon,
    rs_mcwc,
)
from mcwc.designs import affine_plane, design_to_mcwc, one_factorization, verify_design
from mcwc.gf import field_make, prime_power
from mcwc.pufsim import (
    device_new,
    deterministic_difference,
    measure_delay,
    reliability_sweep,
    word_matrix,
)


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def all_words_code(m, n, w, d=2):
    blocks = [
        sum(1 << (n - 1 - j) for j in support) for support in combinations(range(n), w)
    ]
    words = []
    for rows in product(blocks, repeat=m):
        word = 0
        for row in rows:
            word = (word << n) | row
        words.append(word)
    return BinaryCode.from_words(words, m * n, d, WeightProfile.homogeneous(m, n, w))


def test_criterion_1_pseudo_product_reproduction():
    with criterion(1, "pseudo-product yields a verified 16-word MCWC(6,4,8,2)", 1.0):
        result = pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("lin-6-2-4"))
        assert result.size == 16 == 2 ** (2 * 2)
        assert result.code.profile == WeightProfile.homogeneous(6, 4, 2)
        assert result.guaranteed_distance == 8
        report = verify_code(result.code)
        assert report.passed and report.min_distance >= 8


def test_criterion_2_complement_construction():
    with criterion(2, "complement extension gives a systematic CWC(8,4,4) of size 8", 1.0):
        ingredient = builtin_code("rm1-2")  # the 8-word [4,3,2] code
        assert len(ingredient.words) == 8
        result = complement_extend(ingredient)
        assert result.size == 8
        assert result.code.profile == WeightProfile.homogeneous(1, 8, 4)
        assert result.guaranteed_distance == 4
        assert verify_code(result.code).passed
        assert find_systematic_set(result.code) is not None


def test_criterion_3_power_tightness_cells():
    cells = []
    for m in (1, 2, 3):
        for n in range(2, 10):
            for w in range(1, n + 1):
                if n % w:
                    continue
                q = n // w
                if prime_power(q) is None or q < m * w - 1:
                    continue
                for d in range(2, 2 * m * w + 1, 2):
                    s = m * w - d // 2 + 1
                    if 1 <= s <= m:
                        cells.append((m, n, d, w, q, s))
    assert cells
    assert (2, 3, 2, 1, 3, 2) in cells and (3, 3, 4, 1, 3, 2) in cells

    confirmed = 0
    with criterion(3, f"power-bound tightness on {len(cells)} cells (construction + search)", 60.0 * len(cells)):
        for m, n, d, w, q, s in cells:
            cell_start = time.monotonic()
            expected = q**s
            witness = rs_mcwc(m, n, d, w)
            assert witness.size == expected, (m, n, d, w)
            assert verify_code(witness.code).passed
            record = tightness_exact(m, n, d, w)
            assert record is not None and record.value == expected
            if comb(n, w) ** m <= 2000:
                search = exact_search(m, n, d, w, node_budget=200_000)
                if search.kind == "exact":
                    assert search.value == expected, (m, n, d, w)
                    confirmed += 1
            assert time.monotonic() - cell_start < 60.0, (m, n, d, w)
        assert confirmed >= 10
    print(f"  power-tight cells: {len(cells)}, search-confirmed: {confirmed}")


def test_criterion_4_johnson_met_with_equality():
    with criterion(4, "search gives M(2,4,4,2) = 12 and the recursion meets it", 10.0):
        search = exact_search(2, 4, 4, 2)
        assert search.kind == "exact" and search.value == 12
        rec = johnson_homogeneous(2, 4, 4, 2)
        assert rec.value == 12
        assert "shrink-weight" in rec.provenance and "(2,3,4,1)<=3" in rec.provenance
        assert johnson_homogeneous(2, 3, 4, 1).value == 3
        # the inner cell value is the ternary pair-code size, met by evaluation
        assert len(reed_solomon(field_make(3, 1), 2, 2).words) == 3


def test_criterion_5_design_constructions():
    with criterion(5, "design families verify and convert at the guaranteed distance", 10.0):
        for q in (2, 3, 4):
            design = affine_plane(q)
            verify_design(design)
            assert len(design.classes) == q + 1 == design.expected_class_count()
            result = design_to_mcwc(design)
            assert result.size == q + 1
            assert result.guaranteed_distance == 2 * (design.k - design.t + 1) * (design.v // design.k)
            assert verify_code(result.code).passed
        for v in (4, 6, 8):
            design = one_factorization(v)
            verify_design(design)
            assert len(design.classes) == v - 1 == design.expected_class_count()
            result = design_to_mcwc(design)
            assert result.size == v - 1
            assert result.guaranteed_distance == v
            assert verify_code(result.code).passed


def test_criterion_6_full_grid_consistency():
    with criterion(6, "full desk-scale grid has no lower > upper and exacts agree", 1800.0):
        table = table_build(range(1, 4), range(2, 9), range(1, 4))
        exacts = {}
        for cell in table.cells():
            lo, _ = table.best_lower(cell)
            hi, _ = table.best_upper(cell)
            assert lo <= hi, cell
            records = table.records[cell]
            for rec in records:
                if rec.kind != "exact":
                    continue
                for other in records:
                    if other.kind == "upper":
                        assert rec.value <= other.value, (cell, other.provenance)
                    elif other.kind == "lower":
                        assert other.value <= rec.value, (cell, other.provenance)
            # A cell is exact when its best lower bound meets its best upper
            # bound: an exact record, or a witness (such as a search stopped at
            # the upper bound) meeting a proven upper bound.
            value = table.exact_value(cell)
            if value is not None:
                exacts[cell] = value
        # monotone in d where exact
        for (m, n, d, w), value in exacts.items():
            nxt = exacts.get((m, n, d + 2, w))
            if nxt is not None:
                assert nxt <= value
        # a single recursion step fed exact right-hand sides dominates the left
        for (m, n, d, w), value in exacts.items():
            inner = exacts.get((m, n - 1, d, w - 1))
            if inner is not None and w >= 1:
                assert value <= (n**m * inner) // (w**m)
            inner = exacts.get((m, n - 1, d, w))
            if inner is not None and n - w >= 1:
                assert value <= (n**m * inner) // ((n - w) ** m)
        assert len(exacts) >= 200
        # Every bound and provenance of the grid, as `table --m 1..3 --n 2..8 --w 1..3` writes them.
        csv = io.StringIO()
        table.write_csv(csv)
        digest = hashlib.sha256(csv.getvalue().encode()).hexdigest()
        assert digest == "cdc91afe9043cd84c989c651e7b5ecf328ebf1545fec99824fa3b0075c26571d"
    print(f"  grid cells: 300, exact cells: {len(exacts)}")


def test_criterion_7_asymptotic_curves():
    with criterion(7, "rate-curve identities and orderings on a 0.001 grid", 5.0):
        grid = [i / 1000 for i in range(1, 500)]
        for t in grid:
            assert abs(mrrw_upper(t, 0.5) - mrrw_upper_half(t)) <= 1e-12
        for t in grid:
            upper = mrrw_upper(t, 0.5)
            lowers = [gv_rate(t) if t <= 0.5 else 0.0]
            if t <= 0.25:
                lowers.append(pseudo_product_rate(t))
            for inner in INNER_CODES:
                lowers.append(concat_rate(inner, t))
            assert all(lo <= upper + 1e-12 for lo in lowers), t
            gv = gv_rate(t)
            assert all(lo <= gv + 1e-12 for lo in lowers), t
        rows = emit_curves(grid)
        assert len(rows) == sum(1 for _ in rows)  # emitted without domain errors


def test_criterion_8_unpredictability():
    with criterion(8, "deterministic delay difference is exactly 0 on every pair", 60.0):
        codes = [
            design_to_mcwc(affine_plane(2)).code,
            design_to_mcwc(one_factorization(6)).code,
            rs_mcwc(2, 3, 2, 1).code,
            rs_mcwc(3, 3, 4, 1).code,
            rs_mcwc(2, 4, 2, 1).code,
            pseudo_product(builtin_code("cwc-4-2-2"), builtin_code("lin-6-2-4")).code,
            all_words_code(2, 4, 2),
        ]
        for code in codes:
            m = code.profile.m
            n = code.profile.parts[0][0]
            for device_seed in range(100):
                dev = device_new(m, n, (1.0, 1.05), s_eps=1e-3, seed=device_seed)
                mats = [word_matrix(dev, code, wd) for wd in code.words]
                for i, u in enumerate(mats):
                    for v in mats[i + 1 :]:
                        assert deterministic_difference(dev, u, v) == 0.0

        # non-constant row weights break the cancellation
        dev = device_new(2, 4, np.array([[1.0, 1.25], [1.0, 1.5]]), s_eps=1e-3, seed=0)
        u = np.array([[1, 1, 0, 0], [1, 1, 0, 0]])
        v = np.array([[1, 1, 1, 0], [1, 0, 0, 0]])
        assert deterministic_difference(dev, u, v) != 0.0
        dev = device_new(2, 4, (1.0, 1.05), s_eps=1e-3, seed=0)
        v2 = np.array([[1, 0, 0, 0], [1, 0, 0, 0]])  # lighter word, same mu per row
        assert deterministic_difference(dev, u, v2) != 0.0


def test_criterion_9_reliability_statistics():
    with criterion(9, "flip rate falls with distance; gap variance matches 2*s^2*d", 300.0):
        s = 1e-3  # offset scale relative to a unit mean delay
        code = all_words_code(2, 4, 2)

        pooled: dict[int, list[float]] = {}
        root = np.random.SeedSequence(42)
        device_seeds = root.generate_state(20)
        for device_seed in device_seeds:
            dev = device_new(2, 4, (1.0, 1.05), s_eps=s, seed=int(device_seed))
            sweep = reliability_sweep(dev, code, noise_sigma=s, trials=10_000, seed=42)
            for p in sweep.pairs:
                if p.usable:
                    pooled.setdefault(p.distance, []).append(p.flip_rate)
        dists = sorted(pooled)
        assert dists == [2, 4, 6, 8]
        means = [float(np.mean(pooled[d])) for d in dists]
        assert all(a >= b for a, b in zip(means, means[1:])), means

        # ensemble variance of the noise-free gap across 10^4 devices
        pairs = [(code.words[0], wd) for wd in code.words[1:]]
        targets = {}
        for u_word, v_word in pairs:
            dist = int(np.bitwise_count(u_word ^ v_word).sum())
            if dist not in targets:
                targets[dist] = (u_word, v_word)
        diffs = {dist: [] for dist in targets}
        for device_seed in range(10_000):
            dev = device_new(2, 4, (1.0, 1.05), s_eps=s, seed=device_seed)
            for dist, (u_word, v_word) in targets.items():
                u = word_matrix(dev, code, u_word)
                v = word_matrix(dev, code, v_word)
                diffs[dist].append(measure_delay(dev, u) - measure_delay(dev, v))
        for dist, values in diffs.items():
            var = float(np.var(values))
            assert abs(var - 2 * s * s * dist) <= 0.05 * 2 * s * s * dist, dist
    print(f"  bucket means by distance: {dict(zip(dists, [round(x, 4) for x in means]))}")
