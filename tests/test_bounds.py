"""Bound rules, exact search, reference ingestion and table consistency."""

import dataclasses
import io
import math
import multiprocessing
import os
import random
import re
import signal
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import networkx as nx
import pytest

from mcwc import bounds as bounds_mod
from mcwc import codes as codes_mod
from mcwc import constructions as constructions_mod
from mcwc import workers
from mcwc.bounds import (
    BoundRecord,
    BoundTable,
    ConsistencyError,
    ReferenceFormatError,
    ReferenceStore,
    SearchSpaceError,
    default_references,
    eb_transfer,
    evaluate_cell,
    exact_search,
    johnson_closed_form,
    johnson_general,
    johnson_homogeneous,
    search_cells,
    singleton_like,
    table_build,
    tightness_exact,
    trivial_upper,
)
from mcwc.codes import BinaryCode, WeightProfile, verify_code


# ---------- recursive bounds ----------

def test_johnson_homogeneous_headline():
    rec = johnson_homogeneous(2, 4, 4, 2)
    assert rec.value == 12
    assert "shrink-weight" in rec.provenance
    assert "(2,3,4,1)<=3" in rec.provenance
    assert johnson_homogeneous(2, 3, 4, 1).value == 3


def test_johnson_distance_two_is_free():
    for m, n, w in ((1, 5, 2), (2, 4, 2), (3, 4, 1)):
        assert johnson_homogeneous(m, n, 2, w).value == comb(n, w) ** m
    assert johnson_homogeneous(2, 3, 2, 1).value == 9


def test_johnson_degenerate_weights():
    assert johnson_homogeneous(2, 4, 4, 0).value == 1
    assert johnson_homogeneous(2, 4, 4, 4).value == 1


def test_johnson_general_matches_homogeneous_path():
    profile = WeightProfile.homogeneous(2, 4, 2)
    assert johnson_general(profile, 4).value == johnson_homogeneous(2, 4, 4, 2).value == 12


def test_johnson_general_zero_weight_block():
    # The weight-0 block is inert; the bound collapses to the other block.
    profile = WeightProfile(((2, 0), (4, 2)))
    assert johnson_general(profile, 4).value == 2


def test_johnson_general_heterogeneous():
    profile = WeightProfile(((3, 1), (4, 2)))
    rec = johnson_general(profile, 4)
    assert rec.value == 6
    # exhaustive cross-check by brute force over all profile words
    from itertools import combinations as subsets

    def words():
        for s1 in subsets(range(3), 1):
            for s2 in subsets(range(4), 2):
                w1 = sum(1 << (2 - j) for j in s1)
                w2 = sum(1 << (3 - j) for j in s2)
                yield (w1 << 4) | w2

    # greedy packing gives a lower-bound certificate below the rule's value
    chosen = []
    for wd in words():
        if all((wd ^ c).bit_count() >= 4 for c in chosen):
            chosen.append(wd)
    assert len(chosen) <= rec.value


def test_johnson_odd_distance_lift():
    rec = johnson_homogeneous(2, 4, 3, 2)
    assert rec.value == johnson_homogeneous(2, 4, 4, 2).value
    assert "lifted" in rec.provenance


def brute_force_t(parts, d):
    """Exact heterogeneous optimum by clique search over all profile words."""
    from itertools import combinations as subsets, product as cartesian

    from mcwc.clique import max_clique

    block_choices = []
    for n_i, w_i in parts:
        block_choices.append(
            [sum(1 << (n_i - 1 - j) for j in s) for s in subsets(range(n_i), w_i)]
        )
    words = []
    for rows in cartesian(*block_choices):
        word = 0
        for (n_i, _), row in zip(parts, rows):
            word = (word << n_i) | row
        words.append(word)
    adj = [0] * len(words)
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            if (u ^ words[j]).bit_count() >= d:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    result = max_clique(adj)
    assert result.complete
    return result.size


@pytest.mark.parametrize(
    "parts,d",
    [
        (((3, 1), (4, 2)), 4),
        (((2, 1), (4, 2)), 4),
        (((3, 1), (3, 1)), 4),
        (((2, 1), (3, 1), (4, 2)), 6),
        (((4, 2), (4, 2)), 6),
    ],
)
def test_johnson_general_dominates_brute_force(parts, d):
    exact = brute_force_t(parts, d)
    assert exact <= johnson_general(WeightProfile(parts), d).value


def test_heterogeneous_matches_homogeneous_cell():
    # two length-3 weight-1 blocks at distance 4 is the (2,3,4,1) cell
    assert brute_force_t(((3, 1), (3, 1)), 4) == exact_search(2, 3, 4, 1).value == 3


@lru_cache(maxsize=None)
def reference_johnson_t(parts, d):
    """The recursion one (profile, d) state at a time, in Fraction arithmetic.

    This is the direct form of the rule johnson_general memoises per profile
    for all d at once in integers; parts normalized, d even.
    """
    count = math.prod(comb(n_i, w_i) for n_i, w_i in parts) if parts else 1
    if count <= 1:
        return 1, "single-word cell"
    if d <= 2:
        return count, "membership count"
    if sum(2 * w_i for _, w_i in parts) < d:
        return 1, "distance exceeds diameter"

    best, rule = None, ""
    u = d // 2
    lam = sum(w_i for _, w_i in parts) - u
    denom = sum(Fraction(w_i * w_i, n_i) for n_i, w_i in parts) - lam
    if denom > 0:
        best, rule = math.floor(Fraction(u) / denom), "average-intersection closed form"
    for i, (n_i, w_i) in enumerate(parts):
        if w_i >= 1:
            rest = parts[:i] + ((n_i - 1, w_i - 1),) + parts[i + 1 :]
            inner, _ = reference_johnson_t(bounds_mod._normalize_profile(rest), d)
            val = (n_i * inner) // w_i
            if best is None or val < best:
                best, rule = val, f"shrink-weight block {i}"
        if n_i - w_i >= 1:
            rest = parts[:i] + ((n_i - 1, w_i),) + parts[i + 1 :]
            inner, _ = reference_johnson_t(bounds_mod._normalize_profile(rest), d)
            val = (n_i * inner) // (n_i - w_i)
            if best is None or val < best:
                best, rule = val, f"shrink-length block {i}"
    return best, rule


def reference_johnson_general(parts, d):
    d_eff, note = bounds_mod._lift(d)
    value, rule = reference_johnson_t(bounds_mod._normalize_profile(parts), d_eff)
    return value, f"johnson-general[{rule}]{note}"


def johnson_general_pair(parts, d):
    rec = johnson_general(WeightProfile(parts), d)
    return rec.value, rec.provenance


HETEROGENEOUS_PROFILES = (
    ((3, 1), (4, 2)),
    ((2, 0), (4, 2)),
    ((0, 0), (5, 3)),
    ((2, 1), (3, 1), (4, 2)),
    ((5, 2), (6, 3), (7, 1)),
    ((1, 1), (8, 5), (8, 3), (8, 3)),
    ((4, 2), (4, 2), (6, 1), (6, 5)),
)


def test_johnson_general_matches_reference_in_any_order():
    cases = [
        (((n, w),) * m, d)
        for m in range(1, 5)
        for n in range(0, 10)
        for w in range(0, n + 1)
        for d in range(-2, 2 * m * n + 3)
    ]
    cases += [
        (parts, d)
        for parts in HETEROGENEOUS_PROFILES
        for d in range(-2, 2 * sum(n for n, _ in parts) + 3)
    ]
    random.Random(20141).shuffle(cases)
    bounds_mod._JOHNSON_ROOTS.clear()
    for parts, d in cases:
        assert johnson_general_pair(parts, d) == reference_johnson_general(parts, d), (parts, d)


@lru_cache(maxsize=None)
def reference_johnson_homogeneous(m, n, d, w):
    """The paper's homogeneous recursion, all m blocks shrunk per step; d even."""
    count = comb(n, w) ** m
    if count <= 1:
        return 1, "single-word cell"
    if d <= 2:
        return count, "membership count"
    if 2 * m * min(w, n - w) < d:
        return 1, "distance exceeds diameter"

    best, rule = None, ""
    if w >= 1:
        inner, _ = reference_johnson_homogeneous(m, n - 1, d, w - 1)
        val = (n**m * inner) // (w**m)
        best, rule = val, f"shrink-weight via ({m},{n - 1},{d},{w - 1})<={inner}"
    if n - w >= 1:
        inner, _ = reference_johnson_homogeneous(m, n - 1, d, w)
        val = (n**m * inner) // ((n - w) ** m)
        if best is None or val < best:
            best, rule = val, f"shrink-length via ({m},{n - 1},{d},{w})<={inner}"
    u = d // 2
    denom = Fraction(m * w * w, n) - (m * w - u)
    if denom > 0:
        val = math.floor(Fraction(u) / denom)
        if val < best:
            best, rule = val, "average-intersection closed form"
    return best, rule


def test_johnson_homogeneous_solves_once(monkeypatch):
    # The root and the child its provenance names come from one batch.
    rows, real = [], bounds_mod._johnson_rows
    monkeypatch.setattr(bounds_mod, "_johnson_rows", lambda *args: rows.append(args) or real(*args))
    bounds_mod._JOHNSON_ROOTS.clear()
    rec = johnson_homogeneous(2, 9, 4, 2)
    assert len(rows) == 1
    assert (rec.value, rec.provenance) == (162, "johnson[shrink-weight via (2,8,4,1)<=8]")
    assert johnson_homogeneous(2, 9, 4, 2) == rec and len(rows) == 1


def test_johnson_homogeneous_matches_reference_in_any_order():
    cells = [
        (m, n, d, w)
        for m in range(1, 5)
        for n in range(0, 15)
        for w in range(0, n + 1)
        for d in range(-2, 2 * m * n + 3)
    ]
    assert len(cells) == 24_800
    random.Random(20142).shuffle(cells)
    bounds_mod._JOHNSON_ROOTS.clear()
    for m, n, d, w in cells:
        rec = johnson_homogeneous(m, n, d, w)
        d_eff, _ = bounds_mod._lift(d)
        assert rec.value == reference_johnson_homogeneous(m, n, d_eff, w)[0], (m, n, d, w)
        # A shrink step names its child cell and that cell's true bound.
        via = re.search(r" via \((\d+),(\d+),(\d+),(\d+)\)<=(\d+)\]", rec.provenance)
        if via is not None:
            m_c, n_c, d_c, w_c, inner = map(int, via.groups())
            assert (m_c, n_c, d_c) == (m, n - 1, d_eff), (m, n, d, w)
            assert inner == reference_johnson_homogeneous(m, n_c, d_c, w_c)[0], (m, n, d, w)


@pytest.mark.parametrize("parts", [((9, 4),) * 4] + list(HETEROGENEOUS_PROFILES[3:]))
def test_johnson_general_sweep_order_does_not_matter(parts):
    top = 2 * sum(n for n, _ in parts) + 2
    bounds_mod._JOHNSON_ROOTS.clear()
    descending = [johnson_general_pair(parts, top - 4)]
    descending += [johnson_general_pair(parts, d) for d in range(top, -3, -1)]
    bounds_mod._JOHNSON_ROOTS.clear()
    ascending = [johnson_general_pair(parts, d) for d in range(-2, top + 1)]
    assert descending[1:] == ascending[::-1]
    assert descending[0] == ascending[top - 4 + 2]


def test_johnson_engine_is_exact_past_int64():
    # ((70,35),)'s shrink steps multiply past 2^63, the second profile's values
    # pass it, and so do the keys of the third's 13 blocks (50^13); int64
    # alone would wrap.
    assert 70 * reference_johnson_t(((69, 34),), 4)[0] > 2**63
    for parts in (((70, 35),), ((4, 2), (70, 35)), ((2, 1),) * 12 + ((9, 4),)):
        bounds_mod._JOHNSON_ROOTS.clear()
        for d in (4, 6, 8, 30, 68):
            assert johnson_general_pair(parts, d) == reference_johnson_general(parts, d), (parts, d)
    assert johnson_general(WeightProfile(((4, 2), (70, 35))), 4).value > 2**63


# The johnson_general roots of the table m = 1..4, n = 2..9, w = 3,4 that need
# the engine (total weight at least 2).
GRID_RULES_ROOTS = sorted({
    bounds_mod._normalize_profile(((n, w),) * m)
    for m in range(1, 5) for n in range(2, 10) for w in (3, 4)
    if m * min(w, n - w) >= 2
})


def test_johnson_rows_of_light_and_heavy_roots_in_one_batch():
    # A level works out only the columns up to its heaviest profile; a light
    # root's level and the heavy root's children still give every u right.
    roots = [((9, 4),) * 4, ((3, 1),), ((2, 1), (3, 1)), ((9, 4),)]
    rows = bounds_mod._johnson_rows(roots, 2, 1)
    assert sorted(rows) == sorted(roots)
    for parts, (values, steps) in rows.items():
        assert len(values) == len(steps) == sum(w_i for _, w_i in parts) - 1
        for u, (value, step) in enumerate(zip(values, steps), 2):
            rule, block, _ = bounds_mod._step_tag(parts, step)
            rule += "" if block is None else f" block {block}"
            assert (value, rule) == reference_johnson_t(parts, 2 * u), (parts, u)


def test_johnson_rows_do_not_depend_on_the_batch():
    alone = {}
    for parts in GRID_RULES_ROOTS:
        alone.update(bounds_mod._johnson_rows([parts], 2, 1))
    for parts, (values, steps) in alone.items():
        for u, (value, step) in enumerate(zip(values, steps), 2):
            rule, block, _ = bounds_mod._step_tag(parts, step)
            rule += "" if block is None else f" block {block}"
            assert (value, rule) == reference_johnson_t(parts, 2 * u), (parts, u)
    rng = random.Random(2019)
    roots = list(GRID_RULES_ROOTS)
    for _ in range(3):
        rng.shuffle(roots)
        assert bounds_mod._johnson_rows(roots, 2, 1) == alone
        cuts = sorted(rng.sample(range(1, len(roots)), 4))
        grouped = {}
        for start, stop in zip([0, *cuts], [*cuts, len(roots)]):
            grouped.update(bounds_mod._johnson_rows(roots[start:stop], 2, 1))
        assert grouped == alone


# ---------- power bounds ----------

def test_singleton_like():
    assert singleton_like(3, 4, 10, 2).value == 4
    assert singleton_like(2, 4, 4, 2) is None  # s = 3 > m
    # w = 1 reduces to the classical length/distance power bound
    assert singleton_like(3, 5, 4, 1).value == 5 ** (3 - 2 + 1)
    assert singleton_like(2, 6, 4, 1).value == 6


def test_johnson_closed_form():
    rec = johnson_closed_form(2, 4, 4, 2)
    assert rec.value == 12
    assert "loose-power=64" in rec.provenance
    assert johnson_closed_form(2, 6, 4, 2).value == 45
    # i = 0 case coincides with the plain power bound
    rec0 = johnson_closed_form(3, 4, 10, 2)
    assert rec0.value == singleton_like(3, 4, 10, 2).value == 4


def test_closed_form_is_a_valid_upper_bound():
    # Compare against exactly known small cells (exhaustive search below).
    for m, n, d, w, exact in ((1, 6, 4, 3, 4), (1, 4, 4, 2, 2), (2, 4, 4, 2, 12)):
        rec = johnson_closed_form(m, n, d, w)
        assert rec is not None and rec.value >= exact
        assert exact_search(m, n, d, w).value == exact
    # (1, 6, 4, 3): one shrink step then the power bound collapses to 4 = A(6,4,3)
    assert johnson_closed_form(1, 6, 4, 3).value == 4


def test_johnson_general_never_above_other_upper_rules():
    # evaluate_cell inserts only johnson_general among these rules; this keeps
    # its table values equal to the minimum over all four.
    for m in range(1, 4):
        for n in range(1, 11):
            for w in range(1, n + 1):
                for d in range(2, m * n + 1, 2):
                    general = johnson_general(WeightProfile.homogeneous(m, n, w), d).value
                    for rule in (johnson_homogeneous, singleton_like, johnson_closed_form):
                        rec = rule(m, n, d, w)
                        if rec is not None:
                            assert general <= rec.value, (m, n, d, w, rec.provenance)


# ---------- exactness ----------

def test_tightness_examples():
    assert tightness_exact(2, 3, 2, 1).value == 9
    assert tightness_exact(2, 4, 2, 1).value == 16
    assert tightness_exact(3, 3, 4, 1).value == 9
    assert tightness_exact(2, 4, 4, 2) is None  # s > m
    assert tightness_exact(2, 6, 4, 3) is None  # q = 2 < m*w - 1


def test_exact_search_small_cells():
    assert exact_search(2, 2, 4, 1).value == 2
    assert exact_search(1, 4, 2, 2).value == 6
    assert exact_search(2, 3, 2, 1).value == 9
    rec = exact_search(2, 4, 4, 2)
    assert rec.kind == "exact" and rec.value == 12


def test_tightness_exact_caps_witness_size():
    # 64^3 words would be built and verified pairwise; the rule declines.
    assert tightness_exact(3, 64, 2, 1) is None


def test_tightness_exact_declines_past_field_cap(monkeypatch):
    # q = 4099 is prime, but over the largest field GF(q) builds.
    def no_field(q):
        raise AssertionError(f"built GF({q})")

    monkeypatch.setattr(constructions_mod, "field_for_order", no_field)
    assert tightness_exact(2, 4099, 4, 1) is None


@pytest.mark.parametrize(
    "m,n,d,w", [(2, 4, 4, 2), (1, 8, 4, 4), (2, 4, 6, 2), (3, 3, 4, 1), (1, 7, 4, 3), (2, 5, 6, 2)]
)
def test_exact_search_agrees_with_networkx(m, n, d, w):
    # Oracle: maximum clique of the full compatibility graph, no symmetry fixing.
    rows = [sum(1 << j for j in support) for support in combinations(range(n), w)]
    words = []
    for choice in product(rows, repeat=m):
        word = 0
        for row in choice:
            word = (word << n) | row
        words.append(word)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(words)))
    graph.add_edges_from(
        (i, j) for i, j in combinations(range(len(words)), 2)
        if (words[i] ^ words[j]).bit_count() >= d
    )
    _, size = nx.max_weight_clique(graph, weight=None)
    rec = exact_search(m, n, d, w)
    assert rec.kind == "exact" and rec.value == size


def test_explicit_twelve_word_witness():
    # Independent oracle for M(2,4,4,2) >= 12: pair every weight-2 row word
    # with itself and with its complement.
    from mcwc.codes import BinaryCode

    row_words = [w for w in range(16) if bin(w).count("1") == 2]
    words = []
    for a in row_words:
        words.append((a << 4) | a)
        words.append((a << 4) | (a ^ 0b1111))
    code = BinaryCode.from_words(words, 8, 4, WeightProfile.homogeneous(2, 4, 2))
    report = verify_code(code)
    assert len(code.words) == 12 and report.passed and report.min_distance == 4
    # paired with the recursive upper bound of 12, the cell is pinned exactly
    assert johnson_homogeneous(2, 4, 4, 2).value == 12


def test_exact_search_witness_is_verified_code():
    rec, witness = exact_search(2, 4, 4, 2, with_witness=True)
    assert len(witness.words) == rec.value == 12
    assert verify_code(witness).passed


def test_exact_search_budget_downgrade():
    rec = exact_search(2, 6, 4, 2, node_budget=1)
    assert rec.kind == "lower"
    assert "incomplete" in rec.provenance
    # With a workable budget the search finds a 45-word code; together with
    # the recursive upper bound of 45 the cell value is pinned even though the
    # search itself has not exhausted the tree.
    good = exact_search(2, 6, 4, 2, node_budget=20_000)
    assert good.value == 45
    assert rec.value <= good.value
    assert johnson_homogeneous(2, 6, 4, 2).value == 45


@pytest.mark.parametrize(
    "cell,incumbent", [((2, 6, 4, 3), 69), ((2, 7, 4, 3), 185), ((2, 7, 6, 3), 25)]
)
def test_budget_exhausted_incumbents(cell, incumbent):
    # The vertex order and branch order decide these budget-limited values.
    rec, witness = exact_search(*cell, node_budget=20_000, with_witness=True)
    assert rec.kind == "lower" and rec.value == incumbent
    assert rec.provenance == "clique-search[incomplete, node budget 20000 exhausted]"
    assert len(witness.words) == incumbent and verify_code(witness).passed


def test_search_meets_upper_bound_at_pinned_node_count():
    rec, witness = exact_search(2, 6, 4, 2, node_budget=20_000, upper=45, with_witness=True)
    assert (rec.kind, rec.value) == ("lower", 45)
    assert rec.provenance == "clique-search[met upper bound, nodes=1181]"
    assert len(witness.words) == 45 and verify_code(witness).passed


@pytest.mark.parametrize(
    "cell,upper,value,why",
    [
        ((3, 4, 6, 2), math.inf, 12, "complete, nodes=17011"),
        ((3, 6, 10, 2), math.inf, 4, "complete, nodes=28621"),
        ((3, 6, 4, 1), 36, 36, "met upper bound, nodes=81573"),
    ],
)
def test_acceptance_grid_searches_at_pinned_node_counts(cell, upper, value, why):
    # The acceptance grid's three largest completed searches, at its budget and
    # with the upper bound the table hands them: the node counts pin the visit order.
    rec = exact_search(*cell, node_budget=200_000, upper=upper)
    assert (rec.value, rec.provenance) == (value, f"clique-search[{why}]")


def test_exact_search_stops_at_upper_bound():
    full = exact_search(2, 6, 4, 2, node_budget=20_000)
    met = exact_search(2, 6, 4, 2, node_budget=20_000, upper=45)
    assert met.kind == "lower" and met.value == 45
    assert met.provenance.startswith("clique-search[met upper bound, nodes=")
    assert "incomplete" in full.provenance
    # (2,7,4,2): the greedy seed alone meets the bound.
    seed_only = exact_search(2, 7, 4, 2, node_budget=20_000, upper=63)
    assert seed_only.value == 63
    assert seed_only.provenance == "clique-search[met upper bound, nodes=0]"


def pairwise_adjacency(words, d):
    adj = [0] * len(words)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and (u ^ v).bit_count() >= d:
                adj[i] |= 1 << j
    return adj


def adjacency(words, bits, d):
    """_adjacency of the packed rows of int words, which come in sorted order."""
    return bounds_mod._adjacency(BinaryCode.from_words(words, bits).words, d)


@pytest.mark.parametrize("bits", [1, 12, 64, 65, 70, 130])
def test_adjacency_matches_pairwise_oracle(bits):
    rng = random.Random(bits)
    for size in (0, 1, 2, 63, 64, 65, 150):
        words = sorted({rng.getrandbits(bits) for _ in range(size)})
        for d in (1, 2, bits // 2, bits):
            assert adjacency(words, bits, d) == pairwise_adjacency(words, d)


def test_adjacency_spans_tiles(monkeypatch):
    rng = random.Random(5)
    words = sorted({rng.getrandbits(24) for _ in range(700)})
    assert len(words) > 10 * (codes_mod.TILE_BYTES // (8 * len(words)))
    assert adjacency(words, 24, 12) == pairwise_adjacency(words, 12)
    # One row per tile, across limbs.
    monkeypatch.setattr(codes_mod, "TILE_BYTES", 64)
    words = sorted({rng.getrandbits(130) for _ in range(80)})
    assert adjacency(words, 130, 65) == pairwise_adjacency(words, 65)


def test_evaluate_cell_skips_search_on_pinned_cell(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("exact_search ran on a pinned cell")

    monkeypatch.setattr(bounds_mod, "exact_search", no_search)
    table = BoundTable()
    for cell in ((3, 3, 4, 1), (1, 4, 2, 2), (2, 3, 2, 1)):
        assert evaluate_cell(table, *cell) is False
        assert table.exact_value(cell) is not None


def evaluate_and_search(table, *cell, **limits):
    """evaluate_cell, then the cell's search when it leaves the cell open, as `bound` runs them."""
    search_cells(table, [cell] if evaluate_cell(table, *cell) else [], **limits)


def test_evaluate_cell_search_meets_upper_bound():
    table = BoundTable()
    cell = (2, 6, 4, 2)
    evaluate_and_search(table, *cell, node_budget=20_000)
    assert table.exact_value(cell) == 45
    _, lo_prov = table.best_lower(cell)
    assert lo_prov.startswith("clique-search[met upper bound")


def test_table_build_keeps_recursion_limit():
    limit = sys.getrecursionlimit()
    assert comb(7, 3) ** 2 >= 1000
    table = table_build([2], [7], [3], [6], node_budget=2000)
    assert table.cells() == [(2, 7, 6, 3)]
    assert sys.getrecursionlimit() == limit


def test_deep_johnson_cell_answers_and_wide_one_exits_2(capsys):
    from mcwc.cli import main

    limit = sys.getrecursionlimit()
    bounds_mod._JOHNSON_ROOTS.clear()
    # The engine works a level at a time, so depth costs no stack: A(1000,4,2) = 500.
    assert main(["bound", "--m", "1", "--n", "1000", "--d", "4", "--w", "2", "--vertex-cap", "0"]) == 0
    assert "upper=500 " in capsys.readouterr().out
    # (2,500,2) lists more profiles than the cap allows.
    status = main(["bound", "--m", "2", "--n", "500", "--d", "4", "--w", "2", "--vertex-cap", "0"])
    err = capsys.readouterr().err
    assert status == 2 and "Traceback" not in err and len(err.splitlines()) == 1
    assert "SearchSpaceError: the Johnson bound lists over " in err
    assert f"past the cap of {bounds_mod.JOHNSON_PROFILE_CAP}" in err
    assert sys.getrecursionlimit() == limit
    # The refused batch stored no rows.
    assert (1, ((500, 2), (500, 2))) not in bounds_mod._JOHNSON_ROOTS
    for parts in (((6, 2), (7, 2)), ((7, 2), (7, 2)), ((9, 2),)):
        for d in (4, 6, 8):
            assert johnson_general_pair(parts, d) == reference_johnson_general(parts, d)
    assert johnson_homogeneous(2, 9, 4, 2).value == reference_johnson_homogeneous(2, 9, 4, 2)[0]
    assert johnson_homogeneous(1, 2000, 4, 2).value == 1000


def test_profile_cap_covers_a_tables_batch(monkeypatch):
    # The grid_rules roots list 14,806 profiles in one batch and at most 11,936 alone.
    monkeypatch.setattr(bounds_mod, "JOHNSON_PROFILE_CAP", 12_000)
    bounds_mod._JOHNSON_ROOTS.clear()
    with pytest.raises(SearchSpaceError, match="past the cap of 12000"):
        table_build(range(1, 5), range(2, 10), [3, 4], vertex_cap=0)
    for parts in GRID_RULES_ROOTS:
        bounds_mod._johnson_rows([parts], 2, 1)


def test_exact_search_vertex_cap():
    with pytest.raises(SearchSpaceError):
        exact_search(3, 8, 4, 3, vertex_cap=1000)


def test_exact_search_rederives_reference_baseline():
    refs = default_references()
    for n, d, w in ((4, 2, 2), (4, 4, 2), (6, 4, 2), (6, 4, 3), (8, 4, 4)):
        row = refs.cwc(n, d, w)
        rec = exact_search(1, n, d, w)
        assert rec.kind == "exact"
        assert rec.value == row.lower == row.upper


# ---------- transfer bounds ----------

def test_eb_transfer_examples():
    assert eb_transfer(1, 6, 4, 3, 4).value == 4  # m = 1: identity
    assert eb_transfer(2, 2, 2, 1, 6).value == 4
    assert eb_transfer(2, 4, 4, 2, 14).value == 8


def test_eb_transfer_below_upper():
    rec = eb_transfer(2, 4, 4, 2, 14)
    assert rec.value <= johnson_homogeneous(2, 4, 4, 2).value


def test_trivial_upper():
    table = BoundTable()
    rec = trivial_upper(2, 2, 4, 1, table)
    assert rec.value == 2  # via the ingested A(4,4,2) = 2
    rec = trivial_upper(1, 8, 4, 4, table)
    assert rec.value == 14
    rec = trivial_upper(3, 8, 6, 3, table)
    assert rec.value == math.inf  # nothing ingested for A(24,6,9)


def test_trivial_upper_computed_embedding_decides_cell():
    # (2,4,6,2) embeds in the (1,8,6,4) cell, whose search completes at 2.
    cell = (2, 4, 6, 2)
    table = BoundTable()
    evaluate_and_search(table, 1, 8, 6, 4)
    assert evaluate_cell(table, *cell) is False
    assert table.exact_value(cell) == 2
    assert table.best_upper(cell)[1] == (
        "constant-weight embedding[computed clique-search[complete, nodes=1]]"
    )
    assert not any(r.provenance.startswith("clique-search") for r in table.records[cell])

    alone = BoundTable()
    evaluate_and_search(alone, *cell)
    assert alone.exact_value(cell) == 2
    assert alone.best_upper(cell)[1] == "clique-search[complete, nodes=1]"


# Every record evaluate_cell inserts, in order, for one cell per rule that can
# decide a cell; the cells come from the grid_rules grid (--vertex-cap 0), and
# (2,4,6,2) is left open, so search_cells then adds its search record.
PINNED_RECORDS = {
    # all profile words
    (1, 3, 2, 3): [
        ('upper', 1, 'johnson-general[single-word cell]'),
        ('lower', 1, 'all profile words'),
    ],
    # power-exact
    (1, 6, 6, 3): [
        ('upper', 2, 'johnson-general[average-intersection closed form]'),
        ('exact', 2, 'power-exact[q=2, s=1; witness rs-expand(q=2, len=3, d=3, w=3)]'),
        ('lower', 1, 'single word'),
        ('lower', 2, 'pseudo-product(cwc(6,6,3)^2^1 x sys(1,1)^2^1)'),
        ('lower', 2, 'concatenation(outer=(1,1)_2, inner=cwc(6,6,3))'),
    ],
    # RS lower, s > m
    (1, 6, 4, 3): [
        ('upper', 4, 'johnson-general[average-intersection closed form]'),
        ('upper', 4, 'constant-weight embedding[A(6,4,3)<=4, exhaustive-search]'),
        ('lower', 1, 'single word'),
        ('lower', 4, 'rs-expand(q=2, len=3, d=2, w=3)'),
        ('lower', 2, 'pseudo-product(cwc(6,6,3)^2^1 x sys(1,1)^2^1)'),
        ('lower', 4, 'pseudo-product(cwc(6,4,3)^2^2 x sys(1,1)^2^1)'),
        ('lower', 2, 'pseudo-product(cwc(6,4,3)^2^1 x sys(1,1)^2^1)'),
        ('lower', 2, 'concatenation(outer=(1,1)_2, inner=cwc(6,6,3))'),
        ('lower', 4, 'concatenation(outer=(1,1)_4, inner=cwc(6,4,3))'),
        ('lower', 2, 'concatenation(outer=(1,1)_2, inner=cwc(6,4,3))'),
        ('lower', 4, 'cwc-reference[A(6,4,3)>=4, exhaustive-search]'),
    ],
    # design
    (3, 9, 4, 3): [
        ('upper', 84672, 'johnson-general[shrink-weight block 0]'),
        ('lower', 1, 'single word'),
        ('lower', 4, 'design(2-(9,3,1) resolvable, 4 classes)'),
    ],
    # pseudo-product
    (1, 8, 6, 4): [
        ('upper', 3, 'johnson-general[average-intersection closed form]'),
        ('lower', 1, 'single word'),
        ('lower', 2, 'pseudo-product(cwc(8,8,4)^2^1 x sys(1,1)^2^1)'),
        ('lower', 2, 'concatenation(outer=(1,1)_2, inner=cwc(8,8,4))'),
    ],
    # concatenation
    (4, 6, 10, 3): [
        ('upper', 200, 'johnson-general[shrink-weight block 0]'),
        ('lower', 1, 'single word'),
        ('lower', 2, 'pseudo-product(cwc(6,6,3)^2^1 x sys(4,4)^2^1)'),
        ('lower', 8, 'pseudo-product(cwc(6,6,3)^2^1 x sys(4,2)^2^3)'),
        ('lower', 4, 'pseudo-product(cwc(6,4,3)^2^2 x sys(4,4)^2^1)'),
        ('lower', 2, 'pseudo-product(cwc(6,4,3)^2^1 x sys(4,4)^2^1)'),
        ('lower', 16, 'concatenation(outer=(4,3)_4, inner=cwc(6,4,3))'),
        ('lower', 4, 'concatenation(outer=(4,4)_4, inner=cwc(6,4,3))'),
    ],
    # cwc-reference
    (1, 8, 4, 4): [
        ('upper', 14, 'johnson-general[shrink-weight block 0]'),
        ('upper', 14, 'constant-weight embedding[A(8,4,4)<=14, exhaustive-search]'),
        ('lower', 1, 'single word'),
        ('lower', 2, 'pseudo-product(cwc(8,8,4)^2^1 x sys(1,1)^2^1)'),
        ('lower', 8, 'pseudo-product(cwc(8,4,4)^2^3 x sys(1,1)^2^1)'),
        ('lower', 4, 'pseudo-product(cwc(8,4,4)^2^2 x sys(1,1)^2^1)'),
        ('lower', 2, 'concatenation(outer=(1,1)_2, inner=cwc(8,8,4))'),
        ('lower', 8, 'concatenation(outer=(1,1)_8, inner=cwc(8,4,4))'),
        ('lower', 4, 'concatenation(outer=(1,1)_4, inner=cwc(8,4,4))'),
        ('lower', 14, 'cwc-reference[A(8,4,4)>=14, exhaustive-search]'),
    ],
    # size-transfer
    (2, 6, 4, 3): [
        ('upper', 80, 'johnson-general[shrink-weight block 0]'),
        ('lower', 1, 'single word'),
        ('lower', 8, 'pseudo-product(cwc(6,2,3)^2^3 x sys(2,2)^2^1)'),
        ('lower', 4, 'pseudo-product(cwc(6,6,3)^2^1 x sys(2,1)^2^2)'),
        ('lower', 2, 'pseudo-product(cwc(6,6,3)^2^1 x sys(2,2)^2^1)'),
        ('lower', 16, 'pseudo-product(cwc(6,4,3)^2^2 x sys(2,1)^2^2)'),
        ('lower', 4, 'pseudo-product(cwc(6,4,3)^2^2 x sys(2,2)^2^1)'),
        ('lower', 4, 'pseudo-product(cwc(6,4,3)^2^1 x sys(2,1)^2^2)'),
        ('lower', 2, 'pseudo-product(cwc(6,4,3)^2^1 x sys(2,2)^2^1)'),
        ('lower', 8, 'concatenation(outer=(2,2)_8, inner=cwc(6,2,3))'),
        ('lower', 4, 'concatenation(outer=(2,1)_2, inner=cwc(6,6,3))'),
        ('lower', 2, 'concatenation(outer=(2,2)_2, inner=cwc(6,6,3))'),
        ('lower', 16, 'concatenation(outer=(2,1)_4, inner=cwc(6,4,3))'),
        ('lower', 4, 'concatenation(outer=(2,2)_4, inner=cwc(6,4,3))'),
        ('lower', 4, 'concatenation(outer=(2,1)_2, inner=cwc(6,4,3))'),
        ('lower', 2, 'concatenation(outer=(2,2)_2, inner=cwc(6,4,3))'),
        ('lower', 53, 'size-transfer[A(12,4,6)>=121, published-table]'),
    ],
    # single word
    (1, 4, 4, 3): [
        ('upper', 1, 'johnson-general[distance exceeds diameter]'),
        ('lower', 1, 'single word'),
    ],
    # search
    (2, 4, 6, 2): [
        ('upper', 3, 'johnson-general[average-intersection closed form]'),
        ('lower', 1, 'single word'),
        ('lower', 2, 'pseudo-product(cwc(4,4,2)^2^1 x sys(2,2)^2^1)'),
        ('lower', 2, 'concatenation(outer=(2,2)_2, inner=cwc(4,4,2))'),
        ('exact', 2, 'clique-search[complete, nodes=1]'),
    ],
}


@pytest.mark.parametrize("cell", list(PINNED_RECORDS))
def test_evaluate_cell_records_pinned(cell):
    table = BoundTable()
    if cell == (2, 4, 6, 2):
        evaluate_and_search(table, *cell)
    else:
        assert evaluate_cell(table, *cell, vertex_cap=0) is False
    got = [(r.kind, r.value, r.provenance) for r in table.records[cell]]
    assert got == PINNED_RECORDS[cell]


def clear_construction_caches():
    """Empty every cache of the table's construction layer, as in a fresh process."""
    for cache in (bounds_mod._construction_candidates, bounds_mod._cwc_pool,
                  bounds_mod._binary_pool, bounds_mod._rs_outer,
                  constructions_mod._systematic_encoder):
        cache.cache_clear()


def test_each_witness_built_once(monkeypatch):
    pools, witnesses = [], []

    def counted_pool(n, w):
        pools.append((n, w))
        return pool(n, w)

    def counted_rs(m, n, d, w):
        witnesses.append((m, n, d, w))
        return rs(m, n, d, w)

    pool, rs = bounds_mod.systematic_cwc_pool, bounds_mod.rs_mcwc
    monkeypatch.setattr(bounds_mod, "systematic_cwc_pool", counted_pool)
    monkeypatch.setattr(bounds_mod, "rs_mcwc", counted_rs)
    clear_construction_caches()
    ms, ns, ws = (1, 2, 3), range(2, 10), (1, 2, 3)
    table = table_build(ms, ns, ws, vertex_cap=0)

    # One ingredient pool per (n, w) whose cells reach the construction rules
    # (every cell past d = 2), however many m share it.
    shapes = {(m, n, w) for m, n, d, w in table.cells() if d > 2}
    assert sorted(pools) == sorted({(n, w) for _, n, w in shapes})
    # rs_mcwc runs only for the records it yields, at most once per cell.
    built = sorted(
        rec.cell for cell in table.cells() for rec in table.records[cell]
        if rec.provenance.startswith(("rs-expand", "power-exact"))
    )
    assert len(built) >= 10
    assert sorted(witnesses) == built and len(set(built)) == len(built)


GRID_RULES = ((1, 2, 3, 4), range(2, 10), (3, 4))


def test_systematic_set_searched_once_per_ingredient(monkeypatch):
    searched = []  # the codes themselves, so that no id is reused
    real = constructions_mod.find_systematic_set
    monkeypatch.setattr(constructions_mod, "find_systematic_set",
                        lambda code: searched.append(code) or real(code))
    clear_construction_caches()
    table_build(*GRID_RULES, vertex_cap=0)
    assert len(searched) >= 20
    assert len({id(code) for code in searched}) == len(searched)


def test_no_construction_of_distance_two_or_less_is_built(monkeypatch):
    guarantees = []

    def counted(build):
        def run(*args):
            result = build(*args)
            guarantees.append(result.guaranteed_distance)
            return result
        return run

    monkeypatch.setattr(bounds_mod, "pseudo_product", counted(bounds_mod.pseudo_product))
    monkeypatch.setattr(bounds_mod, "concatenate", counted(bounds_mod.concatenate))
    clear_construction_caches()
    table_build(*GRID_RULES, vertex_cap=0)
    assert len(guarantees) >= 100 and min(guarantees) > 2


def test_construction_caches_do_not_leak_between_tables():
    later = ((2, 3), range(4, 9), (2, 3))
    clear_construction_caches()
    table_build(*GRID_RULES, vertex_cap=0)
    after_other = table_build(*later, vertex_cap=0)
    clear_construction_caches()
    fresh = table_build(*later, vertex_cap=0)
    assert after_other.records == fresh.records
    assert after_other.cells() == fresh.cells() and len(fresh.cells()) > 50


def test_evaluate_cell_distance_two_needs_no_witness(monkeypatch):
    def no_witness(*args, **kwargs):
        raise AssertionError("a d <= 2 cell built a Reed-Solomon witness")

    monkeypatch.setattr(bounds_mod, "rs_mcwc", no_witness)
    table = BoundTable()
    for cell, count in (((3, 32, 2, 1), 32**3), ((2, 3, 1, 1), 9), ((1, 4, 2, 4), 1)):
        evaluate_cell(table, *cell, vertex_cap=0)
        assert table.exact_value(cell) == count
        assert table.best_lower(cell)[1] == "all profile words"


# ---------- references ----------

def test_reference_csv_round_trip():
    header = "kind,q,n,d,w,lower,upper,source\n"
    refs = ReferenceStore.from_csv(header + "A,2,5,4,2,2,,unit-test\n")
    assert refs.cwc(5, 4, 2).lower == 2 and refs.cwc(5, 4, 2).upper is None
    with pytest.raises(ValueError):
        ReferenceStore.from_csv("bad,header\n")
    # Only binary constant-weight rows are read; any other row is refused.
    for row in ("Aq,4,3,2,,16,16,unit-test", "B,2,5,2,,16,,unit-test", "A,3,5,4,2,2,2,unit-test"):
        with pytest.raises(ReferenceFormatError, match="is not of kind A with q=2"):
            ReferenceStore.from_csv(header + row + "\n")


def test_reference_merge_conflict():
    from mcwc.bounds import ReferenceValue

    store = ReferenceStore([ReferenceValue(5, 4, 2, None, 2, "a")])
    with pytest.raises(ReferenceFormatError):
        store.add(ReferenceValue(5, 4, 2, 3, None, "b"))


# ---------- the table ----------

def test_table_consistency_tripwire():
    table = BoundTable()
    profile = WeightProfile.homogeneous(2, 4, 2)
    table.insert(BoundRecord(profile, 4, "lower", 5, "unit"))
    with pytest.raises(ConsistencyError):
        table.insert(BoundRecord(profile, 4, "upper", 3, "unit"))


def scanned_best(records, kind, better, start):
    """The best (value, provenance) of the records, by the scan BoundTable once made per read."""
    best, prov = start, "none"
    for rec in records:
        if rec.kind in (kind, "exact") and better(rec.value, best):
            best, prov = rec.value, rec.provenance
    return best, prov


def test_table_keeps_best_bounds_on_insert():
    rng = random.Random(20)
    profile = WeightProfile.homogeneous(2, 4, 2)
    cell = (2, 4, 4, 2)
    raised = 0
    for trial in range(400):
        table, records = BoundTable(), []
        for i in range(rng.randint(1, 12)):
            kind = rng.choice(("lower", "upper", "exact"))
            value = math.inf if kind == "upper" and rng.random() < 0.2 else rng.randint(0, 5)
            rec = BoundRecord(profile, 4, kind, value, f"rule {trial}.{i}")
            records.append(rec)
            lo, lo_prov = scanned_best(records, "lower", lambda a, b: a > b, 0)
            hi, hi_prov = scanned_best(records, "upper", lambda a, b: a < b, math.inf)
            if lo > hi:
                text = f"cell {cell}: lower {lo} ({lo_prov}) exceeds upper {hi} ({hi_prov})"
                with pytest.raises(ConsistencyError, match=f"^{re.escape(text)}$"):
                    table.insert(rec)
                raised += 1
            else:
                table.insert(rec)
            assert table.records[cell] == records
            assert table.best_lower(cell) == (lo, lo_prov)
            assert table.best_upper(cell) == (hi, hi_prov)
            assert table.exact_value(cell) == (int(lo) if lo == hi != math.inf else None)
    assert raised > 100


def test_evaluate_cell_headline():
    table = BoundTable()
    cell = (2, 4, 4, 2)
    evaluate_and_search(table, *cell)
    assert table.exact_value(cell) == 12
    lo, lo_prov = table.best_lower(cell)
    assert lo == 12 and "clique-search" in lo_prov


def test_evaluate_cell_power_exact():
    table = BoundTable()
    evaluate_cell(table, 2, 3, 2, 1)
    assert table.exact_value((2, 3, 2, 1)) == 9


def test_evaluate_cell_pseudo_product_lower():
    table = BoundTable()
    evaluate_cell(table, 6, 4, 8, 2, vertex_cap=0)
    lo, prov = table.best_lower((6, 4, 8, 2))
    assert lo >= 16
    assert "pseudo-product" in prov


def test_small_table_invariants():
    table = table_build(range(1, 3), range(2, 6), range(1, 3))
    cells = table.cells()
    assert cells
    exacts = {}
    for cell in cells:
        lo, _ = table.best_lower(cell)
        hi, _ = table.best_upper(cell)
        assert lo <= hi
        value = table.exact_value(cell)
        if value is not None:
            exacts[cell] = value

    # monotone in d on exact cells
    for (m, n, d, w), value in exacts.items():
        nxt = exacts.get((m, n, d + 2, w))
        if nxt is not None:
            assert nxt <= value

    # one-step recursions, fed exact right-hand sides, dominate exact values
    for (m, n, d, w), value in exacts.items():
        inner = exacts.get((m, n - 1, d, w - 1))
        if inner is not None and w >= 1:
            assert value <= (n**m * inner) // (w**m)
        inner = exacts.get((m, n - 1, d, w))
        if inner is not None and n - w >= 1:
            assert value <= (n**m * inner) // ((n - w) ** m)


def _csv(table):
    buf = io.StringIO()
    table.write_csv(buf)
    return buf.getvalue()


def test_table_ignores_value_order_and_repeats():
    # (2,4,6,2) reads the m = 1 cell (1,8,6,4) it embeds in, when that is known.
    ascending = table_build([1, 2], [4, 8], [2, 4], [6])
    assert _csv(table_build([2, 1], [8, 4], [4, 2], [6])) == _csv(ascending)
    assert "constant-weight embedding[computed" in ascending.best_upper((2, 4, 6, 2))[1]
    single = table_build([1], [5], [2], [4])
    assert table_build([1, 1], [5, 5], [2, 2], [4, 4]).records == single.records
    assert len(single.records[(1, 5, 4, 2)]) == 3


def test_table_csv_export():
    table = table_build([2], [4], [2], [4])
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "m,n,d,w,lower,upper,exact_flag,lower_provenance,upper_provenance"
    assert lines[1].startswith("2,4,4,2,12,12,1,")


# ---------- table searches on worker processes ----------

def no_pool(*args):
    raise AssertionError("a search pool started")


def test_table_rows_same_on_one_worker_and_three(monkeypatch):
    def build(*ranges, cpus=3, **limits):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        return _csv(table_build(*ranges, **limits))

    three = build([1, 2], [6, 7], [3], [4, 6], node_budget=20_000)
    assert not multiprocessing.active_children()
    assert workers.fork_pool(1) is None  # one CPU: every search inline
    assert build([1, 2], [6, 7], [3], [4, 6], node_budget=20_000, cpus=1) == three
    rows = [line.split(",")[:6] for line in three.splitlines()]
    for pinned in ("2,6,4,3,69,80", "2,7,4,3,185,245", "2,7,6,3,25,42"):
        assert pinned.split(",") in rows
    # (2,4,6,2) reads the m = 1 cell (1,8,6,4), which a search decides.
    three = build([1, 2], [4, 8], [2, 4], [6])
    assert build([1, 2], [4, 8], [2, 4], [6], cpus=1) == three
    assert '2,4,6,2,2,2,1,"pseudo-product(cwc(4,4,2)^2^1 x sys(2,2)^2^1)",' \
        '"constant-weight embedding[computed clique-search[complete, nodes=1]]"' in three.splitlines()


def test_table_searches_run_an_unpicklable_exact_search_in_workers(monkeypatch):
    parent, real = os.getpid(), bounds_mod.exact_search

    def search(*args, **kwargs):  # a local closure, which pickle refuses
        rec = real(*args, **kwargs)
        where = "parent" if os.getpid() == parent else "worker"
        return dataclasses.replace(rec, provenance=f"{rec.provenance} in {where}")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bounds_mod, "exact_search", search)
    table = table_build([2], [6], [3], [4, 6], node_budget=2_000)
    provenances = [rec.provenance for cell in table.cells() for rec in table.records[cell]]
    searched = [prov for prov in provenances if prov.startswith("clique-search")]
    assert len(searched) == 2 and all(prov.endswith(" in worker") for prov in searched)
    assert not multiprocessing.active_children()


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs longer than `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_table_search_error_in_worker_reaches_caller(monkeypatch):
    real = bounds_mod.exact_search

    def failing(*args, **kwargs):
        raise SearchSpaceError(f"refused {args}")

    def dying_in_second(*args, **kwargs):  # of the searches at (2,6,4,3), (2,6,6,3), (2,7,4,3), (2,7,6,3)
        if args == (2, 6, 6, 3):
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(bounds_mod, "exact_search", failing)
    with deadline(60), pytest.raises(SearchSpaceError, match=re.escape("refused (2, 6, 4, 3)")):
        table_build([2], [6], [3], [4, 6], node_budget=2_000)
    assert not multiprocessing.active_children()
    monkeypatch.setattr(bounds_mod, "exact_search", dying_in_second)
    with deadline(60), pytest.raises(BrokenProcessPool):
        table_build([2], [6, 7], [3], [4, 6], node_budget=2_000)
    assert not multiprocessing.active_children()


def test_table_rule_error_comes_before_search_errors(monkeypatch):
    real = bounds_mod.tightness_exact

    def failing_search(*args, **kwargs):
        raise SearchSpaceError(f"refused {args}")

    def failing_rule(*cell):  # at (2,6,6,3), after (2,6,4,3) has handed out its search
        if cell == (2, 6, 6, 3):
            raise RuntimeError(f"rule failed at {cell}")
        return real(*cell)

    monkeypatch.setattr(bounds_mod, "exact_search", failing_search)
    monkeypatch.setattr(bounds_mod, "tightness_exact", failing_rule)
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        with deadline(60), pytest.raises(RuntimeError, match=re.escape("rule failed at (2, 6, 6, 3)")):
            table_build([2], [6], [3], [4, 6], node_budget=2_000)
        assert not multiprocessing.active_children()


def test_table_without_searches_starts_no_pool(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "fork_pool", no_pool)
    table = table_build([1, 2], [6, 7], [3], [4, 6], vertex_cap=0)
    assert len(table.cells()) == 8


def test_bound_searches_without_a_pool(monkeypatch, capsys):
    from mcwc.cli import main

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "fork_pool", no_pool)
    assert main(["bound", "--m", "2", "--n", "4", "--d", "6", "--w", "2"]) == 0
    assert "upper_provenance=clique-search[complete, nodes=1]" in capsys.readouterr().out
    assert not multiprocessing.active_children()
