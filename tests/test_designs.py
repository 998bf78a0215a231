"""Design generation, invariant verification, conversion and file round trips."""

import io
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import mcwc.codes as codes_mod
import mcwc.designs as designs_mod
from mcwc.codes import WeightProfile, verify_code
from mcwc.designs import (
    MAX_COVERAGE_ENTRIES,
    DesignError,
    ResolvableDesign,
    affine_plane,
    design_read,
    design_to_mcwc,
    design_write,
    one_factorization,
    verify_design,
)


def pair_coverage_counts(design):
    cover = {}
    for cls in design.classes.tolist():
        for block in cls:
            for pair in combinations(sorted(block), 2):
                cover[pair] = cover.get(pair, 0) + 1
    return cover


@pytest.mark.parametrize("q", [2, 3, 4])
def test_affine_plane(q):
    design = affine_plane(q)
    assert design.v == q * q and design.k == q and design.t == 2
    assert len(design.classes) == q + 1 == design.expected_class_count()
    cover = pair_coverage_counts(design)
    assert len(cover) == comb(q * q, 2)
    assert set(cover.values()) == {1}


def test_affine_plane_q2_classes():
    design = affine_plane(2)
    assert design.classes.tolist() == [
        [[0, 1], [2, 3]],
        [[0, 2], [1, 3]],
        [[0, 3], [1, 2]],
    ]
    assert design.classes.dtype == np.int64 and not design.classes.flags.writeable


def test_affine_plane_bad_order():
    with pytest.raises(Exception):
        affine_plane(6)


@pytest.mark.parametrize("v", [2, 4, 6, 8])
def test_one_factorization(v):
    design = one_factorization(v)
    assert len(design.classes) == v - 1 == design.expected_class_count()
    cover = pair_coverage_counts(design)
    assert len(cover) == comb(v, 2)
    assert set(cover.values()) == {1}


def test_one_factorization_odd():
    with pytest.raises(DesignError):
        one_factorization(5)


def fields(design):
    return design.v, design.k, design.t, design.classes.tolist()


def test_one_factorization_matches_affine2():
    assert fields(one_factorization(4)) == fields(affine_plane(2))


def test_block_intersections():
    design = affine_plane(3)
    blocks = design.classes.reshape(-1, design.k).tolist()
    for b1, b2 in combinations(blocks, 2):
        assert len(set(b1) & set(b2)) <= design.t - 1


def test_design_to_mcwc_affine2():
    result = design_to_mcwc(affine_plane(2))
    assert set(result.code.word_strings()) == {"11000011", "10100101", "10010110"}
    assert result.guaranteed_distance == 4
    assert result.code.profile == WeightProfile.homogeneous(2, 4, 2)
    report = verify_code(result.code)
    assert report.passed and report.min_distance == 4


def test_design_to_mcwc_one_factor_6():
    result = design_to_mcwc(one_factorization(6))
    assert result.size == 5
    assert result.code.profile == WeightProfile.homogeneous(3, 6, 2)
    assert result.guaranteed_distance == 6
    assert result.report.min_distance >= 6


def test_design_to_mcwc_affine3():
    result = design_to_mcwc(affine_plane(3))
    assert result.size == 4
    assert result.code.profile == WeightProfile.homogeneous(3, 9, 3)
    assert result.guaranteed_distance == 12
    assert result.report.min_distance >= 12


def test_verify_design_catches_corruption():
    design = affine_plane(2)
    # swap one point between two blocks of one class: no longer a partition
    broken = ResolvableDesign(
        design.v,
        design.k,
        design.t,
        [[[0, 1], [1, 3]]] + design.classes[1:].tolist(),
    )
    with pytest.raises(DesignError):
        verify_design(broken)
    # duplicate a class: pairs covered twice
    doubled = ResolvableDesign(
        design.v, design.k, design.t, np.concatenate([design.classes, design.classes[:1]])
    )
    with pytest.raises(DesignError):
        verify_design(doubled)


@pytest.mark.parametrize("require_complete", [True, False])
def test_verify_design_refuses_blocks_sharing_t_points(require_complete):
    # Blocks 012 and 013 share the pair 01, so it is covered twice.
    shared = ResolvableDesign(6, 3, 2, (((0, 1, 2), (3, 4, 5)), ((0, 1, 3), (2, 4, 5))))
    with pytest.raises(DesignError, match=r"2-subset \(0, 1\) covered 2 times"):
        verify_design(shared, require_complete=require_complete)
    # The same when a block lists its points out of order.
    unsorted = ResolvableDesign(4, 2, 2, (((0, 1), (2, 3)), ((1, 0), (3, 2))))
    with pytest.raises(DesignError, match=r"2-subset \(0, 1\) covered 2 times"):
        verify_design(unsorted, require_complete=require_complete)


def tuple_canonical(classes):
    """Points sorted in blocks, blocks in classes, classes in order: sorting nested tuples."""
    ordered = sorted(tuple(sorted(tuple(sorted(block)) for block in cls)) for cls in classes)
    return [[list(block) for block in cls] for cls in ordered]


@pytest.mark.parametrize("seed", range(4))
def test_classes_take_canonical_order(seed):
    rng = np.random.default_rng(seed)
    for design in (affine_plane(3), one_factorization(8), ResolvableDesign(8, 4, 3, sqs8_classes())):
        classes = design.classes.tolist()
        for cls in classes:  # shuffle points, blocks and classes
            for block in cls:
                rng.shuffle(block)
            rng.shuffle(cls)
        rng.shuffle(classes)
        shuffled = ResolvableDesign(design.v, design.k, design.t, classes)
        assert shuffled.classes.tolist() == design.classes.tolist()
    # Blocks that share points and points out of range sort as tuples do too.
    classes = rng.integers(-3, 4, size=(12, 3, 2)).tolist()
    assert ResolvableDesign(6, 2, 1, classes).classes.tolist() == tuple_canonical(classes)


@pytest.mark.parametrize(
    "classes",
    [
        [[[0, 1], [2]]],  # ragged
        [[[0, 1]], [[0, 2], [1, 3]]],  # a class with a missing block
        [[[0, 1, 2], [3, 4, 5]]],  # blocks of three points
        [[[0.0, 1.0], [2.0, 3.0]]],  # not integers
        [[[0, 10**25], [2, 3]]],  # past int64
        [[[0, 2**64 - 1], [2, 3]]],
    ],
)
def test_design_refuses_classes_of_another_shape_or_type(classes):
    with pytest.raises(DesignError, match="not arrays of 2 blocks of 2 integer points"):
        ResolvableDesign(4, 2, 2, classes)


def test_design_refuses_inconsistent_parameters():
    for v, k, t in ((5, 2, 2), (4, 2, 0), (4, 2, 3), (2, 4, 1)):
        with pytest.raises(DesignError, match="inconsistent parameters"):
            ResolvableDesign(v, k, t, ())


def test_design_file_round_trip():
    design = one_factorization(6)
    buf = io.StringIO()
    design_write(buf, design)
    assert fields(design_read(io.StringIO(buf.getvalue()))) == fields(design)


def test_design_read_errors():
    with pytest.raises(DesignError):
        design_read(io.StringIO("0,1|2,3\n"))
    with pytest.raises(DesignError):
        design_read(io.StringIO("# design v=4 k=2 t=two\n0,1|2,3\n"))
    with pytest.raises(DesignError):
        design_read(io.StringIO("# design v=4 k=2 t=2\n0,x|2,3\n"))
    # Blocks of unequal size, or a point past int64, make a bad line; another
    # block count or size than the other lines, or than v and k ask for, a bad design.
    for line, error in [
        ("0,1,2|3", "bad class line"),
        ("0,1|2," + "9" * 25, "bad class line"),
        ("0,1", "not arrays of 2 blocks of 2 integer points"),
        ("0,1|2,3|4,5", "not arrays of 2 blocks of 2 integer points"),
        ("0|1|2|3", "not arrays of 2 blocks of 2 integer points"),
    ]:
        with pytest.raises(DesignError, match=error):
            design_read(io.StringIO(f"# design v=4 k=2 t=2\n0,1|2,3\n{line}\n"))
        with pytest.raises(DesignError, match=error):
            design_read(io.StringIO(f"# design v=4 k=2 t=2\n{line}\n"))
    # Spaces and signs around points are read as before.
    design = design_read(io.StringIO("# design v=4 k=2 t=2\n 3 ,+2| 1,0\n"))
    assert design.classes.tolist() == [[[0, 1], [2, 3]]]


def test_external_design_with_fewer_classes():
    # Dropping a class leaves a valid partial resolution: complete coverage
    # fails, but conversion still works and reflects the actual class count.
    design = one_factorization(6)
    partial = ResolvableDesign(6, 2, 2, design.classes[:-1])
    with pytest.raises(DesignError):
        verify_design(partial)
    verify_design(partial, require_complete=False)
    result = design_to_mcwc(partial)
    assert result.size == 4
    assert result.report.min_distance >= result.guaranteed_distance == 6


def reference_first_failure(design, require_complete):
    """The message for the first failing t-subset, counting every t-subset of the points."""
    cover = {}
    for cls in design.classes.tolist():
        for block in cls:
            for sub in combinations(sorted(block), design.t):
                cover[sub] = cover.get(sub, 0) + 1
    for sub in combinations(range(design.v), design.t):
        count = cover.get(sub, 0)
        if count > 1 or (require_complete and count != 1):
            return f"{design.t}-subset {sub} covered {count} times"
    return None


def sqs8_classes():
    """The resolvable 3-(8, 4, 1) design: each class is a plane of AG(3, 2) through 0 and its coset."""
    classes = []
    for u in range(1, 8):
        plane = [x for x in range(8) if bin(u & x).count("1") % 2 == 0]
        classes.append((tuple(plane), tuple(x for x in range(8) if x not in plane)))
    return tuple(classes)


@pytest.mark.parametrize("require_complete", [True, False])
@pytest.mark.parametrize(
    "v, k, t, classes",
    [
        (8, 2, 2, one_factorization(8).classes.tolist()),
        (9, 3, 2, affine_plane(3).classes.tolist()),
        (8, 4, 3, list(sqs8_classes())),
    ],
)
def test_verify_design_names_first_failing_subset(v, k, t, classes, require_complete):
    # Dropped, repeated and swapped classes, checked against counting every t-subset.
    cases = [
        classes,
        classes[:-1],
        classes[1:],
        classes + classes[2:3],
        classes[1:] + classes[2:3],
        classes[:2] + classes[-1:] * 2,
        (),
    ]
    for case in cases:
        design = ResolvableDesign(v, k, t, case)
        expected = reference_first_failure(design, require_complete)
        if expected is None:
            verify_design(design, require_complete=require_complete)
        else:
            with pytest.raises(DesignError) as info:
                verify_design(design, require_complete=require_complete)
            assert str(info.value) == expected


def test_verify_design_counts_only_covered_subsets():
    # C(20000, 2) pairs exist, but none is covered: the first is named at once.
    empty = ResolvableDesign(20000, 2, 2, ())
    with pytest.raises(DesignError, match=r"2-subset \(0, 1\) covered 0 times"):
        verify_design(empty)
    verify_design(empty, require_complete=False)


def test_verify_design_elides_long_subsets():
    # Over 8 points the message names the first three and the last; 8 or fewer are named in full.
    whole = ResolvableDesign(10, 10, 10, [[list(range(10))]] * 2)
    with pytest.raises(DesignError, match=r"^10-subset \(0, 1, 2, …, 9\) covered 2 times$"):
        verify_design(whole)
    halves = ResolvableDesign(20, 10, 9, [[list(range(10)), list(range(10, 20))]])
    with pytest.raises(DesignError, match=r"^9-subset \(0, 1, 2, …, 10\) covered 0 times$"):
        verify_design(halves)
    eight = ResolvableDesign(16, 8, 8, [[list(range(8)), list(range(8, 16))]] * 2)
    with pytest.raises(DesignError, match=r"^8-subset \(0, 1, 2, 3, 4, 5, 6, 7\) covered 2 times$"):
        verify_design(eight)
    with pytest.raises(DesignError, match=r"^1-subset \(0,\) covered 0 times$"):
        verify_design(ResolvableDesign(4, 2, 1, ()))
    # No block at all: t comes from the header alone and costs no work.
    with pytest.raises(DesignError, match=r"^1000000000-subset \(0, 1, 2, …, 999999999\) covered 0 times$"):
        verify_design(ResolvableDesign(10**9, 10**9, 10**9, ()))


def test_coverage_cap(monkeypatch):
    # C(60, 8) = 2,558,620,845 8-subsets in one block, refused before any is counted.
    block = ResolvableDesign(60, 60, 8, ((tuple(range(60)),),))
    with pytest.raises(DesignError, match="over the cap"):
        verify_design(block, require_complete=False)
    # The largest families under the cap: affine planes up to q = 32, and
    # one-factorizations up to 1024 points; both cover C(1024, 2) pairs.
    assert comb(32**2, 2) == comb(1024, 2) <= MAX_COVERAGE_ENTRIES < comb(37**2, 2)
    assert comb(1026, 2) > MAX_COVERAGE_ENTRIES
    def no_blocks(*args):
        raise AssertionError("blocks built")

    with monkeypatch.context() as patch:  # refused before any block is built
        patch.setattr(designs_mod, "ResolvableDesign", no_blocks)
        for build, order in ((affine_plane, 37), (one_factorization, 1026)):
            with pytest.raises(DesignError, match="over the cap"):
                build(order)
    # affine_plane(3) covers C(9, 2) = 36 pairs and one_factorization(10) 45.
    monkeypatch.setattr(designs_mod, "MAX_COVERAGE_ENTRIES", 36)
    design = affine_plane(3)
    with pytest.raises(DesignError, match="45 2-subsets, over the cap of 36"):
        one_factorization(10)
    monkeypatch.setattr(designs_mod, "MAX_COVERAGE_ENTRIES", 35)
    for refused in (lambda: affine_plane(3), lambda: verify_design(design)):
        with pytest.raises(DesignError, match="36 2-subsets, over the cap of 35"):
            refused()


def test_capped_comb_stops_at_the_coverage_cap():
    cap = MAX_COVERAGE_ENTRIES
    for v in range(70):
        for t in range(v + 1):
            assert designs_mod.capped_comb(v, t) == min(comb(v, t), cap + 1), (v, t)
    assert designs_mod.capped_comb(1024, 2) == comb(1024, 2) <= cap
    assert designs_mod.capped_comb(10**7, 5 * 10**6) == cap + 1  # 3 million digits, not worked out
    # The expected class count is worked out within the cap only.
    assert affine_plane(4).expected_class_count() == 5
    assert ResolvableDesign(2048, 2, 2, []).expected_class_count() is None


def test_design_to_mcwc_memory_stays_near_tile_bytes():
    # A 1-(v, v, 1) design is one class of one block: one word of weight v.
    # Building it must not compare every block point against every point.
    v = 1 << 14
    design = ResolvableDesign(v, v, 1, ((tuple(range(v)),),))
    design_to_mcwc(ResolvableDesign(4, 4, 1, ((tuple(range(4)),),)))  # numpy imported first
    tracemalloc.start()
    try:
        result = design_to_mcwc(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.size == 1 and result.code.word_strings() == ["1" * v]
    assert peak < 16 * codes_mod.TILE_BYTES
