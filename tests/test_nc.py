import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import nc
from ncprob import (
    BlockRole,
    InvalidPartition,
    IsBlockMax,
    LimitExceeded,
    NcPartition,
    NotComparable,
    NotInner,
    NotLLOne,
    SizeMismatch,
    attach,
    block_roles,
    catalan,
    cut,
    enumerate_ll_below,
    enumerate_nc,
    f_nm,
    f_nm_inverse,
    interval_partitions,
    is_interval,
    is_noncrossing,
    kreweras,
    leq,
    ll,
    ll_one,
    moebius_oracle,
    moebius_to_one,
    one_partition,
    outer_blocks,
    parent_block,
    sqsubseteq,
    zero_partition,
)

FIG1 = NcPartition(10, [(1, 5, 6), (2, 4), (3,), (7,), (8, 10), (9,)])


def crossing_by_quadruples(blocks, n):
    """Direct scan of the defining condition, as an independent oracle."""
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    for i1, i2, i3, i4 in itertools.combinations(range(1, n + 1), 4):
        if owner[i1] == owner[i3] and owner[i2] == owner[i4] and owner[i1] != owner[i2]:
            return True
    return False


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_single_point():
    assert enumerate_nc(1) == (NcPartition(1, [(1,)]),)


def test_enumerate_counts():
    assert len(enumerate_nc(4)) == 14
    # direct evaluation of the closed formula
    assert len(enumerate_nc(10)) == 16796 == catalan(10)


def test_enumerate_unique_and_sorted():
    parts = enumerate_nc(6)
    assert len(set(parts)) == len(parts)
    assert list(parts) == sorted(parts, key=lambda p: p.blocks)


@pytest.mark.parametrize("n", range(12))
def test_span_is_built_in_canonical_order(n):
    # _nc_iter yields its rows without sorting them; they must already be
    # the sorted form of themselves, blocks within each row and the rows,
    # and _nc_span must be their table
    from ncprob.nc import _nc_iter, _nc_span

    rows = _nc_span(0, n)
    assert rows == tuple(_nc_iter(0, n))
    assert rows == tuple(sorted(tuple(sorted(map(tuple, map(sorted, r)))) for r in rows))
    assert len(set(rows)) == len(rows) == catalan(n)


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        enumerate_nc(13)
    with pytest.raises(LimitExceeded):
        enumerate_nc(5, limit=4)
    with pytest.raises(LimitExceeded):
        interval_partitions(13)


def test_is_noncrossing_examples():
    assert is_noncrossing([(1, 5, 6), (2, 4), (3,), (7,), (8, 10), (9,)])
    assert not is_noncrossing([(1, 3), (2, 4)])
    assert is_noncrossing([tuple(range(1, 8))])


def test_is_noncrossing_rejects_non_partition():
    with pytest.raises(InvalidPartition):
        is_noncrossing([(1, 2), (2, 3)])
    with pytest.raises(InvalidPartition):
        is_noncrossing([(1, 3)], n=3)
    # a label or m whose type is not int is refused before any sort or index
    for blocks in ([(1.0,), (2,)], [("a",), (2,)], [(True,), (2,)]):
        with pytest.raises(InvalidPartition, match="is not an int"):
            is_noncrossing(blocks)
        with pytest.raises(InvalidPartition, match="is not an int"):
            NcPartition(2, blocks)
    with pytest.raises(InvalidPartition):
        f_nm(NcPartition(4, [(1, 4), (2, 3)]), 1.0)
    with pytest.raises(InvalidPartition):
        f_nm_inverse(one_partition(3), True)


@st.composite
def raw_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    owner = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
    blocks: dict = {}
    for x, b in enumerate(owner, start=1):
        blocks.setdefault(b, []).append(x)
    return n, [tuple(v) for v in blocks.values()]


@given(raw_partitions())
@settings(max_examples=200, deadline=None)
def test_is_noncrossing_matches_quadruple_scan(data):
    # the validating constructor reads the same scan: it refuses exactly the
    # partitions in which the quadruple oracle finds a crossing
    n, blocks = data
    crossing = crossing_by_quadruples(blocks, n)
    assert is_noncrossing(blocks, n) == (not crossing)
    if crossing:
        with pytest.raises(InvalidPartition):
            NcPartition(n, blocks)
    else:
        assert NcPartition(n, blocks).blocks == tuple(sorted(blocks))


def test_constructor_rejects_crossing():
    with pytest.raises(InvalidPartition):
        NcPartition(4, [(1, 3), (2, 4)])


def test_interval_partitions():
    assert interval_partitions(1) == (one_partition(1),)
    assert len(interval_partitions(3)) == 4
    # agrees with filtering the full lattice
    assert set(interval_partitions(5)) == {p for p in enumerate_nc(5) if is_interval(p)}


def test_interval_partitions_are_maximal():
    for n in range(1, 7):
        for p in interval_partitions(n):
            above = [r for r in enumerate_nc(n) if ll(p, r)]
            assert above == [p]


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def test_leq_basics():
    for pi in enumerate_nc(5):
        assert leq(zero_partition(5), pi)
        assert leq(pi, one_partition(5))
    assert leq(NcPartition(3, [(1, 2), (3,)]), one_partition(3))
    assert not leq(one_partition(3), NcPartition(3, [(1, 2), (3,)]))


def test_leq_size_mismatch():
    with pytest.raises(SizeMismatch):
        leq(one_partition(3), one_partition(4))


def test_ll_examples():
    pi = NcPartition(4, [(1, 4), (2, 3)])
    assert ll(pi, one_partition(4)) and ll_one(pi)
    assert not ll(zero_partition(4), one_partition(4))
    for p in enumerate_nc(5):
        assert ll(p, p)


def test_ll_one_shortcut_matches_definition():
    for n in range(1, 8):
        one = one_partition(n)
        for p in enumerate_nc(n):
            assert ll_one(p) == ll(p, one)


def test_sqsubseteq_examples():
    assert sqsubseteq(zero_partition(3), one_partition(3))
    assert not sqsubseteq(NcPartition(3, [(1, 3), (2,)]), one_partition(3))
    for p in enumerate_nc(5):
        assert sqsubseteq(p, p)


def test_enumerate_ll_below():
    assert len(enumerate_ll_below(one_partition(3))) == catalan(2)
    assert len(enumerate_ll_below(one_partition(4))) == 5
    rho = NcPartition(4, [(1, 2), (3, 4)])
    assert enumerate_ll_below(rho) == (rho,)


def test_ll_below_cardinality_formula():
    for n in range(1, 7):
        for rho in enumerate_nc(n):
            expect = 1
            for b in rho.blocks:
                expect *= catalan(len(b) - 1)
            assert len(enumerate_ll_below(rho)) == expect


# ---------------------------------------------------------------------------
# kreweras and moebius
# ---------------------------------------------------------------------------

def test_kreweras_worked_example():
    assert kreweras(FIG1) == NcPartition(
        10, [(1, 4), (2, 3), (5,), (6, 7, 10), (8, 9)]
    )


def test_kreweras_extremes():
    for n in range(1, 7):
        assert kreweras(zero_partition(n)) == one_partition(n)
        assert kreweras(one_partition(n)) == zero_partition(n)


def interleave_noncrossing(pi, sigma):
    blocks = [tuple(2 * v - 1 for v in b) for b in pi.blocks]
    blocks += [tuple(2 * w for w in b) for b in sigma.blocks]
    return is_noncrossing(blocks, 2 * pi.n)


def test_kreweras_is_maximal_interleaving():
    # the defining extremal property, brute forced
    for n in range(1, 6):
        for pi in enumerate_nc(n):
            valid = [s for s in enumerate_nc(n) if interleave_noncrossing(pi, s)]
            best = kreweras(pi)
            assert best in valid
            assert all(leq(s, best) for s in valid)


def test_kreweras_reverses_order():
    for n in range(1, 6):
        parts = enumerate_nc(n)
        for a in parts:
            for b in parts:
                assert leq(a, b) == leq(kreweras(b), kreweras(a))


def test_moebius_to_one_values():
    assert moebius_to_one(one_partition(6)) == 1
    assert moebius_to_one(zero_partition(3)) == 2
    assert moebius_to_one(zero_partition(4)) == -5


def test_moebius_oracle_values():
    p = enumerate_nc(4)[5]
    assert moebius_oracle(p, p) == 1
    assert moebius_oracle(zero_partition(2), one_partition(2)) == -1
    assert moebius_oracle(zero_partition(5), one_partition(5)) == 14


def test_moebius_closed_form_matches_oracle():
    for n in range(1, 7):
        one = one_partition(n)
        for p in enumerate_nc(n):
            assert moebius_to_one(p) == moebius_oracle(p, one)


def test_moebius_oracle_not_comparable():
    with pytest.raises(NotComparable):
        moebius_oracle(one_partition(3), zero_partition(3))


# ---------------------------------------------------------------------------
# nesting, cut and attach
# ---------------------------------------------------------------------------

def test_block_roles():
    assert all(r is BlockRole.OUTER for r in block_roles(one_partition(5)).values())
    roles = {FIG1.blocks[i]: r for i, r in block_roles(FIG1).items()}
    assert roles[(2, 4)] is BlockRole.INNER
    assert roles[(3,)] is BlockRole.INNER
    assert roles[(9,)] is BlockRole.INNER
    assert roles[(1, 5, 6)] is BlockRole.OUTER
    assert roles[(7,)] is BlockRole.OUTER
    assert roles[(8, 10)] is BlockRole.OUTER
    for p in interval_partitions(6):
        assert all(r is BlockRole.OUTER for r in block_roles(p).values())
    for n in range(1, 9):
        for p in enumerate_nc(n):
            nested = [any(w[0] < b[0] and b[-1] < w[-1] for w in p.blocks) for b in p.blocks]
            assert outer_blocks(p) == tuple(i for i, x in enumerate(nested) if not x)
            assert block_roles(p) == {
                i: BlockRole.INNER if x else BlockRole.OUTER for i, x in enumerate(nested)}


def test_parent_block():
    assert FIG1.blocks[parent_block(FIG1, FIG1.block_of(2))] == (1, 5, 6)
    assert FIG1.blocks[parent_block(FIG1, FIG1.block_of(9))] == (8, 10)
    p = NcPartition(3, [(1, 3), (2,)])
    assert p.blocks[parent_block(p, p.block_of(2))] == (1, 3)
    with pytest.raises(NotInner):
        parent_block(p, p.block_of(1))


def test_cut():
    assert cut(NcPartition(4, [(1, 4), (2, 3)]), 2) == NcPartition(
        4, [(1, 4), (2,), (3,)]
    )
    assert cut(NcPartition(5, [(1, 5), (2, 3, 4)]), 3) == NcPartition(
        5, [(1, 5), (2, 3), (4,)]
    )
    with pytest.raises(IsBlockMax):
        cut(NcPartition(4, [(1, 4), (2, 3)]), 3)
    with pytest.raises(NotInner):
        cut(NcPartition(4, [(1, 4), (2, 3)]), 1)


def test_attach():
    assert attach(NcPartition(4, [(1, 4), (2, 3)]), 2) == one_partition(4)
    assert attach(FIG1, 9).blocks[-1] == (8, 9, 10)
    with pytest.raises(NotInner):
        attach(one_partition(3), 2)


def test_cut_attach_duality():
    for n in range(2, 7):
        for p in enumerate_nc(n):
            if not ll_one(p):
                continue
            roles = block_roles(p)
            for idx, blk in enumerate(p.blocks):
                if roles[idx] is not BlockRole.INNER:
                    continue
                for x in blk[:-1]:
                    assert kreweras(cut(p, x)) == attach(kreweras(p), x)


def _old_kreweras(pi):
    # the 0-based cycle construction with sorted cycles, then validated
    n = pi.n
    pinv = list(range(n))
    for b in pi.blocks:
        for a, c in zip(b, b[1:]):
            pinv[c - 1] = a - 1
        pinv[b[0] - 1] = b[-1] - 1
    out, seen = [], [False] * n
    for start in range(n):
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = pinv[(x + 1) % n]
        if cyc:
            out.append(cyc)
    return NcPartition(n, out)


def _old_inner(pi, i):
    # the block holding i and its parent-block, the latest-opening block
    # nesting it (None when there is none)
    b = pi.blocks[pi.block_of(i)]
    nesting = [w for w in pi.blocks if w[0] < b[0] and b[-1] < w[-1]]
    return b, max(nesting) if nesting else None


def test_row_surgeries_match_the_object_recipes():
    # each result equals its rebuild through the validating constructor
    # and the partition the object-level recipe builds
    def rebuilt(p):
        return NcPartition(p.n, p.blocks)

    for n in range(1, 9):
        for pi in enumerate_nc(n):
            blocks0 = tuple(tuple(x - 1 for x in b) for b in pi.blocks)
            assert nc._kreweras(blocks0, n) == tuple(
                tuple(x - 1 for x in b) for b in nc._kreweras(pi.blocks, n))
            k, old = kreweras(pi), _old_kreweras(pi)
            assert k.blocks == rebuilt(k).blocks == old.blocks
            assert moebius_to_one(pi) == (-1) ** (len(pi) - 1) * math.prod(
                catalan(len(b) - 1) for b in old.blocks)
            for i in range(1, n + 1):
                b, parent = _old_inner(pi, i)
                if parent is None:
                    with pytest.raises(NotInner):
                        cut(pi, i)
                    with pytest.raises(NotInner):
                        attach(pi, i)
                    continue
                assert pi.blocks[parent_block(pi, pi.block_of(i))] == parent
                rest = [w for w in pi.blocks if w not in (b, parent)]
                a = attach(pi, i)
                assert a.blocks == rebuilt(a).blocks == NcPartition(
                    n, rest + [tuple(sorted(b + parent))]).blocks
                if i == b[-1]:
                    with pytest.raises(IsBlockMax):
                        cut(pi, i)
                    continue
                c = cut(pi, i)
                low = tuple(j for j in b if j <= i)
                high = tuple(j for j in b if j > i)
                assert c.blocks == rebuilt(c).blocks == NcPartition(
                    n, rest + [parent, low, high]).blocks


def test_upper_ideal_alternating_sum():
    for n in range(1, 7):
        parts = enumerate_nc(n)
        for pi in parts:
            acc = sum(
                (-1) ** (len(pi.blocks) - len(r.blocks)) for r in parts if ll(pi, r)
            )
            assert acc == (1 if is_interval(pi) else 0)


def test_restricted_complement_anti_isomorphism():
    for n in range(2, 7):
        domain = [p for p in enumerate_nc(n) if ll_one(p)]
        assert {kreweras(p) for p in domain} == {
            s for s in enumerate_nc(n) if (n,) in s.blocks
        }
        for a in domain:
            for b in domain:
                assert sqsubseteq(a, b) == ll(kreweras(b), kreweras(a))


# ---------------------------------------------------------------------------
# the translate-and-merge bijection
# ---------------------------------------------------------------------------

def test_f_nm_worked_example():
    rho = NcPartition(10, [(1, 4, 9, 10), (2, 3), (5, 6, 8), (7,)])
    assert f_nm(rho, 3) == NcPartition(9, [(1, 7, 8), (2, 3, 6), (4, 5), (9,)])


def test_f_nm_smallest():
    assert f_nm(one_partition(2), 1) == one_partition(1)


def test_f_nm_requires_unique_outer_block():
    with pytest.raises(NotLLOne):
        f_nm(zero_partition(3), 1)


def test_f_nm_round_trip_and_moebius():
    for n in range(1, 7):
        for rho in enumerate_nc(n + 1):
            if not ll_one(rho):
                continue
            for m in range(1, n + 1):
                pi = f_nm(rho, m)
                assert f_nm_inverse(pi, m) == rho
                assert moebius_to_one(pi) == moebius_to_one(rho)


def test_f_nm_output_passes_the_validating_constructor():
    # f_nm builds its result unchecked; the constructor's checks, and the
    # literal translate-by-m-then-merge of the definition, are the oracle
    for n in range(1, 9):
        for rho in enumerate_nc(n + 1):
            if not ll_one(rho):
                continue
            for m in range(1, n + 1):
                pi = f_nm(rho, m)
                assert pi == NcPartition(n, pi.blocks)
                hat = [[(m + x - 1) % (n + 1) + 1 for x in b] for b in rho.blocks]
                merged = [[x - 1 if x > m + 1 else x for x in b if x != m + 1] for b in hat]
                assert pi == NcPartition(n, merged)


def test_f_nm_row_core_lists_the_image_blocks_in_rho_order():
    # the core that the lemma67 search calls: each image block ascending, in
    # the order of rho's blocks, so rho's first block, which holds 1 and
    # n + 1, sends its image, which holds m, first
    for n in range(1, 9):
        for rho in enumerate_nc(n + 1):
            if not ll_one(rho):
                continue
            for m in range(1, n + 1):
                image = nc._f_nm(rho.blocks, n, m)
                assert tuple(sorted(image)) == f_nm(rho, m).blocks
                assert all(list(b) == sorted(b) for b in image) and m in image[0]


def test_f_nm_is_bijection():
    for n in range(1, 6):
        domain = [r for r in enumerate_nc(n + 1) if ll_one(r)]
        for m in range(1, n + 1):
            image = {f_nm(r, m) for r in domain}
            assert len(image) == len(domain) == catalan(n)
            assert image == set(enumerate_nc(n))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    assert FIG1.to_text() == "{1,5,6}{2,4}{3}{7}{8,10}{9}"
    assert NcPartition.from_text(FIG1.to_text()) == FIG1


def test_json_round_trip():
    for p in enumerate_nc(5):
        assert NcPartition.from_json(p.to_json()) == p


@given(st.integers(min_value=1, max_value=7), st.randoms())
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip_random(n, rng):
    parts = enumerate_nc(n)
    p = parts[rng.randrange(len(parts))]
    assert NcPartition.from_text(p.to_text()) == p
    assert NcPartition.from_json(p.to_json()) == p


def test_concurrent_enumeration_reads():
    # caches must serve parallel readers the same objects
    import threading

    from ncprob.nc import _nc_objects

    _nc_objects.cache_clear()
    results = [None] * 8

    def work(i):
        results[i] = enumerate_nc(7)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert len(results[0]) == catalan(7)


@pytest.mark.parametrize(
    "text",
    ["{1,a}{2}", "{1,3}junk{2}", "{1,2}{3}x", "x{1}", "{1}{}", "{1,,2}", "{1.5}", ""],
)
def test_from_text_rejects_malformed_text(text):
    with pytest.raises(InvalidPartition):
        NcPartition.from_text(text)


def test_from_text_allows_spaces_between_tokens():
    assert NcPartition.from_text(" {1, 3} {2} ") == NcPartition(3, [(1, 3), (2,)])


@pytest.mark.parametrize("data", [5, None, [[1, "a"]]], ids=["int", "null", "letter"])
def test_from_json_rejects_malformed_data(data):
    with pytest.raises(InvalidPartition):
        NcPartition.from_json(data)
