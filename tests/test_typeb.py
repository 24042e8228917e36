import json
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import (
    Flavor,
    InvalidPartition,
    LimitExceeded,
    NcPartition,
    NotOuter,
    SignedNcPartition,
    abs_partition,
    enumerate_nc,
    enumerate_signed,
    from_pair,
    is_noncrossing,
    one_partition,
    outer_blocks,
    signed_count,
    to_pair,
    zero_blocks,
)
from ncprob.typeb import _position

FIG2 = SignedNcPartition(5, Flavor.B, [(1, 3, -1, -3), (2,), (-2,), (4, 5), (-4, -5)])
FIG3_LEFT = SignedNcPartition(
    5, Flavor.B_OPP, [(1, 3, -1, -3), (2,), (-2,), (4, 5), (-4, -5)]
)
FIG3_RIGHT = SignedNcPartition(
    5, Flavor.B_OPP, [(1, 3, -1, -3), (2,), (-2,), (4, 5, -4, -5)]
)


def test_counts_smallest():
    got = enumerate_signed(1, Flavor.B)
    assert len(got) == 2
    assert SignedNcPartition(1, Flavor.B, [(1, -1)]) in got
    assert SignedNcPartition(1, Flavor.B, [(1,), (-1,)]) in got


def test_counts_match_central_binomial():
    for n in range(1, 9):
        for flavor in Flavor:
            parts = enumerate_signed(n, flavor)
            assert len(parts) == len(set(parts)) == signed_count(n)
    assert signed_count(4) == 70


def test_limit():
    with pytest.raises(LimitExceeded):
        enumerate_signed(9, Flavor.B)


def test_worked_examples_enumerated():
    assert FIG2 in enumerate_signed(5, Flavor.B)
    opp = enumerate_signed(5, Flavor.B_OPP)
    assert FIG3_LEFT in opp
    assert FIG3_RIGHT in opp


def test_constructor_validation():
    # not symmetric
    with pytest.raises(InvalidPartition):
        SignedNcPartition(2, Flavor.B, [(1, 2), (-1,), (-2,)])
    # crossing in the B circular order (1,2,-1,-2): {1,-1} vs {2,-2} cross
    with pytest.raises(InvalidPartition):
        SignedNcPartition(2, Flavor.B, [(1, -1), (2, -2)])
    # same blocks are fine in the opposite order (1,2,-2,-1)
    SignedNcPartition(2, Flavor.B_OPP, [(1, -1), (2, -2)])
    # labels whose type is not int
    for flavor in Flavor:
        for blocks in ([(1.0, -1.0), (2, -2)], [("a", -1), (2, -2)], [(True, -1), (2, -2)]):
            with pytest.raises(InvalidPartition, match="is not an int"):
                SignedNcPartition(2, flavor, blocks)


def test_zero_blocks():
    zb = zero_blocks(FIG2)
    assert len(zb) == 1 and FIG2.blocks[zb[0]] == (1, 3, -1, -3)
    assert len(zero_blocks(FIG3_LEFT)) == 1
    assert len(zero_blocks(FIG3_RIGHT)) == 2
    allsing = SignedNcPartition(
        3, Flavor.B, [(i,) for i in (1, 2, 3, -1, -2, -3)]
    )
    assert zero_blocks(allsing) == ()


def test_typeb_has_at_most_one_zero_block():
    for n in range(1, 6):
        for s in enumerate_signed(n, Flavor.B):
            assert len(zero_blocks(s)) <= 1


def test_bopp_sign_mixing_only_in_zero_blocks():
    for n in range(1, 6):
        for s in enumerate_signed(n, Flavor.B_OPP):
            zs = set(zero_blocks(s))
            for i, b in enumerate(s.blocks):
                mixed = any(x > 0 for x in b) and any(x < 0 for x in b)
                assert mixed == (i in zs)


def test_abs_partition():
    assert abs_partition(FIG3_LEFT) == NcPartition(5, [(1, 3), (2,), (4, 5)])
    full = SignedNcPartition(3, Flavor.B_OPP, [(1, 2, 3, -1, -2, -3)])
    assert abs_partition(full) == one_partition(3)


def test_abs_partition_is_noncrossing():
    for flavor in Flavor:
        for n in range(1, 6):
            for s in enumerate_signed(n, flavor):
                pi = abs_partition(s)  # constructor re-checks non-crossing
                assert is_noncrossing(pi.blocks, n)


def test_zero_blocks_land_outer_in_opposite_order():
    # specific to the opposite circular order; type-B zero-blocks can wrap
    # around and come out nested
    from ncprob import BlockRole, block_roles

    for n in range(1, 6):
        for s in enumerate_signed(n, Flavor.B_OPP):
            pi = abs_partition(s)
            roles = block_roles(pi)
            for i in zero_blocks(s):
                ab = tuple(sorted({abs(x) for x in s.blocks[i]}))
                assert roles[pi.blocks.index(ab)] is BlockRole.OUTER


def test_from_pair_extremes():
    full = one_partition(3)
    assert from_pair(full, [full.blocks[0]]).blocks == ((1, 2, 3, -1, -2, -3),)
    assert from_pair(full, []).blocks == ((1, 2, 3), (-1, -2, -3))


def test_from_pair_rejects_inner_blocks():
    pi = NcPartition(3, [(1, 3), (2,)])
    with pytest.raises(NotOuter):
        from_pair(pi, [(2,)])


def test_pair_bijection_round_trips():
    import itertools

    for n in range(1, 6):
        for s in enumerate_signed(n, Flavor.B_OPP):
            pi, chosen = to_pair(s)
            assert from_pair(pi, chosen) == s
        for pi in enumerate_nc(n):
            outer = [pi.blocks[i] for i in outer_blocks(pi)]
            for r in range(len(outer) + 1):
                for chosen in itertools.combinations(outer, r):
                    s = from_pair(pi, chosen)
                    back_pi, back_chosen = to_pair(s)
                    assert back_pi == pi
                    assert set(back_chosen) == set(chosen)


def test_outer_subset_count_identity():
    for n in range(1, 7):
        total = sum(2 ** len(outer_blocks(p)) for p in enumerate_nc(n))
        assert total == signed_count(n)


def _set_partitions(elems):
    """Every set partition of the list elems, as lists of blocks."""
    if not elems:
        yield []
        return
    for part in _set_partitions(elems[1:]):
        yield [[elems[0]], *part]
        for i in range(len(part)):
            yield [*part[:i], [elems[0], *part[i]], *part[i + 1:]]


@cache
def _symmetric_set_partitions(n):
    """The set partitions of +-1..+-n that negation maps to themselves."""
    labels = [*range(1, n + 1), *range(-n, 0)]
    return [
        p for p in _set_partitions(labels)
        if {frozenset(b) for b in p} == {frozenset(-x for x in b) for b in p}
    ]


def _has_crossing_quadruple(blocks, n, flavor):
    pos = [sorted(_position(x, n, flavor) for x in b) for b in blocks]
    return any(
        a < c < b < d
        for u in pos for v in pos if u is not v
        for a, b in combinations(u, 2) for c, d in combinations(v, 2)
    )


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_and_constructor_follow_the_definition(n, flavor):
    # definition oracle: the symmetric set partitions of +-[n] with no
    # quadruple a < c < b < d of positions, a, b in one block and c, d in
    # another, are the enumeration; the constructor rejects the rest
    noncrossing = []
    for p in _symmetric_set_partitions(n):
        if _has_crossing_quadruple(p, n, flavor):
            with pytest.raises(InvalidPartition):
                SignedNcPartition(n, flavor, p)
        else:
            noncrossing.append(frozenset(map(frozenset, p)))
    parts = enumerate_signed(n, flavor)
    assert len(parts) == len(noncrossing)
    assert {frozenset(map(frozenset, s.blocks)) for s in parts} == set(noncrossing)


def test_constructor_rejects_an_empty_block():
    for flavor in Flavor:
        with pytest.raises(InvalidPartition, match="empty block"):
            SignedNcPartition(1, flavor, [(1, -1), ()])


def test_serialization():
    assert FIG2.to_text() == "{1,3,-1,-3}{2}{-2}{4,5}{-4,-5}"
    assert str(FIG2).startswith("B:")
    assert SignedNcPartition.from_text(str(FIG3_RIGHT)) == FIG3_RIGHT
    assert SignedNcPartition.from_text(FIG2.to_text(), flavor=Flavor.B) == FIG2
    for s in enumerate_signed(3, Flavor.B):
        assert SignedNcPartition.from_json(s.to_json()) == s


def test_unknown_flavor_is_an_invalid_partition():
    with pytest.raises(InvalidPartition):
        SignedNcPartition.from_text("X:{1,-1}")
    with pytest.raises(InvalidPartition):
        SignedNcPartition.from_json({"n": 1, "flavor": "X", "blocks": [[1, -1]]})


@pytest.mark.parametrize(
    "data",
    [
        {"n": 1, "blocks": [[1, -1]]},
        {"flavor": "B", "blocks": [[1, -1]]},
        {"n": 1, "flavor": "B"},
        {"n": "x", "flavor": "B", "blocks": [[1, -1]]},
        {"n": "1", "flavor": "B-opp", "blocks": [[1, -1]]},
        {"n": 1, "flavor": "B", "blocks": 7},
        [1, "B", [[1, -1]]],
    ],
    ids=["no-flavor", "no-n", "no-blocks", "string-n", "numeric-string-n",
         "blocks-not-a-list", "not-a-dict"],
)
def test_from_json_rejects_malformed_data(data):
    with pytest.raises(InvalidPartition):
        SignedNcPartition.from_json(data)


@given(st.integers(1, 5), st.sampled_from(list(Flavor)), st.data())
@settings(max_examples=100, deadline=None)
def test_signed_text_and_json_round_trip(n, flavor, data):
    sigma = data.draw(st.sampled_from(enumerate_signed(n, flavor)))
    assert SignedNcPartition.from_text(sigma.to_text(tagged=True)) == sigma
    assert SignedNcPartition.from_text(sigma.to_text(), flavor=flavor) == sigma
    assert SignedNcPartition.from_json(json.loads(json.dumps(sigma.to_json()))) == sigma


@pytest.mark.parametrize("n", range(2, 7))
def test_a_flavor_value_enumerates_its_lattice(n):
    got = enumerate_signed(n, "B-opp")
    assert got == enumerate_signed(n, Flavor.B_OPP)
    assert all(s.flavor is Flavor.B_OPP for s in got)
    assert enumerate_signed(n, "B") == enumerate_signed(n, Flavor.B)


def test_a_flavor_value_validates_in_its_order():
    # {1,-1} and {2,-2} cross in the type-B order (1,2,-1,-2)
    with pytest.raises(InvalidPartition, match="crossing blocks in B order"):
        SignedNcPartition(2, "B", [(1, -1), (2, -2)])
    # {1,-2} and {-1,2} do not, but cross in the opposite order (1,2,-2,-1)
    sigma = SignedNcPartition(2, "B", [(1, -2), (-1, 2)])
    assert sigma == SignedNcPartition(2, Flavor.B, [(1, -2), (-1, 2)])
    assert sigma.flavor is Flavor.B
    assert SignedNcPartition.from_text("{1,-2}{-1,2}", flavor="B") == sigma


@pytest.mark.parametrize("flavor", [None, "x", "b", 1])
def test_an_unknown_flavor_is_refused_by_both_entries(flavor):
    with pytest.raises(InvalidPartition, match="unknown flavor"):
        enumerate_signed(2, flavor)
    with pytest.raises(InvalidPartition, match="unknown flavor"):
        SignedNcPartition(1, flavor, [(1, -1)])
