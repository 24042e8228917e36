from fractions import Fraction
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import (
    MultilinearFamily,
    ShapeMismatch,
    all_words,
    boolean_cumulants,
    cc_cumulants,
    cfree_cumulants,
    cfree_explicit,
    enumerate_nc,
    eq_bopp_counterexample,
    eq_typeb_counterexample,
    free_cumulants,
    infinitesimal_cumulants,
    infinitesimal_moments,
    ll_one,
    moebius_to_one,
    moments_from_boolean,
    moments_from_cc,
    moments_from_cfree,
    moments_from_free,
    random_family,
    words_of_length,
    zero_family,
)


def ones(n):
    return tuple([1] * n)


def single_var_family(seq, kind="moment"):
    return MultilinearFamily(
        1, len(seq), {ones(i + 1): Fraction(v) for i, v in enumerate(seq)}, kind=kind
    )


# ---------------------------------------------------------------------------
# free cumulants
# ---------------------------------------------------------------------------

def test_free_cumulants_low_order():
    f = random_family(2, 3, seed=1)
    k = free_cumulants(f)
    assert k((1,)) == f((1,))
    assert k((1, 2)) == f((1, 2)) - f((1,)) * f((2,))


def nc_pairing_count(n):
    # independent segment-recurrence oracle for non-crossing pairings
    if n % 2:
        return 0
    memo = {0: 1}

    def rec(m):
        if m not in memo:
            memo[m] = sum(rec(2 * i) * rec(m - 2 - 2 * i) for i in range(m // 2))
        return memo[m]

    return rec(n)


def test_semicircle_style_moments():
    kappa = single_var_family([0, 1, 0, 0, 0, 0, 0, 0], kind="free-cumulant")
    phi = moments_from_free(kappa)
    for n in range(1, 9):
        assert phi(ones(n)) == nc_pairing_count(n)
    assert phi(ones(4)) == 2
    assert free_cumulants(phi) == kappa


def test_free_round_trip():
    for k in (1, 2, 3):
        f = random_family(k, 5, seed=40 + k)
        assert moments_from_free(free_cumulants(f)) == f
        assert free_cumulants(moments_from_free(f)) == f


def test_univariate_free_recursion_oracle():
    # nested-composition recursion, no partitions involved:
    # m_n = sum_s kappa_s * sum_{n_1+..+n_s = n-s} m_{n_1} ... m_{n_s}
    kappa = random_family(1, 7, seed=42, kind="free-cumulant")
    phi = moments_from_free(kappa)

    moments = {0: Fraction(1)}

    def spread(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in spread(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, 8):
        acc = Fraction(0)
        for s in range(1, n + 1):
            inner = Fraction(0)
            for split in spread(n - s, s):
                term = Fraction(1)
                for m in split:
                    term *= moments[m]
                inner += term
            acc += kappa(ones(s)) * inner
        moments[n] = acc
        assert phi(ones(n)) == acc


def test_univariate_boolean_recursion_oracle():
    # m_n = sum_s beta_s * m_{n-s}, peeling the leading interval block
    beta = random_family(1, 7, seed=43, kind="boolean-cumulant")
    phi = moments_from_boolean(beta)
    moments = {0: Fraction(1)}
    for n in range(1, 8):
        acc = sum(
            (beta(ones(s)) * moments[n - s] for s in range(1, n + 1)),
            Fraction(0),
        )
        moments[n] = acc
        assert phi(ones(n)) == acc


def test_free_cumulants_defining_sum():
    # the moment formula, written out independently over the lattice
    f = random_family(2, 4, seed=44)
    k = free_cumulants(f)
    for w in all_words(2, 4):
        total = Fraction(0)
        for pi in enumerate_nc(len(w)):
            term = Fraction(1)
            for b in pi.blocks:
                term *= k(tuple(w[p - 1] for p in b))
            total += term
        assert total == f(w)


# ---------------------------------------------------------------------------
# boolean cumulants
# ---------------------------------------------------------------------------

def test_boolean_low_order():
    f = random_family(2, 3, seed=2)
    b = boolean_cumulants(f)
    assert b((1,)) == f((1,))
    assert b((1, 2)) == f((1, 2)) - f((1,)) * f((2,))


def test_boolean_interval_pairing():
    beta = single_var_family([0, 1, 0, 0], kind="boolean-cumulant")
    phi = moments_from_boolean(beta)
    assert phi(ones(2)) == 1
    assert phi(ones(3)) == 0
    assert phi(ones(4)) == 1  # only the two adjacent pairs


def test_boolean_factorizes_over_singleton_support():
    beta = MultilinearFamily(
        2,
        4,
        {w: Fraction(2 + w[0]) if len(w) == 1 else Fraction(0) for w in all_words(2, 4)},
        kind="boolean-cumulant",
    )
    phi = moments_from_boolean(beta)
    for w in all_words(2, 4):
        expect = Fraction(1)
        for letter in w:
            expect *= beta((letter,))
        assert phi(w) == expect


def test_boolean_round_trip():
    for k in (1, 2, 3):
        f = random_family(k, 5, seed=50 + k)
        assert moments_from_boolean(boolean_cumulants(f)) == f
        assert boolean_cumulants(moments_from_boolean(f)) == f


# ---------------------------------------------------------------------------
# infinitesimal cumulants
# ---------------------------------------------------------------------------

def test_infinitesimal_low_order():
    f = random_family(2, 2, seed=3)
    g = random_family(2, 2, seed=4, kind="infinitesimal")
    kp = infinitesimal_cumulants(f, g)
    assert kp((1,)) == g((1,))
    assert kp((1, 2)) == g((1, 2)) - g((1,)) * f((2,)) - f((1,)) * g((2,))


def test_infinitesimal_zero():
    f = random_family(2, 4, seed=5)
    z = zero_family(2, 4)
    assert infinitesimal_cumulants(f, z) == zero_family(2, 4, kind="infinitesimal-cumulant")
    assert infinitesimal_moments(free_cumulants(f), z) == z


def test_infinitesimal_round_trip():
    for k in (1, 2, 3):
        f = random_family(k, 5, seed=60 + k)
        fp = random_family(k, 5, seed=70 + k, kind="infinitesimal")
        kf = free_cumulants(f)
        assert infinitesimal_moments(kf, infinitesimal_cumulants(f, fp)) == fp
        kp = random_family(k, 5, seed=80 + k, kind="infinitesimal-cumulant")
        assert infinitesimal_cumulants(f, infinitesimal_moments(kf, kp)) == kp


def test_infinitesimal_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        infinitesimal_cumulants(random_family(2, 3, seed=1), random_family(2, 4, seed=1))
    with pytest.raises(ShapeMismatch):
        infinitesimal_cumulants(random_family(1, 3, seed=1), random_family(2, 3, seed=1))


# ---------------------------------------------------------------------------
# c-free cumulants
# ---------------------------------------------------------------------------

def test_cfree_base_case():
    f = random_family(2, 1, seed=6)
    g = random_family(2, 1, seed=7)
    assert cfree_cumulants(f, g)((1,)) == g((1,))
    assert cfree_explicit(f, g)((2,)) == g((2,))


def test_cfree_second_order_is_boolean():
    f = random_family(2, 2, seed=8)
    g = random_family(2, 2, seed=9)
    kc = cfree_explicit(f, g)
    assert kc((1, 2)) == g((1, 2)) - g((1,)) * g((2,))


def test_cfree_collapses_when_families_agree():
    f = random_family(2, 5, seed=10)
    assert cfree_cumulants(f, f) == free_cumulants(f)


def test_cfree_round_trips():
    for k in (1, 2, 3):
        f = random_family(k, 5, seed=90 + k)
        g = random_family(k, 5, seed=100 + k)
        assert moments_from_cfree(f, cfree_cumulants(f, g)) == g
        kc = random_family(k, 5, seed=110 + k, kind="cfree-cumulant")
        assert cfree_cumulants(f, moments_from_cfree(f, kc)) == kc


def test_explicit_equals_recursive():
    for s in range(4):
        f = random_family(2, 5, seed=120 + s)
        g = random_family(2, 5, seed=130 + s)
        assert cfree_explicit(f, g) == cfree_cumulants(f, g)
    # traciality is not assumed anywhere above: both inputs were arbitrary


# ---------------------------------------------------------------------------
# resummation identities over the unique-outer-block partitions, length <= 6
# ---------------------------------------------------------------------------

def _ll_one_partitions(n):
    return [p for p in enumerate_nc(n) if ll_one(p)]


def test_free_cumulants_from_boolean_sum():
    phi = random_family(2, 6, seed=140)
    kphi = free_cumulants(phi)
    bphi = boolean_cumulants(phi)
    for w in all_words(2, 6):
        total = Fraction(0)
        for pi in _ll_one_partitions(len(w)):
            term = Fraction((-1) ** (len(pi.blocks) - 1))
            for b in pi.blocks:
                term *= bphi(tuple(w[p - 1] for p in b))
            total += term
        assert total == kphi(w)


def test_cfree_cumulants_from_boolean_sum():
    phi = random_family(2, 6, seed=141)
    chi = random_family(2, 6, seed=142)
    kc = cfree_cumulants(phi, chi)
    bphi = boolean_cumulants(phi)
    bchi = boolean_cumulants(chi)
    for w in all_words(2, 6):
        total = Fraction(0)
        for pi in _ll_one_partitions(len(w)):
            holder = pi.blocks[pi.block_of(1)]
            term = Fraction((-1) ** (len(pi.blocks) - 1))
            term *= bchi(tuple(w[p - 1] for p in holder))
            for b in pi.blocks:
                if b != holder:
                    term *= bphi(tuple(w[p - 1] for p in b))
            total += term
        assert total == kc(w)


def test_fixed_block_resummation():
    phi = random_family(2, 6, seed=143)
    bphi = boolean_cumulants(phi)
    for n in range(2, 7):
        by_holder = {}
        for pi in enumerate_nc(n):
            blk = pi.blocks[pi.block_of(1)]
            if n in blk:
                by_holder.setdefault(blk, []).append(pi)
        for holder, parts in by_holder.items():
            for w in words_of_length(2, n):
                lhs = Fraction(0)
                rhs = Fraction(0)
                for pi in parts:
                    t1 = Fraction((-1) ** (1 + len(pi.blocks)))
                    t2 = moebius_to_one(pi)
                    for b in pi.blocks:
                        if b == holder:
                            continue
                        t1 *= bphi(tuple(w[p - 1] for p in b))
                        t2 *= phi(tuple(w[p - 1] for p in b))
                    lhs += t1
                    rhs += t2
                assert lhs == rhs


# ---------------------------------------------------------------------------
# alternative c-free cumulants
# ---------------------------------------------------------------------------

def test_cc_difference_identity():
    for s in range(3):
        f = random_family(2, 5, seed=150 + s)
        g = random_family(2, 5, seed=160 + s)
        cc = cc_cumulants(f, g)
        kc = cfree_cumulants(f, g)
        kf = free_cumulants(f)
        for w in all_words(2, 5):
            assert cc(w) == kc(w) - kf(w)


def test_cc_vanishes_on_equal_families():
    f = random_family(2, 5, seed=170)
    cc = cc_cumulants(f, f)
    assert all(cc(w) == 0 for w in all_words(2, 5))


def test_cc_first_order():
    f = random_family(2, 1, seed=171)
    g = random_family(2, 1, seed=172)
    cc = cc_cumulants(f, g)
    assert cc((1,)) == g((1,)) - f((1,))


def test_cc_moment_round_trip():
    f = random_family(2, 4, seed=173)
    g = random_family(2, 4, seed=174)
    assert moments_from_cc(f, cc_cumulants(f, g)) == g


_ROUND_TRIPS = {
    # name -> (input kinds, the inputs rebuilt from the inputs)
    "free": (("moment",), lambda f: (moments_from_free(free_cumulants(f)),)),
    "boolean": (("moment",), lambda f: (moments_from_boolean(boolean_cumulants(f)),)),
    "cfree": (("moment", "moment"),
              lambda f, g: (f, moments_from_cfree(f, cfree_cumulants(f, g)))),
    "cc": (("moment", "moment"), lambda f, g: (f, moments_from_cc(f, cc_cumulants(f, g)))),
    "infinitesimal": (
        ("moment", "infinitesimal"),
        lambda f, g: (f, infinitesimal_moments(free_cumulants(f), infinitesimal_cumulants(f, g)))),
}


@pytest.mark.parametrize("k, N", [(2, 10), (1, 12)])
@pytest.mark.parametrize("name", sorted(_ROUND_TRIPS))
def test_inverse_undoes_the_transform_at_high_degree(name, k, N):
    kinds, round_trip = _ROUND_TRIPS[name]
    inputs = tuple(random_family(k, N, seed=230 + i, kind=kind) for i, kind in enumerate(kinds))
    assert round_trip(*inputs) == inputs


def test_signed_lattice_moment_rewritings():
    phi = random_family(2, 5, seed=180)
    phip = random_family(2, 5, seed=181, kind="infinitesimal")
    assert eq_typeb_counterexample(phi, phip) is None
    chi = random_family(2, 5, seed=182)
    assert eq_bopp_counterexample(phi, chi) is None


def test_eq55a_builds_the_boolean_cumulants_of_phi_once(monkeypatch):
    # the solves of kappa_phi and of kappa_cc read one beta_phi: one Boolean
    # pass for phi and one for chi, where each solve used to run its own
    import ncprob.cumulants as cu
    from ncprob.selftest import TARGETS

    real, calls = cu._boolean, []
    monkeypatch.setattr(cu, "_boolean", lambda c: calls.append(1) or real(c))
    assert TARGETS["eq55a"].check(0, 2, 5, 1) is None
    assert len(calls) == 2


@pytest.mark.parametrize("check,passes", [
    # prop41: one Boolean pass for chi, read by the explicit formula and by
    # the recursion, and one for phi, inside the explicit formula's F
    (lambda st: st.TARGETS["prop41"].check(0, 2, 5, 1) is None, 2),
    # criterion 8, per draw: one pass for chi, read by its solve, the explicit
    # formula and the resummations, one for phi, read by its solve and the
    # resummations, and the one inside the explicit formula's F
    (lambda st: st._criterion_cfree_formula(0)[0], 3 * 20),
], ids=["prop41", "criterion8"])
def test_the_explicit_formula_checks_share_their_boolean_cumulants(
        monkeypatch, check, passes):
    import ncprob.cumulants as cu
    import ncprob.selftest as st

    real, calls = cu._boolean, []
    for module in (cu, st):
        monkeypatch.setattr(module, "_boolean", lambda c: calls.append(1) or real(c))
    assert check(st)
    assert len(calls) == passes


def test_internal_tables_match_public_enumeration():
    # the cached 0-based tables drive every transform; pin them to the
    # public objects
    from ncprob import (
        NcPartition,
        enumerate_ll_below,
        interval_partitions,
        one_partition,
    )
    from ncprob.cumulants import _nc_mob_table
    from ncprob.nc import _interval_range
    from ncprob.selftest import _ll_one_rows

    def lift(blocks):
        return tuple(sorted(tuple(x + 1 for x in b) for b in blocks))

    for n in range(1, 7):
        assert {lift(blocks) for _, blocks in _nc_mob_table(n)} == {
            p.blocks for p in enumerate_nc(n)
        }
        assert {lift(blocks) for blocks in _interval_range(n)} == {
            p.blocks for p in interval_partitions(n)
        }
        for mob, blocks in _nc_mob_table(n):
            assert moebius_to_one(NcPartition(n, lift(blocks))) == mob
        # selftest's rows over pi << 1_n: each pi once with its parity sign,
        # and once per table of its outer block with that sign and its
        # Moebius value
        ll_below = {p.blocks for p in enumerate_ll_below(one_partition(n))}
        sign_rows, fixed = _ll_one_rows(n)
        assert {lift(holder + others) for _, holder, others in sign_rows} == ll_below
        assert len(sign_rows) == len(ll_below)
        for sign, (holder,), others in sign_rows:
            assert sign == (-1) ** (len(NcPartition(n, lift((holder,) + others)).blocks) - 1)
        assert sum(len(by_sign) for by_sign, _ in fixed.values()) == len(ll_below)
        for holder, (by_sign, by_mob) in fixed.items():
            assert [others for _, others in by_sign] == [others for _, others in by_mob]
            for (sign, others), (mob, _) in zip(by_sign, by_mob):
                pi = NcPartition(n, lift((holder,) + others))
                assert pi.blocks in ll_below
                assert sign == (-1) ** (len(pi.blocks) - 1)
                assert mob == moebius_to_one(pi)


def test_degenerate_degree_one():
    f = random_family(2, 1, seed=210)
    assert free_cumulants(f) == f
    assert boolean_cumulants(f) == f
    assert moments_from_free(f) == f


def test_transforms_preserve_shape_and_tag():
    f = random_family(2, 4, seed=190)
    k = free_cumulants(f)
    assert (k.k, k.N, k.kind) == (2, 4, "free-cumulant")
    assert boolean_cumulants(f).kind == "boolean-cumulant"
    assert cc_cumulants(f, f).kind == "cc-cumulant"
    g = random_family(2, 4, seed=191, kind="infinitesimal")
    kp = infinitesimal_cumulants(f, g)
    assert kp.kind == "infinitesimal-cumulant" and kp.unit == "zero"


def test_kernel_tables_match_public_enumeration():
    # the kernel's row tables for the c-free and signed-lattice sums, pinned
    # to block_roles and to the signed enumerations, whose zero-blocks are
    # found here by their definition
    from collections import Counter

    from ncprob import (
        BlockRole,
        Flavor,
        abs_partition,
        block_roles,
        enumerate_signed,
    )
    from ncprob.cumulants import _signed_table

    def canon(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks))

    def rows(table, n):
        # kernel rows as 1-based groups, each group in canonical order
        assert all(row[0] == 1 for row in table(n))
        return Counter(
            tuple(canon(tuple(x + 1 for x in b) for b in g) for g in groups)
            for _, *groups in table(n)
        )

    for n in range(1, 9):
        want = Counter()
        for p in enumerate_nc(n):
            roles = block_roles(p)
            inner = [b for i, b in enumerate(p.blocks) if roles[i] is BlockRole.INNER]
            outer = [b for i, b in enumerate(p.blocks) if roles[i] is BlockRole.OUTER]
            want[(canon(inner), canon(outer))] += 1
        assert rows(_roles_table, n) == want

        for flavor in Flavor:
            want = Counter()
            for sigma in enumerate_signed(n, flavor):
                zs = [i for i, b in enumerate(sigma.blocks) if {-x for x in b} == set(b)]
                zero = canon({abs(x) for x in sigma.blocks[i]} for i in zs)
                if flavor is Flavor.B_OPP:
                    # a pair there is a block inside the positives and its negative
                    pairs = canon(
                        b for i, b in enumerate(sigma.blocks)
                        if i not in zs and min(b) > 0
                    )
                else:
                    pairs = canon(
                        b for b in abs_partition(sigma).blocks if b not in zero
                    )
                want[(zero, pairs)] += 1
            assert rows(lambda n: _signed_table(n, flavor), n) == want


def _prop54_at_nine(phi, chi):
    from ncprob.selftest import TARGETS

    return TARGETS["prop54"].check(0, 1, 9, 1)


@pytest.mark.parametrize("check, kind", [(eq_typeb_counterexample, "infinitesimal"),
                                         (eq_bopp_counterexample, "moment"),
                                         (_prop54_at_nine, "moment")])
def test_signed_checks_refuse_a_degree_above_the_limit_before_any_sum(monkeypatch, check, kind):
    import ncprob.cumulants as cu
    import ncprob.selftest as selftest
    from ncprob import LimitExceeded

    def unreachable(*args):
        raise AssertionError("a degree above the limit was summed before it was refused")

    for module in (cu, selftest):
        monkeypatch.setattr(module, "_graded", unreachable)
        monkeypatch.setattr(module, "_lattice_sum", unreachable)
    phi, other = random_family(1, 9, seed=185), random_family(1, 9, seed=186, kind=kind)
    with pytest.raises(LimitExceeded, match="n=9 above signed enumeration limit 8"):
        check(phi, other)


# ---------------------------------------------------------------------------
# the layer lattice sum against its per-word definition
# ---------------------------------------------------------------------------

def _by_word(k, layers):
    """Word-keyed table of the layers 1.. of a family."""
    return dict(zip(all_words(k, len(layers) - 1), chain.from_iterable(layers[1:])))


def _word_lattice_sum(rows, sources, w):
    """The lattice sum on one word: over rows (coefficient, group, group,
    ...), the coefficient times, for each word-keyed source and each block b
    in that source's group, the source on the subword of w at b."""
    total = 0
    for coeff, *groups in rows:
        term = coeff
        for val, blocks in zip(sources, groups):
            for b in blocks:
                term *= val[tuple(w[i] for i in b)]
        total += term
    return total


@lru_cache(maxsize=None)
def _roles_table(n):
    """Kernel rows (1, inner blocks, outer blocks) over NC(n): the lattice
    of the c-free moment-cumulant formula, which the transforms replace by
    a recursion."""
    from ncprob.nc import _nc_span, _nests

    out = []
    for blocks in _nc_span(0, n):
        inner = tuple(b for b in blocks if any(_nests(v, b) for v in blocks))
        out.append((1, inner, tuple(b for b in blocks if b not in inner)))
    return tuple(out)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_ranks_match_tuple_indexing(k):
    from ncprob.cumulants import _ranks

    assert _ranks(2, 3, (2, 0)) == (0, 2, 0, 2, 1, 3, 1, 3)
    for n in range(6):
        cases = {(), tuple(range(n)), tuple(range(n - 1, -1, -1)), (0, 2), (2, 0), (3, 0, 1)}
        cases |= {tuple(range(m, n)) + tuple(range(m)) for m in range(n)}
        for positions in cases:
            if all(p < n for p in positions):
                rank = {u: i for i, u in enumerate(words_of_length(k, len(positions)))}
                assert _ranks(k, n, positions) == tuple(
                    rank[tuple(w[p] for p in positions)] for w in words_of_length(k, n))


def _row_tables():
    from ncprob import Flavor
    from ncprob import cumulants as cu
    from ncprob.selftest import _ll_one_rows

    def fixed(n):
        return tuple(row for pair in _ll_one_rows(n)[1].values() for rows in pair for row in rows)

    return {
        "_nc_mob_table": cu._nc_mob_table,
        "_roles_table": _roles_table,
        "_signed_table_B": lambda n: cu._signed_table(n, Flavor.B),
        "_signed_table_B-opp": lambda n: cu._signed_table(n, Flavor.B_OPP),
        "_ll_one_rows-sign": lambda n: _ll_one_rows(n)[0],
        "_ll_one_rows-fixed": fixed,
    }


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("table", sorted(_row_tables()))
def test_layer_lattice_sum_matches_the_per_word_sum(table, k):
    # two distinct sources, so that a block read through one source in one
    # row and through the other in another must not share a gather; values
    # with zeros, both signs and past 2^64
    import random

    from ncprob.cumulants import _lattice_sum

    rows_of = _row_tables()[table]
    rng = random.Random(f"{table}-{k}")
    N = 6 if k < 3 else 5
    sources = [[[1]] + [[rng.choice((0, 9, -9, 2**80, -2**80)) for _ in range(k ** n)]
                        for n in range(1, N + 1)] for _ in range(2)]
    by_word = [_by_word(k, layers) for layers in sources]
    for n in range(1, N + 1):
        rows = rows_of(n)
        assert _lattice_sum(rows, sources, n) == [
            _word_lattice_sum(rows, by_word, w) for w in words_of_length(k, n)]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_lattice_sum_of_no_row_a_bare_coefficient_or_cancelling_rows(k):
    # no row sums to zeros; a row with no factor is a constant layer; rows
    # over one factor multiset, read in any order, add their coefficients
    import random

    from ncprob.cumulants import _lattice_sum

    rng = random.Random(f"edge rows {k}")
    sources = [[[1]] + [[rng.randrange(-9, 10) for _ in range(k ** n)] for n in range(1, 4)]
               for _ in range(2)]
    zeros = [0] * k ** 3
    assert _lattice_sum((), sources, 3) == zeros
    assert _lattice_sum(((5,),), sources, 3) == [5] * k ** 3
    assert _lattice_sum(((5, (), ()),), sources, 3) == [5] * k ** 3
    assert _lattice_sum(((3,), (-3, (), ())), sources, 3) == zeros
    assert _lattice_sum(((2, ((0, 2),), ((1,),)), (-2, ((0, 2),), ((1,),))), sources, 3) == zeros
    assert _lattice_sum(((1, ((2,), (0, 1))), (-1, ((0, 1), (2,)))), sources, 3) == zeros


def _by_factors(rows):
    """The rows (coefficient, group, group, ...) as {sorted factors (source,
    block): summed coefficient}, the zero sums dropped."""
    out: dict = {}
    for coeff, *groups in rows:
        key = tuple(sorted((i, b) for i, blocks in enumerate(groups) for b in blocks))
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _circuit_rows(circuit):
    """A circuit's root-to-node paths read back as rows: {sorted factors on
    the path: coefficient of its end}, the zero coefficients dropped."""
    factors, nodes = circuit
    out: dict = {}

    def walk(node, path):
        coeff, edges = nodes[node]
        if coeff:
            key = tuple(sorted(path))
            out[key] = out.get(key, 0) + coeff
        for f, child in edges:
            walk(child, path + (factors[f],))

    walk(len(nodes) - 1, ())
    return out


def test_each_circuit_reads_every_row_of_its_table():
    # every row is one path of its circuit, with its coefficient; equal
    # content, even in a new tuple, gets the same cached circuit
    from ncprob import Flavor
    from ncprob import cumulants as cu
    from ncprob.selftest import _ll_one_rows

    for n in range(1, 8):
        sign_rows, fixed = _ll_one_rows(n)
        tables = [cu._nc_mob_table(n), sign_rows]
        for flavor in Flavor:
            rows = cu._signed_table(n, flavor)
            tables += [rows, tuple(r for r in rows if r[1])]
        tables += [rows for pair in fixed.values() for rows in pair]
        for rows in tables:
            circuit = cu._circuit(rows)
            assert _circuit_rows(circuit) == _by_factors(rows)
            assert cu._circuit(tuple(list(rows))) is circuit
            assert len(circuit[1]) == len(set(circuit[1]))


@pytest.mark.parametrize("theorem, flavor", [("eq5a", "B"), ("eq55a", "B-opp")])
def test_signed_checks_report_the_first_counterexample(monkeypatch, theorem, flavor):
    # doubling one row with a zero-block at n = 3 breaks the rewriting: the
    # layer check must name the first word where a per-word scan with the
    # broken rows fails
    import ncprob.cumulants as cu
    from ncprob import Flavor
    from ncprob.selftest import _families, verify_report

    target, real = Flavor(flavor), cu._signed_table

    def broken(n, f):
        rows = real(n, f)
        if (n, f) != (3, target):
            return rows
        zero = [j for j, row in enumerate(rows) if row[1]]
        i = zero[len(zero) // 2]
        return rows[:i] + ((2 * rows[i][0], *rows[i][1:]),) + rows[i + 1:]

    monkeypatch.setattr(cu, "_signed_table", broken)
    if theorem == "eq5a":
        phi, phip = _families(2, 4, 5, "infinitesimal")
        check, args, want = eq_typeb_counterexample, (phi, phip), phip.values
        sources = (infinitesimal_cumulants(phi, phip).values, free_cumulants(phi).values)
    else:
        phi, chi = _families(2, 4, 5)
        check, args = eq_bopp_counterexample, (phi, chi)
        want = {w: chi(w) - phi(w) for w in all_words(2, 4)}
        sources = (cc_cumulants(phi, chi).values, free_cumulants(phi).values)
    first = next((w for w in all_words(2, 4) if _word_lattice_sum(
        [row for row in broken(len(w), target) if row[1]], sources, w) != want[w]), None)
    assert first is not None and len(first) == 3
    assert check(*args) == first
    report = verify_report(theorem, 5, 2, 4)
    assert report["ok"] is False
    assert report["counterexample"] == list(first)


@pytest.mark.parametrize("k,N", [(1, 8), (2, 5), (3, 4)])
def test_first_difference_matches_the_word_by_word_oracle(k, N):
    # one value off at a random word: the layer helper names the word a
    # per-word scan finds, whether the layers are lists, tuples or lazy
    from random import Random

    from ncprob.cumulants import _first_difference

    rng = Random(f"first-difference {k}")
    for seed in range(8):
        f = random_family(k, N, seed=seed)
        layers = f._layers[1:]
        lists = [list(layer) for layer in layers]
        for got, want in ((layers, layers), (lists, layers), (layers, lists)):
            assert _first_difference(k, got, want) is None
        values = f.values
        values[rng.choice(list(values))] += Fraction(1, 7)
        g = MultilinearFamily(k, N, values)
        oracle = next(w for w in all_words(k, N) if f(w) != g(w))
        assert _first_difference(k, layers, g._layers[1:]) == oracle
        assert _first_difference(k, lists, g._layers[1:]) == oracle
        assert _first_difference(k, (list(x) for x in g._layers[1:]), layers) == oracle


def test_first_difference_refuses_tables_of_unequal_lengths():
    # a difference before the short end is still reported; past it the
    # shorter side would leave degrees unchecked, so it raises
    from ncprob.cumulants import _first_difference, _first_word

    for got, want in (([[1, 2], [1, 2, 3]], [[1, 2], [1, 2, 3, 4]]),
                      ([[1, 2], [1, 2, 3, 4]], [[1, 2]]), ([[1, 2]], [[1, 2], [1, 2, 3, 4]])):
        with pytest.raises(ValueError):
            _first_difference(2, got, want)
        with pytest.raises(ValueError):
            _first_difference(2, iter(got), want)
    with pytest.raises(ValueError):
        _first_word(2, 2, [1, 2, 3], [1, 2, 3, 4])
    assert _first_difference(2, [[1, 3]], [[1, 2], [1, 2, 3, 4]]) == (2,)
    assert _first_word(2, 2, [1, 2, 0], [1, 2, 3, 4]) == (2, 1)


@pytest.mark.parametrize("side", ("got", "want"))
@pytest.mark.parametrize("target", ("12", "13", "14", "17", "prop41", "prop54", "eq5a", "eq55a"))
def test_each_check_refuses_a_side_a_layer_short(monkeypatch, target, side):
    # with one side a layer short, a check that compared only the common
    # layers would pass on a degree it never checked
    import ncprob.cumulants as cu
    import ncprob.deltastar as ds
    import ncprob.products as pr
    import ncprob.selftest as selftest

    real = cu._first_difference

    def short(k, got, want):
        got, want = list(got), list(want)
        return real(k, got[:-1], want) if side == "got" else real(k, got, want[:-1])

    for module in (cu, ds, pr, selftest):
        monkeypatch.setattr(module, "_first_difference", short)
    with pytest.raises(ValueError, match="shorter|longer"):
        selftest.TARGETS[target].check(0, 2, 4, 1)


# ---------------------------------------------------------------------------
# the cut recursion against the closed-block enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _closed_blocks(n):
    """(V, gaps of V) for the 2^(n-2) blocks V holding both 0 and n-1, or
    the block {0} when n = 1."""
    rows = []
    for mask in range(1 << max(n - 2, 0)):
        block = sorted({0, n - 1} | {i + 1 for i in range(n - 2) if mask >> i & 1})
        gaps = tuple((a + 1, b) for a, b in zip(block, block[1:]) if b > a + 1)
        rows.append((block, gaps))
    return rows


def _brute_closed(block, dblock, inner, dinner, w):
    """The closed sum over dual numbers by its definition: over every block V
    holding both ends of w, block(w|V) times inner on each gap of V."""
    total = dtotal = 0
    for block_positions, gaps in _closed_blocks(len(w)):
        v = tuple(w[i] for i in block_positions)
        a, da = block[v], dblock[v]
        for lo, hi in gaps:
            u = w[lo:hi]
            a, da = a * inner[u], a * dinner[u] + da * inner[u]
        total += a
        dtotal += da
    return total, dtotal


@pytest.mark.parametrize("zeros", (False, True))
@pytest.mark.parametrize("N", (1, 2, 9))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_cut_recursion_matches_the_closed_block_enumeration(k, N, zeros):
    # The lattice-definition tests below stop at N = 6, where the cut
    # recursion and the 2^(n-2) closed blocks differ least; here they meet
    # up to n = 9 on graded ints with zeros, negatives and values past 2^64,
    # and at N = 1 and 2, where no cut fits.  The kernel reads dense layers
    # by rank; the oracle reads the same values keyed by word.  At most 256
    # words of each length are summed by brute force.
    import random

    from ncprob.cumulants import _blank, _closed

    rng = random.Random(90 + k)

    def graded():
        return [[1]] + [
            [0 if zeros else rng.choice((0, rng.randint(-9, 9), rng.randint(-2**80, 2**80)))
             for _ in range(k ** n)]
            for n in range(1, N + 1)]

    inputs = [graded() for _ in range(6)]
    block, dblock, inner, dinner, target, dtarget = inputs
    forward = _closed((block,), (inner,), _blank(N), False)
    solved = _closed(_blank(N), (inner,), (target,), True)
    # the dual forward pass runs length by length on one table of Q columns,
    # as the inverse transforms call it
    dforward, Q = _blank(N, 2), {}
    for n in range(1, N + 1):
        _closed((block, dblock), (inner, dinner), dforward, False, (n,), Q)
    dsolved = _closed(_blank(N, 2), (inner, dinner), (target, dtarget), True)
    outputs = [*forward, *solved, *dforward, *dsolved]
    for layers in outputs:
        assert [len(layer) for layer in layers[1:]] == [k ** n for n in range(1, N + 1)]
    block, dblock, inner, dinner, target, dtarget = (_by_word(k, t) for t in inputs)
    forward, solved, *dual = (_by_word(k, t) for t in outputs)
    zero = dict.fromkeys(block, 0)
    for n in range(1, N + 1):
        layer = words_of_length(k, n)
        for w in rng.sample(layer, min(len(layer), 256)):
            assert forward[w] == _brute_closed(block, zero, inner, zero, w)[0]
            assert target[w] == _brute_closed(solved, zero, inner, zero, w)[0]
            assert (dual[0][w], dual[1][w]) == _brute_closed(block, dblock, inner, dinner, w)
            assert (target[w], dtarget[w]) == _brute_closed(dual[2], dual[3], inner, dinner, w)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k,N", [(1, 9), (2, 6), (3, 5)])
def test_cfree_moments_read_the_moments_one_degree_short(k, N, seed):
    # the closed sums read the moments only in gaps, at degree N - 2 or
    # less, and take their degree from the c-free cumulants: the intertwining
    # checks pass the free moments of a product one degree short
    from ncprob.cumulants import _graded, _moments_cfree

    _, (p, kc) = _graded(random_family(k, N, seed), random_family(k, N, seed + 1))
    assert _moments_cfree(p[:-1], kc) == _moments_cfree(p, kc)


# ---------------------------------------------------------------------------
# every transform against its lattice definition
# ---------------------------------------------------------------------------

def _lattice_oracles():
    """name -> (input kinds, expected(inputs, output)): the values each
    public transform must have, or for the cumulant directions the values
    it must reproduce, written as kernel sums over the lattice tables."""
    from ncprob import Flavor
    from ncprob.cumulants import _nc_mob_table, _signed_table
    from ncprob.nc import _interval_range

    def nc_one(n):
        return [(1, blocks) for _, blocks in _nc_mob_table(n)]

    def signed_intervals(n):
        return [((-1) ** (len(blocks) - 1), blocks) for blocks in _interval_range(n)]

    def intervals(n):
        return [(1, blocks) for blocks in _interval_range(n)]

    def marked(table):
        # one distinguished block, in a group of its own, per row and block
        return lambda n: [
            (c, (b[i],), b[:i] + b[i + 1:]) for c, b in table(n) for i in range(len(b))
        ]

    def lattice(rows_of, *sources):
        k, N = sources[0].k, sources[0].N
        vals = [f.values for f in sources]
        return {w: _word_lattice_sum(rows_of(len(w)), vals, w) for w in all_words(k, N)}

    def kphi(phi):
        return MultilinearFamily(phi.k, phi.N, lattice(_nc_mob_table, phi))

    def unique_outer(n):
        # pi << 1_n weighted by mu(pi, 1_n): the outer block, then the others
        return [(mob, blocks[:1], blocks[1:]) for mob, blocks in _nc_mob_table(n)
                if blocks[0][-1] == n - 1]

    def bopp(n):
        return _signed_table(n, Flavor.B_OPP)

    def explicit(phi, chi):
        bchi = MultilinearFamily(chi.k, chi.N, lattice(signed_intervals, chi))
        return lattice(unique_outer, bchi, phi)

    return {
        "free_cumulants": (
            ("moment",), lambda a, out: (out.values, lattice(_nc_mob_table, *a))),
        "moments_from_free": (
            ("free-cumulant",), lambda a, out: (out.values, lattice(nc_one, *a))),
        "boolean_cumulants": (
            ("moment",), lambda a, out: (out.values, lattice(signed_intervals, *a))),
        "moments_from_boolean": (
            ("boolean-cumulant",), lambda a, out: (out.values, lattice(intervals, *a))),
        "cfree_cumulants": (
            ("moment", "moment"),
            lambda a, out: (a[1].values, lattice(_roles_table, kphi(a[0]), out))),
        "moments_from_cfree": (
            ("moment", "cfree-cumulant"),
            lambda a, out: (out.values, lattice(_roles_table, kphi(a[0]), a[1]))),
        "cfree_explicit": (
            ("moment", "moment"), lambda a, out: (out.values, explicit(*a))),
        "cc_cumulants": (
            ("moment", "moment"),
            lambda a, out: (a[1].values, lattice(bopp, out, kphi(a[0])))),
        "moments_from_cc": (
            ("moment", "cc-cumulant"),
            lambda a, out: (out.values, lattice(bopp, a[1], kphi(a[0])))),
        "infinitesimal_cumulants": (
            ("moment", "infinitesimal"),
            lambda a, out: (out.values, lattice(marked(_nc_mob_table), a[1], a[0]))),
        "infinitesimal_moments": (
            ("free-cumulant", "infinitesimal-cumulant"),
            lambda a, out: (out.values, lattice(marked(nc_one), a[1], a[0]))),
    }


_ORACLES = _lattice_oracles()


def _check_against_lattice(name, inputs):
    import ncprob

    _, expected = _ORACLES[name]
    got, want = expected(inputs, getattr(ncprob, name)(*inputs))
    assert got == want


@pytest.mark.parametrize("name", sorted(_ORACLES))
@given(k=st.integers(1, 3), N=st.integers(1, 6), seed=st.integers(0, 10**6))
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
def test_transform_equals_its_lattice_definition(name, k, N, seed):
    if name in ("cc_cumulants", "moments_from_cc"):
        N = min(N, 5)
    kinds, _ = _ORACLES[name]
    inputs = [random_family(k, N, seed=seed + i, kind=kind) for i, kind in enumerate(kinds)]
    _check_against_lattice(name, inputs)


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_transform_lattice_definition_on_large_and_zero_values(name):
    # coprime denominators make the lcm large and every term's scale differ;
    # the zero family has lcm 1 and only zero terms
    kinds, _ = _ORACLES[name]
    pool = [Fraction(1, 7), Fraction(-1, 11), Fraction(1, 9973), Fraction(3, 77)]
    words = list(all_words(2, 4))
    for values in (
        [{w: pool[(i + j + len(w)) % len(pool)] for j, w in enumerate(words)}
         for i in range(len(kinds))],
        [{w: 0 for w in words} for _ in kinds],
    ):
        inputs = [MultilinearFamily(2, 4, v, kind=kind) for v, kind in zip(values, kinds)]
        _check_against_lattice(name, inputs)
