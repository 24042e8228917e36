import itertools
from fractions import Fraction

import pytest

from ncprob import (
    DegreeMismatch,
    MultilinearFamily,
    NotTracial,
    ShapeMismatch,
    all_words,
    boxplus,
    boxplus_b,
    boxplus_c,
    build_family,
    cfree_cumulants,
    cfree_product,
    convolution_intertwine_counterexample,
    enumerate_nc,
    free_cumulants,
    free_product,
    infinitesimal_cumulants,
    infinitesimal_moments,
    infinitesimal_product,
    moments_from_cfree,
    moments_from_free,
    product_intertwine_counterexample,
    random_family,
    random_tracial,
    relabel,
    words_of_length,
    zero_family,
)


def ones(n):
    return tuple([1] * n)


def semicircle_moments(scale, degree):
    kappa = MultilinearFamily(
        1,
        degree,
        {ones(n): Fraction(scale if n == 2 else 0) for n in range(1, degree + 1)},
        kind="free-cumulant",
    )
    return moments_from_free(kappa)


# ---------------------------------------------------------------------------
# free product
# ---------------------------------------------------------------------------

def test_free_product_restrictions():
    mu1 = random_family(2, 4, seed=1)
    mu2 = random_family(1, 4, seed=2)
    out = free_product(mu1, mu2)
    assert out.k == 3
    for w in all_words(2, 4):
        assert out(w) == mu1(w)
    shifted = relabel(mu2, 2)
    for w in all_words(1, 4):
        assert out(tuple(x + 2 for x in w)) == shifted(tuple(x + 2 for x in w))


def test_free_product_mixed_cumulants_vanish():
    out = free_product(random_family(2, 4, seed=3), random_family(1, 4, seed=4))
    kappa = free_cumulants(out)
    for w in all_words(3, 4):
        if any(x <= 2 for x in w) and any(x > 2 for x in w):
            assert kappa(w) == 0


def test_free_product_mixed_moment_factorizes():
    mu1 = semicircle_moments(1, 4)
    mu2 = semicircle_moments(1, 4)
    out = free_product(mu1, mu2)
    assert out((1, 2)) == out((1,)) * out((2,)) == 0


def test_free_product_trivial_factor():
    mu1 = random_family(2, 4, seed=5)
    triv = moments_from_free(zero_family(1, 4, kind="free-cumulant"))
    out = free_product(mu1, triv)
    kappa = free_cumulants(out)
    for w in all_words(2, 4):
        assert out(w) == mu1(w)
    for w in all_words(1, 4):
        assert kappa(tuple(x + 2 for x in w)) == 0


def test_free_product_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        free_product(random_family(1, 3, seed=6), random_family(1, 4, seed=7))


# ---------------------------------------------------------------------------
# c-free and infinitesimal products
# ---------------------------------------------------------------------------

def test_cfree_product_restrictions():
    mu1, nu1 = random_family(2, 4, seed=8), random_family(2, 4, seed=9)
    mu2, nu2 = random_family(1, 4, seed=10), random_family(1, 4, seed=11)
    mu, nu = cfree_product(mu1, nu1, mu2, nu2)
    for w in all_words(2, 4):
        assert nu(w) == nu1(w)
    shifted = relabel(nu2, 2)
    for w in all_words(1, 4):
        sw = tuple(x + 2 for x in w)
        assert nu(sw) == shifted(sw)


def test_cfree_product_mixed_cumulants_vanish():
    mu1, nu1 = random_family(1, 4, seed=12), random_family(1, 4, seed=13)
    mu2, nu2 = random_family(1, 4, seed=14), random_family(1, 4, seed=15)
    mu, nu = cfree_product(mu1, nu1, mu2, nu2)
    kc = cfree_cumulants(mu, nu)
    for w in all_words(2, 4):
        if len(set(w)) == 2:
            assert kc(w) == 0


def test_cfree_product_collapses_to_free():
    mu1 = random_family(1, 4, seed=16)
    mu2 = random_family(1, 4, seed=17)
    mu, nu = cfree_product(mu1, mu1, mu2, mu2)
    assert nu == mu == free_product(mu1, mu2)


def test_infinitesimal_product_restrictions_and_zero():
    mu1, mu2 = random_family(2, 4, seed=18), random_family(1, 4, seed=19)
    p1 = random_family(2, 4, seed=20, kind="infinitesimal")
    p2 = random_family(1, 4, seed=21, kind="infinitesimal")
    mu, mup = infinitesimal_product(mu1, p1, mu2, p2)
    assert mu == free_product(mu1, mu2)
    for w in all_words(2, 4):
        assert mup(w) == p1(w)
    shifted = relabel(p2, 2)
    for w in all_words(1, 4):
        sw = tuple(x + 2 for x in w)
        assert mup(sw) == shifted(sw)
    _, z = infinitesimal_product(mu1, zero_family(2, 4), mu2, zero_family(1, 4))
    assert all(z(w) == 0 for w in all_words(3, 4))


def test_infinitesimal_product_mixed_cumulants_vanish():
    mu1, mu2 = random_family(1, 4, seed=22), random_family(1, 4, seed=23)
    p1 = random_family(1, 4, seed=24, kind="infinitesimal")
    p2 = random_family(1, 4, seed=25, kind="infinitesimal")
    mu, mup = infinitesimal_product(mu1, p1, mu2, p2)
    kp = infinitesimal_cumulants(mu, mup)
    for w in all_words(2, 4):
        if len(set(w)) == 2:
            assert kp(w) == 0


def test_infinitesimal_product_against_written_out_sum():
    # recompute the derivative moments from the prescribed cumulants by a
    # literal distinguished-block expansion over the lattice
    mu1, mu2 = random_family(1, 4, seed=26), random_family(1, 4, seed=27)
    p1 = random_family(1, 4, seed=28, kind="infinitesimal")
    p2 = random_family(1, 4, seed=29, kind="infinitesimal")
    mu, mup = infinitesimal_product(mu1, p1, mu2, p2)
    kappa = free_cumulants(mu)
    kp1 = infinitesimal_cumulants(mu1, p1)
    kp2 = infinitesimal_cumulants(mu2, p2)

    def prescribed(word):
        if all(x == 1 for x in word):
            return kp1(word)
        if all(x == 2 for x in word):
            return kp2(tuple(1 for _ in word))
        return Fraction(0)

    for w in all_words(2, 4):
        total = Fraction(0)
        for pi in enumerate_nc(len(w)):
            for vo in pi.blocks:
                term = prescribed(tuple(w[p - 1] for p in vo))
                for b in pi.blocks:
                    if b != vo:
                        term *= kappa(tuple(w[p - 1] for p in b))
                total += term
        assert total == mup(w)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def test_boxplus_identity_commutativity_associativity():
    triv = moments_from_free(zero_family(1, 4, kind="free-cumulant"))
    m1 = random_family(1, 4, seed=30)
    m2 = random_family(1, 4, seed=31)
    m3 = random_family(1, 4, seed=32)
    assert boxplus(m1, triv) == m1
    assert boxplus(m1, m2) == boxplus(m2, m1)
    assert boxplus(boxplus(m1, m2), m3) == boxplus(m1, boxplus(m2, m3))


def test_boxplus_semicircle_doubling():
    semi = semicircle_moments(1, 4)
    out = boxplus(semi, semi)
    assert out(ones(2)) == 2
    assert out(ones(4)) == 8


def test_boxplus_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        boxplus(random_family(1, 4, seed=33), random_family(2, 4, seed=34))


def test_boxplus_c_degenerate_cases():
    m1, n1 = random_family(1, 4, seed=35), random_family(1, 4, seed=36)
    mu, nu = boxplus_c(m1, m1, m1, m1)
    assert nu == mu
    triv = moments_from_free(zero_family(1, 4, kind="free-cumulant"))
    mu, nu = boxplus_c(m1, n1, triv, triv)
    assert mu == m1 and nu == n1


def test_boxplus_c_against_diagonal_substitution():
    # the two-sided product embedded on doubled generators, then evaluated
    # on sums of matching generators
    def diagonal(f):
        def fn(word):
            total = Fraction(0)
            for choice in itertools.product((0, 1), repeat=len(word)):
                total += f(tuple(w + k for w, k in zip(word, choice)))
            return fn_cache.setdefault(word, total)

        fn_cache: dict = {}
        return build_family(1, f.N, fn, kind="moment")

    a, b = random_family(1, 4, seed=37), random_family(1, 4, seed=38)
    c, d = random_family(1, 4, seed=39), random_family(1, 4, seed=40)
    mu, nu = boxplus_c(a, b, c, d)
    tmu, tnu = cfree_product(a, b, c, d)
    assert mu == diagonal(tmu)
    assert nu == diagonal(tnu)


def test_boxplus_b_degenerate_cases():
    m1 = random_family(1, 4, seed=41)
    p1 = random_family(1, 4, seed=42, kind="infinitesimal")
    triv = moments_from_free(zero_family(1, 4, kind="free-cumulant"))
    mu, mup = boxplus_b(m1, p1, triv, zero_family(1, 4))
    assert mu == m1 and mup == p1
    mu, mup = boxplus_b(m1, zero_family(1, 4), m1, zero_family(1, 4))
    assert all(mup(w) == 0 for w in all_words(1, 4))


def test_boxplus_b_against_written_out_sum():
    m1, m2 = random_family(1, 4, seed=43), random_family(1, 4, seed=44)
    p1 = random_family(1, 4, seed=45, kind="infinitesimal")
    p2 = random_family(1, 4, seed=46, kind="infinitesimal")
    mu, mup = boxplus_b(m1, p1, m2, p2)
    kappa = free_cumulants(mu)
    kp1 = infinitesimal_cumulants(m1, p1)
    kp2 = infinitesimal_cumulants(m2, p2)
    for w in all_words(1, 4):
        total = Fraction(0)
        for pi in enumerate_nc(len(w)):
            for vo in pi.blocks:
                term = kp1(tuple(w[p - 1] for p in vo)) + kp2(
                    tuple(w[p - 1] for p in vo)
                )
                for b in pi.blocks:
                    if b != vo:
                        term *= kappa(tuple(w[p - 1] for p in b))
                total += term
        assert total == mup(w)


# ---------------------------------------------------------------------------
# intertwining of the two frameworks
# ---------------------------------------------------------------------------

def test_convolution_intertwine():
    for s in range(3):
        mu1 = random_family(1, 5, seed=50 + s)
        nu1 = random_family(1, 5, seed=60 + s)
        mu2 = random_family(1, 5, seed=70 + s)
        nu2 = random_family(1, 5, seed=80 + s)
        assert convolution_intertwine_counterexample(mu1, nu1, mu2, nu2) is None
    mu1 = random_tracial(2, 5, seed=90)
    nu1 = random_family(2, 5, seed=91)
    mu2 = random_tracial(2, 5, seed=92)
    nu2 = random_family(2, 5, seed=93)
    assert convolution_intertwine_counterexample(mu1, nu1, mu2, nu2) is None


def test_convolution_intertwine_trivial_second_pair():
    m1 = random_family(1, 5, seed=94)
    n1 = random_family(1, 5, seed=95)
    triv = moments_from_free(zero_family(1, 5, kind="free-cumulant"))
    assert convolution_intertwine_counterexample(m1, n1, triv, triv) is None


def test_product_intertwine():
    for s in range(2):
        mu1 = random_family(1, 4, seed=100 + s)
        nu1 = random_family(1, 4, seed=110 + s)
        mu2 = random_family(1, 4, seed=120 + s)
        nu2 = random_family(1, 4, seed=130 + s)
        assert product_intertwine_counterexample(mu1, nu1, mu2, nu2) is None
    mu1 = random_tracial(2, 4, seed=140)
    nu1 = random_family(2, 4, seed=141)
    mu2 = random_family(1, 4, seed=142)
    nu2 = random_family(1, 4, seed=143)
    assert product_intertwine_counterexample(mu1, nu1, mu2, nu2) is None


def test_product_intertwine_degenerate():
    mu1 = random_family(1, 4, seed=144)
    mu2 = random_family(1, 4, seed=145)
    assert product_intertwine_counterexample(mu1, mu1, mu2, mu2) is None


def test_intertwine_rejects_non_tracial():
    mu1 = random_family(2, 4, seed=146)
    with pytest.raises(NotTracial):
        convolution_intertwine_counterexample(mu1, mu1, mu1, mu1)


def test_cumulant_tables_determine_families():
    # reconstruction depends only on the table, never on its provenance
    f = random_family(2, 4, seed=200)
    k1 = free_cumulants(f)
    k2 = MultilinearFamily(2, 4, k1.values, kind="free-cumulant")
    assert moments_from_free(k1) == moments_from_free(k2) == f


# side -> (the graded core of products it runs, the layers of its output to
# plant the fault in, over the K letters of their layer 1, the word off by
# one there): psi reads the c-free moments one degree up, so it moves on
# (1, 2) where they move on (1, 2, 1)
FAULTS = {
    "infinitesimal": ("_joined", lambda out: out[1], (1, 2)),
    "cfree": ("_moments_cfree", lambda out: out, (1, 2, 1)),
}


@pytest.mark.parametrize("side", sorted(FAULTS))
@pytest.mark.parametrize(
    "check,op",
    [
        ("convolution_intertwine_counterexample", "boxplus_b"),
        ("product_intertwine_counterexample", "infinitesimal_product"),
    ],
)
def test_intertwine_reports_the_word_where_one_side_is_off(monkeypatch, check, op, side):
    # the check runs the graded cores of the ops, not op itself; with one
    # side's core off on one word only, (1, 2), and no earlier word, must
    # come back as the counterexample
    import ncprob.products as pr

    name, layers, word = FAULTS[side]
    real = getattr(pr, name)

    def off(*args):
        out = real(*args)
        planted = layers(out)
        planted[len(word)][words_of_length(len(planted[1]), len(word)).index(word)] += 1
        return out

    def unreachable(*args):
        raise AssertionError(f"{op} called by the check")

    monkeypatch.setattr(pr, name, off)
    monkeypatch.setattr(pr, op, unreachable)
    mu1, nu1 = random_tracial(2, 4, seed=120), random_family(2, 4, seed=121)
    mu2, nu2 = random_tracial(2, 4, seed=122), random_family(2, 4, seed=123)
    assert getattr(pr, check)(mu1, nu1, mu2, nu2) == (1, 2)


@pytest.mark.parametrize("target", ["12", "13"])
def test_intertwine_checks_take_one_free_pass(monkeypatch, target):
    # the c-free side reads the free moments of the infinitesimal side's one
    # two-part pass, and runs no one-part pass of its own
    import ncprob.products as pr
    from ncprob.selftest import verify_report

    real, calls = pr._joined, []

    def unreachable(*args):
        raise AssertionError("_joined_cfree called by the check")

    monkeypatch.setattr(pr, "_joined", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(pr, "_joined_cfree", unreachable)
    assert verify_report(target, 0, 2, 4)["ok"] is True
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the six ops against the public transforms joined as Fraction dicts
# ---------------------------------------------------------------------------

def _concat(c1: dict, k1: int, c2: dict, k2: int, N: int, kind: str) -> MultilinearFamily:
    """Block-diagonal cumulant table over k1+k2 generators: words staying in
    one group keep their cumulant, mixed words get zero."""
    values = {
        w: c1[w] if max(w) <= k1
        else c2[tuple(x - k1 for x in w)] if min(w) > k1
        else Fraction(0)
        for w in all_words(k1 + k2, N)
    }
    return MultilinearFamily(k1 + k2, N, values, kind=kind)


def _add(c1: dict, c2: dict, k: int, N: int, kind: str) -> MultilinearFamily:
    """Entrywise sum of two cumulant tables over the same words."""
    return MultilinearFamily(k, N, {w: c1[w] + c2[w] for w in c1}, kind=kind)


def _oracle(op, mu1, nu1, mu2, nu2):
    """The op composed of public transforms and the dict-level joins."""
    N = mu1.N
    if op in ("free_product", "cfree_product", "infinitesimal_product"):
        join = lambda a, b, kind: _concat(a.values, mu1.k, b.values, mu2.k, N, kind)  # noqa: E731
    else:
        join = lambda a, b, kind: _add(a.values, b.values, mu1.k, N, kind)  # noqa: E731
    kappa = join(free_cumulants(mu1), free_cumulants(mu2), "free-cumulant")
    mu = moments_from_free(kappa)
    if op in ("free_product", "boxplus"):
        return mu
    if op in ("cfree_product", "boxplus_c"):
        kc = join(cfree_cumulants(mu1, nu1), cfree_cumulants(mu2, nu2), "cfree-cumulant")
        return mu, moments_from_cfree(mu, kc)
    kp = join(infinitesimal_cumulants(mu1, nu1), infinitesimal_cumulants(mu2, nu2),
              "infinitesimal-cumulant")
    return mu, infinitesimal_moments(kappa, kp)


_OPS = {
    "free_product": free_product, "cfree_product": cfree_product,
    "infinitesimal_product": infinitesimal_product,
    "boxplus": boxplus, "boxplus_c": boxplus_c, "boxplus_b": boxplus_b,
}
# each of the four inputs is a multiple of its own value, so the first
# pair's and the second pair's denominators differ
_POOL = [Fraction(1, 7), Fraction(-1, 11), Fraction(1, 9973), Fraction(3, 77)]


@pytest.mark.parametrize("op,k,l", [
    (op, k, l) for op in sorted(_OPS) for k, l in ((1, 2), (2, 1), (2, 2))
    if k == l or not op.startswith("boxplus")  # convolutions need one generator set
])
def test_op_equals_public_transforms_joined_as_dicts(op, k, l):
    N = 4
    kinds = ("moment", "infinitesimal" if op in ("infinitesimal_product", "boxplus_b")
             else "moment")
    for make in (
        lambda i, g: {w: _POOL[i] * (1 + (j + len(w)) % 3)
                      for j, w in enumerate(all_words(g, N))},
        lambda i, g: {w: 0 for w in all_words(g, N)},
    ):
        mu1, nu1, mu2, nu2 = (MultilinearFamily(g, N, make(i, g), kind=kinds[i % 2])
                              for i, g in enumerate((k, k, l, l)))
        want = _oracle(op, mu1, nu1, mu2, nu2)
        if op in ("free_product", "boxplus"):
            assert _OPS[op](mu1, mu2) == want
            assert _OPS[op](nu1, nu2) == _oracle(op, nu1, None, nu2, None)
        else:
            assert _OPS[op](mu1, nu1, mu2, nu2) == want
