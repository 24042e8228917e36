"""The six identity checks on graded layers against their Fraction form.

Each check grades its inputs once and compares its two sides as ints at one
scale.  The oracles here are the same identities composed of the public
`Fraction` transforms, compared word by word.
"""

import sys
from fractions import Fraction

import pytest

from ncprob import (
    DeltaTensor,
    MultilinearFamily,
    all_words,
    boolean_cumulants,
    build_family,
    boxplus_b,
    boxplus_c,
    cfree_cumulants,
    cfree_explicit,
    cfree_product,
    convolution_intertwine_counterexample,
    cumulant_transform_counterexample,
    cyclic_cumulant_counterexample,
    delta_star,
    diagonal_delta,
    free_cumulants,
    infinitesimal_cumulants,
    infinitesimal_product,
    moments_from_cc,
    product_intertwine_counterexample,
    psi_k,
    random_delta,
    truncate,
)
from ncprob.selftest import (
    TARGETS, _cc_difference_failure, _explicit_failure, _families, _pair, _pairs, verify_report)


def _first_differing_word(got, want):
    """The first word of got's degree where the two functionals differ."""
    return next((w for w in all_words(got.k, got.N) if got(w) != want(w)), None)


def _intertwine(c_op, b_op, mu1, nu1, mu2, nu2):
    _, nu = c_op(mu1, nu1, mu2, nu2)
    _, mup = b_op(truncate(mu1, mu1.N - 1), psi_k(nu1), truncate(mu2, mu2.N - 1), psi_k(nu2))
    return _first_differing_word(mup, psi_k(nu))


def _transform(delta, phi, chi):
    phi_prime = delta_star(delta, boolean_cumulants(chi))
    lhs = infinitesimal_cumulants(truncate(phi, phi.N - 1), phi_prime)
    return _first_differing_word(lhs, delta_star(delta, cfree_cumulants(phi, chi)))


def _cc_difference(phi, chi):
    kc, kf = cfree_cumulants(phi, chi), free_cumulants(phi)
    diff = build_family(phi.k, phi.N, lambda w: kc(w) - kf(w), "cc-cumulant")
    return _first_differing_word(moments_from_cc(phi, diff), chi)


# target -> (graded check, Fraction oracle); both take the same inputs
CHECKS = {
    "12": (convolution_intertwine_counterexample,
           lambda *a: _intertwine(boxplus_c, boxplus_b, *a)),
    "13": (product_intertwine_counterexample,
           lambda *a: _intertwine(cfree_product, infinitesimal_product, *a)),
    "14": (cyclic_cumulant_counterexample,
           lambda mu, nu: _transform(diagonal_delta(mu.k), mu, nu)),
    "17": (cumulant_transform_counterexample, _transform),
    "prop41": (_explicit_failure, lambda phi, chi: _first_differing_word(
        cfree_explicit(phi, chi), cfree_cumulants(phi, chi))),
    "prop54": (_cc_difference_failure, _cc_difference),
}


def _seeded(target, k, N, seed):
    """The inputs `verify` draws for the target at family degree N."""
    return {
        "12": lambda: _pairs(k, k, N, seed),
        "13": lambda: _pairs(k, 2, N, seed),
        "14": lambda: _pair(k, N, seed),
        "17": lambda: (random_delta(k, seed=seed + 2), *_pair(k, N, seed)),
        "prop41": lambda: _families(k, N, seed),
        "prop54": lambda: _families(k, N, seed),
    }[target]()


_POOL = [Fraction(1, 9973), Fraction(3, 77), Fraction(-1, 11), Fraction(5, 13)]


def _coprime(target, k, N):
    """Inputs whose families each take multiples of their own value in
    _POOL, so no two share a denominator; every family is tracial (its
    value depends on the letters' sum and the length), and the tensor's
    denominator is 7."""
    def family(i, g):
        return MultilinearFamily(
            g, N, {w: _POOL[i] * (1 + (sum(w) + len(w)) % 3) for w in all_words(g, N)})

    if target in ("12", "13"):
        ks = (k, k, k + 1, k + 1) if target == "13" else (k,) * 4
        return tuple(family(i, g) for i, g in enumerate(ks))
    if target == "17":
        delta = DeltaTensor(k, {(i, j, l): Fraction(1 + (i + 2 * j + l) % 3, 7)
                                for i in range(1, k + 1) for j in range(1, k + 1)
                                for l in range(1, k + 1)})
        return delta, family(0, k), family(1, k)
    return family(0, k), family(1, k)


@pytest.mark.parametrize("target", sorted(CHECKS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_graded_check_equals_its_fraction_form_on_seeded_inputs(target, k):
    check, oracle = CHECKS[target]
    N = 5 if k < 3 else 4
    for seed in (0, 7):
        args = _seeded(target, k, N, seed)
        assert check(*args) == oracle(*args)


@pytest.mark.parametrize("target", sorted(CHECKS))
@pytest.mark.parametrize("k", [1, 2])
def test_graded_check_equals_its_fraction_form_on_coprime_denominators(target, k):
    check, oracle = CHECKS[target]
    args = _coprime(target, k, 4)
    assert check(*args) == oracle(*args)


_PUBLIC_TRANSFORMS = (
    "free_cumulants", "moments_from_free", "boolean_cumulants", "moments_from_boolean",
    "infinitesimal_cumulants", "infinitesimal_moments", "cfree_cumulants",
    "moments_from_cfree", "cfree_explicit", "cc_cumulants", "moments_from_cc",
    "delta_star", "psi_delta", "psi_k", "free_product", "cfree_product",
    "infinitesimal_product", "boxplus", "boxplus_c", "boxplus_b",
)


def test_targets_build_no_fraction_family_on_the_way(monkeypatch):
    # with _ungraded, truncate and every public transform raising in every
    # namespace that binds them, every TARGETS row still passes, and each of
    # the six identity checks grades its inputs exactly once
    calls = []

    def unreachable(*args, **kwargs):
        raise AssertionError("a check left the graded layers")

    for name, module in list(sys.modules.items()):
        if name == "ncprob" or name.startswith("ncprob."):
            for attr in ("_ungraded", "truncate", *_PUBLIC_TRANSFORMS):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, unreachable)
            if hasattr(module, "_graded"):
                real = module._graded
                monkeypatch.setattr(module, "_graded",
                                    lambda *f, real=real: calls.append(1) or real(*f))
    for target in TARGETS:
        for k in (1, 2):
            calls.clear()
            assert verify_report(target, 3, k, 4)["ok"]
            if target in CHECKS:
                assert len(calls) == 1, target


def test_prop54_reads_the_whole_word_row(monkeypatch):
    # doubling the one row whose zero-block is the whole word, at length 3,
    # adds the signed-lattice cumulants there to the sum, so the check fails
    import ncprob.selftest as selftest

    real = selftest._signed_table

    def doubled(n, flavor):
        whole = (tuple(range(n)),)
        return tuple((2 * c, zero, pairs) if n == 3 and zero == whole else (c, zero, pairs)
                     for c, zero, pairs in real(n, flavor))

    monkeypatch.setattr(selftest, "_signed_table", doubled)
    for seed in range(3):
        assert TARGETS["prop54"].check(seed, 2, 4, 1) is not None
