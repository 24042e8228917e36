"""Free products and additive convolutions, free / c-free / infinitesimal.

Everything is constructed in cumulant space, exactly as the defining
prescriptions state it: products concatenate cumulants block-diagonally
with vanishing mixed terms, convolutions add cumulants entrywise, and the
moment tables are then rebuilt through the inverse transforms.  Each
free-cumulant table is computed once; the c-free transforms read the
moments, not the free cumulants, and the infinitesimal operations get the
free and the infinitesimal tables, both ways, from one pass over dual
numbers.
"""

from fractions import Fraction

from .errors import DegreeMismatch, DegreeTooLow, NotTracial, ShapeMismatch
from .families import MultilinearFamily, _first_difference, all_words, is_tracial, truncate
from .cumulants import (
    _free_and_infinitesimal,
    _moments_and_infinitesimal,
    cfree_cumulants,
    free_cumulants,
    moments_from_cfree,
    moments_from_free,
)
from .deltastar import psi_k


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


def _check_product_pairs(mu1, s1, mu2, s2) -> None:
    if not (mu1.N == s1.N == mu2.N == s2.N):
        raise DegreeMismatch("all four inputs must share one degree")
    if mu1.k != s1.k or mu2.k != s2.k:
        raise ShapeMismatch("each pair must share its generator count")


def _check_convolution_pairs(mu1, s1, mu2, s2) -> None:
    if not (mu1.k == s1.k == mu2.k == s2.k):
        raise ShapeMismatch("all four inputs must share k")
    if not (mu1.N == s1.N == mu2.N == s2.N):
        raise ShapeMismatch("all four inputs must share N")


def free_product(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free product of distributions over k and l generators."""
    if mu1.N != mu2.N:
        raise DegreeMismatch(f"degrees differ: {mu1.N} vs {mu2.N}")
    k1, k2 = free_cumulants(mu1)._values, free_cumulants(mu2)._values
    return moments_from_free(_concat(k1, mu1.k, k2, mu2.k, mu1.N, "free-cumulant"))


def cfree_product(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free product of two pairs; the second output is reconstructed from
    the concatenated c-free cumulant prescription relative to the product."""
    _check_product_pairs(mu1, nu1, mu2, nu2)
    k1, k2 = free_cumulants(mu1)._values, free_cumulants(mu2)._values
    c1, c2 = cfree_cumulants(mu1, nu1)._values, cfree_cumulants(mu2, nu2)._values
    kappa = _concat(k1, mu1.k, k2, mu2.k, mu1.N, "free-cumulant")
    kc = _concat(c1, mu1.k, c2, mu2.k, mu1.N, "cfree-cumulant")
    mu = moments_from_free(kappa)
    return mu, moments_from_cfree(mu, kc)


def infinitesimal_product(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free product of two pairs."""
    _check_product_pairs(mu1, mu1p, mu2, mu2p)
    k1, c1 = _free_and_infinitesimal(mu1, mu1p)
    k2, c2 = _free_and_infinitesimal(mu2, mu2p)
    kappa = _concat(k1, mu1.k, k2, mu2.k, mu1.N, "free-cumulant")
    kp = _concat(c1, mu1.k, c2, mu2.k, mu1.N, "infinitesimal-cumulant")
    return _moments_and_infinitesimal(kappa, kp)


def boxplus(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free additive convolution: free cumulants add entrywise."""
    if mu1.k != mu2.k or mu1.N != mu2.N:
        raise ShapeMismatch("inputs must share k and N")
    k1, k2 = free_cumulants(mu1)._values, free_cumulants(mu2)._values
    return moments_from_free(_add(k1, k2, mu1.k, mu1.N, "free-cumulant"))


def boxplus_c(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free additive convolution of two pairs over one generator set."""
    _check_convolution_pairs(mu1, nu1, mu2, nu2)
    k1, k2 = free_cumulants(mu1)._values, free_cumulants(mu2)._values
    c1, c2 = cfree_cumulants(mu1, nu1)._values, cfree_cumulants(mu2, nu2)._values
    kappa = _add(k1, k2, mu1.k, mu1.N, "free-cumulant")
    kc = _add(c1, c2, mu1.k, mu1.N, "cfree-cumulant")
    mu = moments_from_free(kappa)
    return mu, moments_from_cfree(mu, kc)


def boxplus_b(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free additive convolution of two pairs."""
    _check_convolution_pairs(mu1, mu1p, mu2, mu2p)
    k1, c1 = _free_and_infinitesimal(mu1, mu1p)
    k2, c2 = _free_and_infinitesimal(mu2, mu2p)
    kappa = _add(k1, k2, mu1.k, mu1.N, "free-cumulant")
    kp = _add(c1, c2, mu1.k, mu1.N, "infinitesimal-cumulant")
    return _moments_and_infinitesimal(kappa, kp)


# ---------------------------------------------------------------------------
# Verification: the cyclic Boolean-cumulant map intertwines the c-free and
# infinitesimal operations
# ---------------------------------------------------------------------------

def _intertwine_counterexample(check_pairs, c_op, b_op, mu1, nu1, mu2, nu2):
    """Map both second components through the cyclic Boolean-cumulant map and
    combine them with the infinitesimal operation b_op; the result must be
    the image of the second component of the c-free operation c_op."""
    check_pairs(mu1, nu1, mu2, nu2)
    if mu1.N < 2:
        raise DegreeTooLow("inputs must have degree at least 2")
    if not is_tracial(mu1) or not is_tracial(mu2):
        raise NotTracial("mu1 and mu2 must be tracial")
    _, nu = c_op(mu1, nu1, mu2, nu2)
    _, mup = b_op(truncate(mu1, mu1.N - 1), psi_k(nu1), truncate(mu2, mu2.N - 1), psi_k(nu2))
    return _first_difference(mup, psi_k(nu))


def product_intertwine_counterexample(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
):
    """Free-product statement: the cyclic Boolean-cumulant map intertwines
    the c-free and the infinitesimal free products.  Inputs at degree N+1,
    comparison at degree N.  Returns a failing word or None."""
    return _intertwine_counterexample(
        _check_product_pairs, cfree_product, infinitesimal_product, mu1, nu1, mu2, nu2
    )


def verify_product_intertwine(mu1, nu1, mu2, nu2) -> bool:
    return product_intertwine_counterexample(mu1, nu1, mu2, nu2) is None


def convolution_intertwine_counterexample(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
):
    """Convolution statement, same shape as the product one.  Inputs at
    degree N+1, comparison at degree N.  Returns a failing word or None."""
    return _intertwine_counterexample(
        _check_convolution_pairs, boxplus_c, boxplus_b, mu1, nu1, mu2, nu2
    )


def verify_convolution_intertwine(mu1, nu1, mu2, nu2) -> bool:
    return convolution_intertwine_counterexample(mu1, nu1, mu2, nu2) is None
