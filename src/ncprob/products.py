"""Free products and additive convolutions, free / c-free / infinitesimal.

Everything is constructed in cumulant space, exactly as the defining
prescriptions state it: products concatenate cumulants block-diagonally
with vanishing mixed terms, convolutions add cumulants entrywise, and the
moment tables are then rebuilt through the inverse transforms.  Each op
grades its inputs once, at one D, runs the layer entries of `cumulants`,
joins the cumulant layers (a scatter to their ranks over k1 + k2 letters,
or an entrywise sum) and ungrades each output family once.  The
infinitesimal operations get the free and the infinitesimal layers, both
ways, from one pass over dual numbers.
"""

from operator import add

from .errors import DegreeMismatch, DegreeTooLow, NotTracial, ShapeMismatch
from .families import MultilinearFamily, is_tracial, truncate
from .cumulants import (
    _cfree, _dual, _first_difference, _graded, _moments, _moments_cfree, _ungraded)
from .deltastar import psi_k


def _block_diagonal(k1: int, k2: int):
    """The join of layers over k1 and over k2 letters into layers over
    K = k1 + k2: a word of one group keeps its value, the second group's
    letters raised by k1, and a mixed word gets zero.  Each group's ranks
    over K letters are built a length at a time, in the group's rank order."""
    K = k1 + k2

    def join(x: list, y: list) -> list:
        out, groups = [[1]], ((x, range(k1), [0]), (y, range(k1, K), [0]))
        for n in range(1, len(x)):
            out.append([0] * K ** n)
            for layers, digits, ranks in groups:
                ranks[:] = [r * K + d for r in ranks for d in digits]
                for r, v in zip(ranks, layers[n]):
                    out[n][r] = v
        return out
    return join


def _entrywise(x: list, y: list) -> list:
    """The join of two families of layers over the same words: their sum."""
    return [[1]] + [list(map(add, a, b)) for a, b in zip(x[1:], y[1:])]


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


def _free_op(join, K: int, mu1, mu2) -> MultilinearFamily:
    """The moments over K letters with mu1's and mu2's free cumulants joined."""
    D, (p1, p2) = _graded(mu1, mu2)
    kappa = join(_cfree(p1, p1, mu1.k), _cfree(p2, p2, mu2.k))
    return _ungraded(D, _moments((kappa,), K)[0], K, "moment")


def _cfree_op(join, K: int, mu1, nu1, mu2, nu2):
    """(Moments, c-free moments) over K letters with the two pairs' cumulants joined."""
    D, (p1, c1, p2, c2) = _graded(mu1, nu1, mu2, nu2)
    kappa = join(_cfree(p1, p1, mu1.k), _cfree(p2, p2, mu2.k))
    kc = join(_cfree(p1, c1, mu1.k), _cfree(p2, c2, mu2.k))
    mu = _moments((kappa,), K)[0]
    return _ungraded(D, mu, K, "moment"), _ungraded(D, _moments_cfree(mu, kc, K), K, "moment")


def _infinitesimal_op(join, K: int, mu1, mu1p, mu2, mu2p):
    """(Moments, derivative family) over K letters with the pairs' cumulants joined."""
    D, (p1, dp1, p2, dp2) = _graded(mu1, mu1p, mu2, mu2p)
    (k1, dk1), (k2, dk2) = _dual(p1, dp1, mu1.k), _dual(p2, dp2, mu2.k)
    mu, mup = _moments((join(k1, k2), join(dk1, dk2)), K)
    return _ungraded(D, mu, K, "moment"), _ungraded(D, mup, K, "infinitesimal")


def free_product(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free product of distributions over k and l generators."""
    if mu1.N != mu2.N:
        raise DegreeMismatch(f"degrees differ: {mu1.N} vs {mu2.N}")
    return _free_op(_block_diagonal(mu1.k, mu2.k), mu1.k + mu2.k, mu1, mu2)


def cfree_product(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free product of two pairs; the second output is reconstructed from
    the concatenated c-free cumulant prescription relative to the product."""
    _check_product_pairs(mu1, nu1, mu2, nu2)
    return _cfree_op(_block_diagonal(mu1.k, mu2.k), mu1.k + mu2.k, mu1, nu1, mu2, nu2)


def infinitesimal_product(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free product of two pairs."""
    _check_product_pairs(mu1, mu1p, mu2, mu2p)
    return _infinitesimal_op(_block_diagonal(mu1.k, mu2.k), mu1.k + mu2.k, mu1, mu1p, mu2, mu2p)


def boxplus(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free additive convolution: free cumulants add entrywise."""
    if mu1.k != mu2.k or mu1.N != mu2.N:
        raise ShapeMismatch("inputs must share k and N")
    return _free_op(_entrywise, mu1.k, mu1, mu2)


def boxplus_c(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free additive convolution of two pairs over one generator set."""
    _check_convolution_pairs(mu1, nu1, mu2, nu2)
    return _cfree_op(_entrywise, mu1.k, mu1, nu1, mu2, nu2)


def boxplus_b(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free additive convolution of two pairs."""
    _check_convolution_pairs(mu1, mu1p, mu2, mu2p)
    return _infinitesimal_op(_entrywise, mu1.k, mu1, mu1p, mu2, mu2p)


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
    return _first_difference(mup.k, mup._layers[1:], psi_k(nu)._layers[1:])


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
