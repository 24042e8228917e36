"""Free products and additive convolutions, free / c-free / infinitesimal.

Everything is constructed in cumulant space, exactly as the defining
prescriptions state it: products concatenate cumulants block-diagonally
with vanishing mixed terms, convolutions add cumulants entrywise, and the
moment tables are then rebuilt through the inverse transforms.  Each op
checks its inputs (a convolution's by `families._require_same_shape`),
grades them once, at one D, and ungrades each output once.  Every graded
core reads its degree and its letter counts, k1 and k2, off its layers.
One core, `_joined`, serves the free and the infinitesimal ops: it runs
the dual pass of `cumulants` on jets of one part or two, joins the
cumulant layers part by part (a scatter to their ranks over k1 + k2
letters, or an entrywise sum) and runs the moments pass back.  The
intertwining checks run the same cores on one grading and build no
Fraction, and take one free pass: the c-free side reads the real part of
the infinitesimal side's `_joined`, one degree short, as its closed sums
read moments only in gaps; psi reads those sums, the c-free moments' beta.
"""

from operator import add

from .errors import DegreeMismatch, DegreeTooLow, NotTracial, ShapeMismatch
from .families import MultilinearFamily, _require_same_shape, diagonal_delta, is_tracial
from .cumulants import (
    _boolean, _cfree, _closed_sums, _dual, _first_difference, _graded, _moments, _moments_cfree,
    _ungraded)
from .deltastar import _graded_delta_star


def _block_diagonal(x: list, y: list) -> list:
    """The join of layers x over k1 and y over k2 letters, each count read
    off its layer 1, into layers over K = k1 + k2: a word of one group keeps
    its value, the second group's letters raised by k1, and a mixed word
    gets zero.  Each group's ranks over K letters are built a length at a
    time, in the group's rank order."""
    k1, K = len(x[1]), len(x[1]) + len(y[1])
    out, groups = [[1]], ((x, range(k1), [0]), (y, range(k1, K), [0]))
    for n in range(1, len(x)):
        out.append([0] * K ** n)
        for layers, digits, ranks in groups:
            ranks[:] = [r * K + d for r in ranks for d in digits]
            for r, v in zip(ranks, layers[n]):
                out[n][r] = v
    return out


def _entrywise(x: list, y: list) -> list:
    """The join of two families of layers over the same words: their sum."""
    return [[1]] + [list(map(add, a, b)) for a, b in zip(x[1:], y[1:])]


def _check_product_pairs(mu1, s1, mu2, s2) -> None:
    if not (mu1.N == s1.N == mu2.N == s2.N):
        raise DegreeMismatch("all four inputs must share one degree")
    if mu1.k != s1.k or mu2.k != s2.k:
        raise ShapeMismatch("each pair must share its generator count")


def _joined(join, jet1: tuple, jet2: tuple) -> tuple:
    """The graded moments jet whose free cumulant jet joins, part by part,
    those of the moments jets jet1 and jet2."""
    return _moments(tuple(map(join, _dual(jet1), _dual(jet2))))


def _joined_cfree(join, jet1: tuple, jet2: tuple) -> tuple:
    """(Moments, c-free moments), graded, with the free and c-free cumulants
    of the graded pairs jet1 = (p1, c1) and jet2 joined."""
    (mu,) = _joined(join, jet1[:1], jet2[:1])
    return mu, _moments_cfree(mu, join(_cfree(*jet1), _cfree(*jet2)))


def _op(join, pair1: tuple, pair2: tuple, core=_joined, kind="infinitesimal") -> tuple:
    """Grade the two pairs at one D and build with core the moments and, for
    pairs of two families, a second family of that kind."""
    D, layers = _graded(*pair1, *pair2)
    out = core(join, tuple(layers[:len(pair1)]), tuple(layers[len(pair1):]))
    return tuple(_ungraded(D, x, tag) for x, tag in zip(out, ("moment", kind)))


def free_product(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free product of distributions over k and l generators."""
    if mu1.N != mu2.N:
        raise DegreeMismatch(f"degrees differ: {mu1.N} vs {mu2.N}")
    return _op(_block_diagonal, (mu1,), (mu2,))[0]


def cfree_product(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free product of two pairs; the second output is reconstructed from
    the concatenated c-free cumulant prescription relative to the product."""
    _check_product_pairs(mu1, nu1, mu2, nu2)
    return _op(_block_diagonal, (mu1, nu1), (mu2, nu2), _joined_cfree, "moment")


def infinitesimal_product(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free product of two pairs."""
    _check_product_pairs(mu1, mu1p, mu2, mu2p)
    return _op(_block_diagonal, (mu1, mu1p), (mu2, mu2p))


def boxplus(mu1: MultilinearFamily, mu2: MultilinearFamily) -> MultilinearFamily:
    """Free additive convolution: free cumulants add entrywise."""
    _require_same_shape(mu1, mu2)
    return _op(_entrywise, (mu1,), (mu2,))[0]


def boxplus_c(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """c-free additive convolution of two pairs over one generator set."""
    _require_same_shape(mu1, nu1, mu2, nu2)
    return _op(_entrywise, (mu1, nu1), (mu2, nu2), _joined_cfree, "moment")


def boxplus_b(
    mu1: MultilinearFamily,
    mu1p: MultilinearFamily,
    mu2: MultilinearFamily,
    mu2p: MultilinearFamily,
) -> tuple[MultilinearFamily, MultilinearFamily]:
    """Infinitesimal free additive convolution of two pairs."""
    _require_same_shape(mu1, mu1p, mu2, mu2p)
    return _op(_entrywise, (mu1, mu1p), (mu2, mu2p))


# ---------------------------------------------------------------------------
# Verification: the cyclic Boolean-cumulant map intertwines the c-free and
# infinitesimal operations
# ---------------------------------------------------------------------------

def _intertwine_counterexample(check_pairs, join, mu1, nu1, mu2, nu2):
    """The intertwining statement for the ops that join cumulants by join,
    both sides at the scale D**(n+1) of `_graded_delta_star` at the
    diagonal tensor, to which the infinitesimal part is linear."""
    check_pairs(mu1, nu1, mu2, nu2)
    if mu1.N < 2:
        raise DegreeTooLow("inputs must have degree at least 2")
    if not is_tracial(mu1) or not is_tracial(mu2):
        raise NotTracial("mu1 and mu2 must be tracial")
    _, (p1, c1, p2, c2) = _graded(mu1, nu1, mu2, nu2)
    b1, b2 = _boolean(c1), _boolean(c2)
    mu, mup = _joined(join, (p1[:-1], _graded_delta_star(diagonal_delta(mu1.k), b1)[1]),
                      (p2[:-1], _graded_delta_star(diagonal_delta(mu2.k), b2)[1]))
    beta, K = _closed_sums(mu, join(_cfree(p1, c1, b1), _cfree(p2, c2, b2))), len(mu[1])
    psi = _graded_delta_star(diagonal_delta(K), beta)[1]
    return _first_difference(K, mup[1:], psi[1:])


def product_intertwine_counterexample(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
):
    """Free-product statement: the cyclic Boolean-cumulant map intertwines
    the c-free and the infinitesimal free products.  Inputs at degree N+1,
    comparison at degree N.  Returns a failing word or None."""
    return _intertwine_counterexample(_check_product_pairs, _block_diagonal, mu1, nu1, mu2, nu2)


def convolution_intertwine_counterexample(
    mu1: MultilinearFamily,
    nu1: MultilinearFamily,
    mu2: MultilinearFamily,
    nu2: MultilinearFamily,
):
    """Convolution statement, same shape as the product one.  Inputs at
    degree N+1, comparison at degree N.  Returns a failing word or None."""
    return _intertwine_counterexample(_require_same_shape, _entrywise, mu1, nu1, mu2, nu2)
