"""The transforms do not depend on how the letters are named.

Every brand of cumulant is a family of multilinear functionals on V, so a
transform commutes with a renaming s of the letters, (f o s)(w) =
f(s(w_1) ... s(w_n)), and with the pull-back of a family through one row
a = (a_1, ..., a_k) of coefficients,

    (f o a)(1^n) = sum over the words w of length n of a_w1 ... a_wn f(w),

a one-variable family, whose transforms the series oracle of
`test_series_oracle.py` solves with no kernel of `cumulants`.  Delta*
commutes with a renaming when its tensor is renamed the same way.  Each
check runs the letter handling that k = 1 cannot see: the rank maps, the
`mids`/`tails` slices of `_closed` and the strides of `_slot_table`.
"""

import itertools
from fractions import Fraction

import pytest

from ncprob.cumulants import (
    boolean_cumulants,
    cc_cumulants,
    cfree_cumulants,
    cfree_explicit,
    free_cumulants,
    infinitesimal_cumulants,
    infinitesimal_moments,
    moments_from_boolean,
    moments_from_cc,
    moments_from_cfree,
    moments_from_free,
)
from ncprob.deltastar import delta_star
from ncprob.families import DeltaTensor, build_family, random_delta, random_family, words_of_length
from test_series_oracle import _Dual, _boolean, _composed_solve, _free_jet, _moments_of, _times


def _rc(m: list, m_chi: list) -> list:
    """The c-free cumulant series of (phi, chi): B_chi * M = R^c(z M)."""
    return _composed_solve(_times(_boolean(m_chi), m), m)


def _epsilon_moments(r: list, dr: list) -> list:
    """The epsilon-part of M + epsilon M' = 1 + (R + epsilon R')(z (M + epsilon M'))."""
    return [Fraction(0)] + [x.b for x in _moments_of([_Dual(*p) for p in zip(r, dr)])[1:]]


def _minus(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b)]


# (transform, the kinds of its inputs, the oracle's relation): the relation
# maps the output series and the input series to two series that agree
# from degree 1 on; an inverse transform is pinned by its forward solve
TRANSFORMS = {
    "free_cumulants": (free_cumulants, ("moment",),
                       lambda out, m: (out, _composed_solve(m, m))),
    "moments_from_free": (moments_from_free, ("free-cumulant",),
                          lambda out, r: (out, _moments_of(r))),
    "boolean_cumulants": (boolean_cumulants, ("moment",),
                          lambda out, m: (out, _boolean(m))),
    "moments_from_boolean": (moments_from_boolean, ("boolean-cumulant",),
                             lambda out, b: (_boolean(out), b)),
    "infinitesimal_cumulants": (infinitesimal_cumulants, ("moment", "infinitesimal"),
                                lambda out, m, dm: (out, _free_jet(m, dm)[1])),
    "infinitesimal_moments": (infinitesimal_moments, ("free-cumulant", "infinitesimal-cumulant"),
                              lambda out, r, dr: (out, _epsilon_moments(r, dr))),
    "cfree_cumulants": (cfree_cumulants, ("moment", "moment"),
                        lambda out, m, mc: (out, _rc(m, mc))),
    "moments_from_cfree": (moments_from_cfree, ("moment", "cfree-cumulant"),
                           lambda out, m, rc: (_rc(m, out), rc)),
    "cfree_explicit": (cfree_explicit, ("moment", "moment"),
                       lambda out, m, mc: (out, _rc(m, mc))),
    "cc_cumulants": (cc_cumulants, ("moment", "moment"),
                     lambda out, m, mc: (out, _minus(_rc(m, mc), _composed_solve(m, m)))),
    "moments_from_cc": (moments_from_cc, ("moment", "cc-cumulant"),
                        lambda out, m, rcc: (_minus(_rc(m, out), _composed_solve(m, m)), rcc)),
}


def _inputs(kinds: tuple, k: int, N: int, seed: int) -> list:
    return [random_family(k, N, seed + 100 * i, kind=kind) for i, kind in enumerate(kinds)]


def _renamed(f, s: tuple):
    """f o s: the value on w is f's on the word of letters s(w_i)."""
    return build_family(f.k, f.N, lambda w: f(tuple(s[x - 1] for x in w)), kind=f.kind)


def _pulled(f, a: tuple) -> list:
    """The series [unit, (f o a)(1), (f o a)(11), ...] of the pull-back of f
    through the row a, the weights a_w1 ... a_wn listed in rank order."""
    series, weights = [Fraction(f.unit == "one")], [1]
    for n in range(1, f.N + 1):
        weights = [x * y for x in weights for y in a]
        series.append(sum(x * f(w) for x, w in zip(weights, words_of_length(f.k, n))))
    return series


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", TRANSFORMS)
def test_each_transform_commutes_with_every_renaming_of_the_letters(name, k):
    fn, kinds, _ = TRANSFORMS[name]
    ins = _inputs(kinds, k, 5, seed=k)
    out = fn(*ins)
    for s in itertools.permutations(range(1, k + 1)):
        assert fn(*(_renamed(f, s) for f in ins)) == _renamed(out, s), s


@pytest.mark.parametrize("k", [2, 3])
def test_delta_star_commutes_with_a_renaming_of_its_tensor_and_family(k):
    delta, f = random_delta(k, seed=k), random_family(k, 5, seed=k)
    out = delta_star(delta, f)
    entries = {(i, j, l): v for i in range(1, k + 1) for j, l, v in delta.expand(i)}
    for s in itertools.permutations(range(1, k + 1)):
        renamed = DeltaTensor(k, {(i, j, l): entries.get((s[i - 1], s[j - 1], s[l - 1]), 0)
                                  for i, j, l in itertools.product(range(1, k + 1), repeat=3)})
        assert delta_star(renamed, _renamed(f, s)) == _renamed(out, s), s


@pytest.mark.parametrize("name", TRANSFORMS)
def test_each_transform_pulled_back_through_a_row_is_the_series_oracle(name):
    # k = 2, N = 12: one row a with a_1 != a_2 sends every word of the
    # two-letter kernel's output to the one-variable oracle's degree 12
    fn, kinds, relation = TRANSFORMS[name]
    a = (3, -2)
    ins = _inputs(kinds, 2, 12, seed=5)
    got, want = relation(_pulled(fn(*ins), a), *(_pulled(f, a) for f in ins))
    assert got[1:] == want[1:]
