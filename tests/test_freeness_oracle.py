"""The three products against the moment-level definitions of freeness.

The products join cumulant tables block-diagonally; the tests here use no
cumulant.  Over K = k + l letters, letters 1..k are the first group and the
rest the second, and a word w splits into its maximal runs r_1 ... r_m of
letters from one group, alternating.  Centring each run in a state psi and
expanding the product gives, for m >= 2,

    chi(w) = prod_i (chi(r_i) - psi(r_i))
             - sum over proper subsets S of [m] of
               prod_{i not in S} (-psi(r_i)) * chi(the runs in S, in order),

every word on the right shorter than w.  With chi = psi the product on the
right is zero, and this is freeness (Voiculescu): the state of centred
alternating elements is zero.  With psi the free state it is c-freeness
(Bozejko, Leinert and Speicher): chi multiplies over centred alternating
elements.  Over the dual numbers (epsilon^2 = 0), read at phi + epsilon
phi', freeness is infinitesimal freeness, the same device as in `_dual` and
in the series oracle.  Each value is a jet: one part, or two for a dual
number.

The free state of each product is checked against the recursion built from
the inputs, so it also restricts to them.  The c-free and the infinitesimal
states are checked for the relation between the groups, on the product's
own values on single runs; selftest criterion 13 checks that they restrict
to their inputs.  Target `13` builds its own products on one grading; the
states it builds are read at its D and checked the same way.
"""

from functools import cache

import pytest

from ncprob import cfree_product, free_product, infinitesimal_product, products, random_family
from ncprob.cumulants import _blank, _interval, _ungraded
from ncprob.families import all_words
from ncprob.selftest import TARGETS

SHAPES = [(1, 1, 8), (2, 1, 5)]  # (k, l, N)
CASES = [(*shape, seed) for shape in SHAPES for seed in (0, 1)]
IDS = [f"k{k}-l{l}-N{n}-seed{seed}" for k, l, n, seed in CASES]


def _mul(a: tuple, b: tuple) -> tuple:
    """The product of two jets: part j sums part p of a times part j - p of b."""
    return tuple(sum(a[p] * b[j - p] for p in range(j + 1)) for j in range(len(a)))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _runs(w: tuple, k: int) -> list:
    """The maximal runs of w of letters from one group, 1..k or above k."""
    runs: list = []
    for x in w:
        if runs and (x > k) == (runs[-1][-1] > k):
            runs[-1] += (x,)
        else:
            runs.append((x,))
    return runs


def _joined_state(k: int, single, centre=None):
    """The state over the joined letters, a cached word -> jet map: single
    on the words of at most one run, and on the others the recursion above,
    centred in centre (a word -> jet map read on single runs) or, by
    default, in the state itself."""

    @cache
    def state(w: tuple) -> tuple:
        runs = _runs(w, k)
        if len(runs) < 2:
            return single(w)
        psi = centre or state
        value = single(())
        for r in runs:
            value = _mul(value, _sub(state(r), psi(r)))
        for mask in range(2 ** len(runs) - 1):  # the proper subsets S
            term = state(sum((r for i, r in enumerate(runs) if mask >> i & 1), ()))
            for i, r in enumerate(runs):
                if not mask >> i & 1:
                    term = _mul(term, tuple(-x for x in psi(r)))
            value = _sub(value, term)
        return value

    return state


def _jets(*families):
    """The word -> jet map reading one part from each family, the empty
    word the unit."""
    return lambda w: tuple(f(w) for f in families) if w else (1,) + (0,) * (len(families) - 1)


def _factors(k: int, first, second):
    """The word -> jet map of one run: first on the letters 1..k, second on
    the letters above k, read back down by k."""
    return lambda w: first(w) if not w or w[0] <= k else second(tuple(x - k for x in w))


def _inputs(k: int, l: int, N: int, seed: int):
    """Seeded pairs (mu1, nu1) over k letters and (mu2, nu2) over l, at degree N."""
    return (random_family(k, N, seed=seed), random_family(k, N, seed=seed + 1),
            random_family(l, N, seed=seed + 2), random_family(l, N, seed=seed + 3))


def _assert_state(state, K: int, N: int, *families):
    """Every word of length 1..N over K letters reads the jet of families' values."""
    for w in all_words(K, N):
        assert state(w) == tuple(f(w) for f in families), w


@pytest.mark.parametrize("k, l, N, seed", CASES, ids=IDS)
def test_each_product_has_the_free_product_state(k, l, N, seed):
    # built from the inputs: free on the mixed words, the inputs on one run
    mu1, nu1, mu2, nu2 = _inputs(k, l, N, seed)
    free = _joined_state(k, _factors(k, _jets(mu1), _jets(mu2)))
    _assert_state(free, k + l, N, free_product(mu1, mu2))
    _assert_state(free, k + l, N, cfree_product(mu1, nu1, mu2, nu2)[0])
    _assert_state(free, k + l, N, infinitesimal_product(mu1, nu1, mu2, nu2)[0])


@pytest.mark.parametrize("k, l, N, seed", CASES, ids=IDS)
def test_the_cfree_product_is_c_free_in_its_free_state(k, l, N, seed):
    mu, nu = cfree_product(*_inputs(k, l, N, seed))
    _assert_state(_joined_state(k, _jets(nu), centre=_jets(mu)), k + l, N, nu)


@pytest.mark.parametrize("k, l, N, seed", CASES, ids=IDS)
def test_the_infinitesimal_product_is_free_over_the_dual_numbers(k, l, N, seed):
    mu, mup = infinitesimal_product(*_inputs(k, l, N, seed))
    _assert_state(_joined_state(k, _jets(mu, mup)), k + l, N, mu, mup)


def test_target_13_builds_free_and_c_free_states(monkeypatch):
    # record the graded moments jet (mu, mu') and the Boolean cumulants of the
    # c-free moments nu that the check builds at (k, l, N) = (1, 1, 6) on
    # seed 0, rebuild nu from them by the interval step, and read them at its
    # D: mu' is at the scale D**(n+1) of the diagonal tensor's psi
    seen = {}

    def recorded(name, real):
        def call(*args):
            seen[name] = args, real(*args)
            return seen[name][1]
        return call

    for name in ("_graded", "_joined", "_closed_sums"):
        monkeypatch.setattr(products, name, recorded(name, getattr(products, name)))
    k, l, N = 1, 1, 6
    TARGETS["13"].check(0, k, N, l)
    (mu1, _, mu2, _), (D, _) = seen["_graded"]
    (mu_layers, mup_layers), K = seen["_joined"][1], k + l
    mu, mup = _ungraded(D, mu_layers, "moment"), _ungraded(D, mup_layers, "infinitesimal", D)
    beta = seen["_closed_sums"][1]
    nu = _ungraded(D, _interval((beta,), _blank(len(beta) - 1), False)[0], "moment")
    _assert_state(_joined_state(k, _factors(k, _jets(mu1), _jets(mu2))), K, N, mu)
    _assert_state(_joined_state(k, _jets(mu, mup)), K, N, mu, mup)
    _assert_state(_joined_state(k, _jets(nu), centre=_jets(mu)), K, N + 1, nu)
