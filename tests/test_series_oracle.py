"""The one-variable transforms against their generating-function identities.

At k = 1 a family is the sequence m_1, m_2, ... of its values on the words
1, 11, 111, ..., and with M(z) = 1 + sum m_n z^n the brands solve

    M = 1 / (1 - B)          (Boolean cumulants, B = sum b_n z^n),
    M = 1 + R(z M)           (free cumulants),
    B_chi * M = R^c(z M)     (c-free cumulants of (phi, chi), M that of phi),
    R^cc = R^c - R           (alternative c-free cumulants),

and the infinitesimal cumulants R' of (phi, phi') are the epsilon-part of
the free relation on M + epsilon M' over the dual numbers (epsilon^2 = 0).
Each is solved here coefficient by coefficient over Fraction, with no
partition and no kernel of `cumulants`.  Degree 30 is far past the degrees
the lattice oracles reach.

The three additive convolutions add their series: `boxplus` adds R,
`boxplus_c` adds R and R^c, and `boxplus_b` adds R and its epsilon-part.
Their expected moments invert M = 1 + R(z M), its dual-number form and
B_nu * M = R^c(z M).  The `verify` rows that no clip limits run at the
same degree.
"""

from fractions import Fraction

import pytest

from ncprob.cumulants import (
    boolean_cumulants,
    cc_cumulants,
    cfree_cumulants,
    free_cumulants,
    infinitesimal_cumulants,
    infinitesimal_moments,
    moments_from_boolean,
    moments_from_cc,
    moments_from_cfree,
    moments_from_free,
)
from ncprob.families import MultilinearFamily, random_family
from ncprob.products import boxplus, boxplus_b, boxplus_c
from ncprob.selftest import TARGETS

N = 30


def _coefficients(f: MultilinearFamily) -> list:
    """[1, f(1), f(11), ..., f(1^N)]: the series of a k = 1 family."""
    return [Fraction(1)] + [f((1,) * n) for n in range(1, f.N + 1)]


def _family(series: list, kind: str = "moment") -> MultilinearFamily:
    return MultilinearFamily(
        1, len(series) - 1, {(1,) * n: series[n] for n in range(1, len(series))}, kind)


class _Dual:
    """a + b epsilon with epsilon^2 = 0: a plain number x is x + 0 epsilon."""

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, other):
        other = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        other = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __sub__(self, other):
        return self + other * -1

    __radd__, __rmul__ = __add__, __mul__


def _times(a: list, b: list) -> list:
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]


def _boolean(m: list) -> list:
    """b with M = 1 + B M: m_n = sum over 1 <= i <= n of b_i m_(n-i)."""
    b = [Fraction(0)]
    for n in range(1, len(m)):
        b.append(m[n] - sum(b[i] * m[n - i] for i in range(1, n)))
    return b


def _composed_solve(target: list, m: list) -> list:
    """r with target = R(z M) in every degree >= 1: [z^n] R(z M) is
    sum over 1 <= s <= n of r_s [z^(n-s)] M^s, and [z^0] M^n = 1."""
    powers = [[Fraction(1)] + [Fraction(0)] * (len(m) - 1)]
    for _ in range(1, len(m)):
        powers.append(_times(powers[-1], m))
    r = [Fraction(0)]
    for n in range(1, len(m)):
        r.append(target[n] - sum(r[s] * powers[s][n - s] for s in range(1, n)))
    return r


@pytest.mark.parametrize("seed", [0, 1])
def test_boolean_cumulants_solve_m_equals_one_over_one_minus_b(seed):
    phi = random_family(1, N, seed)
    b = _boolean(_coefficients(phi))
    assert _coefficients(boolean_cumulants(phi))[1:] == b[1:]
    assert moments_from_boolean(_family(b)) == phi


@pytest.mark.parametrize("seed", [0, 1])
def test_free_cumulants_solve_m_equals_one_plus_r_of_zm(seed):
    phi = random_family(1, N, seed)
    m = _coefficients(phi)
    r = _composed_solve(m, m)
    assert _coefficients(free_cumulants(phi))[1:] == r[1:]
    assert moments_from_free(_family(r)) == phi


@pytest.mark.parametrize("seed", [0, 1])
def test_cfree_cumulants_solve_b_chi_times_m_equals_rc_of_zm(seed):
    phi, chi = random_family(1, N, seed), random_family(1, N, seed + 100)
    m = _coefficients(phi)
    rc = _composed_solve(_times(_boolean(_coefficients(chi)), m), m)
    assert _coefficients(cfree_cumulants(phi, chi))[1:] == rc[1:]
    assert moments_from_cfree(phi, _family(rc)) == chi


@pytest.mark.parametrize("seed", [0, 1])
def test_infinitesimal_cumulants_are_the_epsilon_part_of_the_free_relation(seed):
    phi = random_family(1, N, seed)
    phip = random_family(1, N, seed + 100, kind="infinitesimal")
    m, dm = _coefficients(phi), [Fraction(0)] + _coefficients(phip)[1:]
    jet = [_Dual(a, b) for a, b in zip(m, dm)]
    solved = [_Dual(0)] + _composed_solve(jet, jet)[1:]
    r, dr = [x.a for x in solved], [x.b for x in solved]
    assert r == _composed_solve(m, m)
    assert _coefficients(infinitesimal_cumulants(phi, phip))[1:] == dr[1:]
    got = infinitesimal_moments(_family(r, "free-cumulant"), _family(dr, "infinitesimal-cumulant"))
    assert got == phip


@pytest.mark.parametrize("seed", [0, 1])
def test_cc_cumulants_are_the_cfree_minus_the_free_series(seed):
    phi, chi = random_family(1, N, seed), random_family(1, N, seed + 100)
    m = _coefficients(phi)
    rc = _composed_solve(_times(_boolean(_coefficients(chi)), m), m)
    rcc = [a - b for a, b in zip(rc, _composed_solve(m, m))]
    assert _coefficients(cc_cumulants(phi, chi))[1:] == rcc[1:]
    assert moments_from_cc(phi, _family(rcc, "cc-cumulant")) == chi


# ---------------------------------------------------------------------------
# The three additive convolutions: each adds its series
# ---------------------------------------------------------------------------

def _moments_of(r: list) -> list:
    """m with M = 1 + R(z M), the inverse of `_composed_solve(m, m)`:
    [z^n] R(z M) = sum over 1 <= s <= n of r_s [z^(n-s)] M^s, and
    [z^j] M^s reads m only up to j, so each m_n follows from the ones
    before it, with [z^(n-s)] M^s filled in as m grows."""
    m = [Fraction(1)] + [Fraction(0)] * (len(r) - 1)
    powers = [m[:1] + [Fraction(0)] * (len(r) - 1) for _ in r]  # [z^j] M^s
    for s in range(1, len(r)):
        powers[s][0] = Fraction(1)
    for n in range(1, len(r)):
        for s in range(1, n):
            j = n - s
            powers[s][j] = sum(m[i] * powers[s - 1][j - i] for i in range(j + 1))
        m[n] = sum(r[s] * powers[s][n - s] for s in range(1, n + 1))
    return m


def _free_jet(m: list, dm: list) -> tuple:
    """(r, r'): the free relation M = 1 + R(z M) on M + epsilon M'."""
    jet = [_Dual(a, b) for a, b in zip(m, dm)]
    solved = [_Dual(0)] + _composed_solve(jet, jet)[1:]
    return [x.a for x in solved], [x.b for x in solved]


def _plus(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


@pytest.mark.parametrize("seed", [0, 1])
def test_boxplus_adds_the_free_cumulant_series(seed):
    mu1, mu2 = random_family(1, N, seed), random_family(1, N, seed + 100)
    m1, m2 = _coefficients(mu1), _coefficients(mu2)
    r = _plus(_composed_solve(m1, m1), _composed_solve(m2, m2))
    assert _coefficients(boxplus(mu1, mu2))[1:] == _moments_of(r)[1:]


@pytest.mark.parametrize("seed", [0, 1])
def test_boxplus_c_adds_the_free_and_the_cfree_series(seed):
    mu1, nu1 = random_family(1, N, seed), random_family(1, N, seed + 100)
    mu2, nu2 = random_family(1, N, seed + 200), random_family(1, N, seed + 300)
    m1, m2 = _coefficients(mu1), _coefficients(mu2)
    r = _plus(_composed_solve(m1, m1), _composed_solve(m2, m2))
    rc = _plus(*(_composed_solve(_times(_boolean(_coefficients(nu)), m), m)
                 for nu, m in ((nu1, m1), (nu2, m2))))
    m = _moments_of(r)
    # B_nu * M = R^c(z M), then the moments of nu from M_nu = 1 / (1 - B_nu)
    powers = [[Fraction(1)] + [Fraction(0)] * N]
    for _ in range(N):
        powers.append(_times(powers[-1], m))
    target = [sum(rc[s] * powers[s][n - s] for s in range(1, n + 1)) for n in range(N + 1)]
    b = [Fraction(0)]
    for n in range(1, N + 1):
        b.append(target[n] - sum(b[i] * m[n - i] for i in range(1, n)))
    m_nu = [Fraction(1)]
    for n in range(1, N + 1):
        m_nu.append(sum(b[i] * m_nu[n - i] for i in range(1, n + 1)))
    mu, nu = boxplus_c(mu1, nu1, mu2, nu2)
    assert _coefficients(mu)[1:] == m[1:]
    assert _coefficients(nu)[1:] == m_nu[1:]


@pytest.mark.parametrize("seed", [0, 1])
def test_boxplus_b_adds_the_free_series_and_their_epsilon_parts(seed):
    mu1, mu2 = random_family(1, N, seed), random_family(1, N, seed + 200)
    mu1p = random_family(1, N, seed + 100, kind="infinitesimal")
    mu2p = random_family(1, N, seed + 300, kind="infinitesimal")
    (r1, dr1), (r2, dr2) = (
        _free_jet(_coefficients(mu), [Fraction(0)] + _coefficients(mup)[1:])
        for mu, mup in ((mu1, mu1p), (mu2, mu2p)))
    solved = _moments_of([_Dual(a, b) for a, b in zip(_plus(r1, r2), _plus(dr1, dr2))])
    mu, mup = boxplus_b(mu1, mu1p, mu2, mu2p)
    assert _coefficients(mu)[1:] == [x.a for x in solved[1:]]
    assert _coefficients(mup)[1:] == [x.b for x in solved[1:]]


# ---------------------------------------------------------------------------
# The verify rows that no clip limits, at the oracle's degree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("target", ["12", "14", "17", "prop41"])
def test_the_unclipped_rows_hold_at_degree_30(target, seed):
    # `verify` refuses these rows above N = 15 (16 for prop41) at k = 1, so
    # the check is called directly; 13 is left out, as it draws over k + l
    # letters, 2^31 words at N = 30
    assert TARGETS[target].check(seed, 1, N, 1) is None
