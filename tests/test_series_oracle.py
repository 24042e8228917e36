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
