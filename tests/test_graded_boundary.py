"""The two conversion boundaries of the graded kernels, pinned against the
public `fractions.Fraction` API: `_graded` and `_scaled_expansion` read a
value's parts off Fraction's slots, and `_ungraded` sets them on a bare
Fraction with no constructor call."""

from fractions import Fraction
from math import lcm

import pytest

from ncprob.cumulants import _graded, _ungraded, free_cumulants
from ncprob.deltastar import _scaled_expansion
from ncprob.families import (
    DeltaTensor,
    MultilinearFamily,
    all_words,
    random_delta,
    random_family,
)


class Tagged(Fraction):
    """A Fraction subclass, with an instance dict besides the two slots."""


def test_fraction_keeps_the_slot_layout_the_boundary_reads():
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    q = Fraction(-6, 4)
    assert (q._numerator, q._denominator) == (q.numerator, q.denominator) == (-3, 2)


def assert_same_fraction(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert (got._numerator, got._denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert got == want and want == got
    assert got + 1 == want + 1 and got * 3 == want * 3


_VALUES = [0, 1, -1, 2 ** 200 + 3, -(2 ** 200 + 3), -(3 ** 150), 7, -12, 36]


@pytest.mark.parametrize("D", [1, 2, 6, 35, 2 ** 70])
@pytest.mark.parametrize("scale", [1, 3, 10 ** 20])
def test_ungraded_equals_the_fraction_constructor(D, scale):
    N, k = 3, 2
    layers = [[1]]
    for n in range(1, N + 1):
        P = scale * D ** n
        pool = _VALUES + [P, -P, 5 * P, P * 2 ** 90, -(3 ** 40) * P, P // 2 + 1]
        layers.append([pool[(i * 7 + n) % len(pool)] for i in range(k ** n)])
    fam = _ungraded(D, layers, "moment", scale)
    assert fam.k == k and fam.N == N and fam.kind == "moment"
    for n in range(1, N + 1):
        P = scale * D ** n
        assert len(fam._layers[n]) == k ** n
        for v, q in zip(layers[n], fam._layers[n]):
            assert_same_fraction(q, Fraction(v, P))


def test_ungraded_writes_every_listed_value_at_every_scale():
    P = 6 * 5 ** 2
    values = [0, 1, -1, P, -P, 4 * P, 2 ** 200 + 3, -(2 ** 200 + 3), -(3 ** 150)]
    fam = _ungraded(5, [[1], values[:3], values], "infinitesimal", 6)
    assert fam.k == 3 and fam.N == 2
    for v, q in zip(values, fam._layers[2]):
        assert_same_fraction(q, Fraction(v, P))


def graded_by_properties(*families):
    """The recipe `_graded` follows, through the public properties."""
    D = lcm(*(v.denominator for f in families for layer in f._layers for v in layer))
    return D, [[[1]] + [[v.numerator * (D ** n // v.denominator) for v in f._layers[n]]
                        for n in range(1, f.N + 1)] for f in families]


def _family(k, N, fn, cls=Fraction):
    return MultilinearFamily(k, N, {w: cls(*fn(w)) for w in all_words(k, N)})


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@pytest.mark.parametrize("cls", [Fraction, Tagged])
def test_graded_equals_the_property_recipe(cls):
    coprime = _family(2, 3, lambda w: (sum(w) - 4, _PRIMES[len(w) * 3 + w[-1]]), cls)
    large = _family(2, 3, lambda w: (-(2 ** 100) * w[0] + 1, 3 ** 80 * 2 ** len(w)), cls)
    seeded = random_family(2, 3, seed=5)
    assert all(type(v) is cls for f in (coprime, large) for layer in f._layers for v in layer)
    for fams in [(coprime,), (large,), (coprime, large), (seeded, large), (seeded, coprime)]:
        assert _graded(*fams) == graded_by_properties(*fams)


def test_graded_then_ungraded_is_the_identity_on_subclass_values():
    fam = _family(2, 3, lambda w: (-(7 ** 30) + sum(w), 2 ** 40 * 9 * len(w)), Tagged)
    D, (layers,) = _graded(fam)
    back = _ungraded(D, layers, fam.kind)
    assert back == fam
    for got, want in zip(back._layers[1:], fam._layers[1:]):
        for q, v in zip(got, want):
            assert_same_fraction(q, Fraction(v.numerator, v.denominator))
    assert free_cumulants(back) == free_cumulants(fam)


@pytest.mark.parametrize("delta", [
    random_delta(2, seed=3),
    random_delta(3, seed=4),
    DeltaTensor(2, {(1, 2, 1): Fraction(5, 7), (2, 2, 2): Tagged(-3, 11), (1, 1, 1): 4}),
    DeltaTensor(2, {}),
], ids=["k2", "k3", "coprime-subclass", "zero"])
def test_scaled_expansion_equals_the_property_recipe(delta):
    entries = sorted(delta._entries.items())
    T = lcm(*(v.denominator for _, v in entries))
    want = {i: tuple((j, l, v.numerator * (T // v.denominator))
                     for (ii, j, l), v in entries if ii == i) for i in range(1, delta.k + 1)}
    assert _scaled_expansion(delta) == (T, want)
