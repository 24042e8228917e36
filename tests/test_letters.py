"""The transforms do not depend on how the letters are named.

Every brand of cumulant is a family of multilinear functionals on V, so a
transform commutes with a renaming s of the letters, (f o s)(w) =
f(s(w_1) ... s(w_n)), and with the pull-back of a family over k letters
through a matrix A of k' rows and k columns,

    (f o A)(i_1 ... i_n) = sum over the words j of A[i_1][j_1] ... A[i_n][j_n] f(j),

a family over k' letters.  With one row a = (a_1, ..., a_k), f o a is a
one-variable family, whose transforms the series oracle of
`test_series_oracle.py` solves with no kernel of `cumulants`.  Delta*
commutes with a renaming when its tensor is renamed the same way, and with
the pull-back through an invertible A when its tensor is moved through A
too.  Each check runs the letter handling that k = 1 cannot see: the rank
maps, the `mids`/`tails` slices of `_closed` and the strides of
`_slot_table`, and a rectangular A runs the kernels at one letter count on
its input side and another on its output side.
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
from ncprob.deltastar import delta_star, psi_delta
from ncprob.families import (
    DeltaTensor, MultilinearFamily, build_family, random_delta, random_family, words_of_length)
from ncprob.products import boxplus, boxplus_b, boxplus_c
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


# (convolution, the kinds of its inputs): each joins the cumulants of its
# pairs entrywise, so it commutes with a pull-back as the transforms do
CONVOLUTIONS = {
    "boxplus": (boxplus, ("moment", "moment")),
    "boxplus_c": (boxplus_c, ("moment",) * 4),
    "boxplus_b": (boxplus_b, ("moment", "infinitesimal") * 2),
}
OPS = {**{name: entry[:2] for name, entry in TRANSFORMS.items()}, **CONVOLUTIONS}

# rectangular integer matrices, k' rows by k columns: from k = 2 to k' = 3
# and from k = 3 to k' = 2
RECTANGULAR = {
    "2to3": ((1, 2), (-1, 3), (2, 0)),
    "3to2": ((1, -1, 2), (0, 3, 1)),
}

# square integer matrices, neither symmetric nor of determinant +-1
SQUARE = {
    2: ((1, 2), (-1, 3)),
    3: ((1, 1, 0), (0, 1, 2), (1, 0, 1)),
}


def _pulled_back(f, A):
    """f o A over len(A) letters, pulled back one slot at a time."""
    values = {}
    for n in range(1, f.N + 1):
        table = {w: f(w) for w in words_of_length(f.k, n)}
        for s in range(n):
            moved: dict = {}
            for w, v in table.items():
                for i, row in enumerate(A, 1):
                    u = w[:s] + (i,) + w[s + 1:]
                    moved[u] = moved.get(u, 0) + row[w[s] - 1] * v
            table = moved
        values.update(table)
    return MultilinearFamily(len(A), f.N, values, kind=f.kind)


def _transposed(A):
    return tuple(zip(*A))


def _inverse(A):
    """The inverse of a square integer matrix, over Fraction, by Gauss-Jordan."""
    k = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(k)]
            for i, row in enumerate(A)]
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[k:]) for row in rows)


def _moved(delta, A):
    """The tensor D' with sum over j, l of D'[i][j][l] A[l][l'] A[j][j'] =
    sum over i' of A[i][i'] D[i'][j'][l'] for every i, j', l', for a square
    invertible A: the slice of D' at i is A^-T (sum over i' of A[i][i']
    D[i']) A^-1."""
    k, B = delta.k, _inverse(A)
    letters = range(1, k + 1)
    entries = {(i, j, l): v for i in letters for j, l, v in delta.expand(i)}
    out = {}
    for i, j, l in itertools.product(letters, repeat=3):
        out[i, j, l] = sum(
            A[i - 1][p - 1] * B[a - 1][j - 1] * entries.get((p, a, b), 0) * B[b - 1][l - 1]
            for p, a, b in itertools.product(letters, repeat=3))
    return DeltaTensor(k, out)


def _outputs(out) -> tuple:
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("shape", sorted(RECTANGULAR))
@pytest.mark.parametrize("name", OPS)
def test_each_op_commutes_with_a_rectangular_pull_back(name, shape):
    # the kernels run at k on the right side and at k' on the left
    fn, kinds = OPS[name]
    A = RECTANGULAR[shape]
    ins = _inputs(kinds, len(A[0]), 5, seed=11)
    got = _outputs(fn(*(_pulled_back(f, A) for f in ins)))
    want = tuple(_pulled_back(f, A) for f in _outputs(fn(*ins)))
    assert all(f.k == len(A) for f in got)
    assert got == want


@pytest.mark.parametrize("k", sorted(SQUARE))
def test_the_moved_tensor_satisfies_its_defining_relation(k):
    A, delta = SQUARE[k], random_delta(k, seed=20 + k)
    moved, letters = _moved(delta, A), range(1, k + 1)
    for i, j2, l2 in itertools.product(letters, repeat=3):
        lhs = sum(v * A[l - 1][l2 - 1] * A[j - 1][j2 - 1] for j, l, v in moved.expand(i))
        rhs = sum(A[i - 1][p - 1] * v for p in letters
                  for j, l, v in delta.expand(p) if (j, l) == (j2, l2))
        assert lhs == rhs


@pytest.mark.parametrize("k", sorted(SQUARE))
@pytest.mark.parametrize("op", [delta_star, psi_delta])
def test_delta_star_and_psi_delta_commute_with_a_pull_back_and_the_moved_tensor(op, k):
    # psi_{D'}(chi o A) = psi_D(chi) o A, and the same for delta_star
    A, delta, chi = SQUARE[k], random_delta(k, seed=20 + k), random_family(k, 5, seed=30 + k)
    assert op(_moved(delta, A), _pulled_back(chi, A)) == _pulled_back(op(delta, chi), A)


@pytest.mark.parametrize("k", sorted(SQUARE))
@pytest.mark.parametrize("op", [delta_star, psi_delta])
def test_the_tensor_moved_through_the_transpose_does_not_commute(op, k):
    # negative control: the relation read with A^T in place of A moves the
    # tensor wrongly for this A, and the check above must see it
    A, delta, chi = SQUARE[k], random_delta(k, seed=20 + k), random_family(k, 5, seed=30 + k)
    assert op(_moved(delta, _transposed(A)), _pulled_back(chi, A)) != _pulled_back(
        op(delta, chi), A)
