"""The cyclic one-slot comultiplication transform on functional families.

Given a linear map written as a rank-3 tensor d (image of e_i is
sum d[i][j][l] e_j (x) e_l), the transform sends a family f of degree N+1
to the degree-N family

    psi_n(i_1..i_n) = sum_m sum_{j,l} d[i_m][j][l]
                      * f(l, i_{m+1},..,i_n, i_1,..,i_{m-1}, j),

one term per slot m, with the word rotated so the split slot wraps around.
No tensor powers are ever materialized: everything is expanded over basis
words.  Specializing to the diagonal tensor gives the cyclic Boolean-
cumulant sum that turns a distribution into a mean-zero derivative-style
functional.

The transform runs on graded ints, with the scaling, the dense layers and
the Fraction reader of `cumulants._graded`: with D the lcm of the
family's denominators and T that of the tensor's, every term over an
output word of length n is an int at the scale T * D**(n+1), and each
output word is one Fraction.  The slot table over the words (x, u) of
length n sums x's triples (j, l, c) of c * f(l, u, j), a stride-k slice
of f's layer n + 1 per triple; the output layer sums it at the n
rotations of w, each gathered from the last through the rank map
(`cumulants._ranks`) of the rotation by one.  psi_delta, psi_k (T = 1)
and the identity checks run it on graded Boolean cumulants, once a check;
delta_star and psi_delta share one boundary: the input checks, one
grading and one reading at T * D.  Every entry given a tensor checks each
family's k against it, before grading, by `_require_dim`, so the graded
cores read their degree off the layers and their letter count off it.

This module also hosts the two block-decorated functionals gamma and eta,
kept as Fraction implementations of their definitions and used as oracles,
and the verification routines for the main identities relating c-free and
infinitesimal cumulants, which compare both sides as ints at one scale;
the cyclic identity check is the transform check at the diagonal tensor.
Each case (n, m, rho) of the search for the block identity between gamma
and eta is a two-row lattice sum, its rows read off rho block by block;
one whose blocks all read alike on both rows, verdicts kept by (n, m,
block) in a dict that lives for one search, holds for every input.  An
open case sums its rows over the layer, on slot tables built once.
"""

from fractions import Fraction
from math import prod
from typing import Callable

from .errors import (
    DegreeTooLow,
    DimMismatch,
    InvalidPartition,
    NotLLOne,
    NotTracial,
    PositionOutOfRange,
    ShapeMismatch,
    _int_in,
)
from .families import (
    DeltaTensor,
    MultilinearFamily,
    Word,
    _require_dim,
    _require_same_shape,
    diagonal_delta,
    is_tracial,
)
from .cumulants import (
    _boolean,
    _cfree,
    _denominator_lcm,
    _dual,
    _first_difference,
    _first_word,
    _graded,
    _lattice_sum,
    _ranks,
    _scaled,
    _ungraded,
    boolean_cumulants,
)
from .nc import NcPartition, _f_nm, ll_one


def _scaled_expansion(delta: DeltaTensor) -> tuple[int, dict]:
    """(T, letter -> its (j, l, T * coefficient) triples): T is the lcm of
    the tensor's denominators, so every scaled coefficient is an int."""
    items = sorted(delta._entries.items())
    T = _denominator_lcm([delta._entries.values()])
    out: dict = {i: [] for i in range(1, delta.k + 1)}
    for ((i, j, l), _), c in zip(items, _scaled([v for _, v in items], T)):
        out[i].append((j, l, c))
    return T, {i: tuple(triples) for i, triples in out.items()}


def _slot_table(expansion: dict, layer: list, L: int) -> list:
    """Over the words (x, u) of length L + 1 in rank order, x one of the k
    letters that expansion keys, the sum over x's triples (j, l, c) of
    c * layer[rank(l, u, j)], layer holding the words of length L + 2: for
    fixed (j, l), the ranks of (l, u, j) over u are the stride-k slice from
    (l - 1) * k**(L+1) + j - 1."""
    k, out = len(expansion), []
    K = k ** L
    for x in range(1, k + 1):
        out += map(sum, zip([0] * K, *(
            [c * y for y in layer[(l - 1) * k * K + j - 1:l * k * K:k]]
            for j, l, c in expansion[x])))
    return out


def _graded_delta_star(delta: DeltaTensor, layers: list) -> tuple[int, list]:
    """(T, the transform's layers, to degree N) on the graded layers of a
    family of degree N + 1 over delta's letters: layer n sums the slot table
    of the input's layer n + 1 read at the n rotations of w, each gathered
    from the last through the rank map of the rotation by one; at T * D**(n+1)."""
    T, expansion = _scaled_expansion(delta)
    out = [[1]]
    for n in range(1, len(layers) - 1):
        gathers = [_slot_table(expansion, layers[n + 1], n - 1)]
        step = _ranks(delta.k, n, (*range(1, n), 0))
        for _ in range(n - 1):
            gathers.append([gathers[-1][r] for r in step])
        out.append(list(map(sum, zip(*gathers))))
    return T, out


def _transformed(core: Callable, delta: DeltaTensor, f: MultilinearFamily) -> MultilinearFamily:
    """The input checks, then core(delta, the graded layers of f) read at T * D."""
    _require_dim(delta, f)
    if f.N < 2:
        raise DegreeTooLow("input degree must be at least 2")
    D, (val,) = _graded(f)
    T, out = core(delta, val)
    return _ungraded(D, out, "infinitesimal", T * D)


def delta_star(delta: DeltaTensor, f: MultilinearFamily) -> MultilinearFamily:
    """Apply the transform; output degree is input degree minus one."""
    return _transformed(_graded_delta_star, delta, f)


def psi_delta(delta: DeltaTensor, chi: MultilinearFamily) -> MultilinearFamily:
    """The transform applied to the Boolean cumulants of chi."""
    return _transformed(lambda d, c: _graded_delta_star(d, _boolean(c)), delta, chi)


def psi_k(nu: MultilinearFamily) -> MultilinearFamily:
    """Cyclic sums of Boolean cumulants: the diagonal-tensor special case.

    mu'(i_1..i_n) = sum_m beta_{n+1}(i_m,..,i_n,i_1,..,i_m), each tuple
    wrapping around so that it starts and ends with the same letter.
    """
    return psi_delta(diagonal_delta(nu.k), nu)


# ---------------------------------------------------------------------------
# Block-decorated oracle functionals
# ---------------------------------------------------------------------------

def _check_letters(w: Word, k: int) -> None:
    if not all(_int_in(x, 1, k) for x in w):
        raise PositionOutOfRange(f"letters of {w} outside 1..{k}")


def eval_gamma(
    delta: DeltaTensor,
    chi: MultilinearFamily,
    phi: MultilinearFamily,
    pi: NcPartition,
    m: int,
    word,
) -> Fraction:
    """Partition-decorated twisted Boolean cumulant.

    The block containing position m carries the tensor-twisted Boolean
    cumulant of chi, split at the rank of m inside that block; every other
    block carries a moment of phi.
    """
    w = tuple(word)
    if len(w) != pi.n:
        raise ShapeMismatch(f"word length {len(w)} != ground set {pi.n}")
    _require_dim(delta, chi, phi)
    _check_letters(w, chi.k)
    if not _int_in(m, 1, pi.n):
        raise ShapeMismatch(f"m={m!r} outside 1..{pi.n}")
    holder = pi.blocks[pi.block_of(m)]
    r = holder.index(m) + 1
    sub = tuple(w[p - 1] for p in holder)
    if chi.N < len(sub) + 1:
        raise DegreeTooLow(f"chi must have degree >= {len(sub) + 1}")
    beta = boolean_cumulants(chi)
    total = sum((coeff * beta((l,) + sub[r:] + sub[: r - 1] + (j,))
                 for j, l, coeff in delta.expand(sub[r - 1])), Fraction(0))
    return total * prod(phi(tuple(w[p - 1] for p in b)) for b in pi.blocks if b is not holder)


def eval_eta(
    chi: MultilinearFamily,
    phi: MultilinearFamily,
    rho: NcPartition,
    word,
) -> Fraction:
    """Boolean cumulant of chi on the unique outer block, moments of phi on
    the rest; defined only for partitions with that unique outer block."""
    w = tuple(word)
    if len(w) != rho.n:
        raise ShapeMismatch(f"word length {len(w)} != ground set {rho.n}")
    if chi.k != phi.k:
        raise DimMismatch(f"chi over k={chi.k} but phi over k={phi.k}")
    _check_letters(w, chi.k)
    if not ll_one(rho):
        raise NotLLOne(f"{rho} does not have a unique outer block holding 1, n")
    holder = rho.blocks[rho.block_of(1)]
    sub = tuple(w[p - 1] for p in holder)
    if chi.N < len(sub):
        raise DegreeTooLow(f"chi must have degree >= {len(sub)}")
    others = (phi(tuple(w[p - 1] for p in b)) for b in rho.blocks if b is not holder)
    return boolean_cumulants(chi)(sub) * prod(others)


# ---------------------------------------------------------------------------
# Verification of the transform identities
# ---------------------------------------------------------------------------

def cumulant_transform_counterexample(
    delta: DeltaTensor, phi: MultilinearFamily, chi: MultilinearFamily
):
    """Check that the infinitesimal cumulants of (phi, transform of Boolean
    cumulants of chi) equal the transform of the c-free cumulants of
    (phi, chi), for tracial phi, both at T * D**(n+1) as `_dual` is linear
    in its second input.  Returns the first failing word or None."""
    _require_same_shape(phi, chi)
    _require_dim(delta, phi)
    if phi.N < 2:
        raise DegreeTooLow("inputs must have degree at least 2")
    if not is_tracial(phi):
        raise NotTracial("phi must be tracial")
    _, (p, c) = _graded(phi, chi)
    beta = _boolean(c)
    lhs = _dual((p[:-1], _graded_delta_star(delta, beta)[1]))[1]
    rhs = _graded_delta_star(delta, _cfree(p, c, beta))[1]
    return _first_difference(phi.k, lhs[1:], rhs[1:])


def cyclic_cumulant_counterexample(mu: MultilinearFamily, nu: MultilinearFamily):
    """Check that the infinitesimal cumulants of (mu, psi_k(nu)) are the
    cyclic wrap-around sums of the c-free cumulants of (mu, nu), for tracial
    mu: the transform check at the diagonal tensor.  Returns the first
    failing word or None."""
    return cumulant_transform_counterexample(diagonal_delta(mu.k), mu, nu)


def gamma_eta_counterexample(
    delta: DeltaTensor,
    chi: MultilinearFamily,
    phi: MultilinearFamily,
    n: int,
    m: int,
    rho: NcPartition,
):
    """Check the block-level identity behind the transform theorem: the
    decorated gamma functional on the merged partition equals the unique-
    outer-block eta functional pulled back through the slot-m insertion.
    Returns the first failing word or None."""
    if not (_int_in(n, 0) and rho.n == n + 1):
        raise ShapeMismatch(f"rho on 1..{rho.n} needs n = {rho.n - 1}, got n={n!r}")
    if not ll_one(rho):
        raise NotLLOne(f"{rho} is not << 1_{rho.n}")
    if phi.N < n or chi.N < n + 1:
        raise DegreeTooLow(f"need phi degree >= {n} and chi degree >= {n + 1}")
    _check_inputs(delta, chi, phi)
    if not _int_in(m, 1, n):
        raise InvalidPartition(f"m={m!r} outside 1..{n}")
    sides = _gamma_eta_rows(n, m, rho.blocks, {})
    return sides and _gamma_eta_sum(_gamma_eta_tables(delta, chi, phi), phi.k, n, sides)


def _check_inputs(delta: DeltaTensor, chi: MultilinearFamily, phi: MultilinearFamily) -> None:
    """The checks on the inputs that a gamma-eta search makes before it sums any case."""
    _require_dim(delta, chi, phi)
    if not is_tracial(phi):
        raise NotTracial("phi must be tracial")


def _gamma_eta_tables(delta: DeltaTensor, chi: MultilinearFamily, phi: MultilinearFamily):
    """(The layers T of the slot tables of the graded Boolean cumulants of
    chi, graded phi) at one grading, T[L + 1] over the words (x, u) of
    length L + 1 summing x's triples (j, l, c) of c * beta(l, u, j)."""
    _, (p, c) = _graded(phi, chi)
    beta, expansion = _boolean(c), _scaled_expansion(delta)[1]
    return [None] + [_slot_table(expansion, beta[L + 2], L) for L in range(chi.N - 1)], p


def _block_agrees(verdicts: dict, n: int, m: int, b: tuple) -> bool:
    """Whether rho's block row b reads alike on both rows of the case (n, m),
    computed once into verdicts: its image under f_nm is its pull-back, less
    n+1 (slot m again) in the first block, rotated to its least position."""
    if (n, m, b) not in verdicts:
        pulled = tuple((m + q - 2) % n + 1 for q in (b[:-1] if b[0] == 1 else b))
        r = pulled.index(min(pulled))
        verdicts[n, m, b] = _f_nm((b,), n, m)[0] == pulled[r:] + pulled[:r]
    return verdicts[n, m, b]


def _gamma_eta_rows(n: int, m: int, blocks: tuple, verdicts: dict):
    """The rows +1 and -1 of the case (n, m, rho << 1_{n+1} given by its block
    rows), one lattice sum over 0-based positions of w, or None when each
    block of rho reads alike on both (`_block_agrees`, kept in verdicts by
    (n, m, block) for one search).  Each reads the slot tables on the letter
    at slot m and its block's split core, and phi on each other block: gamma
    splits the block of f_nm(rho, m) holding m at the rank of m, and eta reads
    rho on (l, w_{m+1},..,w_n, w_1,..,w_{m-1}, j), whose position 1 < q < n+1
    holds w at (m + q - 2) mod n; rho's first block holds 1 and n+1."""
    if all([verdicts.get((n, m, b)) or _block_agrees(verdicts, n, m, b) for b in blocks]):
        return None
    image = [tuple(x - 1 for x in b) for b in _f_nm(blocks, n, m)]
    i = next(i for i, b in enumerate(image) if m - 1 in b)
    r = image[i].index(m - 1)
    pulled = [tuple((m + q - 2) % n for q in b) for b in blocks]
    return ((1, (image[i][r:] + image[i][:r],), tuple(image[:i] + image[i + 1:])),
            (-1, (pulled[0][:-1],), tuple(pulled[1:])))


def _gamma_eta_sum(tables, k: int, n: int, sides: tuple):
    """The sum step: the first word of length n over k letters where the rows
    sum to nonzero on the tables, at the scale D**(n+1) times T, or None."""
    return _first_word(k, n, _lattice_sum(sides, tables, n), [0] * k ** n)
