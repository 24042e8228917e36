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

This module also hosts the two block-decorated functionals used as oracles
for the transform identities, and the verification routines for the main
identities relating c-free and infinitesimal cumulants.
"""

from fractions import Fraction

from .errors import DegreeTooLow, DimMismatch, NotLLOne, NotTracial, ShapeMismatch
from .families import (
    DeltaTensor,
    MultilinearFamily,
    Word,
    _first_difference,
    all_words,
    build_family,
    is_tracial,
    truncate,
    words_of_length,
)
from .cumulants import boolean_cumulants, cfree_cumulants, infinitesimal_cumulants
from .nc import NcPartition, f_nm, ll_one


def _rotated_insertion(w: Word, m: int, j: int, l: int) -> Word:
    """The length n+1 word (l, w_{m+1},..,w_n, w_1,..,w_{m-1}, j), m 1-based."""
    return (l,) + w[m:] + w[: m - 1] + (j,)


def delta_star(delta: DeltaTensor, f: MultilinearFamily) -> MultilinearFamily:
    """Apply the transform; output degree is input degree minus one."""
    if f.k != delta.k:
        raise DimMismatch(f"family over k={f.k} but tensor over k={delta.k}")
    if f.N < 2:
        raise DegreeTooLow("input degree must be at least 2")
    val = f._values

    def fn(w: Word) -> Fraction:
        total = Fraction(0)
        for m in range(1, len(w) + 1):
            for j, l, coeff in delta.expand(w[m - 1]):
                total += coeff * val[_rotated_insertion(w, m, j, l)]
        return total

    return build_family(f.k, f.N - 1, fn, kind="infinitesimal")


def psi_delta(delta: DeltaTensor, chi: MultilinearFamily) -> MultilinearFamily:
    """The transform applied to the Boolean cumulants of chi."""
    return delta_star(delta, boolean_cumulants(chi))


def psi_k(nu: MultilinearFamily) -> MultilinearFamily:
    """Cyclic sums of Boolean cumulants: the diagonal-tensor special case.

    mu'(i_1..i_n) = sum_m beta_{n+1}(i_m,..,i_n,i_1,..,i_m), each tuple
    wrapping around so that it starts and ends with the same letter.
    """
    if nu.N < 2:
        raise DegreeTooLow("input degree must be at least 2")
    beta = boolean_cumulants(nu)._values

    def fn(w: Word) -> Fraction:
        total = Fraction(0)
        for m in range(1, len(w) + 1):
            letter = w[m - 1]
            total += beta[_rotated_insertion(w, m, letter, letter)]
        return total

    return build_family(nu.k, nu.N - 1, fn, kind="infinitesimal")


# ---------------------------------------------------------------------------
# Block-decorated oracle functionals
# ---------------------------------------------------------------------------

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
    return _eval_gamma(delta, chi, None, phi, pi, m, word)


def _eval_gamma(delta, chi, beta: dict | None, phi, pi, m, word) -> Fraction:
    """eval_gamma with the Boolean cumulants beta of chi passed in; None
    computes them once the inputs have passed their checks."""
    w = tuple(word)
    if len(w) != pi.n:
        raise ShapeMismatch(f"word length {len(w)} != ground set {pi.n}")
    if chi.k != delta.k or phi.k != chi.k:
        raise ShapeMismatch("families and tensor must share one dimension")
    if not 1 <= m <= pi.n:
        raise ShapeMismatch(f"m={m} outside 1..{pi.n}")
    holder = pi.blocks[pi.block_of(m)]
    r = holder.index(m) + 1
    sub = tuple(w[p - 1] for p in holder)
    if chi.N < len(sub) + 1:
        raise DegreeTooLow(f"chi must have degree >= {len(sub) + 1}")
    if beta is None:
        beta = boolean_cumulants(chi)._values
    total = Fraction(0)
    for j, l, coeff in delta.expand(sub[r - 1]):
        total += coeff * beta[_rotated_insertion(sub, r, j, l)]
    for b in pi.blocks:
        if b is holder:
            continue
        total *= phi(tuple(w[p - 1] for p in b))
    return total


def eval_eta(
    chi: MultilinearFamily,
    phi: MultilinearFamily,
    rho: NcPartition,
    word,
) -> Fraction:
    """Boolean cumulant of chi on the unique outer block, moments of phi on
    the rest; defined only for partitions with that unique outer block."""
    return _eval_eta(chi, None, phi, rho, word)


def _eval_eta(chi, beta: dict | None, phi, rho, word) -> Fraction:
    """eval_eta with the Boolean cumulants beta of chi passed in; None
    computes them once the inputs have passed their checks."""
    w = tuple(word)
    if len(w) != rho.n:
        raise ShapeMismatch(f"word length {len(w)} != ground set {rho.n}")
    if not ll_one(rho):
        raise NotLLOne(f"{rho} does not have a unique outer block holding 1, n")
    holder = rho.blocks[rho.block_of(1)]
    sub = tuple(w[p - 1] for p in holder)
    if chi.N < len(sub):
        raise DegreeTooLow(f"chi must have degree >= {len(sub)}")
    if beta is None:
        beta = boolean_cumulants(chi)._values
    total = beta[sub]
    for b in rho.blocks:
        if b is holder:
            continue
        total *= phi(tuple(w[p - 1] for p in b))
    return total


# ---------------------------------------------------------------------------
# Verification of the transform identities
# ---------------------------------------------------------------------------

def cumulant_transform_counterexample(
    delta: DeltaTensor, phi: MultilinearFamily, chi: MultilinearFamily
):
    """Check that the infinitesimal cumulants of (phi, transform of Boolean
    cumulants of chi) equal the transform of the c-free cumulants of
    (phi, chi), for tracial phi.  Returns the first failing word or None."""
    if phi.k != chi.k or phi.N != chi.N:
        raise ShapeMismatch("phi and chi must share k and N")
    if phi.k != delta.k:
        raise DimMismatch(f"families over k={phi.k} but tensor over k={delta.k}")
    if phi.N < 2:
        raise DegreeTooLow("inputs must have degree at least 2")
    if not is_tracial(phi):
        raise NotTracial("phi must be tracial")
    phi_prime = delta_star(delta, boolean_cumulants(chi))
    lhs = infinitesimal_cumulants(truncate(phi, phi.N - 1), phi_prime)
    return _first_difference(lhs, delta_star(delta, cfree_cumulants(phi, chi)))


def verify_theorem_delta(
    delta: DeltaTensor, phi: MultilinearFamily, chi: MultilinearFamily
) -> bool:
    return cumulant_transform_counterexample(delta, phi, chi) is None


def cyclic_cumulant_counterexample(mu: MultilinearFamily, nu: MultilinearFamily):
    """Check that the infinitesimal cumulants of (mu, psi_k(nu)) are the
    cyclic wrap-around sums of the c-free cumulants of (mu, nu), for tracial
    mu.  Returns the first failing word or None."""
    if mu.k != nu.k or mu.N != nu.N:
        raise ShapeMismatch("mu and nu must share k and N")
    if mu.N < 2:
        raise DegreeTooLow("inputs must have degree at least 2")
    if not is_tracial(mu):
        raise NotTracial("mu must be tracial")
    mu_prime = psi_k(nu)
    lhs = infinitesimal_cumulants(truncate(mu, mu.N - 1), mu_prime)
    kc = cfree_cumulants(mu, nu)._values
    for w in all_words(mu.k, mu.N - 1):
        total = Fraction(0)
        for m in range(1, len(w) + 1):
            letter = w[m - 1]
            total += kc[_rotated_insertion(w, m, letter, letter)]
        if lhs(w) != total:
            return w
    return None


def verify_theorem_cyclic(mu: MultilinearFamily, nu: MultilinearFamily) -> bool:
    return cyclic_cumulant_counterexample(mu, nu) is None


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
    return _gamma_eta_counterexample(delta, chi, None, phi, n, m, rho)


def _gamma_eta_counterexample(delta, chi, beta: dict | None, phi, n, m, rho):
    """gamma_eta_counterexample with the Boolean cumulants beta of chi
    passed in, so that a caller checking many cases computes them once;
    None computes them once the inputs have passed their checks."""
    if not is_tracial(phi):
        raise NotTracial("phi must be tracial")
    if rho.n != n + 1:
        raise ShapeMismatch(f"rho must partition 1..{n + 1}")
    if not ll_one(rho):
        raise NotLLOne(f"{rho} is not << 1_{rho.n}")
    if phi.N < n or chi.N < n + 1:
        raise DegreeTooLow(f"need phi degree >= {n} and chi degree >= {n + 1}")
    if beta is None:
        beta = boolean_cumulants(chi)._values
    pi = f_nm(rho, m)
    for w in words_of_length(phi.k, n):
        lhs = _eval_gamma(delta, chi, beta, phi, pi, m, w)
        rhs = Fraction(0)
        for j, l, coeff in delta.expand(w[m - 1]):
            rhs += coeff * _eval_eta(chi, beta, phi, rho, _rotated_insertion(w, m, j, l))
        if lhs != rhs:
            return w
    return None


def verify_gamma_eta(
    delta: DeltaTensor,
    chi: MultilinearFamily,
    phi: MultilinearFamily,
    n: int,
    m: int,
    rho: NcPartition,
) -> bool:
    return gamma_eta_counterexample(delta, chi, phi, n, m, rho) is None
