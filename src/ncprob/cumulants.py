"""Moment/cumulant transforms for all four brands of cumulants.

Every transform is a sum over a partition lattice, run by one kernel,
`_lattice_sum`.  A lattice is a table of rows over 0-based positions: a
coefficient plus one group of blocks per source family, read off the
cached partition enumerations; rows of coefficient 1 are not stored a
second time.  A row adds its coefficient times each source's values on
the subwords its blocks cut out.  The c-free and signed-lattice cumulants
solve such a sum for the unknown family, word by word: the row whose one
block, the unknown's, is the whole word isolates it.

Infinitesimal cumulants are the epsilon-part of the free cumulants of
phi + epsilon * phi' over the dual numbers (epsilon^2 = 0), so both
infinitesimal transforms run the free sums with a dual accumulator,
`_lattice_sum_dual`, whose real part is the free-cumulant table.

Tables a caller already holds are passed down, not recomputed: the private
entry points take the free cumulants of the base family.  All arithmetic
is exact, and each transform maps input degree n to output degree n.
"""

from functools import lru_cache
from itertools import repeat

from .errors import LimitExceeded, ShapeMismatch
from .families import MultilinearFamily, all_words, build_family, words_of_length
from .nc import _interval_range, _moebius_int, _nc_range, _nests
from .typeb import DEFAULT_SIGNED_LIMIT, Flavor, enumerate_signed, zero_blocks

Blocks0 = tuple[tuple[int, ...], ...]


def _require_same_shape(f: MultilinearFamily, g: MultilinearFamily) -> None:
    if f.k != g.k or f.N != g.N:
        raise ShapeMismatch(
            f"families disagree: (k={f.k}, N={f.N}) vs (k={g.k}, N={g.N})"
        )


def _require_signed_limit(N: int) -> None:
    if N > DEFAULT_SIGNED_LIMIT:
        raise LimitExceeded(
            f"degree {N} above signed enumeration limit {DEFAULT_SIGNED_LIMIT}"
        )


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

def _lattice_sum(rows, sources, w):
    """Sum over rows (coefficient, group, group, ...) of the coefficient
    times, for each source family and each block b in that source's group,
    the source's value on the subword of w at the positions b."""
    total = 0
    for coeff, *groups in rows:
        term = coeff
        for val, blocks in zip(sources, groups):
            for b in blocks:
                term *= val[tuple([w[p] for p in b])]
        total += term
    return total


def _lattice_sum_dual(rows, val, dval, w):
    """The one-source kernel over dual numbers val + epsilon * dval: returns
    the real and the epsilon part of the sum."""
    total = dtotal = 0
    for coeff, blocks in rows:
        a, da = coeff, 0
        for b in blocks:
            sub = tuple([w[p] for p in b])
            x = val[sub]
            a, da = a * x, a * dval[sub] + da * x
        total += a
        dtotal += da
    return total, dtotal


def _forward(rows_of, sources, shape: MultilinearFamily, kind: str) -> MultilinearFamily:
    """The family over shape's (k, N) whose value on w is the kernel sum over
    the rows for |w|."""
    return build_family(
        shape.k, shape.N, lambda w: _lattice_sum(rows_of(len(w)), sources, w), kind=kind
    )


def _solve(rows_of, known: dict, given: MultilinearFamily, kind: str) -> MultilinearFamily:
    """Solve given = sum over rows_of, with sources (known, out), for out.

    The row whose only block is the whole word, carried by out, has
    coefficient 1 and isolates out[w]; every other row needs out only on
    shorter words, which are solved first."""
    out: dict = {}
    sources = (known, out)
    for n in range(1, given.N + 1):
        whole = (tuple(range(n)),)
        rows = [r for r in rows_of(n) if r[-1] != whole]
        for w in words_of_length(given.k, n):
            out[w] = given._values[w] - _lattice_sum(rows, sources, w)
    return MultilinearFamily(given.k, given.N, out, kind=kind)


def _dual(rows_of, val: dict, dval: dict, k: int, N: int) -> tuple[dict, dict]:
    real, eps = {}, {}
    for w in all_words(k, N):
        real[w], eps[w] = _lattice_sum_dual(rows_of(len(w)), val, dval, w)
    return real, eps


# ---------------------------------------------------------------------------
# Cached lattice tables, all over 0-based positions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_mob_table(n: int) -> tuple[tuple[int, Blocks0], ...]:
    """Kernel rows over NC(n) weighted by the Moebius value."""
    return tuple((_moebius_int(blocks, n), blocks) for blocks in _nc_range(n))


def _nc_rows(n: int):
    """Kernel rows over NC(n) with coefficient 1, read off the cached NC(n)."""
    return zip(repeat(1), _nc_range(n))


# The cached interval partitions of nc; tests and the perfbench tracer read
# them under this name.
_interval_table = _interval_range


@lru_cache(maxsize=None)
def _boolean_rows(n: int) -> tuple[tuple[int, Blocks0], ...]:
    """Kernel rows over the interval partitions, signed by block parity."""
    return tuple((1 if len(b) % 2 else -1, b) for b in _interval_table(n))


def _interval_rows(n: int):
    """Kernel rows over the interval partitions with coefficient 1."""
    return zip(repeat(1), _interval_table(n))


@lru_cache(maxsize=None)
def _roles_table(n: int):
    """Kernel rows (1, inner blocks, outer blocks) over NC(n)."""
    out = []
    for blocks in _nc_range(n):
        inner = tuple(b for b in blocks if any(_nests(v, b) for v in blocks))
        out.append((1, inner, tuple(b for b in blocks if b not in inner)))
    return tuple(out)


@lru_cache(maxsize=None)
def _ll_one_table(n: int) -> tuple[tuple[int, tuple[int, ...], Blocks0], ...]:
    """(Moebius value, unique outer block, other blocks) for pi << 1_n."""
    return tuple(
        (mob, blocks[0], blocks[1:])  # canonical order puts the block of 0 first
        for mob, blocks in _nc_mob_table(n)
        if blocks[0][-1] == n - 1
    )


def _explicit_rows(n: int):
    """Kernel rows (Moebius value, (unique outer block,), other blocks) over
    pi << 1_n, read off _ll_one_table."""
    return ((mob, (holder,), others) for mob, holder, others in _ll_one_table(n))


def _abs0(block: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted({abs(x) - 1 for x in block}))


def _zero_and_pairs(sigma) -> tuple[Blocks0, Blocks0]:
    """(Abs of each zero-block, Abs of each symmetric pair of other blocks)."""
    zs = zero_blocks(sigma)
    zero = tuple(_abs0(sigma.blocks[i]) for i in zs)
    rest = (b for i, b in enumerate(sigma.blocks) if i not in zs)
    return zero, tuple(dict.fromkeys(_abs0(b) for b in rest))


@lru_cache(maxsize=None)
def _bopp_table(n: int):
    """Kernel rows over the opposite-order lattice: (1, Abs of each
    symmetric pair, Abs of each zero-block).  A pair there is a block
    inside the positives and its negative."""
    return tuple(
        (1, *_zero_and_pairs(sigma)[::-1]) for sigma in enumerate_signed(n, Flavor.B_OPP)
    )


@lru_cache(maxsize=None)
def _b_zero_table(n: int):
    """Kernel rows over the type-B partitions with a zero-block, of which
    there is at most one: (1, (Abs of the zero-block,), Abs of each
    symmetric pair)."""
    return tuple(
        (1, *_zero_and_pairs(sigma)) for sigma in enumerate_signed(n, Flavor.B)
        if zero_blocks(sigma)
    )


@lru_cache(maxsize=None)
def _bopp_zero_table(n: int):
    """Kernel rows over the opposite-order partitions with at least one
    zero-block: (1, Abs of each zero-block, Abs of each symmetric pair)."""
    return tuple((1, zero, pairs) for _, pairs, zero in _bopp_table(n) if zero)


# ---------------------------------------------------------------------------
# Free and Boolean cumulants
# ---------------------------------------------------------------------------

def free_cumulants(phi: MultilinearFamily) -> MultilinearFamily:
    """Moebius inversion of the moment family over NC(n)."""
    return _forward(_nc_mob_table, (phi._values,), phi, "free-cumulant")


def moments_from_free(kappa: MultilinearFamily) -> MultilinearFamily:
    """Inverse of free_cumulants: the product sum over NC(n)."""
    return _forward(_nc_rows, (kappa._values,), kappa, "moment")


def boolean_cumulants(chi: MultilinearFamily) -> MultilinearFamily:
    """Signed sum over the interval partitions."""
    return _forward(_boolean_rows, (chi._values,), chi, "boolean-cumulant")


def moments_from_boolean(beta: MultilinearFamily) -> MultilinearFamily:
    """Inverse of boolean_cumulants."""
    return _forward(_interval_rows, (beta._values,), beta, "moment")


# ---------------------------------------------------------------------------
# Infinitesimal cumulants
# ---------------------------------------------------------------------------

def _free_and_infinitesimal(
    phi: MultilinearFamily, phi_prime: MultilinearFamily
) -> tuple[dict, dict]:
    """Free cumulants of phi and infinitesimal cumulants of (phi, phi'): the
    real and epsilon parts of the free cumulants of phi + epsilon * phi'."""
    return _dual(_nc_mob_table, phi._values, phi_prime._values, phi.k, phi.N)


def infinitesimal_cumulants(
    phi: MultilinearFamily, phi_prime: MultilinearFamily
) -> MultilinearFamily:
    """One distinguished block carries the derivative family, all others the
    moments, with the usual Moebius weight."""
    _require_same_shape(phi, phi_prime)
    kprime = _free_and_infinitesimal(phi, phi_prime)[1]
    return MultilinearFamily(phi.k, phi.N, kprime, kind="infinitesimal-cumulant")


def infinitesimal_moments(
    kappa_phi: MultilinearFamily, kappa_prime: MultilinearFamily
) -> MultilinearFamily:
    """Reconstruct the derivative family from free cumulants of the base and
    the infinitesimal cumulants; inverse of infinitesimal_cumulants."""
    _require_same_shape(kappa_phi, kappa_prime)
    dmom = _dual(_nc_rows, kappa_phi._values, kappa_prime._values, kappa_phi.k, kappa_phi.N)[1]
    return MultilinearFamily(kappa_phi.k, kappa_phi.N, dmom, kind="infinitesimal")


# ---------------------------------------------------------------------------
# c-free cumulants
# ---------------------------------------------------------------------------

def cfree_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """The recursive solution: inner blocks carry free cumulants of phi,
    outer blocks the c-free cumulants themselves; the one-block partition
    isolates the unknown."""
    _require_same_shape(phi, chi)
    return _cfree_cumulants(free_cumulants(phi)._values, chi)


def _cfree_cumulants(kphi: dict, chi: MultilinearFamily) -> MultilinearFamily:
    return _solve(_roles_table, kphi, chi, "cfree-cumulant")


def moments_from_cfree(
    phi: MultilinearFamily, kappa_c: MultilinearFamily
) -> MultilinearFamily:
    """Forward inner/outer product sum, with free cumulants of phi inside."""
    _require_same_shape(phi, kappa_c)
    return _moments_from_cfree(free_cumulants(phi)._values, kappa_c)


def _moments_from_cfree(kphi: dict, kappa_c: MultilinearFamily) -> MultilinearFamily:
    return _forward(_roles_table, (kphi, kappa_c._values), kappa_c, "moment")


def cfree_explicit(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """Non-recursive c-free cumulants: a Moebius-weighted sum over the
    partitions with unique outer block, Boolean cumulants of chi on that
    block and moments of phi elsewhere."""
    _require_same_shape(phi, chi)
    bchi = boolean_cumulants(chi)._values
    return _forward(_explicit_rows, (bchi, phi._values), phi, "cfree-cumulant")


# ---------------------------------------------------------------------------
# Alternative c-free cumulants over the opposite-order signed lattice
# ---------------------------------------------------------------------------

def cc_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """Recursive solution of the signed-lattice expansion: blocks inside the
    positives carry free cumulants of phi, zero-blocks the unknown family;
    the single-block partition isolates it."""
    _require_same_shape(phi, chi)
    _require_signed_limit(phi.N)
    return _cc_cumulants(free_cumulants(phi)._values, chi)


def _cc_cumulants(kphi: dict, chi: MultilinearFamily) -> MultilinearFamily:
    return _solve(_bopp_table, kphi, chi, "cc-cumulant")


def moments_from_cc(
    phi: MultilinearFamily, kappa_cc: MultilinearFamily
) -> MultilinearFamily:
    """Forward signed-lattice sum reconstructing chi from phi and the
    alternative c-free cumulants."""
    _require_same_shape(phi, kappa_cc)
    _require_signed_limit(phi.N)
    kphi = free_cumulants(phi)._values
    return _forward(_bopp_table, (kphi, kappa_cc._values), kappa_cc, "moment")


# ---------------------------------------------------------------------------
# Signed-lattice rewritings of the moment formulas (verification routines)
# ---------------------------------------------------------------------------

def _first_mismatch(rows_of, sources, want, k: int, N: int):
    for w in all_words(k, N):
        if _lattice_sum(rows_of(len(w)), sources, w) != want(w):
            return w
    return None


def eq_typeb_counterexample(phi: MultilinearFamily, phi_prime: MultilinearFamily):
    """Check the type-B single-sum form of the derivative moments: the
    zero-block carries an infinitesimal cumulant, the symmetric pairs carry
    free cumulants of phi.  Returns the first failing word or None."""
    _require_same_shape(phi, phi_prime)
    kphi, kprime = _free_and_infinitesimal(phi, phi_prime)
    return _first_mismatch(_b_zero_table, (kprime, kphi), phi_prime, phi.k, phi.N)


def eq_bopp_counterexample(phi: MultilinearFamily, chi: MultilinearFamily):
    """Check the opposite-order single-sum form of chi - phi: zero-blocks
    carry alternative c-free cumulants, pairs carry free cumulants of phi.
    Returns the first failing word or None."""
    _require_same_shape(phi, chi)
    _require_signed_limit(phi.N)
    kphi = free_cumulants(phi)._values
    kcc = _cc_cumulants(kphi, chi)._values
    return _first_mismatch(
        _bopp_zero_table, (kcc, kphi), lambda w: chi(w) - phi(w), phi.k, phi.N
    )
