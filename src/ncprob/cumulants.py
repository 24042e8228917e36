"""Moment/cumulant transforms for all four brands of cumulants.

Each brand is tied to the moments by a sum over a partition lattice.  The
transforms run those sums as first-block recursions (Nica & Speicher,
Lectures on the Combinatorics of Free Probability, 2006): every partition
is its block V holding the first letter plus partitions of the runs V
leaves, so

    target(w) = sum over V of block(w|V) * prod inner(w[a:b]) * tail(w[t:])

over the inner gaps [a, b) strictly between consecutive elements of V and
the tail [t, |w|) after max V, the empty word having value 1.  The free
case sums over all 2^(n-1) sets V holding position 0, with block = kappa
and inner = tail = phi; the c-free case takes block = kappa_c, inner = phi
and tail = chi; the Boolean case takes only the n intervals V, with tail =
chi.  The row V = whole word is the only one that reads block on w itself,
so one loop solves for the cumulants and sums for the moments, shortest
words first.  Infinitesimal cumulants are the epsilon-part of the free
cumulants of phi + epsilon * phi' over the dual numbers (epsilon^2 = 0),
so both infinitesimal transforms run the free recursion on dual pairs.

The alternative c-free cumulants need no recursion of their own: the
opposite-order lattice is in bijection with the pairs (pi in NC(n), set of
outer blocks of pi), the chosen outer blocks becoming zero-blocks, so its
sum factors through the c-free one with kappa_c = kappa_phi + kappa_cc.

The sums run on graded ints: with D the lcm of a call's input
denominators, a value v on w becomes the integer v * D**|w|, every term
over w scales by exactly D**|w|, and each output word is one Fraction.
Results are exact rationals, equal to the lattice sums.

Those lattice sums stay as the paper's definitions and as the oracles:
`_lattice_sum` runs the explicit c-free formula, the signed-lattice
rewritings and the selftest's resummation lemmas over row tables read off
the cached partition enumerations, and `_cc_cumulants` solves the
opposite-order sum for the alternative c-free cumulants.  Each transform
maps input degree n to output degree n.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .errors import LimitExceeded, ShapeMismatch
from .families import MultilinearFamily, all_words, words_of_length
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
# Graded integers
# ---------------------------------------------------------------------------

def _graded(*families: MultilinearFamily) -> tuple[int, list[dict]]:
    """(D, one dict per family): D is the lcm of the families'
    denominators, and each value v on a word w becomes the integer
    v * D**len(w).  The empty word gets 1."""
    D = lcm(*{v.denominator for f in families for v in f._values.values()})
    powers = [D ** n for n in range(max(f.N for f in families) + 1)]
    out = []
    for f in families:
        scaled = {(): 1}
        for w, v in f._values.items():
            scaled[w] = v.numerator * (powers[len(w)] // v.denominator)
        out.append(scaled)
    return D, out


def _ungraded(D: int, scaled: dict, shape: MultilinearFamily, kind: str) -> MultilinearFamily:
    """The family over shape's (k, N) with value scaled[w] / D**len(w)."""
    powers = [D ** n for n in range(shape.N + 1)]
    return MultilinearFamily(
        shape.k,
        shape.N,
        {w: Fraction(scaled[w], powers[len(w)]) for w in all_words(shape.k, shape.N)},
        kind=kind,
    )


# ---------------------------------------------------------------------------
# The first-block recursion
# ---------------------------------------------------------------------------

def _subword(positions: tuple[int, ...]):
    """Getter of the tuple of a word's letters at the given 0-based
    positions, in the order given."""
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _row(block: tuple[int, ...]):
    """Recursion row for a block V holding position 0: (getter of the
    subword w|V, inner gaps as (start, stop), start of the tail)."""
    gaps = tuple((a + 1, b) for a, b in zip(block, block[1:]) if b > a + 1)
    return _subword(block), gaps, block[-1] + 1


@lru_cache(maxsize=None)
def _nc_first_blocks(n: int):
    """Rows for all 2^(n-1) blocks holding position 0 among 0..n-1; the
    whole word comes last."""
    return tuple(
        _row((0,) + tuple(i + 1 for i in range(n - 1) if mask >> i & 1))
        for mask in range(1 << (n - 1))
    )


@lru_cache(maxsize=None)
def _interval_first_blocks(n: int):
    """Rows for the n intervals holding position 0; the whole word comes
    last."""
    return tuple(_row(tuple(range(m))) for m in range(1, n + 1))


def _first_block_sum(rows_of, k: int, N: int, block: dict, inner: dict, tail: dict,
                     solve: bool) -> dict:
    """Run target(w) = sum over rows_of(|w|) of block(w|V) * prod
    inner(gap) * tail(w[t:]) over the words of length 1..N, shortest first.

    With solve, the target is tail and block is the unknown: the last row,
    V = the whole word, reads block[w] with weight 1, so block[w] is tail[w]
    minus the other rows.  Otherwise tail is the unknown, which the rows
    read only on shorter words.  Fills and returns the unknown."""
    for n in range(1, N + 1):
        rows = rows_of(n)[:-1] if solve else rows_of(n)
        for w in words_of_length(k, n):
            total = 0
            for get, gaps, t in rows:
                term = block[get(w)] * tail[w[t:]]
                for a, b in gaps:
                    term *= inner[w[a:b]]
                total += term
            if solve:
                block[w] = tail[w] - total
            else:
                tail[w] = total
    return block if solve else tail


def _free_dual(k: int, N: int, block: dict, dblock: dict, mom: dict, dmom: dict,
               solve: bool) -> tuple[dict, dict]:
    """The free recursion over dual numbers x + epsilon * dx, with block =
    (block, dblock) and inner = tail = (mom, dmom).  Solves for the block
    pair or sums for the moment pair, as `_first_block_sum` does."""
    for n in range(1, N + 1):
        rows = _nc_first_blocks(n)[:-1] if solve else _nc_first_blocks(n)
        for w in words_of_length(k, n):
            total = dtotal = 0
            for get, gaps, t in rows:
                v, rest = get(w), w[t:]
                a, x = block[v], mom[rest]
                a, da = a * x, a * dmom[rest] + dblock[v] * x
                for g0, g1 in gaps:
                    gap = w[g0:g1]
                    x = mom[gap]
                    a, da = a * x, a * dmom[gap] + da * x
                total += a
                dtotal += da
            if solve:
                block[w], dblock[w] = mom[w] - total, dmom[w] - dtotal
            else:
                mom[w], dmom[w] = total, dtotal
    return (block, dblock) if solve else (mom, dmom)


def _free(p: dict, k: int, N: int) -> dict:
    """Graded free cumulants of the graded moments p."""
    return _first_block_sum(_nc_first_blocks, k, N, {}, p, p, True)


def _boolean(c: dict, k: int, N: int) -> dict:
    """Graded Boolean cumulants of the graded moments c."""
    return _first_block_sum(_interval_first_blocks, k, N, {}, c, c, True)


def _cfree(p: dict, c: dict, k: int, N: int) -> dict:
    """Graded c-free cumulants of the graded pair (phi, chi) = (p, c)."""
    return _first_block_sum(_nc_first_blocks, k, N, {}, p, c, True)


def _moments_cfree(p: dict, kc: dict, k: int, N: int) -> dict:
    """Graded chi of the graded phi and c-free cumulants kc."""
    return _first_block_sum(_nc_first_blocks, k, N, kc, p, {(): 1}, False)


# ---------------------------------------------------------------------------
# The lattice kernel, the paper's definition and the oracle
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


# ---------------------------------------------------------------------------
# Cached lattice tables, all over 0-based positions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_mob_table(n: int) -> tuple[tuple[int, Blocks0], ...]:
    """Kernel rows over NC(n) weighted by the Moebius value."""
    return tuple((_moebius_int(blocks, n), blocks) for blocks in _nc_range(n))


# The cached interval partitions of nc; tests and the perfbench tracer read
# them under this name.
_interval_table = _interval_range


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
    D, (p,) = _graded(phi)
    return _ungraded(D, _free(p, phi.k, phi.N), phi, "free-cumulant")


def moments_from_free(kappa: MultilinearFamily) -> MultilinearFamily:
    """Inverse of free_cumulants: the product sum over NC(n)."""
    D, (c,) = _graded(kappa)
    mom = {(): 1}
    _first_block_sum(_nc_first_blocks, kappa.k, kappa.N, c, mom, mom, False)
    return _ungraded(D, mom, kappa, "moment")


def boolean_cumulants(chi: MultilinearFamily) -> MultilinearFamily:
    """Signed sum over the interval partitions."""
    D, (c,) = _graded(chi)
    return _ungraded(D, _boolean(c, chi.k, chi.N), chi, "boolean-cumulant")


def moments_from_boolean(beta: MultilinearFamily) -> MultilinearFamily:
    """Inverse of boolean_cumulants."""
    D, (b,) = _graded(beta)
    mom = {(): 1}
    _first_block_sum(_interval_first_blocks, beta.k, beta.N, b, mom, mom, False)
    return _ungraded(D, mom, beta, "moment")


# ---------------------------------------------------------------------------
# Infinitesimal cumulants
# ---------------------------------------------------------------------------

def _dual_cumulants(phi: MultilinearFamily, phi_prime: MultilinearFamily):
    """(D, graded phi', graded free cumulants of phi, graded infinitesimal
    cumulants of (phi, phi')): the last two are the real and epsilon parts
    of the free cumulants of phi + epsilon * phi'."""
    D, (p, dp) = _graded(phi, phi_prime)
    dp[()] = 0
    return (D, dp, *_free_dual(phi.k, phi.N, {}, {}, p, dp, True))


def _free_and_infinitesimal(
    phi: MultilinearFamily, phi_prime: MultilinearFamily
) -> tuple[dict, dict]:
    """Free cumulants of phi and infinitesimal cumulants of (phi, phi')."""
    D, _, kap, dkap = _dual_cumulants(phi, phi_prime)
    return (_ungraded(D, kap, phi, "free-cumulant")._values,
            _ungraded(D, dkap, phi, "infinitesimal-cumulant")._values)


def infinitesimal_cumulants(
    phi: MultilinearFamily, phi_prime: MultilinearFamily
) -> MultilinearFamily:
    """One distinguished block carries the derivative family, all others the
    moments, with the usual Moebius weight."""
    _require_same_shape(phi, phi_prime)
    D, _, _, dkap = _dual_cumulants(phi, phi_prime)
    return _ungraded(D, dkap, phi, "infinitesimal-cumulant")


def _moments_and_infinitesimal(kappa_phi: MultilinearFamily, kappa_prime: MultilinearFamily):
    """The base moments and the derivative family of the free cumulants of
    the base and the infinitesimal cumulants."""
    D, (c, dc) = _graded(kappa_phi, kappa_prime)
    mom, dmom = _free_dual(kappa_phi.k, kappa_phi.N, c, dc, {(): 1}, {(): 0}, False)
    return (_ungraded(D, mom, kappa_phi, "moment"),
            _ungraded(D, dmom, kappa_phi, "infinitesimal"))


def infinitesimal_moments(
    kappa_phi: MultilinearFamily, kappa_prime: MultilinearFamily
) -> MultilinearFamily:
    """Reconstruct the derivative family from free cumulants of the base and
    the infinitesimal cumulants; inverse of infinitesimal_cumulants."""
    _require_same_shape(kappa_phi, kappa_prime)
    return _moments_and_infinitesimal(kappa_phi, kappa_prime)[1]


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
    D, (p, c) = _graded(phi, chi)
    return _ungraded(D, _cfree(p, c, phi.k, phi.N), phi, "cfree-cumulant")


def moments_from_cfree(
    phi: MultilinearFamily, kappa_c: MultilinearFamily
) -> MultilinearFamily:
    """Forward inner/outer product sum, with free cumulants of phi inside."""
    _require_same_shape(phi, kappa_c)
    D, (p, kc) = _graded(phi, kappa_c)
    return _ungraded(D, _moments_cfree(p, kc, phi.k, phi.N), phi, "moment")


def cfree_explicit(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """Non-recursive c-free cumulants: a Moebius-weighted sum over the
    partitions with unique outer block, Boolean cumulants of chi on that
    block and moments of phi elsewhere."""
    _require_same_shape(phi, chi)
    D, (p, c) = _graded(phi, chi)
    bchi = _boolean(c, phi.k, phi.N)
    out = {}
    for n in range(1, phi.N + 1):
        rows = [(mob, (holder,), others) for mob, holder, others in _ll_one_table(n)]
        for w in words_of_length(phi.k, n):
            out[w] = _lattice_sum(rows, (bchi, p), w)
    return _ungraded(D, out, phi, "cfree-cumulant")


# ---------------------------------------------------------------------------
# Alternative c-free cumulants over the opposite-order signed lattice
# ---------------------------------------------------------------------------

def _free_and_cc(p: dict, c: dict, k: int, N: int) -> tuple[dict, dict]:
    """Graded free cumulants of phi and alternative c-free cumulants of
    (phi, chi) = (p, c), by the factorization kappa_cc = kappa_c - kappa_phi."""
    kf = _free(p, k, N)
    kc = _cfree(p, c, k, N)
    return kf, {w: kc[w] - kf[w] for w in kc}


def cc_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """The unknown of the signed-lattice expansion of chi, in which blocks
    inside the positives carry free cumulants of phi and zero-blocks the
    unknown family; it is the c-free minus the free cumulants of phi."""
    _require_same_shape(phi, chi)
    D, (p, c) = _graded(phi, chi)
    kcc = _free_and_cc(p, c, phi.k, phi.N)[1]
    return _ungraded(D, kcc, phi, "cc-cumulant")


def _cc_cumulants(phi: MultilinearFamily, chi: MultilinearFamily) -> MultilinearFamily:
    """The alternative c-free cumulants by their definition: solve chi = the
    sum over the opposite-order lattice, pairs carrying free cumulants of
    phi and zero-blocks the unknown, for the unknown.  The row whose one
    zero-block is the whole word isolates it; every other row needs it only
    on shorter words, which are solved first."""
    D, (p, c) = _graded(phi, chi)
    kf = _free(p, phi.k, phi.N)
    out: dict = {}
    for n in range(1, phi.N + 1):
        whole = (tuple(range(n)),)
        rows = [r for r in _bopp_table(n) if r[-1] != whole]
        for w in words_of_length(phi.k, n):
            out[w] = c[w] - _lattice_sum(rows, (kf, out), w)
    return _ungraded(D, out, phi, "cc-cumulant")


def moments_from_cc(
    phi: MultilinearFamily, kappa_cc: MultilinearFamily
) -> MultilinearFamily:
    """Forward signed-lattice sum reconstructing chi from phi and the
    alternative c-free cumulants: the c-free sum with kappa_c = kappa_phi +
    kappa_cc."""
    _require_same_shape(phi, kappa_cc)
    D, (p, cc) = _graded(phi, kappa_cc)
    kf = _free(p, phi.k, phi.N)
    kc = {w: kf[w] + cc[w] for w in kf}
    return _ungraded(D, _moments_cfree(p, kc, phi.k, phi.N), phi, "moment")


# ---------------------------------------------------------------------------
# Signed-lattice rewritings of the moment formulas (verification routines)
# ---------------------------------------------------------------------------

def _first_mismatch(rows_of, sources, want: dict, k: int, N: int):
    for w in all_words(k, N):
        if _lattice_sum(rows_of(len(w)), sources, w) != want[w]:
            return w
    return None


def eq_typeb_counterexample(phi: MultilinearFamily, phi_prime: MultilinearFamily):
    """Check the type-B single-sum form of the derivative moments: the
    zero-block carries an infinitesimal cumulant, the symmetric pairs carry
    free cumulants of phi.  Returns the first failing word or None."""
    _require_same_shape(phi, phi_prime)
    _, dp, kphi, kprime = _dual_cumulants(phi, phi_prime)
    return _first_mismatch(_b_zero_table, (kprime, kphi), dp, phi.k, phi.N)


def eq_bopp_counterexample(phi: MultilinearFamily, chi: MultilinearFamily):
    """Check the opposite-order single-sum form of chi - phi: zero-blocks
    carry alternative c-free cumulants, pairs carry free cumulants of phi.
    Returns the first failing word or None."""
    _require_same_shape(phi, chi)
    _require_signed_limit(phi.N)
    _, (p, c) = _graded(phi, chi)
    kphi, kcc = _free_and_cc(p, c, phi.k, phi.N)
    want = {w: c[w] - p[w] for w in kcc}
    return _first_mismatch(_bopp_zero_table, (kcc, kphi), want, phi.k, phi.N)
