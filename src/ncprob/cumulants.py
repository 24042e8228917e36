"""Moment/cumulant transforms for all four brands of cumulants.

Each brand is tied to the moments by a sum over a partition lattice.  The
transforms run those sums through Boolean cumulants (Arizmendi, Hasebe,
Lehner & Vargas, Adv. Math. 282, 2015).  A partition in NC(n) is its block
V holding the first letter, partitions of the gaps V leaves between its
consecutive elements, and a partition of the tail after max V.  Grouping
by i = max V gives the Boolean interval step

    moments(w) = sum over i of beta(w[:i]) * moments(w[i:]),

the empty word having value 1, with beta the closed sum

    beta(u) = sum over the blocks V holding both ends of u of
              block(u|V) * prod over the gaps g of inner(u|g).

With block = kappa and inner = phi, beta is the Boolean cumulant of phi;
the c-free moments chi take block = kappa_c and inner = phi, and beta is
the Boolean cumulant of chi.  The closed sum is a cut recursion: Q(w, t)
sums over the blocks V in [t, n) holding t and n-1, with block read on
w[:t] followed by w|V, so that Q(w, n-1) = block(w), beta(w) = Q(w, 0) and
grouping by the gap [a, b) after a-1 gives

    Q(w, a-1) = Q(w, a) + sum over a < b < n of inner(w[a:b]) * Q(w[:a] + w[b:], a),

(n-1)(n-2)/2 terms per word where there are 2^(n-2) blocks.  Each
transform is thus an n-term interval step and this recursion, shortest
words first.  A forward pass runs it down from Q(w, n-1) = block(w) to
beta(w); the cut words are shorter, so a solve for the unknown block runs
it up from Q(w, 0) = beta(w) to block(w) = Q(w, n-1).  The
alternative c-free cumulants kappa_cc = kappa_c - kappa_phi (the
opposite-order lattice is in bijection with the pairs of pi in NC(n) and a
set of its outer blocks, which become zero-blocks) solve the closed sum,
linear in block, against beta_chi - beta_phi.  Infinitesimal cumulants are
the epsilon-part of the free cumulants of phi + epsilon * phi' over the
dual numbers (epsilon^2 = 0), so their transforms run both steps on pairs.

The explicit c-free formula weighs the partitions with a unique outer
block V by their Moebius value, which factors over the gaps of V through
the Kreweras complement.  So it is the closed sum with block = beta_chi and
inner = F, the interval inverse of 1 + kappa_phi: F(empty) = 1 and F(u) =
-sum over u = xy with x nonempty of kappa_phi(x) * F(y).

The sums run on graded ints: with D the lcm of a call's input
denominators, a value v on w becomes the integer v * D**|w|, every term
over w scales by exactly D**|w|, and each output word is one Fraction.

The lattice sums stay as the paper's definitions and as the oracles:
`_lattice_sum` runs the signed-lattice rewritings and the selftest's
resummation lemmas over row tables read off the cached partition
enumerations, and `_cc_cumulants` solves the opposite-order sum.  Each
transform maps input degree n to output degree n.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter

from .errors import LimitExceeded, ShapeMismatch
from .families import MultilinearFamily, all_words, words_of_length
from .nc import _interval_range, _moebius_int, _nc_span, _nests
from .typeb import DEFAULT_SIGNED_LIMIT, Flavor, enumerate_signed, zero_blocks

Blocks0 = tuple[tuple[int, ...], ...]


def _require_same_shape(f: MultilinearFamily, g: MultilinearFamily) -> None:
    if f.k != g.k or f.N != g.N:
        raise ShapeMismatch(f"families disagree: (k={f.k}, N={f.N}) vs (k={g.k}, N={g.N})")


# ---------------------------------------------------------------------------
# Graded integers
# ---------------------------------------------------------------------------

def _graded(*families: MultilinearFamily) -> tuple[int, list[dict]]:
    """(D, one dict per family): D is the lcm of the families'
    denominators, and each value v on a word w becomes the integer
    v * D**len(w)."""
    D = lcm(*{v.denominator for f in families for v in f._values.values()})
    powers = [D ** n for n in range(max(f.N for f in families) + 1)]
    return D, [{w: v.numerator * (powers[len(w)] // v.denominator)
                for w, v in f._values.items()} for f in families]


def _ungraded(D: int, scaled: dict, shape: MultilinearFamily, kind: str) -> MultilinearFamily:
    """The family over shape's (k, N) with value scaled[w] / D**len(w)."""
    powers = [D ** n for n in range(shape.N + 1)]
    values = {w: Fraction(scaled[w], powers[len(w)]) for w in all_words(shape.k, shape.N)}
    return MultilinearFamily(shape.k, shape.N, values, kind=kind)


# ---------------------------------------------------------------------------
# The Boolean interval step and the closed-block sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _subword(positions: tuple[int, ...]):
    """Getter of the tuple of a word's letters at the given 0-based
    positions, in the order given."""
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _interval(words, block: dict, mom: dict, solve: bool) -> dict:
    """The Boolean step mom(w) = sum over 0 < i <= |w| of block(w[:i]) *
    mom(w[i:]), mom(empty) = 1, over words given shortest first.  With
    solve, block is the unknown, read on w itself with weight 1; otherwise
    mom is, read only on shorter words.  Fills and returns the unknown."""
    for w in words:
        total = 0
        for i in range(1, len(w)):
            total += block[w[:i]] * mom[w[i:]]
        if solve:
            block[w] = mom[w] - total
        else:
            mom[w] = block[w] + total
    return block if solve else mom


def _closed(words, block: dict, inner: dict, target: dict, solve: bool, q=None) -> dict:
    """target(w) = sum over the blocks V holding both ends of w of block(w|V)
    * prod inner(gap), over words given shortest first, by the cut
    recursion on q, which maps each word read so far to its row of Q(w, t).
    With solve, block is the unknown and the row runs up from Q(w, 0) =
    target(w); otherwise target is, and the row runs down from Q(w, n-1) =
    block(w).  No gap fits after n-2, so Q(w, n-2) = Q(w, n-1).  Returns the
    unknown."""
    q = {} if q is None else q
    for w in words:
        n = len(w)
        row = [target[w] if solve else block[w]] * n
        for a in range(1, n - 1) if solve else range(n - 2, 0, -1):
            head, step = w[:a], 0
            for b in range(a + 1, n):
                step += inner[w[a:b]] * q[head + w[b:]][a]
            if solve:
                row[a] = row[a - 1] - step
            else:
                row[a - 1] = row[a] + step
        if solve:
            block[w] = row[-1] = row[n - 2]
        else:
            target[w] = row[0]
        q[w] = row
    return block if solve else target


def _interval_dual(words, block, dblock, mom, dmom, solve: bool):
    """`_interval` over dual numbers x + epsilon * dx, each dict paired with
    its epsilon part."""
    for w in words:
        total = dtotal = 0
        for i in range(1, len(w)):
            u, v = w[:i], w[i:]
            b, x = block[u], mom[v]
            total += b * x
            dtotal += b * dmom[v] + dblock[u] * x
        if solve:
            block[w], dblock[w] = mom[w] - total, dmom[w] - dtotal
        else:
            mom[w], dmom[w] = block[w] + total, dblock[w] + dtotal
    return (block, dblock) if solve else (mom, dmom)


def _closed_dual(words, block, dblock, inner, dinner, target, dtarget, solve: bool, q=None):
    """`_closed` over dual numbers, each dict paired with its epsilon part;
    q maps a word to its rows of Q and of its epsilon part."""
    q = {} if q is None else q
    for w in words:
        n = len(w)
        start, dstart = (target[w], dtarget[w]) if solve else (block[w], dblock[w])
        row, drow = [start] * n, [dstart] * n
        for a in range(1, n - 1) if solve else range(n - 2, 0, -1):
            head, step, dstep = w[:a], 0, 0
            for b in range(a + 1, n):
                u = w[a:b]
                x, (cut, dcut) = inner[u], q[head + w[b:]]
                step += x * cut[a]
                dstep += x * dcut[a] + dinner[u] * cut[a]
            if solve:
                row[a], drow[a] = row[a - 1] - step, drow[a - 1] - dstep
            else:
                row[a - 1], drow[a - 1] = row[a] + step, drow[a] + dstep
        if solve:
            block[w] = row[-1] = row[n - 2]
            dblock[w] = drow[-1] = drow[n - 2]
        else:
            target[w], dtarget[w] = row[0], drow[0]
        q[w] = row, drow
    return (block, dblock) if solve else (target, dtarget)


def _boolean(c: dict, k: int, N: int) -> dict:
    """Graded Boolean cumulants of the graded moments c."""
    return _interval(all_words(k, N), {}, c, True)


def _free(p: dict, k: int, N: int) -> dict:
    """Graded free cumulants of the graded moments p: their closed sums,
    moments in the gaps, are the Boolean cumulants of p."""
    return _closed(all_words(k, N), {}, p, _boolean(p, k, N), True)


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
                term *= val[_subword(b)(w)]
        total += term
    return total


# ---------------------------------------------------------------------------
# Cached lattice tables, all over 0-based positions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_mob_table(n: int) -> tuple[tuple[int, Blocks0], ...]:
    """Kernel rows over NC(n) weighted by the Moebius value."""
    return tuple((_moebius_int(blocks, n), blocks) for blocks in _nc_span(0, n))


# The cached interval partitions of nc; tests and the perfbench tracer read
# them under this name.
_interval_table = _interval_range


@lru_cache(maxsize=None)
def _roles_table(n: int):
    """Kernel rows (1, inner blocks, outer blocks) over NC(n)."""
    out = []
    for blocks in _nc_span(0, n):
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
    """Inverse of free_cumulants: the product sum over NC(n), length by
    length because the closed sums read the moments in their gaps."""
    D, (c,) = _graded(kappa)
    beta, mom, q = {}, {}, {}
    for n in range(1, kappa.N + 1):
        words = words_of_length(kappa.k, n)
        _interval(words, _closed(words, c, mom, beta, False, q), mom, False)
    return _ungraded(D, mom, kappa, "moment")


def boolean_cumulants(chi: MultilinearFamily) -> MultilinearFamily:
    """Signed sum over the interval partitions."""
    D, (c,) = _graded(chi)
    return _ungraded(D, _boolean(c, chi.k, chi.N), chi, "boolean-cumulant")


def moments_from_boolean(beta: MultilinearFamily) -> MultilinearFamily:
    """Inverse of boolean_cumulants."""
    D, (b,) = _graded(beta)
    return _ungraded(D, _interval(all_words(beta.k, beta.N), b, {}, False), beta, "moment")


# ---------------------------------------------------------------------------
# Infinitesimal cumulants
# ---------------------------------------------------------------------------

def _dual_cumulants(phi: MultilinearFamily, phi_prime: MultilinearFamily):
    """(D, graded phi', graded free cumulants of phi, graded infinitesimal
    cumulants of (phi, phi')): the last two are the real and epsilon parts
    of the free cumulants of phi + epsilon * phi'."""
    D, (p, dp) = _graded(phi, phi_prime)
    words = tuple(all_words(phi.k, phi.N))
    beta, dbeta = _interval_dual(words, {}, {}, p, dp, True)
    return (D, dp, *_closed_dual(words, {}, {}, p, dp, beta, dbeta, True))


def _free_and_infinitesimal(phi: MultilinearFamily, phi_prime: MultilinearFamily):
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
    the base and the infinitesimal cumulants, length by length as in
    `moments_from_free`."""
    D, (c, dc) = _graded(kappa_phi, kappa_prime)
    beta, dbeta, mom, dmom, q = {}, {}, {}, {}, {}
    for n in range(1, kappa_phi.N + 1):
        words = words_of_length(kappa_phi.k, n)
        _closed_dual(words, c, dc, mom, dmom, beta, dbeta, False, q)
        _interval_dual(words, beta, dbeta, mom, dmom, False)
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
    outer blocks the c-free cumulants themselves, whose closed sums are the
    Boolean cumulants of chi."""
    _require_same_shape(phi, chi)
    D, (p, c) = _graded(phi, chi)
    kc = _closed(all_words(phi.k, phi.N), {}, p, _boolean(c, phi.k, phi.N), True)
    return _ungraded(D, kc, phi, "cfree-cumulant")


def moments_from_cfree(
    phi: MultilinearFamily, kappa_c: MultilinearFamily
) -> MultilinearFamily:
    """Forward inner/outer product sum, with free cumulants of phi inside."""
    _require_same_shape(phi, kappa_c)
    D, (p, kc) = _graded(phi, kappa_c)
    words = tuple(all_words(phi.k, phi.N))
    chi = _interval(words, _closed(words, kc, p, {}, False), {}, False)
    return _ungraded(D, chi, phi, "moment")


def cfree_explicit(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """Non-recursive c-free cumulants: a Moebius-weighted sum over the
    partitions with unique outer block, Boolean cumulants of chi on that
    block and moments of phi elsewhere.  Each gap's partitions sum to F,
    the interval inverse of 1 + kappa_phi."""
    _require_same_shape(phi, chi)
    D, (p, c) = _graded(phi, chi)
    words = tuple(all_words(phi.k, phi.N))
    F = _interval(words, {w: -v for w, v in _free(p, phi.k, phi.N).items()}, {}, False)
    out = _closed(words, _boolean(c, phi.k, phi.N), F, {}, False)
    return _ungraded(D, out, phi, "cfree-cumulant")


# ---------------------------------------------------------------------------
# Alternative c-free cumulants over the opposite-order signed lattice
# ---------------------------------------------------------------------------

def _cc(p: dict, c: dict, k: int, N: int) -> dict:
    """Graded alternative c-free cumulants of (phi, chi) = (p, c): kappa_cc
    = kappa_c - kappa_phi, so their closed sums are beta_chi - beta_phi."""
    bp, bc = _boolean(p, k, N), _boolean(c, k, N)
    return _closed(all_words(k, N), {}, p, {w: bc[w] - bp[w] for w in bc}, True)


def cc_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """The unknown of the signed-lattice expansion of chi, in which blocks
    inside the positives carry free cumulants of phi and zero-blocks the
    unknown family; it is the c-free minus the free cumulants of phi."""
    _require_same_shape(phi, chi)
    D, (p, c) = _graded(phi, chi)
    return _ungraded(D, _cc(p, c, phi.k, phi.N), phi, "cc-cumulant")


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
    alternative c-free cumulants: beta_chi is beta_phi plus the closed sums
    of kappa_cc."""
    _require_same_shape(phi, kappa_cc)
    D, (p, cc) = _graded(phi, kappa_cc)
    words = tuple(all_words(phi.k, phi.N))
    bp = _boolean(p, phi.k, phi.N)
    beta = {w: v + bp[w] for w, v in _closed(words, cc, p, {}, False).items()}
    return _ungraded(D, _interval(words, beta, {}, False), phi, "moment")


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
    if phi.N > DEFAULT_SIGNED_LIMIT:
        raise LimitExceeded(
            f"degree {phi.N} above signed enumeration limit {DEFAULT_SIGNED_LIMIT}")
    _, (p, c) = _graded(phi, chi)
    kphi, kcc = _free(p, phi.k, phi.N), _cc(p, c, phi.k, phi.N)
    want = {w: c[w] - p[w] for w in kcc}
    return _first_mismatch(_bopp_zero_table, (kcc, kphi), want, phi.k, phi.N)
