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

(n-1)(n-2)/2 terms per word where there are 2^(n-2) blocks.  Inner is read
only on gaps, at most n - 2 long, so `_closed` takes its degree from block.
Each transform is thus an n-term interval step and this recursion,
shortest words first.  A forward pass runs it down from Q(w, n-1) =
block(w) to beta(w); the cut words are shorter, so a solve for the unknown
block runs it up from Q(w, 0) = beta(w) to block(w) = Q(w, n-1).  The
alternative c-free cumulants kappa_cc = kappa_c - kappa_phi (the
opposite-order lattice is in bijection with the pairs of pi in NC(n) and a
set of its outer blocks, which become zero-blocks) solve the closed sum,
linear in block, against beta_chi - beta_phi.  Infinitesimal cumulants are
the epsilon-part of the free cumulants of phi + epsilon * phi' over the
dual numbers (epsilon^2 = 0), so their transforms run both steps on jets:
tuples of parts, part j of a product summing part p of one factor times
part j - p of the other, one part for the plain sums and two for the duals.
The public wrappers, the products and the checks share the layer entries:
`_cfree` (the free cumulants are `_cfree(p, p)`), `_moments_cfree` and its
closed sums `_closed_sums`, and `_moments` and its inverse `_dual`, on jets
of one part or two.  Each of the eleven public transforms is one call to
`_on_layers`, its graded boundary.

The explicit c-free formula weighs the partitions with a unique outer
block V by their Moebius value, which factors over the gaps of V through
the Kreweras complement.  So it is the closed sum with block = beta_chi and
inner = F, the interval inverse of 1 + kappa_phi: F(empty) = 1 and F(u) =
-sum over u = xy with x nonempty of kappa_phi(x) * F(y).

The sums run on graded ints: with D the lcm of a call's input
denominators, a value v on w becomes the integer v * D**|w|, and every term
over w scales by exactly D**|w|.  A value enters by one read of each slot
of CPython's `fractions.Fraction` (`__slots__ = ('_numerator',
'_denominator')` on 3.10 to 3.13, the canonical pair), in `_scaled` and
`_denominator_lcm`, the package's one reader; it leaves, at the positive
scale P, as v/g over P/g with one g = gcd(v, P), set into a bare
Fraction's slots with no constructor call.
The values are the families' layers, graded: layers[n] lists the words
of length n in rank order (`words_of_length`), a word's rank being its
letters less one as base-k digits; layers[0] = [1] is never read.  For
w = head|mid|tail with a head of length a and rank h and a tail of
length L = n - b, the cut word head|tail has rank h * k**L + rank(tail).
So the terms of one (a, b) over a layer run over h, then inner[b - a]
(the mids in rank order), then the slice h * k**L : (h+1) * k**L of the
column Q(., a) of length n - (b - a), already in the layer's order; the
interval terms of one i are the outer product of block[i] and
moments[n - i].  Every graded kernel reads its degree and letter count
off its layers, as len(layers) - 1 and len(layers[1]), and takes neither.

The lattice sums stay as the paper's definitions and as the oracles, on
the same layers.  `_ranks(k, n, positions)` lists, over the words w of
length n in rank order, the rank of w|positions in its own layer, so a
source read on w|b for every w is one gather.  `_lattice_sum` returns a
whole layer: each row of a cached table, read off the block rows of NC(n)
or of a signed lattice and never off partition objects, adds its
coefficient times the product of the gathers on its blocks, one gather per
(source, block) and call.  It sums on the rows' circuit (`_circuit`,
memoized on the rows tuple by its content): each row's factors sorted by
the block's least position, then by (source, block), are one path of a
trie, and equal subtries are one node, so each row is read, and the sum
costs one product per edge and one add per node, children first.  It
runs the signed-lattice rewritings and the selftest's opposite-order
resum of chi on one table per flavor (`_signed_table`), the resummation
lemmas and the gamma-eta search, always forward over every row: no
lattice sum is solved.  Each transform maps input degree n to output
degree n.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable

from .families import MultilinearFamily, _ranks, _require_same_shape, words_of_length
from .nc import _check_size, _moebius_int, _nc_span
from .typeb import DEFAULT_SIGNED_LIMIT, Flavor, _signed_rows

Blocks0 = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Graded integers on dense per-length layers
# ---------------------------------------------------------------------------

def _denominator_lcm(layers) -> int:
    """The lcm of the denominators of the Fractions in the given layers."""
    return lcm(*{v._denominator for layer in layers for v in layer})


def _scaled(layer, P: int) -> list:
    """The ints v * P of the Fractions v of a layer, P a multiple of each denominator."""
    return [v._numerator * (P // v._denominator) for v in layer]


def _graded(*families: MultilinearFamily) -> tuple[int, list[list]]:
    """(D, the layers of each family): D is the lcm of the families'
    denominators, and layers[n] lists the integers v * D**n of the words of
    length n in rank order, layers[0] = [1] standing for the empty word."""
    D = _denominator_lcm(layer for f in families for layer in f._layers)
    return D, [[[1]] + [_scaled(x, D ** n) for n, x in enumerate(f._layers) if n] for f in families]


def _ungraded(D: int, layers: list, kind: str, scale: int = 1) -> MultilinearFamily:
    """The family with value layers[n][rank] / (scale * D**n), its k and N read off layers."""
    out, new = [()], object.__new__
    for n in range(1, len(layers)):
        P, layer = scale * D ** n, []
        for v in layers[n]:
            g, q = gcd(v, P), new(Fraction)
            q._numerator, q._denominator = v // g, P // g
            layer.append(q)
        out.append(tuple(layer))
    return MultilinearFamily._trusted(len(out[1]), len(layers) - 1, tuple(out), kind)


def _blank(N: int, parts: int = 1) -> tuple:
    """A jet of layers 0..N of an unknown; the kernels read N off its length."""
    return tuple([[1]] + [None] * N for _ in range(parts))


def _first_word(k: int, n: int, got, want):
    """The first word of length n where the layers got and want differ, or
    None; either may be a list or a tuple.  Layers that agree as far as the
    shorter goes raise ValueError."""
    if tuple(got) != tuple(want):
        return next(w for w, x, y in zip(words_of_length(k, n), got, want, strict=True) if x != y)
    return None


def _first_difference(k: int, got, want):
    """The first word where two tables over k letters differ, or None: got
    and want list their layers of lengths 1, 2, ... in step, at one scale,
    and got may be a generator, so that no layer past it is built.  Tables
    that agree as far as the shorter goes raise ValueError."""
    found = (_first_word(k, n, x, y) for n, (x, y) in enumerate(zip(got, want, strict=True), 1))
    return next((w for w in found if w is not None), None)


# ---------------------------------------------------------------------------
# The Boolean interval step and the closed-block sum
# ---------------------------------------------------------------------------

def _negated(jet: tuple) -> tuple:
    """The jet with every value negated."""
    return tuple([[-x for x in layer] for layer in part] for part in jet)


def _interval(block: tuple, mom: tuple, solve: bool, lengths=None) -> tuple:
    """The Boolean step mom(w) = sum over 0 < i <= n of block(w[:i]) *
    mom(w[i:]), mom(empty) = 1, on jets of layers, lengths (default all)
    shortest first.  With solve, block is the unknown, read on w itself
    with weight 1: mom(w) plus the terms on -mom.  Otherwise mom is, read
    only on shorter words.  Fills and returns the unknown."""
    known, unknown, right = (mom, block, _negated(mom)) if solve else (block, mom, mom)
    for n in range(1, len(block[0])) if lengths is None else lengths:
        for j, part in enumerate(unknown):
            terms = [[x * y for x in block[p][i] for y in right[j - p][n - i]]
                     for i in range(1, n) for p in range(j + 1)]
            part[n] = list(map(sum, zip(known[j][n], *terms)))
    return unknown


def _closed(block: tuple, inner: tuple, target: tuple, solve: bool, lengths=None, Q=None) -> tuple:
    """target(w) = sum over the blocks V holding both ends of w of block(w|V)
    * prod inner(gap), as in `_interval`, by the cut recursion on Q, which
    maps each length m read so far to its columns: Q[m][j][a] is part j of
    Q(u, a) over the words u of length m.  With solve, block is the unknown
    and the columns run up from Q(w, 0) = target(w), adding the terms on
    -inner; otherwise target is, and they run down from Q(w, n-1) =
    block(w) = Q(w, n-2).  No word reads the longest words' columns, which
    are not kept.  The degree is block's, k the known side's.  Fills and returns the unknown."""
    Q = {} if Q is None else Q
    known, unknown = (target, block) if solve else (block, target)
    N, k = len(block[0]) - 1, len(known[0][1])
    K = [k ** L for L in range(N + 1)]
    inner = _negated(inner) if solve else inner
    for n in range(1, N + 1) if lengths is None else lengths:
        cols = [[part[n]] * n for part in known]
        for a in range(1, n - 1) if solve else range(n - 2, 0, -1):
            for j, col in enumerate(cols):
                terms = [col[a - 1] if solve else col[a]]
                for b in range(a + 1, n):
                    KL, src = K[n - b], Q[a + n - b]
                    for p in range(j + 1):
                        mids, tails = inner[p][b - a], src[j - p][a]
                        terms.append([x * y for h in range(0, len(tails), KL) for x in mids
                                      for y in tails[h:h + KL]])
                col[a if solve else a - 1] = list(map(sum, zip(*terms)))
        for part, col in zip(unknown, cols):
            col[-1] = col[n - 2]  # no gap fits after n - 2
            part[n] = col[-1] if solve else col[0]
        if n < N:
            Q[n] = cols
    return unknown


def _boolean(c: list) -> list:
    """Graded Boolean cumulants of the graded moments c."""
    return _interval(_blank(len(c) - 1), (c,), True)[0]


def _cfree(p: list, c: list, beta: list | None = None) -> list:
    """Graded c-free cumulants of the graded moments (p, c): their closed
    sums, moments of p in the gaps, are the Boolean cumulants beta of c,
    computed unless given.  With c = p they are the free cumulants of p."""
    return _closed(_blank(len(p) - 1), (p,), (_boolean(c) if beta is None else beta,), True)[0]


def _moments(jet: tuple) -> tuple:
    """The moments jet of the free cumulant jet, one part for the plain
    moments and two for the infinitesimal ones, length by length because
    the closed sums read the moments in their gaps."""
    N, parts = len(jet[0]) - 1, len(jet)
    beta, mom, Q = _blank(N, parts), _blank(N, parts), {}
    for n in range(1, N + 1):
        _closed(jet, mom, beta, False, (n,), Q)
        _interval(beta, mom, False, (n,))
    return mom


def _closed_sums(p: list, kc: list) -> list:
    """Graded closed sums of kc, moments p in the gaps: with kc c-free cumulants, beta_chi."""
    return _closed((kc,), (p,), _blank(len(kc) - 1), False)[0]


def _moments_cfree(p: list, kc: list) -> list:
    """Graded c-free moments from the graded moments p and c-free cumulants kc."""
    return _interval((_closed_sums(p, kc),), _blank(len(kc) - 1), False)[0]


def _moments_cc(p: list, cc: list) -> list:
    """Graded c-free moments from the graded moments p and alternative
    c-free cumulants cc: beta_chi is beta_phi plus the closed sums of cc."""
    beta = [list(map(add, x, y)) for x, y in zip(_closed_sums(p, cc), _boolean(p))]
    return _interval((beta,), _blank(len(cc) - 1), False)[0]


def _explicit(p: list, c: list, beta: list | None = None) -> list:
    """Graded c-free cumulants of (p, c) by the explicit formula; beta as in `_cfree`."""
    F = _interval(_negated((_cfree(p, p),)), _blank(len(p) - 1), False)
    return _closed((_boolean(c) if beta is None else beta,), F, _blank(len(p) - 1), False)[0]


def _cc(p: list, c: list) -> list:
    """Graded alternative c-free cumulants of (phi, chi) = (p, c): as kappa_cc =
    kappa_c - kappa_phi, the solve of `_cfree` against beta_chi - beta_phi."""
    return _cfree(p, c, [list(map(sub, x, y)) for x, y in zip(_boolean(c), _boolean(p))])


def _dual(jet: tuple) -> tuple:
    """The free cumulant jet of the moments jet, inverting `_moments`: the
    real part, and for (p, dp) the epsilon part of the free cumulants of
    p + epsilon * dp, the infinitesimal cumulants, linear in dp."""
    N, parts = len(jet[0]) - 1, len(jet)
    return _closed(_blank(N, parts), jet, _interval(_blank(N, parts), jet, True), True)


# ---------------------------------------------------------------------------
# The lattice kernel, the paper's definition and the oracle
# ---------------------------------------------------------------------------

def _lattice_sum(rows, sources, n: int) -> list:
    """The layer of length n of the sum over rows (coefficient, group, group,
    ...) of the coefficient times, for each source's graded layers and each
    block b in that source's group, the source on w|b.  It runs on the rows'
    circuit, children first: a node's value is its coefficient plus, over
    its edges, the gather of the edge's (source, block) times the child's."""
    factors, nodes, k = *_circuit(rows), len(sources[0][1])
    gathers = [list(map(sources[i][len(b)].__getitem__, _ranks(k, n, b))) for i, b in factors]
    values: list = []
    for coeff, edges in nodes:
        values.append(list(map(sum, zip(repeat(coeff, k ** n),
                                        *(map(mul, gathers[f], values[c]) for f, c in edges)))))
    return values[-1]


@lru_cache(maxsize=64)  # above the 29 tables a selftest reads and the 24 signed ones to N = 8
def _circuit(rows: tuple) -> tuple:
    """The rows as a circuit: the distinct factors (source, block), and the
    nodes (coefficient, edges (factor, child)), children first, root last.
    Each row, its factors sorted by the block's least position and then by
    (source, block), is one path from the root of a trie that adds the
    coefficient at the path's end; equal subtries are one node."""
    root: dict = {}
    for coeff, *groups in rows:
        node = root
        for factor in sorted(((i, b) for i, blocks in enumerate(groups) for b in blocks),
                             key=lambda f: (min(f[1]), f)):
            node = node.setdefault(factor, {})
        node[None] = node.get(None, 0) + coeff  # None keys the coefficient ending here
    factors: dict = {}
    ids: dict = {}

    def share(node: dict) -> int:
        key = (node.pop(None, 0), tuple(sorted(
            (factors.setdefault(f, len(factors)), share(child)) for f, child in node.items())))
        return ids.setdefault(key, len(ids))

    share(root)
    return tuple(factors), tuple(ids)


# ---------------------------------------------------------------------------
# Cached lattice tables, all over 0-based positions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_mob_table(n: int) -> tuple[tuple[int, Blocks0], ...]:
    """Kernel rows over NC(n) weighted by the Moebius value."""
    return tuple((_moebius_int(blocks, n), blocks) for blocks in _nc_span(0, n))


@lru_cache(maxsize=None)
def _signed_table(n: int, flavor: Flavor):
    """Kernel rows over the flavor's signed lattice, in its canonical order:
    (1, Abs of each zero-block, Abs of each symmetric pair), read off its
    block rows.  A block is a zero-block when it holds the negative of its
    first label; a pair's two blocks give one Abs, kept once."""
    @lru_cache(maxsize=None)
    def read(block):
        return -block[0] in block, tuple(sorted({abs(x) - 1 for x in block}))

    rows = []
    for blocks in _signed_rows(n, flavor):
        groups = list(map(read, blocks))
        rows.append((1, tuple(a for zero, a in groups if zero),
                     tuple(dict.fromkeys(a for zero, a in groups if not zero))))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The public transforms, each one core on the layers
# ---------------------------------------------------------------------------

def _on_layers(core: Callable, kind: str, f: MultilinearFamily,
               *others: MultilinearFamily) -> MultilinearFamily:
    """The shape check, then core(the graded layers of f and the others)
    read back at their one D as a family of the given kind."""
    _require_same_shape(f, *others)
    D, layers = _graded(f, *others)
    return _ungraded(D, core(*layers), kind)


def free_cumulants(phi: MultilinearFamily) -> MultilinearFamily:
    """Moebius inversion of the moment family over NC(n)."""
    return _on_layers(lambda p: _cfree(p, p), "free-cumulant", phi)


def moments_from_free(kappa: MultilinearFamily) -> MultilinearFamily:
    """Inverse of free_cumulants: the product sum over NC(n)."""
    return _on_layers(lambda c: _moments((c,))[0], "moment", kappa)


def boolean_cumulants(chi: MultilinearFamily) -> MultilinearFamily:
    """Signed sum over the interval partitions."""
    return _on_layers(_boolean, "boolean-cumulant", chi)


def moments_from_boolean(beta: MultilinearFamily) -> MultilinearFamily:
    """Inverse of boolean_cumulants."""
    return _on_layers(lambda b: _interval((b,), _blank(len(b) - 1), False)[0], "moment", beta)


def infinitesimal_cumulants(
    phi: MultilinearFamily, phi_prime: MultilinearFamily
) -> MultilinearFamily:
    """One distinguished block carries the derivative family, all others the
    moments, with the usual Moebius weight."""
    return _on_layers(lambda p, dp: _dual((p, dp))[1], "infinitesimal-cumulant", phi, phi_prime)


def infinitesimal_moments(
    kappa_phi: MultilinearFamily, kappa_prime: MultilinearFamily
) -> MultilinearFamily:
    """Reconstruct the derivative family from free cumulants of the base and
    the infinitesimal cumulants; inverse of infinitesimal_cumulants."""
    return _on_layers(lambda c, dc: _moments((c, dc))[1], "infinitesimal", kappa_phi, kappa_prime)


def cfree_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """The recursive solution: inner blocks carry free cumulants of phi,
    outer blocks the c-free cumulants themselves, whose closed sums are the
    Boolean cumulants of chi."""
    return _on_layers(_cfree, "cfree-cumulant", phi, chi)


def moments_from_cfree(
    phi: MultilinearFamily, kappa_c: MultilinearFamily
) -> MultilinearFamily:
    """Forward inner/outer product sum, with free cumulants of phi inside."""
    return _on_layers(_moments_cfree, "moment", phi, kappa_c)


def cfree_explicit(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """Non-recursive c-free cumulants: a Moebius-weighted sum over the
    partitions with unique outer block, Boolean cumulants of chi on that
    block and moments of phi elsewhere.  Each gap's partitions sum to F,
    the interval inverse of 1 + kappa_phi."""
    return _on_layers(_explicit, "cfree-cumulant", phi, chi)


def cc_cumulants(
    phi: MultilinearFamily, chi: MultilinearFamily
) -> MultilinearFamily:
    """The unknown of the signed-lattice expansion of chi, in which blocks
    inside the positives carry free cumulants of phi and zero-blocks the
    unknown family; it is the c-free minus the free cumulants of phi."""
    return _on_layers(_cc, "cc-cumulant", phi, chi)


def moments_from_cc(
    phi: MultilinearFamily, kappa_cc: MultilinearFamily
) -> MultilinearFamily:
    """Forward signed-lattice sum reconstructing chi from phi and the
    alternative c-free cumulants: beta_chi is beta_phi plus the closed sums
    of kappa_cc."""
    return _on_layers(_moments_cc, "moment", phi, kappa_cc)


# ---------------------------------------------------------------------------
# Signed-lattice rewritings of the moment formulas (verification routines)
# ---------------------------------------------------------------------------

def eq_typeb_counterexample(phi: MultilinearFamily, phi_prime: MultilinearFamily):
    """Check the type-B single-sum form of the derivative moments: the
    zero-block carries an infinitesimal cumulant, the symmetric pairs carry
    free cumulants of phi.  Returns the first failing word or None."""
    _require_same_shape(phi, phi_prime)
    _check_size(phi.N, DEFAULT_SIGNED_LIMIT, "signed enumeration")  # before any sum
    _, (p, dp) = _graded(phi, phi_prime)
    kphi, kprime = _dual((p, dp))
    got = (_lattice_sum(tuple(r for r in _signed_table(n, Flavor.B) if r[1]), (kprime, kphi), n)
           for n in range(1, phi.N + 1))
    return _first_difference(phi.k, got, dp[1:])


def eq_bopp_counterexample(phi: MultilinearFamily, chi: MultilinearFamily):
    """Check the opposite-order single-sum form of chi - phi: zero-blocks
    carry alternative c-free cumulants, pairs carry free cumulants of phi.
    Returns the first failing word or None."""
    _require_same_shape(phi, chi)
    _check_size(phi.N, DEFAULT_SIGNED_LIMIT, "signed enumeration")  # before any sum
    _, (p, c) = _graded(phi, chi)
    bphi = _boolean(p)  # once, for the solves of kappa_phi and of kappa_cc as in `_cc`
    kphi, kcc = _cfree(p, p, bphi), _cfree(p, c, [list(map(sub, x, y))
                                                  for x, y in zip(_boolean(c), bphi)])
    got = (_lattice_sum(tuple(r for r in _signed_table(n, Flavor.B_OPP) if r[1]), (kcc, kphi), n)
           for n in range(1, phi.N + 1))
    return _first_difference(phi.k, got, [list(map(sub, x, y)) for x, y in zip(c[1:], p[1:])])
