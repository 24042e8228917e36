"""The acceptance suite behind the CLI selftest verb.

Each criterion is a function (seed) -> (ok, detail); the runner prints one
line per criterion.  Everything is exact equality on rationals and fully
deterministic for a fixed seed.
"""

import json
import math
from typing import Callable, NamedTuple

from . import (
    Flavor,
    LimitExceeded,
    NcPartition,
    ShapeMismatch,
    all_words,
    boolean_cumulants,
    catalan,
    cfree_cumulants,
    cfree_product,
    convolution_intertwine_counterexample,
    cyclic_cumulant_counterexample,
    cumulant_transform_counterexample,
    enumerate_nc,
    enumerate_signed,
    eq_bopp_counterexample,
    eq_typeb_counterexample,
    free_cumulants,
    from_pair,
    infinitesimal_cumulants,
    infinitesimal_moments,
    infinitesimal_product,
    is_interval,
    kreweras,
    leq,
    ll,
    ll_one,
    moebius_oracle,
    moebius_to_one,
    moments_from_boolean,
    moments_from_cfree,
    moments_from_free,
    one_partition,
    outer_blocks,
    product_intertwine_counterexample,
    psi_k,
    random_delta,
    random_family,
    random_tracial,
    signed_count,
    sqsubseteq,
    to_pair,
    truncate,
)
from .cumulants import (
    _boolean, _cfree, _explicit, _first_difference, _first_word, _graded, _lattice_sum,
    _nc_mob_table, _signed_table)
from .deltastar import _check_inputs, _gamma_eta_rows, _gamma_eta_sum, _gamma_eta_tables
from .errors import NcprobError, _int_in
from .families import _check_shape, _word_count
from .nc import DEFAULT_ENUM_LIMIT, _attach, _check_size, _cut, _kreweras, _nc_span, _parent
from .typeb import DEFAULT_SIGNED_LIMIT


def _criterion_catalan(seed):
    for n in range(1, 11):
        if len(enumerate_nc(n)) != catalan(n):
            return False, f"count mismatch at n={n}"
    return True, "|NC(n)| matches the Catalan numbers for n=1..10"


def _criterion_kreweras(seed):
    reference = NcPartition(10, [(1, 5, 6), (2, 4), (3,), (7,), (8, 10), (9,)])
    expected = NcPartition(10, [(1, 4), (2, 3), (5,), (6, 7, 10), (8, 9)])
    if kreweras(reference) != expected:
        return False, "worked 10-point complement is wrong"
    for n in range(1, 8):
        parts = enumerate_nc(n)
        index = {p: i for i, p in enumerate(parts)}
        kimg = [kreweras(p) for p in parts]
        if len(set(kimg)) != len(parts):
            return False, f"not injective at n={n}"
        kidx = [index[q] for q in kimg]
        lem = [[leq(a, b) for b in parts] for a in parts]
        for i in range(len(parts)):
            for j in range(len(parts)):
                if lem[i][j] != lem[kidx[j]][kidx[i]]:
                    return False, f"order reversal fails at n={n}"
    return True, "order-reversing bijection on NC(n) for n<=7, worked example exact"


def _criterion_moebius(seed):
    for n in range(1, 8):
        one = one_partition(n)
        for p in enumerate_nc(n):
            if moebius_to_one(p) != moebius_oracle(p, one):
                return False, f"closed form != zeta inversion at n={n}, {p}"
    return True, "signed-Catalan closed form equals zeta inversion for n<=7"


def _criterion_ideals(seed):
    for n in range(1, 8):
        parts = enumerate_nc(n)
        llm = [[ll(a, b) for b in parts] for a in parts]
        for j, rho in enumerate(parts):
            count = sum(1 for i in range(len(parts)) if llm[i][j])
            expect = 1
            for b in rho.blocks:
                expect *= catalan(len(b) - 1)
            if count != expect:
                return False, f"lower-ideal cardinality fails at n={n}, {rho}"
        for i, pi in enumerate(parts):
            acc = 0
            for j in range(len(parts)):
                if llm[i][j]:
                    acc += (-1) ** (len(pi.blocks) - len(parts[j].blocks))
            if acc != (1 if is_interval(pi) else 0):
                return False, f"alternating indicator fails at n={n}, {pi}"
    return True, "lower-ideal counts and alternating-sum indicator exact for n<=7"


def _cut_attach_failure(n):
    """The first (partition, i) with pi << 1_n and i in an inner block, not
    its maximum, where K(cut(pi, i)) != attach(K(pi), i); None if none.
    Under 1_n's first block every other block is inner."""
    for row in _nc_span(1, n + 1):
        if row[0][-1] != n:
            continue
        comp = _kreweras(row, n)
        for idx in range(1, len(row)):
            for x in row[idx][:-1]:
                j = next(j for j, b in enumerate(comp) if x in b)
                parent = _parent(comp, j)
                if parent is None or _kreweras(_cut(row, idx, x), n) != _attach(comp, j, parent):
                    return NcPartition(n, row), x
    return None


def _criterion_cut_attach(seed):
    for n in range(1, 8):
        parts = enumerate_nc(n)
        domain = [p for p in parts if ll_one(p)]
        comps = [kreweras(p) for p in domain]
        if set(comps) != {s for s in parts if (n,) in s.blocks}:
            return False, f"image of the restricted complement wrong at n={n}"
        for a, ka in zip(domain, comps):
            for b, kb in zip(domain, comps):
                if sqsubseteq(a, b) != ll(kb, ka):
                    return False, f"anti-isomorphism fails at n={n}"
        bad = _cut_attach_failure(n)
        if bad is not None:
            return False, f"cut/attach duality fails at n={n}, i={bad[1]}"
    return True, "complement anti-isomorphism and cut/attach duality exact for n<=7"


def _criterion_signed_counts(seed):
    for n in range(1, 8):
        cb = len(enumerate_signed(n, Flavor.B))
        co = len(enumerate_signed(n, Flavor.B_OPP))
        if not cb == co == signed_count(n):
            return False, f"count mismatch at n={n}: {cb}, {co}"
    for n in range(1, 7):
        for sigma in enumerate_signed(n, Flavor.B_OPP):
            pi, chosen = to_pair(sigma)
            if from_pair(pi, chosen) != sigma:
                return False, f"pair bijection fails at n={n}"
        total = sum(2 ** len(outer_blocks(p)) for p in enumerate_nc(n))
        if total != signed_count(n):
            return False, f"outer-block subset count fails at n={n}"
    return True, "both signed lattices counted by C(2n,n) for n<=7, bijection round-trips for n<=6"


def _criterion_round_trips(seed):
    for i in range(20):
        k = 1 + i % 2
        s = seed * 1000 + i
        phi = random_family(k, 5, seed=s)
        if moments_from_free(free_cumulants(phi)) != phi:
            return False, f"free round trip fails at draw {i}"
        if free_cumulants(moments_from_free(phi)) != phi:
            return False, f"free reverse round trip fails at draw {i}"
        if moments_from_boolean(boolean_cumulants(phi)) != phi:
            return False, f"boolean round trip fails at draw {i}"
        if boolean_cumulants(moments_from_boolean(phi)) != phi:
            return False, f"boolean reverse round trip fails at draw {i}"
        phip = random_family(k, 5, seed=s + 7000, kind="infinitesimal")
        kphi = free_cumulants(phi)
        if infinitesimal_moments(kphi, infinitesimal_cumulants(phi, phip)) != phip:
            return False, f"infinitesimal round trip fails at draw {i}"
        chi = random_family(k, 5, seed=s + 9000)
        if moments_from_cfree(phi, cfree_cumulants(phi, chi)) != chi:
            return False, f"c-free round trip fails at draw {i}"
    return True, "free/boolean/infinitesimal/c-free transforms invert on 20 seeded families"


def _ll_one_rows(n):
    """Criterion 8's kernel rows over the pi << 1_n, read off NC(n) in one
    pass: ((-1)^(|pi|-1), (outer block,), other blocks) for each, and for
    each outer block the rows (sign, other blocks) and (Moebius value, other
    blocks) of the pi having it."""
    sign_rows, fixed = [], {}
    for mob, blocks in _nc_mob_table(n):
        holder, others = blocks[0], blocks[1:]  # canonical order puts the block of 0 first
        if holder[-1] == n - 1:
            sign = (-1) ** len(others)
            sign_rows.append((sign, (holder,), others))
            by_sign, by_mob = fixed.setdefault(holder, ([], []))
            by_sign.append((sign, others))
            by_mob.append((mob, others))
    return tuple(sign_rows), {holder: tuple(map(tuple, pair)) for holder, pair in fixed.items()}


def _criterion_cfree_formula(seed):
    rows = {n: _ll_one_rows(n) for n in range(1, 6)}
    for i in range(20):
        s = seed * 1000 + 100 + i
        _, (val, c) = _graded(random_family(2, 5, seed=s), random_family(2, 5, seed=s + 5000))
        kp, kcl, bphi, bchi = _cfree(val, val), _cfree(val, c), _boolean(val), _boolean(c)
        if _explicit(val, c) != kcl:
            return False, f"explicit formula != recursion at draw {i}"
        for n in range(1, 6):
            for want, sources, what in ((kp, (bphi, bphi), "free-from-boolean"),
                                        (kcl, (bchi, bphi), "c-free boolean")):
                w = _first_word(2, n, want[n], _lattice_sum(rows[n][0], sources, n))
                if w is not None:
                    return False, f"{what} resummation fails at {w}"
        for n in range(2, 6):
            for by_sign, by_mob in rows[n][1].values():
                w = _first_word(2, n, _lattice_sum(by_sign, (bphi,), n),
                                _lattice_sum(by_mob, (val,), n))
                if w is not None:
                    return False, f"fixed-block resummation fails at {w}"
    return True, "explicit c-free formula and the three resummation lemmas exact on 20 pairs"


def _explicit_failure(phi, chi):
    """The first word where the explicit c-free formula and the recursion
    differ, or None; both sides graded at one D."""
    _, (p, c) = _graded(phi, chi)
    return _first_difference(phi.k, _explicit(p, c)[1:], _cfree(p, c)[1:])


def _cc_difference_failure(phi, chi):
    """The first word where chi and its opposite-order signed-lattice sum
    differ, zero-blocks carrying the c-free minus the free cumulants of
    (phi, chi) and pairs the free cumulants, or None; both sides graded at
    one D.  The whole word is a zero-block of one row, with coefficient 1,
    so at the shortest length where the difference is not the signed-lattice
    cumulants the sum misses chi at exactly the words where it is not."""
    _check_size(phi.N, DEFAULT_SIGNED_LIMIT, "signed enumeration")  # before any sum
    _, (p, c) = _graded(phi, chi)
    kc, kf = _cfree(p, c), _cfree(p, p)
    kcc = [[a - b for a, b in zip(x, y)] for x, y in zip(kc, kf)]
    got = (_lattice_sum(_signed_table(n, Flavor.B_OPP), (kcc, kf), n) for n in range(1, phi.N + 1))
    return _first_difference(phi.k, got, c[1:])


def _target_failure(seed, draws):
    """The first failure's detail, or None.  Each draw (TARGETS row, seed
    offset, (k, N, l) shapes, detail) runs the row's check on seed
    seed * 1000 + offset + i at the i-th shape; a counterexample w there
    reports detail.format(i=i, w=w)."""
    for row, offset, shapes, detail in draws:
        for i, (k, n, l) in enumerate(shapes):
            w = TARGETS[row].check(seed * 1000 + offset + i, k, n, l)
            if w is not None:
                return detail.format(i=i, w=w)
    return None


def _criterion_cc(seed):
    bad = _target_failure(seed, (
        ("prop54", 300, [(2, 5, 1)] * 20, "difference identity fails at draw {i}, word {w}"),
        ("eq5a", 901, [(2, 5, 1)], "type-B moment reconstruction fails"),
        ("eq55a", 901, [(2, 5, 1)], "opposite-order moment reconstruction fails")))
    if bad is not None:
        return False, bad
    return True, "signed-lattice cumulants equal the difference; moment rewritings exact"


def _criterion_transform_theorem(seed):
    bad = _target_failure(
        seed, [("17", 400, [(2, 4, 1)] * 50, "transform identity fails at draw {i}, word {w}")])
    if bad is not None:
        return False, bad
    return True, "tensor transform identity exact on 50 seeded triples, k=2, N=4"


def _criterion_cyclic_theorem(seed):
    bad = _target_failure(seed, (
        ("14", 500, [(2, 4, 1)] * 50, "cyclic identity fails at draw {i}, word {w}"),
        ("14", 550, [(1, 6, 1)] * 50, "univariate cyclic identity fails at draw {i}")))
    if bad is not None:
        return False, bad
    for i in range(50):
        _, nu = _pair(1, 7, seed * 1000 + 550 + i)
        beta = boolean_cumulants(nu)
        mup = psi_k(nu)
        for n in range(1, 7):
            w = tuple([1] * n)
            if mup(w) != n * beta(tuple([1] * (n + 1))):
                return False, f"univariate moment formula fails at n={n}"
    return True, "cyclic cumulant identity exact on 50 pairs at k=2 and 50 at k=1"


def _gamma_eta_cases(max_n):
    """Every (n, m, rows of rho) with n <= max_n, rho << 1_{n+1} and 1 <= m <= n."""
    _check_size(max_n + 1, DEFAULT_ENUM_LIMIT, "enumeration")  # before any case
    for n in range(1, max_n + 1):
        for rows in _nc_span(1, n + 2):
            if rows[0][-1] == n + 1:
                for m in range(1, n + 1):
                    yield n, m, rows


def _criterion_gamma_eta(seed):
    bad = _target_failure(seed, [("lemma67", 600, [(2, 4, 1)], "block identity fails at word {w}")])
    if bad is not None:
        return False, bad
    cases = sum(1 for _ in _gamma_eta_cases(4))
    return True, f"block-level transform identity exhaustive for n<=4 ({cases} cases)"


def _check_restrictions(product_nu, nu1, nu2):
    """Whether product_nu is nu1 on the first group's words and nu2 on the
    second's, their letters raised by nu1.k."""
    return all(product_nu(w) == nu1(w) for w in all_words(nu1.k, nu1.N)) and all(
        product_nu(tuple(x + nu1.k for x in w)) == nu2(w) for w in all_words(nu2.k, nu2.N))


def _criterion_products(seed):
    shapes = [(1, 3, 1)] * 13 + [(2, 3, 1)] * 12
    bad = _target_failure(seed, (
        ("12", 700, [(1, 4, 1)] * 13 + [(2, 4, 1)] * 12,
         "convolution intertwine fails at draw {i}, word {w}"),
        ("13", 800, shapes, "product intertwine fails at draw {i}, word {w}")))
    if bad is not None:
        return False, bad
    for i, (k, n, l) in enumerate(shapes):
        mu1, nu1, mu2, nu2 = _pairs(k, l, n + 1, seed * 1000 + 800 + i)
        mu, nu = cfree_product(mu1, nu1, mu2, nu2)
        if not _check_restrictions(mu, mu1, mu2):
            return False, f"free product restriction fails at draw {i}"
        if not _check_restrictions(nu, nu1, nu2):
            return False, f"c-free restriction fails at draw {i}"
        p1, p2 = psi_k(nu1), psi_k(nu2)
        _, mup = infinitesimal_product(truncate(mu1, 3), p1, truncate(mu2, 3), p2)
        if not _check_restrictions(mup, p1, p2):
            return False, f"infinitesimal restriction fails at draw {i}"
    return True, "both intertwine theorems exact on 25 seeded instances each, restrictions included"


def _pair(k, n, seed):
    """A seeded (tracial, plain) pair of families over k generators at degree n."""
    return random_tracial(k, n, seed=seed), random_family(k, n, seed=seed + 1)


def _pairs(k, l, n, seed):
    """Two seeded `_pair`s at degree n, the first over k generators and the
    second over l."""
    return (*_pair(k, n, seed), *_pair(l, n, seed + 2))


def _families(k, n, seed, kind="moment"):
    """Two seeded plain families at degree n, the second of the given kind."""
    return random_family(k, n, seed=seed), random_family(k, n, seed=seed + 1, kind=kind)


def _lemma210(seed, k, n, l):
    for m in range(2, n + 1):
        bad = _cut_attach_failure(m)
        if bad is not None:
            return f"n={m}, partition {bad[0]}, i={bad[1]}"
    return None


def _lemma67(seed, k, n, l):
    # inputs are drawn only for an open case; chi at the degree n + 2 its seed names
    verdicts = {}
    open_cases = [(case[0], sides) for case in _gamma_eta_cases(n)
                  if (sides := _gamma_eta_rows(*case, verdicts))]
    if not open_cases:
        return None
    phi, delta = random_tracial(k, n + 1, seed=seed), random_delta(k, seed=seed + 2)
    chi = truncate(random_family(k, n + 2, seed=seed + 1), n + 1)
    _check_inputs(delta, chi, phi)
    tables = _gamma_eta_tables(delta, chi, phi)
    return next(filter(None, (_gamma_eta_sum(tables, k, *case) for case in open_cases)), None)


class Target(NamedTuple):
    """A verification target: its check, (seed, k, N, l) -> first
    counterexample or None on inputs drawn from the seed; how far past N
    the words of the families it draws reach, None if it draws none;
    whether it draws a k^3 delta tensor; and the least and greatest degree
    N it covers."""

    check: Callable
    reach: int | None
    tensor: bool = False
    low: int = 1
    high: float = math.inf


# Every `verify` target; selftest criteria 9-13 run the same rows through
# `_target_failure`.  The signed lattices grow fastest, so the checks that
# walk them stop at their enumeration limit, 8; lemma210, which walks the
# rows of NC(m) at every degree m up to N and draws nothing, stops at 11.
TARGETS = {
    "12": Target(lambda s, k, n, l: convolution_intertwine_counterexample(
        *_pairs(k, k, n + 1, s)), reach=1),
    "13": Target(lambda s, k, n, l: product_intertwine_counterexample(
        *_pairs(k, l, n + 1, s)), reach=1),
    "14": Target(lambda s, k, n, l: cyclic_cumulant_counterexample(*_pair(k, n + 1, s)), reach=1),
    "17": Target(lambda s, k, n, l: cumulant_transform_counterexample(
        random_delta(k, seed=s + 2), *_pair(k, n + 1, s)), reach=1, tensor=True),
    "lemma210": Target(_lemma210, reach=None, high=11),
    "lemma67": Target(_lemma67, reach=1, tensor=True, low=2),
    "prop41": Target(lambda s, k, n, l: _explicit_failure(*_families(k, n, s)), reach=0),
    "prop54": Target(lambda s, k, n, l: _cc_difference_failure(
        *_families(k, n, s)), reach=0, high=DEFAULT_SIGNED_LIMIT),
    "eq5a": Target(lambda s, k, n, l: eq_typeb_counterexample(
        *_families(k, n, s, "infinitesimal")), reach=0, high=DEFAULT_SIGNED_LIMIT),
    "eq55a": Target(lambda s, k, n, l: eq_bopp_counterexample(
        *_families(k, n, s)), reach=0, high=DEFAULT_SIGNED_LIMIT),
}


VERIFY_INPUT_LIMIT = 1 << 17  # entries in the largest input `verify` may build


def _input_size(theorem: str, k: int, big_n: int, l: int) -> int:
    """Entries in the largest input a target draws, counted no further than
    past VERIFY_INPUT_LIMIT: the k^3 delta tensor of a row that draws one,
    and the words of length up to N plus the row's reach over k letters,
    k + l for target 13, of a row that draws families.  One letter counts
    as two: the words are then few, but each costs about N^2/2 closed-sum
    terms."""
    row = TARGETS[theorem]
    letters = max(k + l if theorem == "13" else k, 2)
    length = 0 if row.reach is None else big_n + row.reach
    words = _word_count(letters, length, VERIFY_INPUT_LIMIT)
    return max(words, k ** 3 if row.tensor else 0)


def verify_report(theorem: str, seed: int, k: int, big_n: int, l: int = 1) -> dict:
    """One-shot verification of a `TARGETS` entry on seeded random inputs;
    shared by the CLI.  The report's "N" is the degree actually checked, and
    the counterexample is the first one found."""
    if theorem not in TARGETS:
        raise NcprobError(f"unknown verification target {theorem!r}")
    _check_shape(k, big_n, "moment")
    if not _int_in(l, 1):
        raise ShapeMismatch(f"l must be positive, got l={l!r}")
    row = TARGETS[theorem]
    big_n = min(max(big_n, row.low), row.high)
    if _input_size(theorem, k, big_n, l) > VERIFY_INPUT_LIMIT:
        raise LimitExceeded(
            f"{theorem} at k={k}, N={big_n}, l={l} needs an input of more "
            f"than {VERIFY_INPUT_LIMIT} entries")
    ce = row.check(seed, k, big_n, l)
    return {
        "theorem": theorem,
        "seed": seed,
        "k": k,
        "N": big_n,
        "ok": ce is None,
        "counterexample": list(ce) if isinstance(ce, tuple) else ce,
    }


def _criterion_determinism(seed):
    for theorem in TARGETS:
        a = json.dumps(verify_report(theorem, seed, 2, 3), sort_keys=True)
        b = json.dumps(verify_report(theorem, seed, 2, 3), sort_keys=True)
        if a != b:
            return False, f"seeded {theorem} verification report is not reproducible"
    return True, "seeded verification reports are byte-identical across runs"


CRITERIA = (
    (1, "catalan counts", _criterion_catalan),
    (2, "kreweras complement", _criterion_kreweras),
    (3, "moebius closed form vs zeta inversion", _criterion_moebius),
    (4, "lower/upper ideal structure", _criterion_ideals),
    (5, "complement anti-isomorphism, cut/attach", _criterion_cut_attach),
    (6, "signed lattice counts and pair bijection", _criterion_signed_counts),
    (7, "moment/cumulant round trips", _criterion_round_trips),
    (8, "explicit c-free formula and resummations", _criterion_cfree_formula),
    (9, "signed-lattice cumulant identities", _criterion_cc),
    (10, "tensor transform identity", _criterion_transform_theorem),
    (11, "cyclic cumulant identity", _criterion_cyclic_theorem),
    (12, "block-level transform identity", _criterion_gamma_eta),
    (13, "product and convolution intertwining", _criterion_products),
    (14, "report determinism", _criterion_determinism),
)


def run(seed: int = 0, stream=None) -> bool:
    """Run every criterion, print one line each (a raise is a FAIL), return overall success."""
    all_ok = True
    for num, name, fn in CRITERIA:
        try:
            ok, detail = fn(seed)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"[{num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
    print(f"selftest: {'all criteria passed' if all_ok else 'FAILURES present'}",
          file=stream)
    return all_ok
