import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncprob import (
    DegreeTooLow,
    DeltaTensor,
    DimMismatch,
    MultilinearFamily,
    NcPartition,
    NotLLOne,
    NotTracial,
    PositionOutOfRange,
    ShapeMismatch,
    all_words,
    boolean_cumulants,
    cfree_cumulants,
    cumulant_transform_counterexample,
    cyclic_cumulant_counterexample,
    delta_star,
    diagonal_delta,
    enumerate_nc,
    eval_eta,
    eval_gamma,
    f_nm,
    gamma_eta_counterexample,
    infinitesimal_cumulants,
    ll_one,
    moments_from_boolean,
    one_partition,
    psi_delta,
    psi_k,
    random_delta,
    random_family,
    random_tracial,
    truncate,
    words_of_length,
    zero_partition,
)


def ones(n):
    return tuple([1] * n)


# Values with pairwise coprime denominators, so that a grading that leaves
# one input's denominators out of its scale gives wrong values.
COPRIME = (Fraction(1, 7), Fraction(-1, 11), Fraction(1, 9973), Fraction(3, 2), Fraction(-5))
COPRIME_TENSORS = [
    DeltaTensor(2, {(1, 1, 2): Fraction(1, 13), (1, 2, 1): Fraction(2, 3),
                    (2, 2, 1): Fraction(-1, 13), (2, 1, 1): Fraction(2, 3), (2, 2, 2): 4}),
    DeltaTensor(2, {}),
]


def coprime_family(k, N):
    words = list(all_words(k, N))
    return MultilinearFamily(k, N, {w: COPRIME[i % len(COPRIME)] for i, w in enumerate(words)})


# ---------------------------------------------------------------------------
# the transform itself
# ---------------------------------------------------------------------------

def test_diagonal_examples():
    f = random_family(2, 3, seed=1)
    out = delta_star(diagonal_delta(2), f)
    assert out((1,)) == f((1, 1))
    assert out((1, 2)) == f((1, 2, 1)) + f((2, 1, 2))


def test_zero_tensor_gives_zero_family():
    f = random_family(2, 3, seed=2)
    out = delta_star(DeltaTensor(2, {}), f)
    assert all(out(w) == 0 for w in all_words(2, 2))


def test_degree_contract():
    f = random_family(2, 4, seed=3)
    assert delta_star(diagonal_delta(2), f).N == 3
    with pytest.raises(DegreeTooLow):
        delta_star(diagonal_delta(2), random_family(2, 1, seed=4))
    with pytest.raises(DegreeTooLow):
        psi_k(random_family(2, 1, seed=5))


def test_dimension_mismatch():
    with pytest.raises(DimMismatch):
        delta_star(diagonal_delta(3), random_family(2, 3, seed=6))


def test_linearity():
    f = random_family(2, 3, seed=7)
    g = random_family(2, 3, seed=8)
    a, b = Fraction(3, 2), Fraction(-1, 3)
    combo = MultilinearFamily(2, 3, {w: a * f(w) + b * g(w) for w in all_words(2, 3)})
    d = random_delta(2, seed=9)
    lhs = delta_star(d, combo)
    fo, go = delta_star(d, f), delta_star(d, g)
    assert all(lhs(w) == a * fo(w) + b * go(w) for w in all_words(2, 2))


def test_general_tensor_expansion():
    # one slot, written out by hand against the stored coefficients
    d = random_delta(2, seed=10)
    f = random_family(2, 2, seed=11)
    out = delta_star(d, f)
    for i in (1, 2):
        expect = Fraction(0)
        for j, l, c in d.expand(i):
            expect += c * f((l, j))
        assert out((i,)) == expect


@pytest.mark.parametrize("delta", COPRIME_TENSORS, ids=["coprime", "zero"])
def test_delta_star_equals_its_definition(delta):
    f = coprime_family(2, 4)
    expect = {
        w: sum(
            (c * f((l,) + w[m:] + w[: m - 1] + (j,))
             for m in range(1, len(w) + 1) for j, l, c in delta.expand(w[m - 1])),
            Fraction(0),
        )
        for w in all_words(2, 3)
    }
    assert delta_star(delta, f).values == expect


# ---------------------------------------------------------------------------
# the cyclic special case
# ---------------------------------------------------------------------------

def test_psi_k_equals_its_definition():
    nu = coprime_family(2, 4)
    beta = boolean_cumulants(nu)
    expect = {
        w: sum(beta((w[m - 1],) + w[m:] + w[: m - 1] + (w[m - 1],)) for m in range(1, len(w) + 1))
        for w in all_words(2, 3)
    }
    assert psi_k(nu).values == expect


def test_psi_matches_diagonal_tensor():
    nu = random_family(2, 5, seed=12)
    assert psi_k(nu) == psi_delta(diagonal_delta(2), nu)


def test_psi_composition_contract():
    nu = random_family(2, 4, seed=13)
    assert psi_delta(diagonal_delta(2), nu) == delta_star(
        diagonal_delta(2), boolean_cumulants(nu)
    )


def test_psi_univariate_moment_formula():
    nu = random_family(1, 6, seed=14)
    beta = boolean_cumulants(nu)
    mup = psi_k(nu)
    for n in range(1, 6):
        assert mup(ones(n)) == n * beta(ones(n + 1))


def test_psi_first_order():
    nu = random_family(2, 2, seed=15)
    mup = psi_k(nu)
    for i in (1, 2):
        assert mup((i,)) == nu((i, i)) - nu((i,)) ** 2


def test_psi_kills_first_order_boolean_support():
    beta = MultilinearFamily(
        2,
        4,
        {
            w: Fraction(1 + w[0]) if len(w) == 1 else Fraction(0)
            for w in all_words(2, 4)
        },
        kind="boolean-cumulant",
    )
    nu = moments_from_boolean(beta)
    out = psi_k(nu)
    assert all(out(w) == 0 for w in all_words(2, 3))
    assert out.kind == "infinitesimal" and out.unit == "zero"


# ---------------------------------------------------------------------------
# decorated functionals
# ---------------------------------------------------------------------------

def test_eval_gamma_full_partition_reduces_to_plain_gamma():
    d = random_delta(2, seed=16)
    chi = random_family(2, 4, seed=17)
    phi = random_family(2, 3, seed=18)
    beta = boolean_cumulants(chi)
    for w in all_words(2, 3):
        n = len(w)
        for m in range(1, n + 1):
            expect = Fraction(0)
            for j, l, c in d.expand(w[m - 1]):
                expect += c * beta((l,) + w[m:] + w[: m - 1] + (j,))
            got = eval_gamma(d, chi, phi, one_partition(n), m, w)
            assert got == expect


def test_eval_gamma_singletons():
    d = random_delta(2, seed=19)
    chi = random_family(2, 2, seed=20)
    phi = random_family(2, 1, seed=21)
    w = (1, 2, 1)
    for m in (1, 2, 3):
        expect = Fraction(0)
        for j, l, c in d.expand(w[m - 1]):
            expect += c * boolean_cumulants(chi)((l, j))
        for p in range(1, 4):
            if p != m:
                expect *= phi((w[p - 1],))
        assert eval_gamma(d, chi, phi, zero_partition(3), m, w) == expect


def test_eval_gamma_nine_point_instance():
    # the translate-and-merge image of {{1,4,9,10},{2,3},{5,6,8},{7}} at m=3,
    # evaluated at k=1 against the hand-expanded block product
    rho = NcPartition(10, [(1, 4, 9, 10), (2, 3), (5, 6, 8), (7,)])
    pi = f_nm(rho, 3)
    assert pi == NcPartition(9, [(1, 7, 8), (2, 3, 6), (4, 5), (9,)])
    d = DeltaTensor(1, {(1, 1, 1): Fraction(2, 3)})
    chi = random_family(1, 10, seed=22)
    phi = random_family(1, 9, seed=23)
    w = ones(9)
    beta = boolean_cumulants(chi)
    expect = Fraction(2, 3) * beta(ones(4)) * phi(ones(3)) * phi(ones(2)) * phi(ones(1))
    assert eval_gamma(d, chi, phi, pi, 3, w) == expect
    assert gamma_eta_counterexample(d, chi, phi, 9, 3, rho) is None


def test_eval_gamma_rank_one_tensor_factorizes():
    u = {1: Fraction(1, 2), 2: Fraction(3)}
    v = {1: Fraction(-1), 2: Fraction(2)}
    a = {1: Fraction(1), 2: Fraction(1, 3)}
    d = DeltaTensor(
        2, {(i, j, l): a[i] * u[j] * v[l] for i in u for j in u for l in u}
    )
    chi = random_family(2, 4, seed=24)
    phi = random_family(2, 3, seed=25)
    beta = boolean_cumulants(chi)
    pi = NcPartition(3, [(1, 3), (2,)])
    w = (2, 1, 2)
    # m=3 sits at rank 2 of block {1,3}
    expect = a[w[2]] * sum(
        u[j] * v[l] * beta((l, w[0], j)) for j in (1, 2) for l in (1, 2)
    )
    expect *= phi((w[1],))
    assert eval_gamma(d, chi, phi, pi, 3, w) == expect


def test_eval_eta():
    chi = random_family(2, 4, seed=26)
    phi = random_family(2, 4, seed=27)
    beta = boolean_cumulants(chi)
    for w in all_words(2, 4):
        assert eval_eta(chi, phi, one_partition(len(w)), w) == beta(w)
    rho = NcPartition(4, [(1, 4), (2, 3)])
    w = (1, 2, 2, 1)
    assert eval_eta(chi, phi, rho, w) == beta((1, 1)) * phi((2, 2))
    with pytest.raises(NotLLOne):
        eval_eta(chi, phi, zero_partition(3), (1, 1, 1))


def test_decorated_functionals_reject_letters_outside_the_alphabet():
    d = random_delta(2, seed=111)
    chi = random_family(2, 4, seed=112)
    phi = random_family(2, 3, seed=113)
    for w in [(3, 3), (1, 3)]:
        with pytest.raises(PositionOutOfRange):
            eval_gamma(d, chi, phi, one_partition(2), 1, w)
    with pytest.raises(PositionOutOfRange):
        eval_eta(chi, phi, one_partition(2), (3, 1))


# ---------------------------------------------------------------------------
# the two identities
# ---------------------------------------------------------------------------

def test_transform_identity_random_triples():
    for s in range(5):
        phi = random_tracial(2, 5, seed=30 + s)
        chi = random_family(2, 5, seed=40 + s)
        d = random_delta(2, seed=50 + s)
        assert cumulant_transform_counterexample(d, phi, chi) is None


def test_transform_identity_equal_families_diagonal():
    phi = random_tracial(2, 4, seed=60)
    assert cumulant_transform_counterexample(diagonal_delta(2), phi, phi) is None


def test_transform_identity_rejects_non_tracial():
    phi = random_family(2, 4, seed=61)
    chi = random_family(2, 4, seed=62)
    assert not phi == random_tracial(2, 4, seed=61)
    with pytest.raises(NotTracial):
        cumulant_transform_counterexample(diagonal_delta(2), phi, chi)


def test_cyclic_identity_random_pairs():
    for s in range(5):
        mu = random_tracial(2, 5, seed=70 + s)
        nu = random_family(2, 5, seed=80 + s)
        assert cyclic_cumulant_counterexample(mu, nu) is None


def test_cyclic_identity_first_order():
    mu = random_tracial(2, 3, seed=90)
    nu = random_family(2, 3, seed=91)
    kp = infinitesimal_cumulants(truncate(mu, 2), psi_k(nu))
    kc = cfree_cumulants(mu, nu)
    for i in (1, 2):
        assert kp((i,)) == kc((i, i))


def test_cyclic_identity_univariate():
    mu = random_family(1, 7, seed=92)
    nu = random_family(1, 7, seed=93)
    assert cyclic_cumulant_counterexample(mu, nu) is None


def test_gamma_eta_exhaustive_small():
    phi = random_tracial(2, 4, seed=94)
    chi = random_family(2, 4, seed=95)
    d = random_delta(2, seed=96)
    for rho in enumerate_nc(3):
        if not ll_one(rho):
            continue
        for m in (1, 2):
            assert gamma_eta_counterexample(d, chi, phi, 2, m, rho) is None


def test_gamma_eta_rejects_non_tracial():
    phi = random_family(2, 4, seed=97)
    chi = random_family(2, 4, seed=98)
    with pytest.raises(NotTracial):
        gamma_eta_counterexample(random_delta(2, seed=99), chi, phi, 2, 1, one_partition(3))


def test_gamma_eta_rejects_bad_partition():
    phi = random_tracial(2, 4, seed=100)
    chi = random_family(2, 4, seed=101)
    with pytest.raises(NotLLOne):
        gamma_eta_counterexample(random_delta(2, seed=102), chi, phi, 2, 1, zero_partition(3))


def test_cyclic_identity_checks_psi_k(monkeypatch):
    # the cyclic check must read psi_k's graded core itself: a core that is
    # off by one on the word (2, 1) is off there on both sides, but the
    # infinitesimal cumulants of its psi side also move at (1, 2, 1), whose
    # pair {2, 3} reads (2, 1) next to a singleton, so the check fails there
    import ncprob.deltastar as ds

    real = ds._graded_delta_star

    def off(delta, layers):
        T, out = real(delta, layers)
        out[2][words_of_length(2, 2).index((2, 1))] += 1
        return T, out

    monkeypatch.setattr(ds, "_graded_delta_star", off)
    mu = random_tracial(2, 4, seed=103)
    nu = random_family(2, 4, seed=104)
    assert ds.cyclic_cumulant_counterexample(mu, nu) == (1, 2, 1)


def test_decorated_functionals_check_inputs_before_boolean_cumulants(monkeypatch):
    import ncprob.deltastar as ds

    def unreachable(chi):
        raise AssertionError("Boolean cumulants computed before the input checks")

    monkeypatch.setattr(ds, "boolean_cumulants", unreachable)
    d = random_delta(2, seed=105)
    chi = random_family(2, 4, seed=106)
    phi = random_family(2, 3, seed=107)
    with pytest.raises(ShapeMismatch):
        ds.eval_gamma(d, chi, phi, one_partition(3), 1, (1, 2))
    with pytest.raises(NotLLOne):
        ds.eval_eta(chi, phi, zero_partition(3), (1, 1, 1))
    with pytest.raises(NotTracial):
        ds.gamma_eta_counterexample(d, chi, phi, 2, 1, one_partition(3))


def test_transform_identity_reports_the_word_where_one_side_is_off(monkeypatch):
    import ncprob.deltastar as ds

    real = ds._dual

    def off(jet):
        # the infinitesimal cumulants, the epsilon part, off on one word
        out = real(jet)
        out[1][3][words_of_length(2, 3).index((2, 1, 1))] += 1
        return out

    monkeypatch.setattr(ds, "_dual", off)
    phi = random_tracial(2, 4, seed=124)
    chi = random_family(2, 4, seed=125)
    assert ds.cumulant_transform_counterexample(random_delta(2, seed=126), phi, chi) == (2, 1, 1)


def _merge_at_next_slot(monkeypatch, ds):
    """Fault the row core of f_nm where deltastar calls it: merge at slot
    m + 1 mod n instead of m."""
    real = ds._f_nm
    monkeypatch.setattr(ds, "_f_nm", lambda blocks, n, m: real(blocks, n, m % n + 1))


def test_gamma_eta_search_fails_where_the_identity_is_broken(monkeypatch):
    # merging at slot m+1 mod n instead of m breaks the block identity; the
    # graded search must report the first word where the Fraction
    # definitions of the two sides differ
    import ncprob.deltastar as ds
    from ncprob.selftest import verify_report

    _merge_at_next_slot(monkeypatch, ds)
    phi = random_tracial(2, 4, seed=108)
    chi = random_family(2, 4, seed=109)
    d = random_delta(2, seed=110)
    failures = 0
    for rho in enumerate_nc(4):
        for m in (1, 2, 3) if ll_one(rho) else ():
            pi = f_nm(rho, m % 3 + 1)
            first = next((
                w for w in words_of_length(2, 3)
                if eval_gamma(d, chi, phi, pi, m, w) != sum(
                    c * eval_eta(chi, phi, rho, (l,) + w[m:] + w[: m - 1] + (j,))
                    for j, l, c in d.expand(w[m - 1]))
            ), None)
            assert ds.gamma_eta_counterexample(d, chi, phi, 3, m, rho) == first
            failures += first is not None
    assert failures > 0
    assert verify_report("lemma67", 0, 2, 4)["ok"] is False


def _counting_random_family(monkeypatch):
    """Count the seeded plain families the selftest targets draw."""
    import ncprob.selftest as st

    calls = []
    real = st.random_family

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(st, "random_family", counted)
    return calls


@pytest.mark.parametrize("k,N", [(1, 6), (2, 5), (3, 4)])
def test_lemma67_draws_no_chi_when_no_case_falls_back(monkeypatch, k, N):
    from ncprob.selftest import verify_report

    calls = _counting_random_family(monkeypatch)
    assert verify_report("lemma67", 0, k, N)["ok"] is True
    assert calls == []


@pytest.mark.parametrize("k,N,seed", [(1, 4, 0), (2, 4, 0), (2, 3, 5), (3, 4, 5)])
def test_lemma67_draws_chi_once_and_reports_the_eager_search(monkeypatch, k, N, seed):
    # under an f_nm that merges at slot m+1 some case falls back; the lazy
    # chi must be the one the eager search drew, so both report one word
    import ncprob.deltastar as ds
    from ncprob.selftest import _gamma_eta_cases, verify_report

    _merge_at_next_slot(monkeypatch, ds)
    phi = random_tracial(k, N + 1, seed=seed)
    chi = random_family(k, N + 2, seed=seed + 1)
    d = random_delta(k, seed=seed + 2)
    eager = next(filter(None, (
        ds.gamma_eta_counterexample(d, chi, phi, n, m, NcPartition(n + 1, rows))
        for n, m, rows in _gamma_eta_cases(N))))
    calls = _counting_random_family(monkeypatch)
    report = verify_report("lemma67", seed, k, N)
    assert report["ok"] is False
    assert report["counterexample"] == list(eager) == [1, 1, 1]
    assert len(calls) == 1


@pytest.mark.parametrize("merge_at_next_slot", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_eta_certificate_closes_only_cases_whose_sum_vanishes(monkeypatch, k, merge_at_next_slot):
    # every case that the search closes, its blocks all alike on both rows,
    # must have an all-zero layer sum on seeded inputs, under the real f_nm
    # and under one that merges at slot m+1
    import ncprob.deltastar as ds
    from ncprob.selftest import _gamma_eta_cases

    if merge_at_next_slot:
        _merge_at_next_slot(monkeypatch, ds)
    phi = random_tracial(k, 6, seed=130 + k)
    chi = random_family(k, 7, seed=140 + k)
    d = random_delta(k, seed=150 + k)
    tables = ds._gamma_eta_tables(d, chi, phi)
    cases, verdicts = list(_gamma_eta_cases(6)), {}
    certified = [ds._gamma_eta_rows(*case, verdicts) is None for case in cases]
    monkeypatch.setattr(ds, "_block_agrees", lambda verdicts, n, m, b: False)  # sum every case
    closed = numeric = 0
    for case, closes in zip(cases, certified):
        first = ds._gamma_eta_sum(tables, k, case[0], ds._gamma_eta_rows(*case, {}))
        if closes:
            assert first is None, case
            closed += 1
        numeric += first is not None
    assert closed > 0
    assert (numeric > 0) == merge_at_next_slot


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma_eta_certificate_closes_every_case_without_slot_tables(monkeypatch, k):
    # under the real f_nm every case closes block by block, so no layer sum runs
    import ncprob.deltastar as ds
    from ncprob.selftest import _gamma_eta_cases, verify_report

    def unreachable(*args):
        raise AssertionError("a gamma-eta case fell back to the layer sum")

    monkeypatch.setattr(ds, "_slot_table", unreachable)
    monkeypatch.setattr(ds, "_lattice_sum", unreachable)
    verdicts = {}
    for case in _gamma_eta_cases(7):
        assert ds._gamma_eta_rows(*case, verdicts) is None
    assert verify_report("lemma67", 0, k, 6)["ok"] is True


def _blocks_in_any_order(positions):
    """Every set partition of the positions, each block in every order."""
    if not positions:
        yield ()
        return
    head, tail = positions[0], positions[1:]
    for size in range(len(tail) + 1):
        for others in itertools.combinations(tail, size):
            left = [p for p in tail if p not in others]
            for block in itertools.permutations((head, *others)):
                for blocks in _blocks_in_any_order(left):
                    yield (block, *blocks)


def _least(block):
    """The block rotated to start at its least position."""
    r = block.index(min(block))
    return block[r:] + block[:r]


def test_rows_agree_exactly_when_their_sums_agree():
    # over 3 letters a seeded tracial phi tells a block from its reorderings
    # other than rotations, so on every row over 4 positions (an ordered
    # core, blocks of phi in any order) two rows sum alike exactly when they
    # have the same cores in order and the same blocks up to order and
    # rotation; the search's certificate, the same blocks in the same order
    # each up to rotation, implies that, so it closes only rows that sum alike
    import ncprob.deltastar as ds
    from ncprob.cumulants import _lattice_sum

    phi = random_tracial(3, 4, seed=190)
    chi = random_family(3, 5, seed=191)
    tables = ds._gamma_eta_tables(random_delta(3, seed=192), chi, phi)
    rows = [
        ((core,), blocks)
        for size in range(1, 5)
        for core in itertools.permutations(range(4), size)
        for blocks in _blocks_in_any_order([p for p in range(4) if p not in core])
    ]
    sums = [_lattice_sum(((1, *row),), tables, 4) for row in rows]
    for a, x in zip(rows, sums):
        for b, y in zip(rows, sums):
            as_data = a[0] == b[0] and {*map(_least, a[1])} == {*map(_least, b[1])}
            assert as_data == (x == y), (a, b)


def test_a_warm_lemma67_search_still_sees_a_later_fault():
    # no verdict outlives its search: after a clean run, f_nm merging at slot
    # m+1 must fail as it does in a process that never ran the clean search;
    # each side runs in a fresh process, so no other test's search is warm
    script = ("import json, sys, ncprob.deltastar as ds\n"
              "from ncprob.selftest import verify_report\n"
              "clean = [verify_report('lemma67', 0, 2, 6)] if sys.argv[1] == 'warm' else []\n"
              "real = ds._f_nm\n"
              "ds._f_nm = lambda blocks, n, m: real(blocks, n, m % n + 1)\n"
              "print(json.dumps(clean + [verify_report('lemma67', 0, 2, 6)]))\n")
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    warm, cold = (json.loads(subprocess.run(
        [sys.executable, "-c", script, side], capture_output=True, text=True, env=env,
        check=True, timeout=60).stdout) for side in ("warm", "cold"))
    assert warm[0]["ok"] is True
    assert warm[1]["ok"] is False
    assert warm[1] == cold[0]


def test_lemma67_sees_a_fault_at_one_deep_case(monkeypatch):
    # f_nm merges at slot m+1 only at (n, m) = (9, 5), and only on the blocks
    # of rho that hold neither 1 nor 9: each such block is also a block of
    # some rho at n = 8 and m = 5, and of the same rho at n = 9 and m < 5, so
    # a block verdict kept without n or without m would hide the fault
    from click.testing import CliRunner

    import ncprob.deltastar as ds
    from ncprob.cli import main

    real = ds._f_nm

    def planted(blocks, n, m):
        deep = (n, m) == (9, 5)
        return tuple(real((b,), n, m % n + 1 if deep and b[0] > 1 and 9 not in b else m)[0]
                     for b in blocks)

    monkeypatch.setattr(ds, "_f_nm", planted)
    res = CliRunner().invoke(main, ["verify", "--theorem", "lemma67", "--N", "9"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["ok"] is False and report["N"] == 9
