"""Every refusal of a bad input, through each public entry that makes it.

The two family readers of `families`, `_require_same_shape` (two families
share k and N) and `_require_dim` (a family is over its tensor's k
letters), run before any grading: each table patches `_graded` and the
decorated functionals' Boolean cumulants to fail, so a refusal that came
after them would fail the test instead of raising the expected class.
"""

import pytest

import ncprob.cumulants as cu
import ncprob.deltastar as ds
import ncprob.products as pr
from ncprob import (
    DegreeMismatch,
    DegreeTooLow,
    DimMismatch,
    InvalidPartition,
    MultilinearFamily,
    NcPartition,
    NcprobError,
    ShapeMismatch,
    SignedNcPartition,
    boxplus,
    boxplus_b,
    boxplus_c,
    cc_cumulants,
    cfree_cumulants,
    cfree_explicit,
    cfree_product,
    convolution_intertwine_counterexample,
    cumulant_transform_counterexample,
    cyclic_cumulant_counterexample,
    delta_star,
    diagonal_delta,
    eq_bopp_counterexample,
    eq_typeb_counterexample,
    eval_eta,
    eval_gamma,
    gamma_eta_counterexample,
    infinitesimal_cumulants,
    infinitesimal_moments,
    infinitesimal_product,
    moments_from_cc,
    moments_from_cfree,
    one_partition,
    product_intertwine_counterexample,
    psi_delta,
    random_delta,
    random_family,
    random_tracial,
    truncate,
)
from ncprob.selftest import verify_report


@pytest.fixture
def ungraded(monkeypatch):
    """Make grading, and the Boolean cumulants of the decorated
    functionals, fail: a refusal must come before either."""

    def unreachable(*args):
        raise AssertionError("inputs were graded before they were checked")

    for module in (cu, ds, pr):
        monkeypatch.setattr(module, "_graded", unreachable)
    monkeypatch.setattr(ds, "boolean_cumulants", unreachable)


F = random_family(2, 4, seed=301)
T = random_tracial(2, 4, seed=302)
ODD = {"k": random_family(1, 4, seed=303), "N": random_family(2, 3, seed=304)}

SAME_SHAPE = {
    "infinitesimal_cumulants": lambda g: infinitesimal_cumulants(F, g),
    "infinitesimal_moments": lambda g: infinitesimal_moments(F, g),
    "cfree_cumulants": lambda g: cfree_cumulants(F, g),
    "moments_from_cfree": lambda g: moments_from_cfree(F, g),
    "cfree_explicit": lambda g: cfree_explicit(F, g),
    "cc_cumulants": lambda g: cc_cumulants(F, g),
    "moments_from_cc": lambda g: moments_from_cc(F, g),
    "eq_typeb_counterexample": lambda g: eq_typeb_counterexample(F, g),
    "eq_bopp_counterexample": lambda g: eq_bopp_counterexample(F, g),
    "boxplus": lambda g: boxplus(F, g),
    "boxplus_c": lambda g: boxplus_c(F, g, F, F),
    "boxplus_b": lambda g: boxplus_b(F, F, g, F),
    "convolution_intertwine_counterexample":
        lambda g: convolution_intertwine_counterexample(T, F, T, g),
    "cumulant_transform_counterexample":
        lambda g: cumulant_transform_counterexample(diagonal_delta(2), T, g),
    "cyclic_cumulant_counterexample": lambda g: cyclic_cumulant_counterexample(T, g),
}


@pytest.mark.parametrize("odd", sorted(ODD))
@pytest.mark.parametrize("entry", sorted(SAME_SHAPE))
def test_families_of_another_shape_are_refused_before_grading(ungraded, entry, odd):
    with pytest.raises(ShapeMismatch, match=r"^families disagree: \(k=2, N=4\) vs "):
        SAME_SHAPE[entry](ODD[odd])


D2 = random_delta(2, seed=305)
F1, T1 = random_family(1, 4, seed=306), random_tracial(1, 4, seed=307)
RHO = one_partition(3)

# each call has one family over k=1 and a tensor over k=2
OFF_TENSOR = {
    "delta_star": lambda: delta_star(D2, F1),
    "psi_delta": lambda: psi_delta(D2, F1),
    "eval_gamma, chi off": lambda: eval_gamma(D2, F1, T, RHO, 1, (1, 1, 1)),
    "eval_gamma, phi off": lambda: eval_gamma(D2, F, T1, RHO, 1, (1, 1, 1)),
    "cumulant_transform_counterexample":
        lambda: cumulant_transform_counterexample(D2, T1, F1),
    "gamma_eta_counterexample, chi off": lambda: gamma_eta_counterexample(D2, F1, T, 2, 1, RHO),
    "gamma_eta_counterexample, phi off": lambda: gamma_eta_counterexample(D2, F, T1, 2, 1, RHO),
}


@pytest.mark.parametrize("entry", sorted(OFF_TENSOR))
def test_a_family_over_another_k_than_the_tensor_is_refused_before_grading(ungraded, entry):
    with pytest.raises(DimMismatch, match=r"^family over k=1 but tensor over k=2$"):
        OFF_TENSOR[entry]()


# pairs (mu1, s1) over 1 letter and (mu2, s2) over 2, all of degree 3
PAIR1 = (random_tracial(1, 3, seed=313), random_family(1, 3, seed=314))
PAIR2 = (random_tracial(2, 3, seed=315), random_family(2, 3, seed=316))
PRODUCTS = {
    "cfree_product": cfree_product,
    "infinitesimal_product": infinitesimal_product,
    "product_intertwine_counterexample": product_intertwine_counterexample,
}
PAIR_FAULTS = {
    "a degree off": (DegreeMismatch, "share one degree",
                     (*PAIR1, PAIR2[0], random_family(2, 2, seed=317))),
    "a pair over two k": (ShapeMismatch, "each pair must share",
                          (PAIR1[0], random_family(2, 3, seed=318), *PAIR2)),
}


@pytest.mark.parametrize("fault", sorted(PAIR_FAULTS))
@pytest.mark.parametrize("entry", sorted(PRODUCTS))
def test_product_pairs_are_refused_before_grading(ungraded, entry, fault):
    error, message, args = PAIR_FAULTS[fault]
    with pytest.raises(error, match=message):
        PRODUCTS[entry](*args)


@pytest.mark.parametrize("check, pairs", [
    (product_intertwine_counterexample, (*PAIR1, *PAIR2)),
    (convolution_intertwine_counterexample, (*PAIR2, *PAIR2)),
])
def test_intertwining_checks_refuse_degree_one_before_grading(ungraded, check, pairs):
    with pytest.raises(DegreeTooLow, match="at least 2"):
        check(*(truncate(f, 1) for f in pairs))


T_1, F_1 = truncate(T, 1), truncate(F, 1)
DEGREE_ONE = {
    "cumulant_transform_counterexample": lambda: cumulant_transform_counterexample(D2, T_1, F_1),
    "cyclic_cumulant_counterexample": lambda: cyclic_cumulant_counterexample(T_1, F_1),
}


@pytest.mark.parametrize("entry", sorted(DEGREE_ONE))
def test_transform_checks_refuse_degree_one_before_grading(ungraded, entry):
    with pytest.raises(DegreeTooLow, match=r"^inputs must have degree at least 2$"):
        DEGREE_ONE[entry]()


def test_decorated_functionals_refuse_a_short_word_or_chi_before_cumulants(ungraded):
    with pytest.raises(ShapeMismatch, match="word length 2"):
        eval_gamma(D2, F, T, RHO, 1, (1, 2))
    with pytest.raises(ShapeMismatch, match="word length 2"):
        eval_eta(F, T, RHO, (1, 2))
    with pytest.raises(DegreeTooLow, match="chi must have degree >= 4"):
        eval_gamma(D2, random_family(2, 3, seed=319), T, RHO, 1, (1, 2, 1))
    with pytest.raises(DegreeTooLow, match="chi must have degree >= 3"):
        eval_eta(random_family(2, 2, seed=320), T, RHO, (1, 2, 1))


def test_eval_eta_refuses_chi_and_phi_over_two_k_before_cumulants(ungraded):
    # chi may reach a degree past phi's, so only k is compared
    rho = NcPartition(3, [(1, 3), (2,)])
    with pytest.raises(DimMismatch, match=r"^chi over k=2 but phi over k=1$"):
        eval_eta(F, T1, rho, (2, 1, 2))
    with pytest.raises(DimMismatch, match=r"^chi over k=1 but phi over k=2$"):
        eval_eta(F1, T, rho, (1, 1, 1))


@pytest.mark.parametrize("n, rho, chi_N, phi_N, error, message", [
    (3, RHO, 4, 4, ShapeMismatch, r"^rho on 1\.\.3 needs n = 2, got n=3$"),
    (True, NcPartition(2, [(1, 2)]), 4, 4, ShapeMismatch, "got n=True$"),
    (3.0, one_partition(4), 4, 4, ShapeMismatch, "got n=3.0$"),
    (2, RHO, 2, 4, DegreeTooLow, "chi degree >= 3"),
    (3, one_partition(4), 4, 2, DegreeTooLow, "phi degree >= 3"),
], ids=["rho-size", "bool-n", "float-n", "chi-degree", "phi-degree"])
def test_gamma_eta_refuses_n_rho_and_degrees_before_grading(ungraded, n, rho, chi_N, phi_N,
                                                            error, message):
    chi, phi = random_family(2, chi_N, seed=321), random_tracial(2, phi_N, seed=322)
    with pytest.raises(error, match=message):
        gamma_eta_counterexample(D2, chi, phi, n, 1, rho)


def test_a_family_missing_a_word_is_refused():
    with pytest.raises(ShapeMismatch, match=r"missing value for word \(1, 1\)"):
        MultilinearFamily(1, 2, {(1,): 1, (2,): 2})


def test_a_partition_with_an_empty_block_is_refused():
    with pytest.raises(InvalidPartition, match="empty block"):
        NcPartition(2, [(1, 2), ()])


def test_untagged_signed_text_needs_a_flavor():
    with pytest.raises(InvalidPartition, match="flavor tag required"):
        SignedNcPartition.from_text("{1,-1}")


def test_verify_report_refuses_an_unknown_target():
    with pytest.raises(NcprobError, match="unknown verification target 'x'"):
        verify_report("x", 0, 2, 3)
