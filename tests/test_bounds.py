"""Contraction tables, Berry-Esseen evaluators, partial order, multivariate bound."""

from __future__ import annotations

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cwchaos.bounds import (
    BoundInputs,
    NonCircularError,
    SingularCovarianceError,
    be_lower_terms,
    be_upper,
    be_upper_circular,
    be_upper_multivariate,
    binomial_sum,
    circularity_check,
    clt_conditions,
    contraction_sum_sq,
    fmt_norms,
    gap_sandwich_constants,
    partial_order,
)
from cwchaos.chaos import (
    ChaosVariable,
    ChaosVector,
    conjugate,
    fourth_gap,
    multiply,
    pairing_expectation,
    product_expectation,
)
from cwchaos.space import Kernel, SpaceError, SpaceSpec

from conftest import random_kernel, random_space


@pytest.fixture
def sp4():
    return SpaceSpec.orthonormal(4)


# -- contraction tables -----------------------------------------------------------


def test_fmt_norms_hand_example(sp4):
    table = fmt_norms(Kernel.basis(sp4, (0,), (1,)))
    assert table == {(1, 0): pytest.approx(1.0), (0, 1): pytest.approx(1.0)}


def test_fmt_norms_first_chaos_empty(sp4):
    assert fmt_norms(Kernel.basis(sp4, (0,), ())) == {}


def test_fmt_norms_range(rng):
    sp = random_space(rng, 2)
    table = fmt_norms(random_kernel(rng, sp, 2, 1))
    expected_keys = {(i, j) for i in range(3) for j in range(2) if 0 < i + j < 3}
    assert set(table) == expected_keys


# -- univariate bounds ---------------------------------------------------------------


def test_bound_inputs_eigenvalues(sp4):
    inputs = BoundInputs.from_kernel(Kernel.basis(sp4, (0,), (0,)))
    assert inputs.sigma_sq == pytest.approx(1.0)
    assert inputs.a == pytest.approx(1.0) and inputs.b == pytest.approx(0.0)
    assert inputs.lambda1 == pytest.approx(1.0)
    assert inputs.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert inputs.lambda1 + inputs.lambda2 == pytest.approx(inputs.sigma_sq)
    assert inputs.lambda1 >= inputs.lambda2


def test_binomial_sum_values():
    assert binomial_sum(2) == 2
    assert binomial_sum(3) == 8
    assert binomial_sum(4) == 28


def test_be_upper_worked(sp4):
    f12 = Kernel.basis(sp4, (0,), (1,))
    # l = 2 prefactor is 8 sqrt(lambda1) / lambda2; gap = 2
    assert be_upper(f12) == pytest.approx(16.0)
    assert BoundInputs.from_kernel(f12).upper(0.0) == 0.0


def test_be_upper_monotone_in_lambda2():
    vals = []
    for lam2 in (0.1, 0.2, 0.4, 0.5):
        inputs = BoundInputs(sigma_sq=1.0, a=0.0, b=0.0, l=2, lambda1=0.5, lambda2=lam2)
        vals.append(inputs.upper(2.0))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_be_upper_singular_covariance(sp4):
    f11 = Kernel.basis(sp4, (0,), (0,))  # real variable: lambda2 = 0
    with pytest.raises(SingularCovarianceError):
        be_upper(f11)
    # lambda2 = 1e-13 lambda1 is singular at any scale, and a NaN lambda2 fails
    near = [BoundInputs.from_moments(s, complex(s * (1 - 2e-13)), 2) for s in (1e-6, 1.0, 1e6)]
    nan = BoundInputs(sigma_sq=1.0, a=0.0, b=0.0, l=2, lambda1=0.5, lambda2=float("nan"))
    for inputs in near + [nan]:
        with pytest.raises(SingularCovarianceError):
            inputs.upper(1.0)


def test_be_upper_circular_worked(sp4):
    f12 = Kernel.basis(sp4, (0,), (1,))
    assert be_upper_circular(f12) == pytest.approx(16.0)
    with pytest.raises(NonCircularError):
        be_upper_circular(Kernel.basis(sp4, (0,), (0,)))


def test_be_lower_terms(sp4):
    assert be_lower_terms(Kernel.basis(sp4, (0,), (0,))) == (
        pytest.approx(2.0), pytest.approx(2.0), pytest.approx(2.0))
    t3, t21, csum = be_lower_terms(Kernel.basis(sp4, (0, 1), (2,)))
    assert t3 == 0.0 and t21 == 0.0 and csum > 0.0


def test_gap_sandwich_on_random_kernels(rng):
    for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        sp = random_space(rng, 2, weighted=True)
        f = random_kernel(rng, sp, p, q)
        gap = fourth_gap(f, "v1")
        csum = contraction_sum_sq(f)
        c1, c2 = gap_sandwich_constants(p, q)
        assert c1 * csum <= gap * (1 + 1e-10)
        assert gap <= c2 * csum * (1 + 1e-10)


# gap_sandwich_constants for 5 <= p + q <= 8, computed by the constants' own
# binomial formulas before they were read off chaos._gap_terms; the golden fmt_*
# files reach only p + q = 4
PINNED_SANDWICH = {
    (0, 5): (360000.0, 1440000.0), (1, 4): (576.0, 193536.0), (2, 3): (144.0, 191808.0),
    (3, 2): (144.0, 191808.0), (4, 1): (576.0, 193536.0), (5, 0): (360000.0, 1440000.0),
    (0, 6): (18662400.0, 207360000.0), (1, 5): (14400.0, 25560000.0),
    (2, 4): (2304.0, 17842176.0), (3, 3): (1296.0, 11442384.0), (4, 2): (2304.0, 17842176.0),
    (5, 1): (14400.0, 25560000.0), (6, 0): (18662400.0, 207360000.0),
    (0, 7): (1244678400.0, 31116960000.0), (1, 6): (518400.0, 4721587200.0),
    (2, 5): (57600.0, 2424960000.0), (3, 4): (20736.0, 1077940224.0),
    (4, 3): (20736.0, 1077940224.0), (5, 2): (57600.0, 2424960000.0),
    (6, 1): (518400.0, 4721587200.0), (7, 0): (1244678400.0, 31116960000.0),
    (0, 8): (104044953600.0, 7965941760000.0), (1, 7): (25401600.0, 1151327520000.0),
    (2, 6): (2073600.0, 451779379200.0), (3, 5): (518400.0, 147083040000.0),
    (4, 4): (331776.0, 102006521856.0), (5, 3): (518400.0, 147083040000.0),
    (6, 2): (2073600.0, 451779379200.0), (7, 1): (25401600.0, 1151327520000.0),
    (8, 0): (104044953600.0, 7965941760000.0),
}


def test_gap_sandwich_constants_pinned():
    for (p, q), constants in PINNED_SANDWICH.items():
        assert gap_sandwich_constants(p, q) == constants, (p, q)


# -- partial order ---------------------------------------------------------------------


def test_partial_order_cases():
    assert partial_order(3, 1, 2, 1) == "succeeds"
    assert partial_order(2, 1, 3, 1) == "precedes"
    assert partial_order(5, 1, 3, 2) == "incomparable"
    assert partial_order(5, 1, 2, 3) == "incomparable"
    assert partial_order(2, 2, 2, 2) == "equal"


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_partial_order_exactly_one_outcome(p1, q1, p2, q2):
    outcome = partial_order(p1, q1, p2, q2)
    reverse = partial_order(p2, q2, p1, q1)
    pairs = {"succeeds": "precedes", "precedes": "succeeds",
             "equal": "equal", "incomparable": "incomparable"}
    assert reverse == pairs[outcome]


def test_partial_order_indicator_identities_exhaustive():
    # the two displayed indicator decompositions, all pairs with p, q <= 6
    for p1 in range(7):
        for q1 in range(7):
            for p2 in range(7):
                for q2 in range(7):
                    succ_21 = partial_order(p2, q2, p1, q1) == "succeeds"
                    succ_12 = partial_order(p1, q1, p2, q2) == "succeeds"
                    lhs1 = int(succ_21)
                    rhs1a = int(p1 < p2 and q1 <= q2) + int(p1 == p2 and q1 < q2)
                    rhs1b = int(p1 <= p2 and q1 < q2) + int(p1 < p2 and q1 == q2)
                    assert lhs1 == rhs1a == rhs1b
                    lhs2 = int((p1, q1) != (p2, q2))
                    rhs2 = (lhs1 + int(succ_12)
                            + int(p1 > p2 and q1 < q2) + int(p1 < p2 and q1 > q2))
                    assert lhs2 == rhs2


# -- multivariate ---------------------------------------------------------------------------


def test_multivariate_worked_example(sp4):
    F = ChaosVector([
        ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (1,))),
        ChaosVariable.from_kernel(Kernel.basis(sp4, (2,), (3,))),
    ])
    rep = be_upper_multivariate(F)
    assert rep.quartic_sum == pytest.approx(4.0, rel=1e-9)
    assert rep.bound == pytest.approx(4.0 * sqrt(2.0), rel=1e-9)
    assert rep.lambda_max == pytest.approx(1.0)
    assert rep.own_contraction_sums == [pytest.approx(2.0), pytest.approx(2.0)]


def test_multivariate_order_5131_cross_terms_vanish(rng):
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVector([
        ChaosVariable.from_kernel(random_kernel(rng, sp, 5, 1)),
        ChaosVariable.from_kernel(random_kernel(rng, sp, 3, 2)),
    ])
    rep = be_upper_multivariate(F)
    cross = [t for t in rep.cross_terms]
    assert cross and all(not t.active and t.value == 0.0 for t in cross)


def test_multivariate_d1_reduces_to_circular_quantity(rng):
    sp = random_space(rng, 3)
    f = random_kernel(rng, sp, 1, 2)  # p != q: structurally circular
    rep = be_upper_multivariate(ChaosVector([ChaosVariable.from_kernel(f)]))
    gap = fourth_gap(f, "v1")
    assert rep.quartic_sum == pytest.approx(gap, rel=1e-9)


def test_multivariate_quartic_identity_vs_engine(rng):
    # sum_{j,r} { Cov(|F^j|^2, |F^r|^2) - |E F^j conj(F^r)|^2 } equals the direct
    # evaluation of E||F||^4 - (||Sigma||_F^2 + (Tr Sigma)^2)
    sp = random_space(rng, 2, weighted=True)
    comps = [ChaosVariable.from_kernel(random_kernel(rng, sp, p, q))
             for (p, q) in [(1, 0), (2, 0), (2, 1)]]
    F = ChaosVector(comps)
    rep = be_upper_multivariate(F)
    d = F.d
    sigma = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for r in range(d):
            sigma[j, r] = pairing_expectation(comps[j], comps[r])
    abs_sq = [multiply(c, conjugate(c)) for c in comps]
    e_norm4 = 0.0
    for j in range(d):
        for r in range(d):
            e_norm4 += product_expectation(abs_sq[j], abs_sq[r]).real
    e_n4 = np.sum(np.abs(sigma) ** 2) + np.trace(sigma).real ** 2
    assert rep.quartic_sum == pytest.approx(e_norm4 - e_n4, rel=1e-9)


def test_multivariate_rejects_non_circular(sp4):
    F = ChaosVector([ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (0,)))])
    with pytest.raises(NonCircularError):
        be_upper_multivariate(F)


def test_multivariate_rejects_singular_sigma(sp4):
    f = Kernel.basis(sp4, (0,), (1,))
    F = ChaosVector([ChaosVariable.from_kernel(f), ChaosVariable.from_kernel(f)])
    with pytest.raises(SingularCovarianceError):
        be_upper_multivariate(F)


def test_multivariate_requires_single_order(sp4):
    mixed = (ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (1,)))
             + ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), ())))
    with pytest.raises(SpaceError):
        be_upper_multivariate(ChaosVector([mixed]))


# -- circularity -----------------------------------------------------------------------------


def test_circularity_pass_and_fail(sp4):
    good = ChaosVector([
        ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (1,))),
        ChaosVariable.from_kernel(Kernel.basis(sp4, (2,), (3,))),
    ])
    rep = circularity_check(good)
    assert rep.passed and rep.max_abs == 0.0
    bad = ChaosVector([ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (0,)))])
    rep2 = circularity_check(bad)
    assert not rep2.passed
    assert rep2.pseudo[0, 0] == pytest.approx(1.0)
    assert "necessary" in rep2.note


def test_circularity_zero_vector(sp4):
    zero = ChaosVariable.from_kernel(Kernel.zeros(sp4, 1, 1))
    rep = circularity_check(ChaosVector([zero]))
    assert rep.passed


# -- scale invariance of the hypothesis gates ------------------------------------------------

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def _orthogonal_outer(space: SpaceSpec) -> Kernel:
    """(1,1) kernel u v^T with u^T v = 0: circular, its pseudo-moment is roundoff."""
    u = np.array([1.0 + 2.0j, -0.5 + 0.3j, 0.7 - 1.1j, 0.2 + 0.9j])
    v = np.array([0.3 - 0.8j, 1.4 + 0.1j, -0.6 + 0.5j, 0.9 - 0.2j])
    v = v - (u @ v) / (u @ u) * u
    return Kernel(space, 1, 1, np.outer(u, v))


def _two_order_vector(rng, s: float) -> ChaosVector:
    sp = SpaceSpec.orthonormal(3)
    kernels = [random_kernel(rng, sp, 1, 0), random_kernel(rng, sp, 2, 1)]
    return ChaosVector([ChaosVariable.from_kernel(s * k) for k in kernels])


@pytest.mark.parametrize("s", SCALES)
def test_univariate_bounds_scale_linearly(sp4, s):
    f = _orthogonal_outer(sp4)
    assert be_upper(s * f) == pytest.approx(s * be_upper(f), rel=1e-12)
    assert be_upper_circular(s * f) == pytest.approx(s * be_upper_circular(f), rel=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_multivariate_bound_scales_linearly(s):
    # same kernels at every scale; the covariance's condition number is 62
    one = be_upper_multivariate(_two_order_vector(np.random.default_rng(0), 1.0))
    rep = be_upper_multivariate(_two_order_vector(np.random.default_rng(0), s))
    assert rep.bound == pytest.approx(s * one.bound, rel=1e-12)


@pytest.mark.parametrize("s", SCALES)
def test_circularity_check_is_scale_free(sp4, s):
    real = Kernel.basis(sp4, (0,), (0,))  # E F^2 = E|F|^2
    outer = ChaosVariable.from_kernel(s * _orthogonal_outer(sp4))
    assert circularity_check(ChaosVector([outer])).passed
    assert circularity_check(_two_order_vector(np.random.default_rng(0), s)).passed
    assert not circularity_check(ChaosVector([ChaosVariable.from_kernel(s * real)])).passed


# -- chaotic CLT tables -----------------------------------------------------------------------


def test_clt_conditions_tables(sp4):
    F = (ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), ()))
         + ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (1,))))
    rep = clt_conditions(F, M=2)
    assert rep.variances == {(1, 0): pytest.approx(1.0), (1, 1): pytest.approx(1.0)}
    assert rep.total_variance == pytest.approx(2.0)
    assert rep.tail_mass == 0.0
    assert set(rep.contraction_tables) == {(1, 1)}
    assert set(rep.contraction_tables[(1, 1)]) == {(1, 0), (0, 1)}


def test_clt_conditions_tail_mass(rng):
    sp = random_space(rng, 2)
    k31 = random_kernel(rng, sp, 3, 1)
    F = ChaosVariable.from_kernel(k31) + ChaosVariable.from_kernel(random_kernel(rng, sp, 1, 0))
    rep = clt_conditions(F, M=2)
    assert rep.tail_mass == pytest.approx(rep.variances[(3, 1)])
    assert rep.truncation_order == 2
    doc = rep.to_json()
    assert "3,1" in doc["variances"]
