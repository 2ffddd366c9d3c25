"""Product formula, expectation engine, and the closed moment identities."""

from __future__ import annotations

import json
import tracemalloc
from math import factorial

import numpy as np
import pytest

from cwchaos import space
from cwchaos.chaos import (
    ChaosVariable,
    MomentReport,
    chaos_from_json,
    chaos_to_json,
    conjugate,
    cov_abs_sq,
    expectation,
    fourth_gap,
    moment,
    moment_report,
    multiply,
    pairing_expectation,
    power,
    product_expectation,
    third_moments_closed,
)
from cwchaos.space import Kernel, SpaceError, SpaceSpec, inner_product, norm_sq

from conftest import count_contractions, product_formula_gap, random_kernel, random_space


def basis_variable(sp, holo, anti):
    return ChaosVariable.from_kernel(Kernel.basis(sp, holo, anti))


@pytest.fixture
def sp4():
    return SpaceSpec.orthonormal(4)


# -- conjugation -------------------------------------------------------------------


def test_conjugate_first_chaos(sp4):
    F = basis_variable(sp4, (0,), ())
    G = conjugate(F)
    assert set(G.terms) == {(0, 1)}
    assert np.allclose(G.terms[(0, 1)].coeffs, Kernel.basis(sp4, (), (0,)).coeffs)


def test_conjugate_hermitian_fixed_point(sp4):
    F = basis_variable(sp4, (0,), (0,))
    G = conjugate(F)
    assert np.allclose(G.terms[(1, 1)].coeffs, F.terms[(1, 1)].coeffs)


def test_conjugate_involution(rng):
    sp = random_space(rng, 3, weighted=True)
    F = ChaosVariable(sp, {
        (2, 1): random_kernel(rng, sp, 2, 1),
        (1, 0): random_kernel(rng, sp, 1, 0),
    }, constant=0.3 - 0.8j)
    G = conjugate(conjugate(F))
    assert G.constant == F.constant
    for key, kern in F.terms.items():
        assert np.allclose(G.terms[key].coeffs, kern.coeffs)


# -- product formula ------------------------------------------------------------------


def test_multiply_unit(sp4, rng):
    F = basis_variable(sp4, (0,), (1,))
    one = ChaosVariable.constant_variable(sp4, 1.0)
    P = multiply(F, one)
    assert P.constant == 0
    assert np.allclose(P.terms[(1, 1)].coeffs, F.terms[(1, 1)].coeffs)
    assert expectation(multiply(F, one)) == expectation(F)


def test_multiply_orthogonal_factors(sp4):
    # first-order factors on orthogonal basis vectors: no contraction term
    F = basis_variable(sp4, (0,), ())
    G = basis_variable(sp4, (), (1,))
    P = multiply(F, G)
    assert P.constant == 0
    assert set(P.terms) == {(1, 1)}
    assert np.allclose(P.terms[(1, 1)].coeffs, Kernel.basis(sp4, (0,), (1,)).coeffs)


def test_multiply_same_vector_contracts(sp4):
    # Z * conj(Z) = second-order part + E|Z|^2
    F = basis_variable(sp4, (0,), ())
    G = basis_variable(sp4, (), (0,))
    P = multiply(F, G)
    assert P.constant == pytest.approx(1.0)
    assert np.allclose(P.terms[(1, 1)].coeffs, Kernel.basis(sp4, (0,), (0,)).coeffs)


def test_multiply_bilinear(rng):
    sp = random_space(rng, 2, weighted=True)
    F = ChaosVariable.from_kernel(random_kernel(rng, sp, 1, 1), constant=0.5)
    G = ChaosVariable.from_kernel(random_kernel(rng, sp, 1, 0))
    H = ChaosVariable.from_kernel(random_kernel(rng, sp, 0, 1))
    lhs = multiply(F, G + H * 2.0)
    rhs = multiply(F, G) + multiply(F, H) * 2.0
    assert lhs.constant == pytest.approx(rhs.constant)
    for key in rhs.terms:
        assert np.allclose(lhs.terms[key].coeffs, rhs.terms[key].coeffs)


def test_multiply_capped_by_entries_not_order(sp4, monkeypatch):
    # a top output order of 10 is fine at n = 4 (4^10 entries)
    G = basis_variable(sp4, (0, 1, 2), (0, 1))
    assert multiply(G, G).constant == product_expectation(G, G)
    assert multiply(G, conjugate(G)).constant == pytest.approx(pairing_expectation(G, G))
    # a (2,0) square at n = 65 has a 65^4 > 2^24-entry tensor-product term
    F = basis_variable(SpaceSpec.orthonormal(65), (0, 1), ())
    monkeypatch.setattr(space.np, "matmul", lambda *a, **k: pytest.fail("contracted past the cap"))
    with pytest.raises(SpaceError, match="cap"):
        multiply(F, F)


def test_moments_route_refuses_an_oversized_product(monkeypatch):
    # a (2,2) kernel at n = 10: its (0,0) pairing, planned first, has 10^8 output
    # entries, refused before any product
    f = Kernel(SpaceSpec.orthonormal(10), 2, 2, np.ones(10 ** 4))
    monkeypatch.setattr(space.np, "matmul", lambda *a, **k: pytest.fail("multiplied past the cap"))
    with pytest.raises(SpaceError, match="100000000 entries, above the cap"):
        fourth_gap(f, "moments")


def test_isometry_reproduced_by_product(rng):
    # E[I_{a,b}(f) conj(I_{c,d}(g))] = 1{a=c} 1{b=d} a! b! <f, g>, recovered by
    # expanding the product and taking the constant term
    sp = random_space(rng, 3, weighted=True)
    for (a, b), (c, d) in [((1, 1), (1, 1)), ((2, 1), (2, 1)), ((2, 1), (1, 2)),
                           ((1, 0), (1, 0)), ((2, 0), (1, 1))]:
        f = random_kernel(rng, sp, a, b)
        g = random_kernel(rng, sp, c, d)
        F = ChaosVariable.from_kernel(f)
        G = ChaosVariable.from_kernel(g)
        via_product = expectation(multiply(F, conjugate(G)))
        expected = 0.0
        if (a, b) == (c, d):
            expected = factorial(a) * factorial(b) * inner_product(f, g)
        assert via_product == pytest.approx(expected, abs=1e-10 * (1 + abs(expected)))
        assert pairing_expectation(F, G) == pytest.approx(expected, abs=1e-12 * (1 + abs(expected)))


# -- moments -----------------------------------------------------------------------------


def test_moment_exponential_law(sp4):
    # I_{1,1}(e1 (x) conj-e1) is a centered unit-rate exponential variable
    F = basis_variable(sp4, (0,), (0,))
    assert moment(F, 1, 0) == 0
    assert moment(F, 2, 0) == pytest.approx(1.0)
    assert moment(F, 1, 1) == pytest.approx(1.0)
    assert moment(F, 3, 0) == pytest.approx(2.0)
    assert moment(F, 2, 2) == pytest.approx(9.0)


def test_moment_product_of_independent_gaussians(sp4):
    F = basis_variable(sp4, (0,), (1,))
    assert moment(F, 2, 0) == pytest.approx(0.0, abs=1e-14)
    assert moment(F, 1, 1) == pytest.approx(1.0)
    assert moment(F, 2, 2) == pytest.approx(4.0)


def test_moment_with_constant(sp4):
    F = ChaosVariable.from_kernel(Kernel.basis(sp4, (0,), (0,)), constant=2.0)
    # shifted exponential: E[(X - 1 + 2)^2] with X ~ Exp(1)
    assert moment(F, 1, 0) == pytest.approx(2.0)
    assert moment(F, 2, 0) == pytest.approx(1.0 + 4.0)  # var + mean^2


def test_third_moments_closed_worked(sp4):
    f = Kernel.basis(sp4, (0,), (0,))
    assert third_moments_closed(f) == (pytest.approx(2.0), pytest.approx(2.0))
    f12 = Kernel.basis(sp4, (0,), (1,))
    s3, s21 = third_moments_closed(f12)
    assert s3 == pytest.approx(0.0) and s21 == pytest.approx(0.0)
    g = Kernel.basis(sp4, (0, 1), (0,))
    assert third_moments_closed(g) == (0.0, 0.0)


def test_third_moments_closed_vs_engine(rng):
    sp = random_space(rng, 3, weighted=True)
    for _ in range(3):
        f = random_kernel(rng, sp, 1, 1)
        F = ChaosVariable.from_kernel(f)
        c3, c21 = third_moments_closed(f)
        scale = max(abs(c3), abs(c21), 1.0)
        assert abs(c3 - moment(F, 3, 0)) <= 1e-10 * scale
        assert abs(c21 - moment(F, 2, 1)) <= 1e-10 * scale
    f22 = random_kernel(rng, SpaceSpec.orthonormal(2), 2, 2)
    F22 = ChaosVariable.from_kernel(f22)
    c3, c21 = third_moments_closed(f22)
    scale = max(abs(c3), abs(c21), 1.0)
    assert abs(c3 - moment(F22, 3, 0)) <= 1e-9 * scale
    assert abs(c21 - moment(F22, 2, 1)) <= 1e-9 * scale


# -- fourth-moment gap ----------------------------------------------------------------------


def test_fourth_gap_worked_values(sp4):
    f11 = Kernel.basis(sp4, (0,), (0,))
    f12 = Kernel.basis(sp4, (0,), (1,))
    for route in ("moments", "v1", "v2"):
        assert fourth_gap(f11, route) == pytest.approx(6.0)
        assert fourth_gap(f12, route) == pytest.approx(2.0)


def test_fourth_gap_first_chaos_zero(sp4):
    f = Kernel.basis(sp4, (0,), ())
    for route in ("moments", "v1", "v2"):
        assert fourth_gap(f, route) == pytest.approx(0.0, abs=1e-12)


def test_fourth_gap_route_agreement(rng):
    # (3, 2) and (1, 4): p != q with both the boundary direct term and the last phi group
    orders = [(1, 0), (2, 0), (1, 1), (2, 1), (0, 3), (3, 1), (3, 2), (1, 4)]
    for (p, q) in orders:
        sp = random_space(rng, 2, weighted=True)
        f = random_kernel(rng, sp, p, q)
        gm = fourth_gap(f, "moments")
        g1 = fourth_gap(f, "v1")
        g2 = fourth_gap(f, "v2")
        s2 = factorial(p) * factorial(q) * norm_sq(f)
        scale = max(abs(gm), abs(g1), abs(g2), s2**2)
        assert abs(g1 - gm) <= 1e-9 * scale
        assert abs(g2 - gm) <= 1e-9 * scale
        assert g1 >= -1e-12 * scale


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q", [(p, q) for p in range(5) for q in range(5 - p) if p + q])
def test_moments_route_matches_full_product(rng, monkeypatch, p, q, weighted):
    f = random_kernel(rng, random_space(rng, 3, weighted=weighted), p, q)
    calls = count_contractions(monkeypatch)
    ref = product_formula_gap(f)
    ref_calls, calls[0] = calls[0], 0
    monkeypatch.setattr(space, "_symmetrize",
                        lambda g: pytest.fail("the moments route symmetrized a product"))
    gap = fourth_gap(f, "moments")
    var = factorial(p) * factorial(q) * norm_sq(f)
    assert abs(gap - ref) <= 1e-13 * max(abs(ref), var ** 2)
    # one contraction per (i, j) of the expansion of F F, as multiply makes
    assert calls[0] == ref_calls == (min(p, q) + 1) ** 2


def test_moments_route_never_holds_a_full_product(rng):
    # at n = 24 the (1,1) square f (x) f has n^4 entries (16 n^4 bytes); the route
    # streams it into orbit sums, so its peak stays below one such product
    n = 24
    f = random_kernel(rng, random_space(rng, n, weighted=True), 1, 1)
    expected = fourth_gap(f, "moments")  # warm-up: orbit tables and plans
    tracemalloc.start()
    try:
        gap = fourth_gap(f, "moments")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == expected
    assert peak < 16 * n ** 4


def test_moments_route_compresses_a_one_block_product(rng):
    # a (2,0) kernel has no antiholomorphic slot to stream over, so its one product
    # f (x) f is formed whole: 20^4 entries (16 n^4 bytes) dense, 210^2 over the orbits
    # of its two free pairs
    n = 20
    f = random_kernel(rng, random_space(rng, n, weighted=True), 2, 0)
    expected = fourth_gap(f, "moments")  # warm-up: orbit tables, plans, weight products
    tracemalloc.start()
    try:
        gap = fourth_gap(f, "moments")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == expected
    assert peak < 16 * n ** 4


def test_fourth_gap_rejects_scalar(sp4):
    with pytest.raises(SpaceError):
        fourth_gap(Kernel.scalar(sp4, 1.0))


# -- covariance of squared moduli -------------------------------------------------------------


def test_cov_abs_sq_worked(sp4):
    f11 = Kernel.basis(sp4, (0,), (0,))
    assert cov_abs_sq(f11, f11) == pytest.approx(8.0)
    f12 = Kernel.basis(sp4, (0,), (1,))
    f34 = Kernel.basis(sp4, (2,), (3,))
    assert cov_abs_sq(f12, f34) == pytest.approx(0.0, abs=1e-14)
    f21 = Kernel.basis(sp4, (1,), (0,))
    assert cov_abs_sq(f12, f21) == pytest.approx(3.0)


def test_cov_abs_sq_vs_engine(rng):
    pairs = [((1, 1), (1, 1)), ((1, 0), (0, 1)), ((2, 0), (1, 0)),
             ((2, 1), (1, 1)), ((2, 1), (1, 2)), ((2, 0), (0, 2))]
    for (o1, o2) in pairs:
        sp = random_space(rng, 2, weighted=True)
        f1 = random_kernel(rng, sp, *o1)
        f2 = random_kernel(rng, sp, *o2)
        F1 = ChaosVariable.from_kernel(f1)
        F2 = ChaosVariable.from_kernel(f2)
        abs1 = multiply(F1, conjugate(F1))
        abs2 = multiply(F2, conjugate(F2))
        ref = (product_expectation(abs1, abs2) - abs1.constant * abs2.constant).real
        got = cov_abs_sq(f1, f2)
        assert abs(got - ref) <= 1e-9 * max(abs(ref), 1.0)


# -- composite behavior ------------------------------------------------------------------------


def test_product_associativity_in_expectation(rng):
    sp = random_space(rng, 2, weighted=True)
    F = ChaosVariable.from_kernel(random_kernel(rng, sp, 1, 0), constant=0.2)
    G = ChaosVariable.from_kernel(random_kernel(rng, sp, 1, 1))
    H = ChaosVariable.from_kernel(random_kernel(rng, sp, 0, 1), constant=-1.1j)
    lhs = expectation(multiply(multiply(F, G), H))
    rhs = expectation(multiply(F, multiply(G, H)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_power_and_expectation_of_product(sp4):
    F = basis_variable(sp4, (0,), (0,))
    sq = power(F, 2)
    assert expectation(sq) == pytest.approx(1.0)  # E[(|Z|^2 - 1)^2]
    assert expectation(power(F, 0)) == 1.0


def test_multiply_keeps_cancelled_terms_as_exact_zeros(rng):
    sp = random_space(rng, 2)
    f = random_kernel(rng, sp, 1, 0)
    F = ChaosVariable.from_kernel(f)
    G = ChaosVariable.from_kernel(f * -1.0)
    S = F + G  # identically zero first-order term
    P = multiply(S, ChaosVariable.from_kernel(random_kernel(rng, sp, 0, 1)))
    assert set(P.terms) == {(1, 1)}
    assert np.all(P.terms[(1, 1)].coeffs == 0.0)


# -- report and persistence ----------------------------------------------------------------------


def test_moment_report_worked(sp4):
    rep = moment_report(Kernel.basis(sp4, (0,), (0,)))
    assert rep.var_abs == pytest.approx(1.0)
    assert rep.pseudo == pytest.approx(1.0)
    assert rep.third == pytest.approx(2.0)
    assert rep.third_mixed == pytest.approx(2.0)
    assert rep.gap == pytest.approx(6.0)
    assert rep.route_spread() <= 1e-12
    doc = rep.to_json()
    assert doc["gap_v1"] == pytest.approx(6.0)


def test_moment_report_route_spread_scale(rng):
    # a first-chaos kernel has gap 0; the spread must be measured against the
    # fourth-order variance scale, not against the roundoff-level gap itself
    sp = random_space(rng, 3, weighted=True)
    rep = moment_report(random_kernel(rng, sp, 1, 0) * 10.0)
    assert rep.route_spread() <= 1e-12


def test_moment_report_route_spread_nan():
    # Python max/min skip a NaN that is not in first position, so one NaN
    # route must be caught explicitly
    for gaps in ((1.0, float("nan"), 1.0), (float("nan"),) * 3, (1.0, 1.0, float("nan"))):
        rep = MomentReport(var_abs=1.0, pseudo=0j, third=0j, third_mixed=0j,
                           gap=gaps[0], gap_v1=gaps[1], gap_v2=gaps[2])
        assert np.isnan(rep.route_spread())


def test_chaos_json_roundtrip(rng, tmp_path):
    sp = SpaceSpec(2, weights=np.array([0.5, 1.5]))
    F = ChaosVariable(sp, {
        (1, 1): random_kernel(rng, sp, 1, 1),
        (2, 0): random_kernel(rng, sp, 2, 0),
    }, constant=1.5 - 0.25j)
    doc = chaos_to_json(F)
    G = chaos_from_json(json.loads(json.dumps(doc)))
    assert G.constant == F.constant
    for key, kern in F.terms.items():
        assert np.array_equal(G.terms[key].coeffs, kern.coeffs)


def test_chaos_variable_validation(rng):
    sp = SpaceSpec.orthonormal(2)
    raw = Kernel(sp, 2, 1, np.arange(8, dtype=float).reshape(2, 2, 2))
    with pytest.raises(SpaceError):
        ChaosVariable(sp, {(2, 1): raw})  # not symmetric
    with pytest.raises(SpaceError):
        ChaosVariable(sp, {(1, 0): Kernel.basis(sp, (), (0,))})  # key mismatch
