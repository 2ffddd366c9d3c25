"""Ornstein-Uhlenbeck application: kernels, closed forms, sweeps, paths."""

from __future__ import annotations

import concurrent.futures
import decimal
import itertools
import os
import sys
import time
from dataclasses import asdict
from math import exp, sqrt

import numpy as np
import pytest

from cwchaos import ou
from cwchaos.bounds import be_upper_circular, fmt_norms
from cwchaos.chaos import fourth_gap, moment_report, third_moments_closed
from cwchaos.ou import (
    GridSpec,
    OUParams,
    abs_sq_mean_closed,
    fbm_gram,
    fbm_inner,
    normalization_factor,
    numerator_kernel,
    occupation_kernel,
    rate_sweep,
    sample_numerator,
    simulate_path,
    triangular_quantities,
    verify_denominator_identity,
    _ar1_rows,
    _whitened_kernel,
    _whitened_row,
)
from cwchaos.sampling import _block_rng, _complex_normal
from cwchaos.space import Kernel, SpaceError, SpaceSpec, inner_product, norm_sq, reverse_conjugate

from conftest import (
    cell_integral_gram,
    generic_whitened_row,
    separate_numerator_coeffs,
    separate_occupation_coeffs,
)


# -- parameters and grids ---------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        OUParams(lam=0.0)
    with pytest.raises(ValueError):
        OUParams(lam=1.0, T=-1.0)
    with pytest.raises(ValueError):
        OUParams(lam=1.0, H=0.75)
    nan, inf = float("nan"), float("inf")
    for bad in ({"lam": nan, "T": nan}, {"lam": nan}, {"lam": inf}, {"lam": 1.0, "omega": nan},
                {"lam": 1.0, "omega": inf}, {"lam": 1.0, "T": nan}, {"lam": 1.0, "T": inf},
                {"lam": 1.0, "H": nan}):
        with pytest.raises(ValueError):
            OUParams(**bad)
    p = OUParams(lam=2.0, omega=0.5, T=3.0, H=0.7)
    assert p.gamma == 2.0 - 0.5j


def test_grid_rules():
    with pytest.raises(ValueError):
        GridSpec(m=1)
    t, w = GridSpec(m=10).nodes_weights(2.0)
    assert np.all(np.diff(t) > 0)
    assert np.all((t > 0) & (t < 2.0))
    assert np.sum(w) == pytest.approx(2.0)


def test_grid_size_must_be_an_integer_of_at_least_two():
    p = OUParams(lam=1.0, omega=0.3, T=4.0)
    for bad in (0, 1, -3, 2.5, 4.0, True, np.float64(8.0), "8"):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(m=bad)
        with pytest.raises(ValueError, match="integer"):
            triangular_quantities(p, bad)
    assert GridSpec(m=np.int64(5)).space(1.0).n == 5
    assert triangular_quantities(p, np.int64(40)) == triangular_quantities(p, 40)


# -- kernels ------------------------------------------------------------------------


@pytest.mark.parametrize("lam,omega,T,m", [(1.0, 0.6, 4.0, 40), (0.8, -1.3, 20.0, 300),
                                           (2.0, 0.0, 1.0, 7), (1.0, 0.5, 3.0, 2)])
def test_kernels_equal_their_separate_builders(lam, omega, T, m):
    # both kernels come from one exponential triangle; each must be bit for bit
    # what its own expressions gave
    for H in (0.5, 0.7):
        p = OUParams(lam=lam, omega=omega, T=T, H=H)
        g = GridSpec(m=m)
        assert np.array_equal(numerator_kernel(p, g).coeffs, separate_numerator_coeffs(p, g))
        assert np.array_equal(occupation_kernel(p, g).coeffs, separate_occupation_coeffs(p, g))


def test_numerator_kernel_strict_triangle():
    p = OUParams(lam=1.0, omega=0.4, T=5.0)
    K = numerator_kernel(p, GridSpec(m=50))
    upper = np.triu(K.coeffs)  # includes diagonal
    assert np.all(upper == 0.0)
    t = K.space.grid
    i, j = 30, 10
    expected = np.exp(-np.conj(p.gamma) * (t[i] - t[j])) / sqrt(p.T)
    assert K.coeffs[i, j] == pytest.approx(expected)


def test_numerator_norm_first_order_convergent():
    # Order and constant of the kernel-norm quadrature on the midpoint grid
    # (h = dt, a = 2 lam).  Against the exact cell integrals of
    # exp(-a (t - s)) / T over the triangle s < t:
    # * each of the sum_d (m - d) x^d ~ m/(a h) - 1/(a h)^2 off-diagonal cells
    #   has midpoint error -h^2 x^d (a h)^2 / 12, in total
    #   -(lam/6 - 1/(12 T)) h^2;
    # * the m diagonal half-cells hold m (h^2/2 - a h^3/6) / T, and the
    #   subdiagonal band puts back (m - 1) h^2 / (2T), in total
    #   +(lam/3 - 1/(2T)) h^2.
    # So quadrature - closed form = (lam/6 - 5/(12 T)) h^2 + O(h^3): second
    # order, where the strict triangle alone was first order with error h/2.
    p = OUParams(lam=1.0, T=10.0)
    closed = abs_sq_mean_closed(p)
    errs = []
    for m in (250, 500, 1000, 2000):
        K = numerator_kernel(p, GridSpec(m=m))
        errs.append(inner_product(K, K).real - closed)
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(3.8 <= r <= 4.2 for r in ratios)
    h = 10.0 / 2000
    assert errs[-1] == pytest.approx((1.0 / 6.0 - 5.0 / (12.0 * 10.0)) * h**2, rel=0.01)


def test_numerator_pseudo_moment_exactly_zero():
    p = OUParams(lam=0.7, omega=1.3, T=8.0)
    K = numerator_kernel(p, GridSpec(m=64))
    assert inner_product(K, reverse_conjugate(K)) == 0.0


def test_occupation_kernel_structure():
    p = OUParams(lam=1.0, omega=0.6, T=4.0)
    F = occupation_kernel(p, GridSpec(m=40))
    assert np.allclose(reverse_conjugate(F).coeffs, F.coeffs, atol=1e-12)
    t = F.space.grid
    assert np.allclose(np.diag(F.coeffs), 1.0 - np.exp(-2 * p.lam * (p.T - t)))


def test_occupation_kernel_norm_grows_linearly():
    norms = []
    for T in (10.0, 20.0, 40.0):
        p = OUParams(lam=1.0, T=T)
        F = occupation_kernel(p, GridSpec(m=int(T / 0.1)))
        norms.append(norm_sq(F))
    # <f, f> = O(T): ratios approach 2 on doubling
    assert norms[1] / norms[0] == pytest.approx(2.0, rel=0.2)
    assert norms[2] / norms[1] == pytest.approx(2.0, rel=0.1)


# -- normalization -----------------------------------------------------------------------


def test_normalization_factor_values():
    assert normalization_factor(OUParams(lam=1.0, T=10.0)) == pytest.approx(
        (1 + exp(-20.0) / 20.0 - 1 / 20.0) ** -0.5)
    assert normalization_factor(OUParams(lam=1.0, T=10.0)) == pytest.approx(1.025978, rel=1e-5)
    assert normalization_factor(OUParams(lam=1.0, T=1e9)) == pytest.approx(1.0, abs=1e-8)


def test_normalization_factor_positive_for_short_horizons():
    # the variance factor 1 - (1 - e^(-2x)) / (2x) is strictly positive for all
    # x > 0 (it behaves like x near zero), so the nonpositive-factor guard can
    # never fire for valid parameters; probed down to tiny horizons
    for lamT in (0.01, 0.1, 0.35, 0.4, 1.0):
        nu = normalization_factor(OUParams(lam=1.0, T=lamT))
        assert np.isfinite(nu) and nu > 1.0


def test_variance_closed_form_matches_decimal_oracle_at_short_horizons():
    # the direct form 1 + e^(-x)/x - 1/x (x = 2 lam T) cancels at small x (at
    # lam = 1, T = 1e-9 it gives nu = 4096 against 31623); 50-digit decimal has
    # digits to spare after that cancellation
    ctx = decimal.Context(prec=50)
    for lam in (1.0, 0.37):
        for lamT in np.logspace(-12, 1, 53):
            p = OUParams(lam=lam, T=float(lamT) / lam)
            x = ctx.multiply(decimal.Decimal(2 * lam), decimal.Decimal(p.T))
            factor = ctx.subtract(ctx.add(1, ctx.divide(ctx.exp(-x), x)), ctx.divide(1, x))
            nu = ctx.divide(1, ctx.sqrt(factor))
            mean = ctx.divide(factor, decimal.Decimal(2 * lam))
            assert normalization_factor(p) == pytest.approx(float(nu), rel=1e-14, abs=0.0)
            assert abs_sq_mean_closed(p) == pytest.approx(float(mean), rel=1e-14, abs=0.0)


def test_normalized_variance_is_half_over_lam():
    for lam, T in [(1.0, 10.0), (0.5, 30.0), (2.0, 5.0)]:
        p = OUParams(lam=lam, T=T)
        nu = normalization_factor(p)
        assert nu**2 * abs_sq_mean_closed(p) == pytest.approx(1 / (2 * lam), rel=1e-12)


# -- structured path vs dense kernels -------------------------------------------------------


@pytest.mark.parametrize("lam,omega,T,m", [(1.0, 0.0, 6.0, 120), (0.8, 0.9, 9.0, 135),
                                            (1.0, 0.3, 1020.0, 6)])  # lam dt = 170
def test_structured_matches_dense(lam, omega, T, m):
    p = OUParams(lam=lam, omega=omega, T=T)
    K = numerator_kernel(p, GridSpec(m=m))
    nu = normalization_factor(p)
    Kn = K * nu
    tq = triangular_quantities(p, m)
    assert tq.var == pytest.approx(nu**2 * inner_product(K, K).real, rel=1e-12)
    # the one structured gap against both dense expansions
    assert tq.gap == pytest.approx(fourth_gap(Kn, "v1"), rel=1e-11)
    assert tq.gap == pytest.approx(fourth_gap(Kn, "v2"), rel=1e-11)
    table = fmt_norms(Kn)
    assert tq.fmt_10_sq == pytest.approx(table[(1, 0)] ** 2, rel=1e-11)
    assert tq.fmt_01_sq == pytest.approx(table[(0, 1)] ** 2, rel=1e-11)
    assert tq.fmt_10_sq == tq.fmt_01_sq
    e3, e21 = third_moments_closed(Kn)
    assert tq.e3_mixed == pytest.approx(abs(e21), rel=1e-11)
    assert abs(e3) == 0.0 and tq.e3 == 0.0
    # the sweep's row is the structured row, and its bound column matches the
    # circular evaluator on the dense kernel
    row = rate_sweep(p, [T / 2, T], dt=T / m).rows[-1]
    assert row == tq
    assert row.T == T and row.m == m
    assert row.be_upper == pytest.approx(be_upper_circular(Kn), rel=1e-10)


def test_subdiagonal_band_rejects_coarse_grids():
    # beta^2 ~ exp(2 lam dt) / 2 is squared by the prefix sums: past 4 lam dt =
    # ln(largest float) every H = 1/2 route raises instead of returning NaN or inf
    p = OUParams(lam=4.0, T=800.0)
    with pytest.raises(ValueError, match=r"lam dt = 800\.0 "):
        sample_numerator(p, GridSpec(m=4), 10, 0)
    with pytest.raises(ValueError, match="lam dt"):
        numerator_kernel(p, GridSpec(m=4))
    with pytest.raises(ValueError, match=r"lam dt = 180\.0 "):
        triangular_quantities(OUParams(lam=1.0, T=360.0), 2)
    with pytest.raises(ValueError, match="lam dt = nan"):
        ou._subdiagonal_factor(1.0, float("nan"))


def test_structured_rejects_fractional():
    with pytest.raises(ValueError):
        triangular_quantities(OUParams(lam=1.0, T=5.0, H=0.7), 50)


# -- sweeps ------------------------------------------------------------------------------------


def test_rate_sweep_slopes_quick():
    table = rate_sweep(OUParams(lam=1.0, T=1.0), [25, 50, 100, 200], dt=0.1)
    assert table.slope_gap == pytest.approx(-1.0, abs=0.1)
    assert table.slope_e3_mixed == pytest.approx(-0.5, abs=0.1)
    assert all(r.e3 == 0.0 for r in table.rows)
    # the contraction-norm sum itself decays like 1/T
    fmt_sums = [r.fmt_10_sq + r.fmt_01_sq for r in table.rows]
    ts = [r.T for r in table.rows]
    slope = np.polyfit(np.log(ts), np.log(fmt_sums), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "T,m,var,gap,e3_mixed,e3,fmt_10_sq,fmt_01_sq,be_upper"
    assert "# slope_gap=" in csv


def test_clt_condition_entries_decay_for_numerator_family():
    # truncated at the second-chaos term, the cross-contraction norms of the
    # normalized numerator kernel decay like T^(-1/2)
    from cwchaos.bounds import clt_conditions
    from cwchaos.chaos import ChaosVariable

    entries = {}
    for T in (40.0, 160.0):
        p = OUParams(lam=1.0, T=T)
        K = numerator_kernel(p, GridSpec(m=int(T / 0.1))) * normalization_factor(p)
        rep = clt_conditions(ChaosVariable.from_kernel(K), M=2)
        entries[T] = rep.contraction_tables[(1, 1)]
    for key in ((1, 0), (0, 1)):
        ratio = entries[160.0][key] / entries[40.0][key]
        assert ratio == pytest.approx(0.5, rel=0.15)  # (40/160)^(1/2)


def test_rate_sweep_validates_inputs():
    with pytest.raises(ValueError):
        rate_sweep(OUParams(lam=1.0, T=1.0), [100, 50], dt=0.1)
    with pytest.raises(ValueError, match="fewer than 2 nodes"):
        rate_sweep(OUParams(lam=1.0, T=1.0), [0.05, 1.0], dt=0.1)
    # a slope needs two points: one horizon, or none, is bad input
    for T_list in ([50.0], []):
        with pytest.raises(ValueError, match="two horizons"):
            rate_sweep(OUParams(lam=1.0, T=1.0), T_list, dt=0.1)


def test_fractional_sweep_caps_grid_before_any_row(monkeypatch):
    # T = 840 at dt = 0.2 gives m = 4200, and 4200^2 > 2^24: refused before the
    # small T = 10 row is computed, so no Gram is ever built
    monkeypatch.setattr(ou, "fbm_gram", lambda *a, **k: pytest.fail("built a Gram past the cap"))
    with pytest.raises(SpaceError, match="cap"):
        rate_sweep(OUParams(lam=1.0, omega=0.5, H=0.7), [10.0, 840.0], dt=0.2)
    # the O(m) H = 1/2 branch has no such cap
    table = rate_sweep(OUParams(lam=1.0, omega=0.5), [10.0, 840.0], dt=0.05)
    assert [r.m for r in table.rows] == [200, 16800]


# -- fractional branch ---------------------------------------------------------------------------


def test_fbm_gram_constant_kernel_unit_mass():
    # alpha_H * int_0^1 int_0^1 |u-v|^(2H-2) du dv = 1 for every H (fBm variance
    # normalization); cell-exact integration reproduces it to roundoff
    for H in (0.6, 0.7, 0.74):
        p = OUParams(lam=1.0, T=1.0, H=H)
        G = fbm_gram(p, GridSpec(m=40))
        assert np.sum(G) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("H", [0.55, 0.7, 0.74])
@pytest.mark.parametrize("m", [2, 3, 40, 1000])
def test_fbm_gram_generator_matches_cell_integrals(H, m):
    p = OUParams(lam=1.0, T=3.7, H=H)
    G = fbm_gram(p, GridSpec(m=m))
    ref = cell_integral_gram(p, GridSpec(m=m))
    assert np.max(np.abs(G - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.array_equal(G, G.T)
    assert np.array_equal(G[1:, 1:], G[:-1, :-1])


@pytest.mark.parametrize("H", [0.55, 0.7, 0.74])
def test_fbm_gram_total_mass_telescopes(H):
    # sum(G) = alpha_H int int_{[0,T]^2} |u-v|^(2H-2) = T^(2H); the four-primitive
    # cell integrals miss it by up to 7e-13 on these grids
    for m in (250, 400, 1000):
        for T in (1.0, 3.7, 200.0):
            G = fbm_gram(OUParams(lam=1.0, T=T, H=H), GridSpec(m=m))
            assert np.sum(G) == pytest.approx(T ** (2 * H), rel=1e-14, abs=0.0)


def test_fbm_gram_standard_branch_is_diagonal():
    g = GridSpec(m=16)
    G = fbm_gram(OUParams(lam=1.0, T=2.0, H=0.5), g)
    assert np.array_equal(G, np.diag(g.nodes_weights(2.0)[1]))


def test_fbm_inner_standard_branch_matches_weighted(rng=np.random.default_rng(2)):
    g = GridSpec(m=12)
    sp = g.space(3.0)
    f = Kernel(sp, 1, 1, rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    k = Kernel(sp, 1, 1, rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    got = fbm_inner(f, k, OUParams(lam=1.0, T=3.0, H=0.5))
    assert got == pytest.approx(inner_product(f, k), rel=1e-12)


def test_fbm_inner_fractional_positive_norm(rng=np.random.default_rng(4)):
    g = GridSpec(m=10)
    sp = g.space(2.0)
    f = Kernel(sp, 1, 0, rng.standard_normal(10) + 1j * rng.standard_normal(10))
    val = fbm_inner(f, f, OUParams(lam=1.0, T=2.0, H=0.7))
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real > 0


def test_fbm_inner_rejects_non_midpoint_space():
    # on Gauss-Legendre nodes the rebuilt midpoint cells gave 2.0155 for the
    # constant kernel on [0, 2] at H = 1/2 (exact: 2) and 2.668 at H = 0.7 (2^1.4)
    h = 0.5  # four composite 2-point Gauss-Legendre panels on [0, 2]
    centers = (np.arange(4) + 0.5) * h
    off = h / (2.0 * sqrt(3.0))
    gl = SpaceSpec(n=8, weights=np.full(8, h / 2.0),
                   grid=np.column_stack((centers - off, centers + off)).ravel())
    f = Kernel(gl, 1, 0, np.ones(8))
    for H in (0.5, 0.7):
        with pytest.raises(SpaceError):
            fbm_inner(f, f, OUParams(lam=1.0, T=2.0, H=H))
    mid = Kernel(GridSpec(m=8).space(2.0), 1, 0, np.ones(8))
    assert fbm_inner(mid, mid, OUParams(lam=1.0, T=2.0, H=0.5)) == pytest.approx(2.0, rel=1e-12)
    assert fbm_inner(mid, mid, OUParams(lam=1.0, T=2.0, H=0.7)) == pytest.approx(2.0**1.4, rel=1e-12)


def test_fbm_inner_checks_the_horizon_of_params():
    # the cells must be those of [0, params.T]; a T = 4 kernel paired under
    # T = 99 used to give the T = 4 value, 4^1.4 = 6.9644
    f = Kernel(GridSpec(m=20).space(4.0), 1, 0, np.ones(20))
    for H in (0.5, 0.7):
        assert fbm_inner(f, f, OUParams(lam=1.0, T=4.0, H=H)) == pytest.approx(4.0 ** (2 * H), rel=1e-12)
        for T in (99.0, 2.0, 4.0 * (1 + 1e-9)):
            with pytest.raises(SpaceError, match="T ="):
                fbm_inner(f, f, OUParams(lam=1.0, T=T, H=H))


def test_fractional_quantities_match_brute_force():
    # tiny-grid reference evaluation of the Gram-paired contractions
    p = OUParams(lam=1.0, omega=0.4, T=2.0, H=0.7)
    g = GridSpec(m=5)
    m = g.m
    t, w = g.nodes_weights(p.T)
    diff = t[:, None] - t[None, :]
    K = np.where(diff > 0,
                 np.exp(-np.conj(p.gamma) * np.where(diff > 0, diff, 0.0)), 0.0) / sqrt(p.T)
    G = fbm_gram(p, g)
    h = K.conj().T

    def inner(A, B):
        total = 0.0 + 0.0j
        for tt, ss, t2, s2 in itertools.product(range(m), repeat=4):
            total += A[tt, ss] * np.conj(B[t2, s2]) * G[tt, t2] * G[ss, s2]
        return total

    M1 = np.zeros((m, m), dtype=complex)
    M2 = np.zeros((m, m), dtype=complex)
    C = np.zeros((m, m), dtype=complex)
    for tt, ss in itertools.product(range(m), repeat=2):
        for u, up in itertools.product(range(m), repeat=2):
            M1[tt, ss] += K[u, ss] * h[tt, up] * G[u, up]
            M2[tt, ss] += K[tt, u] * h[up, ss] * G[u, up]
            C[tt, ss] += K[tt, u] * K[up, ss] * G[u, up]
    var = inner(K, K).real
    gap = (inner(M1, M1) + inner(M2, M2) + 4 * inner(C, C)).real / var**2
    e21 = abs(2 * inner(C, K)) / var**1.5

    got = asdict(_whitened_row(p, g))
    assert got["var"] == pytest.approx(var, rel=1e-12)
    assert got["gap"] == pytest.approx(gap, rel=1e-12)
    assert got["e3_mixed"] == pytest.approx(e21, rel=1e-12)
    assert got["fmt_10_sq"] == pytest.approx(inner(M1, M1).real / var**2, rel=1e-12)
    assert got["fmt_01_sq"] == pytest.approx(inner(M2, M2).real / var**2, rel=1e-12)


@pytest.mark.parametrize("H", [0.55, 0.6, 0.7, 0.74])
@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("m", [2, 5, 40, 200])
def test_whitened_row_matches_generic_routes(H, omega, m):
    # two matrix products against the generic moment, gap and contraction
    # routes on the same whitened kernel
    p = OUParams(lam=1.0, omega=omega, T=0.2 * m, H=H)
    g = GridSpec(m=m)
    got = asdict(_whitened_row(p, g))
    want = asdict(generic_whitened_row(p, g))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name
    assert got["fmt_10_sq"] == got["fmt_01_sq"]


def test_fractional_standard_branch_matches_structured():
    p = OUParams(lam=1.0, omega=0.2, T=6.0, H=0.5)
    fq = asdict(_whitened_row(p, GridSpec(m=100)))
    tq = triangular_quantities(p, 100)
    assert fq["var"] == pytest.approx(tq.var / normalization_factor(p) ** 2, rel=1e-12)
    assert fq["gap"] == pytest.approx(tq.gap / tq.var**2, rel=1e-11)
    assert fq["e3_mixed"] == pytest.approx(tq.e3_mixed / tq.var**1.5, rel=1e-11)


def test_whitened_kernel_three_routes_and_gram():
    # the whitened kernel runs every gap route, and its second moments are the
    # slotwise-Gram pairings of the unwhitened numerator kernel
    for H, m in itertools.product((0.6, 0.7), (5, 12, 30)):
        p = OUParams(lam=1.0, omega=0.5, T=3.0, H=H)
        g = GridSpec(m=m)
        rep = moment_report(_whitened_kernel(p, g))
        assert rep.route_spread() <= 1e-12
        K = numerator_kernel(p, g)
        assert rep.var_abs == pytest.approx(fbm_inner(K, K, p), rel=1e-12)
        assert abs(rep.pseudo - fbm_inner(K, reverse_conjugate(K), p)) <= 1e-12 * rep.var_abs


# -- sampling, paths, and the pathwise identity ----------------------------------------------------


def test_sample_numerator_variance_and_determinism():
    p = OUParams(lam=1.0, T=20.0)
    g = GridSpec(m=400)
    N = 100_000
    b = sample_numerator(p, g, N=N, seed=3)
    K = numerator_kernel(p, g) * normalization_factor(p)
    target = norm_sq(K)  # isometry variance of the discrete statistic
    sq = np.abs(b.values) ** 2
    se = np.std(sq, ddof=1) / sqrt(N)
    assert np.mean(sq) == pytest.approx(target, abs=5 * se)
    assert abs(np.mean(b.values ** 2)) <= 5 * se  # circular
    b2 = sample_numerator(p, g, N=N, seed=3)
    assert np.array_equal(b.values, b2.values)


def test_sample_numerator_agrees_with_generic_sampler():
    from cwchaos.chaos import ChaosVariable
    from cwchaos.sampling import sample_chaos

    p = OUParams(lam=1.0, T=5.0)
    g = GridSpec(m=40)
    F = ChaosVariable.from_kernel(numerator_kernel(p, g) * normalization_factor(p))
    N = 60_000
    fast = sample_numerator(p, g, N=N, seed=5)
    slow = sample_chaos(F, N, seed=6)
    for batch in (fast, slow):
        assert abs(np.mean(batch.values)) <= 0.02
    v1, v2 = np.var(fast.values), np.var(slow.values)
    assert v1 == pytest.approx(v2, abs=0.02)


@pytest.mark.parametrize("m, N", [(2, (1 << 16) + 300), (3, (1 << 16) + 300),
                                  (40, (1 << 16) + 300), (40, 3 * (1 << 16) + 7)],
                         ids=["2", "3", "40", "40-four-blocks"])
def test_sample_numerator_matches_dense_form_on_same_draws(m, N):
    # rebuild every block's draws and evaluate dt sum_{i,j} K_ij Z_i conj(Z_j)
    # (unit-weight draws on cells of weight dt) densely: pins the recursion,
    # the band and the block seeding value by value
    p = OUParams(lam=0.8, omega=0.6, T=4.0)
    g = GridSpec(m=m)
    block, seed = 1 << 16, 17
    batch = sample_numerator(p, g, N=N, seed=seed)
    assert f"block={block}" in batch.meta           # so N spans two or more blocks
    K = (numerator_kernel(p, g) * normalization_factor(p)).coeffs
    dt = p.T / m
    for ib, lo in enumerate(range(0, N, block)):
        Z = _complex_normal(_block_rng(seed, ib), (m, min(block, N - lo)))
        dense = dt * np.sum(Z * (K @ np.conj(Z)), axis=0)
        got = batch.values[lo:lo + Z.shape[1]]
        assert np.all(np.abs(got - dense) <= 1e-12 * np.abs(dense))


def test_sample_numerator_independent_of_worker_count(monkeypatch):
    # six blocks, the last one short, on one, two, four and (capped at four)
    # sixty-four threads, with thread switches forced often
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    p, g = OUParams(lam=0.8, omega=0.6, T=4.0), GridSpec(m=8)
    N, seed = 5 * (1 << 16) + 7, 17
    batches = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4, 64):
            monkeypatch.setattr(ou, "_usable_cores", lambda: workers)
            batches[workers] = sample_numerator(p, g, N=N, seed=seed).values
    finally:
        sys.setswitchinterval(interval)
    assert pools == [1, 2, 4, 4]
    for workers in (2, 4, 64):
        assert np.array_equal(batches[workers], batches[1])


def test_sample_numerator_error_cancels_pending_blocks(monkeypatch):
    # a failing block (or Ctrl-C) ends the batch once the running blocks finish:
    # the pool's map cancels every queued block
    calls = []

    def failing_draw(rng, shape):
        calls.append(shape)
        if len(calls) > 1:
            time.sleep(0.05)
        raise RuntimeError("draw failed")

    monkeypatch.setattr(ou, "_complex_normal", failing_draw)
    monkeypatch.setattr(ou, "_usable_cores", lambda: 2)
    g = GridSpec(m=1024)                                # blocks of 8192
    with pytest.raises(RuntimeError, match="draw failed"):
        sample_numerator(OUParams(lam=1.0, T=2.0), g, N=40 * 8192, seed=0)
    assert len(calls) < 10


def test_usable_cores_without_affinity(monkeypatch):
    # platforms without sched_getaffinity (macOS) fall back to the CPU count
    p, g = OUParams(lam=1.0, T=2.0), GridSpec(m=3)
    N = (1 << 16) + 5                               # two blocks
    ref = sample_numerator(p, g, N=N, seed=4).values
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert ou._usable_cores() == (os.cpu_count() or 1)
    assert np.array_equal(sample_numerator(p, g, N=N, seed=4).values, ref)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ou._usable_cores() == 1
    assert np.array_equal(sample_numerator(p, g, N=N, seed=4).values, ref)


def test_simulate_path_stationary_variance():
    p = OUParams(lam=1.0, omega=0.5, T=10.0)
    Z, eps = simulate_path(p, GridSpec(m=200), seed=9, n_paths=10_000)
    sq = np.abs(Z[-1]) ** 2
    se = np.std(sq, ddof=1) / sqrt(sq.size)
    assert np.mean(sq) == pytest.approx((1 - exp(-2 * p.lam * p.T)) / (2 * p.lam), abs=5 * se)


def test_simulate_path_recursion_and_zero_noise():
    p = OUParams(lam=1.0, omega=0.3, T=2.0)
    g = GridSpec(m=50)
    Z, eps = simulate_path(p, g, seed=1)
    a = np.exp(-p.gamma * (p.T / g.m))
    recon = np.empty_like(Z)
    recon[0] = 0.0
    for k in range(g.m):
        recon[k + 1] = a * recon[k] + eps[k]
    assert np.allclose(Z, recon, atol=1e-12)
    # zero innovations propagate to the zero path
    silent = np.array(list(_ar1_rows(a, np.zeros((g.m, 3), dtype=complex))))
    assert silent.shape == (g.m, 3)
    assert np.all(silent == 0.0)


def test_simulate_path_modulus_law_rotation_invariant():
    g = GridSpec(m=100)
    Z1, _ = simulate_path(OUParams(lam=1.0, omega=0.0, T=8.0), g, seed=12, n_paths=20_000)
    Z2, _ = simulate_path(OUParams(lam=1.0, omega=2.0, T=8.0), g, seed=12, n_paths=20_000)
    m1, m2 = np.abs(Z1[-1]), np.abs(Z2[-1])
    se = sqrt(np.var(m1) / m1.size + np.var(m2) / m2.size)
    assert abs(np.mean(m1) - np.mean(m2)) <= 5 * se


def test_simulate_path_rejects_fractional():
    with pytest.raises(ValueError):
        simulate_path(OUParams(lam=1.0, T=1.0, H=0.7), GridSpec(m=10), seed=0)


def test_path_samplers_need_a_path():
    p = OUParams(lam=1.0, T=2.0)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_path(p, GridSpec(m=10), seed=0, n_paths=n_paths)
        with pytest.raises(ValueError, match="n_paths"):
            verify_denominator_identity(p, GridSpec(m=10), seed=0, n_paths=n_paths)


def test_denominator_identity_refines():
    p = OUParams(lam=1.0, T=5.0)
    coarse = verify_denominator_identity(p, GridSpec(m=50), seed=5, n_paths=100)
    fine = verify_denominator_identity(p, GridSpec(m=500), seed=5, n_paths=100)
    assert fine.mean_abs_residual < coarse.mean_abs_residual
    assert fine.max_rel_residual < coarse.max_rel_residual
    # on the fine grid the two sides' means agree within five paired errors
    assert abs(fine.lhs_mean - fine.rhs_mean) <= 5 * fine.diff_se
    assert fine.rhs_mean == pytest.approx(fine.mean_closed, abs=0.05)


def test_denominator_identity_long_horizon_limit():
    p = OUParams(lam=1.0, T=60.0)
    rep = verify_denominator_identity(p, GridSpec(m=1200), seed=2, n_paths=200)
    assert rep.lhs_mean == pytest.approx(1 / (2 * p.lam), abs=0.03)
    assert rep.rhs_mean == pytest.approx(1 / (2 * p.lam), abs=0.03)
