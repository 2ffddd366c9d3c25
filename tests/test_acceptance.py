"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test computes its quantities, prints a PASS/FAIL line with the measured
numbers, then asserts.  Criterion 5 holds both of its clauses because the
numerator kernel stays strictly lower triangular and carries the diagonal
half-cell mass on its first subdiagonal; details in the test docstring.
"""

from __future__ import annotations

import time
from math import factorial, sqrt

import numpy as np

from cwchaos.bounds import be_upper_multivariate, be_upper_circular
from cwchaos.chaos import (
    ChaosVariable,
    ChaosVector,
    conjugate,
    cov_abs_sq,
    fourth_gap,
    moment_report,
    multiply,
    pairing_expectation,
    product_expectation,
)
from cwchaos.ou import (
    GridSpec,
    OUParams,
    abs_sq_mean_closed,
    numerator_kernel,
    rate_sweep,
    sample_numerator,
    verify_denominator_identity,
)
from cwchaos.sampling import (
    GaussianTarget,
    hermite_hl,
    sample_chaos,
    sample_gaussian,
    sliced_wasserstein_2d,
)
from cwchaos.space import (
    Kernel,
    SpaceSpec,
    contract,
    inner_product,
    norm,
    norm_sq,
    reverse_conjugate,
    sym_contract,
)

from conftest import random_kernel, random_space


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


# -- criterion 1 -----------------------------------------------------------------------


def test_criterion_1_gap_route_equivalence():
    """>= 200 random symmetric kernels, n <= 4, p+q <= 3: the three gap routes
    agree within 1e-9 relative; under two minutes."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    orders = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    worst = 0.0
    count = 0
    for trial in range(24):
        for (p, q) in orders:
            n = 2 + (trial + p + q) % 3  # n in {2, 3, 4}
            sp = random_space(rng, n, weighted=bool(trial % 2))
            f = random_kernel(rng, sp, p, q)
            gm = fourth_gap(f, "moments")
            g1 = fourth_gap(f, "v1")
            g2 = fourth_gap(f, "v2")
            s2 = factorial(p) * factorial(q) * norm_sq(f)
            scale = max(abs(gm), abs(g1), abs(g2), s2 ** 2)
            worst = max(worst, (max(gm, g1, g2) - min(gm, g1, g2)) / scale)
            count += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and count >= 200 and elapsed <= 120.0
    verdict(1, "gap route equivalence", ok,
            f"{count} kernels, worst relative spread {worst:.2e}, {elapsed:.1f}s")
    assert count >= 200
    assert worst <= 1e-9
    assert elapsed <= 120.0


# -- criterion 2 -----------------------------------------------------------------------


def test_criterion_2_norm_identity_suite():
    """>= 100 random kernel pairs: exchange identity, symmetrization/product
    norm chain, pairing identity, arithmetic-geometric inequality (1e-10
    relative); plus the squared-moduli covariance identity vs the moment
    engine (1e-9)."""
    rng = np.random.default_rng(202)
    order_pairs = [((1, 1), (1, 1)), ((2, 1), (1, 1)), ((2, 0), (1, 1)),
                   ((1, 2), (2, 1)), ((2, 0), (0, 2)), ((1, 0), (0, 1))]
    checked = 0
    worst_eq = 0.0
    for rep in range(17):
        for (o1, o2) in order_pairs:
            sp = random_space(rng, 2, weighted=bool(rep % 2))
            f1 = random_kernel(rng, sp, *o1)
            f2 = random_kernel(rng, sp, *o2)
            h1 = reverse_conjugate(f1)
            h2 = reverse_conjugate(f2)
            p1, q1 = f1.p, f1.q
            p2, q2 = f2.p, f2.q
            scale = max(norm(f1) * norm(f2), 1.0)
            for i in range(min(p1, q2) + 1):
                for j in range(min(q1, p2) + 1):
                    lhs = norm(contract(f1, f2, i, j))
                    worst_eq = max(worst_eq,
                                   abs(lhs - norm(contract(f2, f1, j, i))) / scale)
                    assert norm(sym_contract(f1, f2, i, j)) <= lhs + 1e-10 * scale
                    assert lhs <= scale * (1 + 1e-10)
                    pairing = inner_product(contract(f1, h1, p1 - i, q1 - j),
                                            contract(h2, f2, q2 - i, p2 - j))
                    worst_eq = max(worst_eq, abs(lhs ** 2 - pairing) / scale ** 2)
                    bound = (norm_sq(contract(f1, h1, p1 - i, q1 - j))
                             + norm_sq(contract(f2, h2, p2 - j, q2 - i)))
                    assert 2 * lhs ** 2 <= bound * (1 + 1e-10) + 1e-12
            # self-pair variant of the arithmetic-geometric inequality
            for i in range(min(p1, q1) + 1):
                for j in range(min(p1, q1) + 1):
                    lhs2 = 2 * norm_sq(contract(f1, f1, i, j))
                    rhs2 = (norm_sq(contract(f1, h1, p1 - i, q1 - j))
                            + norm_sq(contract(f1, h1, p1 - j, q1 - i)))
                    assert lhs2 <= rhs2 * (1 + 1e-10) + 1e-12
            checked += 1
    # covariance identity against the engine
    worst_cov = 0.0
    for (o1, o2) in order_pairs:
        sp = random_space(rng, 2, weighted=True)
        f1 = random_kernel(rng, sp, *o1)
        f2 = random_kernel(rng, sp, *o2)
        F1 = ChaosVariable.from_kernel(f1)
        F2 = ChaosVariable.from_kernel(f2)
        a1 = multiply(F1, conjugate(F1))
        a2 = multiply(F2, conjugate(F2))
        ref = (product_expectation(a1, a2) - a1.constant * a2.constant).real
        got = cov_abs_sq(f1, f2)
        worst_cov = max(worst_cov, abs(got - ref) / max(abs(ref), 1.0))
    ok = checked >= 100 and worst_eq <= 1e-10 and worst_cov <= 1e-9
    verdict(2, "norm identity suite", ok,
            f"{checked} pairs, worst identity residual {worst_eq:.2e}, "
            f"worst covariance residual {worst_cov:.2e}")
    assert checked >= 100
    assert worst_eq <= 1e-10
    assert worst_cov <= 1e-9


# -- criterion 3 -----------------------------------------------------------------------


def test_criterion_3_exact_values_with_monte_carlo():
    """Worked second-chaos values (gap, third moments, circular bound) plus a
    one-million-sample cross-check of every underlying moment at five
    empirical standard errors; under one minute."""
    t0 = time.time()
    sp = SpaceSpec.orthonormal(2)
    f11 = Kernel.basis(sp, (0,), (0,))
    f12 = Kernel.basis(sp, (0,), (1,))

    rep11 = moment_report(f11)
    exact_ok = (abs(rep11.gap_v1 - 6.0) <= 1e-12 and abs(rep11.third - 2.0) <= 1e-12
                and abs(rep11.third_mixed - 2.0) <= 1e-12)
    rep12 = moment_report(f12)
    bound12 = be_upper_circular(f12)
    exact_ok = exact_ok and (abs(rep12.gap_v1 - 2.0) <= 1e-12
                             and abs(rep12.pseudo) <= 1e-12
                             and abs(bound12 - 16.0) <= 1e-9)

    N = 1_000_000
    mc_ok = True
    details = []
    for name, kern, targets in [
        ("centered-exponential", f11, {(1, 1): 1.0, (2, 0): 1.0, (3, 0): 2.0, (2, 2): 9.0}),
        ("cross-product", f12, {(1, 1): 1.0, (2, 0): 0.0, (2, 2): 4.0}),
    ]:
        F = ChaosVariable.from_kernel(kern)
        batch = sample_chaos(F, N, seed=33 if name == "centered-exponential" else 44)
        v = batch.values
        for (k, l), target in targets.items():
            samples = v ** k * np.conj(v) ** l
            se = float(np.std(samples, ddof=1)) / sqrt(N)
            err = abs(np.mean(samples) - target)
            mc_ok = mc_ok and err <= 5 * se
            details.append(f"{name} E[F^{k}Fbar^{l}] err {err:.1e} vs 5se {5*se:.1e}")
    elapsed = time.time() - t0
    ok = exact_ok and mc_ok and elapsed <= 60.0
    verdict(3, "worked values and Monte Carlo", ok,
            f"exact values {'ok' if exact_ok else 'WRONG'}, MC within 5 se: {mc_ok}, "
            f"{elapsed:.1f}s")
    assert exact_ok
    assert mc_ok, details
    assert elapsed <= 60.0


# -- criterion 4 -----------------------------------------------------------------------


def test_criterion_4_hermite_generating_function_oracle():
    """Recurrence values match the generating-function Taylor coefficients for
    p+q <= 6 at 20 random points, 1e-9 relative."""

    def oracle(p, q, z):
        total = 0.0 + 0.0j
        for k in range(min(p, q) + 1):
            total += ((-2.0) ** k * z ** (p - k) * np.conj(z) ** (q - k)
                      / (factorial(k) * factorial(p - k) * factorial(q - k)))
        return factorial(p) * factorial(q) * total

    rng = np.random.default_rng(404)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    worst = 0.0
    for p in range(7):
        for q in range(7 - p):
            got = hermite_hl(p, q, zs)
            ref = np.array([oracle(p, q, z) for z in zs])
            worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0))))
    ok = worst <= 1e-9
    verdict(4, "Hermite generating-function oracle", ok, f"worst relative error {worst:.2e}")
    assert ok


# -- criterion 5 -----------------------------------------------------------------------


def test_criterion_5_quadrature_matches_closed_form():
    """Closed-form variance vs grid quadrature at lam=1, T=10, dt=0.005 within
    1e-3 relative, and an exactly vanishing pseudo-moment.

    A kernel on the strict triangle s < t alone misses the diagonal
    half-cells, a first-order quadrature error of dt/2 in absolute terms
    (5.25e-3 relative here).  Putting that mass on the diagonal would break
    the second clause, since a diagonal entry d adds d^2 to the pseudo-moment.
    ``numerator_kernel`` puts it on the first subdiagonal instead: the kernel
    stays strictly lower triangular, so the pseudo-moment is exactly zero,
    and the variance quadrature is second order with leading error
    (lam/6 - 5/(12 T)) dt^2, 6.6e-6 relative here.
    """
    p = OUParams(lam=1.0, T=10.0)
    m = int(round(p.T / 0.005))
    K = numerator_kernel(p, GridSpec(m=m))
    quad = inner_product(K, K).real
    closed = abs_sq_mean_closed(p)
    rel = abs(quad - closed) / closed
    pseudo = inner_product(K, reverse_conjugate(K))
    clause_a = rel <= 1e-3
    clause_b = pseudo == 0.0
    verdict(5, "quadrature vs closed form", clause_a and clause_b,
            f"relative error {rel:.3e} (tolerance 1e-3), pseudo-moment {pseudo}")
    assert clause_b
    assert clause_a, (
        f"quadrature error {rel:.3e} exceeds 1e-3 at dt=0.005: first-order "
        f"constant dt/2 from the excluded diagonal half-cells; see docstring"
    )


# -- criterion 6 -----------------------------------------------------------------------


def test_criterion_6_decay_rates_and_distance():
    """Log-log slopes over T in {50,...,800} at dt=0.05: gap -1 +- 0.1, mixed
    third moment -0.5 +- 0.1, plain third moment below 1e-3/sqrt(T); sliced
    Wasserstein distance to the limit law strictly decreasing across
    T in {5, 20, 80} in at least 4 of 5 seed replicates; under ten minutes."""
    t0 = time.time()
    base = OUParams(lam=1.0, T=1.0)
    table = rate_sweep(base, [50.0, 100.0, 200.0, 400.0, 800.0], dt=0.05)
    slope_ok = (abs(table.slope_gap - (-1.0)) <= 0.1
                and abs(table.slope_e3_mixed - (-0.5)) <= 0.1)
    e3_ok = all(r.e3 <= 1e-3 / sqrt(r.T) for r in table.rows)

    N = 100_000
    wins = 0
    dists = []
    for rep in range(5):
        ds = []
        for ti, T in enumerate((5.0, 20.0, 80.0)):
            m = int(round(T / 0.05))
            bF = sample_numerator(OUParams(lam=1.0, T=T), GridSpec(m=m), N=N,
                                  seed=9000 + 10 * rep + ti)
            bG = sample_gaussian(GaussianTarget.circular(0.5), N, seed=700 + 10 * rep + ti)
            ds.append(sliced_wasserstein_2d(bF.values, bG.values, K=64, seed=50 + rep))
        dists.append(ds)
        if ds[0] > ds[1] > ds[2]:
            wins += 1
    elapsed = time.time() - t0
    ok = slope_ok and e3_ok and wins >= 4 and elapsed <= 600.0
    verdict(6, "decay rates and distance", ok,
            f"slope_gap {table.slope_gap:.3f}, slope_mixed {table.slope_e3_mixed:.3f}, "
            f"monotone replicates {wins}/5, {elapsed:.0f}s")
    assert slope_ok, (table.slope_gap, table.slope_e3_mixed)
    assert e3_ok
    assert wins >= 4, dists
    assert elapsed <= 600.0


# -- criterion 7 -----------------------------------------------------------------------


def test_criterion_7_multivariate():
    """The two-component worked bound equals 4 sqrt(2) within 1e-9; every
    cross indicator term vanishes for component orders (5,1) and (3,2); the
    quartic-sum identity matches the moment engine within 1e-9 on random
    structurally-circular vectors with up to three components."""
    sp = SpaceSpec.orthonormal(4)
    F = ChaosVector([
        ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (1,))),
        ChaosVariable.from_kernel(Kernel.basis(sp, (2,), (3,))),
    ])
    rep = be_upper_multivariate(F)
    bound_err = abs(rep.bound - 4.0 * sqrt(2.0))
    worked_ok = bound_err <= 1e-9

    rng = np.random.default_rng(707)
    sp2 = SpaceSpec.orthonormal(2)
    G = ChaosVector([
        ChaosVariable.from_kernel(random_kernel(rng, sp2, 5, 1)),
        ChaosVariable.from_kernel(random_kernel(rng, sp2, 3, 2)),
    ])
    rep51 = be_upper_multivariate(G)
    zeros_ok = all((not t.active) and t.value == 0.0 for t in rep51.cross_terms)

    worst_identity = 0.0
    for trial in range(4):
        d = 1 + trial % 3
        sp3 = random_space(rng, 2, weighted=bool(trial % 2))
        orders = [(1, 0), (2, 0), (2, 1)][:d]
        comps = [ChaosVariable.from_kernel(random_kernel(rng, sp3, p, q))
                 for (p, q) in orders]
        V = ChaosVector(comps)
        repd = be_upper_multivariate(V)
        sigma = np.array([[pairing_expectation(a, b) for b in comps] for a in comps])
        abs_sq = [multiply(c, conjugate(c)) for c in comps]
        e4 = sum(product_expectation(abs_sq[j], abs_sq[r]).real
                 for j in range(d) for r in range(d))
        e_n4 = float(np.sum(np.abs(sigma) ** 2) + np.trace(sigma).real ** 2)
        worst_identity = max(worst_identity,
                             abs(repd.quartic_sum - (e4 - e_n4)) / max(abs(e4 - e_n4), 1.0))
    identity_ok = worst_identity <= 1e-9
    ok = worked_ok and zeros_ok and identity_ok
    verdict(7, "multivariate bound", ok,
            f"worked-bound error {bound_err:.2e}, cross terms all zero: {zeros_ok}, "
            f"worst quartic-identity residual {worst_identity:.2e}")
    assert worked_ok
    assert zeros_ok
    assert identity_ok


# -- criterion 8 -----------------------------------------------------------------------


def test_criterion_8_denominator_identity():
    """Pathwise decomposition of the time-averaged squared modulus: residual
    averages shrink from dt=0.1 to dt=0.01 (lam=1, T=5, 100 paths), and the
    two sides' means agree within five Monte Carlo standard errors on the
    refined grid."""
    p = OUParams(lam=1.0, T=5.0)
    coarse = verify_denominator_identity(p, GridSpec(m=50), seed=88, n_paths=100)
    fine = verify_denominator_identity(p, GridSpec(m=500), seed=88, n_paths=100)
    shrink_ok = fine.mean_abs_residual < coarse.mean_abs_residual
    mean_gap = abs(fine.lhs_mean - fine.rhs_mean)
    means_ok = mean_gap <= 5 * fine.diff_se
    ok = shrink_ok and means_ok
    verdict(8, "denominator identity", ok,
            f"mean |residual| {coarse.mean_abs_residual:.2e} -> {fine.mean_abs_residual:.2e}, "
            f"side-mean gap {mean_gap:.2e} vs 5se {5 * fine.diff_se:.2e}")
    assert shrink_ok
    assert means_ok


# -- criterion 9 (soft) -----------------------------------------------------------------


def test_criterion_9_fractional_gap_rate_soft():
    """Soft, non-gating in spirit: the fractional branch at H=0.7 shows the
    documented upper-bound exponent for the normalized gap, slope within
    2(4H-3) +- 0.15 on a fixed-spacing horizon sweep."""
    base = OUParams(lam=1.0, T=1.0, H=0.7)
    table = rate_sweep(base, [50.0, 100.0, 200.0, 400.0], dt=0.2)
    target = 2 * (4 * 0.7 - 3.0)
    ok = abs(table.slope_gap - target) <= 0.15
    verdict(9, "fractional gap rate (soft)", ok,
            f"slope {table.slope_gap:.3f} vs target {target:.2f} +- 0.15")
    assert ok
