"""Hermite polynomial oracle, exact-in-law sampling, distance estimators."""

from __future__ import annotations

from math import factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cwchaos.chaos import ChaosVariable, moment
from cwchaos.sampling import (
    _BLOCK,
    _CHUNK,
    GaussianTarget,
    _block_rng,
    _complex_normal,
    exact_wasserstein_2d,
    hermite_hl,
    sample_chaos,
    sample_gaussian,
    sliced_wasserstein_2d,
    wasserstein_1d,
)
from cwchaos.space import Kernel, SpaceSpec

from conftest import one_call_complex_normal, profile_sample, random_kernel, random_space


# -- the generating-function oracle -----------------------------------------------
#
# exp(lam conj(z) + conj(lam) z - 2 |lam|^2), expanded with lam and conj(lam) as
# independent formal variables, has the closed coefficient sum below; this is
# the mandatory reference every recurrence coefficient is pinned against.


def oracle_hl(p: int, q: int, z: complex) -> complex:
    total = 0.0 + 0.0j
    for k in range(min(p, q) + 1):
        total += ((-2.0) ** k * z ** (p - k) * np.conj(z) ** (q - k)
                  / (factorial(k) * factorial(p - k) * factorial(q - k)))
    return factorial(p) * factorial(q) * total


def test_oracle_matches_generating_function_directly():
    # the oracle itself is validated against a numeric partial sum of the
    # exponential at small |lam|, closing the loop
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = complex(rng.standard_normal(), rng.standard_normal())
        lam = 0.06 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        gen = np.exp(lam * np.conj(z) + np.conj(lam) * z - 2 * abs(lam) ** 2)
        partial = sum(
            np.conj(lam) ** p * lam ** q / (factorial(p) * factorial(q)) * oracle_hl(p, q, z)
            for p in range(14) for q in range(14 - p)
        )
        assert abs(gen - partial) <= 1e-12


def test_hermite_matches_oracle():
    rng = np.random.default_rng(7)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for p in range(7):
        for q in range(7 - p):
            got = hermite_hl(p, q, zs)
            ref = np.array([oracle_hl(p, q, z) for z in zs])
            assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))


def test_hermite_low_order_values():
    z = 1.3 - 0.4j
    assert hermite_hl(0, 0, z) == 1.0
    assert hermite_hl(1, 0, z) == pytest.approx(z)
    assert hermite_hl(0, 1, z) == pytest.approx(np.conj(z))
    assert hermite_hl(1, 1, z) == pytest.approx(abs(z) ** 2 - 2.0)
    assert hermite_hl(2, 0, z) == pytest.approx(z * z)


def test_hermite_conjugation_symmetry():
    rng = np.random.default_rng(3)
    zs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    for p in range(4):
        for q in range(4):
            assert np.allclose(np.conj(hermite_hl(p, q, zs)), hermite_hl(q, p, zs))


def test_hermite_rejects_negative_orders():
    with pytest.raises(ValueError):
        hermite_hl(-1, 0, 1.0)


# -- chaos sampler ------------------------------------------------------------------


def test_sample_first_chaos_gaussian():
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), ()))
    N = 200_000
    b = sample_chaos(F, N, seed=11)
    assert abs(np.mean(b.values)) <= 4 / sqrt(N)
    assert np.mean(np.abs(b.values) ** 2) == pytest.approx(1.0, abs=4 / sqrt(N))


def test_sample_centered_exponential_third_moment():
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (0,)))
    N = 400_000
    b = sample_chaos(F, N, seed=5)
    x3 = b.values.real ** 3
    se = np.std(x3, ddof=1) / sqrt(N)
    assert np.mean(x3) == pytest.approx(2.0, abs=5 * se)
    assert np.max(np.abs(b.values.imag)) <= 1e-12  # real-valued variable


def test_sample_cross_product_moments():
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (1,)))
    N = 400_000
    b = sample_chaos(F, N, seed=6)
    assert abs(np.mean(b.values ** 2)) <= 5 / sqrt(N) * 2
    m4 = np.abs(b.values) ** 4
    se = np.std(m4, ddof=1) / sqrt(N)
    assert np.mean(m4) == pytest.approx(4.0, abs=5 * se)


def test_sampler_matches_moment_engine(rng):
    # empirical E[F^k conj(F)^l] vs the exact engine, five standard errors
    sp = random_space(rng, 3)
    kern = random_kernel(rng, sp, 2, 1) * 0.4
    F = ChaosVariable.from_kernel(kern)
    N = 1_000_000
    b = sample_chaos(F, N, seed=17)
    v = b.values
    for (k, l) in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]:
        samples = v ** k * np.conj(v) ** l
        exact = moment(F, k, l)
        se = np.std(samples, ddof=1) / sqrt(N)
        assert abs(np.mean(samples) - exact) <= 5 * se + 1e-12


def test_sampler_weighted_space_isometry(rng):
    sp = SpaceSpec(2, weights=np.array([0.5, 2.0]))
    kern = random_kernel(rng, sp, 1, 1)
    F = ChaosVariable.from_kernel(kern)
    N = 400_000
    b = sample_chaos(F, N, seed=23)
    target = moment(F, 1, 1).real
    sq = np.abs(b.values) ** 2
    se = np.std(sq, ddof=1) / sqrt(N)
    assert np.mean(sq) == pytest.approx(target, abs=5 * se)


def test_sampler_orthogonal_kernels_uncorrelated(rng):
    sp = SpaceSpec.orthonormal(4)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (1,)))
    G = ChaosVariable.from_kernel(Kernel.basis(sp, (2,), (3,)))
    N = 200_000
    bf = sample_chaos(F, N, seed=31)
    bg = sample_chaos(G, N, seed=31)  # same underlying draws: joint law matters
    cross = bf.values * np.conj(bg.values)
    se = np.std(cross, ddof=1) / sqrt(N)
    assert abs(np.mean(cross)) <= 5 * se


def test_sampler_bit_exact_determinism():
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (0,)), constant=0.5)
    a = sample_chaos(F, 70_000, seed=42)
    b = sample_chaos(F, 70_000, seed=42)
    assert np.array_equal(a.values, b.values)
    c = sample_chaos(F, 70_000, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_sampler_validates_n(rng):
    sp = SpaceSpec.orthonormal(2)
    F = ChaosVariable.from_kernel(Kernel.basis(sp, (0,), ()))
    with pytest.raises(ValueError):
        sample_chaos(F, 0, seed=1)


# (orders, n, N, constant): every order 1 <= p + q <= 4, a mixed chaos with a
# constant, n = 1, a batch over two RNG blocks, and (2,1) at n = 40, whose
# column slice of 2^20 // 40^2 = 655 samples is shorter than the batch
ORACLE_CASES = (
    [(((p, total - p),), 3, 257, 0.0) for total in range(1, 5) for p in range(total, -1, -1)]
    + [
        (((1, 0), (0, 2), (1, 1), (2, 1), (2, 2)), 3, 257, 0.7 - 0.4j),
        (((2, 2),), 1, 257, 0.0),
        (((1, 1),), 2, _BLOCK + 300, 0.0),
        (((2, 1),), 40, 700, 0.0),
    ]
)


@pytest.mark.parametrize("orders, n, N, constant", ORACLE_CASES, ids=[
    "+".join(f"{p}{q}" for p, q in orders) + f"-n{n}-N{N}" for orders, n, N, _ in ORACLE_CASES])
def test_sample_chaos_matches_profile_oracle_on_same_draws(orders, n, N, constant, rng):
    # rebuild every block's draws and evaluate F on them by the index-profile
    # Hermite expansion: pins the Wick signs and counts, the orthonormalized
    # weights, the column slices and the block seeding value by value
    sp = random_space(rng, n, weighted=True)
    F = ChaosVariable(sp, {pq: random_kernel(rng, sp, *pq) for pq in orders}, constant)
    seed = 29
    got = sample_chaos(F, N, seed).values
    Z = np.concatenate([_complex_normal(_block_rng(seed, ib), (n, min(_BLOCK, N - lo)))
                        for ib, lo in enumerate(range(0, N, _BLOCK))], axis=1)
    ref = profile_sample(F, Z)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-13)


@pytest.mark.parametrize("shape", [(1, 1), (100, 3), (7, 1024), (1, _CHUNK + 1),
                                   (3, (_CHUNK - 1) // 3), (2 * _CHUNK + 1,), (2 * _CHUNK - 1,)])
def test_complex_normal_matches_one_call_draw(shape):
    # the chunked in-place fill consumes the stream in the one-call order and
    # scales by the reciprocal of sqrt(2), bit for bit what the complex divide gives
    got = _complex_normal(_block_rng(31, 2), shape)
    assert got.shape == shape
    assert np.array_equal(got, one_call_complex_normal(_block_rng(31, 2), shape))


# -- Gaussian reference sampler ----------------------------------------------------------


def test_gaussian_circular_moments():
    b = sample_gaussian(GaussianTarget.circular(2.0), 200_000, seed=2)
    assert abs(np.mean(b.values ** 2)) <= 0.05
    assert np.mean(np.abs(b.values) ** 2) == pytest.approx(2.0, abs=0.05)


def test_gaussian_degenerate_bivariate_is_real():
    b = sample_gaussian(GaussianTarget.bivariate(1.0, 0.0, 1.0), 1000, seed=2)
    assert np.max(np.abs(b.values.imag)) == 0.0


def test_gaussian_bivariate_zero_equals_circular_in_law():
    b1 = sample_gaussian(GaussianTarget.bivariate(0.0, 0.0, 1.5), 200_000, seed=8)
    b2 = sample_gaussian(GaussianTarget.circular(1.5), 200_000, seed=9)
    assert np.mean(np.abs(b1.values) ** 2) == pytest.approx(
        np.mean(np.abs(b2.values) ** 2), abs=0.05)
    assert wasserstein_1d(b1.values.real, b2.values.real) <= 0.02


def test_gaussian_rejects_non_psd():
    with pytest.raises(ValueError):
        GaussianTarget.bivariate(2.0, 0.0, 1.0)  # |a| > sigma^2


# -- Wasserstein estimators ------------------------------------------------------------------


def test_wasserstein_identical_and_translation():
    x = np.random.default_rng(0).standard_normal(5000)
    assert wasserstein_1d(x, x) == 0.0
    assert wasserstein_1d(x, x + 2.5) == pytest.approx(2.5)


@given(st.floats(-10, 10))
@settings(max_examples=25, deadline=None)
def test_wasserstein_translation_property(c):
    x = np.linspace(-1, 1, 101)
    assert wasserstein_1d(x, x + c) == pytest.approx(abs(c), abs=1e-12)


def test_wasserstein_same_law_small():
    x = np.random.default_rng(1).standard_normal(100_000)
    y = np.random.default_rng(2).standard_normal(100_000)
    assert wasserstein_1d(x, y) <= 0.02


def test_wasserstein_size_mismatch():
    with pytest.raises(ValueError):
        wasserstein_1d(np.zeros(3), np.zeros(4))


def test_sliced_identical_zero_and_deterministic():
    z = np.random.default_rng(3).standard_normal(2000) * (1 + 1j)
    assert sliced_wasserstein_2d(z, z, K=16, seed=0) == 0.0
    w = np.random.default_rng(4).standard_normal(2000) * (1 - 0.5j)
    d1 = sliced_wasserstein_2d(z, w, K=16, seed=5)
    d2 = sliced_wasserstein_2d(z, w, K=16, seed=5)
    assert d1 == d2
    assert d1 > 0


def test_sliced_rotation_of_circular_batch():
    rng = np.random.default_rng(6)
    n = 100_000
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / sqrt(2)
    w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / sqrt(2)
    rotated = w * np.exp(1j * 0.9)
    assert sliced_wasserstein_2d(z, rotated, K=32, seed=1) <= 0.02


def test_exact_wasserstein_small():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    assert exact_wasserstein_2d(z, z) == 0.0
    shifted = z + (1.0 + 1.0j)
    assert exact_wasserstein_2d(z, shifted) == pytest.approx(sqrt(2.0), rel=1e-9)
    with pytest.raises(ValueError):
        exact_wasserstein_2d(np.zeros(3000, dtype=complex), np.zeros(3000, dtype=complex))
