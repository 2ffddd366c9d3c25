"""Monte Carlo sampling of chaos variables and empirical distance estimators.

A chaos variable is sampled exactly in distribution from i.i.d. circular
standard complex Gaussians Z = (Z_1, ..., Z_n) through the Wick expansion

    I_{p,q}(f) = sum_k (-1)^k k! C(p,k) C(q,k) <tr_k f, Z^(x)(p-k) (x) conj(Z)^(x)(q-k)>,

with the symmetric coefficients rescaled to the orthonormalized basis
e_k / sqrt(w_k), tr_k pairing k holomorphic with k antiholomorphic slots, and
<., .> the bilinear pairing of the remaining slots.  Its one-mode case
(n = 1, f = 1) is the Hermite-Laguerre-Ito polynomial 2^{-(p+q)/2} H_{p,q}(sqrt(2) Z).

Random streams are SFC64 (Small Fast Chaotic) generators, one per fixed-size
sample block, each seeded by a ``SeedSequence`` spawn key, so batches are
bit-reproducible for a given (seed, N, generator version) independent of
scheduling.  Complex normals fill the float view of their complex output,
real and imaginary parts interleaved, and are then scaled by 1/sqrt(2).
Consecutive fills from one stream draw what one fill of their concatenation
would, so a caller may draw a block in row chunks, holding one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, isfinite, pi, sqrt

import numpy as np

from .chaos import ChaosVariable
from .space import InputError, SpaceSpec, _apply_weights, _check_entries

__all__ = [
    "GENERATOR_VERSION",
    "SampleBatch",
    "GaussianTarget",
    "hermite_hl",
    "sample_chaos",
    "sample_gaussian",
    "wasserstein_1d",
    "sliced_wasserstein_2d",
]

GENERATOR_VERSION = "cwchaos-hermite-3"

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """N complex samples plus the seed and generator description that made them."""

    values: np.ndarray
    seed: int
    meta: str

    def __post_init__(self):
        if self.values.size < 1:
            raise InputError("a batch needs at least one sample")

    def to_csv(self) -> str:
        """CSV with columns re, im; the header comment carries seed and version."""
        values = np.asarray(self.values, dtype=complex)
        body = "".join([f"{re!r},{im!r}\n"
                        for re, im in zip(values.real.tolist(), values.imag.tolist())])
        return f"# {self.meta}\nre,im\n{body}"


@dataclass(frozen=True)
class GaussianTarget:
    """Reference complex Gaussian law with E|G|^2 = sigma_sq and E G^2 = a + i b:
    (Re, Im) has covariance [[s+a, b], [b, s-a]] / 2.  a = b = 0 is circular."""

    sigma_sq: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.sigma_sq, self.a, self.b)):
            raise InputError("sigma_sq, a and b must be finite")
        eigs = np.linalg.eigvalsh(self.covariance())
        if eigs[0] < -1e-12 * eigs[-1]:  # relative to the largest eigenvalue
            raise InputError("covariance is not positive semidefinite")

    @classmethod
    def circular(cls, sigma_sq: float) -> "GaussianTarget":
        return cls(sigma_sq=sigma_sq)

    def covariance(self) -> np.ndarray:
        s, a, b = self.sigma_sq, self.a, self.b
        return 0.5 * np.array([[s + a, b], [b, s - a]])


# -- Hermite-Laguerre-Ito polynomials ---------------------------------------------


def hermite_hl(p: int, q: int, z):
    """Hermite-Laguerre-Ito polynomial H_{p,q}(z), scalar or elementwise on arrays.

    Defined by the generating function
    exp(lam conj(z) + conj(lam) z - 2 |lam|^2) = sum conj(lam)^p lam^q H_{p,q}(z) / (p! q!),
    which pins the recurrences

        H_{p+1,q}(z) = z H_{p,q}(z) - 2 q H_{p,q-1}(z),
        H_{p,q+1}(z) = conj(z) H_{p,q}(z) - 2 p H_{p-1,q}(z),

    with H_{0,0} = 1, H_{1,0}(z) = z, H_{0,1}(z) = conj(z).
    """
    if p < 0 or q < 0:
        raise InputError("orders must be nonnegative")
    z = np.asarray(z, dtype=complex)
    zbar = np.conj(z)
    table = [[None] * (q + 1) for _ in range(p + 1)]
    table[0][0] = np.ones_like(z)
    for a in range(p):
        table[a + 1][0] = z * table[a][0]  # the -2q term vanishes at q = 0
    for b in range(q):
        for a in range(p + 1):
            step = zbar * table[a][b]
            if a >= 1:
                step = step - 2 * a * table[a - 1][b]
            table[a][b + 1] = step
    return table[p][q]


# -- chaos sampler -------------------------------------------------------------------


def _block_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.SFC64(ss))


def _complex_normal(rng: np.random.Generator, out) -> np.ndarray:
    """Circular standard complex normals (E|Z|^2 = 1) filling ``out``, a
    C-contiguous complex array, or a new array of shape ``out``.

    One ``standard_normal`` call fills the float view of the complex output,
    so real and imaginary parts are drawn interleaved, entry by entry in
    row-major order, and no float temporary is held.  Each value is then
    scaled by the reciprocal 1/sqrt(2), which is what a complex division by
    sqrt(2) computes, so the result is bitwise that of dividing one
    (*shape, 2) draw, read as (real, imaginary) pairs, by sqrt(2).
    """
    if not isinstance(out, np.ndarray):
        out = np.empty(out, dtype=complex)
    flat = out.view(float)         # raises, rather than filling a copy, on strided rows
    rng.standard_normal(out=flat)
    flat *= 1.0 / sqrt(2.0)
    return out


def _wick_term(coeffs: np.ndarray, p: int, q: int, Z: np.ndarray) -> np.ndarray:
    """I_{p,q} of symmetric orthonormal-basis coefficients on draws Z (n x nb):
    sum_k (-1)^k k! C(p,k) C(q,k) <tr_k coeffs, Z^(x)(p-k) (x) conj(Z)^(x)(q-k)>.

    Columns go in slices of ``width`` so the n^(p+q-1) x width temporary of the
    first contraction stays near 2^20 entries.
    """
    n, nb = Z.shape
    width = max(1, (1 << 20) // n ** (p + q - 1))
    Zc = np.conj(Z)
    out = np.zeros(nb, dtype=complex)
    t = coeffs
    for k in range(min(p, q) + 1):
        if k:
            t = np.trace(t, axis1=0, axis2=p - k + 1)  # first holo slot with first anti slot
        factor = (-1) ** k * factorial(k) * comb(p, k) * comb(q, k)
        slots = [Z] * (p - k) + [Zc] * (q - k)
        if not slots:
            out += factor * t
            continue
        for lo in range(0, nb, width):
            cols = slice(lo, lo + width)
            v = np.tensordot(t, slots[0][:, cols], axes=(0, 0))
            for X in slots[1:]:
                v = np.einsum("i...b,ib->...b", v, X[:, cols])
            out[cols] += factor * v
    return out


def sample_chaos(F: ChaosVariable, N: int, seed: int) -> SampleBatch:
    """Exact-in-distribution samples of F through the Wick expansion of each term.

    E and E|.|^2 of the batch converge to expectation(F) and the isometry
    variance at the usual N^(-1/2) Monte Carlo rate.
    """
    if N < 1:
        raise InputError("N must be >= 1")
    _check_entries(N, "a batch of samples")
    n = F.space.n
    # coefficients in the orthonormalized basis e_k / sqrt(w_k)
    root = SpaceSpec(n, np.sqrt(F.space.weights))
    prepared = [(p, q, _apply_weights(kern.coeffs, root, range(p + q)))
                for (p, q), kern in F.terms.items()]
    values = np.empty(N, dtype=complex)
    for ib, lo in enumerate(range(0, N, _BLOCK)):
        Z = _complex_normal(_block_rng(seed, ib), (n, min(_BLOCK, N - lo)))
        block = np.full(Z.shape[1], F.constant, dtype=complex)
        for p, q, coeffs in prepared:
            block += _wick_term(coeffs, p, q, Z)
        values[lo:lo + Z.shape[1]] = block
    meta = f"sample_chaos seed={seed} N={N} version={GENERATOR_VERSION}"
    return SampleBatch(values=values, seed=seed, meta=meta)


def sample_gaussian(target: GaussianTarget, N: int, seed: int) -> SampleBatch:
    """Exact bivariate-normal reference samples via eigenfactorization of the
    2x2 covariance (rank-deficient targets degrade gracefully)."""
    if N < 1:
        raise InputError("N must be >= 1")
    _check_entries(N, "a batch of samples")
    eigval, eigvec = np.linalg.eigh(target.covariance())
    L = eigvec @ np.diag(np.sqrt(np.clip(eigval, 0.0, None)))
    xy = L @ _block_rng(seed).standard_normal((2, N))
    meta = (f"sample_gaussian sigma_sq={target.sigma_sq!r} a={target.a!r} b={target.b!r} "
            f"seed={seed} N={N} version={GENERATOR_VERSION}")
    return SampleBatch(values=xy[0] + 1j * xy[1], seed=seed, meta=meta)


# -- empirical Wasserstein distances ---------------------------------------------------


def wasserstein_1d(x: np.ndarray, y: np.ndarray) -> float:
    """Exact W1 between two equal-size empirical measures on the line:
    mean absolute difference of order statistics."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("wasserstein_1d needs two equal-length 1-d batches")
    return float(np.mean(np.abs(np.sort(x) - np.sort(y))))


def sliced_wasserstein_2d(x: np.ndarray, y: np.ndarray, K: int = 64, seed: int = 0) -> float:
    """Average of 1-d W1 distances of the projections onto K random directions.

    A cheap lower bound on the planar W1 of equal-size batches, since each
    projection is 1-Lipschitz; deterministic given the seed.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("sliced_wasserstein_2d needs two equal-length 1-d batches")
    if K < 1:
        raise InputError("K must be >= 1")
    thetas = _block_rng(seed).uniform(0.0, pi, size=K)
    total = 0.0
    for theta in thetas:
        rot = np.exp(-1j * theta)
        total += wasserstein_1d((x * rot).real, (y * rot).real)
    return total / K

