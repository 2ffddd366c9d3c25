"""Shared helpers: random kernels and slow reference implementations used as
oracles for the fast paths."""

from __future__ import annotations

import itertools
from math import factorial, sqrt

import numpy as np
import pytest

from cwchaos.sampling import hermite_hl
from cwchaos.space import Kernel, SpaceSpec, _apply_weights, symmetrize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_kernel(rng, space: SpaceSpec, p: int, q: int, symmetric: bool = True) -> Kernel:
    shape = (space.n,) * (p + q)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kern = Kernel(space, p, q, arr)
    return symmetrize(kern) if symmetric else kern


def random_space(rng, n: int, weighted: bool = False) -> SpaceSpec:
    if weighted:
        return SpaceSpec(n, weights=0.5 + rng.random(n))
    return SpaceSpec.orthonormal(n)


def one_call_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circular standard complex normals from one draw of the whole (2, *shape)
    float array; the same-stream oracle for the sampler's in-place chunked fill."""
    parts = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    out /= sqrt(2.0)
    return out


def contract_reference(f: Kernel, g: Kernel, i: int, j: int) -> Kernel:
    """Contraction by explicit index loops; the oracle for the tensordot path.

    Pairs the last i holomorphic slots of f with the last i antiholomorphic
    slots of g and the last j antiholomorphic slots of f with the last j
    holomorphic slots of g, one weight per contracted pair, no conjugation.
    """
    n = f.space.n
    w = f.space.weights
    a, b = f.p, f.q
    c, d = g.p, g.q
    P, Q = a + c - i - j, b + d - i - j
    out = np.zeros((n,) * (P + Q), dtype=complex)
    for free in itertools.product(range(n), repeat=P + Q):
        th_f = free[: a - i]
        th_g = free[a - i: P]
        ts_f = free[P: P + (b - j)]
        ts_g = free[P + (b - j):]
        total = 0.0 + 0.0j
        for u in itertools.product(range(n), repeat=i):
            for v in itertools.product(range(n), repeat=j):
                f_val = f.coeffs[th_f + u + ts_f + v]
                g_val = g.coeffs[th_g + v + ts_g + u]
                weight = 1.0
                for idx in u + v:
                    weight *= w[idx]
                total += f_val * g_val * weight
        out[free] = total
    return Kernel(f.space, P, Q, out)


def _profiles(coeffs: np.ndarray, p: int, q: int, n: int):
    """Distinct sorted multi-index profiles with their coefficient and the count
    of raw index arrangements sharing them (symmetric kernels only)."""
    out = []
    for holo in itertools.combinations_with_replacement(range(n), p):
        for anti in itertools.combinations_with_replacement(range(n), q):
            c = coeffs[holo + anti]
            if c == 0:
                continue
            counts: dict[int, list[int]] = {}
            for k in holo:
                counts.setdefault(k, [0, 0])[0] += 1
            for k in anti:
                counts.setdefault(k, [0, 0])[1] += 1
            # distinct orderings: p! q! / prod a_k! b_k!
            mult = factorial(p) * factorial(q)
            for a_k, b_k in counts.values():
                mult //= factorial(a_k) * factorial(b_k)
            out.append((c, mult, sorted((k, a, b) for k, (a, b) in counts.items())))
    return out


def profile_sample(F, Z: np.ndarray) -> np.ndarray:
    """F evaluated on draws Z (n x nb) by the index-profile Hermite expansion;
    the oracle for the sampler's Wick contractions.

    Each sorted profile of a term, with per-index multiplicities (a_k, b_k),
    contributes its coefficient in the orthonormalized basis e_k / sqrt(w_k)
    times its arrangement count times prod_k 2^{-(a_k + b_k)/2} H_{a_k, b_k}(sqrt(2) Z_k).
    """
    n, nb = Z.shape
    out = np.full(nb, F.constant, dtype=complex)
    for (p, q), kern in F.terms.items():
        coeffs = _apply_weights(kern.coeffs, np.sqrt(kern.space.weights), range(p + q))
        for coef, mult, counts in _profiles(coeffs, p, q, n):
            term = np.full(nb, coef * mult, dtype=complex)
            for k, a, b in counts:
                term *= 2.0 ** (-(a + b) / 2.0) * hermite_hl(a, b, sqrt(2.0) * Z[k])
            out += term
    return out
