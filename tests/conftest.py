"""Shared helpers: random kernels and slow reference implementations used as
oracles for the fast paths."""

from __future__ import annotations

import itertools
from math import factorial, sqrt

import numpy as np
import pytest

from cwchaos.bounds import CrossTerm, be_upper, fmt_norms, partial_order
from cwchaos.chaos import _second_moments, fourth_gap, third_moments_closed
from cwchaos.ou import RateRow, _whitened_kernel
from cwchaos.sampling import hermite_hl
from cwchaos.space import (
    Kernel,
    SpaceSpec,
    _apply_weights,
    contract,
    norm,
    norm_sq,
    reverse_conjugate,
    symmetrize,
)


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


def separate_numerator_coeffs(params, grid) -> np.ndarray:
    """The numerator kernel's coefficients from expressions of their own: a
    strict-lower mask, the 1/sqrt(T) scale applied in place, and the
    first-subdiagonal band at H = 1/2.  Same-input oracle for ``numerator_kernel``."""
    t = grid.space(params.T).grid
    diff = t[:, None] - t[None, :]
    mask = diff > 0
    vals = np.where(mask, np.exp(-np.conj(params.gamma) * np.where(mask, diff, 0.0)), 0.0)
    vals /= sqrt(params.T)
    if params.H == 0.5:
        i = np.arange(1, grid.m)
        vals[i, i - 1] *= np.sqrt(1.0 + 0.5 * np.exp(2.0 * params.lam * np.diff(t)))
    return vals


def separate_occupation_coeffs(params, grid) -> np.ndarray:
    """The occupation kernel's coefficients with the lower triangle (diagonal
    included), the upper triangle and the boundary term each from their own
    exponentials.  Same-input oracle for ``occupation_kernel``."""
    t = grid.space(params.T).grid
    g = params.gamma
    gb = np.conj(g)
    diff = t[:, None] - t[None, :]
    lo = diff >= 0
    lower = np.where(lo, np.exp(-gb * np.where(lo, diff, 0.0)), 0.0)
    upper = np.where(~lo, np.exp(g * np.where(~lo, diff, 0.0)), 0.0)
    boundary = np.exp(-g * (params.T - t))[:, None] * np.exp(-gb * (params.T - t))[None, :]
    return lower + upper - boundary


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


def cell_integral_gram(params, grid) -> np.ndarray:
    """The fractional Gram from four primitives of alpha_H |u - v|^(2H-2) at the
    cell edges, entry by entry; the oracle for ``fbm_gram``'s Toeplitz generator."""
    t, w = grid.nodes_weights(params.T)
    H = params.H
    left = t - w / 2.0
    right = t + w / 2.0

    def primitive(xs: np.ndarray) -> np.ndarray:
        return np.abs(xs) ** (2 * H) / ((2 * H - 1) * (2 * H))

    gram = (primitive(right[:, None] - left[None, :])
            + primitive(left[:, None] - right[None, :])
            - primitive(right[:, None] - right[None, :])
            - primitive(left[:, None] - left[None, :]))
    return H * (2 * H - 1) * gram


def exact_wasserstein_2d(x: np.ndarray, y: np.ndarray, max_n: int = 2000) -> float:
    """Exact planar W1 between equal-size empirical measures by optimal
    assignment; quadratic memory, so capped at ``max_n`` points."""
    from scipy.optimize import linear_sum_assignment

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("exact_wasserstein_2d needs two equal-length 1-d batches")
    if x.size > max_n:
        raise ValueError(f"exact assignment limited to {max_n} points; use the sliced estimator")
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def generic_whitened_row(params, grid) -> RateRow:
    """Fractional sweep row from the library's generic moment, gap and
    contraction routes on the whitened kernel; the oracle for ``ou._whitened_row``."""
    f = _whitened_kernel(params, grid)
    var, _ = _second_moments(f)
    third, third_mixed = third_moments_closed(f)
    norms = fmt_norms(f)
    # normalize to unit variance: the gap is quartic, third moments cubic
    gap = fourth_gap(f, "v1") / var**2
    return RateRow(T=params.T, m=grid.m, var=var, gap=gap,
                   e3_mixed=abs(third_mixed) / var**1.5, e3=abs(third) / var**1.5,
                   fmt_10_sq=norms[1, 0] ** 2 / var**2, fmt_01_sq=norms[0, 1] ** 2 / var**2,
                   be_upper=be_upper(f * var**-0.5))  # the kernel route, at unit variance


def cross_terms_reference(F) -> list[CrossTerm]:
    """The multivariate report's cross terms, each active bracket from a
    contraction of its own; the oracle for ``be_upper_multivariate``, which
    reads them from each component's ``fmt_norms`` table."""
    kernels = [next(iter(comp.terms.values())) for comp in F.components]
    hs = [reverse_conjugate(k) for k in kernels]
    nsq = [norm_sq(k) for k in kernels]
    cross = []
    for r in range(F.d):
        pr, qr = kernels[r].p, kernels[r].q
        for j in range(F.d):
            if j == r:
                continue
            pj, qj = kernels[j].p, kernels[j].q
            specs = [
                ("fj_h_vs_swapped_r", (pj, qj, qr, pr), kernels[j], hs[j],
                 pj - qr, qj - pr, nsq[r]),
                ("fj_h_vs_r", (pj, qj, pr, qr), kernels[j], hs[j], pj - pr, qj - qr, nsq[r]),
                ("fr_h_vs_swapped_j", (pr, qr, qj, pj), kernels[r], hs[r],
                 pr - qj, qr - pj, nsq[j]),
                ("fr_h_vs_j", (pr, qr, pj, qj), kernels[r], hs[r], pr - pj, qr - qj, nsq[j]),
            ]
            for label, order_pair, fk, hk, ci, cj, other_nsq in specs:
                active = partial_order(*order_pair) == "succeeds"
                value = other_nsq * norm(contract(fk, hk, ci, cj)) if active else 0.0
                cross.append(CrossTerm(r=r, j=j, label=label, active=active, value=value))
    return cross
