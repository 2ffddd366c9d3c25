"""Kernel substrate: inner products, symmetrization, conjugation, contractions."""

from __future__ import annotations

import json
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations, product

import numpy as np
import pytest

from cwchaos import cli, ou, space
from cwchaos.chaos import fourth_gap, moment_report
from cwchaos.space import (
    Kernel,
    SpaceError,
    SpaceSpec,
    _apply_weights,
    contract,
    inner_product,
    kernel_from_json,
    kernel_to_json,
    load_kernel,
    norm,
    norm_sq,
    reverse_conjugate,
    save_kernel,
    sym_contract,
    symmetrize,
)

from conftest import contract_reference, random_kernel, random_space


# -- space validation ------------------------------------------------------------


def test_space_validation():
    with pytest.raises(SpaceError):
        SpaceSpec(0, weights=np.array([]))
    with pytest.raises(SpaceError):
        SpaceSpec(2, weights=np.array([1.0, 0.0]))
    with pytest.raises(SpaceError):
        SpaceSpec(2, weights=np.array([1.0, 1.0]), grid=np.array([1.0, 0.5]))
    sp = SpaceSpec(2, weights=np.array([1.0, 2.0]), grid=np.array([0.0, 1.0]))
    assert sp.n == 2


def test_kernel_shape_validation():
    sp = SpaceSpec.orthonormal(2)
    with pytest.raises(SpaceError):
        Kernel(sp, 1, 1, np.zeros((2, 3)))
    with pytest.raises(SpaceError):
        Kernel(sp, -1, 1, np.zeros(2))


def test_kernel_degree_checked_before_shapes():
    # n^(p+q) at p = 10^6 has too many digits to format; a larger p would
    # first build a tuple of p entries
    doc = {"n": 3, "p": 10 ** 6, "q": 0, "weights": [1.0] * 3, "re": [0.0], "im": [0.0]}
    with pytest.raises(SpaceError, match="at most 64"):
        kernel_from_json(doc)
    with pytest.raises(SpaceError, match="at most 64"):
        Kernel(SpaceSpec.orthonormal(1), 40, 25, np.zeros(1))
    assert Kernel(SpaceSpec.orthonormal(1), 40, 24, np.zeros(1)).coeffs.ndim == 64


def test_kernel_reshapes_only_flat_arrays():
    sp = SpaceSpec.orthonormal(4)
    flat = np.arange(16.0)
    assert np.array_equal(Kernel(sp, 1, 1, flat).coeffs, flat.reshape(4, 4))
    with pytest.raises(SpaceError):
        Kernel(sp, 1, 1, flat.reshape(2, 8))  # right size, wrong shape


def test_non_finite_inputs_rejected():
    for bad in (np.inf, np.nan):
        with pytest.raises(SpaceError):
            SpaceSpec(2, weights=np.array([1.0, bad]))
        with pytest.raises(SpaceError):
            SpaceSpec(2, weights=np.ones(2), grid=np.array([0.0, bad]))
        with pytest.raises(SpaceError):
            SpaceSpec(1, weights=np.ones(1), grid=np.array([bad]))
        for part in ("re", "im"):
            doc = kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (1,)))
            doc[part][1] = bad
            with pytest.raises(SpaceError):
                kernel_from_json(doc)


# -- inner product ------------------------------------------------------------------


def test_inner_product_orthonormality():
    sp = SpaceSpec.orthonormal(2)
    f = Kernel.basis(sp, (0,), (0,))
    g = Kernel.basis(sp, (0,), (1,))
    h = Kernel.basis(sp, (1,), (0,))
    assert inner_product(f, f) == 1.0
    assert inner_product(g, h) == 0.0


def test_inner_product_conjugate_symmetry(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    g = random_kernel(rng, sp, 2, 1, symmetric=False)
    assert inner_product(g, f) == pytest.approx(np.conj(inner_product(f, g)), rel=1e-12)
    assert inner_product(f, f).imag == pytest.approx(0.0, abs=1e-12)
    assert norm_sq(f) >= 0.0


def test_inner_product_mismatch_errors(rng):
    spa = SpaceSpec.orthonormal(2)
    spb = SpaceSpec.orthonormal(3)
    with pytest.raises(SpaceError):
        inner_product(Kernel.basis(spa, (0,), ()), Kernel.basis(spb, (0,), ()))
    with pytest.raises(SpaceError):
        inner_product(Kernel.basis(spa, (0,), ()), Kernel.basis(spa, (), (0,)))


def test_inner_product_quadrature_matches_closed_form():
    # triangular exponential kernel on a 2000-point midpoint grid of [0, 10]:
    # the weighted norm approximates the closed-form double integral
    lam, T, m = 1.0, 10.0, 2000
    h = T / m
    t = (np.arange(m) + 0.5) * h
    sp = SpaceSpec(m, weights=np.full(m, h), grid=t)
    diff = t[:, None] - t[None, :]
    vals = np.where(diff > 0, np.exp(-lam * np.where(diff > 0, diff, 0.0)), 0.0) / math.sqrt(T)
    K = Kernel(sp, 1, 1, vals)
    closed = 1 / (2 * lam) + math.exp(-2 * lam * T) / (4 * lam**2 * T) - 1 / (4 * lam**2 * T)
    assert inner_product(K, K).real == pytest.approx(closed, rel=2e-2)


def test_apply_weights_skips_only_unit_weights():
    # unit weights, or no axes, return the array itself (x * 1.0 == x); a space
    # with some unit weights still weighs every slot
    arr = np.ones((2, 2), dtype=complex)
    assert _apply_weights(arr, SpaceSpec.orthonormal(2), (0, 1)) is arr
    sp = SpaceSpec(2, weights=np.array([1.0, 2.0]))
    assert _apply_weights(arr, sp, ()) is arr
    assert norm_sq(Kernel.basis(sp, (1,), (1,))) == 4.0


# -- symmetrize ------------------------------------------------------------------------


def test_symmetrize_idempotent_bitwise(rng):
    sp = random_space(rng, 3)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    s1 = symmetrize(f)
    s2 = symmetrize(s1)
    assert s2 is s1  # flagged symmetric input returns unchanged
    assert np.array_equal(s1.coeffs, s2.coeffs)


def test_symmetrize_two_term_average():
    sp = SpaceSpec.orthonormal(2)
    f = Kernel.basis(sp, (0, 1), ())
    s = symmetrize(f)
    expected = np.zeros((2, 2))
    expected[0, 1] = expected[1, 0] = 0.5
    assert np.allclose(s.coeffs, expected)


def test_symmetrize_projection_property(rng):
    # <sym f, s> = <f, s> for every symmetric s, with s and the reference
    # symmetrization both built by an explicit permutation sum
    from itertools import permutations

    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    raw = random_kernel(rng, sp, 2, 1, symmetric=False)
    acc = np.zeros_like(raw.coeffs)
    count = 0
    for ph in permutations(range(2)):
        for pa in permutations(range(2, 3)):
            acc += np.transpose(raw.coeffs, ph + pa)
            count += 1
    s = Kernel(sp, 2, 1, acc / count, symmetric=True)
    fs = symmetrize(f)
    assert inner_product(fs, s) == pytest.approx(inner_product(f, s), rel=1e-12)
    assert norm(fs) <= norm(f) + 1e-12
    assert fs.symmetric
    # the incremental symmetrization agrees with the permutation average
    acc_f = np.zeros_like(f.coeffs)
    for ph in permutations(range(2)):
        for pa in permutations(range(2, 3)):
            acc_f += np.transpose(f.coeffs, ph + pa)
    assert np.allclose(fs.coeffs, acc_f / count)


def test_symmetrize_is_linear(rng):
    sp = random_space(rng, 2)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    g = random_kernel(rng, sp, 2, 1, symmetric=False)
    lhs = symmetrize(f + g * 2.5)
    rhs = symmetrize(f) + symmetrize(g) * 2.5
    assert np.allclose(lhs.coeffs, rhs.coeffs)


def _permutation_average(f: Kernel) -> np.ndarray:
    """Brute-force symmetrization: the mean over all p! q! block permutations."""
    acc = np.zeros_like(f.coeffs)
    count = 0
    for ph in permutations(range(f.p)):
        for pa in permutations(range(f.p, f.p + f.q)):
            acc += np.transpose(f.coeffs, ph + pa)
            count += 1
    return acc / count


def _popcount_average(f: Kernel) -> np.ndarray:
    """Symmetrization of a (k, 0) kernel at n = 2, whose k! permutations are too
    many to sum: the orbit of a flat index is its number of one bits, and each
    orbit's mean is summed exactly by ``math.fsum``."""
    flat = f.coeffs.reshape(-1)
    index = np.arange(flat.size)
    ones = sum((index >> bit) & 1 for bit in range(f.p))
    means = [complex(math.fsum(flat[ones == c].real), math.fsum(flat[ones == c].imag))
             / np.count_nonzero(ones == c) for c in range(f.p + 1)]
    return np.array(means)[ones].reshape(f.coeffs.shape)


_SYM_ORDERS = [(3, 0), (0, 3), (2, 2), (3, 2), (4, 0), (1, 4), (5, 0)]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q, n", [(p, q, n) for p, q in _SYM_ORDERS for n in (1, 2, 3, 4)]
                         # 2^17 entries, above _ORBIT_CACHE_ENTRIES: the uncached table
                         + [(17, 0, 2)])
def test_symmetrize_matches_permutation_average(rng, p, q, n, weighted):
    sp = random_space(rng, n, weighted=weighted)
    f = random_kernel(rng, sp, p, q, symmetric=False)
    s = symmetrize(f).coeffs
    avg = _permutation_average(f) if p + q <= 5 else _popcount_average(f)
    assert np.max(np.abs(s - avg)) <= 1e-14 * np.max(np.abs(f.coeffs))
    # each orbit gets one value, so every transposition inside a block is exact
    for lo, hi in ((0, p), (p, p + q)):
        for a, b in combinations(range(lo, hi), 2):
            assert np.array_equal(np.swapaxes(s, a, b), s)
    # the norm read from the orbit sums, against the average's norm summed exactly
    expected = math.fsum(_apply_weights(np.abs(avg) ** 2, sp, range(p + q)).ravel())
    assert abs(space._sym_norm_sq(f) - expected) <= 1e-13 * expected
    assert space._sym_norm_sq(symmetrize(f)) == norm_sq(symmetrize(f))
    # a NaN coefficient reaches the norm, so a gap route's route_spread fails closed
    bad = f.coeffs.copy()
    bad.flat[-1] = np.nan
    assert math.isnan(space._sym_norm_sq(Kernel(sp, p, q, bad)))


def test_symmetrize_scalar_and_one_point_space_pass_through():
    scalar = Kernel.scalar(SpaceSpec.orthonormal(3), 2.5 - 1.0j)
    assert symmetrize(scalar) is scalar
    f = Kernel(SpaceSpec(1, weights=np.array([0.7])), 3, 2, [1.5 + 2.0j])
    s = symmetrize(f)
    assert s.symmetric
    assert np.array_equal(s.coeffs, f.coeffs)


def test_symmetrize_first_call_memory_bounded():
    # a raw (20,0) kernel at n = 2 holds 2^20 entries (16 MiB); the orbit table
    # is built from one-byte digits, so the first call stays below 5 x 16 MiB
    rng = np.random.default_rng(20)
    f = Kernel(SpaceSpec.orthonormal(2), 20, 0, rng.standard_normal(1 << 20) + 0.0j)
    space._orbit_table.cache_clear()
    tracemalloc.start()
    try:
        s = symmetrize(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 16 * 2 ** 20
    assert np.array_equal(np.swapaxes(s.coeffs, 0, 19), s.coeffs)
    assert abs(s.coeffs.sum() - f.coeffs.sum()) <= 1e-9 * np.abs(f.coeffs).sum()


def test_cached_tables_and_weight_products_read_only(rng):
    space._orbit_table.cache_clear()
    symmetrize(random_kernel(rng, random_space(rng, 3), 3, 2, symmetric=False))
    assert space._orbit_table.cache_info().currsize == 2
    for k in (2, 3):
        assert not any(arr.flags.writeable for arr in space._orbit_table(3, k))
    sp = random_space(rng, 3, weighted=True)
    norm_sq(random_kernel(rng, sp, 2, 1))
    for r in range(4):
        prod_r = sp._weight_product(r)
        assert not prod_r.flags.writeable
        expected = [math.prod(sp.weights[list(idx)]) for idx in product(range(3), repeat=r)]
        assert np.allclose(prod_r, expected, rtol=1e-15, atol=0.0)
    assert SpaceSpec.orthonormal(3)._weight_product(2) is None


def test_symmetrize_threads_build_one_new_table(rng):
    space._orbit_table.cache_clear()
    f = random_kernel(rng, random_space(rng, 4, weighted=True), 6, 2, symmetric=False)
    start = threading.Barrier(4)

    def run():
        start.wait()
        return symmetrize(f).coeffs

    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = [fut.result() for fut in [pool.submit(run) for _ in range(4)]]
    assert all(np.array_equal(out, outs[0]) for out in outs[1:])


def test_symmetrize_keeps_one_symmetrization(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    s = symmetrize(f)
    assert symmetrize(f) is s and symmetrize(s) is s and f._memo == {"sym": s}
    # the memo belongs to the object: equal coefficients get their own
    assert symmetrize(Kernel(sp, 2, 1, f.coeffs)) is not s


def test_new_kernels_start_with_empty_memos(rng):
    sp = random_space(rng, 3, weighted=True)
    raw = random_kernel(rng, sp, 2, 1, symmetric=False)
    f = symmetrize(raw)
    f._cached("probe", lambda k: 1.0)
    made = [f + f, raw + raw, f * 2.0, 2.0 * raw, reverse_conjugate(f), reverse_conjugate(raw),
            contract(f, f, 1, 0), contract(raw, f, 0, 0), symmetrize(raw + raw),
            Kernel(sp, 2, 1, f.coeffs), Kernel.zeros(sp, 2, 1), Kernel.basis(sp, (0,), (1,))]
    assert all(kern._memo == {} for kern in made)
    assert f._memo == {"probe": 1.0} and raw._memo == {"sym": f}


# -- reverse conjugate --------------------------------------------------------------------


def test_reverse_conjugate_basis_example():
    sp = SpaceSpec.orthonormal(2)
    f = Kernel.basis(sp, (0,), (1,))  # e1 (x) conj-e2
    h = reverse_conjugate(f)
    assert (h.p, h.q) == (1, 1)
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0  # e2 (x) conj-e1
    assert np.allclose(h.coeffs, expected)


def test_reverse_conjugate_involution_and_norm(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    h = reverse_conjugate(f)
    assert (h.p, h.q) == (1, 2)
    back = reverse_conjugate(h)
    assert np.array_equal(back.coeffs, f.coeffs)
    assert norm(h) == pytest.approx(norm(f), rel=1e-12)


def test_reverse_conjugate_hermitian_fixed_point():
    sp = SpaceSpec.orthonormal(2)
    mat = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -0.5]])
    f = Kernel(sp, 1, 1, mat)
    h = reverse_conjugate(f)
    assert np.allclose(h.coeffs, f.coeffs)


def test_reverse_conjugate_triangular_kernel():
    # the companion of the lower-triangular exponential kernel lives on the
    # upper triangle with the conjugated rate
    gamma = 1.0 - 0.7j
    m, T = 50, 4.0
    h_step = T / m
    t = (np.arange(m) + 0.5) * h_step
    sp = SpaceSpec(m, weights=np.full(m, h_step), grid=t)
    diff = t[:, None] - t[None, :]
    lower = np.where(diff > 0, np.exp(-np.conj(gamma) * np.where(diff > 0, diff, 0.0)), 0.0)
    K = Kernel(sp, 1, 1, lower / math.sqrt(T))
    H = reverse_conjugate(K)
    d2 = t[:, None] - t[None, :]
    expected = np.where(d2 < 0, np.exp(-gamma * np.where(d2 < 0, -d2, 0.0)), 0.0) / math.sqrt(T)
    assert np.allclose(H.coeffs, expected)


# -- contraction ---------------------------------------------------------------------------


@pytest.mark.parametrize("shapes", [
    ((1, 1), (1, 1)),
    ((2, 1), (1, 2)),
    ((2, 0), (0, 2)),
    ((1, 2), (2, 1)),
    ((2, 2), (1, 1)),
])
def test_contract_matches_reference(rng, shapes):
    (a, b), (c, d) = shapes
    sp = random_space(rng, 2, weighted=True)
    f = random_kernel(rng, sp, a, b, symmetric=False)
    g = random_kernel(rng, sp, c, d, symmetric=False)
    for i in range(min(a, d) + 1):
        for j in range(min(b, c) + 1):
            got = contract(f, g, i, j)
            ref = contract_reference(f, g, i, j)
            assert got.p == a + c - i - j and got.q == b + d - i - j
            assert np.allclose(got.coeffs, ref.coeffs, atol=1e-12)


#: every block order with p + q <= 3, the scalar (0,0) included
SMALL_ORDERS = [(p, total - p) for total in range(4) for p in range(total, -1, -1)]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("f_order", SMALL_ORDERS)
def test_contract_sweep_matches_reference(rng, f_order, weighted):
    # raw kernels at n = 3 against every order with p + q <= 3 and every legal
    # (i, j), from the tensor product (0,0) to full contractions to a scalar,
    # so the slot convention stays pinned
    a, b = f_order
    sp = random_space(rng, 3, weighted=weighted)
    f = random_kernel(rng, sp, a, b, symmetric=False)
    for c, d in SMALL_ORDERS:
        g = random_kernel(rng, sp, c, d, symmetric=False)
        scale = norm(f) * norm(g)
        for i in range(min(a, d) + 1):
            for j in range(min(b, c) + 1):
                got = contract(f, g, i, j)
                ref = contract_reference(f, g, i, j)
                assert (got.p, got.q) == (ref.p, ref.q)
                assert np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0) <= 1e-13 * scale


def _slab_entries(n, a, b, c, d, i, j, rows_per_slab):
    """A ``_SLAB_ENTRIES`` that puts ``rows_per_slab`` of f's leading X orbits in a slab."""
    nfy, ngx, ngy = space._orbit_plan(n, a, b, c, d, i, j)[1][1:]
    return rows_per_slab * nfy * ngx * ngy


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("rows_per_slab", [1, 2])
def test_contract_orbit_sums_match_reduced_contraction(rng, monkeypatch, weighted, rows_per_slab):
    # symmetric f and g of every pair of orders with p + q <= 3, at every legal (i, j)
    # at n = 3: one leading X orbit of f per slab, or two, which leaves a short last slab
    # of its 3 or 6 or 10 orbits; the oracle reduces the whole contraction in one slab
    sp = random_space(rng, 3, weighted=weighted)
    split = 0
    for (a, b), (c, d) in product(SMALL_ORDERS, repeat=2):
        f = random_kernel(rng, sp, a, b)
        g = random_kernel(rng, sp, c, d)
        for i in range(min(a, d) + 1):
            for j in range(min(b, c) + 1):
                coef = math.comb(a, i) * math.factorial(j) + 0.5
                ref = coef * space._kernel_orbit_sums(contract(f, g, i, j))[0]
                entries = _slab_entries(3, a, b, c, d, i, j, rows_per_slab)
                with monkeypatch.context() as m:
                    m.setattr(space, "_SLAB_ENTRIES", entries)
                    got = space._contract_orbit_sums(f, g, i, j, coef)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                split += space._orbit_plan(3, a, b, c, d, i, j)[1][0] > rows_per_slab
    assert split > 50  # most cases stream more than one slab


@pytest.mark.parametrize("rows_per_slab", [1, 2])
def test_contract_orbit_sums_keep_a_nan_in_the_last_slab(rng, monkeypatch, rows_per_slab):
    # a NaN in f's last holomorphic row reaches only the last slab of f (x) g;
    # the orbit sums and the norm read from them, and so the gap, must be NaN
    sp = random_space(rng, 3, weighted=True)
    coeffs = random_kernel(rng, sp, 1, 1, symmetric=False).coeffs.copy()
    coeffs[-1, 0] = np.nan
    f, g = Kernel(sp, 1, 1, coeffs), random_kernel(rng, sp, 1, 1, symmetric=False)
    full = contract(f, g, 0, 0).coeffs
    assert np.isnan(full[-1]).any() and not np.isnan(full[:-1]).any()
    monkeypatch.setattr(space, "_SLAB_ENTRIES", _slab_entries(3, 1, 1, 1, 1, 0, 0, rows_per_slab))
    sums = space._contract_orbit_sums(f, g, 0, 0, 1)
    assert np.isnan(sums).any()
    assert math.isnan(space._orbit_norm_sq(sums, sp, 2, 2))
    report = moment_report(f)
    assert math.isnan(report.gap) and math.isnan(report.route_spread())


#: every block order with p + q <= 4, the scalar (0,0) included
ORDERS_4 = [(p, total - p) for total in range(5) for p in range(total, -1, -1)]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_coordinates_match_reduced_contraction(rng, monkeypatch, n, weighted):
    # symmetric f of every order with p + q <= 4, contracted with g = f and with its
    # reverse conjugate h at every legal (i, j): the primitive reads f and g at one member
    # per orbit and reduces through pair tables; the oracle reduces the dense contraction.
    # Slabs of all but one of f's leading X codes leave a short last slab of one code
    # wherever f has three or more.
    sp = random_space(rng, n, weighted=weighted)
    short = 0
    for a, b in ORDERS_4:
        f = random_kernel(rng, sp, a, b)
        for g in (f, reverse_conjugate(f)):
            for i, j in product(range(min(a, g.q) + 1), range(min(b, g.p) + 1)):
                coef = math.comb(a, i) * math.factorial(j) + 0.5
                ref = coef * space._kernel_orbit_sums(contract(f, g, i, j))[0]
                nfx, nfy, ngx, ngy = space._orbit_plan(n, a, b, g.p, g.q, i, j)[1]
                with monkeypatch.context() as m:
                    m.setattr(space, "_SLAB_ENTRIES", max(1, nfx - 1) * nfy * ngx * ngy)
                    got = space._contract_orbit_sums(f, g, i, j, coef)
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                short += nfx > 2
    assert short > 15
    # the (2,2) square runs over the 10 orbits of each free pair, not its 16 entries
    assert space._orbit_plan(4, 2, 2, 2, 2, 0, 0)[1] == (10, 10, 10, 10)


def test_orbit_norm_weights_equal_the_gathered_weight_product(rng):
    # the orbit weights are multiplied from the representatives' digits; the flat
    # n^k product gathered at their flat indices is the reference, bit for bit
    for n in range(1, 6):
        sp = random_space(rng, n, weighted=True)
        for p, q in ((0, 0), (1, 0), (0, 3), (2, 2), (6, 0), (4, 6), (6, 6)):
            (_, fx, sx), (_, fy, sy) = space._codes(n, p), space._codes(n, q)
            shape = (len(fx), len(fy))
            sums = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            wx, wy = (sp._weight_product(k)[flat] / size
                      for k, flat, size in ((p, fx, sx), (q, fy, sy)))
            expected = float(wx @ ((sums.real ** 2 + sums.imag ** 2) @ wy))
            assert space._orbit_norm_sq(sums, sp, p, q) == expected


def test_moments_route_keeps_weight_products_of_the_kernel_degree_only(rng):
    # the orbit weights gathered from a flat n^k product kept every degree up to 2(p + q)
    # on the space: 52 MiB of degrees 0..8 for a weighted (4,0) kernel at n = 7
    n = 7
    sp = random_space(rng, n, weighted=True)
    f = random_kernel(rng, sp, 4, 0)
    # warm-up on another space: this space's first call, orbit tables included, is measured
    fourth_gap(random_kernel(rng, random_space(rng, 3, weighted=True), 4, 0), "moments")
    tracemalloc.start()
    try:
        fourth_gap(f, "moments")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sp._products) <= 4
    assert sum(prod.nbytes for prod in sp._products.values()) <= f.coeffs.nbytes
    assert peak < 8 * 2**20


def test_orbit_coordinates_keep_a_nan_in_the_last_slab(rng, monkeypatch):
    # a NaN at holomorphic (2, 2) spreads over its orbit under symmetrize: the last of
    # f's six X codes, read in the short last slab of slabs of four; the sums, the norm
    # read from them and the gap must be NaN
    sp = random_space(rng, 3, weighted=True)
    coeffs = random_kernel(rng, sp, 2, 2, symmetric=False).coeffs.copy()
    coeffs[2, 2, 0, 1] = np.nan
    f = symmetrize(Kernel(sp, 2, 2, coeffs))
    nfx, nfy, ngx, ngy = space._orbit_plan(3, 2, 2, 2, 2, 0, 0)[1]
    assert nfx == 6
    monkeypatch.setattr(space, "_SLAB_ENTRIES", 4 * nfy * ngx * ngy)
    sums = space._contract_orbit_sums(f, f, 0, 0, 1)
    assert np.isnan(sums).any() and not np.isnan(sums).all()
    assert math.isnan(space._orbit_norm_sq(sums, sp, 4, 4))
    assert math.isnan(fourth_gap(f, "moments"))


@pytest.mark.parametrize("weighted", [False, True])
def test_contract_plans_keyed_by_size_orders_and_pairing(rng, weighted):
    # every plan is built here, each call made twice with n = 2 and n = 3
    # alternating, so a plan cached under a key that misses n, an order or
    # (i, j) is read for the wrong case and fails
    space._contract_plan.cache_clear()
    spaces = [random_space(rng, n, weighted=weighted) for n in (2, 3)]
    for (a, b), (c, d) in product(SMALL_ORDERS, repeat=2):
        pairs = [(random_kernel(rng, sp, a, b, symmetric=False),
                  random_kernel(rng, sp, c, d, symmetric=False)) for sp in spaces]
        for i in range(min(a, d) + 1):
            for j in range(min(b, c) + 1):
                refs = [contract_reference(f, g, i, j) for f, g in pairs]
                for _ in range(2):
                    for (f, g), ref in zip(pairs, refs):
                        got = contract(f, g, i, j)
                        assert (got.p, got.q) == (ref.p, ref.q)
                        assert (np.max(np.abs(got.coeffs - ref.coeffs), initial=0.0)
                                <= 1e-13 * norm(f) * norm(g))


@pytest.mark.parametrize("route", ["contract", "moments", "rate_sweep", "sample_numerator",
                                   "simulate_path", "verify_denominator_identity"])
def test_every_oversized_work_refusal_reads_the_one_cap(rng, monkeypatch, route):
    # with the cap lowered to 100 entries, each route refuses its work before any product,
    # Gram or draw; a module that bound the cap by value at import would let it through
    f = random_kernel(rng, random_space(rng, 4, weighted=True), 1, 1)  # f (x) f: 4^4 entries
    monkeypatch.setattr(space, "ENTRY_CAP", 100)
    space._contract_plan.cache_clear()
    space._orbit_plan.cache_clear()
    monkeypatch.setattr(space.np, "matmul", lambda *a, **k: pytest.fail("multiplied past the cap"))
    monkeypatch.setattr(ou, "fbm_gram", lambda *a, **k: pytest.fail("built a Gram past the cap"))
    monkeypatch.setattr(ou, "_complex_normal", lambda *a, **k: pytest.fail("drew past the cap"))
    p, grid = ou.OUParams(lam=1.0, T=5.0), ou.GridSpec(m=10)  # 10 x 20 draws
    refusals = {
        "contract": lambda: contract(f, f, 0, 0),
        "moments": lambda: fourth_gap(f, "moments"),
        "rate_sweep": lambda: ou.rate_sweep(ou.OUParams(lam=1.0, H=0.7), [1.0, 2.0], dt=0.1),
        "sample_numerator": lambda: ou.sample_numerator(p, grid, N=20, seed=0),
        "simulate_path": lambda: ou.simulate_path(p, grid, seed=0, n_paths=20),
        "verify_denominator_identity": lambda: ou.verify_denominator_identity(
            p, grid, seed=0, n_paths=20),
    }
    with pytest.raises(SpaceError, match="above the cap 100"):
        refusals[route]()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 2), (2, 2), (0, 4)])
def test_inner_product_matches_weighted_sum(rng, p, q, weighted):
    sp = random_space(rng, 3, weighted=weighted)
    f = random_kernel(rng, sp, p, q, symmetric=False)
    g = random_kernel(rng, sp, p, q, symmetric=False)
    ref = sum(f.coeffs[idx] * np.conj(g.coeffs[idx]) * math.prod(sp.weights[list(idx)])
              for idx in product(range(3), repeat=p + q))
    assert abs(inner_product(f, g) - ref) <= 1e-13 * norm(f) * norm(g)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
def test_inner_product_bitwise_the_apply_weights_route(rng, p, q, weighted):
    # one multiply by the cached weight product, or none at unit weights, is
    # bit for bit the _apply_weights route
    sp = random_space(rng, 4, weighted=weighted)
    f = random_kernel(rng, sp, p, q, symmetric=False)
    g = random_kernel(rng, sp, p, q, symmetric=False)
    want = complex(np.vdot(g.coeffs, _apply_weights(f.coeffs, sp, range(p + q))))
    assert inner_product(f, g) == want


def test_contract_tensor_product_norm(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 1, 1)
    g = random_kernel(rng, sp, 2, 0)
    prod = contract(f, g, 0, 0)
    assert norm(prod) == pytest.approx(norm(f) * norm(g), rel=1e-12)


def test_contract_full_against_companion_gives_norm(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 2, 1)
    h = reverse_conjugate(f)
    scalar = contract(f, h, 2, 1)
    assert scalar.degree == 0
    assert complex(scalar.coeffs) == pytest.approx(norm_sq(f), rel=1e-12)


def test_contract_hand_evaluated_single_pairings():
    sp = SpaceSpec.orthonormal(2)
    f = Kernel.basis(sp, (0,), (1,))   # e1 (x) conj-e2
    h = Kernel.basis(sp, (1,), (0,))   # e2 (x) conj-e1
    c10 = contract(f, h, 1, 0)
    expected10 = np.zeros((2, 2))
    expected10[1, 1] = 1.0             # e2 (x) conj-e2 pattern
    assert np.allclose(c10.coeffs, expected10)
    assert norm(c10) == pytest.approx(1.0)
    c01 = contract(f, h, 0, 1)
    expected01 = np.zeros((2, 2))
    expected01[0, 0] = 1.0             # e1 (x) conj-e1 pattern
    assert np.allclose(c01.coeffs, expected01)
    assert norm(c01) == pytest.approx(1.0)


def test_contract_index_validation(rng):
    sp = SpaceSpec.orthonormal(2)
    f = Kernel.basis(sp, (0,), (1,))
    g = Kernel.basis(sp, (1,), (0,))
    with pytest.raises(SpaceError):
        contract(f, g, 2, 0)
    with pytest.raises(SpaceError):
        contract(f, g, 0, -1)
    other = SpaceSpec.orthonormal(3)
    with pytest.raises(SpaceError):
        contract(f, Kernel.basis(other, (0,), (1,)), 0, 0)


def test_sym_contract_scalar_and_rank_one(rng):
    sp = random_space(rng, 3, weighted=True)
    f = random_kernel(rng, sp, 1, 1)
    h = reverse_conjugate(f)
    full = sym_contract(f, h, 1, 1)
    assert np.allclose(full.coeffs, contract(f, h, 1, 1).coeffs)
    e = Kernel.basis(SpaceSpec.orthonormal(2), (0,), (0,))
    assert np.allclose(sym_contract(e, e, 1, 0).coeffs, contract(e, e, 1, 0).coeffs)


def test_sym_contract_contracts_norm(rng):
    sp = random_space(rng, 3)
    f = random_kernel(rng, sp, 1, 1)
    assert norm(sym_contract(f, f, 1, 0)) <= norm(contract(f, f, 1, 0)) + 1e-12


# -- norm identities (shared-space random kernels) ------------------------------------------


@pytest.mark.parametrize("orders", [((1, 1), (1, 1)), ((2, 1), (1, 1)), ((2, 0), (1, 1)),
                                    ((1, 2), (2, 1)), ((2, 2), (1, 1))])
def test_norm_identities(rng, orders):
    (p1, q1), (p2, q2) = orders
    sp = random_space(rng, 2, weighted=True)
    for _ in range(6):
        f1 = random_kernel(rng, sp, p1, q1)
        f2 = random_kernel(rng, sp, p2, q2)
        h1 = reverse_conjugate(f1)
        h2 = reverse_conjugate(f2)
        scale = norm(f1) * norm(f2)
        for i in range(min(p1, q2) + 1):
            for j in range(min(q1, p2) + 1):
                lhs = norm(contract(f1, f2, i, j))
                # exchanging the factors transposes the contraction index
                rhs = norm(contract(f2, f1, j, i))
                assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)
                # symmetrized <= raw <= product of norms
                assert norm(sym_contract(f1, f2, i, j)) <= lhs + 1e-10 * max(scale, 1.0)
                assert lhs <= scale * (1 + 1e-10)
                # norm of a contraction as a pairing of self-contractions
                pairing = inner_product(contract(f1, h1, p1 - i, q1 - j),
                                        contract(h2, f2, q2 - i, p2 - j))
                assert abs(lhs**2 - pairing.real) <= 1e-10 * max(scale**2, 1.0)
                assert abs(pairing.imag) <= 1e-10 * max(scale**2, 1.0)
                # arithmetic-geometric bound through the companion contractions
                bound = (norm_sq(contract(f1, h1, p1 - i, q1 - j))
                         + norm_sq(contract(f2, h2, p2 - j, q2 - i)))
                assert 2 * lhs**2 <= bound * (1 + 1e-10) + 1e-12


def test_norm_inequality_selfpair(rng):
    sp = random_space(rng, 2, weighted=True)
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        f = random_kernel(rng, sp, p, q)
        h = reverse_conjugate(f)
        for i in range(min(p, q) + 1):
            for j in range(min(p, q) + 1):
                lhs = 2 * norm_sq(contract(f, f, i, j))
                rhs = (norm_sq(contract(f, h, p - i, q - j))
                       + norm_sq(contract(f, h, p - j, q - i)))
                assert lhs <= rhs * (1 + 1e-10) + 1e-12


def test_weight_refinement_consistency():
    # halving the grid spacing moves a smooth-kernel contraction by O(spacing)
    def quantity(m):
        h = 1.0 / m
        t = (np.arange(m) + 0.5) * h
        sp = SpaceSpec(m, weights=np.full(m, h), grid=t)
        vals = np.exp(-(t[:, None] + 2.0 * t[None, :]))
        K = Kernel(sp, 1, 1, vals)
        return norm_sq(contract(K, reverse_conjugate(K), 1, 0))

    exact_seq = [quantity(m) for m in (50, 100, 200, 400)]
    diffs = [abs(a - b) for a, b in zip(exact_seq, exact_seq[1:])]
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    # order-1-or-better convergence: successive differences shrink by >= ~2x
    assert diffs[2] <= 0.6 * diffs[1]


# -- persistence -----------------------------------------------------------------------------


def test_kernel_json_roundtrip_bit_exact(rng, tmp_path):
    sp = SpaceSpec(3, weights=np.array([0.3, 1.1, 2.4]), grid=np.array([0.1, 0.7, 1.9]))
    f = random_kernel(rng, sp, 2, 1, symmetric=False)
    path = tmp_path / "kernel.json"
    save_kernel(f, path)
    g = load_kernel(path)
    assert np.array_equal(f.coeffs, g.coeffs)
    assert np.array_equal(f.space.weights, g.space.weights)
    assert np.array_equal(f.space.grid, g.space.grid)
    assert (g.p, g.q) == (2, 1)


@pytest.mark.parametrize("grid", [None, np.array([-0.0, 1e-310, 0.7])])
def test_saved_kernel_bytes_are_the_streamed_dump_of_float_lists(tmp_path, grid):
    # the file is byte for byte a json.dump of per-element float() lists, on
    # signed zeros, subnormals and values whose repr needs all 17 digits
    sp = SpaceSpec(3, weights=np.array([0.1, 1e300, 2.0 / 3.0]), grid=grid)
    coeffs = np.array([-0.0, 5e-324, 1.0, 0.1 + 0.2, -1.5e-17, 2.0**60, 3.0, 1.0 / 3.0, 7.0])
    f = Kernel(sp, 1, 1, coeffs + 1j * coeffs[::-1])
    flat = f.coeffs.reshape(-1)
    doc = {"n": 3, "p": 1, "q": 1, "weights": [float(w) for w in sp.weights],
           "grid": None if grid is None else [float(t) for t in sp.grid],
           "re": [float(x) for x in flat.real], "im": [float(x) for x in flat.imag]}
    path, want = tmp_path / "kernel.json", tmp_path / "want.json"
    save_kernel(f, path)
    with open(want, "w") as fh:
        json.dump(doc, fh)
    assert path.read_bytes() == want.read_bytes()


def test_json_finite_nulls_only_non_finite_floats():
    # NaN and both infinities become null at any depth; every finite value, and so the
    # dumped text of a finite report, is kept as it is
    pseudo = np.array([[np.inf + 1j * np.nan, 0.1 - 2.5j]])
    doc = {"re": pseudo.real.tolist(), "im": pseudo.imag.tolist(), "x": np.float64(-np.inf),
           "t": (1.5, float("nan")), "nested": {"a": [np.float64(0.3), -0.0]},
           "n": 3, "ok": True, "note": "text", "none": None}
    assert cli._json_finite(doc) == {
        "re": [[None, 0.1]], "im": [[None, -2.5]], "x": None, "t": [1.5, None],
        "nested": {"a": [0.3, -0.0]}, "n": 3, "ok": True, "note": "text", "none": None}
    finite = {"a": [1e-300, 1.7976931348623157e308, -0.0], "b": {"c": np.float64(2.0) / 3}}
    assert json.dumps(cli._json_finite(finite)) == json.dumps(finite)


def test_kernel_json_malformed():
    with pytest.raises(SpaceError):
        kernel_from_json({"n": 2, "p": 1})
    doc = kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (0,)))
    doc["re"] = doc["re"][:-1]
    with pytest.raises(SpaceError):
        kernel_from_json(doc)
