"""Weighted finite-dimensional complex Hilbert spaces and two-block tensor kernels.

A kernel is a dense complex array with ``p`` holomorphic slots followed by
``q`` antiholomorphic slots, each running over an ``n``-point basis with
positive diagonal Gram weights.  The inner product carries one weight factor
per tensor slot, so a kernel over a quadrature grid behaves like a function
discretized on that grid.

Conventions:

* Symmetrization acts per block (the first ``p`` axes and the last ``q`` axes
  independently).  It averages each orbit of multi-indices under permutations
  of a block's axes, one orbit table per block shape, so its output is exactly
  symmetric.
* ``contract(f, g, i, j)`` pairs the *last* ``i`` holomorphic slots of ``f``
  with the *last* ``i`` antiholomorphic slots of ``g``, and the *last* ``j``
  antiholomorphic slots of ``f`` with the *last* ``j`` holomorphic slots of
  ``g``.  No factor is conjugated.  For symmetric kernels the slot choice is
  immaterial; for raw kernels this fixed convention is part of the API.  It is
  one matrix product, weighted once on the contracted side.  For symmetric
  kernels its orbit sums, as symmetrization reads them, also come slab by slab:
  over the orbits of each factor's groups of axes, reduced through pair tables.

Kernels are immutable after construction and safe to share across threads.
Each keeps a private memo of what is derived from it for as long as it lives:
a raw kernel keeps its symmetrization alive, a symmetric one its contraction
table, v1 gap and third moments (``chaos``).  New kernels start with none.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

__all__ = [
    "ENTRY_CAP",
    "InputError",
    "SpaceSpec",
    "Kernel",
    "inner_product",
    "norm",
    "norm_sq",
    "symmetrize",
    "reverse_conjugate",
    "contract",
    "sym_contract",
    "kernel_to_json",
    "kernel_from_json",
    "save_kernel",
    "load_kernel",
]


#: Largest number of entries of a contraction output, an OU block of draws or a fractional
#: sweep's m x m arrays (2^24 complex take 256 MB); ``_check_entries``, the one guard, reads it.
ENTRY_CAP = 1 << 24


class InputError(ValueError):
    """Raised on bad input: a value, file or precondition the caller must fix.
    The CLI exits 2 on it; another ValueError from inside the library, such as
    numpy's LinAlgError, is an internal fault."""


class SpaceError(InputError):
    """Raised on invalid spaces or kernel/space mismatches."""


def _check_entries(entries: int, what: str) -> None:
    """Raise SpaceError where ``what`` needs more than ``ENTRY_CAP`` entries, read at the call."""
    if entries > ENTRY_CAP:
        raise SpaceError(f"{what} needs {entries} entries, above the cap {ENTRY_CAP}")


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """An n-dimensional complex Hilbert space with diagonal Gram weights.

    ``weights`` are all ones for an abstract orthonormal basis, or quadrature
    weights for a discretized L2 space.  ``grid`` optionally carries the node
    coordinates (required by the Ornstein-Uhlenbeck application).

    The space keeps the flat weight product of each degree it has weighted
    (see ``_weight_product``): no more bytes than the largest kernel weighted
    on it, which it holds for as long as the space lives.
    """

    n: int
    weights: np.ndarray
    grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpaceError(f"n must be >= 1, got {self.n}")
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n,):
            raise SpaceError(f"weights must have shape ({self.n},), got {w.shape}")
        if not np.all((w > 0) & np.isfinite(w)):
            raise SpaceError("all weights must be positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_unit", bool(np.all(w == 1.0)))
        object.__setattr__(self, "_products", {})
        if self.grid is not None:
            g = np.array(self.grid, dtype=float)
            if g.shape != (self.n,):
                raise SpaceError(f"grid must have shape ({self.n},), got {g.shape}")
            if not np.all(np.isfinite(g)):
                raise SpaceError("grid must be finite")
            if self.n > 1 and not np.all(np.diff(g) > 0):
                raise SpaceError("grid must be strictly increasing")
            g.setflags(write=False)
            object.__setattr__(self, "grid", g)

    @classmethod
    def orthonormal(cls, n: int) -> "SpaceSpec":
        return cls(n=n, weights=np.ones(n))

    def same_as(self, other: "SpaceSpec") -> bool:
        if self is other:
            return True
        if self.n != other.n or not np.array_equal(self.weights, other.weights):
            return False
        if (self.grid is None) != (other.grid is None):
            return False
        return self.grid is None or np.array_equal(self.grid, other.grid)

    def _weight_product(self, r: int) -> np.ndarray | None:
        """The products w[s_1] ... w[s_r] over the n^r multi-indices, flat in
        row-major order and read-only, formed once per degree; None when every
        weight is 1, since x * 1.0 == x needs no multiply."""
        if self._unit:
            return None
        prod = self._products.get(r)
        if prod is None:
            prod = np.ones(1) if r == 0 else np.multiply.outer(
                self._weight_product(r - 1), self.weights).ravel()
            prod.setflags(write=False)
            self._products[r] = prod  # a racing thread stores an equal array
        return prod


class Kernel:
    """Dense complex tensor in H^{(x)p} (x) H^{(x)q} over a shared space.

    ``coeffs`` has shape ``(n,) * (p + q)``, or is given flat in row-major
    order, with the first ``p`` axes holomorphic and the last ``q`` axes
    antiholomorphic; ``p = q = 0`` encodes a scalar.  ``symmetric``
    flags invariance under permutations within each block.
    """

    __slots__ = ("space", "p", "q", "coeffs", "symmetric", "_memo")

    def __init__(self, space: SpaceSpec, p: int, q: int, coeffs, symmetric: bool = False):
        if p < 0 or q < 0:
            raise SpaceError(f"block sizes must be nonnegative, got ({p}, {q})")
        if p + q > 64:  # checked before any shape is built; p and q may be huge
            raise SpaceError("kernel degree p + q must be at most 64, "
                             "numpy's limit on array dimensions")
        arr = np.array(coeffs, dtype=np.complex128)
        expected = (space.n,) * (p + q)
        if arr.shape != expected:
            if arr.ndim == 1 and arr.size == space.n ** (p + q):
                arr = arr.reshape(expected)
            else:
                raise SpaceError(
                    f"coeffs shape {arr.shape} is neither {expected} "
                    f"nor flat of length n^(p+q) = {space.n ** (p + q)}"
                )
        arr.setflags(write=False)
        self.space = space
        self.p = p
        self.q = q
        self.coeffs = arr
        self.symmetric = bool(symmetric) or (p <= 1 and q <= 1)
        self._memo = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, space: SpaceSpec, p: int, q: int, arr: np.ndarray,
              symmetric: bool = False) -> "Kernel":
        """Kernel over a complex array of shape (n,) * (p + q) that nothing else
        references, such as the result of an operation; taken without a copy."""
        arr = np.asarray(arr)  # a 0-d operation returns a numpy scalar
        arr.setflags(write=False)
        kern = cls.__new__(cls)
        kern.space, kern.p, kern.q, kern.coeffs = space, p, q, arr
        kern.symmetric = bool(symmetric) or (p <= 1 and q <= 1)
        kern._memo = {}
        return kern

    def _cached(self, key: str, build):
        """``build(self)``, formed once and kept in the memo under ``key``.  Racing
        threads may each build it; all of them return the first value stored."""
        value = self._memo.get(key)
        return self._memo.setdefault(key, build(self)) if value is None else value

    @classmethod
    def zeros(cls, space: SpaceSpec, p: int, q: int) -> "Kernel":
        return cls(space, p, q, np.zeros((space.n,) * (p + q)), symmetric=True)

    @classmethod
    def basis(cls, space: SpaceSpec, holo: tuple[int, ...], anti: tuple[int, ...]) -> "Kernel":
        """Elementary tensor e_{holo[0]} (x) ... (x) conj-slot e_{anti[-1]} (0-based indices)."""
        p, q = len(holo), len(anti)
        arr = np.zeros((space.n,) * (p + q))
        arr[tuple(holo) + tuple(anti)] = 1.0
        return cls(space, p, q, arr)

    @classmethod
    def scalar(cls, space: SpaceSpec, value: complex) -> "Kernel":
        return cls(space, 0, 0, np.asarray(value, dtype=np.complex128), symmetric=True)

    # -- basic properties ---------------------------------------------------

    @property
    def degree(self) -> int:
        return self.p + self.q

    def __repr__(self) -> str:  # pragma: no cover
        return f"Kernel(n={self.space.n}, p={self.p}, q={self.q}, symmetric={self.symmetric})"

    # -- linear structure ----------------------------------------------------

    def _check_peer(self, other: "Kernel") -> None:
        if not self.space.same_as(other.space):
            raise SpaceError("kernels live on different spaces")
        if self.p != other.p or self.q != other.q:
            raise SpaceError(
                f"block mismatch: ({self.p},{self.q}) vs ({other.p},{other.q})"
            )

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_peer(other)
        return Kernel._wrap(self.space, self.p, self.q, self.coeffs + other.coeffs,
                            symmetric=self.symmetric and other.symmetric)

    def __mul__(self, scalar: complex) -> "Kernel":
        return Kernel._wrap(self.space, self.p, self.q, self.coeffs * scalar,
                            symmetric=self.symmetric)

    __rmul__ = __mul__


# -- weighted inner product --------------------------------------------------


def _apply_weights(arr: np.ndarray, space: SpaceSpec, axes) -> np.ndarray:
    """Multiply one weight factor of ``space`` along each of the given axes, listed in
    increasing order, by the space's kept product; ``arr`` itself when every weight is 1
    or there are no axes, since x * 1.0 == x needs no multiply."""
    if space._unit or not axes:
        return arr
    shape = [1] * arr.ndim
    for ax in axes:
        shape[ax] = space.n
    return arr * space._weight_product(len(axes)).reshape(shape)


def inner_product(f: Kernel, g: Kernel) -> complex:
    """Weighted inner product <f, g> = sum f * conj(g) * (one weight per slot).

    Conjugate-symmetric in its arguments; <f, f> is real and nonnegative.
    """
    f._check_peer(g)
    return complex(np.vdot(g.coeffs, _apply_weights(f.coeffs, f.space, range(f.degree))))


def norm_sq(f: Kernel) -> float:
    value = inner_product(f, f).real
    return max(value, 0.0)


def norm(f: Kernel) -> float:
    return math.sqrt(norm_sq(f))


# -- symmetrization, conjugation, contraction ---------------------------------


#: Most entries (n^k of a block, orbits, orbit pairs) of an orbit table that a cache keeps.
_ORBIT_CACHE_ENTRIES = 1 << 16
#: Entries that ``_orbit_sums`` gathers, or ``_contract_orbit_sums`` multiplies, at a time.
_SLAB_ENTRIES = 1 << 16


def _id_table(digits: np.ndarray, n: int) -> tuple:
    """The read-only (order, starts, sizes, ids) of ``_orbit_table`` over the rows of ``digits``
    (each below n), sorted here in place: a row's orbit is its sorted multi-index, numbered
    by its colex rank sum_a C(s_a + a, a + 1)."""
    digits.sort(axis=1)
    ids = np.zeros(len(digits), dtype=np.intp)
    for a in range(digits.shape[1]):
        ids += np.array([math.comb(s + a, a + 1) for s in range(n)])[digits[:, a]]
    sizes = np.bincount(ids, minlength=math.comb(n + digits.shape[1] - 1, digits.shape[1]))
    table = (np.argsort(ids, kind="stable"), np.concatenate(([0], np.cumsum(sizes[:-1]))),
             sizes.astype(float), ids)
    for arr in table:
        arr.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _orbit_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the n^k flat multi-indices of a k-axis block under permutations
    of its axes, as read-only (order, starts, sizes, ids): ``order`` lists the
    flat indices orbit by orbit, ``starts`` where each orbit begins in it,
    ``sizes`` its members (as floats) and ``ids`` the orbit of each flat index.

    An orbit is a sorted multi-index, numbered as ``_id_table`` says.  The digits
    are held in the smallest unsigned dtype: k n^k bytes for n <= 256, beside 8-byte
    ranks and the table's own 16 n^k bytes, where an index array of np.indices would
    take 8 k n^k.  The cache keeps at most 32 tables of at most ``_ORBIT_CACHE_ENTRIES``
    entries (``_cached_below``), each under 2 MiB: at most 64 MiB in all.  Concurrent
    first calls may build a table twice; the copies are equal.
    """
    dt = np.min_scalar_type(n - 1)
    digits = np.empty((n,) * k + (k,), dtype=dt)
    for a in range(k):  # digit a of every multi-index, by broadcasting
        digits[..., a] = np.arange(n, dtype=dt).reshape((n,) + (1,) * (k - 1 - a))
    return _id_table(digits.reshape(n ** k, k), n)


@lru_cache(maxsize=32)
def _orbit_reps(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, flat, sizes) of the C(n + k - 1, k) orbits of a k-axis block in rank order,
    read-only: each orbit's sorted multi-index, its row-major flat index and its size k! /
    prod m! over the multiplicities m of its digits, as floats.  No n^k array is formed;
    ``_codes`` caches at most ``_ORBIT_CACHE_ENTRIES`` orbits, under 2 MiB."""
    m = math.comb(n + k - 1, k)
    digits = np.fromiter(itertools.chain.from_iterable(itertools.combinations_with_replacement(
        range(n), k)), np.min_scalar_type(n - 1), m * k).reshape(m, k)
    digits = np.ascontiguousarray((n - 1 - digits)[::-1, ::-1])  # lexicographic to colex
    run, sizes = np.ones(m), np.full(m, float(math.factorial(k)))
    for a in range(1, k):  # run: how many digits up to a equal digit a
        run = np.where(digits[:, a] == digits[:, a - 1], run + 1, 1.0)
        sizes /= run
    reps = (digits, digits @ n ** np.arange(k - 1, -1, -1), sizes)
    for arr in reps:
        arr.setflags(write=False)
    return reps


def _cached_below(build, entries: int, *args):
    """``build(*args)``, from its cache if it has at most ``_ORBIT_CACHE_ENTRIES`` entries."""
    return build(*args) if entries <= _ORBIT_CACHE_ENTRIES else build.__wrapped__(*args)


def _codes(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_orbit_reps(n, k)`` by ``_cached_below``."""
    return _cached_below(_orbit_reps, math.comb(n + k - 1, k), n, k)


def symmetrize(f: Kernel) -> Kernel:
    """Average over permutations within the holomorphic and antiholomorphic blocks.

    Divides the orbit sums of ``_orbit_sums``, reduced along the last axis, by the
    orbit sizes and gathers them back: every orbit member gets one value, so the
    output is exactly symmetric (``_sym_norm_sq`` reads its norm in orbit space).
    A raw kernel keeps its symmetrization, so every call returns the same object.
    """
    return f if f.symmetric else f._cached("sym", _symmetrize)


def _row_slabs(mat: np.ndarray, width: int):
    """Slabs of consecutive rows of ``mat``, ``width`` entries a row, ``_SLAB_ENTRIES`` or so."""
    step = max(1, _SLAB_ENTRIES // width)
    return (mat,) if step >= len(mat) else (mat[r:r + step] for r in range(0, len(mat), step))


def _orbit_sums(slabs, rows: int, tx, ty) -> np.ndarray:
    """S[a, b]: a matrix of ``rows`` rows, given in slabs of rows, summed over orbit a of its
    row block and b of its longer column block (tables ``tx``, ``ty`` as ``_orbit_table`` or
    ``_pair_table`` gives them; without them S is the matrix).  Each slab is reduced along its
    last, contiguous axis; a lone slab's rows then likewise, by the table's stable order,
    else each slab's rows are binned into their orbits as it arrives, in the same ascending
    order, by ``np.add.at``: S and one slab's sums are all that is held."""
    if ty is None:
        return np.concatenate(list(slabs))
    out, r = None, 0
    for slab in slabs:
        first = np.add.reduceat(slab.take(ty[0], 1), ty[1], 1)
        if len(slab) == rows:
            return first if tx is None else np.add.reduceat(first.take(tx[0], 0), tx[1], 0)
        if out is None:
            out = np.zeros((rows if tx is None else len(tx[1]), first.shape[1]), dtype=complex)
        if tx is None:
            out[r:r + len(slab)] = first
        else:  # on the flat sums: numpy's fast path for np.add.at
            np.add.at(out.reshape(-1), (tx[3][r:r + len(slab), None] * out.shape[1]
                                        + np.arange(out.shape[1])).reshape(-1), first.reshape(-1))
        r += len(slab)
        del slab, first  # the next slab is formed without this one
    return out


def _kernel_orbit_sums(f: Kernel) -> tuple[np.ndarray, list]:
    """(S, tables): f's ``_orbit_sums``, holomorphic block first, and each block's
    ``_orbit_table``, None where it has at most one axis."""
    tables = [None if k < 2 else _cached_below(_orbit_table, f.space.n ** k, f.space.n, k)
              for k in (f.p, f.q)]
    mat = f.coeffs.reshape(f.space.n ** f.p, -1)
    if f.p > f.q:  # the holomorphic block on the columns, reduced first
        return _orbit_sums(_row_slabs(mat.T, len(mat)), mat.shape[1], *tables[::-1]).T, tables
    return _orbit_sums(_row_slabs(mat, mat.shape[1]), len(mat), *tables), tables


def _symmetrize(f: Kernel) -> Kernel:
    out, tables = _kernel_orbit_sums(f)  # fresh sums, divided in place
    for axis, table in enumerate(tables):
        if table is not None:
            out /= table[2][:, None] if axis == 0 else table[2]
            out = out.take(table[3], axis)
    return Kernel._wrap(f.space, f.p, f.q, out.reshape(f.coeffs.shape), symmetric=True)


def _orbit_norm_sq(sums: np.ndarray, space: SpaceSpec, p: int, q: int) -> float:
    """||Sym g||^2 of a (p, q) array g from its orbit sums S, nothing gathered back: the sum
    over orbit pairs O of w_O |S_O|^2 / |O|, w_O the weight product of O's ``_orbit_reps``
    member, multiplied left to right over its digits as ``_weight_product`` does, so no n^k
    product is formed; read in slabs of rows so that no temporary is as large as S."""
    wx, wy = ((1.0 if space._unit else reduce(np.multiply, space.weights[digits].T,
                                              np.ones(len(digits)))) / size
              for digits, _, size in (_codes(space.n, k) for k in (p, q)))
    return float(sum(w @ ((s.real ** 2 + s.imag ** 2) @ wy) for s, w in
                     zip(_row_slabs(sums, sums.shape[1]), _row_slabs(wx, sums.shape[1]))))


def _sym_norm_sq(raw: Kernel) -> float:
    """||symmetrize(raw)||^2 by ``_orbit_norm_sq``; ``norm_sq`` of symmetric input."""
    return norm_sq(raw) if raw.symmetric else _orbit_norm_sq(
        _kernel_orbit_sums(raw)[0], raw.space, raw.p, raw.q)


def reverse_conjugate(f: Kernel) -> Kernel:
    """Kernel of the conjugated chaos variable: h(t; s) = conj f(s; t), blocks swapped."""
    p, q = f.p, f.q
    axes = tuple(range(p, p + q)) + tuple(range(p))
    return Kernel._wrap(f.space, q, p, np.conj(np.transpose(f.coeffs, axes)),
                        symmetric=f.symmetric)


@lru_cache(maxsize=256)
def _contract_plan(n: int, a: int, b: int, c: int, d: int, i: int, j: int):
    """f (x)_{i,j} g as (free X, free Y; contracted) matrices, X the output block with fewer axes
    (holomorphic on a tie): both axis orders, n^ sizes of [f X, f Y, g X, g Y], flip (X is
    antiholomorphic), the groups' holomorphic-first order and the output shape.  SpaceError,
    which is never cached, on a bad pairing or an output above ``ENTRY_CAP``."""
    if not (0 <= i <= min(a, d)):
        raise SpaceError(f"i = {i} out of range [0, min({a}, {d})]")
    if not (0 <= j <= min(b, c)):
        raise SpaceError(f"j = {j} out of range [0, min({b}, {c})]")
    _check_entries(n ** (a + b + c + d - 2 * (i + j)), "a contraction output")
    fh, fa, gh, ga = a - i, b - j, c - j, d - i
    flip = fh + gh > fa + ga
    fx, fy = (range(a, a + fa), range(fh)) if flip else (range(fh), range(a, a + fa))
    gx, gy = (range(c, c + ga), range(gh)) if flip else (range(gh), range(c, c + ga))
    return ((*fx, *fy, *range(fh, a), *range(a + fa, a + b)),  # last i holo, last j anti
            (*range(c + ga, c + d), *range(gh, c), *gx, *gy),  # last i anti, last j holo
            tuple(n ** len(r) for r in (fx, fy, gx, gy)), flip,
            (1, 3, 0, 2) if flip else (0, 2, 1, 3), (n,) * (fh + fa + gh + ga))


def contract(f: Kernel, g: Kernel, i: int, j: int) -> Kernel:
    """(i, j)-contraction: pair the last i holomorphic slots of f with the last i
    antiholomorphic slots of g, and the last j antiholomorphic slots of f with the
    last j holomorphic slots of g, with one weight factor per contracted pair.

    Returns a kernel with blocks (f.p + g.p - i - j, f.q + g.q - i - j); ``i = j = 0``
    is the plain tensor product.  Raises SpaceError, before any array is formed,
    when the output would have more than ``ENTRY_CAP`` entries.  Computed as one
    ``np.matmul`` of the matrices of ``_contract_plan``, f weighted once on its
    contracted slots, made holomorphic-first.
    """
    if not f.space.same_as(g.space):
        raise SpaceError("kernels live on different spaces")
    f_axes, g_axes, sizes, _, order, shape = _contract_plan(f.space.n, f.p, f.q, g.p, g.q, i, j)
    fw = _apply_weights(f.coeffs, f.space, f_axes[len(f_axes) - i - j:])
    out = np.matmul(fw.transpose(f_axes).reshape(sizes[0] * sizes[1], -1),
                    g.coeffs.transpose(g_axes).reshape(-1, sizes[2] * sizes[3]))
    out = np.ascontiguousarray(out.reshape(sizes).transpose(order))
    return Kernel._wrap(f.space, f.p + g.p - i - j, f.q + g.q - i - j, out.reshape(shape))


@lru_cache(maxsize=32)
def _pair_table(n: int, k1: int, k2: int) -> tuple:
    """The ``_id_table`` of (k1 + k2)-axis orbits over the pairs of a k1-axis and a k2-axis
    orbit, the first varying slowest: each pair goes to the orbit of its multiset union.
    Cached like ``_orbit_table``, by ``_cached_below`` on the pairs."""
    d1, d2 = _codes(n, k1)[0], _codes(n, k2)[0]
    pairs = np.empty((len(d1), len(d2), k1 + k2), dtype=d1.dtype)
    pairs[..., :k1], pairs[..., k1:] = d1[:, None], d2[None]
    return _id_table(pairs.reshape(len(d1) * len(d2), k1 + k2), n)


@lru_cache(maxsize=256)
def _orbit_plan(n: int, a: int, b: int, c: int, d: int, i: int, j: int):
    """``_contract_plan`` over the orbits of each group of free or contracted axes of symmetric
    f and g: flip, the orbit counts [f X, f Y, g X, g Y], the builders of the X and Y blocks'
    ``_pair_table``, and for f as [f X, f Y | C_i, C_j] and g as [C_i, C_j | g X, g Y] the
    shape and axis order of a view by groups, then the flat index of one member of each orbit
    of each group, and its multiplicity: |A| of free orbits A, times |C| of contracted orbits
    C on f's side, which carries the contracted sum once.  The last two are None where no
    group has two axes; else they take 16 bytes a factor entry."""
    flip, (fh, fa, gh, ga) = _contract_plan(n, a, b, c, d, i, j)[3], (a - i, b - j, c - j, d - i)
    fg, gg = ((fa, fh, i, j), (i, j, ga, gh)) if flip else ((fh, fa, i, j), (i, j, gh, ga))
    counts = tuple(len(_codes(n, k)[1]) for k in (*fg[:2], *gg[2:]))

    def side(groups, shape, order, free):  # ``free``: the first group counted
        if max(groups) < 2:
            return shape, order, None, None
        reps = [_codes(n, k) for k in groups]
        idx = np.arange(math.prod(shape)).reshape(shape).transpose(order)
        idx = idx[np.ix_(*(r[1] for r in reps))]
        return shape, order, idx.ravel(), reduce(np.multiply.outer, [
            r[2] if x >= free else np.ones(len(r[2])) for x, r in enumerate(reps)]).ravel()

    tables = [None if k1 + k2 < 2 else partial(_cached_below, _pair_table, m, n, k1, k2)
              for k1, k2, m in ((fg[0], gg[2], counts[0] * counts[2]),
                                (fg[1], gg[3], counts[1] * counts[3]))]
    return (flip, counts, tables,
            side(fg, (n ** fh, n ** i, n ** fa, n ** j), (2, 0, 1, 3) if flip else (0, 2, 1, 3), 0),
            side(gg, (n ** gh, n ** j, n ** ga, n ** i), (3, 1, 2, 0) if flip else (3, 1, 0, 2), 2))


def _contract_orbit_sums(f: Kernel, g: Kernel, i: int, j: int, coef) -> np.ndarray:
    """The ``_orbit_sums`` (holomorphic block first) of coef * contract(f, g, i, j) for symmetric f
    and g, as route "moments" takes them from a ChaosVariable (raw kernels reach orbit sums by
    ``_kernel_orbit_sums``), in orbit coordinates: ``_orbit_plan`` reads each factor at one member
    per orbit of its groups of axes, f weighted once on its contracted slots, and the [f X, g X |
    f Y, g Y] product, in slabs of f's leading X rows, reduces through each output block's
    ``_pair_table``; coef scales g's factor, so the sums are never copied."""
    if not f.space.same_as(g.space):
        raise SpaceError("kernels live on different spaces")
    flip, (nfx, nfy, ngx, ngy), tables, *sides = _orbit_plan(f.space.n, f.p, f.q, g.p, g.q, i, j)
    f_axes = _contract_plan(f.space.n, f.p, f.q, g.p, g.q, i, j)[0]
    fv = _apply_weights(f.coeffs, f.space, f_axes[len(f_axes) - i - j:]).reshape(sides[0][0])
    gv = g.coeffs.reshape(sides[1][0])
    ft, gt = (v.transpose(order) if idx is None else v.reshape(-1).take(idx) * mul
              for v, (_, order, idx, mul) in zip((fv, gv), sides))
    ft, gt = ft.reshape(nfx * nfy, -1), gt.reshape(-1, ngx * ngy)
    gt = gt if coef == 1 else gt * coef
    slabs = (np.matmul(rows.reshape(-1, len(gt)), gt).reshape(-1, nfy, ngx, ngy)
             .transpose(0, 2, 1, 3).reshape(-1, nfy * ngy)
             for rows in _row_slabs(ft.reshape(nfx, -1), nfy * ngx * ngy))
    sums = _orbit_sums(slabs, nfx * ngx, *(t and t() for t in tables))
    return sums.T if flip else sums


def sym_contract(f: Kernel, g: Kernel, i: int, j: int) -> Kernel:
    """Contraction followed by per-block symmetrization."""
    return symmetrize(contract(f, g, i, j))


# -- JSON persistence ---------------------------------------------------------


def kernel_to_json(f: Kernel) -> dict:
    """Plain-dict form: {"n", "p", "q", "weights", "grid", "re", "im"} with
    re/im row-major of length n^(p+q).  Floats round-trip bit-exactly."""
    flat = f.coeffs.reshape(-1)
    return {
        "n": f.space.n,
        "p": f.p,
        "q": f.q,
        "weights": f.space.weights.tolist(),
        "grid": None if f.space.grid is None else f.space.grid.tolist(),
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def _json_int(doc: dict, key: str) -> int:
    """The integer ``doc[key]``; a float, string or bool is bad input, not truncated."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SpaceError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def kernel_from_json(doc: dict) -> Kernel:
    try:
        n = _json_int(doc, "n")
        p = _json_int(doc, "p")
        q = _json_int(doc, "q")
        weights = np.array(doc["weights"], dtype=float)
        grid = None if doc.get("grid") is None else np.array(doc["grid"], dtype=float)
        re = np.array(doc["re"], dtype=float)
        im = np.array(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceError(f"malformed kernel document: {exc}") from exc
    if re.shape != im.shape:
        raise SpaceError("re and im must have equal length")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SpaceError("kernel coefficients must be finite")
    space = SpaceSpec(n=n, weights=weights, grid=grid)
    return Kernel(space, p, q, re + 1j * im)


def save_kernel(f: Kernel, path) -> None:
    with open(path, "w") as fh:   # one dumps call runs the C encoder, json.dump the Python one
        fh.write(json.dumps(kernel_to_json(f)))


def load_kernel(path) -> Kernel:
    with open(path) as fh:
        return kernel_from_json(json.load(fh))
