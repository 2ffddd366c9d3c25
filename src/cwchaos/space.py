"""Weighted finite-dimensional complex Hilbert spaces and two-block tensor kernels.

A kernel is a dense complex array with ``p`` holomorphic slots followed by
``q`` antiholomorphic slots, each running over an ``n``-point basis with
positive diagonal Gram weights.  The inner product carries one weight factor
per tensor slot, so a kernel over a quadrature grid behaves like a function
discretized on that grid.

Conventions:

* Symmetrization acts per block (the first ``p`` axes and the last ``q`` axes
  independently).
* ``contract(f, g, i, j)`` pairs the *last* ``i`` holomorphic slots of ``f``
  with the *last* ``i`` antiholomorphic slots of ``g``, and the *last* ``j``
  antiholomorphic slots of ``f`` with the *last* ``j`` holomorphic slots of
  ``g``.  No factor is conjugated.  For symmetric kernels the slot choice is
  immaterial; for raw kernels this fixed convention is part of the API.

Kernels are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ENTRY_CAP",
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


#: Largest number of complex entries n^(degree) a contraction may form (2^24
#: of them take 256 MB); the "moments" gap route checks its products against it.
ENTRY_CAP = 1 << 24


class SpaceError(ValueError):
    """Raised on invalid spaces or kernel/space mismatches."""


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """An n-dimensional complex Hilbert space with diagonal Gram weights.

    ``weights`` are all ones for an abstract orthonormal basis, or quadrature
    weights for a discretized L2 space.  ``grid`` optionally carries the node
    coordinates (required by the Ornstein-Uhlenbeck application).
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


class Kernel:
    """Dense complex tensor in H^{(x)p} (x) H^{(x)q} over a shared space.

    ``coeffs`` has shape ``(n,) * (p + q)``, or is given flat in row-major
    order, with the first ``p`` axes holomorphic and the last ``q`` axes
    antiholomorphic; ``p = q = 0`` encodes a scalar.  ``symmetric``
    flags invariance under permutations within each block.
    """

    __slots__ = ("space", "p", "q", "coeffs", "symmetric")

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

    # -- constructors ------------------------------------------------------

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
        return Kernel(self.space, self.p, self.q, self.coeffs + other.coeffs,
                      symmetric=self.symmetric and other.symmetric)

    def __sub__(self, other: "Kernel") -> "Kernel":
        self._check_peer(other)
        return Kernel(self.space, self.p, self.q, self.coeffs - other.coeffs,
                      symmetric=self.symmetric and other.symmetric)

    def __mul__(self, scalar: complex) -> "Kernel":
        return Kernel(self.space, self.p, self.q, self.coeffs * scalar,
                      symmetric=self.symmetric)

    __rmul__ = __mul__

    def __neg__(self) -> "Kernel":
        return self * (-1.0)


# -- weighted inner product --------------------------------------------------


def _apply_weights(arr: np.ndarray, weights: np.ndarray, axes) -> np.ndarray:
    """Multiply one weight factor along each of the given axes."""
    # x * 1.0 == x exactly, so unit weights return arr; a list count costs far
    # less than a numpy reduction over the few weights of a small kernel
    if weights.tolist().count(1.0) == len(weights):
        return arr
    out = arr
    for ax in axes:
        shape = [1] * out.ndim
        shape[ax] = len(weights)
        out = out * weights.reshape(shape)
    return out


def inner_product(f: Kernel, g: Kernel) -> complex:
    """Weighted inner product <f, g> = sum f * conj(g) * (one weight per slot).

    Conjugate-symmetric in its arguments; <f, f> is real and nonnegative.
    """
    f._check_peer(g)
    fw = _apply_weights(f.coeffs, f.space.weights, range(f.degree))
    return complex(np.vdot(g.coeffs, fw))


def norm_sq(f: Kernel) -> float:
    value = inner_product(f, f).real
    return max(value, 0.0)


def norm(f: Kernel) -> float:
    return math.sqrt(norm_sq(f))


# -- symmetrization, conjugation, contraction ---------------------------------


def _symmetrize_axes(arr: np.ndarray, axes: list[int]) -> np.ndarray:
    """Average over all permutations of the given axes.

    Incremental construction: once the first m-1 axes are symmetric, averaging
    the m placements of the next axis extends the symmetry, so the cost is
    quadratic in the block size rather than factorial.
    """
    out = arr
    for m in range(1, len(axes)):
        acc = out.copy()
        for i in range(m):
            acc += np.swapaxes(out, axes[i], axes[m])
        out = acc / (m + 1)
    return out


def symmetrize(f: Kernel) -> Kernel:
    """Average over permutations within the holomorphic and antiholomorphic blocks."""
    if f.symmetric:
        return f
    p, q = f.p, f.q
    out = _symmetrize_axes(f.coeffs, list(range(p)))
    out = _symmetrize_axes(out, list(range(p, p + q)))
    return Kernel(f.space, p, q, out, symmetric=True)


def reverse_conjugate(f: Kernel) -> Kernel:
    """Kernel of the conjugated chaos variable: h(t; s) = conj f(s; t), blocks swapped."""
    p, q = f.p, f.q
    axes = tuple(range(p, p + q)) + tuple(range(p))
    return Kernel(f.space, q, p, np.conj(np.transpose(f.coeffs, axes)),
                  symmetric=f.symmetric)


def contract(f: Kernel, g: Kernel, i: int, j: int) -> Kernel:
    """(i, j)-contraction: pair the last i holomorphic slots of f with the last i
    antiholomorphic slots of g, and the last j antiholomorphic slots of f with the
    last j holomorphic slots of g, with one weight factor per contracted pair.

    Returns a kernel with blocks (f.p + g.p - i - j, f.q + g.q - i - j); ``i = j = 0``
    is the plain tensor product.  Raises SpaceError, before any array is formed,
    when the output would have more than ``ENTRY_CAP`` entries.
    """
    if not f.space.same_as(g.space):
        raise SpaceError("kernels live on different spaces")
    a, b, c, d = f.p, f.q, g.p, g.q
    if not (0 <= i <= min(a, d)):
        raise SpaceError(f"i = {i} out of range [0, min({a}, {d})]")
    if not (0 <= j <= min(b, c)):
        raise SpaceError(f"j = {j} out of range [0, min({b}, {c})]")

    size = f.space.n ** (a + b + c + d - 2 * (i + j))
    if size > ENTRY_CAP:
        raise SpaceError(f"contraction output needs {size} entries, above the cap {ENTRY_CAP}")
    f_axes = list(range(a - i, a)) + list(range(a + b - j, a + b))
    g_axes = list(range(c + d - i, c + d)) + list(range(c - j, c))
    fw = _apply_weights(f.coeffs, f.space.weights, f_axes)
    out = np.tensordot(fw, g.coeffs, axes=(f_axes, g_axes))

    # tensordot layout: [f holo free, f anti free, g holo free, g anti free];
    # target layout groups the two holomorphic blocks first.
    fh, fa, gh, ga = a - i, b - j, c - j, d - i
    order = (
        list(range(0, fh))
        + list(range(fh + fa, fh + fa + gh))
        + list(range(fh, fh + fa))
        + list(range(fh + fa + gh, fh + fa + gh + ga))
    )
    out = np.transpose(out, order) if order else out
    return Kernel(f.space, fh + gh, fa + ga, out)


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
        "weights": [float(w) for w in f.space.weights],
        "grid": None if f.space.grid is None else [float(t) for t in f.space.grid],
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
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
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"malformed kernel document: {exc}") from exc
    if re.shape != im.shape:
        raise SpaceError("re and im must have equal length")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SpaceError("kernel coefficients must be finite")
    space = SpaceSpec(n=n, weights=weights, grid=grid)
    return Kernel(space, p, q, re + 1j * im)


def save_kernel(f: Kernel, path) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_to_json(f), fh)


def load_kernel(path) -> Kernel:
    with open(path) as fh:
        return kernel_from_json(json.load(fh))
