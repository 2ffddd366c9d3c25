"""Basis-free oracles: exact scaling and unitary invariance of every reported number.

The moments, the three gap routes, the Berry-Esseen upper bound and the contraction-norm
table are functions of the law of F = I_{p,q}(f), so they need no reference
implementation to be checked against:

* scaling f by 2^k scales F by 2^k, and each quantity by the power of 2^k its degree
  says.  A power of two changes no mantissa, so the scaled numbers are bitwise the
  scaled originals;
* a unitary change of orthonormal coordinates Z -> U^T Z leaves the law of Z, and so of
  F, unchanged.  On a weighted space the orthonormal coefficients are f times sqrt(w) per
  slot, so the kernel's holomorphic slots take V = W^(-1/2) U W^(1/2) and its
  antiholomorphic slots conj(V).  Every quantity then agrees to roundoff.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
import pytest

from cwchaos.bounds import be_upper, fmt_norms
from cwchaos.chaos import moment_report
from cwchaos.space import Kernel

from conftest import random_kernel, random_space

ORDERS = [(p, total - p) for total in range(1, 5) for p in range(total, -1, -1)]


def _quantities(f: Kernel) -> dict:
    """Every reported number of F = I_{p,q}(f), keyed by name."""
    rep = moment_report(f)
    out = {"var": rep.var_abs, "pseudo": rep.pseudo, "third": rep.third,
           "third_mixed": rep.third_mixed, "gap": rep.gap, "gap_v1": rep.gap_v1,
           "gap_v2": rep.gap_v2, "be_upper": be_upper(f)}
    out.update({f"fmt_{i}{j}": v for (i, j), v in fmt_norms(f).items()})
    return out


# the power of the scale 2^k that each quantity carries
DEGREE = {"var": 2, "pseudo": 2, "third": 3, "third_mixed": 3, "gap": 4, "gap_v1": 4,
          "gap_v2": 4, "be_upper": 1}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q", ORDERS)
def test_scaling_by_a_power_of_two_is_exact(p, q, weighted):
    rng = np.random.default_rng(1000 * p + 10 * q + weighted)
    f = random_kernel(rng, random_space(rng, 3, weighted), p, q)
    base = _quantities(f)
    for k in (-7, 3, 60):
        scaled = _quantities(f * 2.0 ** k)      # a symmetric kernel stays flagged symmetric
        assert scaled.keys() == base.keys()
        for name, value in base.items():
            factor = 2.0 ** (k * DEGREE.get(name, 2))      # the fmt_norms entries are degree 2
            assert scaled[name] == value * factor, (name, k)


def _haar_unitary(rng, n: int) -> np.ndarray:
    """A Haar-distributed n x n unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _rotate(f: Kernel, V: np.ndarray) -> Kernel:
    """f with V applied to each holomorphic slot and conj(V) to each antiholomorphic one."""
    arr = f.coeffs
    for axis in range(f.p + f.q):
        M = V if axis < f.p else np.conj(V)
        arr = np.moveaxis(np.tensordot(M, arr, axes=(1, axis)), 0, axis)
    return Kernel(f.space, f.p, f.q, arr)       # symmetric up to roundoff: symmetrized again


# (tolerance, scale) per quantity: the change must be at most tolerance x scale.  Each
# quantity is its own scale, except that the pseudo-variance is relative to the variance,
# the third moments to var^(3/2), and the gaps to var^2 as well, since a first-chaos gap
# is roundoff.  In brackets, the worst relative change over these 28 cases when this was
# written; each tolerance is about 20 times it.
def _tolerances(base: dict) -> dict:
    var = base["var"]
    out = {"var": (4e-14, var),                         # [1.9e-15]
           "pseudo": (1e-14, var),                      # [2.7e-16]
           "third": (3e-14, var ** 1.5),                # [7.3e-16]
           "third_mixed": (3e-14, var ** 1.5),          # [1.3e-15]
           "gap": (2e-12, var ** 2),                    # [7.1e-14]
           "gap_v2": (2e-12, var ** 2),                 # [5.9e-14]
           "gap_v1": (1e-13, base["gap_v1"]),           # [3.5e-15, and 6.7e-14 of var^2]
           "be_upper": (2e-14, base["be_upper"])}       # [7.4e-16]
    out.update({name: (5e-14, value) for name, value in base.items()    # [1.9e-15]
                if name.startswith("fmt_")})
    return out


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p, q", ORDERS)
def test_unitary_change_of_coordinates_keeps_every_quantity(p, q, weighted):
    rng = np.random.default_rng(2000 + 100 * p + 10 * q + weighted)
    space = random_space(rng, 4, weighted)
    root = np.sqrt(space.weights)
    V = _haar_unitary(rng, 4) / root[:, None] * root[None, :]      # W^(-1/2) U W^(1/2)
    f = random_kernel(rng, space, p, q)
    base, moved = _quantities(f), _quantities(_rotate(f, V))
    assert moved.keys() == base.keys()
    for name, (tol, scale) in _tolerances(base).items():
        assert abs(moved[name] - base[name]) <= tol * scale, name
