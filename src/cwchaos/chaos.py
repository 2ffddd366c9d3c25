"""Chaos variables and vectors: product formula, expectations, moment identities.

A :class:`ChaosVariable` holds a finite two-index chaos decomposition -- a map
from block orders ``(p, q)`` with ``p + q >= 1`` to symmetric kernels, plus a
constant term equal to the mean.  Products of chaos variables expand through
the contraction sum

    I_{a,b}(f) I_{c,d}(g) = sum_{i,j} C(a,i) C(d,i) C(b,j) C(c,j) i! j!
                            I_{a+c-i-j, b+d-i-j}(f (x)_{i,j} g),

and second moments come from the isometry
``E[I_{a,b}(f) conj(I_{c,d}(g))] = 1{a=c} 1{b=d} a! b! <f, g>``.

The fourth-moment gap ``E|F|^4 - 2 (E|F|^2)^2 - |E F^2|^2`` is available through
three routes that must agree to float accuracy: the product-formula moment
engine, coded independently, and the contraction expansion of
:func:`cov_abs_sq` evaluated at (f, f) and at (f, h), h the reverse conjugate
of f.  The expansion's coefficients are written once, in :func:`_gap_terms`,
which also gives :mod:`cwchaos.bounds` its contraction table and sandwich
constants.
Symmetrization is linear, so the expansions sum raw contractions, which
``multiply`` symmetrizes, or their orbit sums, whose norms the gap routes read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial, isnan, nan

import numpy as np

from .space import (
    InputError,
    Kernel,
    SpaceError,
    SpaceSpec,
    _contract_orbit_sums,
    _json_int,
    _orbit_norm_sq,
    _sym_norm_sq,
    contract,
    inner_product,
    kernel_from_json,
    kernel_to_json,
    norm_sq,
    reverse_conjugate,
    symmetrize,
)

__all__ = [
    "ChaosVariable",
    "ChaosVector",
    "MomentReport",
    "conjugate",
    "multiply",
    "expectation",
    "pairing_expectation",
    "product_expectation",
    "power",
    "moment",
    "third_moments_closed",
    "fourth_gap",
    "cov_abs_sq",
    "moment_report",
    "chaos_to_json",
    "chaos_from_json",
]

class ChaosVariable:
    """Finite chaos decomposition: constant + sum of I_{p,q}(f_{p,q})."""

    __slots__ = ("space", "terms", "constant")

    def __init__(self, space: SpaceSpec, terms: dict | None = None, constant: complex = 0.0):
        terms = dict(terms or {})
        for (p, q), kern in terms.items():
            if p + q < 1:
                raise SpaceError("terms must have p + q >= 1; use the constant slot")
            if (kern.p, kern.q) != (p, q):
                raise SpaceError(f"kernel blocks {(kern.p, kern.q)} do not match key {(p, q)}")
            if not kern.space.same_as(space):
                raise SpaceError("all kernels must share the variable's space")
            if not kern.symmetric:
                raise SpaceError("stored kernels must be symmetric; symmetrize first")
        self.space = space
        self.terms = terms
        self.constant = complex(constant)

    @classmethod
    def from_kernel(cls, f: Kernel, constant: complex = 0.0) -> "ChaosVariable":
        f = symmetrize(f)
        if f.degree == 0:
            return cls(f.space, {}, constant + complex(f.coeffs))
        return cls(f.space, {(f.p, f.q): f}, constant)

    @classmethod
    def constant_variable(cls, space: SpaceSpec, value: complex) -> "ChaosVariable":
        return cls(space, {}, value)

    def __add__(self, other: "ChaosVariable") -> "ChaosVariable":
        if not self.space.same_as(other.space):
            raise SpaceError("chaos variables live on different spaces")
        terms = dict(self.terms)
        for key, kern in other.terms.items():
            terms[key] = terms[key] + kern if key in terms else kern
        return ChaosVariable(self.space, terms, self.constant + other.constant)

    def __mul__(self, scalar: complex) -> "ChaosVariable":
        terms = {key: kern * scalar for key, kern in self.terms.items()}
        return ChaosVariable(self.space, terms, self.constant * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover
        orders = sorted(self.terms)
        return f"ChaosVariable(orders={orders}, constant={self.constant:.6g})"


class ChaosVector:
    """Ordered tuple of chaos variables over one shared space."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = list(components)
        if not components:
            raise SpaceError("a chaos vector needs at least one component")
        space = components[0].space
        for comp in components[1:]:
            if not comp.space.same_as(space):
                raise SpaceError("all components must share one space")
        self.components = components

    @property
    def d(self) -> int:
        return len(self.components)


# -- product formula and expectations -----------------------------------------


def conjugate(F: ChaosVariable) -> ChaosVariable:
    """Complex conjugate: each (p, q)-term maps to the (q, p)-term with the
    reverse complex conjugate kernel; involution."""
    terms = {}
    for (p, q), kern in F.terms.items():
        terms[(q, p)] = reverse_conjugate(kern)
    return ChaosVariable(F.space, terms, np.conj(F.constant))


def _term_items(F: ChaosVariable):
    items = [((p, q), kern) for (p, q), kern in F.terms.items()]
    if F.constant != 0.0:
        items.append(((0, 0), Kernel.scalar(F.space, F.constant)))
    return items


def _scaled(kern: Kernel, coef: int) -> Kernel:
    """kern * coef, without the full-size copy when coef is 1 (x * 1 == x)."""
    return kern if coef == 1 else kern * coef


def _product_sums(F: ChaosVariable, G: ChaosVariable, step) -> dict:
    """F G's contraction expansion before symmetrization: {(p, q): the sum over its terms
    of that output order of ``step(f, g, i, j, coef)``, coef times a raw contraction or
    its orbit sums}, the constant under (0, 0).  SpaceError above ``space.ENTRY_CAP``."""
    if not F.space.same_as(G.space):
        raise SpaceError("chaos variables live on different spaces")
    acc = {}
    for (a, b), f in _term_items(F):
        for (c, d), g in _term_items(G):
            for i in range(min(a, d) + 1):
                for j in range(min(b, c) + 1):
                    coef = (comb(a, i) * comb(d, i) * comb(b, j) * comb(c, j)
                            * factorial(i) * factorial(j))
                    term = step(f, g, i, j, coef)
                    key = (a + c - i - j, b + d - i - j)
                    acc[key] = acc[key] + term if key in acc else term
    return acc


def multiply(F: ChaosVariable, G: ChaosVariable) -> ChaosVariable:
    """Pointwise product as a chaos variable, via the contraction expansion.

    Exact: every output term is kept, zeros included.  Each contraction raises
    SpaceError before forming an array of more than ``space.ENTRY_CAP`` entries.
    """
    acc = _product_sums(F, G, lambda f, g, i, j, coef: _scaled(contract(f, g, i, j), coef))
    const = complex(acc.pop((0, 0)).coeffs) if (0, 0) in acc else 0.0
    return ChaosVariable(F.space, {key: symmetrize(k) for key, k in acc.items()}, const)


def expectation(F: ChaosVariable) -> complex:
    """E[F]: the constant term of the decomposition."""
    return F.constant


def pairing_expectation(F: ChaosVariable, G: ChaosVariable) -> complex:
    """E[F conj(G)] by the isometry: matching (p, q)-terms pair with weight p! q!."""
    if not F.space.same_as(G.space):
        raise SpaceError("chaos variables live on different spaces")
    total = F.constant * np.conj(G.constant)
    for (p, q), f in F.terms.items():
        g = G.terms.get((p, q))
        if g is not None:
            total += factorial(p) * factorial(q) * inner_product(f, g)
    return complex(total)


def product_expectation(F: ChaosVariable, G: ChaosVariable) -> complex:
    """E[F G], evaluated as E[F conj(conj(G))] through the isometry."""
    return pairing_expectation(F, conjugate(G))


def power(F: ChaosVariable, k: int) -> ChaosVariable:
    if k < 0:
        raise InputError("nonnegative powers only")
    out = ChaosVariable.constant_variable(F.space, 1.0)
    for _ in range(k):
        out = multiply(out, F)
    return out


def moment(F: ChaosVariable, k: int, l: int) -> complex:
    """E[F^k conj(F)^l], exact up to float roundoff.

    The two powers are expanded separately and paired through the isometry, so
    the intermediate block order is max(k, l) times the degree of F.
    """
    if k < 0 or l < 0:
        raise InputError("moment orders must be nonnegative")
    return pairing_expectation(power(F, k), power(F, l))


# -- closed-form moment identities ---------------------------------------------


def third_moments_closed(f: Kernel) -> tuple[complex, complex]:
    """(E[F^3], E[F^2 conj(F)]) for F = I_{p,q}(f), via the closed contraction sums.

    Both vanish identically unless p = q.  Formed once per kernel.
    """
    return symmetrize(f)._cached("third", _third_moments)


def _third_moments(f: Kernel) -> tuple[complex, complex]:
    p, q = f.p, f.q
    if p != q:
        return 0.0 + 0.0j, 0.0 + 0.0j
    h = reverse_conjugate(f)
    s3 = 0.0 + 0.0j
    s21 = 0.0 + 0.0j
    for i in range(p + 1):
        coef = factorial(i) * factorial(p - i) * factorial(p) ** 2 * comb(p, i) ** 4
        g = contract(f, f, i, p - i)  # <Sym g, h> = <g, h> for symmetric h, so g stays raw
        s3 += coef * inner_product(g, h)
        s21 += coef * inner_product(g, f)
    return complex(s3), complex(s21)


def fourth_gap(f: Kernel, route: str = "v1") -> float:
    """Fourth-moment gap E|F|^4 - 2 (E|F|^2)^2 - |E F^2|^2 of F = I_{p,q}(f).

    Routes:

    * ``"moments"`` -- product-formula moment engine: E|F|^4 = |E F^2|^2, which the
      gap cancels, plus the norms of F^2's symmetrized orders, read from the orbit
      sums that each contraction of F's symmetric terms forms in orbit coordinates
      and streams into (``space._contract_orbit_sums``), so f (x) f is never held,
      only slabs of its orbit-pair products; its first pairing, (0, 0), has n^(2(p+q))
      output entries, which ``space._check_entries`` refuses before any product;
    * ``"v1"`` -- contraction sum over f (x)_{i,j} h plus the phi_r groups, the
      f_1 = f_2 case of :func:`cov_abs_sq`'s groups;
    * ``"v2"`` -- the same expansion at f_2 = h, the reverse conjugate of f,
      which is the gap too since |conj F|^2 = |F|^2: its direct group
      contracts f with f and its phi_r groups contract f with h.

    All routes agree to float accuracy; v1 and v2 are manifestly nonnegative
    term sums for a pure chaos variable of fixed order.
    """
    f = symmetrize(f)
    p, q = f.p, f.q
    l = p + q
    if l < 1:
        raise SpaceError("fourth_gap needs p + q >= 1")
    if route == "moments":
        F = ChaosVariable.from_kernel(f)
        s2 = factorial(p) * factorial(q) * norm_sq(f)
        return sum(factorial(k) * factorial(kp) * _orbit_norm_sq(s, f.space, k, kp) for (k, kp), s
                   in _product_sums(F, F, _contract_orbit_sums).items() if k + kp) - 2.0 * s2 * s2
    if route == "v1":
        return _cov_groups(f, f)
    if route == "v2":
        return _cov_groups(f, reverse_conjugate(f))
    raise InputError(f"unknown route {route!r}")


@lru_cache(maxsize=128)
def _gap_terms(p1: int, q1: int, p2: int, q2: int):
    """Coefficient schedule (direct, groups) of the contraction expansion

        Cov(|F_1|^2, |F_2|^2) - |E F_1 conj(F_2)|^2 - |E F_1 F_2|^2
          = sum_{(k,k')} direct[k, k'] ||f_1 (x)_{k,k'} h_2||^2
            + sum_r w_r ||sum_{(i,j)} c_ij f_1 (x~)_{i,j} f_2||^2

    for F_k = I_{p_k,q_k}(f_k) and h_2 the reverse conjugate of f_2, with
    groups[r] = (w_r, {(i, j): c_ij}) the phi_r groups.  Integer coefficients,
    keyed in summation order; the contraction calculus of Nourdin and Peccati,
    Normal Approximations with Malliavin Calculus (2012).  Cached: read only.
    """
    fac = factorial(p1) * factorial(q1) * factorial(p2) * factorial(q2)
    l = min(p1, p2) + min(q1, q2)
    lp = min(p1, q2) + min(q1, p2)
    keys = [(k, kp) for k in range(min(p1, p2) + 1) for kp in range(min(q1, q2) + 1)
            if 0 < k + kp < l]
    if (p1, q1) != (p2, q2) and l >= 1:
        keys.append((min(p1, p2), min(q1, q2)))
    direct = {(k, kp): comb(p1, k) * comb(q1, kp) * comb(q2, kp) * comb(p2, k) * fac
              for (k, kp) in keys}
    rs = list(range(1, lp)) + ([lp] if (p1, q1) != (q2, p2) and lp >= 1 else [])
    groups = {}
    for r in rs:
        coefs = {(i, r - i): (comb(p1, i) * comb(q1, r - i) * comb(q2, i) * comb(p2, r - i)
                              * factorial(i) * factorial(r - i))
                 for i in range(min(r, p1, q2) + 1) if r - i <= min(q1, p2)}
        groups[r] = (factorial(p1 + p2 - r) * factorial(q1 + q2 - r), coefs)
    return direct, groups


def _direct_norms(f1: Kernel, f2: Kernel) -> dict[tuple[int, int], float]:
    """{(k, k'): ||f_1 (x)_{k,k'} h_2||^2} over the direct group of
    :func:`_gap_terms`, h_2 the reverse conjugate of f_2."""
    h2 = reverse_conjugate(f2)
    direct, _ = _gap_terms(f1.p, f1.q, f2.p, f2.q)
    return {key: norm_sq(contract(f1, h2, *key)) for key in direct}


def _direct_table(f: Kernel) -> dict[tuple[int, int], float]:
    """The table {(i, j): ||f (x)_{i,j} h||^2} of a symmetric f, h its reverse
    conjugate, formed once per kernel; read only, by route "v1" and ``fmt_norms``."""
    return f._cached("direct", lambda f: _direct_norms(f, f))


def _cov_groups(f1: Kernel, f2: Kernel) -> float:
    """Cov(|F_1|^2, |F_2|^2) - |E F_1 conj(F_2)|^2 - |E F_1 F_2|^2 for symmetric
    kernels on one space: the schedule of :func:`_gap_terms`, evaluated.

    At f_1 = f_2 = f this is the fourth-moment gap of I_{p,q}(f), summed term
    by term, so it stays accurate when the gap is small against (E|F|^2)^2.
    When f_1 is f_2 (route "v1") it is formed once per kernel, from the kernel's
    ``_direct_table``; routes "v2" and "moments" share nothing with it.
    """
    if f1 is f2:
        return f1._cached("v1", lambda f: _cov_sum(f, f, _direct_table(f)))
    return _cov_sum(f1, f2, _direct_norms(f1, f2))


def _cov_sum(f1: Kernel, f2: Kernel, table: dict[tuple[int, int], float]) -> float:
    direct, groups = _gap_terms(f1.p, f1.q, f2.p, f2.q)
    total = 0.0
    for key, coef in direct.items():
        total += coef * table[key]
    for w, coefs in groups.values():
        phi = reduce(Kernel.__add__, (_scaled(contract(f1, f2, *ij), c) for ij, c in coefs.items()))
        total += w * _sym_norm_sq(phi)
    return total


def cov_abs_sq(f1: Kernel, f2: Kernel) -> float:
    """Cov(|F_1|^2, |F_2|^2) for F_k = I_{p_k,q_k}(f_k): the contraction groups
    of ``_cov_groups`` plus the cross terms |E F_1 conj(F_2)|^2 and |E F_1 F_2|^2."""
    f1 = symmetrize(f1)
    f2 = symmetrize(f2)
    if not f1.space.same_as(f2.space):
        raise SpaceError("kernels live on different spaces")
    key1 = (f1.p, f1.q)
    fac = factorial(f1.p) * factorial(f1.q)
    cross = 0.0
    if key1 == (f2.p, f2.q):
        cross += abs(fac * inner_product(f1, f2)) ** 2
    if key1 == (f2.q, f2.p):
        cross += abs(fac * inner_product(f1, reverse_conjugate(f2))) ** 2
    return _cov_groups(f1, f2) + cross


# -- consolidated report --------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """Exact second/third/fourth moment summary of a single-order chaos variable."""

    var_abs: float
    pseudo: complex
    third: complex
    third_mixed: complex
    gap: float
    gap_v1: float
    gap_v2: float

    def route_spread(self) -> float:
        """Largest disagreement among the three gap routes, relative to the
        natural fourth-order scale max(|gap|, var_abs^2); NaN if any input is NaN."""
        gaps = (self.gap, self.gap_v1, self.gap_v2)
        if any(isnan(x) for x in gaps + (self.var_abs,)):
            return nan
        scale = max(max(abs(g) for g in gaps), self.var_abs ** 2)
        if scale == 0.0:
            return 0.0
        return (max(gaps) - min(gaps)) / scale

    def to_json(self) -> dict:
        """The report's numbers, raw: the CLI writes a non-finite one as null."""
        return {
            "var_abs": self.var_abs,
            "pseudo_re": self.pseudo.real,
            "pseudo_im": self.pseudo.imag,
            "third_re": self.third.real,
            "third_im": self.third.imag,
            "third_mixed_re": self.third_mixed.real,
            "third_mixed_im": self.third_mixed.imag,
            "gap_moments": self.gap,
            "gap_v1": self.gap_v1,
            "gap_v2": self.gap_v2,
            "route_spread": self.route_spread(),
        }


def _second_moments(f: Kernel) -> tuple[float, complex]:
    """(E|F|^2, E F^2) of F = I_{p,q}(f) for a symmetric kernel f, by the
    isometry; E F^2 vanishes unless p = q."""
    fac = factorial(f.p) * factorial(f.q)
    pseudo = 0.0 + 0.0j
    if f.p == f.q:
        pseudo = fac * inner_product(f, reverse_conjugate(f))
    return fac * norm_sq(f), complex(pseudo)


def moment_report(f: Kernel) -> MomentReport:
    """Second moments, closed-form third moments, and the gap by all three routes."""
    f = symmetrize(f)
    var_abs, pseudo = _second_moments(f)
    third, third_mixed = third_moments_closed(f)
    return MomentReport(
        var_abs=var_abs,
        pseudo=pseudo,
        third=third,
        third_mixed=third_mixed,
        gap=fourth_gap(f, "moments"),
        gap_v1=fourth_gap(f, "v1"),
        gap_v2=fourth_gap(f, "v2"),
    )


# -- persistence -----------------------------------------------------------------


def chaos_to_json(F: ChaosVariable) -> dict:
    return {
        "constant_re": F.constant.real,
        "constant_im": F.constant.imag,
        "terms": [
            {"p": p, "q": q, "kernel": kernel_to_json(kern)}
            for (p, q), kern in sorted(F.terms.items())
        ],
    }


def chaos_from_json(doc: dict) -> ChaosVariable:
    try:
        constant = complex(float(doc["constant_re"]), float(doc["constant_im"]))
        raw_terms = list(doc["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpaceError(f"malformed chaos document: {exc}") from exc
    terms = {}
    space = None
    for entry in raw_terms:
        try:
            kern_doc, key = entry["kernel"], (_json_int(entry, "p"), _json_int(entry, "q"))
        except (KeyError, TypeError) as exc:
            raise SpaceError(f"chaos term needs 'p', 'q' and 'kernel': {exc!r}") from exc
        kern = symmetrize(kernel_from_json(kern_doc))
        if key != (kern.p, kern.q):
            raise SpaceError(f"term {key} does not match its kernel blocks")
        terms[key] = kern
        space = kern.space
    if space is None:
        raise SpaceError("chaos document needs at least one term")
    return ChaosVariable(space, terms, constant)
