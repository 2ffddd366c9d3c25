"""Normal-approximation diagnostics for complex chaos variables and vectors.

Contains the contraction-norm tables whose decay certifies a central limit
theorem, the univariate fourth-moment Berry-Esseen bound (general bivariate
covariance and the circularly-symmetric special case), the lower-bound
candidate quantities, the block-order partial order driving the multivariate
bound, and the multivariate bound itself with its indicator-structured
cross-term table.

Wasserstein distance is understood on R^2 with Euclidean cost, applied to the
real/imaginary pair of a complex variable.  Unspecified absolute constants in
the lower bound and in the cross-term estimate are *not* invented: the raw
quantities they multiply are reported as-is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb, factorial, sqrt

import numpy as np

from .chaos import (
    ChaosVariable,
    ChaosVector,
    _second_moments,
    cov_abs_sq,
    fourth_gap,
    pairing_expectation,
    product_expectation,
    third_moments_closed,
)
from .space import Kernel, SpaceError, contract, norm, norm_sq, reverse_conjugate, symmetrize

__all__ = [
    "NonCircularError",
    "SingularCovarianceError",
    "fmt_norms",
    "BoundInputs",
    "binomial_sum",
    "be_upper",
    "be_upper_circular",
    "be_lower_terms",
    "partial_order",
    "gap_sandwich_constants",
    "CovarianceSummary",
    "CrossTerm",
    "BoundReport",
    "be_upper_multivariate",
    "CircularityReport",
    "circularity_check",
    "CltReport",
    "clt_conditions",
]

#: Default circularity tolerance, as a fraction of the variance scale.  Exact
#: kernels give pseudo-moments that vanish to roundoff; quadrature kernels may
#: need a looser value.
CIRCULAR_TOL = 1e-8


class NonCircularError(ValueError):
    """Raised when a circular-case evaluator receives a non-circular input."""


class SingularCovarianceError(ValueError):
    """Raised when a bound needs an invertible covariance and does not get one."""


# -- contraction tables ---------------------------------------------------------


def fmt_norms(f: Kernel) -> dict[tuple[int, int], float]:
    """Table (i, j) -> ||f (x)_{i,j} h|| over 0 < i + j <= p + q - 1, with h the
    reverse complex conjugate of f.

    All entries tending to zero along a sequence is the contraction condition
    certifying asymptotic normality; the table is empty for p + q = 1.
    """
    f = symmetrize(f)
    h = reverse_conjugate(f)
    p, q = f.p, f.q
    table: dict[tuple[int, int], float] = {}
    for i in range(p + 1):
        for j in range(q + 1):
            if 0 < i + j < p + q:
                table[(i, j)] = norm(contract(f, h, i, j))
    return table


def contraction_sum_sq(f: Kernel) -> float:
    """sum of ||f (x)_{i,j} h||^2 over the fmt_norms range."""
    return sum(v * v for v in fmt_norms(f).values())


# -- univariate bounds ------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Second-moment inputs of the univariate bound.

    ``lambda1 >= lambda2`` are the eigenvalues (sigma_sq +- sqrt(a^2+b^2)) / 2 of
    the 2x2 real covariance of (Re F, Im F); the upper bound needs lambda2 > 0.
    """

    sigma_sq: float
    a: float
    b: float
    l: int
    lambda1: float
    lambda2: float

    @classmethod
    def from_moments(cls, sigma_sq: float, pseudo: complex, l: int) -> "BoundInputs":
        a, b = pseudo.real, pseudo.imag
        r = sqrt(a * a + b * b)
        return cls(sigma_sq=sigma_sq, a=a, b=b, l=l,
                   lambda1=0.5 * (sigma_sq + r), lambda2=0.5 * (sigma_sq - r))

    @classmethod
    def from_kernel(cls, f: Kernel) -> "BoundInputs":
        f = symmetrize(f)
        sigma_sq, pseudo = _second_moments(f)
        return cls.from_moments(sigma_sq, pseudo, f.degree)


def binomial_sum(l: int) -> int:
    """sum_{r=1}^{l-1} C(2r, r), computed in integer arithmetic."""
    return sum(comb(2 * r, r) for r in range(1, l))


def be_upper(f: Kernel, inputs: BoundInputs | None = None, gap: float | None = None) -> float:
    """Fourth-moment Berry-Esseen upper bound on d_W(F, N) for F = I_{p,q}(f) and
    N the bivariate normal with matching covariance:

        4 sqrt(2) sqrt(sum_{r<l} C(2r,r)) (sqrt(lambda1) / lambda2) sqrt(gap).
    """
    f = symmetrize(f)
    if inputs is None:
        inputs = BoundInputs.from_kernel(f)
    if inputs.lambda2 <= 0.0:
        raise SingularCovarianceError(
            f"covariance is singular (lambda2 = {inputs.lambda2:.3e}); upper bound undefined"
        )
    if gap is None:
        gap = fourth_gap(f, "v1")
    return (4.0 * sqrt(2.0) * sqrt(binomial_sum(inputs.l))
            * sqrt(inputs.lambda1) / inputs.lambda2 * sqrt(max(gap, 0.0)))


def be_upper_circular(f: Kernel, circular_tol: float = CIRCULAR_TOL) -> float:
    """Circular-case simplification of the upper bound:

        (8 / sigma) sqrt(sum_{r<l} C(2r,r)) sqrt(E|F|^4 - 2 (E|F|^2)^2).

    Requires |E F^2| below ``circular_tol`` times the variance.
    """
    f = symmetrize(f)
    inputs = BoundInputs.from_kernel(f)
    pseudo_mag = sqrt(inputs.a ** 2 + inputs.b ** 2)
    if not pseudo_mag <= circular_tol * inputs.sigma_sq:  # NaN fails
        raise NonCircularError(
            f"|E F^2| = {pseudo_mag:.3e} exceeds tolerance "
            f"{circular_tol:.1e} * sigma^2 = {circular_tol * inputs.sigma_sq:.3e}"
        )
    quantity = fourth_gap(f, "v1") + pseudo_mag ** 2
    return _circular_bound(inputs.sigma_sq, quantity, inputs.l)


def _circular_bound(sigma_sq: float, quantity: float, l: int) -> float:
    """(8 / sigma) sqrt(sum_{r<l} C(2r,r)) sqrt(quantity), with ``quantity`` the
    gap plus |E F^2|^2 of a chaos variable of order l and variance sigma_sq."""
    return 8.0 / sqrt(sigma_sq) * sqrt(binomial_sum(l)) * sqrt(max(quantity, 0.0))


def be_lower_terms(f: Kernel) -> tuple[float, float, float]:
    """The three lower-bound candidates (each known only up to an unspecified
    constant): |E F^3|, |E F^2 conj(F)|, and the contraction-norm sum
    sum_{0<i+j<l} ||f (x)_{i,j} h||^2.  The caller applies max."""
    f = symmetrize(f)
    third, third_mixed = third_moments_closed(f)
    return abs(third), abs(third_mixed), contraction_sum_sq(f)


def gap_sandwich_constants(p: int, q: int) -> tuple[float, float]:
    """Explicit constants (c1, c2) with

        c1 * sum ||f (x)_{i,j} h||^2  <=  fourth-moment gap  <=  c2 * sum ...

    c1 is the smallest coefficient of the direct contraction group.  c2 follows
    from bounding the phi_r groups through Cauchy-Schwarz and the norm
    inequality 2 ||f (x)_{i,j} f||^2 <= ||f (x)_{p-i,q-j} h||^2 + ||f (x)_{p-j,q-i} h||^2,
    then taking the largest total coefficient per contraction index.
    """
    l = p + q
    pq_fac_sq = (factorial(p) * factorial(q)) ** 2
    direct = {}
    for i in range(p + 1):
        for j in range(q + 1):
            if 0 < i + j < l:
                direct[(i, j)] = comb(p, i) ** 2 * comb(q, j) ** 2 * pq_fac_sq
    if not direct:
        return 0.0, 0.0
    c1 = min(direct.values())

    total = dict(direct)
    m = min(p, q)

    def add(idx, value):
        total[idx] = total.get(idx, 0.0) + value

    for r in range(1, 2 * m + 1):
        pairs = [(i, r - i) for i in range(max(0, r - m), min(r, m) + 1)]
        if r == 2 * m and p == q:
            continue  # boundary term absent when p = q
        coefs = {
            (i, j): comb(p, i) * comb(q, i) * comb(q, j) * comb(p, j)
            * factorial(i) * factorial(j)
            for (i, j) in pairs
        }
        n_terms = len(pairs)
        group_fac = factorial(2 * p - r) * factorial(2 * q - r)
        for (i, j), c in coefs.items():
            # ||phi_r||^2 <= n_terms * sum c_ij^2 ||f (x)_{i,j} f||^2, then the
            # arithmetic-geometric norm inequality maps each term to h-contractions
            weight = group_fac * n_terms * c ** 2 * 0.5
            add((p - i, q - j), weight)
            add((p - j, q - i), weight)
    c2 = max(total.values())
    return float(c1), float(c2)


# -- partial order of block orders -------------------------------------------------


def partial_order(p1: int, q1: int, p2: int, q2: int) -> str:
    """Compare block orders: "succeeds" iff (p1,q1) != (p2,q2), p1 >= p2, q1 >= q2;
    "precedes" for the reverse; otherwise "equal" or "incomparable"."""
    if (p1, q1) == (p2, q2):
        return "equal"
    if p1 >= p2 and q1 >= q2:
        return "succeeds"
    if p2 >= p1 and q2 >= q1:
        return "precedes"
    return "incomparable"


def _succeeds(p1: int, q1: int, p2: int, q2: int) -> bool:
    return partial_order(p1, q1, p2, q2) == "succeeds"


# -- multivariate ------------------------------------------------------------------


def _pair_matrix(F: ChaosVector, pair) -> np.ndarray:
    """d x d complex matrix with entries pair(F^j, F^r)."""
    return np.array([[pair(Fj, Fr) for Fr in F.components] for Fj in F.components],
                    dtype=complex)


@dataclass(frozen=True)
class CovarianceSummary:
    """Hermitian covariance E[F conj(F)'], pseudo-covariance E[F F'], and the
    extreme eigenvalues of the former."""

    sigma: np.ndarray
    pseudo: np.ndarray
    lambda_max: float
    lambda_min: float

    @classmethod
    def from_vector(cls, F: ChaosVector) -> "CovarianceSummary":
        sigma = _pair_matrix(F, pairing_expectation)
        pseudo = _pair_matrix(F, product_expectation)
        eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
        return cls(sigma=sigma, pseudo=pseudo,
                   lambda_max=float(eig[-1]), lambda_min=float(eig[0]))


@dataclass(frozen=True)
class CrossTerm:
    """One bracketed cross term of the multivariate estimate, reported raw
    (no unspecified constant applied)."""

    r: int
    j: int
    label: str
    active: bool
    value: float


@dataclass(frozen=True)
class BoundReport:
    """Multivariate fourth-moment bound and its exact/contraction breakdowns."""

    d: int
    bound: float
    quartic_sum: float
    lambda_max: float
    lambda_min: float
    pseudo_max: float
    own_contraction_sums: list[float]
    cross_terms: list[CrossTerm]

    def to_json(self) -> dict:
        return asdict(self)


def _single_order_kernels(F: ChaosVector) -> list[Kernel]:
    kernels = []
    for idx, comp in enumerate(F.components):
        if comp.constant != 0.0 or len(comp.terms) != 1:
            raise SpaceError(
                f"component {idx} is not a single-order centered chaos variable"
            )
        kernels.append(next(iter(comp.terms.values())))
    return kernels


def be_upper_multivariate(F: ChaosVector, circular_tol: float = CIRCULAR_TOL) -> BoundReport:
    """Fourth-moment Berry-Esseen upper bound for a circular chaos vector:

        d_W(F, Z) <= (2 sqrt(d lambda_max) / lambda_min) sqrt(E||F||^4 - E||N||^4),

    with E||F||^4 - E||N||^4 = sum_{j,r} { Cov(|F^j|^2, |F^r|^2) - |E F^j conj(F^r)|^2 }
    evaluated exactly through the contraction identities.  The report also
    carries the indicator-structured cross-term table (each bracketed term
    separately, without the unspecified constant)."""
    kernels = _single_order_kernels(F)
    d = F.d
    summary = CovarianceSummary.from_vector(F)

    pseudo_max = float(np.max(np.abs(summary.pseudo)))
    scale = float(np.max(np.abs(np.diagonal(summary.sigma))))
    if not pseudo_max <= circular_tol * scale:  # NaN fails
        raise NonCircularError(
            f"max |E F^j F^r| = {pseudo_max:.3e} exceeds {circular_tol:.1e} * {scale:.3e}"
        )
    if summary.lambda_min <= 1e-12 * max(summary.lambda_max, 1.0):
        raise SingularCovarianceError(f"Sigma is singular (lambda_min = {summary.lambda_min:.3e})")

    quartic = 0.0
    for j in range(d):
        for r in range(d):
            quartic += cov_abs_sq(kernels[j], kernels[r]) - abs(summary.sigma[j, r]) ** 2
    bound = 2.0 * sqrt(d * summary.lambda_max) / summary.lambda_min * sqrt(max(quartic, 0.0))

    own = [contraction_sum_sq(k) for k in kernels]
    cross: list[CrossTerm] = []
    hs = [reverse_conjugate(k) for k in kernels]
    nsq = [norm_sq(k) for k in kernels]
    for r in range(d):
        pr, qr = kernels[r].p, kernels[r].q
        for j in range(d):
            if j == r:
                continue
            pj, qj = kernels[j].p, kernels[j].q
            specs = [
                ("fj_h_vs_swapped_r", _succeeds(pj, qj, qr, pr), kernels[j], hs[j],
                 pj - qr, qj - pr, nsq[r]),
                ("fj_h_vs_r", _succeeds(pj, qj, pr, qr), kernels[j], hs[j],
                 pj - pr, qj - qr, nsq[r]),
                ("fr_h_vs_swapped_j", _succeeds(pr, qr, qj, pj), kernels[r], hs[r],
                 pr - qj, qr - pj, nsq[j]),
                ("fr_h_vs_j", _succeeds(pr, qr, pj, qj), kernels[r], hs[r],
                 pr - pj, qr - qj, nsq[j]),
            ]
            for label, active, fk, hk, ci, cj, other_nsq in specs:
                value = 0.0
                if active:
                    value = other_nsq * norm(contract(fk, hk, ci, cj))
                cross.append(CrossTerm(r=r, j=j, label=label, active=active, value=value))

    return BoundReport(
        d=d,
        bound=bound,
        quartic_sum=quartic,
        lambda_max=summary.lambda_max,
        lambda_min=summary.lambda_min,
        pseudo_max=pseudo_max,
        own_contraction_sums=own,
        cross_terms=cross,
    )


@dataclass(frozen=True)
class CircularityReport:
    """Entrywise pseudo-covariance check.  A vanishing pseudo-covariance is
    necessary for circular symmetry but not sufficient; the check is reported
    as such."""

    pseudo: np.ndarray
    max_abs: float
    tol: float
    passed: bool
    note: str = "vanishing pseudo-covariance is necessary, not sufficient"

    def to_json(self) -> dict:
        return {
            "pseudo_re": self.pseudo.real.tolist(),
            "pseudo_im": self.pseudo.imag.tolist(),
            "max_abs": self.max_abs,
            "tol": self.tol,
            "passed": self.passed,
            "note": self.note,
        }


def circularity_check(F: ChaosVector, tol: float = CIRCULAR_TOL) -> CircularityReport:
    pseudo = _pair_matrix(F, product_expectation)
    max_abs = float(np.max(np.abs(pseudo)))
    return CircularityReport(pseudo=pseudo, max_abs=max_abs, tol=tol, passed=max_abs <= tol)


# -- chaotic CLT condition tables ----------------------------------------------------


@dataclass(frozen=True)
class CltReport:
    """Finite-truncation numeric table of the four chaotic CLT conditions:
    per-order variances, their total, all cross-contraction norms, and the
    tail mass above the truncation order.  Limits along a sequence are the
    caller's to inspect."""

    variances: dict[tuple[int, int], float]
    total_variance: float
    contraction_tables: dict[tuple[int, int], dict[tuple[int, int], float]]
    truncation_order: int
    tail_mass: float

    def to_json(self) -> dict:
        return {
            "variances": {f"{p},{q}": v for (p, q), v in sorted(self.variances.items())},
            "total_variance": self.total_variance,
            "contractions": {
                f"{p},{q}": {f"{i},{j}": v for (i, j), v in sorted(tab.items())}
                for (p, q), tab in sorted(self.contraction_tables.items())
            },
            "truncation_order": self.truncation_order,
            "tail_mass": self.tail_mass,
        }


def clt_conditions(F: ChaosVariable, M: int) -> CltReport:
    if M < 1:
        raise ValueError(f"truncation order must be >= 1 (chaos orders start at 1), got {M}")
    variances = {}
    tables = {}
    tail = 0.0
    for (p, q), kern in F.terms.items():
        var = factorial(p) * factorial(q) * norm_sq(kern)
        variances[(p, q)] = var
        if p + q >= 2:
            tables[(p, q)] = fmt_norms(kern)
        if p + q > M:
            tail += var
    return CltReport(
        variances=variances,
        total_variance=sum(variances.values()),
        contraction_tables=tables,
        truncation_order=M,
        tail_mass=tail,
    )
