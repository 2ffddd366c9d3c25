"""Normal-approximation diagnostics for complex chaos variables and vectors.

Contains the contraction-norm tables whose decay certifies a central limit
theorem, the univariate fourth-moment Berry-Esseen bound (``BoundInputs.upper``;
the circular case is its value at equal covariance eigenvalues), the
lower-bound candidate quantities, the block-order partial order driving the
multivariate bound, and the multivariate bound itself with its
indicator-structured cross-term table.  Each hypothesis, circularity and a
nonsingular covariance, has one gate, relative to the variance scale and
failing on NaN.

Wasserstein distance is understood on R^2 with Euclidean cost, applied to the
real/imaginary pair of a complex variable.  Unspecified absolute constants in
the lower bound and in the cross-term estimate are *not* invented: the raw
quantities they multiply are reported as-is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import permutations
from math import comb, factorial, sqrt

import numpy as np

from .chaos import (
    ChaosVariable,
    ChaosVector,
    _cov_groups,
    _gap_terms,
    _second_moments,
    conjugate,
    fourth_gap,
    pairing_expectation,
    third_moments_closed,
)
from .space import (InputError, Kernel, SpaceError, contract, norm, norm_sq,
                    reverse_conjugate, symmetrize)

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
    "CrossTerm",
    "BoundReport",
    "be_upper_multivariate",
    "CircularityReport",
    "circularity_check",
    "CltReport",
    "clt_conditions",
]

#: Default circularity tolerance: the largest |E F^j F^r| may be at most this
#: fraction of the largest component variance E|F^j|^2.  Exact kernels give
#: pseudo-moments that vanish to roundoff; quadrature kernels may need more.
CIRCULAR_TOL = 1e-8


class NonCircularError(InputError):
    """Raised when a circular-case evaluator receives a non-circular input."""


class SingularCovarianceError(InputError):
    """Raised when a bound needs an invertible covariance and does not get one."""


def _is_circular(pseudo_max: float, var_max: float, tol: float) -> bool:
    """The circularity gate: largest |pseudo-moment| <= tol x largest variance."""
    return pseudo_max <= tol * var_max  # NaN fails


def _check_nonsingular(lambda_min: float, lambda_max: float) -> None:
    """The nonsingular gate: smallest covariance eigenvalue > 1e-12 x largest."""
    if not lambda_min > 1e-12 * lambda_max:  # NaN fails
        raise SingularCovarianceError(f"singular covariance: {lambda_min=:.3e}, {lambda_max=:.3e}")


# -- contraction tables ---------------------------------------------------------


def fmt_norms(f: Kernel) -> dict[tuple[int, int], float]:
    """Table (i, j) -> ||f (x)_{i,j} h|| over the direct group of the gap expansion
    (``chaos._gap_terms``: 0 < i + j < p + q), with h the reverse conjugate of f.

    All entries tending to zero along a sequence is the contraction condition
    certifying asymptotic normality; the table is empty for p + q = 1.
    """
    f = symmetrize(f)
    h = reverse_conjugate(f)
    direct, _ = _gap_terms(f.p, f.q, f.p, f.q)
    return {(i, j): norm(contract(f, h, i, j)) for (i, j) in direct}


def contraction_sum_sq(f: Kernel) -> float:
    """sum of ||f (x)_{i,j} h||^2 over the fmt_norms range."""
    return sum(v * v for v in fmt_norms(f).values())


# -- univariate bounds ------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Second-moment inputs of the univariate bound.

    ``lambda1 >= lambda2`` are the eigenvalues (sigma_sq +- sqrt(a^2+b^2)) / 2 of
    the 2x2 real covariance of (Re F, Im F), of a chaos variable F of order l.
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

    def upper(self, gap: float) -> float:
        """Fourth-moment Berry-Esseen upper bound on d_W(F, N), N the normal with
        F's covariance, given F's fourth-moment gap (needs lambda2 > 1e-12 lambda1):

            4 sqrt(2) sqrt(sum_{r<l} C(2r,r)) (sqrt(lambda1) / lambda2) sqrt(gap).
        """
        _check_nonsingular(self.lambda2, self.lambda1)
        return (4.0 * sqrt(2.0) * sqrt(binomial_sum(self.l))
                * sqrt(self.lambda1) / self.lambda2 * sqrt(max(gap, 0.0)))


def binomial_sum(l: int) -> int:
    """sum_{r=1}^{l-1} C(2r, r), computed in integer arithmetic."""
    return sum(comb(2 * r, r) for r in range(1, l))


def be_upper(f: Kernel) -> float:
    """``BoundInputs.upper`` for F = I_{p,q}(f), with the gap of route "v1"."""
    f = symmetrize(f)
    return BoundInputs.from_kernel(f).upper(fourth_gap(f, "v1"))


def be_upper_circular(f: Kernel, circular_tol: float = CIRCULAR_TOL) -> float:
    """The upper bound at lambda1 = lambda2 = sigma^2 / 2, where it reads
    (8 / sigma) sqrt(sum_{r<l} C(2r,r)) sqrt(E|F|^4 - 2 (E|F|^2)^2).
    Requires |E F^2| at most ``circular_tol`` times sigma^2."""
    f = symmetrize(f)
    inputs = BoundInputs.from_kernel(f)
    pseudo_mag = sqrt(inputs.a ** 2 + inputs.b ** 2)
    if not _is_circular(pseudo_mag, inputs.sigma_sq, circular_tol):
        raise NonCircularError(f"|E F^2| = {pseudo_mag:.3e} exceeds tolerance {circular_tol:.1e}"
                               f" * sigma^2 = {circular_tol * inputs.sigma_sq:.3e}")
    # E|F|^4 - 2 (E|F|^2)^2 is the gap plus |E F^2|^2
    return (BoundInputs.from_moments(inputs.sigma_sq, 0j, inputs.l)
            .upper(fourth_gap(f, "v1") + pseudo_mag ** 2))


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

    read off the gap expansion ``chaos._gap_terms(p, q, p, q)``.  c1 is the
    smallest coefficient of its direct group.  c2 follows from bounding the
    phi_r groups through Cauchy-Schwarz and the norm inequality
    2 ||f (x)_{i,j} f||^2 <= ||f (x)_{p-i,q-j} h||^2 + ||f (x)_{p-j,q-i} h||^2,
    then taking the largest total coefficient per contraction index.
    """
    direct, groups = _gap_terms(p, q, p, q)
    if not direct:
        return 0.0, 0.0
    total = dict(direct)
    for group_fac, coefs in groups.values():
        n_terms = len(coefs)
        for (i, j), c in coefs.items():
            # ||phi_r||^2 <= n_terms * sum c_ij^2 ||f (x)_{i,j} f||^2, then the
            # arithmetic-geometric norm inequality maps each term to h-contractions
            weight = group_fac * n_terms * c ** 2 * 0.5
            for idx in ((p - i, q - j), (p - j, q - i)):
                total[idx] = total.get(idx, 0.0) + weight
    return float(min(direct.values())), float(max(total.values()))


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


# -- multivariate ------------------------------------------------------------------


def _pair_matrix(F: ChaosVector, G: list[ChaosVariable]) -> np.ndarray:
    """d x d complex matrix with entries E[F^j conj(G[r])]."""
    return np.array([[pairing_expectation(Fj, Gr) for Gr in G] for Fj in F.components],
                    dtype=complex)


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

    with E||F||^4 - E||N||^4 = sum_{j,r} { Cov(|F^j|^2, |F^r|^2) - |E F^j conj(F^r)|^2 }.
    Each bracket is the gap expansion's groups (``chaos._cov_groups``, symmetric
    in j and r, so summed over j <= r with weight 2 off the diagonal) plus
    |E F^j F^r|^2, read from the circularity check's pseudo-covariance table;
    no term is added and subtracted again.  The report also
    carries the indicator-structured cross-term table, each bracketed term
    without the unspecified constant.  For the ordered pair (F^a, F^b) a term
    is active iff (p_a, q_a) strictly succeeds F^b's order (p_b, q_b), or its
    swap (q_b, p_b) for the ``*_swapped_*`` labels; its value is ||f_b||^2 times
    the entry (p_a - p_b, q_a - q_b) of F^a's ``fmt_norms`` table.  Each bracket
    is listed twice, at (r, j) as "fr_h_vs_*j" and at (j, r) as "fj_h_vs_*r"."""
    kernels = _single_order_kernels(F)
    d = F.d
    sigma = _pair_matrix(F, F.components)   # E[F conj(F)']
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    lambda_max, lambda_min = float(eig[-1]), float(eig[0])

    circ = circularity_check(F, circular_tol)
    if not circ.passed:
        raise NonCircularError(f"max |E F^j F^r| = {circ.max_abs:.3e} exceeds"
                               f" {circular_tol:.1e} x the largest component variance")
    _check_nonsingular(lambda_min, lambda_max)

    quartic = float(np.sum(np.abs(circ.pseudo) ** 2))
    for j in range(d):
        for r in range(j, d):
            quartic += (1 if r == j else 2) * _cov_groups(kernels[j], kernels[r])
    bound = 2.0 * sqrt(d * lambda_max) / lambda_min * sqrt(max(quartic, 0.0))

    tables = [fmt_norms(k) for k in kernels]
    own = [sum(v * v for v in table.values()) for table in tables]
    orders = [(k.p, k.q) for k in kernels]
    nsq = [norm_sq(k) for k in kernels]
    cross: list[CrossTerm] = []
    for r, j in permutations(range(d), 2):
        for a, b, label in ((j, r, "fj_h_vs_swapped_r"), (j, r, "fj_h_vs_r"),
                            (r, j, "fr_h_vs_swapped_j"), (r, j, "fr_h_vs_j")):
            (pa, qa), (pb, qb) = orders[a], orders[b]
            if "swapped" in label:
                pb, qb = qb, pb
            active = partial_order(pa, qa, pb, qb) == "succeeds"
            # the strict order keeps 0 < (pa - pb) + (qa - qb) < pa + qa, F^a's table range
            value = nsq[b] * tables[a][(pa - pb, qa - qb)] if active else 0.0
            cross.append(CrossTerm(r=r, j=j, label=label, active=active, value=value))

    return BoundReport(
        d=d,
        bound=bound,
        quartic_sum=quartic,
        lambda_max=lambda_max,
        lambda_min=lambda_min,
        pseudo_max=circ.max_abs,
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
    """Pseudo-covariance table, passed when its largest entry is at most ``tol``
    times the largest component variance."""
    pseudo = _pair_matrix(F, [conjugate(c) for c in F.components])  # E[F^j F^r]
    max_abs = float(np.max(np.abs(pseudo)))
    scale = max(pairing_expectation(c, c).real for c in F.components)
    return CircularityReport(pseudo=pseudo, max_abs=max_abs, tol=tol,
                             passed=_is_circular(max_abs, scale, tol))


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
        raise InputError(f"truncation order must be >= 1 (chaos orders start at 1), got {M}")
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
