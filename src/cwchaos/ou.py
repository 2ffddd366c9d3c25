"""Complex Ornstein-Uhlenbeck application: dZ = -gamma Z dt + d(zeta).

The least-squares bias statistic of the drift parameter has numerator
F_T = I_{1,1} of a strictly triangular exponential kernel on [0, T]^2; this
module discretizes that kernel and its Hermitian companion on midpoint
grids, evaluates the closed-form moments, sweeps the fourth-moment and
third-moment quantities across horizons to exhibit their decay rates, samples
the statistic exactly in distribution, and checks the pathwise decomposition
of the time-averaged squared modulus per path.

On the standard-Brownian branch (H = 1/2) the sweep uses O(m) prefix-sum
evaluations that exploit the exponential Toeplitz structure, so horizons with
tens of thousands of nodes stay cheap; a dense-kernel cross-check at small m
lives in the test suite.  The fractional branch (1/2 < H < 3/4) replaces the
diagonal Gram by the Toeplitz two-time Gram matrix G, integrating the
|u - v|^{2H-2} singularity exactly over the cells; ``fbm_inner`` applies G by
circulant embedding and FFT, without forming it.  Its sweep whitens the
kernel: with G = L L^T (Cholesky), A = L^T K L on the orthonormal space has
every inner product and contraction that K has under G, and each row field is
a Frobenius sum over A, A A and A^H A.  One walk, ``_triangle_rows``, applies K to
columns: to the draws in the sampler, chunk by chunk as they are drawn, and to L
in the whitening.  It goes down the rows in blocks (``_ar1_rows``): a closed form
with one ``cumsum`` on narrow inputs, one plain AR(1) step per row on wide ones.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace
from math import exp, factorial, inf, isfinite, log, nan, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import BoundInputs
from .sampling import GENERATOR_VERSION, SampleBatch, _block_rng, _complex_normal
from .space import InputError, Kernel, SpaceError, SpaceSpec, _check_entries

__all__ = [
    "OUParams",
    "GridSpec",
    "numerator_kernel",
    "occupation_kernel",
    "abs_sq_mean_closed",
    "normalization_factor",
    "RateRow",
    "triangular_quantities",
    "RateTable",
    "rate_sweep",
    "fbm_gram",
    "fbm_inner",
    "sample_numerator",
    "simulate_path",
    "DenominatorReport",
    "verify_denominator_identity",
]


@dataclass(frozen=True)
class OUParams:
    """Drift gamma = lam - i omega with lam > 0, horizon T, Hurst index H.

    H = 1/2 is the standard-Brownian branch; H in (1/2, 3/4) switches the
    underlying Hilbert space to the fractional one.
    """

    lam: float
    omega: float = 0.0
    T: float = 1.0
    H: float = 0.5

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not (isfinite(self.lam) and self.lam > 0):
            raise InputError("lam must be positive and finite")
        if not isfinite(self.omega):
            raise InputError("omega must be finite")
        if not (isfinite(self.T) and self.T > 0):
            raise InputError("T must be positive and finite")
        if not (0.5 <= self.H < 0.75):
            raise InputError("H must lie in [0.5, 0.75)")

    @property
    def gamma(self) -> complex:
        return self.lam - 1j * self.omega


@dataclass(frozen=True)
class GridSpec:
    """Midpoint quadrature on [0, T]: m equal cells, one node at each cell's
    centre weighted by the cell width T / m."""

    m: int

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise InputError(f"m must be an integer >= 2, got {self.m!r}")

    @classmethod
    def from_spacing(cls, T: float, dt: float) -> "GridSpec":
        """Midpoint grid on [0, T] with round(T / dt) nodes."""
        if not (isfinite(dt) and dt > 0 and isfinite(T / dt)):  # NaN fails
            raise InputError(f"grid spacing must be positive and finite, with T / dt finite: {dt}")
        m = int(round(T / dt))
        if m < 2:
            raise InputError(f"grid spacing {dt} leaves fewer than 2 nodes at T = {T}")
        return cls(m=m)

    def nodes_weights(self, T: float) -> tuple[np.ndarray, np.ndarray]:
        h = T / self.m
        t = (np.arange(self.m) + 0.5) * h
        w = np.full(self.m, h)
        return t, w

    def space(self, T: float) -> SpaceSpec:
        t, w = self.nodes_weights(T)
        return SpaceSpec(n=self.m, weights=w, grid=t)


# -- kernels -----------------------------------------------------------------------


def _subdiagonal_factor(lam, spacing):
    """Scale beta of the numerator kernel's first-subdiagonal entry (i, i-1).

    beta^2 = 1 + exp(2 lam (t_i - t_{i-1})) / 2 is the factor by which
    |K_{i,i-1}|^2 w^2 gains w^2 / (2T), the mass of the half diagonal cell
    below the diagonal at node i, on the grid's equal weights w.  Raises
    InputError, before any exp, where 4 lam dt > ln(largest float): past it the
    square of beta^2 that ``triangular_quantities`` forms overflows.
    """
    limit = log(np.finfo(float).max) / 4               # about 177.45
    lam_dt = float(np.max(lam * spacing))
    if not lam_dt <= limit:  # NaN fails
        raise InputError(f"grid too coarse for the subdiagonal band: lam dt = {lam_dt!r}"
                         f" exceeds ln(largest float) / 4 = {limit:.2f}")
    return np.sqrt(1.0 + 0.5 * np.exp(2.0 * lam * spacing))


def _lower_exp(params: OUParams, t: np.ndarray) -> np.ndarray:
    """exp(-conj(gamma)(t_i - t_j)) on the strict lower triangle t_j < t_i, zero elsewhere."""
    diff = t[:, None] - t[None, :]
    mask = diff > 0
    return np.where(mask, np.exp(-np.conj(params.gamma) * np.where(mask, diff, 0.0)), 0.0)


def numerator_kernel(params: OUParams, grid: GridSpec) -> Kernel:
    """Discretized kernel of the numerator statistic: (1/sqrt(T)) exp(-conj(gamma)(t-s))
    on the strict triangle s < t, zero on and above the diagonal.

    The strict triangle makes the pseudo-moment E[F_T^2] and the third moment
    E[F_T^3] vanish exactly on the grid, not just up to quadrature error.  By
    itself it drops the half of each diagonal cell that lies below the
    diagonal, mass w_i^2 / (2T) per node, and the variance quadrature would be
    first order with error dt/2.  On the standard-Brownian branch (H = 1/2)
    that mass is put on the first subdiagonal instead: entry (i, i-1) is scaled
    by beta (``_subdiagonal_factor``: beta = sqrt(1 + exp(2 lam dt)/2)), which
    keeps the kernel strictly lower triangular.  The midpoint variance
    quadrature is then second order, with leading error (lam/6 - 5/(12 T)) dt^2.
    The fractional Gram pairs a diagonal cell with all others, so the correction
    is not derived there and H > 1/2 keeps the plain strict triangle.
    """
    space = grid.space(params.T)
    t = space.grid
    vals = _lower_exp(params, t) / sqrt(params.T)
    if params.H == 0.5:
        i = np.arange(1, grid.m)
        vals[i, i - 1] *= _subdiagonal_factor(params.lam, np.diff(t))
    return Kernel(space, 1, 1, vals, symmetric=True)


def occupation_kernel(params: OUParams, grid: GridSpec) -> Kernel:
    """Hermitian kernel of the centered time-average of |Z|^2 over [0, T]:
    exponential decay on both triangles minus a rank-one boundary correction.
    Diagonal value 1 - exp(-2 lam (T - t))."""
    space = grid.space(params.T)
    low = _lower_exp(params, space.grid)
    edge = np.exp(-params.gamma * (params.T - space.grid))
    vals = np.eye(grid.m) + low + low.conj().T - np.outer(edge, edge.conj())
    return Kernel(space, 1, 1, vals, symmetric=True)


def _variance_factor(params: OUParams) -> float:
    """2 lam E|F_T|^2 = 1 + exp(-x)/x - 1/x with x = 2 lam T; below x = 1, where
    that form cancels, the series x/2 - x^2/6 + x^3/24 - ... (20 terms)."""
    x = 2 * params.lam * params.T
    if x >= 1.0:
        return 1.0 + exp(-x) / x - 1.0 / x
    total = 0.0
    for k in range(20, 0, -1):         # the first term dropped, x^21/22!, is below 1e-21
        total = x * (1.0 / factorial(k + 1) - total)
    return total


def abs_sq_mean_closed(params: OUParams) -> float:
    """Closed form of E|F_T|^2 = 1/(2 lam) + exp(-2 lam T)/(4 lam^2 T) - 1/(4 lam^2 T)."""
    return _variance_factor(params) / (2 * params.lam)


def normalization_factor(params: OUParams) -> float:
    """nu = (2 lam E|F_T|^2)^(-1/2), so that E|nu F_T|^2 = 1/(2 lam) under the closed
    form.  Raises only where that factor underflows to 0 (2 lam T below 1e-323)."""
    factor = _variance_factor(params)
    if factor <= 0.0:
        raise InputError(f"variance factor {factor:.3e} <= 0: horizon too short (T = {params.T!r})")
    return factor ** -0.5


# -- rate sweep ----------------------------------------------------------------------


@dataclass(frozen=True)
class RateRow:
    """One horizon of ``rate_sweep``: horizon ``T``, grid size ``m``, variance
    ``var``, fourth-moment gap ``gap``, ``e3_mixed`` = |E F^2 conj(F)|, ``e3`` =
    |E F^3|, the squared contraction norms ``fmt_10_sq`` and ``fmt_01_sq`` (the
    (1,0) and (0,1) entries of ``bounds.fmt_norms``) and ``be_upper``, the
    statistic's ``BoundInputs.upper``.

    At H = 1/2 (``triangular_quantities``) every field belongs to nu F_T, nu =
    ``normalization_factor``, so ``var`` is about 1/(2 lam).  At H > 1/2
    (``_whitened_row``) ``var`` is the raw Gram variance and the other fields
    belong to F_T / sqrt(var).  fmt_10_sq = fmt_01_sq on both branches, since
    ||K^H K|| = ||K K^H|| by trace cyclicity.
    """

    T: float
    m: int
    var: float
    gap: float
    e3_mixed: float
    e3: float
    fmt_10_sq: float
    fmt_01_sq: float
    be_upper: float


def triangular_quantities(params: OUParams, m: int) -> RateRow:
    """Sweep row of nu F_T on the m-point midpoint grid (H = 1/2), by prefix sums.

    Up to a unimodular diagonal similarity, which leaves every quantity here
    unchanged, the kernel is c z^(i-j) a(i-j) below the diagonal, with
    z = exp(-lam dt), a(1) = beta (the subdiagonal band of ``numerator_kernel``)
    and a(D) = 1 for D >= 2.  Every contraction factorizes through one-sided
    geometric sums, and each band factor pins one index offset to 1, so no
    m x m array is ever formed.  The strictly lower triangular kernel makes
    E F_T^2 and E F_T^3 exactly 0.
    """
    if params.H != 0.5:
        raise InputError("structured quantities are for the H = 1/2 branch")
    m = int(GridSpec(m).m)  # an integer m >= 2, or InputError
    lam, T = params.lam, params.T
    dt = T / m
    x = exp(-2.0 * lam * dt)
    beta = float(_subdiagonal_factor(lam, dt))
    delta = beta - 1.0
    # nu dt / sqrt(T) is finite where nu^4 or T^-2 overflows; a float ** would raise
    g = normalization_factor(params) * dt / sqrt(T)
    g2 = g * g

    d = np.arange(1, m, dtype=float)
    xd = x ** d
    # K K is Toeplitz with offset-D coefficient s2(D) z^D, a sum over the D - 1
    # intermediate nodes: the two next to an end take one band step (beta), so
    # s2 = D - 1 + 2 delta for D >= 3, and beta^2 for D = 2 (two band steps)
    s2 = d - 1.0 + 2.0 * delta
    s2[0] = 0.0
    if m > 2:
        s2[1] += delta**2
    var = g2 * (float(np.sum((m - d) * xd)) + (beta**2 - 1.0) * (m - 1) * x)
    kwk_sq = g2 * g2 * float(np.sum((m - d) * s2**2 * xd))
    e21 = 2.0 * g2 * g * float(np.sum((m - d) * s2 * xd))

    idx = np.arange(m, dtype=float)
    # prefix sums of x^D, where x (1 - x^k) / (1 - x) would cancel as lam dt -> 0
    L = np.concatenate(([0.0], np.cumsum(xd)))    # sum_{u < w} x^(w-u)
    R = L[::-1]                                   # sum_{u > v} x^(u-v)
    # K^H K is z^|t-s| Rb[max(t,s)] off the diagonal, where the band adds
    # delta x wherever a right neighbour exists, and its diagonal carries
    # beta delta x more; ||K K^H|| = ||K^H K||, so it gives both contraction norms
    has_right = idx <= m - 2
    Rb = R + delta * x * has_right
    Rd = Rb + beta * delta * x * has_right
    fmt_sq = g2 * g2 * float(np.sum(Rd**2 + 2.0 * L * Rb**2))
    # the gap is 2 ||K^H K||^2 + 4 ||K K||^2, as in ``_whitened_row``
    gap = 2.0 * fmt_sq + 4.0 * kwk_sq
    return RateRow(T=params.T, m=m, var=var, gap=gap, e3_mixed=abs(e21), e3=0.0,
                   fmt_10_sq=fmt_sq, fmt_01_sq=fmt_sq,
                   be_upper=BoundInputs.from_moments(var, 0j, 2).upper(gap))


@dataclass(frozen=True)
class RateTable:
    rows: list[RateRow]
    slope_gap: float
    slope_e3_mixed: float | None

    def to_csv(self) -> str:
        names = [f.name for f in fields(RateRow)]
        lines = [",".join(names)]
        lines += [",".join(repr(getattr(r, name)) for name in names) for r in self.rows]
        lines.append(f"# slope_gap={self.slope_gap!r}")
        if self.slope_e3_mixed is not None:
            lines.append(f"# slope_e3_mixed={self.slope_e3_mixed!r}")
        return "\n".join(lines) + "\n"


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; NaN unless every y is positive and finite."""
    if not all(0.0 < y < inf for y in ys):  # NaN fails
        return nan
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def rate_sweep(base: OUParams, T_list, dt: float) -> RateTable:
    """Sweep the normalized numerator quantities across increasing horizons at
    fixed grid spacing, with log-log regression slopes in the footer.

    H = 1/2 reproduces decay exponents -1 (gap) and -1/2 (mixed third moment);
    the fractional branch reports the gap of the variance-normalized statistic,
    whose upper-bound exponent is 2(4H - 3) for H in (5/8, 3/4).  Column
    ``be_upper`` is ``BoundInputs.upper`` of the row's statistic (pseudo-moment
    0 at H = 1/2).  A fractional grid with m^2 above ``space.ENTRY_CAP`` raises
    SpaceError, from ``space._check_entries``, before any row.
    """
    T_list = list(T_list)
    if len(T_list) < 2:
        raise InputError("a regression slope needs at least two horizons")
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])):
        raise InputError("T_list must be strictly increasing")
    grids = [GridSpec.from_spacing(T, dt) for T in T_list]
    m = max(grid.m for grid in grids)
    if base.H != 0.5:  # a fractional row forms m x m arrays: refuse before computing any row
        _check_entries(m * m, f"the fractional sweep at m = {m}")
    rows = []
    for T, grid in zip(T_list, grids):
        params = replace(base, T=T)
        if base.H == 0.5:
            rows.append(triangular_quantities(params, grid.m))
        else:
            rows.append(_whitened_row(params, grid))
    slope_gap = _loglog_slope([r.T for r in rows], [r.gap for r in rows])
    slope_mixed = None
    if all(r.e3_mixed > 0 for r in rows):
        slope_mixed = _loglog_slope([r.T for r in rows], [r.e3_mixed for r in rows])
    return RateTable(rows=rows, slope_gap=slope_gap, slope_e3_mixed=slope_mixed)


# -- fractional branch ----------------------------------------------------------------


def _fgn_generator(params: OUParams, m: int) -> np.ndarray:
    """Generator g(0..m-1) of the fractional Gram on the m midpoint cells of [0, T].

    On cells of width h, entry (a, b) of the Gram is g(|a - b|), with
    g(d) = alpha_H h^(2H) (|d+1|^(2H) + |d-1|^(2H) - 2 d^(2H)) / (2H (2H-1)) and
    alpha_H / (2H (2H-1)) = 1/2: m + 1 integer powers differenced twice.
    Consecutive first differences of k^(2H) lie within a factor 2, so the second
    difference is exact.  At H = 1/2 the generator is (h, 0, 0, ...).
    """
    powers = np.arange(m + 1, dtype=float) ** (2 * params.H)
    first = powers[1:] - powers[:-1]
    gen = np.empty(m)
    gen[0] = 2.0 * first[0]
    gen[1:] = first[1:] - first[:-1]
    gen *= 0.5 * (params.T / m) ** (2 * params.H)           # alpha_H h^(2H) / (2H (2H-1))
    return gen


def fbm_gram(params: OUParams, grid: GridSpec) -> np.ndarray:
    """Full two-time Gram matrix of the fractional inner product on the grid cells.

    Entry (a, b) integrates alpha_H |u - v|^(2H-2) exactly over cell_a x cell_b
    (the singularity is integrable; pointwise evaluation would be wrong), so a
    piecewise-constant kernel gets its exact fractional pairing.  On the equal
    midpoint cells G is the symmetric Toeplitz expansion of ``_fgn_generator``,
    and sum(G) telescopes to T^(2H) within a few ulps.  At H = 1/2 it is the
    diagonal quadrature Gram.  The sweep's Cholesky factors it; ``fbm_inner``
    never forms it.
    """
    m = grid.m
    gen = _fgn_generator(params, m)
    # r[m-1+k] = gen[|k|] and window i is r[i:i+m], so row a of the reversed
    # windows holds r[m-1-a+b] = gen[|a-b|]
    return sliding_window_view(np.concatenate((gen[::-1], gen[1:])), m)[::-1].copy()


def fbm_inner(f: Kernel, g: Kernel, params: OUParams) -> complex:
    """Fractional inner product <f, g>_H with the Gram applied slotwise.

    Kernels must share the midpoint space of [0, params.T] (``GridSpec.space``),
    whose cells the Gram integrates over; any other space, including the
    midpoint cells of another horizon, raises SpaceError.  H = 1/2 reduces to
    the ordinary weighted inner product.

    The Toeplitz Gram is embedded in a circulant of length n, the power of two
    >= 2m - 1, with first column (g_0..g_{m-1}, 0, ..., 0, g_{m-1}..g_1) and
    spectrum lambda (Chan & Ng, SIAM Review 38, 1996).  The circulant is applied
    by FFT to d - 1 slots of f; the slot left is paired with g's by Parseval,
    <y, C x> = <y^, lambda x^> / n over the zero-padded length n, with no inverse
    transform: a (1,0) norm costs two forward FFTs of length n, the spectrum's
    and f's.  A power of two keeps prime m off the slow Bluestein path.  A
    degree-d pairing costs O(d m^d log m) time and O(n m^(d-1)) memory, and the
    m x m Gram is never formed: a (1,0) pairing is O(m log m) time and O(m) memory.
    """
    f._check_peer(g)
    if f.space.grid is None:
        raise SpaceError("fbm_inner needs a gridded space")
    m = f.space.n
    t, w = GridSpec(m=m).nodes_weights(params.T)
    # a NaN fails either comparison
    if not (np.max(np.abs(f.space.grid - t)) <= 1e-12 * params.T
            and np.max(np.abs(f.space.weights - w)) <= 1e-12 * w[0]):
        raise SpaceError(f"fbm_inner needs the midpoint cells of [0, T] with T = {params.T!r}")
    if f.degree == 0:
        return complex(np.vdot(g.coeffs, f.coeffs))
    gen = _fgn_generator(params, m)
    n = 1 << (2 * m - 2).bit_length()
    # the first column is real and even: its first half gives its real spectrum
    half = np.zeros(n // 2 + 1)
    half[:m] = gen
    spectrum = np.fft.hfft(half, n)
    out = f.coeffs
    for _ in range(f.degree - 1):
        # apply the Gram to the last slot and move that slot to the front: after
        # d - 1 turns out holds f's slots 1..d-1 applied, then slot 0 unapplied
        out = np.moveaxis(np.fft.ifft(np.fft.fft(out, n) * spectrum)[..., :m], -1, 0)
    x = np.fft.fft(out, n)
    y = x if g is f and f.degree == 1 else np.fft.fft(np.moveaxis(g.coeffs, 0, -1), n)
    return complex(np.vdot(y, x * spectrum)) / n


def _whitened_row(params: OUParams, grid: GridSpec) -> RateRow:
    """Sweep row under the Gram G = ``fbm_gram`` = L L^T (Cholesky) from A = L^T K L,
    with the conventions of ``RateRow``, in 14 m^3 flops of real BLAS products and
    at most the equal of 3 complex m x m arrays: P = A A by Gauss's three products
    (Higham, SIAM J. Matrix Anal. Appl. 13, 1992), and Q = A^H A with Re Q = Ar^T Ar
    + Ai^T Ai (symmetric rank-k) and Im Q = C - C^T, C = Ar^T Ai.  var = ||A||^2,
    E F^2 = tr P, E F^3 = 2 tr(P A), E F^2 conj(F) = 2 <A, P>, both squared contraction
    norms are ||Q||^2 (||A A^H|| = ||A^H A||) and the gap is 2 ||Q||^2 + 4 ||P||^2.
    The generic routes on the dense L^T K L are the test suite's oracle.  All fields
    but var are scale-free, so A is formed from sqrt(T) K under the Gram of unit cells,
    G / h^(2H), at largest entry 1, and var takes the scales back as one product, which
    may round to 0 or inf but never raises.  e^(-lam dt) must be a normal float."""
    m = grid.m
    lam_dt, limit = params.lam * params.T / m, -log(np.finfo(float).tiny)   # about 708.40
    if not lam_dt < limit:
        raise InputError(f"grid too coarse for the fractional kernel: lam dt = {lam_dt!r}"
                         f" exceeds -ln(smallest normal float) = {limit:.2f}")
    L = np.linalg.cholesky(fbm_gram(replace(params, T=float(m)), grid))   # G / h^(2H)
    S = np.zeros((m, 2, m))                 # [Re KL | Im KL], KL = conj(rows)
    for lo, rows in _triangle_rows(params, m, L):
        S[1 + lo:1 + lo + len(rows)] = np.stack((rows.real, -rows.imag), axis=1)
    top = float(max(S.max(), -S.min()))
    S /= top
    R = L.T @ S.reshape(m, 2 * m)           # [Ar | Ai]
    del L, S, rows                 # freed before P and Q; a live block would pin the heap top
    P = np.empty((m, 2 * m))                # [Pr | Pi] = [T1 - T2 | T3 - T1 - T2]
    (Ar, Ai), (Pr, Pi) = np.hsplit(R, 2), np.hsplit(P, 2)
    s = Ar + Ai
    np.matmul(s, s, out=Pi)                 # T3
    Pi -= np.matmul(Ar, Ar, out=Pr)         # T1
    Pi -= np.matmul(Ai, Ai, out=s)          # T2, into the free sum
    Pr -= s
    # entry (a, b) sums plane a of P against plane b of A, transposed for tr(P A)
    PA = np.einsum("iaj,jbi->ab", P.reshape(m, 2, m), R.reshape(m, 2, m))
    AP = np.einsum("iaj,ibj->ab", P.reshape(m, 2, m), R.reshape(m, 2, m))     # <A, P>
    pseudo, p_sq = complex(np.trace(Pr), np.trace(Pi)), float(np.vdot(P, P))     # tr P, ||P||^2
    del P, Pr, Pi, s
    re_q = Ar.T @ Ar + Ai.T @ Ai            # numpy's a.T @ a takes syrk
    C = Ar.T @ Ai
    q_sq = float(np.vdot(re_q, re_q)) + 2.0 * float(np.vdot(C, C) - np.einsum("ij,ji->", C, C))
    var = float(np.vdot(R, R))
    # normalize to unit variance: the gap is quartic, third moments cubic
    fmt_sq = q_sq / var**2
    gap = 2.0 * fmt_sq + 4.0 * p_sq / var**2
    scale = top * (params.T / m) ** (2 * params.H - 0.5) / sqrt(m)   # h^(2H) / sqrt(T), undone
    return RateRow(T=params.T, m=m, var=var * scale * scale, gap=gap,
                   e3_mixed=2.0 * abs(complex(AP[0, 0] + AP[1, 1], AP[1, 0] - AP[0, 1])) / var**1.5,
                   e3=2.0 * abs(complex(PA[0, 0] - PA[1, 1], PA[0, 1] + PA[1, 0])) / var**1.5,
                   fmt_10_sq=fmt_sq, fmt_01_sq=fmt_sq,
                   be_upper=BoundInputs.from_moments(1.0, pseudo / var, 2).upper(gap))


# -- exact-in-law sampling of the numerator statistic -----------------------------------


_WALK_ROWS = 64                        # rows per closed-form block of ``_ar1_rows``
_WALK_ENTRIES = 4096                   # entries per closed-form block
_WALK_WIDE = 256                       # from this width on, row adds beat cumsum
_CHUNK_ENTRIES = 1 << 18               # draws per chunk of ``_drawn_chunks``, 4 MiB


def _block_rows(a, width: int) -> int:
    """Rows r of a closed-form block of ``_ar1_rows`` down rows of ``width``
    entries: r = min(64, 4096 // width, 64 / (lam dt)) with lam dt = -ln|a|, so
    a block holds at most 4096 entries and |a|^-r stays below e^64; at least 1."""
    rows = min(_WALK_ROWS, max(1, _WALK_ENTRIES // width))
    lam_dt = -log(abs(a)) if a != 0 else inf
    if lam_dt * rows > 64.0:                  # |a|^-rows would pass e^64
        rows = max(1, int(64.0 / lam_dt))
    return rows


def _ar1_rows(a, x, gain=1.0, y=0.0):
    """Blocks (lo, Y[lo:hi]) of the rows Y_1, ..., Y_n of the AR(1) recursion
    Y_0 = y, Y_{k+1} = a Y_k + gain x_k down the rows of the array x, where row
    lo of Y is Y_{lo+1}; a caller that reduces block by block never holds all
    of Y.  The blocks are the walk's state: a caller must not write into them.
    An array y is advanced in place to Y_n once the walk is exhausted, so walks
    of consecutive row ranges of x, each but the last a multiple of
    ``_block_rows`` long, sharing one y are bitwise the walk of the whole x.

    A block of r > 1 rows is the closed form Y_{s+i+1} = a^(i+1) (Y_s +
    sum_{j<=i} gain a^-(j+1) x_{s+j}), one prefix sum (a blocked scan in the
    style of Blelloch's prefix sums): a ``cumsum``, or from 256 columns on, where
    numpy's cumsum down the rows is the slower, r - 1 row adds in the same order.
    r is ``_block_rows``.  r = 1 is the plain step a y + gain x_k, bitwise the
    sequential walk; it is all that runs at 4096 or more columns, or where a
    underflows to 0.
    """
    n = x.shape[0]
    width = int(np.prod(x.shape[1:]))
    rows = _block_rows(a, width)
    state = y
    if rows == 1:
        for lo in range(n):
            y = a * y + gain * x[lo]
            yield lo, y[None]
    else:
        up = (a ** np.arange(1, rows + 1)).reshape((rows,) + (1,) * (x.ndim - 1))
        down = gain / up
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            block = down[:r] * x[lo:lo + r]
            if width >= _WALK_WIDE:
                for i in range(1, r):
                    block[i] += block[i - 1]
            else:
                np.cumsum(block, axis=0, out=block)
            block += y
            block *= up[:r]
            y = block[-1]
            yield lo, block
    if isinstance(state, np.ndarray):
        state[...] = y


def _drawn_chunks(rng, m: int, cols: int, a, scale=None):
    """Chunks D[lo:lo+R+1], lo = 0, R, 2R, ... < m - 1, of an m x cols array D of
    ``_complex_normal`` draws from rng (times ``scale`` if given), drawn in order
    into one refilled buffer of about ``_CHUNK_ENTRIES`` entries, each chunk's
    last row carried as the next one's first.  R is a multiple of
    ``_block_rows(a, cols)``, so ``_ar1_rows`` walks of the chunks but their last
    rows, state carried, are bitwise one walk of D[:-1]."""
    step = _block_rows(a, cols)
    step *= max(1, _CHUNK_ENTRIES // (step * cols))
    buf = np.empty((min(step, m - 1) + 1, cols), dtype=complex)
    for lo in range(0, m - 1, step):
        chunk = buf[:min(step, m - 1 - lo) + 1]
        if lo:
            chunk[0] = buf[-1]                 # the last row of the previous, full, chunk
        fresh = _complex_normal(rng, chunk[1:] if lo else chunk)
        if scale is not None:
            fresh *= scale
        yield chunk


def _triangle_rows(params: OUParams, m: int, x, y=0.0):
    """Blocks (lo, rows) of rows 1..m-1 of conj(sqrt(T) K) x (row 0 is zero), K =
    ``numerator_kernel`` on m nodes, row lo of the result first: the ``_ar1_rows``
    walk sum_{j<i} e^(-gamma (t_i - t_j)) x_j plus, at H = 1/2, the band
    (beta - 1) e^(-gamma dt) x_{i-1}, coarse-grid checked at the call; y is
    the ``_ar1_rows`` state, so x may be a chunk of ``_drawn_chunks``."""
    dt = params.T / m
    a = np.exp(-params.gamma * dt)
    walk = _ar1_rows(a, x[:-1], gain=a, y=y)
    if params.H != 0.5:
        return walk
    band = (_subdiagonal_factor(params.lam, dt) - 1.0) * a
    return ((lo, rows + band * x[lo:lo + len(rows)]) for lo, rows in walk)


def _row_sum(block: np.ndarray) -> np.ndarray:
    """Sum over the rows of a walk block; a one-row block gives its row, since
    ``sum(axis=0)`` would copy it."""
    return block[0] if len(block) == 1 else block.sum(axis=0)


_MAX_WORKERS = 4                       # sample_numerator blocks walked at once, a chunk each


def _usable_cores() -> int:
    """Cores this process may run on (its affinity set where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_numerator(params: OUParams, grid: GridSpec, N: int, seed: int) -> SampleBatch:
    """Monte Carlo batch of the numerator statistic scaled by ``normalization_factor``.

    Evaluates the quadratic form sum_{j<i} K_{ij} Z_i conj(Z_j) of
    ``numerator_kernel`` by one ``_triangle_rows`` walk down each sample block,
    pairing Z_i with row i conjugated, band included.  The sum accumulates row
    by row, so cost is O(m N) rather than O(m^2 N).  A block's draws come in
    ``_drawn_chunks`` of about 2^18 entries (4 MiB), each walked as it is drawn,
    so a block holds one chunk and the walk's state, not its m x block draws.

    Each block has its own random stream, so blocks run concurrently on one
    thread per usable core, at most ``_MAX_WORKERS`` = 4, and the batch is the
    same on any core count.  Each worker holds one chunk, so the draws alive at
    once stay near 4 x 4 MiB on any grid.  ``space._check_entries`` refuses a block
    of draws of more than ``space.ENTRY_CAP`` entries, possible only above m = 16384
    since a block keeps at least 1024 columns, with SpaceError before any draw.
    """
    if params.H != 0.5:
        raise InputError("sampling is implemented for the H = 1/2 branch")
    if N < 1:
        raise InputError("N must be >= 1")
    _check_entries(N, "a batch of samples")
    m = grid.m
    T = params.T
    scale = T / m / sqrt(T) * normalization_factor(params)      # dt / sqrt(T), normalized

    block = max(1024, min(1 << 16, (8 << 20) // m))
    _check_entries(m * min(block, N), f"a block of draws at m = {m}")
    values = np.empty(N, dtype=complex)
    n_blocks = (N + block - 1) // block
    a = np.exp(-params.gamma * (T / m))                         # the walk's step, for its chunks

    def fill(ib):
        lo, hi = ib * block, min((ib + 1) * block, N)
        acc = np.zeros(hi - lo, dtype=complex)
        y = np.zeros(hi - lo, dtype=complex)
        for Z in _drawn_chunks(_block_rng(seed, ib), m, hi - lo, a):
            for k, rows in _triangle_rows(params, m, Z, y):
                acc += _row_sum(Z[1 + k:1 + k + len(rows)] * np.conj(rows))
        values[lo:hi] = scale * acc

    # imported here: concurrent.futures loads logging, which would add about
    # 8 ms to every `import cwchaos`
    from concurrent.futures import ThreadPoolExecutor

    # reading every result re-raises a block's error; on an error or Ctrl-C the
    # map cancels the queued blocks, so only the running ones finish
    with ThreadPoolExecutor(min(n_blocks, _usable_cores(), _MAX_WORKERS)) as pool:
        list(pool.map(fill, range(n_blocks)))
    meta = (f"sample_numerator lam={params.lam!r} omega={params.omega!r} T={T!r} m={m} "
            f"seed={seed} N={N} block={block} version={GENERATOR_VERSION}")
    return SampleBatch(values=values, seed=seed, meta=meta)


# -- path simulation and the denominator identity ---------------------------------------


def simulate_path(params: OUParams, grid: GridSpec, seed: int, n_paths: int = 1):
    """Exact-in-distribution path on the uniform step grid k T/m, k = 0..m,
    via the autoregressive recursion Z_{k+1} = e^(-gamma dt) Z_k + eps_k with
    independent circular Gaussian innovations of the exact conditional variance.

    Returns (Z, eps) with shapes (m+1,[ n_paths]) and (m,[ n_paths]), held
    whole.  An m x n_paths block of draws above ``space.ENTRY_CAP`` entries
    raises SpaceError (``space._check_entries``) before any draw.
    """
    if params.H != 0.5:
        raise InputError("path simulation is implemented for the H = 1/2 branch")
    if n_paths < 1:
        raise InputError("n_paths must be >= 1")
    m = grid.m
    _check_entries(m * n_paths, f"a block of draws at m = {m}")
    dt = params.T / m
    a = np.exp(-params.gamma * dt)
    sd = sqrt((1.0 - exp(-2.0 * params.lam * dt)) / (2.0 * params.lam))
    eps = _complex_normal(_block_rng(seed, 0), (m, n_paths))
    eps *= sd
    Z = np.empty((m + 1, n_paths), dtype=complex)
    Z[0] = 0.0
    for lo, rows in _ar1_rows(a, eps):
        Z[1 + lo:1 + lo + len(rows)] = rows
    if n_paths == 1:
        return Z[:, 0], eps[:, 0]
    return Z, eps


@dataclass(frozen=True)
class DenominatorReport:
    """Per-path comparison of the time-averaged |Z|^2 against its chaos
    decomposition (numerator statistic, terminal correction, mean part),
    both sides built from the same Gaussian increments."""

    T: float
    m: int
    n_paths: int
    mean_abs_residual: float
    max_abs_residual: float
    max_rel_residual: float
    lhs_mean: float
    rhs_mean: float
    mean_closed: float
    diff_se: float

    def to_json(self) -> dict:
        return asdict(self)


def verify_denominator_identity(params: OUParams, grid: GridSpec, seed: int,
                                n_paths: int = 100) -> DenominatorReport:
    """Evaluate both sides of

        (1/T) int |Z_t|^2 dt = (1/(2 lam)) [ (F_T + conj(F_T)) / sqrt(T)
                               - (|Z_T|^2 - E|Z_T|^2) / T ] + (1/T) int E|Z_t|^2 dt

    on a common set of raw increments dz.  One AR(1) recursion gives the path
    at the left endpoints, Z_k = sum_{j<k} e^(-gamma (t_k - t_j)) dz_j, and F_T is
    the strict off-diagonal double Wiener sum built from it,
    F_T = sum_k dz_k conj(Z_k) / sqrt(T) (diagonal terms are Ito-correction
    artifacts the continuous integral excludes).  F_T and the time average
    accumulate along the ``_ar1_rows`` walk of the increments' ``_drawn_chunks``,
    so neither increments nor path are held whole.  The residual shrinks as the
    grid refines.  An m x n_paths block of draws above ``space.ENTRY_CAP``
    entries raises SpaceError (``space._check_entries``) before any draw.
    """
    if params.H != 0.5:
        raise InputError("the identity check is implemented for the H = 1/2 branch")
    if n_paths < 1:
        raise InputError("n_paths must be >= 1")
    m = grid.m
    _check_entries(m * n_paths, f"a block of draws at m = {m}")
    T = params.T
    lam = params.lam
    dt = T / m
    a = np.exp(-params.gamma * dt)
    # Z_{k+1} = a (Z_k + dz_k): the walk gives Z_1..Z_{m-1}, paired with dz_1..dz_{m-1}
    # (Z_0 = 0 adds nothing), and one more step the terminal value Z_m
    F = np.zeros(n_paths, dtype=complex)
    sq = np.zeros(n_paths)
    Z = np.zeros(n_paths, dtype=complex)
    for dz in _drawn_chunks(_block_rng(seed, 0), m, n_paths, a, scale=sqrt(dt)):
        for lo, rows in _ar1_rows(a, dz[:-1], gain=a, y=Z):
            F += _row_sum(dz[1 + lo:1 + lo + len(rows)] * np.conj(rows))
            sq += _row_sum(rows.real**2 + rows.imag**2)
    Z_T = a * Z + a * dz[-1]
    F /= sqrt(T)
    lhs = dt / T * sq

    var_T = (1.0 - exp(-2 * lam * T)) / (2 * lam)
    mean_part = abs_sq_mean_closed(params)
    rhs = (1.0 / (2 * lam)) * (2.0 * F.real / sqrt(T)
                               - (np.abs(Z_T) ** 2 - var_T) / T) + mean_part

    resid = lhs - rhs
    scale = np.maximum(np.abs(lhs), 1e-12)
    return DenominatorReport(
        T=T,
        m=m,
        n_paths=n_paths,
        mean_abs_residual=float(np.mean(np.abs(resid))),
        max_abs_residual=float(np.max(np.abs(resid))),
        max_rel_residual=float(np.max(np.abs(resid) / scale)),
        lhs_mean=float(np.mean(lhs)),
        rhs_mean=float(np.mean(rhs)),
        mean_closed=mean_part,
        diff_se=float(np.std(resid, ddof=1) / sqrt(n_paths)) if n_paths > 1 else 0.0,
    )
