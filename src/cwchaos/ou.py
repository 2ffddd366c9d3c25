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
|u - v|^{2H-2} singularity exactly over the cells.  Its sweep whitens the
kernel: with G = L L^T (Cholesky), A = L^T K L on the orthonormal space has
every inner product and contraction that K has under G, and each row field is
a Frobenius sum over A, A A and A^H A.  One walk, ``_triangle_rows``, applies K to
columns: to a block of draws in the sampler, and to L in the whitening.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace
from math import exp, factorial, isfinite, log, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import BoundInputs
from .sampling import GENERATOR_VERSION, SampleBatch, _block_rng, _complex_normal
from .space import ENTRY_CAP, InputError, Kernel, SpaceError, SpaceSpec

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
    c = 1.0 / sqrt(T)
    x = exp(-2.0 * lam * dt)
    beta = float(_subdiagonal_factor(lam, dt))
    delta = beta - 1.0

    d = np.arange(1, m, dtype=float)
    xd = x ** d
    # K K is Toeplitz with offset-D coefficient s2(D) z^D, a sum over the D - 1
    # intermediate nodes: the two next to an end take one band step (beta), so
    # s2 = D - 1 + 2 delta for D >= 3, and beta^2 for D = 2 (two band steps)
    s2 = d - 1.0 + 2.0 * delta
    s2[0] = 0.0
    if m > 2:
        s2[1] += delta**2
    var = c**2 * dt**2 * (float(np.sum((m - d) * xd)) + (beta**2 - 1.0) * (m - 1) * x)
    kwk_sq = c**4 * dt**4 * float(np.sum((m - d) * s2**2 * xd))
    e21 = 2.0 * c**3 * dt**3 * float(np.sum((m - d) * s2 * xd))

    idx = np.arange(m, dtype=float)
    ratio = x / (1.0 - x)
    L = ratio * (1.0 - x**idx)                # sum_{u < w} x^(w-u)
    R = ratio * (1.0 - x ** (m - 1 - idx))    # sum_{u > v} x^(u-v)
    # K^H K is z^|t-s| Rb[max(t,s)] off the diagonal, where the band adds
    # delta x wherever a right neighbour exists, and its diagonal carries
    # beta delta x more; ||K K^H|| = ||K^H K||, so it gives both contraction norms
    has_right = idx <= m - 2
    Rb = R + delta * x * has_right
    Rd = Rb + beta * delta * x * has_right
    fmt_sq = c**4 * dt**4 * float(np.sum(Rd**2 + 2.0 * L * Rb**2))

    nu = normalization_factor(params)
    var, fmt_sq = nu**2 * var, nu**4 * fmt_sq
    # the gap is 2 ||K^H K||^2 + 4 ||K K||^2, as in ``_whitened_row``
    gap = 2.0 * fmt_sq + 4.0 * nu**4 * kwk_sq
    return RateRow(T=params.T, m=m, var=var, gap=gap, e3_mixed=nu**3 * abs(e21), e3=0.0,
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
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def rate_sweep(base: OUParams, T_list, dt: float) -> RateTable:
    """Sweep the normalized numerator quantities across increasing horizons at
    fixed grid spacing, with log-log regression slopes in the footer.

    H = 1/2 reproduces decay exponents -1 (gap) and -1/2 (mixed third moment);
    the fractional branch reports the gap of the variance-normalized statistic,
    whose upper-bound exponent is 2(4H - 3) for H in (5/8, 3/4).  Column
    ``be_upper`` is ``BoundInputs.upper`` of the row's statistic (pseudo-moment
    0 at H = 1/2).  A fractional grid with m^2 above ``space.ENTRY_CAP`` raises
    SpaceError before any row.
    """
    T_list = list(T_list)
    if len(T_list) < 2:
        raise InputError("a regression slope needs at least two horizons")
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])):
        raise InputError("T_list must be strictly increasing")
    grids = [GridSpec.from_spacing(T, dt) for T in T_list]
    m = max(grid.m for grid in grids)
    if base.H != 0.5 and m * m > ENTRY_CAP:
        # a fractional row forms m x m arrays: refuse before computing any row
        raise SpaceError(f"the fractional sweep needs m^2 = {m * m} entries at m = {m},"
                         f" above the cap {ENTRY_CAP}")
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


def fbm_gram(params: OUParams, grid: GridSpec) -> np.ndarray:
    """Full two-time Gram matrix of the fractional inner product on the grid cells.

    Entry (a, b) integrates alpha_H |u - v|^(2H-2) exactly over cell_a x cell_b
    (the singularity is integrable; pointwise evaluation would be wrong), so a
    piecewise-constant kernel gets its exact fractional pairing.  On cells of
    width h, G is Toeplitz with generator g(d) = alpha_H h^(2H) (|d+1|^(2H) +
    |d-1|^(2H) - 2 d^(2H)) / (2H (2H-1)), d = |a - b|, and alpha_H / (2H (2H-1))
    = 1/2.  Consecutive first differences of k^(2H) lie within a factor 2, so
    the second difference is exact and sum(G) telescopes to T^(2H) within a few
    ulps.  At H = 1/2 the generator is (h, 0, 0, ...): the diagonal quadrature Gram.
    """
    m = grid.m
    first = np.diff(np.arange(m + 1, dtype=float) ** (2 * params.H))
    scale = 0.5 * (params.T / m) ** (2 * params.H)          # alpha_H h^(2H) / (2H (2H-1))
    gen = scale * np.concatenate(([2.0 * first[0]], np.diff(first)))
    # r[m-1+k] = gen[|k|] and window i is r[i:i+m], so row a of the reversed
    # windows holds r[m-1-a+b] = gen[|a-b|]
    return sliding_window_view(np.concatenate((gen[::-1], gen[1:])), m)[::-1].copy()


def fbm_inner(f: Kernel, g: Kernel, params: OUParams) -> complex:
    """Fractional inner product <f, g>_H with the Gram applied slotwise.

    Kernels must share the midpoint space of [0, params.T] (``GridSpec.space``),
    whose cells the Gram integrates over; any other space, including the
    midpoint cells of another horizon, raises SpaceError.  H = 1/2 reduces to
    the ordinary weighted inner product.
    """
    f._check_peer(g)
    if f.space.grid is None:
        raise SpaceError("fbm_inner needs a gridded space")
    grid = GridSpec(m=f.space.n)
    t, w = grid.nodes_weights(params.T)
    if not (np.allclose(f.space.grid, t, rtol=0.0, atol=1e-12 * params.T)
            and np.allclose(f.space.weights, w, rtol=1e-12, atol=0.0)):
        raise SpaceError(f"fbm_inner needs the midpoint cells of [0, T] with T = {params.T!r}")
    gram = fbm_gram(params, grid)
    out = f.coeffs
    for ax in range(f.degree):
        out = np.tensordot(gram, out, axes=(1, ax))
        out = np.moveaxis(out, 0, ax)
    return complex(np.sum(out * np.conj(g.coeffs)))


def _whitened_row(params: OUParams, grid: GridSpec) -> RateRow:
    """Sweep row under the Gram G = ``fbm_gram`` = L L^T (Cholesky) from A = L^T K L,
    K L one ``_triangle_rows`` walk down the rows of L, and two products, P = A A and
    Q = A^H A: var = ||A||^2, E F^2 = sum A o A^T, E F^3 = 2 sum P o A^T, E F^2 conj(F)
    = 2 <P, A>, both squared contraction norms are ||Q||^2 (||A A^H|| = ||A^H A|| by
    trace cyclicity) and the gap is 2 ||Q||^2 + 4 ||P||^2, with the conventions of
    ``RateRow``.  The generic routes on the dense L^T K L are the test suite's oracle."""
    L = np.linalg.cholesky(fbm_gram(params, grid))
    KL = np.zeros((grid.m, grid.m), dtype=complex)
    for i, row in enumerate(_triangle_rows(params, grid.m, L), start=1):
        KL[i] = np.conj(row) / sqrt(params.T)
    A = np.empty_like(KL)
    A.real = L.T @ KL.real         # L is real: one real product per part
    A.imag = L.T @ KL.imag
    del L, KL, row                 # freed before P and Q; a live row would pin the heap top
    P = A @ A
    Q = A.conj().T @ A
    var = float(np.vdot(A, A).real)
    pseudo = complex(np.sum(A * A.T))
    third = 2.0 * complex(np.sum(P * A.T))
    third_mixed = 2.0 * complex(np.vdot(A, P))
    fmt_sq = float(np.vdot(Q, Q).real) / var**2
    # normalize to unit variance: the gap is quartic, third moments cubic
    gap = 2.0 * fmt_sq + 4.0 * float(np.vdot(P, P).real) / var**2
    return RateRow(T=params.T, m=grid.m, var=var, gap=gap,
                   e3_mixed=abs(third_mixed) / var**1.5, e3=abs(third) / var**1.5,
                   fmt_10_sq=fmt_sq, fmt_01_sq=fmt_sq,
                   be_upper=BoundInputs.from_moments(1.0, pseudo / var, 2).upper(gap))


# -- exact-in-law sampling of the numerator statistic -----------------------------------


def _ar1_rows(a, x):
    """Rows Y_1, Y_2, ... of the AR(1) recursion Y_0 = 0, Y_{k+1} = a Y_k + x_k,
    walking the rows of x (an array or any iterable) one at a time, so a caller
    that reduces as it goes never holds all of Y."""
    y = 0.0
    for row in x:
        y = a * y + row
        yield y


def _triangle_rows(params: OUParams, m: int, x):
    """Rows 1..m-1 of conj(sqrt(T) K) x (row 0 is zero), K = ``numerator_kernel`` on m
    nodes, one row of x at a time: the ``_ar1_rows`` walk sum_{j<i} e^(-gamma (t_i - t_j)) x_j
    plus, at H = 1/2, the band (beta - 1) e^(-gamma dt) x_{i-1}, coarse-grid checked at the call."""
    dt = params.T / m
    a = np.exp(-params.gamma * dt)
    walk = _ar1_rows(a, (a * row for row in x[:-1]))
    if params.H != 0.5:
        return walk
    band = (_subdiagonal_factor(params.lam, dt) - 1.0) * a
    return (w + band * prev for w, prev in zip(walk, x))


_MAX_WORKERS = 4                       # sample_numerator blocks of draws alive at once


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
    by row, so cost is O(m N) rather than O(m^2 N) and the block of draws is
    the only m x block array.

    Each block has its own random stream, so blocks run concurrently on one
    thread per usable core, at most ``_MAX_WORKERS`` = 4, and the batch is the
    same on any core count.  Each worker holds one block of draws, so at most
    four blocks are alive at once: 4 x 128 MiB while m <= 8192, where a block
    has at most 8<<20 complex entries.  A block of draws of more than
    ``space.ENTRY_CAP`` entries, possible only above m = 16384 since a block
    keeps at least 1024 columns, raises SpaceError before any draw.
    """
    if params.H != 0.5:
        raise InputError("sampling is implemented for the H = 1/2 branch")
    if N < 1:
        raise InputError("N must be >= 1")
    m = grid.m
    T = params.T
    scale = T / m / sqrt(T) * normalization_factor(params)      # dt / sqrt(T), normalized

    block = max(1024, min(1 << 16, (8 << 20) // m))
    if m * min(block, N) > ENTRY_CAP:
        raise SpaceError(f"a block of draws needs m x {min(block, N)} = {m * min(block, N)}"
                         f" entries at m = {m}, above the cap {ENTRY_CAP}")
    values = np.empty(N, dtype=complex)
    n_blocks = (N + block - 1) // block

    def fill(ib):
        lo, hi = ib * block, min((ib + 1) * block, N)
        Z = _complex_normal(_block_rng(seed, ib), (m, hi - lo))
        acc = np.zeros(hi - lo, dtype=complex)
        for z, row in zip(Z[1:], _triangle_rows(params, m, Z)):
            acc += z * np.conj(row)
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

    Returns (Z, eps) with shapes (m+1,[ n_paths]) and (m,[ n_paths]).
    """
    if params.H != 0.5:
        raise InputError("path simulation is implemented for the H = 1/2 branch")
    if n_paths < 1:
        raise InputError("n_paths must be >= 1")
    m = grid.m
    dt = params.T / m
    a = np.exp(-params.gamma * dt)
    sd = sqrt((1.0 - exp(-2.0 * params.lam * dt)) / (2.0 * params.lam))
    eps = sd * _complex_normal(_block_rng(seed, 0), (m, n_paths))
    Z = np.array([np.zeros_like(eps[0]), *_ar1_rows(a, eps)])
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
    artifacts the continuous integral excludes).  The residual shrinks as the
    grid refines.
    """
    if params.H != 0.5:
        raise InputError("the identity check is implemented for the H = 1/2 branch")
    if n_paths < 1:
        raise InputError("n_paths must be >= 1")
    m = grid.m
    T = params.T
    lam = params.lam
    dt = T / m
    dz = sqrt(dt) * _complex_normal(_block_rng(seed, 0), (m, n_paths))

    a = np.exp(-params.gamma * dt)
    # Z_{k+1} = a (Z_k + dz_k); row m is the terminal value
    Z = np.array([np.zeros_like(dz[0]), *_ar1_rows(a, a * dz)])
    F = np.sum(dz * np.conj(Z[:-1]), axis=0) / sqrt(T)

    lhs = dt / T * np.sum(np.abs(Z[:-1]) ** 2, axis=0)

    var_T = (1.0 - exp(-2 * lam * T)) / (2 * lam)
    mean_part = abs_sq_mean_closed(params)
    rhs = (1.0 / (2 * lam)) * (2.0 * F.real / sqrt(T)
                               - (np.abs(Z[-1]) ** 2 - var_T) / T) + mean_part

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
