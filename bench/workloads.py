"""The three benchmark workloads: seeded inputs, timed bodies and their checks.

Each workload has ``make_inputs(seed, workdir)``, run once before timing
starts, and ``body(inputs, rec)``, the timed unit that the worker repeats.
Inputs depend only on the seed; the library receives only these inputs.
The structure of each workload (orders, grid sizes, sample counts) is fixed,
and the seed draws the values, so the cost of a body does not depend on the
seed.

Every check is a comparison that is False on NaN, so a non-finite result
fails closed.  Monte Carlo checks compare a sample mean with its exact value
at five estimated standard errors, which a correct sampler passes on any
random stream except with negligible probability.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from time import perf_counter

import numpy as np

import cwchaos.bounds as bd
import cwchaos.chaos as ch
import cwchaos.cli as cli
import cwchaos.ou as ou
import cwchaos.sampling as sm
import cwchaos.space as sp

#: Cap on the entries n^(2(p+q)) of the dense arrays that the "moments" gap
#: route allocates: 2^22 complex entries is 64 MiB per array, and the route
#: holds a few of them (n=40 at order (1,1) peaks near 260 MB).  n=10 at
#: order (2,2) would need 10^8 entries and does not fit an 8 GB machine.
MOMENTS_ENTRY_CAP = 2 ** 22


class Recorder:
    """Collects check outcomes and per-report latencies of one worker."""

    def __init__(self, tracer=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.tracer = tracer

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def report(self, fn):
        """Run one report and record its latency."""
        t0 = perf_counter()
        out = fn()
        self.latencies_ms.append((perf_counter() - t0) * 1e3)
        return out

    def checking(self):
        """Span around the benchmark's own check code in the traced run."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("bench.check")


def within_se(samples: np.ndarray, target: float, k: float = 5.0) -> bool:
    """Sample mean within k estimated standard errors of its exact value."""
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return bool(abs(float(np.mean(samples)) - target) <= k * se)


def close(x, target, tol) -> bool:
    return bool(abs(x - target) <= tol)


def run_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def csv_rows(path: str) -> int:
    """Data rows of a CSV written by the library: no comment lines, no header."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return len(lines) - 1


def ladder(lo: int, hi: int, i: int, count: int) -> int:
    """The i-th of ``count`` sizes spaced evenly from lo to hi.

    Report sizes on a ladder, not a few fixed values, give latencies without
    gaps, so the median and 90th percentile do not jump between clusters.
    """
    return lo + round((hi - lo) * i / (count - 1))


def _random_space(rng, n: int, weighted: bool) -> sp.SpaceSpec:
    if weighted:
        return sp.SpaceSpec(n, weights=0.5 + rng.random(n))
    return sp.SpaceSpec.orthonormal(n)


def _random_kernel(rng, space: sp.SpaceSpec, p: int, q: int) -> sp.Kernel:
    shape = (space.n,) * (p + q)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return sp.symmetrize(sp.Kernel(space, p, q, arr))


def _save(kern: sp.Kernel, workdir: str, name: str) -> str:
    path = os.path.join(workdir, name + ".json")
    sp.save_kernel(kern, path)
    return path


def _check_moments_budget(n: int, p: int, q: int) -> None:
    if n ** (2 * (p + q)) > MOMENTS_ENTRY_CAP:
        raise ValueError(f"kernel n={n} order ({p},{q}) exceeds the moments-route memory cap")


def _mc_checks(rec: Recorder, name: str, values: np.ndarray, var: float, pseudo: complex) -> None:
    """E F = 0, E|F|^2 = var and E F^2 = pseudo, each within 5 standard errors."""
    rec.check(f"{name} E Re F", within_se(values.real, 0.0))
    rec.check(f"{name} E Im F", within_se(values.imag, 0.0))
    rec.check(f"{name} E|F|^2", within_se(np.abs(values) ** 2, var))
    sq = values ** 2
    rec.check(f"{name} E Re F^2", within_se(sq.real, pseudo.real))
    rec.check(f"{name} E Im F^2", within_se(sq.imag, pseudo.imag))


# -- chaos_kernels ---------------------------------------------------------------------

#: every block order with 1 <= p + q <= 4, and (1,1), the order of the OU
#: numerator statistic, a second time.  With each order once, exactly half
#: the reports are cheaper than every other report, so the median would sit
#: in the gap between two groups of reports and jump between them.
SMALL_ORDERS = [(p, total - p) for total in range(1, 5) for p in range(total, -1, -1)] + [(1, 1)]
SMALL_TRIALS = 19                      # 19 x 15 orders = 285 reports per body
LARGE_KERNELS = [(40, 1, 1), (6, 2, 2)]
VECTOR_ORDERS = [(1, 0), (2, 0), (2, 1), (3, 0)]   # distinct non-swapped orders: circular
MC_RANDOM = [(100, 1, 1, 4096), (10, 2, 2, 4096)]  # (n, p, q, N)
MC_WORKED_N = 1 << 16
CLI_SAMPLE_N = 2000


def small_n(trial: int, p: int, q: int) -> int:
    """Basis size of a small-mix kernel: n cycles through 2, 3, 4.

    At p + q = 4 it cycles through 3 and 4 only.  The n=4 kernels of that
    order are the slowest reports, about 3x the next group; with 18% of the
    mix in that group, the 90th percentile lies inside it instead of in the
    gap below it, where it would jump between groups from run to run.
    """
    if p + q == 4:
        return 3 + trial % 2
    return 2 + (trial + p + q) % 3


def chaos_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    small = []
    cli_files = {}                     # first (1,1) and n=4 (2,2) kernels, for the CLI calls
    for trial in range(SMALL_TRIALS):
        for p, q in SMALL_ORDERS:
            n = small_n(trial, p, q)
            _check_moments_budget(n, p, q)
            space = _random_space(rng, n, weighted=bool(trial % 2))
            small.append(_save(_random_kernel(rng, space, p, q), workdir, f"small_{len(small)}"))
            if (p, q) == (1, 1) or ((p, q) == (2, 2) and n == 4):
                cli_files.setdefault((p, q), small[-1])
    large = []
    for n, p, q in LARGE_KERNELS:
        _check_moments_budget(n, p, q)
        space = _random_space(rng, n, weighted=True)
        large.append(_save(_random_kernel(rng, space, p, q), workdir, f"large_n{n}_{p}{q}"))
    vectors = []
    for d in (2, 3, 4):
        space = _random_space(rng, 3, weighted=bool(d % 2))
        vectors.append([_save(_random_kernel(rng, space, p, q), workdir, f"vec{d}_{p}{q}")
                        for p, q in VECTOR_ORDERS[:d]])
    mc = []
    for n, p, q, N in MC_RANDOM:
        space = sp.SpaceSpec.orthonormal(n)
        mc.append((_save(_random_kernel(rng, space, p, q), workdir, f"mc_n{n}_{p}{q}"),
                   N, int(rng.integers(2 ** 31))))
    worked_vector = os.path.join(workdir, "worked_vector.json")
    o4 = sp.SpaceSpec.orthonormal(4)
    with open(worked_vector, "w") as fh:
        json.dump({"components": [
            {"p": 1, "q": 1, "kernel": sp.kernel_to_json(sp.Kernel.basis(o4, (0,), (1,)))},
            {"p": 1, "q": 1, "kernel": sp.kernel_to_json(sp.Kernel.basis(o4, (2,), (3,)))},
        ]}, fh)
    return {
        "workdir": workdir,
        "small": small,
        "large": large,
        "vectors": vectors,
        "mc": mc,
        "mc_worked_seeds": [int(s) for s in rng.integers(2 ** 31, size=2)],
        "worked_vector": worked_vector,
        "cli_moments": cli_files[(2, 2)],
        "cli_kernel": cli_files[(1, 1)],
        "cli_seed": int(rng.integers(2 ** 31)),
    }


def chaos_body(inp: dict, rec: Recorder) -> None:
    for path in inp["small"]:
        f = sp.load_kernel(path)
        rep, ub, table = rec.report(lambda: (ch.moment_report(f), bd.be_upper(f), bd.fmt_norms(f)))
        with rec.checking():
            rec.check("small route spread", rep.route_spread() <= 1e-9)
            rec.check("small be_upper", math.isfinite(ub) and ub >= 0.0)
            rec.check("small fmt_norms", all(math.isfinite(v) for v in table.values()))

    for path in inp["large"]:
        rep = ch.moment_report(sp.load_kernel(path))
        with rec.checking():
            rec.check("large route spread", rep.route_spread() <= 1e-9)

    # the worked values of the paper's second-chaos examples
    o2 = sp.SpaceSpec.orthonormal(2)
    f11 = sp.Kernel.basis(o2, (0,), (0,))
    f12 = sp.Kernel.basis(o2, (0,), (1,))
    r11 = ch.moment_report(f11)
    r12 = ch.moment_report(f12)
    b12 = bd.be_upper_circular(f12)
    o4 = sp.SpaceSpec.orthonormal(4)
    worked = ch.ChaosVector([ch.ChaosVariable.from_kernel(sp.Kernel.basis(o4, (0,), (1,))),
                             ch.ChaosVariable.from_kernel(sp.Kernel.basis(o4, (2,), (3,)))])
    multi = bd.be_upper_multivariate(worked)
    with rec.checking():
        rec.check("worked gap 6", close(r11.gap_v1, 6.0, 1e-12))
        rec.check("worked third 2", close(r11.third, 2.0, 1e-12))
        rec.check("worked third mixed 2", close(r11.third_mixed, 2.0, 1e-12))
        rec.check("worked gap 2", close(r12.gap_v1, 2.0, 1e-12))
        rec.check("worked pseudo 0", close(r12.pseudo, 0.0, 1e-12))
        rec.check("worked bound 16", close(b12, 16.0, 1e-9))
        rec.check("worked multivariate 4 sqrt 2", close(multi.bound, 4.0 * math.sqrt(2.0), 1e-9))

    for paths in inp["vectors"]:
        vec = ch.ChaosVector([ch.ChaosVariable.from_kernel(sp.load_kernel(p)) for p in paths])
        rep = bd.be_upper_multivariate(vec)
        with rec.checking():
            rec.check("multivariate bound", math.isfinite(rep.bound) and rep.bound >= 0.0)

    mc_cases = [(f11, MC_WORKED_N, inp["mc_worked_seeds"][0]),
                (f12, MC_WORKED_N, inp["mc_worked_seeds"][1])]
    mc_cases += [(sp.load_kernel(path), N, seed) for path, N, seed in inp["mc"]]
    for f, N, seed in mc_cases:
        F = ch.ChaosVariable.from_kernel(f)
        batch = sm.sample_chaos(F, N, seed)
        with rec.checking():
            var = ch.pairing_expectation(F, F).real
            pseudo = ch.product_expectation(F, F)
            _mc_checks(rec, f"sample_chaos ({f.p},{f.q}) n={f.space.n}", batch.values, var, pseudo)

    wd = inp["workdir"]
    out_moments = os.path.join(wd, "moments.json")
    out_sample = os.path.join(wd, "sample.csv")
    codes = [
        run_cli(["moments", inp["cli_moments"], "-o", out_moments]),
        run_cli(["bound", "--kernel", inp["cli_kernel"], "-o", os.path.join(wd, "bound_k.json")]),
        run_cli(["bound", "--vector", inp["worked_vector"], "-o", os.path.join(wd, "bound_v.json")]),
        run_cli(["sample", "--kernel", inp["cli_kernel"], "-N", str(CLI_SAMPLE_N),
                 "--seed", str(inp["cli_seed"]), "-o", out_sample]),
    ]
    with rec.checking():
        for code in codes:
            rec.check("cli exit 0", code == 0)
        with open(out_moments) as fh:
            rec.check("cli moments route spread", json.load(fh)["route_spread"] <= 1e-9)
        rec.check("cli sample rows", csv_rows(out_sample) == CLI_SAMPLE_N)


# -- ou_experiment ---------------------------------------------------------------------

RATE_T = [50.0, 100.0, 200.0, 400.0, 800.0]
RATE_DT = 0.05
DIST_T = [5.0, 20.0, 80.0]
DIST_N = 8192
VERIFY_M = [50, 500, 5000]
VERIFY_PATHS = 100
VERIFY_PAIRS = 100                      # 200 denominator-identity reports per body
OU_SAMPLE_T = 20.0
OU_SAMPLE_N = 2000


def ou_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    # coarse grids of 10 to 100 nodes, each paired with one ten times finer
    pairs = []
    for i in range(VERIFY_PAIRS):
        pairs.append({"lam": float(rng.uniform(0.8, 1.25)), "omega": float(rng.uniform(-0.5, 0.5)),
                      "T": float(rng.uniform(2.0, 5.0)), "m": ladder(10, 100, i, VERIFY_PAIRS),
                      "seed": int(rng.integers(2 ** 31))})
    return {
        "workdir": workdir,
        "lam": float(rng.uniform(0.8, 1.25)),
        "omega": float(rng.uniform(-0.5, 0.5)),
        "dist_seeds": [[int(s) for s in rng.integers(2 ** 31, size=3)] for _ in DIST_T],
        "verify_seed": int(rng.integers(2 ** 31)),
        "pairs": pairs,
        "cli_seed": int(rng.integers(2 ** 31)),
    }


def ou_body(inp: dict, rec: Recorder) -> None:
    base = ou.OUParams(lam=inp["lam"], omega=inp["omega"], T=1.0)
    table = ou.rate_sweep(base, RATE_T, dt=RATE_DT)
    with rec.checking():
        rec.check("slope gap -1", close(table.slope_gap, -1.0, 0.1))
        rec.check("slope mixed -1/2", close(table.slope_e3_mixed, -0.5, 0.1))
        rec.check("plain third moment", all(r.e3 <= 1e-3 / math.sqrt(r.T) for r in table.rows))

    # the distance experiment: statistic against its circular Gaussian limit
    limit = sm.GaussianTarget.circular(1.0 / (2.0 * base.lam))
    for T, (seed_f, seed_g, seed_w) in zip(DIST_T, inp["dist_seeds"]):
        params = replace(base, T=T)
        m = int(round(T / RATE_DT))
        bF = ou.sample_numerator(params, ou.GridSpec(m=m), N=DIST_N, seed=seed_f)
        bG = sm.sample_gaussian(limit, DIST_N, seed=seed_g)
        dist = sm.sliced_wasserstein_2d(bF.values, bG.values, K=64, seed=seed_w)
        # the sampler is exact for the grid kernel, whose variance falls
        # short of 1/(2 lam) by O(dt) (about 5% at dt=0.05), so the exact
        # value to compare with is the grid variance
        var = ou.triangular_quantities(params, m).var
        with rec.checking():
            _mc_checks(rec, f"sample_numerator T={T}", bF.values, var, 0j)
            _mc_checks(rec, f"sample_gaussian T={T}", bG.values, limit.sigma_sq, 0j)
            rec.check("sliced W finite", math.isfinite(dist) and dist > 0.0)

    p5 = replace(base, T=5.0)
    reps = [ou.verify_denominator_identity(p5, ou.GridSpec(m=m), seed=inp["verify_seed"],
                                           n_paths=VERIFY_PATHS) for m in VERIFY_M]
    with rec.checking():
        for a, b in zip(reps, reps[1:]):
            rec.check("denominator residual shrinks", b.mean_abs_residual < a.mean_abs_residual)
        # only on the finest grid: at m=500 the discretization bias of the
        # residual mean is about 2.4 standard errors, too close to 5
        fine = reps[-1]
        rec.check("denominator means", abs(fine.lhs_mean - fine.rhs_mean) <= 5.0 * fine.diff_se)

    for pair in inp["pairs"]:
        params = ou.OUParams(lam=pair["lam"], omega=pair["omega"], T=pair["T"])

        def verify(m):
            return ou.verify_denominator_identity(params, ou.GridSpec(m=m), seed=pair["seed"],
                                                  n_paths=VERIFY_PATHS)
        coarse = rec.report(lambda: verify(pair["m"]))
        fine = rec.report(lambda: verify(10 * pair["m"]))
        with rec.checking():
            rec.check("report residual shrinks", fine.mean_abs_residual < coarse.mean_abs_residual)

    wd = inp["workdir"]
    rates = os.path.join(wd, "rates.csv")
    samples = os.path.join(wd, "ou.csv")
    common = [f"--lambda={base.lam!r}", f"--omega={base.omega!r}"]
    codes = [
        run_cli(["ou-rate", *common, "--T", ",".join(str(t) for t in RATE_T),
                 "--dt", str(RATE_DT), "-o", rates, "--assert"]),
        run_cli(["ou-sample", *common, "--T", str(OU_SAMPLE_T), "--dt", str(RATE_DT),
                 "-N", str(OU_SAMPLE_N), "--seed", str(inp["cli_seed"]), "-o", samples]),
    ]
    with rec.checking():
        for code in codes:
            rec.check("cli exit 0", code == 0)
        rec.check("cli ou-rate rows", csv_rows(rates) == len(RATE_T))
        rec.check("cli ou-sample rows", csv_rows(samples) == OU_SAMPLE_N)


# -- fbm_sweep ---------------------------------------------------------------------------

FBM_H = 0.7
FBM_T = [50.0, 100.0, 200.0]
FBM_DT = 0.2
INNER_COUNT = 220                       # 220 fractional pairings per body


def fbm_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    inner = []
    for i in range(INNER_COUNT):
        T = float(rng.uniform(1.0, 10.0))
        H = float(rng.uniform(0.55, 0.72))
        m = ladder(50, 400, i, INNER_COUNT)
        f = sp.Kernel(ou.GridSpec(m=m).space(T), 1, 0, np.ones(m))
        inner.append((f, ou.OUParams(lam=1.0, T=T, H=H)))
    return {
        "workdir": workdir,
        "lam": float(rng.uniform(0.9, 1.1)),
        "omega": float(rng.uniform(-0.5, 0.5)),
        "inner": inner,
    }


def fbm_sweep(inp: dict):
    base = ou.OUParams(lam=inp["lam"], omega=inp["omega"], T=1.0, H=FBM_H)
    return ou.rate_sweep(base, FBM_T, dt=FBM_DT)


def fbm_body(inp: dict, rec: Recorder) -> None:
    table = fbm_sweep(inp)
    with rec.checking():
        rec.check("fractional slope", close(table.slope_gap, 2.0 * (4.0 * FBM_H - 3.0), 0.15))
    for f, params in inp["inner"]:
        value = rec.report(lambda: ou.fbm_inner(f, f, params))
        exact = params.T ** (2.0 * params.H)
        with rec.checking():
            rec.check("fbm_inner constant kernel", close(value, exact, 1e-12 * exact))


WORKLOADS = {
    "ou_experiment": (ou_inputs, ou_body),
    "chaos_kernels": (chaos_inputs, chaos_body),
    "fbm_sweep": (fbm_inputs, fbm_body),
}
