"""Command-line surface: files in, reports out, CI-friendly exit codes.

Exit codes: 0 on success, 2 on validation failures (``InputError``, unreadable or non-JSON
files, flag values argparse refuses), 3 on tolerance/assertion failures (route disagreement,
slopes outside an asserted window, non-shrinking residuals, a gap outside its sandwich, a
failed circularity gate) and on a report with a non-finite number or sample.  ``_report`` is
the one exit path.  Any other exception is an internal fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import (
    CIRCULAR_TOL,
    NonCircularError,
    BoundInputs,
    be_lower_terms,
    be_upper,
    be_upper_circular,
    be_upper_multivariate,
    circularity_check,
    clt_conditions,
    contraction_sum_sq,
    fmt_norms,
    gap_sandwich_constants,
)
from .chaos import (
    ChaosVariable,
    ChaosVector,
    chaos_from_json,
    fourth_gap,
    moment_report,
)
from .ou import (
    GridSpec,
    OUParams,
    rate_sweep,
    sample_numerator,
    verify_denominator_identity,
)
from .sampling import SampleBatch, sample_chaos
from .space import InputError, SpaceError, load_kernel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3

#: Relative slack of the fmt-check gap sandwich, for the roundoff of its two sums.
SANDWICH_SLACK = 1e-10


def _load_chaos(path: str) -> ChaosVariable:
    with open(path) as fh:
        return chaos_from_json(json.load(fh))


def _load_vector(path: str) -> ChaosVector:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        comps = list(doc["components"])
    except (KeyError, TypeError) as exc:
        raise SpaceError(f"vector file needs a 'components' list: {exc}") from exc
    out = []
    for entry in comps:
        if not isinstance(entry, dict):
            raise SpaceError(f"vector component must be an object, not {entry!r}")
        if "terms" not in entry:
            # a bare single-order component {"p", "q", "kernel"} is a one-term chaos
            entry = {"constant_re": 0.0, "constant_im": 0.0, "terms": [entry]}
        out.append(chaos_from_json(entry))
    return ChaosVector(out)


def _json_finite(value):
    """``value`` with each non-finite float, in nested dicts and lists too (complex parts come
    as lists), made None: json.dumps would write the non-JSON tokens NaN and Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_finite(item) for item in value]
    return value


def _report(doc, args, text=None, gate=None) -> int:
    """Write a command's report to ``args.output`` (stdout if None or "-"): the CSV ``text``
    if given, else ``doc`` as JSON with null for each non-finite number; pick the exit code.

    The CLI's one exit path.  ``gate`` is the message of the command's own failed check, or
    None.  A ``doc`` with a NaN or an infinity anywhere, then a failed gate, each print one
    stderr line, and either exits 3."""
    try:
        body, failures = json.dumps(doc, indent=2, allow_nan=False), []
    except ValueError:                  # json's refusal of a NaN or an infinity
        body = json.dumps(_json_finite(doc), indent=2)
        failures = [f"non-finite numbers in the {args.command} report"]
    if text is not None:
        body = text
    if args.output is None or args.output == "-":
        sys.stdout.write(body if body.endswith("\n") else body + "\n")
    else:
        with open(args.output, "w") as fh:
            fh.write(body)
    failures += [] if gate is None else [gate]
    for line in failures:
        print(line, file=sys.stderr)
    return EXIT_TOLERANCE if failures else EXIT_OK


def _report_batch(batch: SampleBatch, args) -> int:
    """A sampler's exit: the batch's CSV, gated on every sample being finite."""
    finite = bool(np.isfinite(batch.values).all())
    return _report(None, args, batch.to_csv(), None if finite else "non-finite samples")


# -- subcommands -------------------------------------------------------------------


def cmd_moments(args) -> int:
    rep = moment_report(load_kernel(args.kernel))
    spread = rep.route_spread()
    gate = None if spread <= args.tol else (    # NaN fails
        f"route disagreement {spread:.3e} > {args.tol:.1e}")
    return _report(rep.to_json(), args, gate=gate)


def cmd_bound(args) -> int:
    if args.vector is not None:
        rep = be_upper_multivariate(_load_vector(args.vector), circular_tol=args.circular_tol)
        return _report(rep.to_json(), args)
    kern = load_kernel(args.kernel)
    inputs = BoundInputs.from_kernel(kern)
    doc = {
        "sigma_sq": inputs.sigma_sq,
        "pseudo_re": inputs.a,
        "pseudo_im": inputs.b,
        "lambda1": inputs.lambda1,
        "lambda2": inputs.lambda2,
        "l": inputs.l,
        "be_upper": be_upper(kern),
        "lower_terms": dict(zip(
            ("abs_third", "abs_third_mixed", "contraction_sum_sq"), be_lower_terms(kern))),
        "lower_terms_note": "lower-bound candidates up to an unspecified constant",
        "fmt_norms": {f"{i},{j}": v for (i, j), v in sorted(fmt_norms(kern).items())},
    }
    try:
        doc["be_upper_circular"] = be_upper_circular(kern, circular_tol=args.circular_tol)
    except NonCircularError:
        doc["be_upper_circular"] = None     # not a number: no bound for this kernel
    return _report(doc, args)


def cmd_fmt_check(args) -> int:
    kern = load_kernel(args.kernel)
    table = fmt_norms(kern)
    c1, c2 = gap_sandwich_constants(kern.p, kern.q)
    csum = contraction_sum_sq(kern)
    c1_sum, gap, c2_sum = c1 * csum, fourth_gap(kern, "v1"), c2 * csum
    sandwich = {"c1_sum": c1_sum, "gap": gap, "c2_sum": c2_sum}
    doc = {"fmt_norms": {f"{i},{j}": v for (i, j), v in sorted(table.items())}, **sandwich}
    lines = ["i,j,norm"] + [f"{i},{j},{v!r}" for (i, j), v in sorted(table.items())]
    lines += [f"# {key}={value!r}" for key, value in sandwich.items()]
    # the main theorem's sandwich c1 sum <= gap <= c2 sum of the contraction norms
    ok = c1_sum <= gap * (1 + SANDWICH_SLACK) and gap <= c2_sum * (1 + SANDWICH_SLACK)  # NaN fails
    gate = None if ok else (
        f"gap sandwich violated: c1_sum={c1_sum!r}, gap={gap!r}, c2_sum={c2_sum!r}")
    return _report(doc, args, "\n".join(lines) + "\n" if args.format == "csv" else None, gate)


def cmd_clt_check(args) -> int:
    return _report(clt_conditions(_load_chaos(args.chaos), M=args.truncate).to_json(), args)


def cmd_circularity(args) -> int:
    rep = circularity_check(_load_vector(args.vector), tol=args.tol)
    gate = None if rep.passed else (f"max |E F^j F^r| = {rep.max_abs:.3e} exceeds"
                                     f" {rep.tol:.1e} x the largest component variance")
    return _report(rep.to_json(), args, gate=gate)


def cmd_sample(args) -> int:
    if args.kernel is not None:
        F = ChaosVariable.from_kernel(load_kernel(args.kernel))
    else:
        F = _load_chaos(args.chaos)
    return _report_batch(sample_chaos(F, args.n, args.seed), args)


def cmd_ou_rate(args) -> int:
    base = OUParams(lam=args.lam, omega=args.omega, T=args.T[0], H=args.hurst)
    table = rate_sweep(base, args.T, dt=args.dt)
    gate = None
    if args.check:
        ok = abs(table.slope_gap - args.gap_slope) <= args.slope_tol
        if table.slope_e3_mixed is not None and base.H == 0.5:
            ok = ok and abs(table.slope_e3_mixed - args.mixed_slope) <= args.slope_tol
        if not ok:
            gate = (f"slopes outside window: gap={table.slope_gap:.3f} (target {args.gap_slope}"
                    f" +- {args.slope_tol}), e3_mixed={table.slope_e3_mixed}")
    return _report(asdict(table), args, table.to_csv(), gate)


def cmd_ou_verify(args) -> int:
    if args.check and len(args.dt) < 2:
        raise InputError("--assert needs at least two --dt spacings to compare residuals")
    params = OUParams(lam=args.lam, omega=args.omega, T=args.T)
    grids = [GridSpec.from_spacing(args.T, dt) for dt in args.dt]  # all checked before any path
    reports = [verify_denominator_identity(params, grid, seed=args.seed, n_paths=args.paths)
               for grid in grids]
    means = [r.mean_abs_residual for r in reports]
    gate = None
    if args.check and not all(b < a for a, b in zip(means, means[1:])):  # NaN fails
        gate = f"residuals did not shrink across dt list: {means}"
    return _report([r.to_json() for r in reports], args, gate=gate)


def cmd_ou_sample(args) -> int:
    params = OUParams(lam=args.lam, omega=args.omega, T=args.T)
    grid = GridSpec.from_spacing(args.T, args.dt)
    return _report_batch(sample_numerator(params, grid, N=args.n, seed=args.seed), args)


# -- parser ----------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    """Comma-separated floats; argparse reports a bad entry and exits 2."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def _command(sub, name: str, func, help: str, sampler: bool = False):
    """A subcommand writing to ``-o``, stdout if omitted or "-"; a sampler's batch of
    ``-N`` samples needs the option."""
    p = sub.add_parser(name, help=help)
    if sampler:
        p.add_argument("-N", "--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=sampler, default=None)
    p.set_defaults(func=func)
    return p


def _drift(p: argparse.ArgumentParser) -> None:
    """The OU commands' drift lam + i omega."""
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwchaos",
        description="Complex Wiener chaos calculus: moments, normal-approximation "
                    "bounds, sampling, and the Ornstein-Uhlenbeck application.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "moments", cmd_moments, "moment report for a kernel file (three gap routes)")
    p.add_argument("kernel")
    p.add_argument("--tol", type=float, default=1e-9, help="route agreement tolerance")

    p = _command(sub, "bound", cmd_bound, "Berry-Esseen bound report (kernel or vector file)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--vector")
    p.add_argument("--circular-tol", type=float, default=CIRCULAR_TOL)

    p = _command(sub, "fmt-check", cmd_fmt_check, "contraction-norm table of a kernel and the "
                                                  "gap sandwich (exit 3 if it fails)")
    p.add_argument("kernel")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = _command(sub, "clt-check", cmd_clt_check, "chaotic CLT condition tables for a chaos file")
    p.add_argument("chaos")
    p.add_argument("--truncate", type=int, default=8, help="tail-mass truncation order")

    p = _command(sub, "circularity", cmd_circularity, "pseudo-covariance check of a vector file")
    p.add_argument("vector")
    p.add_argument("--tol", type=float, default=CIRCULAR_TOL)

    p = _command(sub, "sample", cmd_sample, "Monte Carlo batch of a kernel/chaos file (CSV)",
                 sampler=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--kernel")
    g.add_argument("--chaos")

    p = _command(sub, "ou-rate", cmd_ou_rate, "horizon sweep of the decay-rate quantities (CSV)")
    _drift(p)
    p.add_argument("--hurst", type=float, default=0.5)
    p.add_argument("--T", type=_float_list, default="50,100,200,400,800",
                   help="comma-separated horizons")
    p.add_argument("--dt", type=float, default=0.05, help="grid spacing (fixed across T)")
    p.add_argument("--assert", dest="check", action="store_true",
                   help="exit 3 unless slopes fall in the target windows")
    p.add_argument("--gap-slope", type=float, default=-1.0)
    p.add_argument("--mixed-slope", type=float, default=-0.5)
    p.add_argument("--slope-tol", type=float, default=0.1)

    p = _command(sub, "ou-verify", cmd_ou_verify, "pathwise check of the |Z|^2 time-average "
                                                  "identity")
    _drift(p)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--dt", type=_float_list, default="0.1,0.01",
                   help="comma-separated spacings, coarse to fine")
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assert", dest="check", action="store_true",
                   help="exit 3 unless residuals shrink along the dt list")

    p = _command(sub, "ou-sample", cmd_ou_sample, "Monte Carlo batch of the normalized "
                                                  "numerator statistic", sampler=True)
    _drift(p)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
