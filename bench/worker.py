"""One benchmark process: import cwchaos, make the inputs, run a workload.

Started by ``run.py`` in a fresh interpreter, one caller making sequential
library calls (a closed loop).  Modes:

* ``setup``  -- import and make inputs, then stop (set-up time samples);
* ``run``    -- repeat the workload body until ``--seconds`` have passed;
* ``trace``  -- as ``run``, with spans recorded around the library calls;
* ``sweep``  -- one pass of the fractional sweep (run with one BLAS thread).

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "sweep"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.monotonic()
    import cwchaos  # noqa: F401  -- the import every CLI call pays
    import_s = time.monotonic() - t0

    import numpy as np
    import scipy

    import workloads
    from spans import Tracer, install

    make_inputs, body = workloads.WORKLOADS[args.workload]
    workdir = ROOT / "bench_out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t1 = time.monotonic()
        inputs = make_inputs(args.seed, str(workdir))
        ready = time.monotonic()
        result = {"ready": ready, "import_s": import_s, "inputs_s": ready - t1}
        if args.mode == "sweep":
            t = time.perf_counter()
            workloads.fbm_sweep(inputs)
            result["sweep_s"] = time.perf_counter() - t
        elif args.mode in ("run", "trace"):
            tracer = Tracer() if args.mode == "trace" else None
            if tracer is not None:
                result["missing"] = install(tracer)
            result.update(repeat(body, inputs, args.seconds, workloads.Recorder(tracer)))
            if tracer is not None:
                result["layers"] = layer_metrics(tracer, result)
                tracer.write_jsonl(str(ROOT / "bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"))
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_vendor(np),
        }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def blas_vendor(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.26 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def repeat(body, inputs, seconds: float, rec) -> dict:
    """Run the body until ``seconds`` have passed, at least once.

    A body that raises counts as one failed check and ends the repetitions.
    """
    tracer = rec.tracer
    run_s, covered_s = [], []
    start = time.monotonic()
    while True:
        first_span = len(tracer.spans) if tracer is not None else 0
        t = time.perf_counter()
        try:
            body(inputs, rec)
        except Exception:
            traceback.print_exc()
            rec.check("body raised", False)
            break
        run_s.append(time.perf_counter() - t)
        if tracer is not None:
            covered_s.append(tracer.top_level_s(first_span))
        if time.monotonic() - start >= seconds:
            break
    return {
        "run_s": run_s,
        "covered_s": covered_s,
        "latencies_ms": rec.latencies_ms,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": sorted(set(rec.failures)),
    }


def layer_metrics(tracer, result: dict) -> dict:
    """Per-repetition layer figures of a traced run (values only; units in run.py)."""
    reps = max(len(result["run_s"]), 1)
    self_s, total_s, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def rate(numer: float, secs: float) -> float:
        return numer / secs if secs > 0 else 0.0

    out = {}
    for name in ("space.contract", "space.symmetrize", "space.inner_product",
                 "chaos.fourth_gap.moments", "chaos.multiply", "sampling.hermite_hl",
                 "ou.fbm_gram", "ou.recursion"):
        out[f"{name}.calls"] = calls[name] / reps
    for name in ("space.contract", "space.symmetrize", "space.inner_product",
                 "chaos.fourth_gap.moments", "chaos.fourth_gap.v1", "chaos.fourth_gap.v2",
                 "chaos.multiply", "chaos.third_moments_closed", "chaos.cov_abs_sq",
                 "chaos.moment_report",
                 "bounds.be_upper", "bounds.be_upper_circular", "bounds.fmt_norms",
                 "bounds.be_upper_multivariate",
                 "sampling.sample_chaos", "sampling.hermite_hl", "sampling.sample_gaussian",
                 "sampling.sliced_wasserstein_2d",
                 "ou.sample_numerator", "ou.verify_denominator_identity",
                 "ou.triangular_quantities", "ou.rate_sweep", "ou.fbm_gram", "ou.fbm_inner",
                 "bench.check"):
        out[f"{name}.self_s"] = self_s[name] / reps
    out["space.kernel_io.s"] = self_s["space.kernel_io"] / reps
    out["space.kernel_io.bytes"] = counts["space.kernel_io.bytes"] / reps
    out["sampling.save_batch.s"] = total_s["sampling.save_batch"] / reps
    out["sampling.save_batch.bytes"] = counts["sampling.save_batch.bytes"] / reps
    out["ou.recursion.s"] = total_s["ou.recursion"] / reps
    out["ou.rate_sweep.s"] = total_s["ou.rate_sweep"] / reps
    for name in ("sampling.sample_chaos", "ou.sample_numerator"):
        out[f"{name}.samples"] = counts[f"{name}.samples"] / reps
        out[f"{name}.samples_per_s"] = rate(counts[f"{name}.samples"], total_s[name])
    out["ou.sample_numerator.bytes_computed"] = counts["ou.sample_numerator.bytes_computed"] / reps
    out["ou.sample_numerator.block_mb_max"] = counts["ou.sample_numerator.block_mb_max"]
    out["ou.fractional.flops_computed"] = counts["ou.fractional.flops_computed"] / reps
    out["ou.fractional.gflops"] = rate(counts["ou.fractional.flops_computed"],
                                       self_s["ou.rate_sweep"]) / 1e9
    for command in ("moments", "bound", "sample", "ou-rate", "ou-sample"):
        out[f"cli.main.{command}.s"] = total_s[f"cli.main.{command}"] / reps
    run_s = sum(result["run_s"]) / reps
    covered = sum(result["covered_s"]) / reps
    out["trace.spans"] = len(tracer.spans) / reps
    out["trace.uncovered_s"] = run_s - covered
    return out


if __name__ == "__main__":
    sys.exit(main())
