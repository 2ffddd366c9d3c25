"""cwchaos benchmark: one workload, end-to-end metrics or traced layer metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every measurement runs in a fresh interpreter started by this
script (``worker.py``), one caller making sequential library calls, with the
BLAS thread count fixed to the number of usable cores.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh processes), the median wall time of the workload body over the
repetitions that fit in ``--seconds``, peak resident memory, and the median
and 90th percentile latency of one report of the workload's report mix.
``--trace 1`` prints the per-layer metrics of a traced run, next to an
untraced run of the same length for the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a copy of
the result with its provenance go to ``bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ou_experiment", "chaos_kernels", "fbm_sweep")
SETUP_ONLY_PROCESSES = 3          # plus the measuring process: setup_s is a median of 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "report_p50_ms": "ms",
    "report_p90_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".samples") or name == "trace.spans":
        return "count"
    if name.endswith(".bytes") or name.endswith(".bytes_computed"):
        return "B"
    if name.endswith(".samples_per_s"):
        return "1/s"
    if name.endswith("_mb_max"):
        return "MiB"
    if name.endswith(".flops_computed"):
        return "flop"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    return "s"


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.nproc = len(os.sched_getaffinity(0))
        self.blas_threads = self.nproc

    def spawn(self, mode: str, seconds: float = 0.0, blas_threads: int | None = None,
              importtime: bool = False) -> dict:
        threads = str(blas_threads or self.blas_threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(BENCH / "worker.py"), "--mode", mode, "--workload", self.workload,
            "--seed", str(self.seed), "--seconds", repr(seconds)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerError("out of time before starting a worker")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} worker exceeded the time limit") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        result["stderr"] = proc.stderr
        if mode in ("run", "trace") and not result["run_s"]:
            sys.stderr.write(proc.stderr)
            raise WorkerError(f"{mode} worker completed no repetition")
        return result


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    setups = [runner.spawn("setup") for _ in range(SETUP_ONLY_PROCESSES)]
    main = runner.spawn("run", seconds)
    lat = main["latencies_ms"]
    values = {
        "setup_s": statistics.median([w["setup_s"] for w in setups + [main]]),
        "run_s": statistics.median(main["run_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "report_p50_ms": statistics.median(lat),
        "report_p90_ms": statistics.quantiles(lat, n=10)[-1],
    }
    counts = {"repetitions": len(main["run_s"]), "reports": len(lat),
              "reports_beyond_p90": sum(x > values["report_p90_ms"] for x in lat)}
    return values, [main], counts


def import_share(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output, 0 if not imported."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e6
    return 0.0


def traced(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict]:
    reference = runner.spawn("run", seconds / 2)
    tr = runner.spawn("trace", seconds / 2, importtime=True)
    values = dict(tr["layers"])
    values["setup.import_s"] = tr["import_s"]
    values["setup.import_scipy_signal_s"] = import_share(tr["stderr"], "scipy.signal")
    values["setup.inputs_s"] = tr["inputs_s"]
    values["trace.run_s"] = statistics.median(tr["run_s"])
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(reference["run_s"])
    values["ou.fractional.sweep_1thread_s"] = 0.0
    if runner.workload == "fbm_sweep":
        values["ou.fractional.sweep_1thread_s"] = runner.spawn("sweep", blas_threads=1)["sweep_s"]
    counts = {"repetitions": len(tr["run_s"]), "reference_repetitions": len(reference["run_s"]),
              "missing_targets": tr["missing"]}
    return values, [reference, tr], counts


def l3_cache_mb() -> float | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 2**-10, "M": 1.0, "G": 2**10}.get(size[-1:], 2**-20)
                return float(size.rstrip("KMG")) * scale
        except OSError:
            pass
    return None


def provenance(runner: Runner, workers: list[dict], seconds: float, trace: int) -> dict:
    commit = "unknown"                 # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "nproc": runner.nproc,
        "l3_mb": l3_cache_mb(),
        "blas_threads": runner.blas_threads,
        **workers[-1]["versions"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cwchaos" / "__init__.py").is_file():
        print(f"error: no cwchaos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, workers, counts = traced(runner, args.seconds)
        else:
            values, workers, counts = end_to_end(runner, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = sorted({name for w in workers for name in w["failures"]})
    unit = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {unit(name)}")
    print(f"checks: {attempted} attempted, {failed} failed, failed_frac = {failed / attempted:.6g}")
    for name in failures:
        print(f"failed check: {name}")
    prov = provenance(runner, workers, args.seconds, args.trace)
    print("provenance: " + json.dumps({**prov, **counts}))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit(name)} for name in values},
    }
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "provenance": prov, "counts": counts}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
