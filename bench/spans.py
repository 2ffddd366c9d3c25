"""Span recorder for the traced benchmark run.

Wrappers are installed from the benchmark's own files, around calls into the
public functions of each cwchaos module; the library source is not edited.
A wrapper replaces every name under which a cwchaos module binds the function
(``cwchaos.space.contract``, ``cwchaos.chaos.contract``, ...), so calls made
inside the library are recorded too.  A function that does not exist records
zero calls instead of failing.

Spans are kept in memory as (id, parent id, name, start, end) and written as
JSON lines when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, start, time spent in children]

    def open(self) -> list:
        frame = [len(self.spans) + len(self._stack), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, start, child = frame
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, start, end))
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        frame = self.open()
        try:
            yield
        finally:
            self.close(frame, name)

    def top_level_s(self, since: int = 0) -> float:
        """Summed duration of the spans without a parent, from span index ``since``."""
        return sum(end - start for _, parent, _, start, end in self.spans[since:] if parent < 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def wrap(tracer: Tracer, fn, namer, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = namer(args, kwargs)
        frame = tracer.open()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(frame, name)
        if counter is not None:
            for key, value in counter(args, kwargs, out).items():
                if key.endswith("_max"):
                    tracer.counts[key] = max(tracer.counts[key], value)
                else:
                    tracer.counts[key] += value
        return out
    return wrapper


# -- what gets wrapped -------------------------------------------------------------


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _file_bytes(pos, key, counter_name):
    def count(args, kwargs, out):
        path = _arg(args, kwargs, pos, key)
        return {counter_name: os.path.getsize(path)}
    return count


def _sample_numerator_counts(args, kwargs, out):
    grid = _arg(args, kwargs, 1, "grid")
    n = _arg(args, kwargs, 2, "N")
    found = re.search(r"block=(\d+)", out.meta)
    block = min(int(found.group(1)), n) if found else n
    return {
        "ou.sample_numerator.samples": n,
        # computed, not measured: the complex Gaussian innovations any exact
        # O(m N) sampler of this law must draw, 16 B per grid node and sample
        "ou.sample_numerator.bytes_computed": 16 * grid.m * n,
        # size of one complex (m x block) array of the sampler's block loop
        "ou.sample_numerator.block_mb_max": 16 * grid.m * block / 2**20,
    }


def _rate_sweep_counts(args, kwargs, out):
    base = _arg(args, kwargs, 0, "base")
    if base.H == 0.5:
        return {}
    # computed, not measured: eleven complex m x m products of 8 m^3 real
    # flops each per horizon, the dense fractional path of the seed commit
    return {"ou.fractional.flops_computed": sum(88.0 * row.m ** 3 for row in out.rows)}


def _const(name):
    return lambda args, kwargs: name


def _fourth_gap_name(args, kwargs):
    return "chaos.fourth_gap." + str(_arg(args, kwargs, 1, "route", "v1"))


def _cli_name(args, kwargs):
    return "cli.main." + str(_arg(args, kwargs, 0, "argv")[0])


# (module, attribute, span namer, counter)
TARGETS = [
    ("cwchaos.space", "contract", _const("space.contract"), None),
    ("cwchaos.space", "symmetrize", _const("space.symmetrize"), None),
    ("cwchaos.space", "inner_product", _const("space.inner_product"), None),
    ("cwchaos.space", "load_kernel", _const("space.kernel_io"),
     _file_bytes(0, "path", "space.kernel_io.bytes")),
    ("cwchaos.space", "save_kernel", _const("space.kernel_io"),
     _file_bytes(1, "path", "space.kernel_io.bytes")),
    ("cwchaos.space", "kernel_from_json", _const("space.kernel_io"), None),
    ("cwchaos.space", "kernel_to_json", _const("space.kernel_io"), None),
    ("cwchaos.chaos", "fourth_gap", _fourth_gap_name, None),
    ("cwchaos.chaos", "multiply", _const("chaos.multiply"), None),
    ("cwchaos.chaos", "third_moments_closed", _const("chaos.third_moments_closed"), None),
    ("cwchaos.chaos", "cov_abs_sq", _const("chaos.cov_abs_sq"), None),
    ("cwchaos.chaos", "moment_report", _const("chaos.moment_report"), None),
    ("cwchaos.bounds", "be_upper", _const("bounds.be_upper"), None),
    ("cwchaos.bounds", "be_upper_circular", _const("bounds.be_upper_circular"), None),
    ("cwchaos.bounds", "fmt_norms", _const("bounds.fmt_norms"), None),
    ("cwchaos.bounds", "be_upper_multivariate", _const("bounds.be_upper_multivariate"), None),
    ("cwchaos.sampling", "sample_chaos", _const("sampling.sample_chaos"),
     lambda a, k, out: {"sampling.sample_chaos.samples": out.values.size}),
    ("cwchaos.sampling", "hermite_hl", _const("sampling.hermite_hl"), None),
    ("cwchaos.sampling", "sample_gaussian", _const("sampling.sample_gaussian"), None),
    ("cwchaos.sampling", "sliced_wasserstein_2d", _const("sampling.sliced_wasserstein_2d"), None),
    ("cwchaos.sampling", "save_batch", _const("sampling.save_batch"),
     _file_bytes(1, "path", "sampling.save_batch.bytes")),
    ("cwchaos.ou", "sample_numerator", _const("ou.sample_numerator"), _sample_numerator_counts),
    ("cwchaos.ou", "lfilter", _const("ou.recursion"), None),
    ("cwchaos.ou", "verify_denominator_identity", _const("ou.verify_denominator_identity"), None),
    ("cwchaos.ou", "triangular_quantities", _const("ou.triangular_quantities"), None),
    ("cwchaos.ou", "rate_sweep", _const("ou.rate_sweep"), _rate_sweep_counts),
    ("cwchaos.ou", "fbm_gram", _const("ou.fbm_gram"), None),
    ("cwchaos.ou", "fbm_inner", _const("ou.fbm_inner"), None),
    ("cwchaos.cli", "main", _cli_name, None),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target under each name a cwchaos module binds it to.

    Returns the targets that do not exist; they record zero calls.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cwchaos" or name.startswith("cwchaos."))]
    missing = []
    for modname, attr, namer, counter in TARGETS:
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapper = wrap(tracer, fn, namer, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return missing
