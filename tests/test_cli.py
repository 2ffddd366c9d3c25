"""Command-line surface: worked reports, exit codes, file round trips."""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cwchaos
from cwchaos import chaos, cli, ou, sampling, space
from cwchaos.chaos import ChaosVariable, chaos_to_json
from cwchaos.cli import main
from cwchaos.space import Kernel, SpaceSpec, kernel_to_json, save_kernel

from conftest import count_contractions, random_kernel, random_space

INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture
def files(tmp_path):
    sp = SpaceSpec.orthonormal(4)
    k11 = tmp_path / "k11.json"
    k12 = tmp_path / "k12.json"
    save_kernel(Kernel.basis(sp, (0,), (0,)), k11)
    save_kernel(Kernel.basis(sp, (0,), (1,)), k12)
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"components": [
        {"p": 1, "q": 1, "kernel": kernel_to_json(Kernel.basis(sp, (0,), (1,)))},
        {"p": 1, "q": 1, "kernel": kernel_to_json(Kernel.basis(sp, (2,), (3,)))},
    ]}))
    chaos = tmp_path / "chaos.json"
    F = (ChaosVariable.from_kernel(Kernel.basis(sp, (0,), ()))
         + ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (1,))))
    chaos.write_text(json.dumps(chaos_to_json(F)))
    return tmp_path


def test_moments_worked(files, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["moments", str(files / "k11.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gap_v1"] == pytest.approx(6.0)
    assert doc["third_re"] == pytest.approx(2.0)
    assert doc["route_spread"] <= 1e-9

    assert main(["moments", str(files / "k12.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gap_v1"] == pytest.approx(2.0)
    assert doc["pseudo_re"] == pytest.approx(0.0)


def test_moments_first_chaos_gap_zero(files, tmp_path):
    sp = SpaceSpec.orthonormal(2)
    path = tmp_path / "k1.json"
    save_kernel(Kernel.basis(sp, (0,), ()), path)
    out = tmp_path / "rep.json"
    assert main(["moments", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["gap_v1"] == pytest.approx(0.0, abs=1e-12)


def test_moments_missing_file(tmp_path):
    assert main(["moments", str(tmp_path / "nope.json")]) == 2


def test_moments_route_caps_dense_products(tmp_path, monkeypatch, capsys):
    # a 10^4-entry (2,2) kernel at n = 10 would need 10^8-entry product terms
    path = tmp_path / "k22.json"
    rng = np.random.default_rng(5)
    save_kernel(Kernel(SpaceSpec.orthonormal(10), 2, 2, rng.standard_normal(10 ** 4)), path)
    monkeypatch.setattr(chaos, "multiply", lambda *a, **k: pytest.fail("multiplied past the cap"))
    assert main(["moments", str(path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_moments_order_five_kernel(tmp_path, rng):
    # a (3,2) kernel at n = 3: its product terms have 3^10 = 59,049 entries
    path = tmp_path / "k32.json"
    save_kernel(random_kernel(rng, random_space(rng, 3, weighted=True), 3, 2), path)
    out = tmp_path / "rep.json"
    assert main(["moments", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["route_spread"] <= 1e-9


def test_non_integer_sizes_are_bad_input(tmp_path, capsys):
    # 4.7 and 1.9 were truncated to 4 and 1; a string is the wrong type
    doc = kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(4), (0,), (1,)))
    path = tmp_path / "k.json"
    for key, value in (("n", 4.7), ("p", 1.9), ("q", "1")):
        path.write_text(json.dumps({**doc, key: value}))
        assert main(["moments", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err
    chaos_doc = chaos_to_json(ChaosVariable.from_kernel(Kernel.basis(SpaceSpec.orthonormal(4),
                                                                     (0,), (1,))))
    chaos_doc["terms"][0]["p"] = 1.0
    path.write_text(json.dumps(chaos_doc))
    assert main(["clt-check", str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_oversized_degree_is_bad_input(tmp_path, capsys):
    # n^(p+q) at n = 3, p = 10^6 has too many digits to format; the degree is
    # refused first
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"n": 3, "p": 10 ** 6, "q": 0, "weights": [1.0] * 3,
                                "re": [0.0], "im": [0.0]}))
    assert main(["moments", str(path)]) == 2
    assert "kernel degree p + q must be at most 64" in capsys.readouterr().err


def test_closed_routes_cap_contractions(tmp_path, monkeypatch, capsys):
    # the "v1" gap of a (2,2) kernel at n = 20 contracts to 20^6 = 6.4e7 entries
    path = tmp_path / "k22.json"
    rng = np.random.default_rng(6)
    save_kernel(Kernel(SpaceSpec.orthonormal(20), 2, 2, rng.standard_normal(20 ** 4)), path)
    monkeypatch.setattr(space.np, "matmul", lambda *a, **k: pytest.fail("contracted past the cap"))
    assert main(["bound", "--kernel", str(path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_bound_forms_each_contraction_once(tmp_path, monkeypatch):
    # a (2,2) kernel has 17 distinct contractions: 7 in its table, 7 in the
    # phi_r groups of v1 and 3 in its third moments
    rng = np.random.default_rng(17)
    path = tmp_path / "k22.json"
    save_kernel(random_kernel(rng, random_space(rng, 6, weighted=True), 2, 2, symmetric=False),
                path)
    calls = count_contractions(monkeypatch)
    assert main(["bound", "--kernel", str(path), "-o", str(tmp_path / "bound.json")]) == 0
    assert calls[0] <= 17


def test_moments_nan_kernel(tmp_path, monkeypatch):
    # a NaN coefficient in a file is bad input; one that reaches the report
    # makes every route NaN, which must fail the tolerance gate
    doc = kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (1,)))
    doc["re"][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["moments", str(path)]) == 2

    sp = SpaceSpec.orthonormal(2)
    monkeypatch.setattr(cli, "load_kernel",
                        lambda _: Kernel(sp, 1, 1, np.array([[np.nan, 1.0], [0.0, 0.0]])))
    assert main(["moments", str(path), "-o", str(tmp_path / "rep.json")]) == 3
    # the report stays standard JSON: non-finite numbers are written as null
    text = (tmp_path / "rep.json").read_text()
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
    assert doc["route_spread"] is None and doc["gap_v1"] is None


def test_malformed_chaos_term_is_bad_input(tmp_path, capsys):
    sp = SpaceSpec.orthonormal(2)
    doc = chaos_to_json(ChaosVariable.from_kernel(Kernel.basis(sp, (0,), (1,))))
    del doc["terms"][0]["kernel"]
    path = tmp_path / "chaos.json"
    path.write_text(json.dumps(doc))
    assert main(["clt-check", str(path)]) == 2
    assert "chaos term needs 'p', 'q' and 'kernel'" in capsys.readouterr().err
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"components": [doc, 7]}))
    assert main(["circularity", str(vec)]) == 2


def test_internal_fault_is_not_bad_input(files, monkeypatch):
    # exit 2 means bad input; a bug inside the library propagates instead
    def broken(*args, **kwargs):
        raise TypeError("internal fault")

    monkeypatch.setattr(cli, "moment_report", broken)
    with pytest.raises(TypeError, match="internal fault"):
        main(["moments", str(files / "k11.json")])


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a flag value with exit 2
        return exc.code


def _kernel_doc(**changes) -> dict:
    return {**kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (1,))), **changes}


def _chaos_doc(**changes) -> dict:
    F = ChaosVariable.from_kernel(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (1,)))
    return {**chaos_to_json(F), **changes}


# bad inputs that would surface as numpy, json, codec or argparse errors if unchecked
_BAD_INPUTS = {
    "sample-negative-seed": (None, ["sample", "--kernel", "{k12}", "-N", "10", "--seed", "-1",
                                    "-o", "{out}"]),
    "ou-sample-negative-seed": (None, ["ou-sample", "--T", "5", "--dt", "0.1", "-N", "10",
                                       "--seed", "-1", "-o", "{out}"]),
    "text-coefficient": (json.dumps(_kernel_doc(re=["abc", 0.0, 0.0, 0.0])),
                         ["moments", "{path}"]),
    "ragged-weights": (json.dumps(_kernel_doc(weights=[[1.0], [1.0, 2.0]])),
                       ["moments", "{path}"]),
    "text-constant": (json.dumps(_chaos_doc(constant_re="abc")), ["clt-check", "{path}"]),
    "malformed-json": ("{not json", ["moments", "{path}"]),
    "binary-file": (bytes(range(256)), ["moments", "{path}"]),
    "text-horizon": (None, ["ou-rate", "--T", "10,abc"]),
    "text-spacing": (None, ["ou-verify", "--dt", "0.1,x"]),
}


@pytest.mark.parametrize("content, argv", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_exits_2(files, content, argv, capsys):
    path = files / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    names = {"k12": files / "k12.json", "out": files / "out.csv", "path": path}
    assert _exit_code([arg.format(**names) for arg in argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_internal_linalg_error_is_not_bad_input(monkeypatch):
    # numpy's LinAlgError is a ValueError, but no input of the CLI's is at fault
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "cholesky", broken)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        main(["ou-rate", "--hurst", "0.7", "--T", "10,20", "--dt", "0.5"])


def test_internal_shape_error_is_not_bad_input(files, monkeypatch):
    def broken(f):
        return np.ones(2) + np.ones(3)

    monkeypatch.setattr(cli, "fmt_norms", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["fmt-check", str(files / "k12.json")])


def test_ou_sample_caps_the_block_before_any_draw(tmp_path, monkeypatch, capsys):
    # m = 10^6 nodes keep 1024 columns per block: 61 x the entry cap
    monkeypatch.setattr(ou, "_complex_normal", lambda *a, **k: pytest.fail("drew past the cap"))
    assert main(["ou-sample", "--T", "50000", "--dt", "0.05", "-N", "100000",
                 "-o", str(tmp_path / "ou.csv")]) == 2
    assert "above the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sample", "--kernel", "{k}"], ["ou-sample", "--T", "5"]])
def test_samplers_cap_the_batch_size(files, monkeypatch, capsys, argv):
    # -N above the entry cap exits 2, naming the batch, before any draw
    monkeypatch.setattr(space, "ENTRY_CAP", 1000)
    for module in (sampling, ou):
        monkeypatch.setattr(module, "_block_rng", lambda *a: pytest.fail("drew past the cap"))
    argv = [arg.format(k=files / "k11.json") for arg in argv]
    assert main([*argv, "-N", "1001", "-o", str(files / "batch.csv")]) == 2
    assert "a batch of samples needs 1001 entries" in capsys.readouterr().err
    assert not (files / "batch.csv").exists()


def test_ou_verify_caps_the_draws_before_any_draw(monkeypatch, capsys):
    # dt = 1e-7 on [0, 5] is m = 5e7 nodes: a (5e7 x 100) draw, about 80 GB
    monkeypatch.setattr(ou, "_complex_normal", lambda *a, **k: pytest.fail("drew past the cap"))
    assert main(["ou-verify", "--T", "5", "--dt", "1e-7,1e-8"]) == 2
    assert "above the cap" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test-only dependency, used by the
    # exact Wasserstein oracle in tests/conftest.py
    code = ("import sys, cwchaos; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cwchaos.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bound_kernel(files, tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--kernel", str(files / "k12.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["be_upper_circular"] == pytest.approx(16.0)
    assert doc["be_upper"] == pytest.approx(16.0)
    assert doc["fmt_norms"]["1,0"] == pytest.approx(1.0)
    assert doc["lower_terms"]["contraction_sum_sq"] == pytest.approx(2.0)


def test_bound_non_circular_kernel_reports_null(files, tmp_path):
    # e1 (x) conj-e1 has singular real covariance: validation failure
    assert main(["bound", "--kernel", str(files / "k11.json")]) == 2


def test_nan_circular_tol_fails_closed(tmp_path):
    # a non-circular kernel gets no circular bound, and a non-circular vector
    # no multivariate bound, whatever the tolerance; NaN compares False
    out = tmp_path / "bound.json"
    assert main(["bound", "--kernel", str(INPUTS / "k11.json"), "--circular-tol", "nan",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["be_upper_circular"] is None
    assert main(["bound", "--vector", str(INPUTS / "vector_noncircular.json"),
                 "--circular-tol", "nan"]) == 2


def test_bare_vector_component_checks_its_order(tmp_path, capsys):
    # the same check a chaos file's term gets: (2,0) on a (1,1) kernel is refused
    kern = kernel_to_json(Kernel.basis(SpaceSpec.orthonormal(2), (0,), (1,)))
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"components": [{"p": 2, "q": 0, "kernel": kern}]}))
    for argv in (["bound", "--vector", str(vec)], ["circularity", str(vec)]):
        assert main(argv) == 2
        assert "does not match" in capsys.readouterr().err


def test_bound_vector(files, tmp_path):
    out = tmp_path / "mv.json"
    assert main(["bound", "--vector", str(files / "vec.json"), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound"] == pytest.approx(4.0 * sqrt(2.0))
    assert doc["quartic_sum"] == pytest.approx(4.0)
    assert all(not t["active"] for t in doc["cross_terms"])


def test_fmt_check_csv(files, tmp_path):
    out = tmp_path / "fmt.csv"
    assert main(["fmt-check", str(files / "k12.json"), "--format", "csv",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,norm"
    assert "0,1,1.0" in lines and "1,0,1.0" in lines
    assert lines[-3:] == ["# c1_sum=2.0", "# gap=2.0", "# c2_sum=6.0"]


def test_fmt_check_fails_a_violated_sandwich(monkeypatch, capsys):
    # k20's sandwich is tight (c1 = c2), so either end moved by ten times the
    # slack breaks it; an inflated c1 breaks the loose sandwich of k22
    real = cli.gap_sandwich_constants
    for scale1, scale2, name in ((1 + 1e-9, 1.0, "k20"), (1.0, 1 - 1e-9, "k20"),
                                 (100.0, 1.0, "k22")):
        monkeypatch.setattr(cli, "gap_sandwich_constants",
                            lambda p, q: (real(p, q)[0] * scale1, real(p, q)[1] * scale2))
        assert main(["fmt-check", str(INPUTS / f"{name}.json")]) == 3
        assert "gap sandwich violated" in capsys.readouterr().err


def test_fmt_check_constant_kernel_is_bad_input(tmp_path, capsys):
    # a (0,0) kernel has no fourth-moment gap, as in `moments`
    path = tmp_path / "k00.json"
    save_kernel(Kernel.scalar(SpaceSpec.orthonormal(2), 1.0), path)
    assert main(["fmt-check", str(path)]) == 2
    assert "p + q >= 1" in capsys.readouterr().err


def test_fmt_check_nan_gap_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "fourth_gap", lambda f, route: float("nan"))
    out = tmp_path / "fmt.json"
    assert main(["fmt-check", str(INPUTS / "k21.json"), "-o", str(out)]) == 3
    doc = json.loads(out.read_text(), parse_constant=lambda t: pytest.fail(f"non-JSON token {t}"))
    assert doc["gap"] is None and doc["c1_sum"] > 0.0


def test_clt_check(files, tmp_path):
    out = tmp_path / "clt.json"
    assert main(["clt-check", str(files / "chaos.json"), "--truncate", "2",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["variances"] == {"1,0": 1.0, "1,1": 1.0}
    assert doc["tail_mass"] == 0.0


@pytest.mark.parametrize("order", ["-3", "0"])
def test_clt_check_truncation_below_one_is_bad_input(files, tmp_path, capsys, order):
    # chaos orders start at 1: a lower truncation reported the whole variance as tail
    out = tmp_path / "clt.json"
    assert main(["clt-check", str(files / "chaos.json"), "--truncate", order,
                 "-o", str(out)]) == 2
    assert "truncation order" in capsys.readouterr().err
    assert not out.exists()


def test_circularity_exit_codes(files, tmp_path):
    assert main(["circularity", str(files / "vec.json"), "-o",
                 str(tmp_path / "c.json")]) == 0
    bad = tmp_path / "bad_vec.json"
    sp = SpaceSpec.orthonormal(2)
    bad.write_text(json.dumps({"components": [
        {"p": 1, "q": 1, "kernel": kernel_to_json(Kernel.basis(sp, (0,), (0,)))}]}))
    assert main(["circularity", str(bad), "-o", str(tmp_path / "c2.json")]) == 3


def test_failed_circularity_gate_prints_one_line(files, tmp_path, capsys):
    sp = SpaceSpec.orthonormal(2)
    bad = tmp_path / "bad_vec.json"
    bad.write_text(json.dumps({"components": [
        {"p": 1, "q": 1, "kernel": kernel_to_json(Kernel.basis(sp, (0,), (0,)))}]}))
    assert main(["circularity", str(bad), "-o", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == (
        "max |E F^j F^r| = 1.000e+00 exceeds 1.0e-08 x the largest component variance\n")


def test_sample_with_a_non_finite_sample_exits_3(tmp_path, capsys):
    # a (2,2) kernel at n = 4 with every entry 1e307 is finite, but its Wick terms overflow;
    # the batch is still written, and the exit code says it is not all finite
    size = 4 ** 4
    kernel = tmp_path / "k.json"
    kernel.write_text(json.dumps({"n": 4, "p": 2, "q": 2, "weights": [1.0] * 4,
                                  "re": [1e307] * size, "im": [0.0] * size}))
    out = tmp_path / "batch.csv"
    with np.errstate(all="ignore"):
        assert main(["sample", "--kernel", str(kernel), "-N", "5", "-o", str(out)]) == 3
    assert capsys.readouterr().err == "non-finite samples\n"
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 5 and not all(math.isfinite(float(x)) for row in rows for x in row)


def test_samplers_write_a_batch_to_stdout(files, tmp_path, capsys):
    # "-o -" writes the batch to stdout, byte for byte the file
    for argv in (["sample", "--kernel", str(files / "k11.json"), "-N", "7"],
                 ["ou-sample", "--T", "5", "-N", "7"]):
        assert main([*argv, "-o", str(tmp_path / "batch.csv")]) == 0
        capsys.readouterr()
        assert main([*argv, "-o", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "batch.csv").read_text()


def _overflowing_files(tmp_path) -> dict:
    """Kernel, chaos and vector files of a (1,1) kernel on two unit-weight points with every
    entry 1e200: finite, so kernel_from_json accepts it, but its variance overflows to inf."""
    kern = _kernel_doc(re=[1e200] * 4, im=[0.0] * 4)
    docs = {"kernel": kern, "chaos": {"constant_re": 0.0, "constant_im": 0.0,
                                      "terms": [{"p": 1, "q": 1, "kernel": kern}]},
            "vector": {"components": [{"p": 1, "q": 1, "kernel": kern}]}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp_path / f"{name}.json") for name in docs}


def _strict_json(path) -> dict:
    return json.loads(path.read_text(), parse_constant=lambda t: pytest.fail(f"non-JSON token {t}"))


def test_circularity_fails_an_infinite_scale(tmp_path):
    # inf <= 1e-8 x inf would pass the gate; an infinite variance fails it, as NaN does
    out = tmp_path / "c.json"
    with np.errstate(all="ignore"):  # the overflow itself is the case under test
        assert main(["circularity", _overflowing_files(tmp_path)["vector"], "-o", str(out)]) == 3
    doc = _strict_json(out)
    assert doc["passed"] is False and doc["max_abs"] is None


@pytest.mark.parametrize("argv, code, nulls", [
    (["moments", "{kernel}"], 3, ["var_abs", "gap_v1", "route_spread"]),
    (["fmt-check", "{kernel}"], 3, ["fmt_norms.0,1", "fmt_norms.1,0", "gap", "c1_sum"]),
    (["clt-check", "{chaos}", "--truncate", "2"], 3,
     ["variances.1,1", "total_variance", "contractions.1,1.0,1"]),
    (["circularity", "{vector}"], 3, ["max_abs"]),
], ids=["moments", "fmt-check", "clt-check", "circularity"])
def test_json_commands_write_null_for_non_finite_numbers(tmp_path, argv, code, nulls):
    # every number that overflows is written as null, never as NaN or Infinity
    paths, out = _overflowing_files(tmp_path), tmp_path / "out.json"
    with np.errstate(all="ignore"):
        assert main([arg.format(**paths) for arg in argv] + ["-o", str(out)]) == code
    doc = _strict_json(out)
    for key in nulls:
        value = doc
        for part in key.split("."):
            value = value[part]
        assert value is None, key


def test_bound_of_an_overflowing_kernel_writes_nothing(tmp_path):
    # its covariance is NaN, so both bounds refuse it as bad input before any report
    paths, out = _overflowing_files(tmp_path), tmp_path / "out.json"
    with np.errstate(all="ignore"):
        assert main(["bound", "--kernel", paths["kernel"], "-o", str(out)]) == 2
        assert main(["bound", "--vector", paths["vector"], "-o", str(out)]) == 2
    assert not out.exists()


def test_bound_names_an_overflowing_covariance_non_finite(tmp_path, capsys):
    # lambda1 is NaN: the covariance is not finite, which is not the same as singular
    with np.errstate(all="ignore"):
        assert main(["bound", "--kernel", _overflowing_files(tmp_path)["kernel"]]) == 2
    err = capsys.readouterr().err
    assert "non-finite covariance" in err and "singular" not in err


def _scaled_kernel_file(tmp_path, name, factor, weight_factor=1.0) -> str:
    """A golden input with every kernel entry times ``factor`` and every weight
    times ``weight_factor``: finite, so the loaders accept it."""
    doc = json.loads((INPUTS / name).read_text())
    for kern in [c["kernel"] for c in doc["components"]] if "components" in doc else [doc]:
        kern["re"] = [factor * x for x in kern["re"]]
        kern["im"] = [factor * x for x in kern["im"]]
        kern["weights"] = [weight_factor * w for w in kern["weights"]]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_moments_of_a_large_kernel_fails_closed(tmp_path, capsys):
    # the "moments" route squared its norm as a float power, which raised
    # OverflowError; the infinite square makes the spread NaN, which fails the gate
    path = _scaled_kernel_file(tmp_path, "circular_11.json", 1e100)
    out = tmp_path / "rep.json"
    with np.errstate(all="ignore"):
        assert main(["moments", path, "-o", str(out)]) == 3
    assert "route disagreement" in capsys.readouterr().err
    assert _strict_json(out)["route_spread"] is None


def test_bound_kernel_with_a_non_finite_number_exits_3(tmp_path, capsys):
    # the report is written with null for be_upper, and the command fails
    path = _scaled_kernel_file(tmp_path, "circular_11.json", 1e100)
    out = tmp_path / "bound.json"
    with np.errstate(all="ignore"):
        assert main(["bound", "--kernel", path, "-o", str(out)]) == 3
    assert "non-finite numbers in the bound report" in capsys.readouterr().err
    assert _strict_json(out)["be_upper"] is None


def test_bound_vector_with_a_non_finite_number_exits_3(tmp_path, capsys):
    # entries x 1e100 keep the covariance finite (lambda_max 7e201) but overflow the
    # quartic sum: the report is written with nulls, and the command fails
    path = _scaled_kernel_file(tmp_path, "vector_circular.json", 1e100)
    out = tmp_path / "mv.json"
    with np.errstate(all="ignore"):
        assert main(["bound", "--vector", path, "-o", str(out)]) == 3
    assert "non-finite numbers in the bound report" in capsys.readouterr().err
    doc = _strict_json(out)
    assert doc["bound"] is None and doc["quartic_sum"] is None
    assert doc["lambda_max"] == pytest.approx(7.0e201, rel=0.1)


def test_bound_vector_checks_its_covariance_before_eigenvalues(tmp_path, capsys):
    # entries x 1e-300 and weights x 1e300 make the covariance NaN: bad input, not a
    # LinAlgError from eigvalsh, and not a non-circular vector
    path = _scaled_kernel_file(tmp_path, "vector_circular.json", 1e-300, 1e300)
    with np.errstate(all="ignore"):
        assert main(["bound", "--vector", path]) == 2
    err = capsys.readouterr().err
    assert "non-finite covariance" in err and "exceeds" not in err


def _real_scaled_file(tmp_path, name, factor) -> str:
    """A golden kernel with every entry replaced by factor x its modulus and no imaginary part."""
    doc = json.loads((INPUTS / name).read_text())
    doc["re"], doc["im"] = [factor * abs(x) for x in doc["re"]], [0.0] * len(doc["im"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, factor", [("k11.json", 1e80), ("k20.json", 1e100),
                                          ("k21.json", 1e120), ("k22.json", 1e80)])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fmt_check_of_an_overflowing_table_exits_3(tmp_path, capsys, name, factor, fmt):
    # every norm and the gap are +inf, and inf <= inf passed the sandwich with exit 0
    out = tmp_path / f"fmt.{fmt}"
    with np.errstate(all="ignore"):
        code = main(["fmt-check", _real_scaled_file(tmp_path, name, factor), "--format", fmt,
                     "-o", str(out)])
    assert code == 3
    assert "non-finite numbers in the fmt-check report" in capsys.readouterr().err
    if fmt == "json":
        assert _strict_json(out)["gap"] is None
    else:
        assert "# gap=inf" in out.read_text()


@pytest.mark.parametrize("check", [[], ["--assert"]])
def test_ou_verify_with_a_non_finite_number_exits_3(tmp_path, capsys, check):
    # lam = 1e-300 makes the mean part about 1e300 and the residual spread inf
    out = tmp_path / "verify.json"
    with np.errstate(all="ignore"):
        assert main(["ou-verify", "--lambda", "1e-300", "--T", "5", "--dt", "0.1,0.05",
                     "-o", str(out), *check]) == 3
    assert "non-finite numbers in the ou-verify report" in capsys.readouterr().err
    assert all(doc["diff_se"] is None for doc in _strict_json(out))


def test_circularity_with_an_infinite_tolerance_exits_3(tmp_path):
    out = tmp_path / "c.json"
    assert main(["circularity", str(INPUTS / "vector_circular.json"), "--tol", "inf",
                 "-o", str(out)]) == 3
    doc = _strict_json(out)
    assert doc["tol"] is None and doc["passed"] is True


def test_bound_kernel_keeps_a_finite_covariance_whose_squares_overflow(tmp_path, capsys):
    # sigma^2 = 2.9e201 and |E F^2| = 2.8e201 are finite, but a^2 + b^2 overflowed and the
    # covariance was refused as non-finite (exit 2); the gap does overflow, so exit 3
    out = tmp_path / "bound.json"
    with np.errstate(all="ignore"):
        assert main(["bound", "--kernel", _real_scaled_file(tmp_path, "k11.json", 1e100),
                     "-o", str(out)]) == 3
    assert "non-finite numbers in the bound report" in capsys.readouterr().err
    doc = _strict_json(out)
    assert doc["lambda1"] == pytest.approx(2.84e201, rel=1e-2)
    assert doc["be_upper"] is None and doc["be_upper_circular"] is None


def _rate_rows(argv) -> list[dict]:
    """The rows, as name -> float, of an ou-rate CSV written to stdout with exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    lines = [line for line in buf.getvalue().splitlines() if not line.startswith("#")]
    return [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]


def test_ou_rate_at_a_tiny_decay_per_step():
    # lam = 1e-17 rounded x = exp(-2 lam dt) to 1, and 1 - x divided by zero; at T = 1e-300
    # nu^4 and T^-2 overflowed.  Each field is a power of 1 / lam times a function of lam T,
    # omega T and m, so lam T = 1e-300 gives the same rows however it splits into lam and T
    rows = {lam: _rate_rows(["ou-rate", "--lambda", lam, "--T", T, "--dt", dt])
            for lam, T, dt in (("1e-17", "5,10", "0.5"), ("1", "1e-300,2e-300", "1e-301"),
                               ("1e-150", "1e-150,2e-150", "1e-151"))}
    assert all(math.isfinite(v) for row in rows["1e-17"] for v in row.values())
    for ra, rb in zip(rows["1"], rows["1e-150"]):
        assert 1e-150 * rb["var"] == pytest.approx(ra["var"], rel=1e-12)
        for name, power in (("gap", 2), ("fmt_10_sq", 2), ("e3_mixed", 1.5), ("be_upper", 0.5)):
            assert 1e-150 ** power * rb[name] == pytest.approx(ra[name], rel=1e-12), name


def test_fractional_rate_rows_at_extreme_horizons(capsys):
    # every field but var is scale-free: at T = 1e-300 (a cell Gram of 1e-421, 0 in
    # floats, failed the Cholesky) the row matches the one at the same lam h and m
    tiny = _rate_rows(["ou-rate", "--hurst", "0.7", "--T", "1e-300,2e-300", "--dt", "1e-301"])
    same = _rate_rows(["ou-rate", "--hurst", "0.7", "--lambda", "1e-280", "--T", "1e-20,2e-20",
                       "--dt", "1e-21"])
    for ra, rb in zip(tiny, same):
        assert ra["var"] == 0.0 and rb["var"] > 0.0           # 1e-542 rounds to 0
        for name in ("gap", "e3_mixed", "e3", "fmt_10_sq", "be_upper"):
            assert ra[name] == pytest.approx(rb[name], rel=1e-12), name
    # at T = 1e300 the variance overflows: written as inf, the command exits 3
    with np.errstate(all="ignore"):
        assert main(["ou-rate", "--hurst", "0.7", "--lambda", "1e-300", "--T", "1e300,2e300",
                     "--dt", "1e298"]) == 3
    out, err = capsys.readouterr()
    assert ",inf," in out and "non-finite numbers in the ou-rate report" in err


@pytest.mark.parametrize("argv", [["--T", "1e300,2e300", "--dt", "1e298"],
                                  ["--lambda", "1e300", "--T", "5,10", "--dt", "0.5"]])
def test_fractional_rate_refuses_an_underflowing_kernel(capsys, argv):
    # lam dt = 1e298 and 5e299: the cell Gram h^(2H) overflowed, or e^(-lam dt) = 0 made
    # var 0 and every field 0 / 0; both are refused, naming the limit
    assert main(["ou-rate", "--hurst", "0.7", *argv]) == 2
    assert "grid too coarse for the fractional kernel: lam dt = " in capsys.readouterr().err


def test_report_detects_non_finite_numbers_in_any_container(tmp_path, capsys):
    # json writes a tuple as a list; a NaN or inf inside one is still found and nulled
    args = argparse.Namespace(command="demo", output=str(tmp_path / "r.json"))
    assert cli._report({"t": (1.5, 2.0), "n": None, "ok": True}, args) == 0
    assert capsys.readouterr().err == ""
    assert cli._report({"t": (1.5, float("inf")), "rows": [{"x": float("nan")}]}, args) == 3
    assert capsys.readouterr().err == "non-finite numbers in the demo report\n"
    assert _strict_json(tmp_path / "r.json") == {"t": [1.5, None], "rows": [{"x": None}]}
    assert cli._report({"x": float("nan")}, args, text="x\nnan\n") == 3
    assert (tmp_path / "r.json").read_text() == "x\nnan\n"


def test_report_is_the_one_exit_path():
    # only _report prints a failed check and returns 3, so no command can write a report
    # and fail a gate past it; main prints the exit-2 errors
    tree = ast.parse(Path(cli.__file__).read_text())
    stderr, tolerance = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                stderr.add(getattr(top, "name", None))
            elif (isinstance(node, ast.Name) and node.id == "EXIT_TOLERANCE"
                    and isinstance(node.ctx, ast.Load)):
                tolerance.add(getattr(top, "name", None))
    assert stderr <= {"_report", "main"} and "_report" in stderr
    assert tolerance == {"_report"}


def _assert_boundary_rule(argv, out: Path, csv: bool = False) -> int:
    """The boundary rule on finite input: exit 0 with every number finite, 2 with an error
    line, or 3 with any report strict JSON; never a traceback (main would raise it here),
    and never exit 0 with a null, except the circular bound no non-circular kernel has."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _exit_code(argv + ["-o", str(out)])
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
    if not out.exists():
        assert code != 0, argv
        return code
    if csv:
        numbers = []
        for token in re.split(r"[,=\s]+", out.read_text()):
            try:
                numbers.append(float(token))
            except ValueError:
                pass
        assert code != 0 or all(map(math.isfinite, numbers)), argv
        return code
    leaves = list(_leaves(_strict_json(out)))
    assert code != 0 or all(value is not None for key, value in leaves
                            if key != "be_upper_circular"), argv
    return code


def _leaves(doc, key=None):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, key)
    else:
        yield key, doc


@settings(max_examples=80, derandomize=True, deadline=None)   # about 2.3 s on 2 cores
@given(order=st.integers(0, 4).flatmap(lambda total: st.tuples(st.integers(0, total),
                                                                st.just(total))),
       n=st.integers(1, 4), seed=st.integers(0, 2 ** 16), complex_entries=st.booleans(),
       scale=st.integers(-300, 300), weight=st.integers(-300, 300))
def test_kernel_commands_keep_the_boundary_rule(tmp_path_factory, order, n, seed,
                                                complex_entries, scale, weight):
    # entries 10^scale and weights 10^weight: finite, so every loader accepts them; only
    # real entries reach the all-infinite tables of fmt-check
    (p, total), rng = order, np.random.default_rng(seed)
    d = tmp_path_factory.mktemp("rule")
    weights = list(rng.uniform(0.5, 2.0, n) * 10.0 ** weight)     # one space for the vector

    def term():
        size = n ** total
        im = rng.standard_normal(size) if complex_entries else np.zeros(size)
        kernel = {"n": n, "p": p, "q": total - p, "weights": weights,
                  "re": list(rng.standard_normal(size) * 10.0 ** scale),
                  "im": list(im * 10.0 ** scale)}
        return {"p": p, "q": total - p, "kernel": kernel}

    first = term()
    (d / "k.json").write_text(json.dumps(first["kernel"]))
    (d / "c.json").write_text(json.dumps({"constant_re": 0.0, "constant_im": 0.0,
                                          "terms": [first]}))
    (d / "v.json").write_text(json.dumps({"components": [first, term()]}))
    with np.errstate(all="ignore"):
        for argv, csv in ((["moments", "{k}"], False), (["bound", "--kernel", "{k}"], False),
                          (["fmt-check", "{k}"], False),
                          (["fmt-check", "{k}", "--format", "csv"], True),
                          (["clt-check", "{c}"], False), (["bound", "--vector", "{v}"], False),
                          (["circularity", "{v}"], False),
                          (["sample", "--kernel", "{k}", "-N", "4"], True)):
            argv = [arg.format(k=d / "k.json", c=d / "c.json", v=d / "v.json") for arg in argv]
            _assert_boundary_rule(argv, d / "out", csv)


@settings(max_examples=100, derandomize=True, deadline=None)  # about 1.4 s on 2 cores
@given(lam=st.integers(-300, 300), omega=st.one_of(st.just(None), st.integers(-300, 300)),
       negative=st.booleans(), horizon=st.integers(-300, 300),
       hurst=st.sampled_from(["0.5", "0.7"]),
       m=st.integers(2, 32), spacings=st.tuples(st.integers(2, 64), st.integers(2, 64)),
       paths=st.integers(1, 10), check=st.booleans())
def test_ou_commands_keep_the_boundary_rule(tmp_path_factory, lam, omega, negative, horizon,
                                            hurst, m, spacings, paths, check):
    # --lambda 10^lam, --omega 0 or +-10^omega and horizons from 10^horizon, on grids of at
    # most 64 nodes; "--omega=" keeps a negative exponent form from reading as a flag
    drift = [f"--lambda={10.0 ** lam!r}", f"--omega={(-1) ** negative * 10.0 ** omega!r}"
             if omega is not None else "--omega=0"]
    T = 10.0 ** horizon
    out = tmp_path_factory.mktemp("rule") / "out"
    with np.errstate(all="ignore"):
        _assert_boundary_rule(["ou-rate", *drift, "--hurst", hurst, "--T", f"{T!r},{2 * T!r}",
                               "--dt", repr(T / m), *(["--assert"] * check)], out, csv=True)
        _assert_boundary_rule(["ou-verify", *drift, "--T", repr(T), "--dt",
                               ",".join(repr(T / k) for k in spacings), "--paths", str(paths),
                               *(["--assert"] * check)], out)
        _assert_boundary_rule(["ou-sample", *drift, "--T", repr(T), "--dt", repr(T / m),
                               "-N", "4"], out, csv=True)


def test_sample_writes_csv(files, tmp_path):
    out = tmp_path / "batch.csv"
    assert main(["sample", "--kernel", str(files / "k11.json"), "-N", "500",
                 "--seed", "9", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sample_chaos seed=9")
    assert lines[1] == "re,im"
    assert len(lines) == 502
    re0, im0 = map(float, lines[2].split(","))
    assert np.isfinite(re0) and np.isfinite(im0)


def test_samplers_require_output_before_sampling(files, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sampled without an output file")

    monkeypatch.setattr(cli, "sample_chaos", fail)
    monkeypatch.setattr(cli, "sample_numerator", fail)
    for argv in (["sample", "--kernel", str(files / "k11.json"), "-N", "10"],
                 ["ou-sample", "--T", "5", "-N", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_ou_rate_assert_pass_and_fail(tmp_path):
    out = tmp_path / "rate.csv"
    args = ["ou-rate", "--T", "25,50,100", "--dt", "0.1", "-o", str(out), "--assert"]
    assert main(args) == 0
    body = out.read_text()
    assert body.startswith("T,m,var,gap,e3_mixed,e3,fmt_10_sq,fmt_01_sq,be_upper")
    assert "# slope_gap=" in body
    assert main(args + ["--gap-slope", "-2.0"]) == 3


def test_ou_rate_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ou-rate", "--T", "25,50", "--dt", "0.1", "-o", str(a)]) == 0
    assert main(["ou-rate", "--T", "25,50", "--dt", "0.1", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_ou_verify_assert(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["ou-verify", "--T", "4", "--dt", "0.1,0.02", "--paths", "60",
                 "--seed", "1", "-o", str(out), "--assert"]) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    assert docs[1]["mean_abs_residual"] < docs[0]["mean_abs_residual"]


def test_ou_verify_assert_nan_residual_fails(monkeypatch):
    # NaN compares False both ways, so a NaN residual must not pass as shrinking
    real = cli.verify_denominator_identity
    monkeypatch.setattr(cli, "verify_denominator_identity", lambda *a, **k: dataclasses.replace(
        real(*a, **k), mean_abs_residual=float("nan")))
    assert main(["ou-verify", "--T", "4", "--dt", "0.1,0.02", "--paths", "10", "--assert"]) == 3


def test_ou_sweeps_need_two_points(monkeypatch, capsys):
    # one horizon gives no regression slope; one spacing gives nothing to assert
    assert main(["ou-rate", "--T", "50", "--dt", "0.1", "--assert"]) == 2
    assert "two horizons" in capsys.readouterr().err
    monkeypatch.setattr(cli, "verify_denominator_identity",
                        lambda *a, **k: pytest.fail("verified before validating"))
    assert main(["ou-verify", "--dt", "0.1", "--assert"]) == 2
    assert "--dt" in capsys.readouterr().err


def test_ou_verify_rejects_zero_paths(capsys):
    assert main(["ou-verify", "--dt", "0.1", "--paths", "0"]) == 2
    assert "n_paths" in capsys.readouterr().err


def test_ou_commands_reject_bad_spacing(tmp_path, capsys):
    # a spacing that is not positive and finite is bad input, not a division by zero
    out = str(tmp_path / "ou.csv")
    cases = [["ou-rate", "--T", "10,20", "--dt", "0"],
             ["ou-sample", "--T", "5", "--dt", "0", "-N", "10", "-o", out],
             ["ou-verify", "--T", "5", "--dt", "0,0.1"]]
    cases += [["ou-rate", "--T", "10,20", "--dt", dt] for dt in ("-0.1", "nan", "inf")]
    for argv in cases:
        assert main(argv) == 2
        assert "positive and finite" in capsys.readouterr().err
    # so coarse a spacing that the subdiagonal band would overflow
    coarse = [["ou-rate", "--T", "1200,2400", "--dt", "200"],
              ["ou-rate", "--lambda", "4", "--T", "800,1600", "--dt", "100"],
              ["ou-sample", "--lambda", "4", "--T", "800", "--dt", "200", "-N", "10", "-o", out]]
    for argv in coarse:
        assert main(argv) == 2
        assert "grid too coarse for the subdiagonal band: lam dt = " in capsys.readouterr().err


def test_ou_commands_reject_overflowing_node_count(tmp_path, capsys):
    # T / dt overflows to inf on a subnormal spacing: bad input, not an OverflowError
    out = str(tmp_path / "ou.csv")
    cases = [["ou-rate", "--T", "50,100", "--dt", "1e-320"],
             ["ou-sample", "--T", "5", "--dt", "1e-320", "-N", "10", "-o", out],
             ["ou-verify", "--dt", "0.1,1e-320"]]
    for argv in cases:
        assert main(argv) == 2
        assert "T / dt finite" in capsys.readouterr().err


def test_ou_sample(tmp_path):
    out = tmp_path / "ou.csv"
    assert main(["ou-sample", "--T", "5", "--dt", "0.1", "-N", "1000",
                 "--seed", "4", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sample_numerator")
    assert len(lines) == 1002


def test_bad_flags_validation(tmp_path):
    assert main(["ou-rate", "--T", "100,50", "--dt", "0.1"]) == 2  # not increasing
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["moments", str(bad)]) == 2
