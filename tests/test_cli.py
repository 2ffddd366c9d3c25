"""Command-line surface: worked reports, exit codes, file round trips."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import cwchaos
from cwchaos import chaos, cli, ou, space
from cwchaos.chaos import ChaosVariable, chaos_to_json
from cwchaos.cli import main
from cwchaos.space import Kernel, SpaceSpec, kernel_to_json, save_kernel

from conftest import random_kernel, random_space

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
    monkeypatch.setattr(space.np, "tensordot", lambda *a, **k: pytest.fail("contracted past the cap"))
    assert main(["bound", "--kernel", str(path)]) == 2
    assert "cap" in capsys.readouterr().err


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
