"""Golden outputs: CLI reports on fixed inputs, compared number by number.

``tests/golden/`` holds what the CLI wrote for each case below, on the input
files in ``tests/golden/inputs/`` (random weighted n = 3 kernels of every
order 1 <= p + q <= 4, two circular kernels, two vectors and a chaos file).
A change that keeps behaviour reproduces every number to 1e-12 relative and
every piece of text exactly.  Numbers below 1e-13 in magnitude are roundoff
residuals (route spreads, first-chaos gaps) and compare absolutely at that
level.

A change that alters an output on purpose regenerates the file by running the
case's command and says why in its description.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from cwchaos.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

ORDERS = [(p, total - p) for total in range(1, 5) for p in range(total, -1, -1)]

# (golden file, expected exit code, argv); "{in}" is INPUTS, "{out}" the output file
CASES = (
    [(f"moments_{p}{q}.json", 0, ["moments", f"{{in}}/k{p}{q}.json", "-o", "{out}"])
     for p, q in ORDERS]
    + [(f"bound_{p}{q}.json", 0, ["bound", "--kernel", f"{{in}}/k{p}{q}.json", "-o", "{out}"])
       for p, q in ORDERS]
    + [(f"fmt_{p}{q}.json", 0, ["fmt-check", f"{{in}}/k{p}{q}.json", "-o", "{out}"])
       for p, q in ORDERS]
    + [(f"moments_circular_{p}{p}.json", 0,
        ["moments", f"{{in}}/circular_{p}{p}.json", "-o", "{out}"]) for p in (1, 2)]
    + [(f"bound_circular_{p}{p}.json", 0,
        ["bound", "--kernel", f"{{in}}/circular_{p}{p}.json", "-o", "{out}"]) for p in (1, 2)]
    + [
        ("bound_vector.json", 0, ["bound", "--vector", "{in}/vector_circular.json", "-o", "{out}"]),
        ("circularity_pass.json", 0,
         ["circularity", "{in}/vector_circular.json", "-o", "{out}"]),
        ("circularity_fail.json", 3,
         ["circularity", "{in}/vector_noncircular.json", "-o", "{out}"]),
        ("ou_rate_h050.csv", 0, ["ou-rate", "--lambda", "0.8", "--omega", "0.6",
                                 "--T", "20,40,80", "--dt", "0.1", "-o", "{out}"]),
        ("ou_rate_h070.csv", 0, ["ou-rate", "--lambda", "1.0", "--omega", "0.5", "--hurst", "0.7",
                                 "--T", "10,20,40", "--dt", "0.25", "-o", "{out}"]),
        ("ou_rate_h060.csv", 0, ["ou-rate", "--lambda", "0.7", "--omega=-1.3", "--hurst", "0.6",
                                 "--T", "20,40,80", "--dt", "0.2", "-o", "{out}"]),
        ("sample_k21.csv", 0, ["sample", "--kernel", "{in}/k21.json", "-N", "300",
                               "--seed", "11", "-o", "{out}"]),
        ("sample_chaos.csv", 0, ["sample", "--chaos", "{in}/chaos.json", "-N", "300",
                                 "--seed", "5", "-o", "{out}"]),
        ("ou_sample.csv", 0, ["ou-sample", "--lambda", "0.8", "--omega", "0.6", "--T", "5",
                              "--dt", "0.1", "-N", "300", "--seed", "3", "-o", "{out}"]),
    ]
)


def _json_leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_leaves(value, f"{path}/{key}")
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from _json_leaves(value, f"{path}/{idx}")
    else:
        yield path, doc


def _csv_leaves(text):
    for row, line in enumerate(text.splitlines(), start=1):
        for col, token in enumerate(re.split(r"[,=\s]+", line)):
            try:
                value = float(token)
            except ValueError:
                value = token
            yield f"line {row} field {col}", value


def _leaves(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return list(_json_leaves(json.loads(text)))
    return list(_csv_leaves(text))


@pytest.mark.parametrize("name, code, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, code, argv, tmp_path):
    out = tmp_path / name
    args = [a.replace("{in}", str(INPUTS)).replace("{out}", str(out)) for a in argv]
    assert main(args) == code

    expected, actual = _leaves(GOLDEN / name), _leaves(out)
    assert [p for p, _ in actual] == [p for p, _ in expected]
    for (where, want), (_, got) in zip(expected, actual):
        if isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
            if math.isnan(want):
                assert math.isnan(got), where
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13), where
        else:
            assert got == want, where
