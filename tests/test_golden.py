"""Regression against the committed golden verification reports.

Floats are compared at 1e-12 relative so the check survives BLAS and
libm differences across machines; structure and every other value must
match exactly.  Regenerate the goldens (after a triaged change only)
with the commands in the files' `config` echo.
"""

import json
from pathlib import Path

import pytest

from lipdisc import benchmarks
from lipdisc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def _compare(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


@pytest.mark.parametrize("name", benchmarks.names())
def test_verify_report_matches_golden(name, tmp_path, capsys):
    golden = json.loads((GOLDEN_DIR / f"{name}-order2.json").read_text())

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(benchmarks.load_dict(name)))
    out = tmp_path / "report.json"
    code = main(
        ["verify", str(spec_file), "--order", "2", "--seed", "42",
         "--pairs", "20000", "--grid", "21", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0

    fresh = json.loads(out.read_text())
    for doc in (golden, fresh):
        doc.pop("timestamp")
        doc["config"].pop("spec_path")  # differs by tmp dir
    _compare(fresh, golden)
