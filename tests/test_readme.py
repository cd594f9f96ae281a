"""README's "Library use" block runs as written, so an export it uses
cannot leave the package unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(block, f"{README}: Library use", "exec"), namespace)
    assert namespace["est"].gamma_c > 0.0
    assert namespace["ok"] is True and namespace["value"] <= namespace["formula"]
    assert namespace["gamma_d"] > 0.0 and set(namespace["witness"]) == {"x1", "x2", "u"}
