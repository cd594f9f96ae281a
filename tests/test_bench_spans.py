"""The benchmark's traced run wraps lipdisc functions by name; a rename
must fail here, not only show up as a missing span in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_traced_span_resolves_to_a_lipdisc_function(span):
    module_name, attr, _ = TARGETS[span]
    assert module_name.split(".")[0] == "lipdisc"
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
