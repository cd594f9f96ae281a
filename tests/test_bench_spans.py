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

# spans whose function lipdisc deleted on purpose: the traced run reports
# them under missing_spans until the benchmark's target list drops them
RETIRED = {
    "linalg.max_singular_value",
    "linalg.tensor3_norm_surrogate",
    "expr.evaluate_batch",
    "system.eval_f",
    "system.second_derivative",
    "discretize.exact_step",
}


@pytest.mark.parametrize("span", sorted(set(TARGETS) - RETIRED))
def test_traced_span_resolves_to_a_lipdisc_function(span):
    module_name, attr, _ = TARGETS[span]
    assert module_name.split(".")[0] == "lipdisc"
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("span", sorted(RETIRED))
def test_retired_span_is_gone_from_lipdisc(span):
    module_name, attr, _ = TARGETS[span]
    owner_path, _, member = attr.rpartition(".")
    owner = importlib.import_module(module_name)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    assert not hasattr(owner, member)
