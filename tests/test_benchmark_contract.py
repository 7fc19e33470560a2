"""The benchmark's contract with the package: every span that a
workload in ``perfbench/workloads.py`` requires names a public function
of a ``polytoric`` module, and the bindings the workloads rebind exist.
A name deleted or renamed in the package fails here instead of only in
a full benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOAD_SPANS = [
    (cls_name, span)
    for cls_name in ("VerifyFrame", "OracleSweep")
    for span in getattr(load_workloads(), cls_name).spans
]


@pytest.mark.parametrize("workload, span", WORKLOAD_SPANS)
def test_span_names_a_public_function(workload, span):
    short, name = span.split(".")
    module = importlib.import_module(f"polytoric.{short}")
    fn = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(fn), f"{workload} requires {span}"
    assert fn.__module__ == module.__name__, f"{span} is defined elsewhere"


# ``VerifyFrame`` rebinds the first two to capture their results, and
# builds its instance with the third.
@pytest.mark.parametrize("binding", [
    "verify.toric_generators",
    "verify.buchberger",
    "cli.instance_from_dict",
])
def test_rebound_names_are_bound(binding):
    short, name = binding.split(".")
    assert inspect.isfunction(getattr(importlib.import_module(f"polytoric.{short}"), name, None))
