"""The benchmark's contract with the package: every span that a
workload in ``perfbench/workloads.py`` requires names a public function
of a ``polytoric`` module, the bindings the workloads rebind exist, and
one op of each workload passes the gates of a traced benchmark run.  A
name deleted or renamed in the package, or a traced function taken off
the call path, fails here instead of only in a full benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as a module, read and never written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load("workloads")


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


@pytest.mark.parametrize("name", ["verify_frame", "oracle_sweep"])
def test_one_traced_op_passes_the_gates(tmp_path, name):
    """One op under the benchmark's tracer: every span the workload
    predicts fires, and the result has the digests of
    ``perfbench/golden.json``.  The oracle op is the 3x3 configuration,
    the cheapest."""
    workloads, tracer = load_workloads(), load("tracer")
    pkg = SimpleNamespace(**{m: importlib.import_module(f"polytoric.{m}")
                             for m in tracer.MODULES + ("errors",)})
    golden = workloads.load_golden()
    if name == "verify_frame":
        workload, op = workloads.VerifyFrame(golden), None
    else:
        workload = workloads.OracleSweep(golden, tmp_path)
        op = ((0, 0), (3, 3), (1, 1), (2, 2))
    trace = tracer.Tracer()
    with trace:
        workload.setup(pkg)
        op = workload.ops()[0] if op is None else op
        result = workload.run_op(op)
    fired = {span[tracer.NAME] for span in trace.spans}
    assert [span for span in workload.spans if span not in fired] == []
    assert workload.check(op, result)
