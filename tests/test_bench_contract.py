"""The benchmark's use of the package: one op of every workload, in-process.

perfbench/workloads.py is imported as it stands (read-only).  Each workload
is set up, runs one traced op, and its correctness gate must report no
problem; every function the traced pass wraps must exist.  This catches a
signature or name change that would break the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_exist(workloads):
    for module, function, _ in workloads.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(module), function)), (module, function)


@pytest.mark.parametrize("name", ["roundtrip_p64", "unknown_l5", "certify_l5", "cli_p64"])
def test_one_op_passes_its_gate(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(1, str(tmp_path))
    out = wl.traced_op(state, workloads.OP, 0)
    assert wl.check(state, workloads.OP, 0, out) == []
