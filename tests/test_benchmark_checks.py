"""One iteration of each benchmark workload, run in-process, passes the
benchmark's own checks: an estimate pushed out of its band fails here
before it fails a benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from projmi.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_iteration_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    outputs = []
    for argv in workload.calls:
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert main(list(argv)) == 0
        outputs.append(stream.getvalue())
    checks = workload.check(outputs)
    assert checks
    assert [c for c in checks if not c.ok] == []
