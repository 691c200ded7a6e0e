"""The benchmark's self-test, run as part of the test suite.

perfbench/selftest.py checks that every workload runs and emits its
metrics in both modes, and that the tracer's contract holds: the names it
wraps still exist and are put back, traced runs evaluate faults, and every
traced layer span is listed in BENCHMARK.json.  A refactor that renames or
stops calling a wrapped name fails here instead of only in a traced run.
"""

import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")


@pytest.fixture(scope="module")
def selftest():
    existed = os.path.exists(WORK)
    spec = importlib.util.spec_from_file_location(
        "perfbench_selftest", os.path.join(ROOT, "perfbench", "selftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    module.teardown_module()
    if not existed:
        shutil.rmtree(WORK, ignore_errors=True)


@pytest.mark.parametrize("name", [
    "test_workload_names_match_spec",
    "test_every_metric_emitted_and_correct",
    "test_corrupted_record_is_caught",
    "test_traced_round_that_raises_restores",
])
def test_perfbench_selftest(selftest, name):
    getattr(selftest, name)()
