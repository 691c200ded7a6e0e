"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

Checks that every workload emits every metric named in BENCHMARK.json in
both modes, that the record check catches a corrupted record, and that a
traced run puts back every function it wrapped, also when a round raises.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_package()

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
WORK = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def _run(name, trace):
    workdir = os.path.join(WORK, f"{name}-{trace}")
    os.makedirs(workdir, exist_ok=True)
    checks = workloads.Checks()
    r = run.Run(workloads.WORKLOADS[name](7, workdir, tiny=True), checks)
    metrics = (run.measure_traced if trace else run.measure)(r, 0.0)
    return r, checks, metrics


def _originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr in tracer.wrap_targets()}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_emitted_and_correct():
    listed_fwd = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("nnet.fwd.")}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            before = _originals()
            _, checks, metrics = _run(name, trace)
            assert _originals() == before, f"{name}: a wrapped function was not restored"
            assert checks.attempted > 0 and checks.failed == 0, (name, trace)
            result = run.listed_metrics(SPEC, metrics, trace)
            assert all(isinstance(v["value"], (int, float)) for v in result.values())
            if trace:
                assert metrics["injector.evals"] > 0, name
                seen = {k for k in metrics if k.startswith("nnet.fwd.")}
                assert seen and seen <= listed_fwd, (name, seen - listed_fwd)
            else:
                assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}, name
                assert all(v["value"] > 0 for v in result.values()), name


def test_corrupted_record_is_caught():
    r, _, _ = _run("api-cnn-output-wide", 0)
    w = r.workload
    records = list(w.results[0].records)
    clean = workloads.Checks()
    workloads.recheck_records(clean, w.model, w.test_set, records,
                              np.random.default_rng(0), count=len(records))
    assert clean.failed == 0
    records[3] = dataclasses.replace(records[3], faulty_accuracy=records[3].faulty_accuracy + 1.0)
    caught = workloads.Checks()
    workloads.recheck_records(caught, w.model, w.test_set, records,
                              np.random.default_rng(0), count=len(records))
    assert caught.failed == 1


class _RaisingRound:
    def setup(self, samples):
        pass

    def round(self, samples):
        raise RuntimeError("deliberate")


def test_traced_round_that_raises_restores():
    before = _originals()
    r = run.Run(_RaisingRound(), workloads.Checks())
    try:
        r.timed_pass(tracer.Tracer())
    except RuntimeError:
        pass
    else:
        raise AssertionError("the round should have raised")
    assert _originals() == before


def teardown_module():
    run.remove_workdir(WORK)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok {test.__name__}")
    finally:
        teardown_module()
    return 0


if __name__ == "__main__":
    sys.exit(main())
