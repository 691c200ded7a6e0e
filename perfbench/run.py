"""sdcprobe benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload cli-cnn-weight --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  For ``--seconds`` seconds the run repeats
set-ups and fixed rounds of work, checking every round's outputs.  It
prints the machine description, one line per metric and, as its last line,
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Metric definitions are in perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: the api workload's campaigns
# use two worker threads, and the machine this was sized on has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

# Set-ups are spread over the run, some before every round, so that slow
# and fast spells of a shared machine weigh on set-up and rounds alike.
SETUP_SECONDS_PER_ROUND, MAX_SETUPS_PER_ROUND = 0.1, 20


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import sdcprobe from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SOURCE, "sdcprobe", "__init__.py")):
        raise SystemExit(f"error: no sdcprobe package under {SOURCE}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, SOURCE)
    import sdcprobe
    if not os.path.abspath(sdcprobe.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"error: sdcprobe imported from {sdcprobe.__file__}, not {SOURCE}")


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # only once no other run uses it
    except OSError:
        pass


def machine_description(seed):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "workload_seed": seed}


class Run:
    """One workload's set-ups and rounds, with their checks."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.samples = defaultdict(list)
        self.first_digest = None

    def setups(self):
        """At least one set-up, repeated for a tenth of a second."""
        t0 = time.perf_counter()
        for _ in range(MAX_SETUPS_PER_ROUND):
            self.workload.setup(self.samples)
            if time.perf_counter() - t0 >= SETUP_SECONDS_PER_ROUND:
                break

    def round(self):
        self.workload.round(self.samples)
        self.check()

    def timed_pass(self, tracer=None):
        """One set-up and one round, traced when a tracer is given, then the
        round's checks; returns the wall seconds of set-up plus round."""
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.install()
            self.workload.setup(self.samples)
            self.workload.round(self.samples)
        finally:
            if tracer is not None:
                tracer.restore()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_pass()
        self.check()
        return wall

    def check(self):
        d = self.workload.check(self.checks)
        if self.first_digest is None:
            self.first_digest = d
        self.checks.expect(d == self.first_digest,
                           f"round outputs differ from the first round's: {d}")


def aggregate(name, pairs):
    """One end-to-end value from a run's (amount, seconds) samples.

    setup_s is the median set-up.  attribution_s is the fastest pass.  Rates
    are total work over total time, and other times are total time per pass.

    On a shared machine, other tenants slowed the benchmark by up to 2x in
    spells lasting from seconds to minutes.  Totals weigh every second of
    the run alike; the per-sample median jumped between runs more than they
    did.  Attribution passes repeat through the run, many and short on cli
    and fat, so each run has passes outside the spells: their fastest moved
    far less between runs than their total.
    """
    if name == "setup_s":
        return statistics.median(secs for _, secs in pairs)
    if name == "attribution_s":
        return min(secs / amount for amount, secs in pairs)
    amount = sum(a for a, _ in pairs)
    secs = sum(s for _, s in pairs)
    return amount / secs if name.endswith("_per_s") else secs / amount


def measure(run, seconds):
    """End-to-end metrics over interleaved set-ups and rounds."""
    t0 = time.perf_counter()
    while True:
        run.setups()
        run.round()
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = {name: aggregate(name, pairs) for name, pairs in run.samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def measure_traced(run, seconds):
    """Per-layer metrics from traced passes, alternated with untraced passes
    to measure what tracing costs."""
    from tracer import Tracer
    tracer = Tracer()
    run.timed_pass()  # first calls and lazy imports stay out of the comparison
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        untraced.append(run.timed_pass())
        traced.append(run.timed_pass(tracer))
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    return metrics


def listed_metrics(spec, metrics, trace):
    """The BENCHMARK.json metrics of one mode, with their units."""
    result = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        if m["name"] in metrics:
            value = metrics[m["name"]]
        elif m["name"].startswith("nnet.fwd."):
            value = 0.0  # this workload's model has no layer of that kind and shape
        else:
            raise RuntimeError(f"metric {m['name']} was not measured")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    return result


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, Checks

    print("environment " + json.dumps(machine_description(args.seed), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    checks = Checks()
    try:
        run = Run(WORKLOADS[args.workload](args.seed, workdir), checks)
        try:
            metrics = (measure_traced if args.trace else measure)(run, args.seconds)
        except Exception:  # noqa: BLE001 - an operation that raises counts as failed
            traceback.print_exc()
            checks.expect(False, "workload raised")
            return 1
    finally:
        remove_workdir(workdir)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"records digest {run.first_digest}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units.get(name, '')}".rstrip())
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"metric failed_ratio {ratio!r} ratio ({checks.failed} of {checks.attempted})")
    result = listed_metrics(spec, metrics, args.trace)
    print(json.dumps({"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
                      "failed": checks.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
