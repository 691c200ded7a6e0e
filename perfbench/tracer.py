"""Per-layer tracing from outside the package.

The tracer replaces public sdcprobe functions with timing wrappers at the
place where their callers look them up (a module attribute such as
``sdcprobe.campaign.evaluate_with_fault``, or a method on a class such as
``Linear.apply``), records one duration per call, and puts every original
back on ``restore``.  Spans inside the program do not exist yet, so what a
public call does internally (per-op backward time, for instance) is not
visible here.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

import sdcprobe.attribution
import sdcprobe.bitfloat
import sdcprobe.campaign
import sdcprobe.cli
import sdcprobe.data
import sdcprobe.fat
import sdcprobe.fault_model
import sdcprobe.nnet.autodiff
import sdcprobe.nnet.layers
import sdcprobe.nnet.training


def _layer_key(layer, x, *_):
    """Forward span name of one layer call: kind plus weight shape, or the
    per-sample input shape for layers without weights."""
    weight = getattr(layer, "weight", None)
    shape = weight.data.shape if weight is not None else np.shape(x)[1:]
    return f"nnet.fwd.{layer.kind}." + "x".join(str(int(d)) for d in shape)


def _eval_result(tracer, result):
    _, poisoned = result
    tracer.count("injector.poisoned", int(bool(poisoned)))


def _latency_result(tracer, result):
    tracer.count("fat.latency_evals", result.evaluations_needed)
    tracer.count("fat.censored_runs", int(result.censored))


def _campaign_result(tracer, result):
    tracer.count("campaign.records", len(result.records))


def _lookup_sites():
    """(owner, attribute, span name, result hook) for every wrapped call."""
    m = sdcprobe
    layers, training = m.nnet.layers, m.nnet.training
    sites = [
        (m.data, "synth_blobs", "data.synth_blobs", None),
        (m.cli, "synth_blobs", "data.synth_blobs", None),
        (m.cli, "cmd_train", "cli.train", None),
        (m.cli, "cmd_attribute", "cli.attribute", None),
        (m.cli, "cmd_campaign", "cli.campaign", None),
        (m.cli, "cmd_report", "cli.report", None),
        (m.cli, "save_checkpoint", "nnet.save_checkpoint", None),
        (m.cli, "load_checkpoint", "nnet.load_checkpoint", None),
        (layers.Model, "apply", "nnet.apply", None),
        (layers.Model, "forward_graph", "nnet.forward_graph", None),
        (layers.Model, "jvp", "attribution.jvp", None),
        (m.nnet.autodiff.ComputationGraph, "backward", "nnet.backward", None),
        (training.Adam, "step", "nnet.optimizer_step", None),
        (layers, "flip_bit_many", "bitfloat.flip", None),
        (m.bitfloat, "bit_weights", "bitfloat.bit_weights", None),
        (m.bitfloat, "bit_weights_many", "bitfloat.bit_weights", None),
        (m.attribution, "attribute_all", "attribution.attribute_all", None),
        (m.fat, "attribute_all", "attribution.attribute_all", None),
        (m.attribution, "save_attribution", "attribution.save", None),
        (m.attribution, "load_attribution", "attribution.load", None),
        (m.fault_model.FaultSampler, "sample_at", "fault_model.draw", None),
        (m.fault_model, "build_sampler", "fault_model.build_sampler", None),
        (m.campaign, "build_sampler", "fault_model.build_sampler", None),
        (m.fat, "build_sampler", "fault_model.build_sampler", None),
        (m.campaign, "evaluate_with_fault", "injector.eval", _eval_result),
        (m.fat, "evaluate_with_fault", "injector.eval", _eval_result),
        (m.campaign, "run_campaign", "campaign.run", _campaign_result),
        (m.campaign, "save_records", "campaign.save_records", None),
        (m.campaign, "report", "campaign.report", None),
        (m.campaign, "write_report_csvs", "campaign.report", None),
        (m.fat, "fat_train", "fat.fat_train", None),
        (m.fat, "measure_latency_to_critical", "fat.latency", _latency_result),
    ]
    sites += [(cls, "apply", _layer_key, None)
              for cls in (layers.Conv2d, layers.Linear, layers.Relu, layers.Flatten)]
    return sites


def wrap_targets():
    """(owner, attribute) of every function the tracer replaces."""
    return [(owner, attr) for owner, attr, _, _ in _lookup_sites()]


class Tracer:
    """Call durations and counts for the wrapped public functions.

    Durations are kept per pass (one set-up plus one round of a workload),
    so per-pass totals can be reported as medians over passes.
    """

    def __init__(self):
        self.passes = []          # one {span: [ns, ...]} per finished pass
        self.pass_counts = []     # one {counter: n} per finished pass
        self._spans = {}
        self._counts = {}
        self._saved = []
        self._lock = threading.Lock()

    def count(self, name, n=1):
        with self._lock:  # read-modify-write from campaign worker threads
            self._counts[name] = self._counts.get(name, 0) + n

    def _record(self, name, ns):
        # dict.setdefault and list.append are atomic under the interpreter
        # lock, so campaign worker threads can record concurrently
        self._spans.setdefault(name, []).append(ns)

    def _wrapper(self, original, name, on_result):
        record = self._record

        def traced(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                key = name(*args) if callable(name) else name
                record(key, time.perf_counter_ns() - t0)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, on_result in _lookup_sites():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, on_result))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_pass(self):
        self.passes.append(self._spans)
        self.pass_counts.append(self._counts)
        self._spans, self._counts = {}, {}

    # --- per-layer metrics -------------------------------------------------

    def _per_pass(self, fn):
        return statistics.median(fn(spans, counts)
                                 for spans, counts in zip(self.passes, self.pass_counts))

    def busy_s(self, name):
        """Median over passes of the seconds spent inside one span."""
        return self._per_pass(lambda spans, _: sum(spans.get(name, ())) / 1e9)

    def calls(self, name):
        """Median over passes of the call count of one span."""
        return self._per_pass(lambda spans, _: len(spans.get(name, ())))

    def counter(self, name):
        return self._per_pass(lambda _, counts: counts.get(name, 0))

    def us_quantile(self, name, q):
        """Quantile in microseconds over every call of one span in every pass."""
        pooled = [ns for spans in self.passes for ns in spans.get(name, ())]
        return float(np.percentile(pooled, q)) / 1e3 if pooled else 0.0

    def span_names(self):
        return sorted({name for spans in self.passes for name in spans})

    def metrics(self):
        """Every per-layer metric, including one forward p50 for each
        layer kind and shape seen."""
        out = {
            "fault_model.draws": self.calls("fault_model.draw"),
            "fault_model.draw_us_p50": self.us_quantile("fault_model.draw", 50),
            "fault_model.draw_busy_s": self.busy_s("fault_model.draw"),
            "fault_model.build_sampler_s": self.busy_s("fault_model.build_sampler"),
            "injector.evals": self.calls("injector.eval"),
            "injector.eval_us_p50": self.us_quantile("injector.eval", 50),
            "injector.eval_us_p99": self.us_quantile("injector.eval", 99),
            "injector.eval_busy_s": self.busy_s("injector.eval"),
            "nnet.apply_calls": self.calls("nnet.apply"),
            "nnet.apply_busy_s": self.busy_s("nnet.apply"),
            "nnet.forward_graph_busy_s": self.busy_s("nnet.forward_graph"),
            "nnet.backward_busy_s": self.busy_s("nnet.backward"),
            "nnet.optimizer_step_busy_s": self.busy_s("nnet.optimizer_step"),
            "nnet.optimizer_steps": self.calls("nnet.optimizer_step"),
            "nnet.save_checkpoint_s": self.busy_s("nnet.save_checkpoint"),
            "nnet.load_checkpoint_s": self.busy_s("nnet.load_checkpoint"),
            "bitfloat.flip_calls": self.calls("bitfloat.flip"),
            "bitfloat.flip_busy_s": self.busy_s("bitfloat.flip"),
            "bitfloat.bit_weights_s": self.busy_s("bitfloat.bit_weights"),
            "attribution.attribute_all_s": self.busy_s("attribution.attribute_all"),
            "attribution.jvp_busy_s": self.busy_s("attribution.jvp"),
            "attribution.save_s": self.busy_s("attribution.save"),
            "attribution.load_s": self.busy_s("attribution.load"),
            "campaign.run_s": self.busy_s("campaign.run"),
            "campaign.records": self.counter("campaign.records"),
            "campaign.save_records_s": self.busy_s("campaign.save_records"),
            "campaign.report_s": self.busy_s("campaign.report"),
            "fat.fat_train_s": self.busy_s("fat.fat_train"),
            "fat.latency_runs": self.calls("fat.latency"),
            "fat.latency_evals": self.counter("fat.latency_evals"),
            "fat.censored_runs": self.counter("fat.censored_runs"),
            "cli.train_s": self.busy_s("cli.train"),
            "cli.attribute_s": self.busy_s("cli.attribute"),
            "cli.campaign_s": self.busy_s("cli.campaign"),
            "cli.report_s": self.busy_s("cli.report"),
            "data.synth_blobs_s": self.busy_s("data.synth_blobs"),
        }
        evals = sum(len(s.get("injector.eval", ())) for s in self.passes)
        poisoned = sum(c.get("injector.poisoned", 0) for c in self.pass_counts)
        out["injector.poisoned_ratio"] = poisoned / evals if evals else 0.0
        # Every evaluation and draw of the campaign workloads happens inside
        # run_campaign, so campaign wall minus their busy time is the
        # engine's own cost (negative when two workers overlap).
        def engine(spans):
            run = sum(spans.get("campaign.run", ())) / 1e9
            inner = (sum(spans.get("injector.eval", ()))
                     + sum(spans.get("fault_model.draw", ()))) / 1e9
            return (run - inner if run else 0.0), (inner / run if run else 0.0)

        out["campaign.self_s"] = self._per_pass(lambda spans, _: engine(spans)[0])
        out["campaign.overlap"] = self._per_pass(lambda spans, _: engine(spans)[1])
        for name in self.span_names():
            if name.startswith("nnet.fwd."):
                out[f"{name}_us_p50"] = self.us_quantile(name, 50)
        return out
