"""The benchmark's three workloads.

Each workload turns the workload seed into its data, model and campaign
seeds and offers three steps:

  setup(samples)   data generation plus model training or building;
  round(samples)   one fixed unit of measured work, timed by phase;
  check(checks)    correctness checks on what the last round produced,
                   returning a digest of its outputs.

A round always does the same work, so a run repeats rounds until its time
is spent, and requires every round's digest to equal the first one's.  Timed
phases append to ``samples``, a mapping from end-to-end metric name to a
list of (amount of work, seconds) pairs: steps or evaluations for a rate,
1 for one timed pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from sdcprobe import attribution, campaign, cli, data, fat, fault_model, injector, nnet
from sdcprobe.nnet.training import EVAL_BATCH

THRESHOLDS = (0.0, 0.05, 0.1)
PRECISION_THRESHOLD = 0.05
GUIDED_FACTOR = 3.0           # guided precision@0.05 >= 3x uniform
RECHECKED_PER_CAMPAIGN = 8    # records recomputed by the full path per campaign
# Attribution passes of a few milliseconds run several times per round, so
# that each round gives several samples of attribution_s.
ATTRIBUTION_REPEATS = 5


class Checks:
    """Counts correctness checks made and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


def derive_seeds(seed, count):
    """`count` distinct seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    seeds = []
    while len(seeds) < count:
        s = int(rng.integers(0, 2**31))
        if s not in seeds:
            seeds.append(s)
    return seeds


def _record_line(r):
    """Every column of a record except the wallclock measurement."""
    s = r.site
    cells = [r.experiment_code, r.seed, r.sample_ordinal, s.layer_id, s.target_kind,
             s.element_index, s.bit_index, repr(r.baseline_accuracy),
             repr(r.faulty_accuracy), repr(r.accuracy_drop), int(r.poisoned)]
    return ",".join(str(c) for c in cells + [int(f) for f in r.sdc_flags])


def digest(records, extra=()):
    """SHA-256 over the records' non-timing columns plus extra byte strings."""
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: (r.experiment_code, r.seed, r.sample_ordinal)):
        h.update(_record_line(r).encode() + b"\n")
    for chunk in extra:
        h.update(chunk)
    return h.hexdigest()


def _scores_bytes(amap):
    return b"".join(amap.scores[lid].tobytes() for lid in sorted(amap.scores))


def full_recompute(model, dataset, site):
    """(accuracy, poisoned) for one fault by the full-recompute public path:
    a fresh model copy with the weight bit XORed here, or Model.apply with
    the output fault passed explicitly."""
    if site.target_kind == "neuron_weight":
        faulty = model.copy()
        flat = faulty.layers[site.layer_id].weight.data.reshape(-1)
        flat.view(np.uint32)[site.element_index] ^= np.uint32(1) << np.uint32(site.bit_index)
        return nnet.evaluate_detailed(faulty, dataset)
    fault = nnet.ActivationFault(site.layer_id, site.element_index, site.bit_index)
    return nnet.evaluate_detailed(model, dataset, output_faults=[fault])


def recheck_records(checks, model, dataset, records, rng, count=RECHECKED_PER_CAMPAIGN):
    """Recompute a seeded sample of records; returns the sampled records."""
    picks = sorted(rng.choice(len(records), size=min(count, len(records)), replace=False))
    sample = [records[i] for i in picks]
    for r in sample:
        acc, poisoned = full_recompute(model, dataset, r.site)
        checks.expect(acc == r.faulty_accuracy and poisoned == r.poisoned,
                      f"{r.experiment_code} seed {r.seed} ordinal {r.sample_ordinal}: "
                      f"recomputed ({acc}, {poisoned}) != recorded "
                      f"({r.faulty_accuracy}, {r.poisoned})")
    return sample


def check_restore(checks, model, dataset, sites):
    """Injecting and removing each fault through the injector leaves the
    model bit-identical."""
    replica = model.copy()
    before = nnet.model_checksum(replica)
    for site in sites:
        injector.evaluate_with_fault(replica, dataset, site)
    checks.expect(nnet.model_checksum(replica) == before,
                  "model checksum changed after inject/remove")


def check_guided(checks, guided, uniform, where):
    checks.expect(guided is not None and uniform is not None
                  and guided >= GUIDED_FACTOR * uniform,
                  f"{where}: guided precision@{PRECISION_THRESHOLD} {guided} is not "
                  f">= {GUIDED_FACTOR}x uniform {uniform}")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class CliCnnWeight:
    """The README pipeline through ``sdcprobe.cli.main``, in process.

    One fault evaluation runs the forward pass on 45 images, so sampler
    draws, thread-pool futures, record building, CSV flushes and artifact
    I/O are a large share of a campaign's time.
    """

    name = "cli-cnn-weight"
    codes = ("GBINw", "RBRNw")
    epochs, batch_size, train_size = 12, 16, 135

    def __init__(self, seed, workdir, tiny=False):
        dseed, mseed, tseed, *cseeds = derive_seeds(seed, 8)
        self.budget = 10 if tiny else 200
        self.seeds = cseeds[:5]
        self.dir = workdir
        self.config = {
            "model": {"kind": "cnn", "input_shape": [1, 6, 6], "conv_channels": [3, 4],
                      "kernel": 3, "hidden": 16, "classes": 3, "seed": mseed},
            "dataset": {"kind": "blobs", "classes": 3, "samples_per_class": 60,
                        "dims": 36, "spread": 0.35, "seed": dseed,
                        "image_shape": [1, 6, 6], "center_scale": 0.5,
                        "test_fraction": 0.25},
            "train": {"epochs": self.epochs, "batch_size": self.batch_size, "lr": 0.01,
                      "optimizer": "adam", "seed": tseed},
            "attribute": {"target_kind": "neuron_weight"},
            "campaign": {"thresholds": list(THRESHOLDS), "sample_budget": self.budget,
                         "seeds": self.seeds, "workers": 1},
        }
        self.config_path = self._path("config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.check_rng_seed = seed

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _records_path(self, code):
        return self._path(f"{code}.csv")

    def _cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"sdcprobe {' '.join(argv)} exited {code}: {out.getvalue()}")

    def setup(self, samples):
        steps = self.epochs * -(-self.train_size // self.batch_size)
        _, secs = _timed(self._cli, "train", "--config", self.config_path,
                         "--out", self._path("model.ckpt"))
        samples["setup_s"].append((1, secs))
        samples["train_steps_per_s"].append((steps, secs))

    def round(self, samples):
        common = ("--config", self.config_path, "--checkpoint", self._path("model.ckpt"))
        for _ in range(ATTRIBUTION_REPEATS):
            _, secs = _timed(self._cli, "attribute", *common, "--out", self._path("attr.bin"))
            samples["attribution_s"].append((1, secs))
        for code in self.codes:
            guided = ("--attribution", self._path("attr.bin")) if code[2] == "I" else ()
            _, secs = _timed(self._cli, "campaign", *common, *guided, "--code", code,
                             "--out", self._records_path(code))
            samples["fault_evals_per_s"].append((len(self.seeds) * self.budget, secs))
        self._cli("report", *[self._records_path(c) for c in self.codes],
                  "--series-threshold", str(PRECISION_THRESHOLD), "--out", self._path("summary"))

    def check(self, checks):
        model = nnet.load_checkpoint(self._path("model.ckpt"))
        checksum = nnet.model_checksum(model)
        with open(campaign.meta_path_for(self._path("model.ckpt")), encoding="utf-8") as fh:
            checks.expect(json.load(fh)["model_checksum"] == checksum,
                          "checkpoint differs from the one training wrote")
        _, test_set = cli.build_datasets_from_config(self.config["dataset"])
        baseline, _ = nnet.evaluate_detailed(model, test_set)
        rng = np.random.default_rng(self.check_rng_seed)
        records, sampled = [], []
        for code in self.codes:
            recs, _ = campaign.load_records(self._records_path(code))
            checks.expect(len(recs) == len(self.seeds) * self.budget,
                          f"{code}: {len(recs)} records")
            checks.expect(all(r.baseline_accuracy == baseline for r in recs),
                          f"{code}: baseline accuracy differs from the checkpoint's")
            sampled += recheck_records(checks, model, test_set, recs, rng)
            records += recs
        check_restore(checks, model, test_set, [r.site for r in sampled])
        with open(self._path("summary_precision.csv"), encoding="utf-8", newline="") as fh:
            mean = {row["experiment_code"]: float(row["mean_precision"])
                    for row in csv.DictReader(fh)
                    if float(row["threshold"]) == PRECISION_THRESHOLD}
        check_guided(checks, mean.get("GBINw"), mean.get("RBRNw"), self.name)
        return digest(records)


class ApiCnnOutputWide:
    """Output-fault campaigns through ``run_campaign`` on a 1500-image set.

    Each evaluation runs the forward pass over 1500 images and flips one
    activation bit per sample, so the forward pass dominates, and two
    worker threads overlap.  Conductance exercises forward_graph, backward
    and jvp at batch 128.
    """

    name = "api-cnn-output-wide"
    codes = ("GBINo", "RBRNo")
    epochs, batch_size, train_size, test_size = 12, 16, 135, 1500

    def __init__(self, seed, workdir, tiny=False):
        self.dseed, self.mseed, self.tseed, *cseeds = derive_seeds(seed, 5)
        self.budget = 30 if tiny else 200
        self.seeds = cseeds[:2]
        self.check_rng_seed = seed

    def setup(self, samples):
        t0 = time.perf_counter()
        per_class = (self.train_size + self.test_size) // 3
        blobs = data.synth_blobs(3, per_class, dims=36, spread=0.35, seed=self.dseed,
                                 image_shape=(1, 6, 6), center_scale=0.5)
        self.train_set, self.test_set = data.train_test_split(
            blobs, test_fraction=self.test_size / len(blobs))
        self.model = nnet.build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=self.mseed)
        t1 = time.perf_counter()
        nnet.train(self.model, self.train_set, eval_set=self.test_set, epochs=self.epochs,
                   batch_size=self.batch_size, lr=0.01, optimizer="adam", seed=self.tseed)
        t2 = time.perf_counter()
        samples["setup_s"].append((1, t2 - t0))
        steps = self.epochs * -(-len(self.train_set) // self.batch_size)
        samples["train_steps_per_s"].append((steps, t2 - t1))

    def round(self, samples):
        self.amap, secs = _timed(attribution.attribute_all, self.model, self.test_set,
                                 attribution.AttributionConfig("neuron_output", steps=32))
        samples["attribution_s"].append((1, secs))
        probe = self.test_set.images[:EVAL_BATCH]
        self.results, self.checksums = [], []
        for code in self.codes:
            config = campaign.CampaignConfig(code=code, thresholds=THRESHOLDS,
                                             sample_budget=self.budget, seeds=self.seeds,
                                             workers=2)
            before = nnet.model_checksum(self.model)
            result, dt = _timed(campaign.run_campaign, self.model, self.test_set, config,
                                self.amap if code[2] == "I" else None, probe_images=probe)
            samples["fault_evals_per_s"].append((len(result.records), dt))
            self.results.append(result)
            self.checksums.append((before, nnet.model_checksum(self.model)))

    def check(self, checks):
        for code, (before, after) in zip(self.codes, self.checksums):
            checks.expect(before == after, f"{code}: model checksum changed by the campaign")
        rng = np.random.default_rng(self.check_rng_seed)
        records, sampled = [], []
        for code, result in zip(self.codes, self.results):
            checks.expect(len(result.records) == len(self.seeds) * self.budget,
                          f"{code}: {len(result.records)} records")
            sampled += recheck_records(checks, self.model, self.test_set, result.records, rng)
            records += result.records
        check_restore(checks, self.model, self.test_set, [r.site for r in sampled])
        index = THRESHOLDS.index(PRECISION_THRESHOLD)
        guided, uniform = (r.stats.precision[index] for r in self.results)
        check_guided(checks, guided, uniform, self.name)
        return digest(records, [_scores_bytes(self.amap)])


class FatMlp:
    """Fault-aware training, then latency-to-critical runs on the result.

    A batch-1 training step is nearly all tape and optimizer overhead.  The
    latency runs evaluate one fault at a time on a tiny model, with no pool
    and no record sink, so per-run set-up in the campaign engine shows.

    fat_train runs on the pinned fixture of acceptance test 11 (data seed
    5, model seed 4, training seed 4): the hardening gates checked below
    are that test's, and they hold for that fixture, not for every seed.
    The workload seed picks the latency runs' sampler seeds.
    """

    name = "fat-mlp"
    latency_threshold, criticals, budget_cap = 0.05, 3, 1000
    attributions_per_run = 2
    gate_clean, gate_faulted = 0.03, 0.02

    def __init__(self, seed, workdir, tiny=False):
        self.latency_seeds = derive_seeds(seed, 1 if tiny else 8)
        self.config = fat.FatConfig(code="GBINo", adversary_code="RBRNo", warmup_epochs=3,
                                    fat_epochs=10, faults_per_round=5,
                                    simulations_per_epoch=0, lr=0.01, batch_size=1,
                                    optimizer="adam", seed=4)

    def setup(self, samples):
        t0 = time.perf_counter()
        blobs = data.synth_blobs(3, 200, dims=12, spread=0.15, seed=5, center_scale=0.3)
        self.train_set, self.test_set = data.train_test_split(blobs, test_fraction=0.25)
        self.initial = nnet.build_mlp((1, 1, 12), [16], 3, seed=4)
        samples["setup_s"].append((1, time.perf_counter() - t0))

    def round(self, samples):
        c = self.config
        (self.model, self.report), secs = _timed(
            fat.fat_train, self.initial.copy(), self.train_set, self.test_set, c)
        # twin and main model each train warm-up plus FAT epochs
        steps = 2 * (c.warmup_epochs + c.fat_epochs) * -(-len(self.train_set) // c.batch_size)
        samples["train_steps_per_s"].append((steps, secs))
        probe = self.test_set.images[:EVAL_BATCH]
        self.checksum_before = nnet.model_checksum(self.model)
        self.latency, self.scores = [], set()
        for code in (c.code, c.adversary_code):
            for seed in self.latency_seeds:
                # Attribution passes before each latency run spread the
                # short passes over the whole round instead of one moment.
                for _ in range(self.attributions_per_run):
                    self.amap, secs = _timed(
                        attribution.attribute_all, self.model, self.test_set,
                        attribution.AttributionConfig("neuron_output", steps=32))
                    samples["attribution_s"].append((1, secs))
                    self.scores.add(_scores_bytes(self.amap))
                t0 = time.perf_counter()
                sampler = fault_model.build_sampler(
                    fault_model.SamplerConfig(code=code, seed=seed),
                    self.amap if code.needs_attributions else None, self.model,
                    probe_images=probe)
                result = fat.measure_latency_to_critical(
                    self.model, self.test_set, code, self.latency_threshold,
                    self.criticals, seed=seed, budget_cap=self.budget_cap, sampler=sampler)
                samples["fault_evals_per_s"].append(
                    (result.evaluations_needed, time.perf_counter() - t0))
                self.latency.append(result)

    def check(self, checks):
        rep = self.report
        checks.expect(abs(rep.post_fat_accuracy - rep.baseline_accuracy) <= self.gate_clean,
                      f"post-FAT accuracy {rep.post_fat_accuracy} vs baseline "
                      f"{rep.baseline_accuracy}")
        checks.expect(abs(rep.accuracy_under_trained_faults - rep.post_fat_accuracy)
                      <= self.gate_faulted,
                      f"accuracy under trained faults {rep.accuracy_under_trained_faults} "
                      f"vs post-FAT {rep.post_fat_accuracy}")
        for r in self.latency:
            if r.code == str(self.config.code):
                checks.expect(not r.censored, f"{r.code} latency run seed {r.seed} censored")
        checks.expect(nnet.model_checksum(self.model) == self.checksum_before,
                      "model checksum changed by the latency runs")
        checks.expect(len(self.scores) == 1,
                      f"{len(self.scores)} different attribution maps in one round")
        outcome = {"report": {k: v for k, v in rep.to_json_dict().items() if k != "config"},
                   "latency": [(r.code, r.seed, r.evaluations_needed, r.censored)
                               for r in self.latency]}
        return digest([], [json.dumps(outcome, sort_keys=True).encode(),
                           _scores_bytes(self.amap)])


WORKLOADS = {w.name: w for w in (CliCnnWeight, ApiCnnOutputWide, FatMlp)}
