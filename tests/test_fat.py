"""FAT tests: latency semantics, fault persistence, plain-training identity."""

import json

import numpy as np
import pytest

from sdcprobe import fat as fat_mod
from sdcprobe.data import synth_blobs, train_test_split
from sdcprobe.errors import ConfigError, UsageError
from sdcprobe.fat import FatConfig, fat_train, measure_latency_to_critical, save_fat_report
from sdcprobe.fault_model import FaultSite, parse_code, site_codes
from sdcprobe.injector import faults_active
from sdcprobe.nnet import (Flatten, Linear, Model, Sgd, build_mlp, evaluate_detailed,
                           model_checksum, train)
from sdcprobe.nnet import training
from sdcprobe.data import Dataset


def identity_model():
    w = np.eye(2, dtype=np.float32)
    return Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                 input_shape=(1, 1, 2))


def class1_dataset(n=8):
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.1, 0.5, size=n).astype(np.float32)
    hi = rng.uniform(1.0, 2.0, size=n).astype(np.float32)
    images = np.stack([lo, hi], axis=1).reshape(n, 1, 1, 2)
    return Dataset(images, np.ones(n, dtype=np.int64), split="test")


class _SiteSampler:
    """A test sampler's sample_codes: the codes of the sites it samples."""

    def sample_codes(self, n, start_ordinal=0):
        return site_codes(self.sample(n, start_ordinal))


class _FixedSiteSampler(_SiteSampler):
    def __init__(self, site):
        self.site = site

    def sample(self, n, start_ordinal=0):
        return [self.site] * n


def blob_splits(seed=0):
    data = synth_blobs(classes=3, samples_per_class=40, dims=6, spread=0.25,
                       seed=seed, center_scale=0.5)
    return train_test_split(data, test_fraction=0.25)


class TestLatencyMeasurement:
    def test_threshold_zero_needs_one_evaluation(self):
        """Drop clamps at zero, so any fault meets threshold 0.0."""
        result = measure_latency_to_critical(identity_model(), class1_dataset(),
                                             "RBRNw", 0.0, k=1, seed=4)
        assert result.evaluations_needed == 1
        assert not result.censored

    def test_always_critical_sampler_needs_exactly_k(self):
        """A sampler emitting only a known-critical site reaches k
        consecutive criticals in k evaluations."""
        site = FaultSite(1, "neuron_weight", 0, 30)  # drives logit 0 to +inf
        result = measure_latency_to_critical(identity_model(), class1_dataset(),
                                             "RBRNw", 0.5, k=3, seed=0,
                                             sampler=_FixedSiteSampler(site))
        assert result.evaluations_needed == 3
        assert not result.censored

    def test_a_sampler_of_another_kind_refused(self, stacked_sites):
        """A weight-site sampler passed to an output code raises UsageError
        before any evaluation, and the model is untouched."""
        model = identity_model()
        checksum = model_checksum(model)
        with pytest.raises(UsageError, match="another target kind"):
            measure_latency_to_critical(model, class1_dataset(), "RBRNo", 0.5, k=1,
                                        sampler=_FixedSiteSampler(
                                            FaultSite(1, "neuron_weight", 0, 30)))
        assert model_checksum(model) == checksum and stacked_sites == []

    def test_latency_monotone_in_threshold(self):
        """For a fixed sampler and seed the same draw sequence must clear a
        harder bar, so evaluation counts never decrease with threshold."""
        model = identity_model()
        data = class1_dataset()
        for seed in (1, 2, 3):
            counts = [measure_latency_to_critical(model, data, "RBRNw", t, k=2,
                                                  seed=seed).evaluations_needed
                      for t in (0.0, 0.05, 0.5)]
            assert counts == sorted(counts)

    def test_budget_cap_reports_censored(self):
        """No site of this model can drop accuracy by 0.95, so the run
        exhausts its budget and is censored rather than raising."""
        result = measure_latency_to_critical(identity_model(), class1_dataset(),
                                             "RBRNw", 0.95, k=1, seed=0,
                                             budget_cap=25)
        assert result.censored
        assert result.evaluations_needed == 25

    def test_cycles_proxy_scales_by_test_set_size(self):
        data = class1_dataset()
        result = measure_latency_to_critical(identity_model(), data, "RBRNw",
                                             0.0, k=2, seed=0)
        assert result.cycles == result.evaluations_needed * len(data)

    def test_deterministic_given_seed(self):
        a = measure_latency_to_critical(identity_model(), class1_dataset(),
                                        "EBRNw", 0.05, k=2, seed=9)
        b = measure_latency_to_critical(identity_model(), class1_dataset(),
                                        "EBRNw", 0.05, k=2, seed=9)
        assert a.evaluations_needed == b.evaluations_needed
        assert a.censored == b.censored

    def test_model_restored_after_measurement(self):
        model = identity_model()
        checksum = model_checksum(model)
        measure_latency_to_critical(model, class1_dataset(), "GBRNw", 0.05,
                                    k=2, seed=1)
        assert model_checksum(model) == checksum

    def test_nothing_past_the_stopping_ordinal_is_evaluated(self, stacked_sites):
        """Ordinals 40-42 draw the critical site; the run stops at ordinal
        42, inside the second block (32..95).  Every distinct site of
        ordinals 0..42 is evaluated once, and none drawn after them."""
        critical = FaultSite(1, "neuron_weight", 0, 30)
        sequence = [critical if 40 <= k <= 42 else
                    FaultSite(1, "neuron_weight", k % 4, (k // 4) % 23)
                    for k in range(200)]

        class Sequence(_SiteSampler):
            drawn = 0

            def sample(self, n, start_ordinal=0):
                self.drawn = max(self.drawn, start_ordinal + n)
                return sequence[start_ordinal:start_ordinal + n]

        evaluated = stacked_sites
        sampler = Sequence()
        result = measure_latency_to_critical(identity_model(), class1_dataset(), "RBRNw",
                                             0.5, k=3, sampler=sampler)
        assert (result.evaluations_needed, result.censored) == (43, False)
        assert sampler.drawn == 96
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == set(sequence[:43])

    def test_runs_on_one_model_evaluate_each_distinct_site_once(self, stacked_sites):
        """Runs at other seeds and thresholds on one model share outcomes:
        each distinct site drawn by any of them is evaluated once in total,
        and every result equals a run on a fresh copy of the model."""
        model, data = identity_model(), class1_dataset()
        runs = [(1, 0.95), (2, 0.95), (3, 0.05), (4, 0.5)]  # 0.95 is never reached
        fresh = [measure_latency_to_critical(model.copy(), data, "RBRNw", t, k=2, seed=seed,
                                             budget_cap=100) for seed, t in runs]
        evaluated = stacked_sites
        evaluated.clear()
        shared = [measure_latency_to_critical(model, data, "RBRNw", t, k=2, seed=seed,
                                              budget_cap=100) for seed, t in runs]
        drawn = [set(fat_mod._sampler_for(model, data, parse_code("RBRNw"), seed)
                     .sample(r.evaluations_needed)) for (seed, _), r in zip(runs, shared)]
        assert drawn[0] & drawn[1]
        assert len(evaluated) == len(set(evaluated)) == len(set().union(*drawn))
        assert len(evaluated) < sum(len(d) for d in drawn)
        for a, b in zip(shared, fresh):
            assert {**vars(a), "wallclock_ns": 0} == {**vars(b), "wallclock_ns": 0}

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            measure_latency_to_critical(identity_model(), class1_dataset(),
                                        "RBRNw", 0.05, k=0)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_zero_one_refused(self, threshold, stacked_sites):
        """A clamped drop lies in [0, 1]: every draw meets a threshold below
        it and none meets one above it or NaN, so such a threshold is
        refused before anything is evaluated."""
        with pytest.raises(ConfigError, match="threshold must be in"):
            measure_latency_to_critical(identity_model(), class1_dataset(),
                                        "RBRNw", threshold, k=1)
        assert stacked_sites == []


def _bit(model, site):
    word = model.layers[site.layer_id].weight.data.reshape(-1).view(np.uint32)
    return int(word[site.element_index]) >> site.bit_index & 1


class TestWeightFaultPersistence:
    def test_fault_reapplied_after_each_step(self, monkeypatch):
        """Training moves the faulted weight; faults_active's repin pins the
        faulted bit after every update, so every forward sees the fault,
        and leaves the other 31 bits to the optimizer.  Leaving the block
        restores the bit the weight had at injection."""
        train_set, _ = blob_splits()
        model = build_mlp((1, 1, 6), [8], 3, seed=5)
        site = FaultSite(1, "neuron_weight", 2, 21)
        mask = np.uint32(1 << 21)

        def word():
            return model.layers[1].weight.data.reshape(-1).view(np.uint32)[2]

        clean = word()
        faulted = (clean ^ mask) & mask
        real_update, updates = Sgd.step, []   # (word before, word after) each update

        def spy_update(opt, active):
            before = word()
            real_update(opt, active)
            updates.append((before, word()))

        monkeypatch.setattr(Sgd, "step", spy_update)
        train(model, train_set.subset(np.arange(8)), epochs=3, batch_size=8, lr=0.01,
              optimizer="sgd", faults=[site])
        assert len(updates) == 3
        # each update's successor sees the word after the repin, the last
        # update's the word as train returned it
        for (before, stepped), (after, _) in zip(updates, updates[1:] + [(word(), None)]):
            assert before & mask == faulted  # active on this step's forward
            assert stepped != before  # value actually moved
            assert after & ~mask == stepped & ~mask
        assert word() & mask == clean & mask  # the bit from before injection
        with faults_active(model, [site]) as (output_faults, repin):
            assert output_faults == [] and repin is not None
        with faults_active(model, [FaultSite(1, "neuron_output", 0, 3)]) as (_, repin):
            assert repin is None  # no weight site, nothing to pin


class TestFatTrain:
    def light_config(self, **overrides):
        base = dict(code="RBRNo", adversary_code="EBRNo", warmup_epochs=2,
                    fat_epochs=2, faults_per_round=2,
                    consecutive_criticals_required=2, thresholds=(0.0, 0.05),
                    simulations_per_epoch=0, lr=0.05, batch_size=16,
                    optimizer="sgd", seed=7)
        base.update(overrides)
        return FatConfig(**base)

    def test_zero_faults_reduces_to_plain_training(self):
        """faults_per_round=0 makes the FAT run and its clean twin the same
        computation: every reported accuracy collapses to the baseline."""
        train_set, test_set = blob_splits()
        model = build_mlp((1, 1, 6), [8], 3, seed=1)
        _, report = fat_train(model, train_set, test_set,
                              self.light_config(faults_per_round=0))
        assert report.post_fat_accuracy == report.baseline_accuracy
        assert report.accuracy_under_trained_faults == report.post_fat_accuracy
        assert report.accuracy_under_adversary_faults == report.post_fat_accuracy
        assert report.trained_fault_sites == []

    def test_zero_faults_matches_external_plain_run_bit_for_bit(self):
        train_set, test_set = blob_splits()
        cfg = self.light_config(faults_per_round=0)
        model, _ = fat_train(build_mlp((1, 1, 6), [8], 3, seed=1),
                             train_set, test_set, cfg)
        twin = build_mlp((1, 1, 6), [8], 3, seed=1)
        train(twin, train_set, epochs=cfg.warmup_epochs, batch_size=cfg.batch_size,
              lr=cfg.lr, optimizer=cfg.optimizer, seed=cfg.seed, eval_set=test_set)
        for epoch in range(cfg.fat_epochs):
            train(twin, train_set, epochs=1, batch_size=cfg.batch_size, lr=cfg.lr,
                  optimizer=cfg.optimizer, seed=cfg.seed + 1 + epoch,
                  eval_set=test_set)
        assert model_checksum(model) == model_checksum(twin)

    def test_deterministic_given_seed(self):
        train_set, test_set = blob_splits()
        cfg = self.light_config()
        model_a, report_a = fat_train(build_mlp((1, 1, 6), [8], 3, seed=2),
                                      train_set, test_set, cfg)
        model_b, report_b = fat_train(build_mlp((1, 1, 6), [8], 3, seed=2),
                                      train_set, test_set, cfg)
        assert model_checksum(model_a) == model_checksum(model_b)
        assert report_a.post_fat_accuracy == report_b.post_fat_accuracy
        assert report_a.trained_fault_sites == report_b.trained_fault_sites
        assert report_a.fat_log == report_b.fat_log

    def test_faults_removed_and_fields_sane(self):
        train_set, test_set = blob_splits()
        model = build_mlp((1, 1, 6), [8], 3, seed=3)
        model, report = fat_train(model, train_set, test_set, self.light_config())
        assert set(vars(model)) == {"layers", "input_shape", "in_shapes"}
        assert len(report.trained_fault_sites) == 2
        assert len(report.adversary_fault_sites) == 2
        for acc in (report.baseline_accuracy, report.post_fat_accuracy,
                    report.accuracy_under_trained_faults,
                    report.accuracy_under_adversary_faults):
            assert 0.0 <= acc <= 1.0
        assert len(report.warmup_log) == 2
        assert len(report.fat_log) == 2

    def test_latency_simulations_collected_per_code(self):
        train_set, test_set = blob_splits()
        model = build_mlp((1, 1, 6), [8], 3, seed=4)
        cfg = self.light_config(simulations_per_epoch=1, fat_epochs=1,
                                latency_threshold=0.0)
        _, report = fat_train(model, train_set, test_set, cfg)
        assert set(report.latency) == {"RBRNo", "EBRNo"}
        for results in report.latency.values():
            assert len(results) == 1
            assert results[0].evaluations_needed >= cfg.consecutive_criticals_required \
                or results[0].censored

    def test_report_json_round_trip(self, tmp_path):
        train_set, test_set = blob_splits()
        model = build_mlp((1, 1, 6), [8], 3, seed=5)
        _, report = fat_train(model, train_set, test_set, self.light_config())
        path = tmp_path / "fat_report.json"
        save_fat_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["config"]["code"] == "RBRNo"
        assert loaded["post_fat_accuracy"] == report.post_fat_accuracy
        assert len(loaded["trained_fault_sites"]) == 2
        assert loaded["trained_fault_sites"][0]["target_kind"] == "neuron_output"

    def test_weight_faults_stay_pinned_through_fat(self, monkeypatch):
        """Weight codes: before every guarded training step, so after the
        step before it, each trained fault holds its faulted bit, the
        latency runs between epochs see the bit the weight had at
        injection, and so does the model fat_train returns."""
        import sdcprobe.fat as fat_mod
        real_step, real_latency = training.train_step, fat_mod.measure_latency_to_critical
        stepped, snapshots = [], []

        def spy_step(run, xb, yb):
            for model, guarded in zip(run.models, run.guarded):
                if guarded:  # the hardened model; warm-up and twin steps are not guarded
                    stepped.append(model.copy())
            return real_step(run, xb, yb)

        def spy_latency(model, *args, **kwargs):
            snapshots.append(model.copy())
            return real_latency(model, *args, **kwargs)

        monkeypatch.setattr(training, "train_step", spy_step)
        monkeypatch.setattr(fat_mod, "measure_latency_to_critical", spy_latency)
        train_set, test_set = blob_splits()
        cfg = self.light_config(code="RBRNw", adversary_code="EBRNw",
                                simulations_per_epoch=1, latency_threshold=0.0)
        model, report = fat_train(build_mlp((1, 1, 6), [8], 3, seed=6),
                                  train_set, test_set, cfg)
        assert len(stepped) == cfg.fat_epochs * -(-len(train_set) // cfg.batch_size)
        assert snapshots
        assert {s.target_kind for s in report.trained_fault_sites} == {"neuron_weight"}
        for site in set(report.trained_fault_sites):
            faulted = _bit(stepped[0], site)
            assert all(_bit(m, site) == faulted for m in stepped)
            assert all(_bit(m, site) == 1 - faulted for m in snapshots)
            assert _bit(model, site) == 1 - faulted

    @pytest.mark.parametrize("bad, error", [("empty", UsageError), ("shape", ConfigError)])
    def test_a_bad_test_set_refused_before_the_warm_up(self, bad, error):
        """The test set is every epoch's evaluation set, so the warm-up's
        train call refuses it before the model is trained at all."""
        train_set, test_set = blob_splits()
        images, labels = test_set.images, test_set.labels
        test_set = (Dataset(images[:0], labels[:0]) if bad == "empty"
                    else Dataset(images.reshape(len(labels), 1, 2, 3), labels))
        model = build_mlp((1, 1, 6), [8], 3, seed=1)
        before = model_checksum(model)
        with pytest.raises(error):
            fat_train(model, train_set, test_set, self.light_config())
        assert model_checksum(model) == before

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FatConfig(warmup_epochs=0)
        with pytest.raises(ConfigError):
            FatConfig(faults_per_round=-1)
        with pytest.raises(ConfigError):
            FatConfig(consecutive_criticals_required=0)
        with pytest.raises(ConfigError):
            FatConfig(lr=0.0)
        with pytest.raises(ConfigError):
            FatConfig(seed=-1)
        with pytest.raises(ConfigError):
            FatConfig(code="XXXXX")
        with pytest.raises(ConfigError, match="batch_size"):
            FatConfig(batch_size=0)
        for count in (0, -3):
            with pytest.raises(ConfigError, match="attribution_sample_count"):
                FatConfig(attribution_sample_count=count)
        assert FatConfig(attribution_sample_count=None).attribution_sample_count is None

    @pytest.mark.parametrize("lr", [float("inf"), float("nan")])
    def test_non_finite_lr_refused(self, lr):
        """Refused when the config is built, so before any training step."""
        with pytest.raises(ConfigError, match="lr must be positive and finite"):
            FatConfig(lr=lr)

    @pytest.mark.parametrize("kwargs, key", [
        ({"uniform_mix": 2.0}, "uniform_mix"),
        ({"uniform_mix": -0.5}, "uniform_mix"),
        ({"faults_per_round": 0, "uniform_mix": 2.0}, "uniform_mix"),
        ({"attribution_steps": 0}, "attribution_steps"),
        ({"latency_threshold": 7.5}, "latency_threshold"),
        ({"latency_threshold": -0.05}, "latency_threshold"),
        ({"latency_threshold": float("nan")}, "latency_threshold"),
        ({"faults_per_round": 0, "latency_threshold": 7.5}, "latency_threshold"),
    ])
    def test_values_that_would_fail_late_or_never_refused(self, kwargs, key):
        """Each of these used to pass the config and fail at the first draw,
        after warm-up and twin training, or never (faults_per_round 0)."""
        with pytest.raises(ConfigError, match=key):
            FatConfig(**kwargs)
