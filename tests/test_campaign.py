"""Campaign tests: classification, determinism, persistence, recall."""

import hashlib
import json
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sdcprobe.attribution import AttributionConfig, attribute_all
from sdcprobe.campaign import (CampaignConfig, DEFAULT_SEEDS, DEFAULT_THRESHOLDS,
                               InjectionRecord, _RecordSink, census_from_records,
                               compute_recall, compute_stats, exhaustive_census,
                               load_records, make_record, meta_path_for, report,
                               run_campaign, running_precision, save_records,
                               threshold_column, write_report_csvs)
from sdcprobe.data import Dataset, synth_blobs
from sdcprobe.errors import ConfigError, DataFormatError, DataIntegrityError, UsageError
from sdcprobe.fat import measure_latency_to_critical
from sdcprobe.fault_model import FaultSite, SamplerConfig, build_sampler
from sdcprobe.injector import PrefixCache, evaluate_with_fault
from sdcprobe.nnet import Flatten, Linear, Model, build_cnn, model_checksum

THRESH5 = (0.0, 0.05, 0.10, 0.25, 0.50)


def identity_model():
    w = np.eye(2, dtype=np.float32)
    return Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                 input_shape=(1, 1, 2))


def class1_dataset(n=8):
    # every sample has a larger second coordinate; identity weights score 1.0
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.1, 0.5, size=n).astype(np.float32)
    hi = rng.uniform(1.0, 2.0, size=n).astype(np.float32)
    images = np.stack([lo, hi], axis=1).reshape(n, 1, 1, 2)
    return Dataset(images, np.ones(n, dtype=np.int64), split="test")


def synthetic_records(drops, thresholds=THRESH5, seed=1, code="RBRNw"):
    return [make_record(code, seed, k, FaultSite(1, "neuron_weight", k % 4, 30),
                        1.0, 1.0 - d, False, 1000 + k, thresholds)
            for k, d in enumerate(drops)]


def strip_clock(r: InjectionRecord):
    return (r.experiment_code, r.seed, r.sample_ordinal, r.site,
            r.baseline_accuracy, r.faulty_accuracy, r.accuracy_drop,
            r.poisoned, r.sdc_flags)


class _FixedSiteSampler:
    def __init__(self, site):
        self.site = site

    def sample(self, n, start_ordinal=0):
        return [self.site] * n


class _ThreadNotingSampler:
    """Deterministic weight sites; notes the thread and the live thread
    count of every draw, and raises at ordinal fail_at."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.calls = []

    def sample_at(self, k):
        self.calls.append((threading.get_ident(), threading.active_count()))
        if k == self.fail_at:
            raise RuntimeError(f"sampler failed at ordinal {k}")
        return FaultSite(1, "neuron_weight", k % 4, (7 * k) % 32)

    def sample(self, n, start_ordinal=0):
        return [self.sample_at(k) for k in range(start_ordinal, start_ordinal + n)]


class _BadSiteSampler:
    """Weight sites that differ per seed; ordinal bad_at names a weight the
    identity model does not have, and drawing it does not raise."""

    bad = FaultSite(1, "neuron_weight", 99, 3)

    def __init__(self, seed, bad_at=None):
        self.seed = seed
        self.bad_at = bad_at

    def sample(self, n, start_ordinal=0):
        return [self.bad if k == self.bad_at else
                FaultSite(1, "neuron_weight", k % 4, (7 * k + self.seed) % 32)
                for k in range(start_ordinal, start_ordinal + n)]


class TestRecordClassification:
    def test_flags_follow_drop_thresholds(self):
        # dyadic accuracies keep the drop comparison exact
        r = make_record("RBRNw", 0, 0, FaultSite(1, "neuron_weight", 0, 30),
                        1.0, 0.875, False, 1, THRESH5)
        assert r.accuracy_drop == pytest.approx(0.125)
        assert r.sdc_flags == (True, True, True, False, False)

    def test_flags_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            drop = float(rng.uniform(-0.2, 1.0))
            r = make_record("RBRNw", 0, 0, FaultSite(1, "neuron_weight", 0, 0),
                            1.0, 1.0 - drop, False, 1, DEFAULT_THRESHOLDS)
            flags = np.array(r.sdc_flags, dtype=int)
            assert (np.diff(flags) <= 0).all()

    def test_three_of_ten_drops_give_precision_point_three(self):
        """Ten records, three with drop at or above 0.05: precision@0.05
        is 0.3."""
        drops = [0.0, 0.0, 0.06, 0.0, 0.2, 0.0, 0.0, 0.05, 0.0, 0.01]
        stats = compute_stats(synthetic_records(drops), THRESH5)
        assert stats.precision[THRESH5.index(0.05)] == pytest.approx(0.3)
        assert stats.positives_true[1] == 3
        assert stats.positives_false[1] == 7

    def test_precision_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        records = synthetic_records(rng.uniform(-0.1, 0.9, size=100))
        stats = compute_stats(records, THRESH5)
        precs = stats.precision
        assert all(a >= b for a, b in zip(precs, precs[1:]))

    def test_empty_records_report_null_precision(self):
        stats = compute_stats([], THRESH5)
        assert stats.precision == [None] * 5

    def test_running_precision_is_the_cumulative_ratio(self):
        records = synthetic_records([0.1, 0.0, 0.1, 0.0])
        series = running_precision(records, THRESH5.index(0.05))
        np.testing.assert_allclose(series, [1.0, 0.5, 2 / 3, 0.5])


class TestConfigValidation:
    def test_defaults(self):
        cfg = CampaignConfig(code="RBRNw")
        assert cfg.thresholds == DEFAULT_THRESHOLDS
        assert len(cfg.thresholds) == 19
        assert cfg.sample_budget == 2000
        assert cfg.seeds == DEFAULT_SEEDS

    @pytest.mark.parametrize("kwargs", [
        {"thresholds": (0.5, 0.1)},
        {"thresholds": (0.0, 1.5)},
        {"thresholds": ()},
        {"thresholds": (0.05, 0.051)},
        {"thresholds": (0.05, 0.05)},
        {"sample_budget": -1},
        {"seeds": ()},
        {"seeds": (1, 1)},
        {"workers": 0},
        {"uniform_mix": 2.0},
        {"seeds": (3, -1)},
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignConfig(code="RBRNw", **kwargs)

    @pytest.mark.parametrize("t", [0.006, 0.051, float("nan")])
    def test_thresholds_off_the_percent_grid_rejected(self, t):
        """A records column names its threshold in whole percents: 0.006
        would be written as sdc_001 and reload as 0.01."""
        with pytest.raises(ConfigError, match=f"whole percents in \\[0, 1\\], got {t}"):
            CampaignConfig(code="RBRNw", thresholds=(0.0, t))

    def test_whole_percent_thresholds_reload_as_themselves(self, tmp_path):
        thresholds = (0.05, 0.07, 0.29, 0.57)
        assert CampaignConfig(code="RBRNw", thresholds=thresholds).thresholds == thresholds
        records = synthetic_records([0.07, 0.29, 0.57, 0.0699], thresholds)
        save_records(records, thresholds, tmp_path / "r.csv")
        assert load_records(tmp_path / "r.csv") == (records, thresholds)


class TestRunCampaign:
    def test_budget_zero_gives_empty_records_and_null_stats(self):
        result = run_campaign(identity_model(), class1_dataset(),
                              CampaignConfig(code="RBRNw", thresholds=THRESH5,
                                             sample_budget=0, seeds=(1,)))
        assert result.records == []
        assert result.stats.precision == [None] * 5

    def test_exact_budget_per_seed(self):
        result = run_campaign(identity_model(), class1_dataset(),
                              CampaignConfig(code="RBRNw", thresholds=THRESH5,
                                             sample_budget=7, seeds=(2, 1)))
        assert len(result.records) == 14
        for seed in (1, 2):
            assert sum(1 for r in result.records if r.seed == seed) == 7
        assert [r.sort_key() for r in result.records] == \
            [(s, k) for s in (1, 2) for k in range(7)]

    def test_worker_count_invariance(self):
        """Records for 1, 2, and 8 workers agree on everything but the
        wallclock column."""
        runs = []
        for workers in (1, 2, 8):
            result = run_campaign(identity_model(), class1_dataset(),
                                  CampaignConfig(code="RBRNw", thresholds=THRESH5,
                                                 sample_budget=24, seeds=(5, 9),
                                                 workers=workers))
            runs.append([strip_clock(r) for r in result.records])
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_draw_runs_in_the_calling_thread(self, workers):
        threads = threading.active_count()
        sampler = _ThreadNotingSampler()
        result = run_campaign(identity_model(), class1_dataset(),
                              CampaignConfig(code="RBRNw", thresholds=THRESH5,
                                             sample_budget=6, seeds=(1,),
                                             workers=workers),
                              samplers={1: sampler})
        assert len(result.records) == 6
        assert sampler.calls == [(threading.get_ident(), threads)] * 6
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_draw_leaves_exact_prefix_then_resumes(self, tmp_path, workers):
        """A sampler raising at seed 2, ordinal 5 leaves a part file of
        exactly the draws before it, in canonical order; resuming gives
        the uninterrupted run's records."""
        threads = threading.active_count()
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=8,
                             seeds=(1, 2), workers=workers)
        full = run_campaign(identity_model(), class1_dataset(), cfg,
                            samplers={1: _ThreadNotingSampler(), 2: _ThreadNotingSampler()})
        out = tmp_path / "run.csv"
        with pytest.raises(RuntimeError, match="ordinal 5"):
            run_campaign(identity_model(), class1_dataset(), cfg, out_csv=str(out),
                         samplers={1: _ThreadNotingSampler(),
                                   2: _ThreadNotingSampler(fail_at=5)})
        assert threading.active_count() == threads
        assert not out.exists()
        part, _ = load_records(str(out) + ".part")
        assert [r.sort_key() for r in part] == \
            [(1, k) for k in range(8)] + [(2, k) for k in range(5)]
        assert [strip_clock(r) for r in part] == [strip_clock(r) for r in full.records[:13]]
        resumed = run_campaign(identity_model(), class1_dataset(), cfg, out_csv=str(out),
                               samplers={1: _ThreadNotingSampler(),
                                         2: _ThreadNotingSampler()})
        assert [strip_clock(r) for r in resumed.records] == \
            [strip_clock(r) for r in full.records]
        assert resumed.records[:13] == part
        assert load_records(str(out))[0] == resumed.records

    def test_out_of_range_site_raises_at_its_own_draw(self, tmp_path, stacked_sites):
        """A sampler yielding a weight the model lacks at seed 2, ordinal 5
        raises UsageError at that draw.  The stack evaluated at ordinal 0
        leaves that site out but takes the sites after it, so the part file
        holds exactly the draws before it."""
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=8,
                             seeds=(1, 2))
        full = run_campaign(identity_model(), class1_dataset(), cfg,
                            samplers={1: _BadSiteSampler(1), 2: _BadSiteSampler(2)})
        stacked_sites.clear()
        out = tmp_path / "run.csv"
        with pytest.raises(UsageError, match="element 99 out of range for layer 1"):
            run_campaign(identity_model(), class1_dataset(), cfg, out_csv=str(out),
                         samplers={1: _BadSiteSampler(1), 2: _BadSiteSampler(2, bad_at=5)})
        part, _ = load_records(str(out) + ".part")
        assert [r.sort_key() for r in part] == \
            [(1, k) for k in range(8)] + [(2, k) for k in range(5)]
        assert [strip_clock(r) for r in part] == [strip_clock(r) for r in full.records[:13]]
        seed2 = _BadSiteSampler(2, bad_at=5).sample(8)
        assert _BadSiteSampler.bad not in stacked_sites
        assert set(seed2[:5] + seed2[6:]) <= set(stacked_sites)

    def test_each_distinct_site_is_evaluated_once(self, stacked_sites):
        """400 draws over 128 weight sites repeat many of them: each distinct
        site enters a stack once, at any seed, and the records equal a
        memo-free loop that evaluates every draw on a fresh model copy."""
        evaluated = stacked_sites
        model, data = identity_model(), class1_dataset()
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=200,
                             seeds=(1, 2))
        result = run_campaign(model, data, cfg)
        distinct = {r.site for r in result.records}
        assert len(evaluated) == len(set(evaluated)) == len(distinct) < len(result.records)

        baseline = result.baseline_accuracy
        reference = []
        for seed in cfg.seeds:
            sampler = build_sampler(SamplerConfig(code=cfg.code, seed=seed), None, model)
            for k in range(cfg.sample_budget):
                site = sampler.sample_at(k)
                faulty, poisoned = evaluate_with_fault(model.copy(), data, site)
                reference.append(make_record(str(cfg.code), seed, k, site, baseline,
                                             faulty, poisoned, 0, THRESH5))
        assert [strip_clock(r) for r in result.records] == \
            [strip_clock(r) for r in reference]

    def test_campaigns_and_latency_runs_on_one_model_share_outcomes(self, stacked_sites):
        """GBINw, then RBRNw, then a latency run on one model: each distinct
        site any of them draws enters a stack once in total, and every
        record and the latency result equal runs on fresh copies of the
        model."""
        model, data = identity_model(), class1_dataset()
        attributions = attribute_all(model, data, AttributionConfig("neuron_weight"))
        configs = [CampaignConfig(code=code, thresholds=THRESH5, sample_budget=100,
                                  seeds=(1, 2)) for code in ("GBINw", "RBRNw")]

        def runs(fresh):
            m = model.copy if fresh else lambda: model
            results = [run_campaign(m(), data, cfg, attributions) for cfg in configs]
            latency = measure_latency_to_critical(m(), data, "RBRNw", 0.95, seed=3,
                                                  budget_cap=100)
            return results, {**vars(latency), "wallclock_ns": 0}

        reference = runs(fresh=True)
        evaluated = stacked_sites
        evaluated.clear()
        shared = runs(fresh=False)
        assert shared[1] == reference[1]
        sites = []
        for got, want in zip(shared[0], reference[0]):
            assert [strip_clock(r) for r in got.records] == [strip_clock(r) for r in want.records]
            sites.append({r.site for r in got.records})
        latency_sites = set(build_sampler(SamplerConfig(code="RBRNw", seed=3), None, model)
                            .sample(100))
        assert sites[0] & sites[1] and (sites[0] | sites[1]) & latency_sites
        assert len(evaluated) == len(set(evaluated)) == len(sites[0] | sites[1] | latency_sites)

    def test_constructed_always_critical_sampler_gives_precision_one(self):
        """Flipping bit 30 of w[0,0] drives the class-0 logit to +inf, so
        every sample misclassifies: verified directly, then as a campaign
        where the sampler only emits that site."""
        model = identity_model()
        data = class1_dataset()
        site = FaultSite(1, "neuron_weight", 0, 30)
        acc, _ = evaluate_with_fault(model, data, site)
        assert acc == 0.0
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=10,
                             seeds=(1, 2))
        result = run_campaign(model, data, cfg,
                              samplers={1: _FixedSiteSampler(site),
                                        2: _FixedSiteSampler(site)})
        assert result.baseline_accuracy == 1.0
        assert result.stats.precision == [1.0] * 5

    def test_model_untouched_after_campaign(self):
        model = identity_model()
        checksum = model_checksum(model)
        run_campaign(model, class1_dataset(),
                     CampaignConfig(code="GBRNo", thresholds=THRESH5,
                                    sample_budget=16, seeds=(3,), workers=4),
                     probe_images=class1_dataset().images)
        assert model_checksum(model) == checksum
        assert set(vars(model)) == {"layers", "input_shape", "in_shapes"}


class TestRecallAndCensus:
    def setup_method(self):
        self.model = identity_model()
        self.data = class1_dataset()
        self.thresholds = (0.0, 0.05, 0.5)

    def test_exhaustive_campaign_has_one_record_per_site(self):
        cfg = CampaignConfig(code="RBRNw", thresholds=self.thresholds,
                             seeds=(1,), exhaustive=True)
        result = run_campaign(self.model, self.data, cfg)
        assert len(result.records) == 4 * 32
        sites = {r.site for r in result.records}
        assert len(sites) == 4 * 32

    def test_exhaustive_rerun_reproduces_census_exactly(self):
        """Recall of a full-coverage campaign against its own census is 1.0
        at every threshold with a nonempty census."""
        census = exhaustive_census(self.model, self.data, "neuron_weight",
                                   self.thresholds)
        cfg = CampaignConfig(code="RBRNw", thresholds=self.thresholds,
                             seeds=(1,), exhaustive=True)
        result = run_campaign(self.model, self.data, cfg)
        assert census_from_records(result.records, self.thresholds) == census
        recalls = compute_recall(result.records, self.thresholds, census)
        for t, recall in zip(self.thresholds, recalls):
            assert recall == (1.0 if len(census[t]) else None)

    def test_sampled_positives_are_a_census_subset_with_matching_recall(self):
        census = exhaustive_census(self.model, self.data, "neuron_weight",
                                   self.thresholds)
        cfg = CampaignConfig(code="RBRNw", thresholds=self.thresholds,
                             sample_budget=60, seeds=(7,))
        result = run_campaign(self.model, self.data, cfg)
        hits = census_from_records(result.records, self.thresholds)
        for t in self.thresholds:
            assert hits[t] <= census[t]
        recalls = compute_recall(result.records, self.thresholds, census)
        for t, recall in zip(self.thresholds, recalls):
            expected = len(hits[t]) / len(census[t]) if census[t] else None
            assert recall == expected

    def test_census_smaller_than_observed_is_rejected(self):
        records = synthetic_records([0.2, 0.2, 0.2, 0.2], thresholds=self.thresholds)
        bad_census = {t: 1 for t in self.thresholds}
        with pytest.raises(DataIntegrityError, match="census"):
            compute_recall(records, self.thresholds, bad_census)

    def test_trivial_recall_values(self):
        records = synthetic_records([0.2, 0.2, 0.0, 0.0], thresholds=(0.05,))
        census = {0.05: 4}
        assert compute_recall(records, (0.05,), census) == [0.5]
        none_hit = synthetic_records([0.0, 0.0], thresholds=(0.05,))
        assert compute_recall(none_hit, (0.05,), census) == [0.0]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        records = synthetic_records([0.0, 0.06, 0.3, -0.02])
        path = tmp_path / "records.csv"
        save_records(records, THRESH5, path)
        loaded, thresholds = load_records(path)
        assert thresholds == THRESH5
        assert loaded == records

    def test_header_matches_contract(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records([], DEFAULT_THRESHOLDS, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith(
            "experiment_code,seed,sample_ordinal,layer_id,target_kind,"
            "element_index,bit_index,baseline_acc,faulty_acc,acc_drop,"
            "poisoned,wallclock_ns,sdc_000,sdc_005,")
        assert header.endswith(",sdc_085,sdc_090")
        assert header.count("sdc_") == 19

    def test_tampered_flags_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records(synthetic_records([0.3]), THRESH5, path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "1" if cells[-1] == "0" else "0"
        path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(DataIntegrityError):
            load_records(path)

    @pytest.mark.parametrize("column, cell", [
        (10, "7"), (10, " 1 "), (10, "-0"), (-1, "+1")])
    def test_a_flag_other_than_0_or_1_rejected(self, tmp_path, column, cell):
        """poisoned and sdc_* cells hold 0 or 1, as save_records writes
        them; anything else int() would take is refused with file:line."""
        path = tmp_path / "records.csv"
        save_records(synthetic_records([0.3, 0.0]), THRESH5, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
        with pytest.raises(DataFormatError,
                           match=r"records\.csv:3: .*0 or 1, got " + re.escape(repr(cell))):
            load_records(path)

    @pytest.mark.parametrize("column, cell, kind", [
        (2, "1_0", "int"), (5, " +0 ", "int"), (11, "0_5", "int"), (1, "١", "int"),
        (2, "01", "int"), (8, "0_0.5", "float"), (8, " 0.5", "float"), (7, "+1.0", "float"),
        (8, "1.00", "float")])
    def test_a_number_in_a_form_save_records_never_writes_rejected(self, tmp_path, column,
                                                                   cell, kind):
        """A number cell must read exactly as save_records writes its value:
        int() and float() would take each of these cells, and a resume
        would silently rewrite it."""
        path = tmp_path / "records.csv"
        save_records(synthetic_records([0.3, 0.0]), THRESH5, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
        with pytest.raises(DataFormatError, match=r"records\.csv:3: "
                           + re.escape(f"{cell!r} is not how save_records writes the {kind}")):
            load_records(path)

    def test_save_refuses_an_off_grid_threshold_before_writing(self, tmp_path):
        """0.006 would be written as sdc_001, whose reloaded flags then
        disagree with the stored accuracies."""
        path = tmp_path / "records.csv"
        with pytest.raises(UsageError, match="whole percents"):
            save_records(synthetic_records([0.003], (0.006,)), (0.006,), path)
        assert not path.exists()

    @pytest.mark.parametrize("ladder, error", [
        ((0.0, 0.05), "expected 14 cells, got 15"),   # one flag too many per row
        ((0.0, 0.5, 0.6), "do not match"),            # three flags, classified elsewhere
    ])
    def test_save_refuses_records_of_another_ladder_before_writing(self, tmp_path,
                                                                   ladder, error):
        """Records classified on (0.0, 0.05, 0.1) and saved with another
        ladder would give a file that load_records refuses."""
        records = synthetic_records([0.07, 0.2], (0.0, 0.05, 0.1))
        path = tmp_path / "records.csv"
        with pytest.raises(UsageError, match="classified on the ladder"):
            save_records(records, ladder, path)
        assert not path.exists()
        # the same rows under that ladder's header: the file load refuses
        save_records(records, (0.0, 0.05, 0.1), path)
        header, *rows = path.read_text().splitlines()
        header = header.replace("sdc_000,sdc_005,sdc_010",
                                ",".join(threshold_column(t) for t in ladder))
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises((DataFormatError, DataIntegrityError), match=error):
            load_records(path)

    @pytest.mark.parametrize("columns", ["sdc_010,sdc_005", "sdc_005,sdc_005",
                                         "sdc_005,sdc_150"])
    def test_load_refuses_a_ladder_config_would_refuse(self, tmp_path, columns):
        """Descending, duplicate and over-100% columns are not a ladder a
        campaign can write."""
        path = tmp_path / "records.csv"
        save_records([], (0.05, 0.10), path)
        path.write_text(path.read_text().replace("sdc_005,sdc_010", columns))
        with pytest.raises(DataFormatError, match="thresholds must be"):
            load_records(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(DataFormatError):
            load_records(path)

    def test_meta_sidecar_written_next_to_csv(self, tmp_path):
        model = identity_model()
        data = class1_dataset()
        out = tmp_path / "run.csv"
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=4,
                             seeds=(1,))
        run_campaign(model, data, cfg, out_csv=str(out))
        meta_file = tmp_path / "run.meta.json"
        assert meta_path_for(out) == str(meta_file)
        meta = json.loads(meta_file.read_text())
        assert meta["config"]["experiment_code"] == "RBRNw"
        assert meta["config"]["sample_budget"] == 4
        assert meta["model_checksum"] == model_checksum(model)
        assert meta["baseline_accuracy"] == 1.0
        assert meta["artifact_version"] == 1

    def test_written_csv_loads_back_to_the_returned_records(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=6,
                             seeds=(4, 2), workers=3)
        result = run_campaign(identity_model(), class1_dataset(), cfg,
                              out_csv=str(out))
        loaded, thresholds = load_records(out)
        assert thresholds == THRESH5
        assert loaded == result.records
        assert not (tmp_path / "run.csv.part").exists()

    @pytest.mark.parametrize("interrupted", [False, True])
    def test_finished_csv_is_what_save_records_writes(self, tmp_path, interrupted):
        """The part file renamed into place holds byte for byte what
        save_records writes for the returned records, for a fresh run and
        for one interrupted at seed 2, ordinal 5 and then resumed."""
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=8,
                             seeds=(2, 1))
        out = tmp_path / "run.csv"
        if interrupted:
            with pytest.raises(RuntimeError, match="ordinal 5"):
                run_campaign(identity_model(), class1_dataset(), cfg, out_csv=str(out),
                             samplers={1: _ThreadNotingSampler(),
                                       2: _ThreadNotingSampler(fail_at=5)})
        result = run_campaign(identity_model(), class1_dataset(), cfg, out_csv=str(out),
                              samplers={1: _ThreadNotingSampler(), 2: _ThreadNotingSampler()})
        save_records(result.records, THRESH5, tmp_path / "saved.csv")
        assert out.read_bytes() == (tmp_path / "saved.csv").read_bytes()
        assert [r.sort_key() for r in result.records] == \
            [(seed, k) for seed in (1, 2) for k in range(8)]

    def test_part_whose_last_row_lost_its_newline_resumes_cleanly(self, tmp_path):
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=6, seeds=(1,))
        run_campaign(identity_model(), class1_dataset(), cfg,
                     out_csv=str(tmp_path / "full.csv"))
        lines = (tmp_path / "full.csv").read_text().splitlines()
        (tmp_path / "resumed.csv.part").write_text("\n".join(lines[:4]))  # no final newline
        (tmp_path / "resumed.csv.part.meta.json").write_text(
            (tmp_path / "full.meta.json").read_text())
        resumed = run_campaign(identity_model(), class1_dataset(), cfg,
                               out_csv=str(tmp_path / "resumed.csv"))
        save_records(resumed.records, THRESH5, tmp_path / "saved.csv")
        assert (tmp_path / "resumed.csv").read_bytes() == \
            (tmp_path / "saved.csv").read_bytes()
        assert load_records(tmp_path / "resumed.csv")[0] == resumed.records

    def test_resume_from_partial_flush(self, tmp_path):
        """A part file holding a clean prefix is picked up: only the
        missing ordinals are evaluated and the final CSV matches a fresh
        run except for wallclock."""
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=8,
                             seeds=(1,))
        full = run_campaign(identity_model(), class1_dataset(), cfg,
                            out_csv=str(tmp_path / "full.csv"))
        full_lines = (tmp_path / "full.csv").read_text().splitlines()
        part = tmp_path / "resumed.csv.part"
        part.write_text("\n".join(full_lines[:4]) + "\n")  # header + 3 records
        # the part's header sidecar holds the same meta as the final sidecar
        (tmp_path / "resumed.csv.part.meta.json").write_text(
            (tmp_path / "full.meta.json").read_text())
        resumed = run_campaign(identity_model(), class1_dataset(), cfg,
                               out_csv=str(tmp_path / "resumed.csv"))
        assert [strip_clock(r) for r in resumed.records] == \
            [strip_clock(r) for r in full.records]
        # the three prefix rows keep their original wallclock from the part file
        assert resumed.records[:3] == full.records[:3]
        assert not part.exists()
        assert not (tmp_path / "resumed.csv.part.meta.json").exists()

    def test_wallclock_is_the_time_since_the_previous_record(self, tmp_path):
        """Every wallclock_ns is >= 0 and the records' times sum to at most
        the time around run_campaign; the rows a resumed run adds do too,
        and the rows it resumes keep theirs."""
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=12,
                             seeds=(1, 2))

        def timed_run(name):
            t0 = time.perf_counter_ns()
            result = run_campaign(identity_model(), class1_dataset(), cfg,
                                  out_csv=str(tmp_path / name))
            return result.records, time.perf_counter_ns() - t0

        full, elapsed = timed_run("full.csv")
        clocks = [r.wallclock_ns for r in full]
        assert len(clocks) == 24 and min(clocks) >= 0 and sum(clocks) <= elapsed
        lines = (tmp_path / "full.csv").read_text().splitlines()
        (tmp_path / "resumed.csv.part").write_text("\n".join(lines[:6]) + "\n")
        (tmp_path / "resumed.csv.part.meta.json").write_text(
            (tmp_path / "full.meta.json").read_text())
        resumed, elapsed = timed_run("resumed.csv")
        assert resumed[:5] == full[:5]
        clocks = [r.wallclock_ns for r in resumed[5:]]
        assert len(clocks) == 19 and min(clocks) >= 0 and sum(clocks) <= elapsed

    def test_non_prefix_part_rejected(self, tmp_path):
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=4,
                             seeds=(1,))
        full = run_campaign(identity_model(), class1_dataset(), cfg,
                            out_csv=str(tmp_path / "full.csv"))
        lines = (tmp_path / "full.csv").read_text().splitlines()
        part = tmp_path / "broken.csv.part"
        part.write_text("\n".join([lines[0], lines[3]]) + "\n")  # skips ordinals
        with pytest.raises(DataFormatError, match="prefix"):
            run_campaign(identity_model(), class1_dataset(), cfg,
                         out_csv=str(tmp_path / "broken.csv"))
        assert full.records  # fresh run unaffected

    def _part_from_other_run(self, tmp_path, code, model):
        """Part file holding the first three rows of a finished campaign."""
        cfg = CampaignConfig(code=code, thresholds=THRESH5, sample_budget=4, seeds=(1,))
        run_campaign(model, class1_dataset(), cfg, out_csv=str(tmp_path / "other.csv"))
        lines = (tmp_path / "other.csv").read_text().splitlines()
        (tmp_path / "resumed.csv.part").write_text("\n".join(lines[:4]) + "\n")

    def test_part_of_another_code_rejected(self, tmp_path):
        """Rows of a weight campaign never splice into an output campaign,
        even when seeds and ordinals line up."""
        self._part_from_other_run(tmp_path, "RBRNw", identity_model())
        cfg = CampaignConfig(code="RBRNo", thresholds=THRESH5, sample_budget=4, seeds=(1,))
        with pytest.raises(DataFormatError, match="code RBRNw"):
            run_campaign(identity_model(), class1_dataset(), cfg,
                         out_csv=str(tmp_path / "resumed.csv"))

    def test_part_against_another_baseline_rejected(self, tmp_path):
        """Rows made on a model with another baseline accuracy (here 0.0
        against 1.0) are foreign even under the same code."""
        swapped = identity_model()
        swapped.layers[1].weight.data[:] = np.array([[0, 1], [1, 0]], dtype=np.float32)
        self._part_from_other_run(tmp_path, "RBRNw", swapped)
        cfg = CampaignConfig(code="RBRNw", thresholds=THRESH5, sample_budget=4, seeds=(1,))
        with pytest.raises(DataFormatError, match="baseline"):
            run_campaign(identity_model(), class1_dataset(), cfg,
                         out_csv=str(tmp_path / "resumed.csv"))
        assert (tmp_path / "resumed.csv.part").exists()  # left for the user to inspect


class TestPartHeader:
    """A part file is resumed only by the campaign its header sidecar
    describes: same config (workers aside), model checksum, dataset hash
    and baseline."""

    CFG = dict(code="RBRNw", thresholds=THRESH5, sample_budget=8, seeds=(1, 2))

    def interrupted(self, tmp_path, model, dataset, workers=1):
        out = tmp_path / "run.csv"
        with pytest.raises(RuntimeError, match="ordinal 5"):
            run_campaign(model, dataset, CampaignConfig(**self.CFG, workers=workers),
                         out_csv=str(out),
                         samplers={1: _ThreadNotingSampler(),
                                   2: _ThreadNotingSampler(fail_at=5)})
        return out

    def resume(self, out, model, dataset, workers=1):
        return run_campaign(model, dataset, CampaignConfig(**self.CFG, workers=workers),
                            out_csv=str(out), samplers={1: _ThreadNotingSampler(),
                                                        2: _ThreadNotingSampler()})

    def test_header_written_at_start_and_hash_in_final_meta(self, tmp_path):
        dataset = class1_dataset()
        out = self.interrupted(tmp_path, identity_model(), dataset)
        header = json.loads((tmp_path / "run.csv.part.meta.json").read_text())
        assert header["model_checksum"] == model_checksum(identity_model())
        assert header["dataset"]["sha256"] == dataset.sha256()
        assert header["config"]["experiment_code"] == "RBRNw"
        self.resume(out, identity_model(), dataset, workers=3)  # workers may differ
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["dataset"]["sha256"] == dataset.sha256()
        assert not (tmp_path / "run.csv.part.meta.json").exists()

    def test_part_of_another_model_with_the_same_baseline_rejected(self, tmp_path):
        other = identity_model()
        other.layers[1].weight.data[0, 1] = np.float32(1e-3)  # still scores 1.0
        out = self.interrupted(tmp_path, other, class1_dataset())
        with pytest.raises(DataFormatError, match="model_checksum"):
            self.resume(out, identity_model(), class1_dataset())
        assert (tmp_path / "run.csv.part").exists()

    def test_part_of_another_dataset_rejected(self, tmp_path):
        out = self.interrupted(tmp_path, identity_model(), class1_dataset())
        with pytest.raises(DataFormatError, match="dataset"):
            self.resume(out, identity_model(), class1_dataset(n=9))

    def test_part_without_or_with_a_broken_header_rejected(self, tmp_path):
        out = self.interrupted(tmp_path, identity_model(), class1_dataset())
        header = tmp_path / "run.csv.part.meta.json"
        header.write_bytes(b"\xff{")
        with pytest.raises(DataFormatError, match="unreadable"):
            self.resume(out, identity_model(), class1_dataset())
        header.unlink()
        with pytest.raises(DataFormatError, match="missing"):
            self.resume(out, identity_model(), class1_dataset())


class TestWrites:
    """Rows reach the part file in one write per stack and per block, and
    an error writes the finished rows first."""

    CFG = dict(code="RBRNw", thresholds=THRESH5, sample_budget=120, seeds=(5, 2))

    @staticmethod
    def cnn_and_data():
        data = synth_blobs(classes=3, samples_per_class=15, dims=36, spread=0.35, seed=5,
                           image_shape=(1, 6, 6), center_scale=0.5)
        return build_cnn((1, 6, 6), [3, 4], 3, 16, 3, seed=1), data

    def test_one_write_per_stack_and_block(self, tmp_path, monkeypatch):
        stacks, writes = [], []
        evaluate_stack, write = PrefixCache.evaluate_stack, _RecordSink.write

        def counting_stack(cache, model, sites):
            stacks.append(list(sites))
            return evaluate_stack(cache, model, sites)

        def counting_write(sink):
            writes.append(len(sink.pending))
            write(sink)

        monkeypatch.setattr(PrefixCache, "evaluate_stack", counting_stack)
        monkeypatch.setattr(_RecordSink, "write", counting_write)
        model, data = self.cnn_and_data()
        out = tmp_path / "run.csv"
        result = run_campaign(model, data, CampaignConfig(**self.CFG), out_csv=str(out))
        draws = len(result.records)
        assert draws == 240 and sum(writes) == draws
        nonempty = sum(1 for n in writes if n)
        assert nonempty <= len(stacks) + len(self.CFG["seeds"])
        assert nonempty < draws
        assert load_records(out)[0] == result.records

    def test_stacks_are_the_reference_plan(self, monkeypatch):
        """A miss stacks the next new sites of its layer and kind from
        anywhere in the rest of its block.  Reference plan: per seed block,
        per (layer, kind), the sites not evaluated before, in draw order,
        cut into chunks of stack_size; stacks run in order of their first
        draw."""
        stacks = []
        evaluate_stack = PrefixCache.evaluate_stack

        def recording(cache, model, sites):
            stacks.append(list(sites))
            return evaluate_stack(cache, model, sites)

        monkeypatch.setattr(PrefixCache, "evaluate_stack", recording)
        model, data = self.cnn_and_data()
        cfg = CampaignConfig(**self.CFG)
        run_campaign(model, data, cfg)

        size = PrefixCache(model, data).stack_size
        assert size > 10  # so a window of the next ten draws stacks less
        plan, evaluated = [], set()
        for seed in sorted(cfg.seeds):
            block = build_sampler(SamplerConfig(code=cfg.code, seed=seed), None,
                                  model).sample(cfg.sample_budget)
            groups = {}
            for i, site in enumerate(block):
                if site not in evaluated:
                    evaluated.add(site)
                    groups.setdefault((site.layer_id, site.target_kind), []).append((i, site))
            chunks = [g[j:j + size] for g in groups.values() for j in range(0, len(g), size)]
            plan += [[site for _, site in chunk] for chunk in sorted(chunks)]
        assert max(map(len, plan)) > 10
        assert stacks == plan

    @pytest.mark.parametrize("fail_at", [1, 2, 5])
    def test_error_in_a_stack_leaves_the_draws_before_it(self, tmp_path, monkeypatch,
                                                         fail_at):
        """An error in the fail_at-th stacked evaluation leaves a part file
        with exactly the draws before the draw that ran it, and resuming
        gives the records of an uninterrupted run.  Those rows are already
        written when the stack starts, as a hard kill there would find them."""
        model, data = self.cnn_and_data()
        cfg = CampaignConfig(**self.CFG)
        out = tmp_path / "run.csv"
        part_path = tmp_path / "run.csv.part"
        stacks, seen_at_failure = [], []
        evaluate_stack = PrefixCache.evaluate_stack

        def stack(cache, model, sites):
            stacks.append(list(sites))
            if len(stacks) == fail_at and fail:
                seen_at_failure.append(part_path.read_bytes() if part_path.exists() else b"")
                raise RuntimeError(f"stack {fail_at} failed")
            return evaluate_stack(cache, model, sites)

        monkeypatch.setattr(PrefixCache, "evaluate_stack", stack)
        fail = False
        full = run_campaign(model, data, cfg)
        assert len(stacks) > fail_at
        done = {site for sites in stacks[:fail_at - 1] for site in sites}
        failing = next(i for i, r in enumerate(full.records) if r.site not in done)

        PrefixCache.clear_shared()
        stacks.clear()
        fail = True
        with pytest.raises(RuntimeError, match=f"stack {fail_at} failed"):
            run_campaign(model, data, cfg, out_csv=str(out))
        assert part_path.exists() == (failing > 0)  # no row, no part file yet
        assert seen_at_failure == [part_path.read_bytes() if failing else b""]
        part = load_records(part_path)[0] if failing else []
        assert [strip_clock(r) for r in part] == \
            [strip_clock(r) for r in full.records[:failing]]

        fail = False
        resumed = run_campaign(model, data, cfg, out_csv=str(out))
        assert [strip_clock(r) for r in resumed.records] == \
            [strip_clock(r) for r in full.records]
        assert resumed.records[:failing] == part


class TestReport:
    def five_seed_records(self, drops_by_seed, code="RBRNw"):
        records = []
        for seed, drops in drops_by_seed.items():
            records.extend(synthetic_records(drops, seed=seed, code=code))
        return records

    def test_constant_precision_gives_zero_stddev(self):
        """Five seeds each at precision 0.5 report mean 0.5, stddev 0."""
        records = self.five_seed_records({s: [0.1, 0.0, 0.1, 0.0] for s in range(5)})
        summary = report(records, THRESH5, series_threshold=0.05)
        row = next(r for r in summary.rows if r[1] == 0.05)
        assert row[2] == pytest.approx(0.5)
        assert row[3] == 0.0
        assert row[4] == 5

    def test_mean_and_stddev_across_seeds(self):
        records = self.five_seed_records({1: [0.1, 0.1], 2: [0.1, 0.0]})
        summary = report(records, THRESH5, series_threshold=0.05)
        row = next(r for r in summary.rows if r[1] == 0.05)
        assert row[2] == pytest.approx(0.75)
        assert row[3] == pytest.approx(0.25)

    def test_series_is_seed_averaged_running_precision(self):
        records = self.five_seed_records({1: [0.1, 0.0], 2: [0.0, 0.0]})
        summary = report(records, THRESH5, series_threshold=0.05)
        np.testing.assert_allclose(summary.series["RBRNw"], [0.5, 0.25])

    def test_codes_reported_separately(self):
        records = (self.five_seed_records({1: [0.1, 0.1]}, code="GBINw")
                   + self.five_seed_records({1: [0.0, 0.0]}, code="RBRNw"))
        summary = report(records, THRESH5, series_threshold=0.05)
        by_code = {(r[0], r[1]): r[2] for r in summary.rows}
        assert by_code[("GBINw", 0.05)] == 1.0
        assert by_code[("RBRNw", 0.05)] == 0.0

    def test_mixed_threshold_records_rejected(self):
        records = (synthetic_records([0.1], thresholds=THRESH5)
                   + synthetic_records([0.1], thresholds=(0.0, 0.05)))
        with pytest.raises(UsageError, match="threshold"):
            report(records, THRESH5)

    def test_unknown_series_threshold_rejected(self):
        with pytest.raises(UsageError, match="series threshold"):
            report(synthetic_records([0.1]), THRESH5, series_threshold=0.07)

    def test_report_csvs_match_the_recorded_bytes(self, tmp_path):
        """Two codes over three seeds of uneven length, random drops: the
        CSVs equal, byte for byte, those recorded when the stats of a seed
        group were recomputed once per threshold."""
        rng = np.random.default_rng(17)
        records = []
        for code in ("GBINw", "RBRNo"):
            for seed, n in ((3, 40), (8, 33), (21, 47)):
                drops = np.round(rng.uniform(-0.1, 0.7, n), 3)
                records.extend(synthetic_records(drops, seed=seed, code=code))
        summary = report(records, THRESH5, series_threshold=0.1)
        paths = write_report_csvs(summary, tmp_path / "out")
        assert [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths] == [
            "58604566f21d5c8a49cf83a483c155d5bd5559f09303f5ba12173ded6fef5208",
            "ae9b34064a6b4d5c01531762bcc4d656976d7b49fe37f3e9858c6cdf875b41d8"]

    def test_report_csvs_written(self, tmp_path):
        records = self.five_seed_records({1: [0.1, 0.0], 2: [0.1, 0.1]})
        summary = report(records, THRESH5, series_threshold=0.05)
        prec_path, series_path = write_report_csvs(summary, tmp_path / "out")
        prec_lines = Path(prec_path).read_text().splitlines()
        assert prec_lines[0] == "experiment_code,threshold,mean_precision,stddev_precision,n_seeds"
        assert len(prec_lines) == 1 + len(THRESH5)
        stddevs = [float(l.split(",")[3]) for l in prec_lines[1:]]
        assert all(s >= 0 for s in stddevs)
        series_lines = Path(series_path).read_text().splitlines()
        assert series_lines[0] == "experiment_code,sample_count,running_precision"
        assert len(series_lines) == 3
