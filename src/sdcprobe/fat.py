"""Fault-aware training and latency-to-critical measurement.

fat_train warms a model up clean, draws the first few faults from the
configured sampler, then keeps training with those faults active so the
network learns to route around them.  Each FAT epoch trains inside one
faults_active block, whose repin holds the weight faults through every
optimizer step; output faults reach every forward pass.  Between epochs
the model holds no fault, and the latency runs measure it as it stands.

The latency metric asks how many fault evaluations (draws) a sampler needs
before hitting k critical faults in a row; importance-guided samplers find
them sooner.  A run draws sites in growing blocks and runs the model once
per distinct site; runs on the same model and dataset share those
evaluations.  "Critical" means clamped accuracy drop >= threshold, where
drops below zero clamp to zero so threshold 0.0 is trivially met.  Cycle
counts are proxied by evaluations x test-set size.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .attribution import AttributionConfig, attribute_all
from .campaign import DEFAULT_THRESHOLDS, json_fields
from .errors import ConfigError
from .fault_model import SamplerConfig, build_sampler, parse_code
from .fileio import atomic_write
from .injector import (PrefixCache, evaluate_with_fault, evaluate_with_fault_set,
                       faults_active)
from .nnet import evaluate_detailed, train
from .nnet.training import EVAL_BATCH

LATENCY_BUDGET_CAP = 10_000
# latency runs draw 32 ordinals, then blocks doubling in size: short runs
# waste few draws, long ones pay the fixed cost of a block draw rarely
_FIRST_LATENCY_BLOCK = 32


@dataclass
class FatConfig:
    code: object = "GBINo"             # sampler for the trained-on faults
    adversary_code: object = "RBRNo"   # sampler for the comparison fault set
    warmup_epochs: int = 5
    fat_epochs: int = 5
    faults_per_round: int = 5
    consecutive_criticals_required: int = 3
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    simulations_per_epoch: int = 3     # latency sims after each FAT epoch
    latency_threshold: float = 0.05
    lr: float = 0.01
    batch_size: int = 32
    optimizer: str = "sgd"
    seed: int = 0
    uniform_mix: float = 0.0
    attribution_steps: int = 32
    attribution_sample_count: int | None = None

    def __post_init__(self):
        if isinstance(self.code, str):
            self.code = parse_code(self.code)
        if isinstance(self.adversary_code, str):
            self.adversary_code = parse_code(self.adversary_code)
        for name in ("warmup_epochs", "fat_epochs", "consecutive_criticals_required",
                     "batch_size", "attribution_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.faults_per_round < 0:
            raise ConfigError("faults_per_round must be >= 0")
        if self.simulations_per_epoch < 0:
            raise ConfigError("simulations_per_epoch must be >= 0")
        if not 0 < self.lr < math.inf:  # NaN fails it too
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.attribution_sample_count is not None and self.attribution_sample_count < 1:
            raise ConfigError("attribution_sample_count must be >= 1 or null")
        if not 0.0 <= self.uniform_mix <= 1.0:
            raise ConfigError(f"uniform_mix must be in [0, 1], got {self.uniform_mix}")
        if not 0.0 <= self.latency_threshold <= 1.0:  # NaN fails it too
            raise ConfigError(f"latency_threshold must be in [0, 1], got {self.latency_threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        last = self.seed + 1000 * self.fat_epochs + self.simulations_per_epoch - 1
        if last >= 2**63:  # each latency run seeds an attribution, an i64 seed
            raise ConfigError(f"seed {self.seed} derives latency seeds up to {last}, "
                              "past 2**63 - 1")

    def to_json_dict(self):
        return json_fields(self)


@dataclass
class LatencyResult:
    code: str
    threshold: float
    seed: int
    evaluations_needed: int
    wallclock_ns: int
    censored: bool
    test_set_size: int

    @property
    def cycles(self):
        """Evaluation count scaled by test-set size; the cycle-count proxy."""
        return self.evaluations_needed * self.test_set_size

    def to_json_dict(self):
        return {"code": self.code, "threshold": self.threshold, "seed": self.seed,
                "evaluations_needed": self.evaluations_needed,
                "wallclock_ns": self.wallclock_ns, "censored": self.censored,
                "cycles": self.cycles}


def _sampler_for(model, dataset, code, seed, *, uniform_mix=0.0, steps=32,
                 sample_count=None):
    """Sampler plus the attribution pass it needs; importance codes pay the
    attribution cost here, which is why callers time around this."""
    attributions = None
    if code.needs_attributions:
        cfg = AttributionConfig(target_kind=code.target_kind, steps=steps,
                                sample_count=sample_count, seed=seed)
        attributions = attribute_all(model, dataset, cfg)
    probe = dataset.images[:EVAL_BATCH]
    return build_sampler(SamplerConfig(code=code, uniform_mix=uniform_mix, seed=seed),
                         attributions, model, probe_images=probe)


def measure_latency_to_critical(model, dataset, code, threshold, k=3, *, seed=0,
                                budget_cap=LATENCY_BUDGET_CAP,
                                attribution_steps=32,
                                attribution_sample_count=None,
                                sampler=None) -> LatencyResult:
    """Fault evaluations needed to see k consecutive critical faults.

    Attribution (re)computation for importance codes happens inside the
    timed window, so wallclock_ns reflects the sampler's true cost.  Runs
    past budget_cap evaluations return censored instead of raising.  A
    prebuilt sampler can be passed for diagnostics with constructed site
    sequences; the code's own sampler is built otherwise.  The baseline,
    the clean activations every evaluation resumes from and the outcome
    memo come from PrefixCache.shared.

    Sites are drawn in blocks of 32, 64, 128, ... ordinals, capped at the
    budget left; draws past the stopping ordinal are discarded unevaluated.
    evaluations_needed counts draws: a site drawn again, in this run or in
    an earlier run or campaign on the same unchanged model and dataset,
    reuses its first evaluation's accuracy, so the model runs once per
    distinct site per model and dataset.  Each block first goes through
    PrefixCache.certify, which gives the output-fault sites it proves
    harmless the baseline outcome with no pass; a check costs far less than
    a pass, so certifying draws past the stop wastes little.  Unlike a
    campaign, a run evaluates each other new site in a stack of one, in
    draw order: whether a later draw is needed depends on this one's
    outcome, and a stacked pass would evaluate draws past the stop.
    """
    if isinstance(code, str):
        code = parse_code(code)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0.0 <= threshold <= 1.0:  # NaN fails it too
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    t0 = time.perf_counter_ns()
    if sampler is None:
        sampler = _sampler_for(model, dataset, code, seed, steps=attribution_steps,
                               sample_count=attribution_sample_count)
    prefix = PrefixCache.shared(model, dataset)
    baseline, _ = prefix.baseline
    outcomes = prefix.outcomes
    consecutive = 0
    evaluations = 0
    censored = True
    block = _FIRST_LATENCY_BLOCK
    while censored and evaluations < budget_cap:
        n = min(block, budget_cap - evaluations)
        drawn = sampler.sample(n, evaluations)
        prefix.certify(model, drawn)
        for site in drawn:
            outcome = outcomes.get(site)
            if outcome is None:
                outcome = evaluate_with_fault(model, dataset, site, prefix=prefix)
            evaluations += 1
            # clamp: improvements are not critical
            drop = max(0.0, baseline - outcome[0])
            consecutive = consecutive + 1 if drop >= threshold else 0
            if consecutive >= k:
                censored = False
                break  # the rest of the block is discarded unevaluated
        block *= 2
    wallclock = time.perf_counter_ns() - t0
    return LatencyResult(str(code), float(threshold), seed, evaluations,
                         wallclock, censored, len(dataset))


@dataclass
class FatReport:
    config: FatConfig
    baseline_accuracy: float
    post_fat_accuracy: float
    accuracy_under_trained_faults: float
    accuracy_under_adversary_faults: float
    trained_fault_sites: list
    adversary_fault_sites: list
    warmup_log: list
    fat_log: list
    latency: dict = field(default_factory=dict)  # code -> [LatencyResult]

    def to_json_dict(self):
        return {**vars(self), "config": self.config.to_json_dict(),
                "trained_fault_sites": [vars(s) for s in self.trained_fault_sites],
                "adversary_fault_sites": [vars(s) for s in self.adversary_fault_sites],
                "latency": {code: [r.to_json_dict() for r in results]
                            for code, results in self.latency.items()}}


def save_fat_report(report: FatReport, path):
    atomic_write(path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")


def fat_train(model, train_set, test_set, config: FatConfig):
    """Fault-aware training; returns (model, FatReport).

    The resilience baseline is a twin: a copy of the model taken after the
    warm-up, trained clean through the FAT epochs with the same seeds, so
    faults_per_round=0 reproduces it bit for bit.  Per-epoch latency
    simulations run on the training model, with the epoch's faults removed,
    and with distinct seeds; they write no weight, so they share one outcome
    memo.  Weight-importance attribution leaves .grad set on the model,
    which the next backward overwrites before anything reads it.
    """
    def fit(m, epochs, seed, **kwargs):
        return train(m, train_set, epochs=epochs, batch_size=config.batch_size,
                     lr=config.lr, optimizer=config.optimizer, seed=seed,
                     eval_set=test_set, **kwargs)

    def draw(code):
        return _sampler_for(model, train_set, code, config.seed,
                            uniform_mix=config.uniform_mix, steps=config.attribution_steps,
                            sample_count=config.attribution_sample_count
                            ).sample(config.faults_per_round)

    warmup_log = fit(model, config.warmup_epochs, config.seed)
    twin = model.copy()
    for epoch in range(config.fat_epochs):
        fit(twin, 1, config.seed + 1 + epoch)
    baseline_accuracy, _ = evaluate_detailed(twin, test_set)

    trained_sites, adversary_sites = [], []
    if config.faults_per_round > 0:
        trained_sites = draw(config.code)
        adversary_sites = draw(config.adversary_code)
    fat_log = []
    latency: dict = {}
    for epoch in range(config.fat_epochs):
        with faults_active(model, trained_sites) as (output_faults, repin):
            fat_log.extend(fit(model, 1, config.seed + 1 + epoch, on_nonfinite="skip",
                               post_step=repin, output_faults=output_faults))
        for sim in range(config.simulations_per_epoch):
            sim_seed = config.seed + 1000 * (epoch + 1) + sim
            for code in (config.code, config.adversary_code):
                result = measure_latency_to_critical(
                    model, test_set, code, config.latency_threshold,
                    k=config.consecutive_criticals_required, seed=sim_seed,
                    attribution_steps=config.attribution_steps,
                    attribution_sample_count=config.attribution_sample_count)
                latency.setdefault(str(code), []).append(result)

    post_fat_accuracy, _ = evaluate_detailed(model, test_set)
    under_trained, _ = evaluate_with_fault_set(model, test_set, trained_sites)
    under_adversary, _ = evaluate_with_fault_set(model, test_set, adversary_sites)

    report = FatReport(config=config,
                       baseline_accuracy=baseline_accuracy,
                       post_fat_accuracy=post_fat_accuracy,
                       accuracy_under_trained_faults=under_trained,
                       accuracy_under_adversary_faults=under_adversary,
                       trained_fault_sites=list(trained_sites),
                       adversary_fault_sites=list(adversary_sites),
                       warmup_log=warmup_log, fat_log=fat_log, latency=latency)
    return model, report
