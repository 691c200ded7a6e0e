"""Seeded injection campaigns: run, classify, persist, summarize.

A campaign draws fault sites from a sampler in blocks, evaluates the model
once per distinct site (once per model and dataset, across campaigns), in
stacks of same-layer sites from one block, and classifies each draw's
outcome against a ladder of SDC thresholds (drop >= t on absolute accuracy
vs the fault-free baseline).  Records are deterministic for a given config
because every draw ordinal owns its RNG stream.  Only wallclock_ns varies
between runs.  Inside a campaign a block of draws is a few arrays: a site
is one int64 code (fault_model.site_codes) from the draw to the records
row.  A stacked pass builds the FaultSite of its leading site; the other
FaultSites and the InjectionRecords are built only when a
CampaignResult's records are read.

Records persist as append-friendly CSV plus a .meta.json sidecar carrying
the full config, the model checksum and a hash of the dataset, enough to
rerun the exact campaign and to refuse resuming it with anything else.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataFormatError, DataIntegrityError, UsageError
from .fault_model import (ExperimentCode, FaultSite, SamplerConfig, build_sampler,
                          check_kind, code_fields, enumerate_codes, parse_code, site_codes,
                          sites_from_codes)
from .fileio import atomic_write, read_text
from .injector import PrefixCache, evaluate_with_fault
from .nnet import check_site, model_checksum

ARTIFACT_VERSION = 1
DEFAULT_THRESHOLDS = tuple(round(i * 0.05, 2) for i in range(19))  # 0.00 .. 0.90
DEFAULT_SEEDS = (11, 23, 37, 47, 59)
DEFAULT_BUDGET = 2000

_FIXED_COLUMNS = ["experiment_code", "seed", "sample_ordinal", "layer_id",
                  "target_kind", "element_index", "bit_index", "baseline_acc",
                  "faulty_acc", "acc_drop", "poisoned", "wallclock_ns"]


def threshold_column(t: float) -> str:
    return f"sdc_{round(t * 100):03d}"


def check_thresholds(thresholds, error=ConfigError) -> tuple[float, ...]:
    """The ladder as a tuple of floats.  Raises error(message) unless every
    threshold is a whole percent in [0, 1], as a records column stores it,
    and the ladder is strictly ascending."""
    thresholds = tuple(float(t) for t in thresholds)
    for t in thresholds:
        if not 0.0 <= t <= 1.0 or round(t * 100) / 100 != t:
            raise error(f"thresholds must be whole percents in [0, 1], got {t}")
    if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
        raise error(f"thresholds must be strictly ascending, got {thresholds}")
    return thresholds


@dataclass(frozen=True)
class InjectionRecord:
    experiment_code: str
    seed: int
    sample_ordinal: int
    site: FaultSite
    baseline_accuracy: float
    faulty_accuracy: float
    accuracy_drop: float
    poisoned: bool
    wallclock_ns: int
    sdc_flags: tuple

    def sort_key(self):
        return (self.seed, self.sample_ordinal)


def make_record(code, seed, ordinal, site, baseline, faulty, poisoned,
                wallclock_ns, thresholds) -> InjectionRecord:
    drop, flags = _classify(float(baseline), float(faulty), thresholds)
    return InjectionRecord(str(code), seed, ordinal, site, float(baseline),
                           float(faulty), drop, bool(poisoned),
                           int(wallclock_ns), flags)


def _classify(baseline, faulty, thresholds):
    """(accuracy_drop, sdc_flags) of a faulty accuracy against the baseline."""
    drop = baseline - faulty
    return drop, tuple(bool(drop >= t) for t in thresholds)


@dataclass
class CampaignConfig:
    code: ExperimentCode
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    sample_budget: int = DEFAULT_BUDGET
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    uniform_mix: float = 0.0
    workers: int = 1
    exhaustive: bool = False

    def __post_init__(self):
        if isinstance(self.code, str):
            self.code = parse_code(self.code)
        self.thresholds = check_thresholds(self.thresholds)
        if not self.thresholds:
            raise ConfigError("thresholds must be nonempty")
        if self.sample_budget < 0:
            raise ConfigError(f"sample_budget must be >= 0, got {self.sample_budget}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.uniform_mix <= 1.0:
            raise ConfigError(f"uniform_mix must be in [0, 1], got {self.uniform_mix}")

    def to_json_dict(self):
        out = json_fields(self)
        out["experiment_code"] = out.pop("code")
        return out


def json_fields(config) -> dict:
    """The fields of a config dataclass as JSON values: experiment codes as
    text, tuples as lists."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {k: str(v) if isinstance(v, ExperimentCode) else list(v) if isinstance(v, tuple)
            else v for k, v in values.items()}


@dataclass
class CampaignStats:
    thresholds: tuple
    positives_true: list
    positives_false: list
    precision: list  # None where no records


@dataclass(eq=False)
class CampaignResult:
    """A campaign's draws as columns, in canonical (seed, ordinal) order:
    order holds each draw's (seed, ordinal), codes its int64 site code
    (fault_model.site_codes), faulty its accuracy, poisoned its flag and
    wallclock_ns its time.  records builds the InjectionRecords from them
    once, on first access."""
    config: CampaignConfig
    stats: CampaignStats
    baseline_accuracy: float
    order: list
    codes: np.ndarray
    faulty: np.ndarray
    poisoned: np.ndarray
    wallclock_ns: np.ndarray

    @cached_property
    def records(self) -> list:
        baseline, thresholds = self.baseline_accuracy, self.config.thresholds
        drops = baseline - self.faulty
        flags = drops[:, None] >= np.array(thresholds)
        code = str(self.config.code)
        return [InjectionRecord(code, seed, k, site, baseline, faulty, drop, poisoned, ns,
                                tuple(f))
                for (seed, k), site, faulty, drop, poisoned, ns, f in zip(
                    self.order, sites_from_codes(self.codes), self.faulty.tolist(),
                    drops.tolist(), self.poisoned.tolist(), self.wallclock_ns.tolist(),
                    flags.tolist())]


def compute_stats(records, thresholds) -> CampaignStats:
    flags = np.array([r.sdc_flags for r in records], dtype=bool)
    return _flag_stats(flags.reshape(len(records), len(thresholds)), thresholds)


def _flag_stats(flags, thresholds) -> CampaignStats:
    """Stats of a [draws, thresholds] bool matrix of SDC flags."""
    n = len(flags)
    hits = flags.sum(axis=0).tolist()
    return CampaignStats(tuple(thresholds), hits, [n - h for h in hits],
                         [h / n if n else None for h in hits])


def running_precision(records, threshold_index) -> np.ndarray:
    """Cumulative precision after each sample of one ordinal-sorted stream."""
    flags = np.array([r.sdc_flags[threshold_index] for r in records], dtype=np.float64)
    if flags.size == 0:
        return flags
    return np.cumsum(flags) / np.arange(1, flags.size + 1)


def census_from_records(records, thresholds) -> dict:
    """Distinct SDC-causing sites per threshold, keyed by threshold value."""
    census = {t: set() for t in thresholds}
    for r in records:
        for i, t in enumerate(thresholds):
            if r.sdc_flags[i]:
                census[t].add(r.site)
    return census


def compute_recall(records, thresholds, census) -> list:
    """Recall per threshold: distinct flagged sites over the census count.

    census maps threshold -> site set or plain count.  A census smaller
    than the observed distinct positives is impossible by construction and
    rejected as corrupt.
    """
    hits = census_from_records(records, thresholds)
    out = []
    for t in thresholds:
        if t not in census:
            raise UsageError(f"census lacks threshold {t}")
        size = census[t] if isinstance(census[t], int) else len(census[t])
        observed = len(hits[t])
        if size < observed:
            raise DataIntegrityError(
                f"threshold {t}: census of {size} sites is smaller than "
                f"{observed} observed distinct positives")
        out.append(observed / size if size else None)
    return out


class _RecordSink:
    """Serialized, in-order record writer with a resumable .part file.

    write(rows) appends finished rows (records lines) to `<path>.part` in
    one write and flushes it.  run_campaign writes the rows finished before
    each stack evaluation and at each block end.  Rows arrive strictly in
    (seed, ordinal) order, so the part file is always a clean prefix of
    the campaign, even after a hard kill, which loses at most the rows
    finished since the last write.  Before the first row, the
    campaign's meta (config, model checksum, dataset hash, baseline) goes
    to the part's header sidecar `<path>.part.meta.json`; a part file is
    resumed only by a campaign with the same meta.  The finished part file
    is the records file save_records would write, so `finalize` renames it
    into place atomically and writes the meta sidecar.
    """

    def __init__(self, path, thresholds, meta):
        self.path = str(path)
        self.part = self.path + ".part"
        self.header = self.part + ".meta.json"
        self.thresholds = tuple(thresholds)
        self.meta = meta
        self._fh = None

    def start(self, expected_order, code, baseline):
        """Records of the part file this campaign resumes, or [] after
        writing the header of a fresh one.  Resumed rows must be a prefix
        of the campaign's canonical (seed, ordinal) order, made with this
        experiment code against this baseline accuracy."""
        if not os.path.exists(self.part):
            atomic_write(self.header, _meta_json(self.meta))
            return []
        records, thresholds = load_records(self.part)
        if thresholds != self.thresholds:
            raise DataFormatError(f"{self.part}: thresholds differ from the config; "
                                  "delete the part file to restart")
        for r in records:
            if r.experiment_code != code or r.baseline_accuracy != baseline:
                raise DataFormatError(
                    f"{self.part}: row (seed {r.seed}, ordinal {r.sample_ordinal}) has code "
                    f"{r.experiment_code} and baseline {r.baseline_accuracy!r}, but this "
                    f"campaign runs {code} against baseline {baseline!r}; delete the part "
                    "file to restart")
        keys = [r.sort_key() for r in records]
        if keys != list(expected_order[:len(keys)]):
            raise DataFormatError(f"{self.part}: rows are not a clean prefix of this "
                                  "campaign; delete the part file to restart")
        self._check_header()
        # rewritten in canonical form, in case a crash cut its last newline
        atomic_write(self.part, _records_text(records, self.thresholds))
        return records

    def _check_header(self):
        try:
            with open(self.header, encoding="utf-8") as fh:
                header = json.load(fh)
        except FileNotFoundError:
            raise DataFormatError(f"{self.part}: its header {self.header} is missing, so "
                                  "its origin is unknown; delete the part file to "
                                  "restart") from None
        except ValueError as exc:  # not UTF-8 or not JSON
            raise DataFormatError(f"{self.header}: unreadable header: {exc}") from None
        ours = _resume_key(json.loads(_meta_json(self.meta)))
        theirs = _resume_key(header) if isinstance(header, dict) else {}
        differ = sorted(k for k in set(ours) | set(theirs) if ours.get(k) != theirs.get(k))
        if differ:
            raise DataFormatError(f"{self.part}: made by another campaign ({', '.join(differ)} "
                                  "differ); delete the part file to restart")

    def _open(self):
        if self._fh is None:
            new = not os.path.exists(self.part)
            self._fh = open(self.part, "a", encoding="utf-8", newline="")
            if new:
                self._fh.write(_records_text([], self.thresholds))
                self._fh.flush()

    def write(self, rows):
        """Write and flush the rows, if any."""
        text = "".join(rows)
        if text:
            self._open()
            self._fh.write(text)
            self._fh.flush()

    def finalize(self):
        self._open()  # a campaign that wrote no row still gets its header line
        self.close()
        os.replace(self.part, self.path)
        write_meta_sidecar(self.path, self.meta)
        os.remove(self.header)

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _format_row(r: InjectionRecord) -> str:
    s = r.site
    return _row(r.experiment_code, r.seed, r.sample_ordinal,
                f"{s.layer_id},{s.target_kind},{s.element_index},{s.bit_index}",
                _outcome_cells(r.baseline_accuracy, r.faulty_accuracy, r.accuracy_drop,
                               r.poisoned, r.sdc_flags),
                r.wallclock_ns)


def _row(code, seed, ordinal, site_cells, outcome_cells, wallclock_ns) -> str:
    """One records line, newline included, in the column order of
    _FIXED_COLUMNS and the threshold columns.  run_campaign memoizes
    outcome_cells per outcome (_OutcomeCells)."""
    head, flags = outcome_cells
    return f"{code},{seed},{ordinal},{site_cells},{head},{wallclock_ns}{flags}\n"


class _OutcomeCells(dict):
    """(accuracy, poisoned) -> the outcome cells of its rows, made when a
    row first needs them."""

    def __init__(self, baseline, thresholds):
        super().__init__()
        self.baseline, self.thresholds = baseline, thresholds

    def __missing__(self, outcome):
        faulty, poisoned = outcome
        drop, flags = _classify(self.baseline, faulty, self.thresholds)
        cells = self[outcome] = _outcome_cells(self.baseline, faulty, drop, poisoned, flags)
        return cells


def _rows(code, seed, first, codes, ns, lo, hi, target_kind, outcomes, outcome_cells):
    """The records lines of draws lo..hi-1 of a block drawn from ordinal
    `first` on, whose draw d has int64 site code codes[d], of target_kind,
    and time ns[d]."""
    layers, _, elements, bits = code_fields(codes[lo:hi])
    return map(_row, repeat(code), repeat(seed), range(first + lo, first + hi),
               map(f"{{}},{target_kind},{{}},{{}}".format,
                   layers.tolist(), elements.tolist(), bits.tolist()),
               map(outcome_cells.__getitem__, map(outcomes.__getitem__, codes[lo:hi].tolist())),
               ns[lo:hi])


def _outcome_cells(baseline, faulty, drop, poisoned, flags) -> tuple[str, str]:
    """The cells baseline_acc .. poisoned, and the flag cells, each with its
    leading comma; the wallclock cell goes between them."""
    return (f"{baseline!r},{faulty!r},{drop!r},{int(poisoned)}",
            "".join(f",{int(f)}" for f in flags))


def _records_text(rows, thresholds):
    header = ",".join(_FIXED_COLUMNS + [threshold_column(t) for t in thresholds])
    return "".join([header + "\n"] + [_format_row(r) for r in rows])


def save_records(records, thresholds, path):
    """Atomic CSV write, rows sorted by (seed, ordinal).  A ladder that
    check_thresholds refuses, or a record not classified on it (whose file
    load_records would refuse), raises UsageError before anything is written."""
    thresholds = check_thresholds(thresholds, UsageError)
    for r in records:
        if (r.accuracy_drop, r.sdc_flags) != _classify(r.baseline_accuracy, r.faulty_accuracy,
                                                        thresholds):
            raise UsageError(f"record (seed {r.seed}, ordinal {r.sample_ordinal}) was not "
                             f"classified on the ladder {thresholds}")
    atomic_write(path, _records_text(sorted(records, key=InjectionRecord.sort_key),
                                     thresholds))


def meta_path_for(path) -> str:
    base, _ = os.path.splitext(str(path))
    return base + ".meta.json"


def _meta_json(meta):
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def _resume_key(meta):
    """The part of a campaign's meta that its records depend on: all of it
    but the worker count."""
    key = dict(meta)
    if isinstance(key.get("config"), dict):
        key["config"] = {k: v for k, v in key["config"].items() if k != "workers"}
    return key


def write_meta_sidecar(path, meta):
    atomic_write(meta_path_for(path), _meta_json(meta))


def _flag(cell):
    """The bool a poisoned or sdc_* cell holds; save_records writes only 0 and 1."""
    if cell not in ("0", "1"):
        raise ValueError(f"a flag must be 0 or 1, got {cell!r}")
    return cell == "1"


def _number(cell, kind=int):
    """The int or float a cell holds, refused unless the cell is exactly
    what save_records writes for that value; int() and float() also take
    _, whitespace, a + and other spellings, which a resume would rewrite."""
    value = kind(cell)
    if repr(value) != cell:
        raise ValueError(f"{cell!r} is not how save_records writes the {kind.__name__} "
                         f"{value!r}")
    return value


def load_records(path):
    """Parse a records CSV; returns (records, thresholds).

    SDC flags are revalidated against the stored accuracies; a mismatch
    means the file was edited and is rejected with DataIntegrityError.  Any
    other defect of the file raises DataFormatError.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty records file")
    names = lines[0].split(",")
    if names[:len(_FIXED_COLUMNS)] != _FIXED_COLUMNS:
        raise DataFormatError(f"{path}: unexpected header {lines[0]!r}")
    thresholds = []
    for name in names[len(_FIXED_COLUMNS):]:
        digits = name[4:]  # threshold_column writes 3 digits
        if not (name.startswith("sdc_") and digits.isascii() and digits.isdigit()
                and len(digits) <= 3):
            raise DataFormatError(f"{path}: bad threshold column {name!r}")
        thresholds.append(int(digits) / 100)
    thresholds = check_thresholds(thresholds, lambda msg: DataFormatError(f"{path}: {msg}"))
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise DataFormatError(f"{path}:{lineno}: expected {len(names)} cells, "
                                  f"got {len(cells)}")
        try:
            site = FaultSite(_number(cells[3]), cells[4], _number(cells[5]), _number(cells[6]))
            rec = make_record(cells[0], _number(cells[1]), _number(cells[2]), site,
                              _number(cells[7], float), _number(cells[8], float),
                              _flag(cells[10]), _number(cells[11]), thresholds)
            stored_drop = _number(cells[9], float)
            stored_flags = tuple(_flag(c) for c in cells[12:])
        except (ValueError, UsageError) as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        if stored_drop != rec.accuracy_drop or stored_flags != rec.sdc_flags:
            raise DataIntegrityError(f"{path}:{lineno}: stored drop/flags do not "
                                     "match the stored accuracies")
        records.append(rec)
    return records, thresholds


class _ExhaustiveSampler:
    """Replays the full site enumeration in order; the 100%-budget mode."""

    def __init__(self, model, code: ExperimentCode):
        self.codes = enumerate_codes(model, code.target_kind)

    def sample_codes(self, n, start_ordinal=0):
        return self.codes[start_ordinal:start_ordinal + n]


def _campaign_meta(config, model, dataset, baseline):
    return {"artifact_version": ARTIFACT_VERSION,
            "kind": "campaign_records",
            "config": config.to_json_dict(),
            "model_checksum": model_checksum(model),
            "baseline_accuracy": baseline,
            "dataset": {"split": dataset.split, "samples": len(dataset),
                        "sha256": dataset.sha256()},
            "sampler": "two-stage (neuron stage, then bit stage); "
                       "per-ordinal rng streams seeded by (seed, ordinal)"}


def run_campaign(model, dataset, config: CampaignConfig, attributions=None,
                 out_csv=None, samplers=None, probe_images=None) -> CampaignResult:
    """Run the campaign and return its draws, with pooled stats.

    The pending (seed, ordinal) draws run in canonical order in the calling
    thread; records do not depend on `workers`, which is accepted and
    validated but starts no thread.  A thread pool was measured and
    dropped: on 1500 6x6 images through the acceptance CNN, 2 pool threads
    ran 460-590 evaluations/s against 730-1080 in the calling thread
    (2-core Xeon, one BLAS thread).  Evaluation never writes the model.

    samplers, if given, needs a sampler for every seed, or raises
    UsageError before any draw; by default the seeds' samplers share one
    build_sampler call (FaultSampler.with_seed).  Each seed's pending
    ordinals are one block of int64 site codes, drawn with one sample_codes
    call; a code of another target kind than the experiment code's raises
    UsageError.  PrefixCache.shared gives the baseline, the clean
    activations and the outcome memo: a site drawn again, at any seed or in
    an earlier campaign or latency run on the same unchanged model and
    dataset, reuses its first (accuracy, poisoned).  PrefixCache.certify first gives the
    block's output-fault sites that provably change no prediction the
    baseline outcome.  The block's other distinct codes with no outcome are
    grouped by layer, in order of first draw, and cut into stacks of
    PrefixCache.stack_size, each one evaluate_with_fault call, run in the
    order of their leading draws.  A code that names no element of the
    model stays out of the stacks and raises UsageError at its own draw.
    If the block draw raises, each ordinal is drawn again as a block of
    its own, so the draws before the failing one still land.  A stack's
    leading draw carries the stack's time as wallclock_ns, a block's first
    draw also the block draw and its certification, every other draw 0.

    With out_csv set, rows go to `<out_csv>.part` in order: the rows
    finished before each stack in one write, and the rest of each block's
    in one at its end, so after an error the part file ends exactly before
    the failing draw; a hard kill leaves a clean prefix.  An existing part
    file is resumed when its header sidecar shows the same config (workers
    aside), model checksum, dataset hash and baseline, and its rows carry
    this code and baseline.  The finished part file is renamed onto
    out_csv.  The result keeps the draws as columns, resumed rows with
    their loaded values, and builds its records only when they are read.
    """
    prefix = PrefixCache.shared(model, dataset)
    baseline, _ = prefix.baseline

    if config.exhaustive:
        sampler = _ExhaustiveSampler(model, config.code)
        plan = [(config.seeds[0], sampler, len(sampler.codes))]
    else:
        seeds = sorted(config.seeds)
        if samplers is None:
            # one build: every seed's sampler shares its tables
            built = build_sampler(
                SamplerConfig(code=config.code, uniform_mix=config.uniform_mix,
                              seed=seeds[0]),
                attributions, model, probe_images=probe_images)
            samplers = {seed: built.with_seed(seed) for seed in seeds}
        lacking = [seed for seed in seeds if seed not in samplers]
        if lacking:
            raise UsageError(f"samplers has no sampler for seeds {lacking}")
        plan = [(seed, samplers[seed], config.sample_budget) for seed in seeds]

    code_str, kind = str(config.code), config.code.target_kind
    order = [(seed, k) for seed, _, budget in plan for k in range(budget)]
    sink = None
    resumed = []
    if out_csv is not None:
        sink = _RecordSink(out_csv, config.thresholds,
                           _campaign_meta(config, model, dataset, baseline))
        resumed = sink.start(order, code_str, baseline)
    # (codes, faulty, poisoned, wallclock_ns) of the resumed rows, then of each block
    columns = [(site_codes([r.site for r in resumed]),
                np.array([r.faulty_accuracy for r in resumed], dtype=np.float64),
                np.array([r.poisoned for r in resumed], dtype=bool),
                np.array([r.wallclock_ns for r in resumed], dtype=np.int64))]
    done = Counter(r.seed for r in resumed)  # a clean prefix: ordinals 0..m-1

    outcomes = prefix.outcomes
    outcome_cells = _OutcomeCells(baseline, config.thresholds)
    try:
        for seed, sampler, budget in plan:  # canonical order, so writes stay sorted
            start = done[seed]
            if start >= budget:
                continue
            mark = time.perf_counter_ns()
            try:
                blocks = [(start, sampler.sample_codes(budget - start, start))]
            except Exception:
                # redraw one ordinal at a time below, so the draws before a
                # failing ordinal are evaluated and written before it raises
                blocks = ((k, sampler.sample_codes(1, k)) for k in range(start, budget))
            for first, codes in blocks:
                distinct, inverse, stacks, stop = _plan_block(model, prefix, codes, kind)
                ns = [0] * len(codes)
                ns[0] = time.perf_counter_ns() - mark
                written = 0
                for leader, stack in stacks:
                    if sink is not None:
                        sink.write(_rows(code_str, seed, first, codes, ns, written, leader,
                                         kind, outcomes, outcome_cells))
                        written = leader
                    t0 = time.perf_counter_ns()
                    evaluate_with_fault(model, dataset, sites_from_codes(stack[:1])[0],
                                        prefix=prefix, ahead=stack[1:])
                    ns[leader] += time.perf_counter_ns() - t0
                if sink is not None:
                    sink.write(_rows(code_str, seed, first, codes, ns, written, stop,
                                     kind, outcomes, outcome_cells))
                if stop < len(codes):
                    check_site(model, sites_from_codes(codes[stop:stop + 1])[0])
                faulty, poisoned = map(np.array, zip(*map(outcomes.__getitem__,
                                                          distinct.tolist())))
                columns.append((codes, faulty[inverse], poisoned[inverse],
                                np.array(ns, dtype=np.int64)))
                mark = time.perf_counter_ns()
    except BaseException:
        if sink is not None:
            sink.close()  # the part file keeps a clean prefix for resume
        raise

    if sink is not None:
        sink.finalize()
    codes, faulty, poisoned, wallclock = (np.concatenate(c) for c in zip(*columns))
    flags = (baseline - faulty)[:, None] >= np.array(config.thresholds)
    return CampaignResult(config, _flag_stats(flags, config.thresholds), baseline, order,
                          codes, faulty, poisoned, wallclock)


def _plan_block(model, prefix, codes, target_kind):
    """Certify a block of drawn site codes and plan its stacks.

    Returns (distinct, inverse, stacks, stop): the block's distinct codes
    and the index of each draw's code among them (np.unique); its stacks, each (index of its leading draw, its codes), in the order of
    their leaders; and the index of the first draw that names no element
    of the model, or the block's length.  A stack holds up to
    prefix.stack_size codes of one layer with no outcome yet, in order of
    first draw; only stacks led before stop are planned.  A code of
    another kind than target_kind raises UsageError.
    """
    check_kind(codes, target_kind)
    prefix.certify(model, codes)
    distinct, firsts, inverse = np.unique(codes, return_index=True, return_inverse=True)
    valid = prefix.valid(distinct)
    stop = int(firsts[~valid].min(initial=len(codes)))
    todo = valid & ~prefix.known(distinct)
    todo, firsts = distinct[todo], firsts[todo]
    order = np.lexsort((firsts, code_fields(todo)[0]))  # by layer, then by first draw
    todo, firsts = todo[order], firsts[order]
    begins = np.flatnonzero(np.diff(code_fields(todo)[0], prepend=-1))  # of each layer
    rank = np.arange(len(todo)) - np.repeat(begins, np.diff(begins, append=len(todo)))
    cuts = np.flatnonzero(rank % prefix.stack_size == 0)
    stacks = sorted(zip(firsts[cuts].tolist(), np.split(todo, cuts[1:])), key=lambda s: s[0])
    return distinct, inverse, [stack for stack in stacks if stack[0] < stop], stop


def exhaustive_census(model, dataset, target_kind, thresholds, seed=0) -> dict:
    """Brute-force SDC census: evaluate every fault site once.

    Returns {threshold: set of SDC-causing FaultSites}.  Desk scale only;
    the site count is the model's full search space.
    """
    config = CampaignConfig(code="RBRN" + ("w" if target_kind == "neuron_weight" else "o"),
                            thresholds=thresholds, seeds=(seed,), exhaustive=True)
    result = run_campaign(model, dataset, config)
    return census_from_records(result.records, thresholds)


@dataclass
class ReportSummary:
    thresholds: tuple
    series_threshold: float
    rows: list = field(default_factory=list)
    # rows: (code, threshold, mean_precision, stddev, n_seeds)
    series: dict = field(default_factory=dict)
    # series: code -> np.ndarray of seed-averaged running precision


def report(records, thresholds, series_threshold=0.05) -> ReportSummary:
    """Per-code summary: seed-averaged precision per threshold plus the
    running precision-vs-samples series at one chosen threshold.

    Precision is computed per seed first, then averaged; the spread column
    is the population standard deviation across seeds.
    """
    thresholds = tuple(thresholds)
    for r in records:
        if len(r.sdc_flags) != len(thresholds):
            raise UsageError("records carry a different threshold ladder than "
                             "the one given; refusing to mix them")
    try:
        series_index = thresholds.index(series_threshold)
    except ValueError:
        raise UsageError(f"series threshold {series_threshold} is not one of the "
                         f"record thresholds") from None

    by_code: dict = {}
    for r in records:
        by_code.setdefault(r.experiment_code, {}).setdefault(r.seed, []).append(r)
    summary = ReportSummary(thresholds, series_threshold)
    for code in sorted(by_code):
        seed_groups = [sorted(group, key=InjectionRecord.sort_key)
                       for _, group in sorted(by_code[code].items())]
        precisions = [compute_stats(g, thresholds).precision for g in seed_groups]
        for i, t in enumerate(thresholds):
            per_seed = [p[i] for p in precisions if p[i] is not None]
            if per_seed:
                summary.rows.append((code, t, float(np.mean(per_seed)),
                                     float(np.std(per_seed)), len(per_seed)))
            else:
                summary.rows.append((code, t, None, None, 0))
        runs = [running_precision(g, series_index) for g in seed_groups]
        if runs and min(len(r) for r in runs) > 0:
            length = min(len(r) for r in runs)
            summary.series[code] = np.mean([r[:length] for r in runs], axis=0)
        else:
            summary.series[code] = np.zeros(0)
    return summary


def write_report_csvs(summary: ReportSummary, out_prefix) -> tuple:
    """Write `<prefix>_precision.csv` and `<prefix>_series.csv`; returns paths."""
    prec_path = f"{out_prefix}_precision.csv"
    series_path = f"{out_prefix}_series.csv"
    lines = ["experiment_code,threshold,mean_precision,stddev_precision,n_seeds\n"]
    for code, t, mean, std, n in summary.rows:
        mean_s = "null" if mean is None else repr(mean)
        std_s = "null" if std is None else repr(std)
        lines.append(f"{code},{t},{mean_s},{std_s},{n}\n")
    atomic_write(prec_path, "".join(lines))
    lines = ["experiment_code,sample_count,running_precision\n"]
    for code, series in sorted(summary.series.items()):
        for i, value in enumerate(series, start=1):
            lines.append(f"{code},{i},{value!r}\n")
    atomic_write(series_path, "".join(lines))
    return prec_path, series_path
