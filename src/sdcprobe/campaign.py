"""Seeded injection campaigns: run, classify, persist, summarize.

A campaign draws fault sites from a sampler in blocks, evaluates the model
once per distinct site (once per model and dataset, across campaigns), in
stacks of same-layer sites from one block, and classifies each draw's
outcome against a ladder of SDC thresholds (drop >= t on absolute accuracy
vs the fault-free baseline).  Records are deterministic for a given config
because every draw ordinal owns its RNG stream.  Only wallclock_ns varies
between runs.

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
from itertools import islice

import numpy as np

from .errors import ConfigError, DataFormatError, DataIntegrityError, UsageError
from .fault_model import (ExperimentCode, FaultSite, SamplerConfig, build_sampler,
                          enumerate_sites, parse_code)
from .fileio import atomic_write, read_text
from .injector import PrefixCache, evaluate_with_fault
from .nnet import model_checksum

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


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: list
    stats: CampaignStats
    baseline_accuracy: float


def compute_stats(records, thresholds) -> CampaignStats:
    n = len(records)
    pt, pf, prec = [], [], []
    for i, _ in enumerate(thresholds):
        hits = sum(1 for r in records if r.sdc_flags[i])
        pt.append(hits)
        pf.append(n - hits)
        prec.append(hits / n if n else None)
    return CampaignStats(tuple(thresholds), pt, pf, prec)


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

    The campaign appends finished rows (records lines) to `pending`, at
    most one block of them; write() appends them to `<path>.part` in one
    write and flushes it.  run_campaign writes before each stack
    evaluation, at each block end, and on an error before close().  Rows
    arrive strictly in (seed, ordinal) order, so the part file is always a
    clean prefix of the campaign, even after a hard kill, which loses at
    most the rows pending since the last write.  Before the first row, the
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
        self.pending = []
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

    def write(self):
        """Write and flush the pending rows, if any."""
        if self.pending:
            self._open()
            self._fh.write("".join(self.pending))
            self._fh.flush()
            self.pending.clear()

    def finalize(self):
        self.write()
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
    return _row(r.experiment_code, r.seed, r.sample_ordinal, _site_cells(r.site),
                _outcome_cells(r.baseline_accuracy, r.faulty_accuracy, r.accuracy_drop,
                               r.poisoned, r.sdc_flags),
                r.wallclock_ns)


def _row(code, seed, ordinal, site_cells, outcome_cells, wallclock_ns) -> str:
    """One records line, newline included, in the column order of
    _FIXED_COLUMNS and the threshold columns.  run_campaign memoizes
    outcome_cells per (accuracy, poisoned)."""
    head, flags = outcome_cells
    return f"{code},{seed},{ordinal},{site_cells},{head},{wallclock_ns}{flags}\n"


def _site_cells(site) -> str:
    return f"{site.layer_id},{site.target_kind},{site.element_index},{site.bit_index}"


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
        self.sites = enumerate_sites(model, code.target_kind)

    def sample(self, n, start_ordinal=0):
        return self.sites[start_ordinal:start_ordinal + n]


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
    """Run the campaign and return all records plus pooled stats.

    The pending (seed, ordinal) draws run in canonical order in the calling
    thread; records do not depend on `workers`, which is accepted and
    validated but starts no thread.  A thread pool was measured and
    dropped: on 1500 6x6 images through the acceptance CNN, 2 pool threads
    ran 460-590 evaluations/s against 730-1080 in the calling thread
    (2-core Xeon, one BLAS thread).  Evaluation never writes the model.

    Each seed's pending ordinals are one contiguous range, drawn with one
    `sampler.sample` call.  A site drawn again, at any seed or in an
    earlier campaign or latency run on the same unchanged model and
    dataset, reuses the (accuracy, poisoned) outcome of its first
    evaluation, so each distinct site is evaluated once per model and
    dataset.  Before any stack is filled, PrefixCache.certify gives each
    output-fault site of the drawn block that provably changes no
    prediction the baseline as its outcome, with no pass; weight sites are
    never certified.  A draw whose site has no outcome yet is evaluated in
    a stack (evaluate_with_fault with the rest of its block as ahead): with
    it, up to PrefixCache.stack_size - 1 not-yet-evaluated sites of the
    same layer and kind from the rest of its block, in draw order, share
    one pass, and the later draws of those sites find their outcomes in the
    memo.  Certification and the memo change no record.  There is
    still one record per draw.  Its wallclock_ns is the time since the
    previous record of this call (since the draws began, for the first),
    so the block draw and a stack count on the draw that ran them.  If the
    block draw raises, the block is drawn again one ordinal at a time, and
    each of those draws is a stack of one, so the draws before the failing
    one still land.  A drawn site that names no element of the model is
    left out of the stacks and raises UsageError at its own draw.

    PrefixCache.shared gives the baseline, the outcome memo and the clean
    activations every evaluation resumes from, rerunning only the layers
    from its fault onward.  With out_csv set, rows go to `<out_csv>.part`
    in order, in one write before each stack evaluation and one at the end
    of each block, and an error writes the finished rows first, so it
    leaves exactly the draws before the failing one.  A hard kill may drop
    the rows finished since the last write but leaves a clean prefix.  An
    existing part file from an interrupted run is picked up where it
    stopped, provided its header sidecar shows the same config (workers
    aside), model checksum, dataset hash and baseline, and its rows carry
    this experiment code and baseline.  The finished part file is renamed
    onto out_csv.  Records come back in canonical (seed, ordinal) order.

    The seeds' samplers share one build_sampler call (FaultSampler.with_seed).
    A record and its row share the parts memoized per distinct (accuracy,
    poisoned) outcome; a draw's site cells are formatted only for its row.
    """
    prefix = PrefixCache.shared(model, dataset)
    baseline, _ = prefix.baseline

    if config.exhaustive:
        sampler = _ExhaustiveSampler(model, config.code)
        plan = [(config.seeds[0], sampler, len(sampler.sites))]
    else:
        seeds = sorted(config.seeds)
        if samplers is None:
            # one build: every seed's sampler shares its tables
            built = build_sampler(
                SamplerConfig(code=config.code, uniform_mix=config.uniform_mix,
                              seed=seeds[0]),
                attributions, model, probe_images=probe_images)
            samplers = {seed: built.with_seed(seed) for seed in seeds}
        plan = [(seed, samplers[seed], config.sample_budget) for seed in seeds]

    code_str = str(config.code)
    expected_order = [(seed, k) for seed, _, budget in plan for k in range(budget)]
    sink = None
    records = []
    if out_csv is not None:
        sink = _RecordSink(out_csv, config.thresholds,
                           _campaign_meta(config, model, dataset, baseline))
        records = list(sink.start(expected_order, code_str, baseline))
    resumed = Counter(r.seed for r in records)  # a clean prefix: ordinals 0..m-1

    outcomes = prefix.outcomes
    # per distinct (accuracy, poisoned): (faulty, poisoned, drop, flags, outcome cells)
    by_outcome = {}
    last = time.perf_counter_ns()  # each record's wallclock_ns runs from the one before
    try:
        for seed, sampler, budget in plan:  # canonical order, so writes stay sorted
            start = resumed[seed]
            n = budget - start
            if n <= 0:
                continue
            try:
                sites = sampler.sample(n, start)
            except Exception:
                # redraw one ordinal at a time below, so the draws before a
                # failing ordinal are evaluated and written before it raises
                sites = None
            else:
                prefix.certify(model, sites)
            for i in range(n):
                k = start + i
                site = sites[i] if sites is not None else sampler.sample(1, k)[0]
                outcome = outcomes.get(site)
                if outcome is None:
                    if sink is not None:
                        sink.write()
                    ahead = islice(sites, i + 1, None) if sites is not None else ()
                    outcome = evaluate_with_fault(model, dataset, site, prefix=prefix,
                                                  ahead=ahead)
                cells = by_outcome.get(outcome)
                if cells is None:
                    faulty, poisoned = outcome
                    drop, flags = _classify(baseline, faulty, config.thresholds)
                    cells = by_outcome[outcome] = (
                        faulty, poisoned, drop, flags,
                        _outcome_cells(baseline, faulty, drop, poisoned, flags))
                faulty, poisoned, drop, flags, outcome_cells = cells
                now = time.perf_counter_ns()
                ns, last = now - last, now
                records.append(InjectionRecord(code_str, seed, k, site, baseline, faulty,
                                               drop, poisoned, ns, flags))
                if sink is not None:
                    sink.pending.append(_row(code_str, seed, k, _site_cells(site),
                                             outcome_cells, ns))
            if sink is not None:
                sink.write()
    except BaseException:
        if sink is not None:
            try:
                sink.write()  # the finished draws before the failing one
            finally:
                sink.close()  # the part file keeps a clean prefix for resume
        raise

    if sink is not None:
        sink.finalize()
    stats = compute_stats(records, config.thresholds)
    return CampaignResult(config, records, stats, baseline)


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
