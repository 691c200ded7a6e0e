"""Gradient-guided fault-injection campaigns for small neural networks."""

from .attribution import (AttributionConfig, AttributionMap, attribute_all, conductance,
                          load_attribution, save_attribution)
from .bitfloat import bit_gradients, bit_weights, decode, encode, flip_bit
from .campaign import (CampaignConfig, CampaignResult, InjectionRecord, compute_recall,
                       load_records, report, run_campaign, save_records)
from .errors import (ConfigError, DataFormatError, DataIntegrityError, SdcProbeError,
                     TrainingDivergedError, UsageError)
from .fat import FatConfig, FatReport, fat_train, measure_latency_to_critical
from .fault_model import (ExperimentCode, FaultSampler, FaultSite, SamplerConfig,
                          all_codes, build_sampler, enumerate_sites, load_fault_csv,
                          parse_code, save_fault_csv)
from .injector import (InjectionHandle, evaluate_with_fault, evaluate_with_fault_set,
                       faults_active, inject, inject_set, remove)
from .nnet import (Model, build_cnn, build_mlp, evaluate, load_checkpoint,
                   model_checksum, save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "AttributionConfig", "AttributionMap", "CampaignConfig", "CampaignResult",
    "ConfigError", "DataFormatError", "DataIntegrityError", "ExperimentCode",
    "FatConfig", "FatReport", "FaultSampler", "FaultSite", "InjectionHandle",
    "InjectionRecord", "Model", "SamplerConfig", "SdcProbeError",
    "TrainingDivergedError", "UsageError", "all_codes", "attribute_all",
    "bit_gradients", "bit_weights", "build_cnn", "build_mlp", "build_sampler",
    "compute_recall", "conductance", "decode", "encode", "enumerate_sites",
    "evaluate", "evaluate_with_fault", "evaluate_with_fault_set", "fat_train",
    "faults_active", "flip_bit", "inject", "inject_set", "load_attribution",
    "load_checkpoint", "load_fault_csv", "load_records", "measure_latency_to_critical",
    "model_checksum", "parse_code", "remove", "report", "run_campaign",
    "save_attribution", "save_checkpoint", "save_fault_csv", "save_records",
    "train",
]
