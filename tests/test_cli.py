"""CLI tests: subcommand wiring, flag precedence, exit-code taxonomy."""

import hashlib
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdcprobe import cli
from sdcprobe import fat as fat_mod
from sdcprobe.attribution import load_attribution
from sdcprobe.campaign import load_records, meta_path_for
from sdcprobe.cli import main, make_parser
from sdcprobe.fault_model import load_fault_csv
from sdcprobe.nnet import load_checkpoint, model_checksum, save_checkpoint

BASE_CONFIG = {
    "schema_version": 1,
    "model": {"kind": "mlp", "input_shape": [1, 1, 6], "hidden": [12],
              "classes": 3, "seed": 1},
    "dataset": {"kind": "blobs", "classes": 3, "samples_per_class": 40, "dims": 6,
                "spread": 0.25, "seed": 5, "center_scale": 0.5,
                "test_fraction": 0.25},
    "train": {"epochs": 4, "batch_size": 16, "lr": 0.05, "optimizer": "sgd",
              "seed": 3},
    "campaign": {"thresholds": [0.0, 0.05, 0.1, 0.25, 0.5], "sample_budget": 10,
                 "seeds": [1, 2]},
    "fat": {"code": "RBRNo", "adversary_code": "EBRNo", "warmup_epochs": 1,
            "fat_epochs": 1, "faults_per_round": 1, "simulations_per_epoch": 0,
            "lr": 0.05, "batch_size": 16, "optimizer": "sgd", "seed": 7},
}


def write_config(path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return str(path)


def rows_without_wallclock(path):
    # wallclock_ns is the one legitimately nondeterministic column
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("wallclock_ns")
    return [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
            for line in lines]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config, trained checkpoint, and weight attributions shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "cfg.json")
    ckpt = str(root / "model.ckpt")
    attr = str(root / "weights.attr")
    assert main(["train", "--config", cfg, "--out", ckpt]) == 0
    assert main(["attribute", "--config", cfg, "--checkpoint", ckpt,
                 "--target", "neuron_weight", "--out", attr]) == 0
    return {"root": root, "cfg": cfg, "ckpt": ckpt, "attr": attr}


class TestTrain:
    def test_checkpoint_and_meta_written(self, workspace):
        """train produces a loadable checkpoint plus a rerunnable meta sidecar."""
        model = load_checkpoint(workspace["ckpt"])
        assert model.input_shape == (1, 1, 6)
        meta = json.loads(Path(meta_path_for(workspace["ckpt"])).read_text())
        assert meta["command"] == "train"
        assert meta["model_checksum"] == model_checksum(model)
        assert set(meta["config"]) == {"model", "dataset", "train"}
        assert len(meta["accuracy_log"]) == 4

    def test_same_config_same_checkpoint(self, workspace, tmp_path):
        """Training twice from one config yields byte-identical checkpoints."""
        out = str(tmp_path / "again.ckpt")
        assert main(["train", "--config", workspace["cfg"], "--out", out]) == 0
        assert Path(out).read_bytes() == Path(workspace["ckpt"]).read_bytes()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        """--seed beats the train.seed value in the config file."""
        out = str(tmp_path / "reseeded.ckpt")
        assert main(["train", "--config", workspace["cfg"], "--seed", "99",
                     "--out", out]) == 0
        assert Path(out).read_bytes() != Path(workspace["ckpt"]).read_bytes()


class TestAttribute:
    def test_attribution_matches_checkpoint(self, workspace):
        """The saved attribution carries the checkpoint's checksum and scores."""
        amap = load_attribution(workspace["attr"])
        assert amap.target_kind == "neuron_weight"
        assert amap.model_checksum == model_checksum(load_checkpoint(workspace["ckpt"]))
        assert all(v.size > 0 for v in amap.scores.values())


class TestCampaign:
    def test_budget_rows_exact(self, workspace, tmp_path):
        """--budget 10 with one seed writes exactly 10 record rows."""
        out = str(tmp_path / "rec.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--budget", "10", "--seed", "4", "--out", out]) == 0
        records, _ = load_records(out)
        assert len(records) == 10
        assert {r.seed for r in records} == {4}

    def test_config_file_seeds_used_without_flags(self, workspace, tmp_path):
        """Without flags the campaign section supplies budget and seeds."""
        out = str(tmp_path / "rec.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--out", out]) == 0
        records, thresholds = load_records(out)
        assert len(records) == 20  # budget 10 x seeds [1, 2]
        assert {r.seed for r in records} == {1, 2}
        assert thresholds == (0.0, 0.05, 0.1, 0.25, 0.5)

    def test_thresholds_flag_overrides_config(self, workspace, tmp_path):
        """--thresholds replaces the ladder from the config file."""
        out = str(tmp_path / "rec.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--budget", "3", "--seed", "1",
                     "--thresholds", "0.0,0.2,0.4", "--out", out]) == 0
        _, thresholds = load_records(out)
        assert thresholds == (0.0, 0.2, 0.4)

    def test_importance_code_requires_attribution(self, workspace, tmp_path, capsys):
        """An I-coded campaign without --attribution exits 2 and says why."""
        rc = main(["campaign", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--code", "GBINw",
                   "--budget", "5", "--out", str(tmp_path / "rec.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "code GBINw requires --attribution" in err

    def test_importance_code_with_attribution(self, workspace, tmp_path):
        """The same campaign succeeds once an attribution file is supplied."""
        out = str(tmp_path / "rec.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "GBINw",
                     "--attribution", workspace["attr"], "--budget", "5",
                     "--seed", "1", "--out", out]) == 0
        records, _ = load_records(out)
        assert len(records) == 5

    def test_workers_flag_does_not_change_records(self, workspace, tmp_path):
        """--workers 1 and --workers 4 agree on everything but wallclock."""
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.csv"
            assert main(["campaign", "--config", workspace["cfg"],
                         "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                         "--budget", "12", "--seed", "1", "--seed", "2",
                         "--workers", workers, "--out", str(out)]) == 0
            outs.append(rows_without_wallclock(out))
        assert outs[0] == outs[1]

    def test_repeat_invocation_idempotent(self, workspace, tmp_path):
        """Rerunning the identical command reproduces the records."""
        rows = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["campaign", "--config", workspace["cfg"],
                         "--checkpoint", workspace["ckpt"], "--code", "EBRNo",
                         "--budget", "8", "--seed", "3", "--out", str(out)]) == 0
            rows.append(rows_without_wallclock(out))
        assert rows[0] == rows[1]

    def test_meta_sidecar_restates_run(self, workspace, tmp_path):
        """The sidecar records config, checksum, and baseline for a rerun."""
        out = str(tmp_path / "rec.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--budget", "4", "--seed", "1", "--out", out]) == 0
        meta = json.loads(Path(meta_path_for(out)).read_text())
        assert meta["config"]["experiment_code"] == "RBRNw"
        assert meta["config"]["sample_budget"] == 4
        assert meta["config"]["seeds"] == [1]
        assert meta["model_checksum"] == model_checksum(load_checkpoint(workspace["ckpt"]))
        assert 0.0 <= meta["baseline_accuracy"] <= 1.0


class TestFat:
    def test_outputs_and_fault_csvs(self, workspace, tmp_path):
        """fat writes a checkpoint, a JSON report, and both fault-site CSVs."""
        out_dir = tmp_path / "fatout"
        assert main(["fat", "--config", workspace["cfg"],
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "fat_report.json").read_text())
        assert report["config"]["code"] == "RBRNo"
        assert 0.0 <= report["post_fat_accuracy"] <= 1.0
        trained = load_fault_csv(str(out_dir / "trained_faults.csv"))
        assert len(trained) == 1  # faults_per_round
        model = load_checkpoint(str(out_dir / "fat_model.ckpt"))
        assert model_checksum(model) == json.loads(
            (out_dir / "fat_report.meta.json").read_text())["model_checksum"]

    def test_bad_mix_exits_2_before_any_training(self, workspace, tmp_path, monkeypatch,
                                                  capsys):
        """--mix 2 is refused when the config is built: no epoch is trained
        and nothing is written."""
        calls = []
        monkeypatch.setattr(fat_mod, "train", lambda *a, **k: calls.append(1))
        out_dir = tmp_path / "fatout"
        assert main(["fat", "--config", workspace["cfg"], "--mix", "2",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: config:")
        assert calls == [] and not out_dir.exists()

    def test_seed_past_the_latency_seeds_exits_2_before_any_training(
            self, workspace, tmp_path, monkeypatch, capsys):
        """Latency runs take seeds up to seed + 1000 * fat_epochs +
        simulations_per_epoch - 1 (here seed + 999), which must stay below
        2**63: one seed past that is refused when the config is built."""
        calls = []
        monkeypatch.setattr(fat_mod, "train", lambda *a, **k: calls.append(1))
        out_dir = tmp_path / "fatout"
        assert main(["fat", "--config", workspace["cfg"], "--seed", str(2**63 - 999),
                     "--out-dir", str(out_dir)]) == 2
        assert "latency seeds up to 9223372036854775808" in capsys.readouterr().err
        assert calls == [] and not out_dir.exists()
        config = fat_mod.FatConfig(fat_epochs=1, simulations_per_epoch=0, seed=2**63 - 1000)
        assert config.seed == 2**63 - 1000


class TestParser:
    def test_built_once_with_commands_looked_up_per_call(self, tmp_path, monkeypatch):
        """make_parser is built once per process, and main finds the
        command function on the module at each call, so one rebound there
        still runs."""
        assert make_parser() is make_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.records) or 0)
        assert main(["report", "a.csv", "--out", str(tmp_path / "s")]) == 0
        assert calls == [["a.csv"]]


class TestMetaSidecars:
    # sha256 of each .meta.json the pipeline below writes, recorded before the
    # attribute, campaign and fat sections shared one reader
    META_SHA256 = {
        "m.meta.json": "116a7c6673c958d91a3dd75a54a2c73969c2fd5a362e6b14bc03482a0384818c",
        "o.meta.json": "3bf13f8453eb7d1a216aca0bf9cc269b4acddd08e33040cad75b535312257586",
        "w.meta.json": "e198f4919573387015ba42af6a13a18005bd5c8b4d5f770d5919c60b331ac55e",
        "g.meta.json": "754c0ffdab3b534c0cd9f0216a6044e8888a469857003ed4e34f696b59100229",
        "r.meta.json": "18cf12f198e2d730dd246ccfc33f75eee6fe6dab48792a112aa7eb60ed54fbc8",
        "fat/fat_report.meta.json":
            "6b528c0f355a86b38db73a3d94ddc46738b072f2283843952702a4dc56c467fa",
    }

    def test_meta_bytes_unchanged(self, tmp_path, monkeypatch):
        """Values from flags, from the file and from the defaults, for every
        command: the sidecars restate them byte for byte."""
        monkeypatch.chdir(tmp_path)   # relative paths: the attribute meta names its checkpoint
        write_config(tmp_path / "cfg.json",
                     attribute={"target_kind": "neuron_output", "steps": 4, "sample_count": 20,
                                "baseline": "dataset_mean", "seed": 2},
                     campaign={"exhaustive": False}, fat={"attribution_sample_count": None})
        base = ["--config", "cfg.json"]
        assert main(["train", *base, "--seed", "4", "--out", "m.ckpt"]) == 0
        assert main(["attribute", *base, "--checkpoint", "m.ckpt", "--out", "o.attr"]) == 0
        assert main(["attribute", *base, "--checkpoint", "m.ckpt", "--target", "neuron_weight",
                     "--samples", "15", "--seed", "9", "--out", "w.attr"]) == 0
        assert main(["campaign", *base, "--checkpoint", "m.ckpt", "--code", "GBINo",
                     "--attribution", "o.attr", "--out", "g.csv"]) == 0
        assert main(["campaign", *base, "--checkpoint", "m.ckpt", "--seed", "3", "--seed", "4",
                     "--thresholds", "0,0.05,0.1", "--mix", "0.25", "--budget", "6",
                     "--workers", "2", "--out", "r.csv"]) == 0
        assert main(["fat", *base, "--seed", "8", "--mix", "0.5", "--out-dir", "fat"]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in self.META_SHA256}
        assert got == self.META_SHA256


class TestReport:
    def make_records(self, workspace, tmp_path, code, name):
        out = str(tmp_path / name)
        args = ["campaign", "--config", workspace["cfg"],
                "--checkpoint", workspace["ckpt"], "--code", code,
                "--budget", "6", "--seed", "1", "--seed", "2", "--out", out]
        if code[2] == "I":
            args += ["--attribution", workspace["attr"]]
        assert main(args) == 0
        return out

    def test_summary_csvs(self, workspace, tmp_path):
        """report merges per-code records into precision and series CSVs."""
        a = self.make_records(workspace, tmp_path, "RBRNw", "a.csv")
        b = self.make_records(workspace, tmp_path, "GBINw", "b.csv")
        prefix = str(tmp_path / "sum")
        assert main(["report", a, b, "--series-threshold", "0.05",
                     "--out", prefix]) == 0
        lines = Path(f"{prefix}_precision.csv").read_text().splitlines()
        assert lines[0] == "experiment_code,threshold,mean_precision,stddev_precision,n_seeds"
        codes = {line.split(",")[0] for line in lines[1:]}
        assert codes == {"RBRNw", "GBINw"}
        for line in lines[1:]:
            _, _, mean, std, n = line.split(",")
            assert n == "2"
            if std != "null":
                assert float(std) >= 0.0
            if mean != "null":
                assert 0.0 <= float(mean) <= 1.0
        series = Path(f"{prefix}_series.csv").read_text().splitlines()
        assert series[0] == "experiment_code,sample_count,running_precision"
        assert len(series) > 1

    def test_mixed_threshold_ladders_rejected(self, workspace, tmp_path, capsys):
        """Records files with different threshold columns exit 2."""
        a = self.make_records(workspace, tmp_path, "RBRNw", "a.csv")
        out = str(tmp_path / "other.csv")
        assert main(["campaign", "--config", workspace["cfg"],
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--budget", "3", "--seed", "1",
                     "--thresholds", "0.0,0.1", "--out", out]) == 0
        rc = main(["report", a, out, "--out", str(tmp_path / "sum")])
        assert rc == 2
        assert "refusing to mix" in capsys.readouterr().err

    def test_non_numeric_series_threshold_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(tmp_path / "r.csv"), "--series-threshold", "abc",
                  "--out", str(tmp_path / "sum")])
        assert exc.value.code == 2
        assert "--series-threshold: invalid float value: 'abc'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_records_exit_3(self, workspace, tmp_path):
        """A records CSV with the wrong header is a data error."""
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,records,file\n1,2,3,4\n")
        assert main(["report", str(bad), "--out", str(tmp_path / "sum")]) == 3


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        """Unrecognized config keys are rejected, not ignored."""
        cfg = write_config(tmp_path / "cfg.json", typo_section={"x": 1})
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "m.ckpt")]) == 2
        assert "typo_section" in capsys.readouterr().err

    def test_unknown_section_key_exits_2(self, workspace, tmp_path, capsys):
        """Typos inside a section are caught with the section named."""
        cfg = write_config(tmp_path / "cfg.json", campaign={"budgett": 5})
        assert main(["campaign", "--config", cfg,
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "campaign" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        """A config file that is not JSON is a config error."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 2

    def test_malformed_code_exits_2(self, workspace, tmp_path, capsys):
        """A code that fails the grammar exits 2 with the grammar shown."""
        rc = main(["campaign", "--config", workspace["cfg"],
                   "--checkpoint", workspace["ckpt"], "--code", "XXXXX",
                   "--budget", "2", "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "grammar" in capsys.readouterr().err

    def test_negative_seed_exits_2_and_writes_nothing(self, workspace, tmp_path, capsys):
        """A negative campaign seed is a config error, caught before any
        record, part file or header is written."""
        out = tmp_path / "run" / "r.csv"
        out.parent.mkdir()
        cfg = write_config(tmp_path / "cfg.json", campaign={"seeds": [-1]})
        assert main(["campaign", "--config", cfg, "--checkpoint", workspace["ckpt"],
                     "--code", "RBRNw", "--out", str(out)]) == 2
        assert "seeds must be >= 0" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("command, overrides, flags", [
        ("train", {"train": {"batch_size": 0}}, []),
        ("train", {"train": {"batch_size": -4}}, []),
        ("train", {"train": {"epochs": -3}}, []),
        ("train", {"train": {"lr": 0}}, []),
        ("train", {"train": []}, []),
        ("train", {"model": []}, []),
        ("train", {"dataset": []}, []),
        ("train", {"train": {"epochs": "two"}}, []),
        ("train", {"model": {"classes": "three"}}, []),
        ("campaign", {"campaign": []}, []),
        ("campaign", {"campaign": {"seeds": "ab"}}, []),
        ("campaign", {"campaign": {"seeds": 5}}, []),
        ("campaign", {"campaign": {"sample_budget": "x"}}, []),
        ("fat", {"fat": []}, []),
        ("fat", {"fat": {"batch_size": 0}}, []),
        ("fat", {"fat": {"warmup_epochs": "two"}}, []),
        ("attribute", {"attribute": {"sample_count": -3}}, []),
        ("attribute", {"attribute": {"sample_count": 0}}, []),
        ("attribute", {}, ["--samples", "-2", "--target", "neuron_output"]),
        ("train", {}, ["--seed", "-1"]),
        ("train", {"model": {"seed": -2}}, []),
        ("train", {"dataset": {"seed": -2}}, []),
        ("attribute", {}, ["--seed", "-1", "--samples", "5"]),
        ("attribute", {"attribute": {"baseline": "ones"}}, []),
        ("fat", {"fat": {"faults_per_round": 0, "latency_threshold": 7.5}}, ["--mix", "2"]),
        ("fat", {"fat": {"attribution_steps": 0}}, []),
        ("train", b"\xff", []),
        ("train", {"dataset": {"spread": -1}}, []),
        ("train", {"dataset": {"dims": 0}}, []),
        ("train", {"dataset": {"spread": float("nan")}}, []),
        ("train", {"dataset": {"center_scale": float("inf")}}, []),
        ("train", {"dataset": {"test_fraction": float("nan")}}, []),
        ("train", {"model": {"hidden": [0]}}, []),
        ("train", {"model": {"kind": "cnn", "input_shape": [1, 6, 6], "kernel": 0}}, []),
        ("train", {"model": {"kind": "cnn", "input_shape": [1, 6, 6],
                             "conv_channels": [0, 4]}}, []),
        ("train", {"train": {"lr": float("inf")}}, []),
        ("train", {"train": {"lr": float("nan")}}, []),
        ("fat", {"fat": {"lr": float("inf")}}, []),
        ("train", {"model": {"kind": "cnn", "input_shape": [1, 6, 6], "kernel": 4}}, []),
        ("train", {"model": {"input_shape": [1, 1, 0]}}, []),
        ("train", {"model": {"input_shape": [1, 1, -6]}}, []),
        ("train", {"model": {"kind": "cnn", "input_shape": [0, 6, 6]}}, []),
        ("train", {"model": {"classes": 0}}, []),
    ])
    def test_malformed_config_exits_2_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                          command, overrides, flags):
        """Bad values, values of the wrong type, sections that are not JSON
        objects and files that are not UTF-8 text (given as bytes) are
        config errors, caught before any file is written."""
        if isinstance(overrides, bytes):
            cfg = tmp_path / "cfg.json"
            cfg.write_bytes(overrides)
        else:
            cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        out.mkdir()
        args = {"train": ["--out", str(out / "m.ckpt")],
                "attribute": ["--checkpoint", workspace["ckpt"], "--out", str(out / "a.attr")],
                "campaign": ["--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                             "--out", str(out / "r.csv")],
                "fat": ["--out-dir", str(out / "fat")]}[command]
        assert main([command, "--config", str(cfg)] + args + flags) == 2
        assert capsys.readouterr().err.startswith("error: config:")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("overrides, flags", [
        ({"attribute": {"baseline": "ones"}}, []),
        ({}, ["--seed", "-1", "--samples", "5"]),
        ({}, ["--seed", str(2**63), "--samples", "5"]),
    ])
    def test_bad_attribute_config_exits_2_before_the_checkpoint_loads(
            self, tmp_path, capsys, overrides, flags):
        """The attribute config is checked when it is built, before the
        dataset and the checkpoint load: a missing checkpoint does not
        turn it into a runtime error."""
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        rc = main(["attribute", "--config", cfg, "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out", str(tmp_path / "a.attr")] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config:")

    @pytest.mark.parametrize("command, overrides, key", [
        ("campaign", {"campaign": {"exhaustive": "false"}}, "exhaustive"),
        ("campaign", {"campaign": {"exhaustive": 0}}, "exhaustive"),
        ("campaign", {"campaign": {"sample_budget": 2.7}}, "sample_budget"),
        ("campaign", {"campaign": {"sample_budget": True}}, "sample_budget"),
        ("campaign", {"campaign": {"seeds": [True]}}, "seeds"),
        ("campaign", {"campaign": {"uniform_mix": "0.5"}}, "uniform_mix"),
        ("train", {"train": {"epochs": 2.0}}, "epochs"),
        ("train", {"train": {"lr": False}}, "lr"),
        ("train", {"model": {"hidden": [12.5]}}, "hidden"),
        ("fat", {"fat": {"warmup_epochs": "two"}}, "warmup_epochs"),
        ("fat", {"fat": {"faults_per_round": 1.5}}, "faults_per_round"),
        ("fat", {"fat": {"thresholds": [0.1, True]}}, "thresholds"),
        ("fat", {"fat": {"lr": "0.05"}}, "lr"),
    ])
    def test_value_of_the_wrong_json_type_names_its_key(self, workspace, tmp_path, capsys,
                                                        command, overrides, key):
        """A boolean key takes only true or false and an integer key only a
        JSON integer; nothing is coerced, and nothing is written."""
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        out.mkdir()
        args = {"train": ["--out", str(out / "m.ckpt")],
                "campaign": ["--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                             "--out", str(out / "r.csv")],
                "fat": ["--out-dir", str(out / "fat")]}[command]
        assert main([command, "--config", cfg] + args) == 2
        assert capsys.readouterr().err.startswith(f"error: config: config key {key!r} ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, section, key", [
        ("campaign", "campaign", "sample_budget"),
        ("attribute", "attribute", "steps"),
    ])
    def test_bad_value_is_reported_before_the_checkpoint_is_read(self, tmp_path, capsys,
                                                                 command, section, key):
        """Each config section is read before any file is loaded, so a
        wrong-typed value is a config error even when the checkpoint is
        missing."""
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: "x"}})
        assert main([command, "--config", cfg, "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: config key {key!r} ")

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("thresholds, bad", [
        ([0.0, 0.006], 0.006),
        ([0.05, 0.051], 0.051),
        ([0.05, 0.07, 0.29, 0.57], None),
    ])
    def test_thresholds_are_whole_percents(self, workspace, tmp_path, capsys, source,
                                           thresholds, bad):
        """A threshold off the whole-percent grid of the records columns is
        refused before anything is written; one on it reloads as itself."""
        out = tmp_path / "out"
        out.mkdir()
        if source == "file":
            args = ["--config", write_config(tmp_path / "cfg.json",
                                             campaign={"thresholds": thresholds})]
        else:
            args = ["--config", workspace["cfg"],
                    "--thresholds", ",".join(map(str, thresholds))]
        rc = main(["campaign", *args, "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                   "--budget", "3", "--out", str(out / "r.csv")])
        if bad is None:
            assert rc == 0
            assert load_records(out / "r.csv")[1] == tuple(thresholds)
        else:
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                f"error: config: thresholds must be whole percents in [0, 1], got {bad}")
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("dataset, message", [
        ({"test_images": "x"}, "names 'test_images' without 'test_labels'"),
        ({"train_labels": "y"}, "names 'train_labels' without 'train_images'"),
        ({"test_images": 0, "test_labels": "y"}, "config key 'test_images' has bad value 0"),
        ({"train_images": "x", "train_labels": ["y"], "test_images": "x", "test_labels": "y"},
         "config key 'train_labels'"),
    ], ids=["images-only", "labels-only", "fd-number", "list-path"])
    def test_idx_paths_come_in_pairs_of_strings(self, tmp_path, dataset, message):
        """Checked before any file is opened; a path of 0 would otherwise be
        read as the stdin file descriptor, so stdin is closed off here."""
        cfg = write_config(tmp_path / "cfg.json", dataset={"kind": "idx", **dataset})
        out = tmp_path / "out"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "sdcprobe.cli", "train", "--config", cfg,
             "--out", str(out / "m.ckpt")],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config:") and message in proc.stderr
        assert list(out.iterdir()) == []

    def test_float_keys_accept_integers(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", campaign={"uniform_mix": 0})
        out = tmp_path / "r.csv"
        assert main(["campaign", "--config", cfg, "--checkpoint", workspace["ckpt"],
                     "--code", "RBRNw", "--out", str(out)]) == 0
        meta = json.loads(Path(meta_path_for(out)).read_text())
        assert meta["config"]["uniform_mix"] == 0.0

    def test_bad_idx_magic_exits_3(self, workspace, tmp_path):
        """A dataset file with the wrong magic number is a data error."""
        images = tmp_path / "bad_images.idx"
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000901, 4, 28, 28))
            fh.write(np.zeros(4 * 28 * 28, dtype=np.uint8).tobytes())
        labels = tmp_path / "labels.idx"
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 4))
            fh.write(np.zeros(4, dtype=np.uint8).tobytes())
        cfg = write_config(tmp_path / "cfg.json",
                           dataset={"kind": "idx", "test_images": str(images),
                                    "test_labels": str(labels)})
        assert main(["campaign", "--config", cfg,
                     "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
                     "--budget", "2", "--out", str(tmp_path / "r.csv")]) == 3

    def test_diverged_training_exits_4(self, tmp_path, capsys):
        """A run that blows up numerically reports a runtime failure."""
        cfg = write_config(tmp_path / "cfg.json", train={"lr": 1e30, "epochs": 2})
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: runtime:")

    def test_non_ascii_attribution_checksum_exits_3(self, workspace, tmp_path, capsys):
        """A checksum byte outside ASCII is a format error, not a crash."""
        blob = bytearray(Path(workspace["attr"]).read_bytes())
        blob[16] = 0xE9  # first byte of the checksum text
        bad = tmp_path / "bad.attr"
        bad.write_bytes(bytes(blob))
        rc = main(["campaign", "--config", workspace["cfg"], "--checkpoint", workspace["ckpt"],
                   "--code", "GBINw", "--attribution", str(bad), "--budget", "2",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "ASCII" in capsys.readouterr().err

    def test_conv_weight_with_three_dims_exits_3(self, workspace, tmp_path, capsys):
        """A checkpoint whose conv weight is not 4-d is a format error."""
        blob = b"".join([b"ISDL", struct.pack("<5I", 1, 3, 1, 6, 6), struct.pack("<I", 1),
                         struct.pack("<3I", 0, 1, 3), struct.pack("<3I", 2, 3, 3),
                         np.zeros(18, dtype="<f4").tobytes(), struct.pack("<I", 0)])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        rc = main(["campaign", "--config", workspace["cfg"], "--checkpoint", str(bad),
                   "--code", "RBRNw", "--budget", "2", "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "3 dims" in capsys.readouterr().err

    def test_part_of_another_model_with_the_same_baseline_exits_3(self, workspace, tmp_path,
                                                                   capsys):
        """The part file and header of an interrupted run on model A are not
        resumed by model B, although code, seeds and baseline all match."""
        model_b = load_checkpoint(workspace["ckpt"])
        word = model_b.layers[1].weight.data.reshape(-1).view(np.uint32)
        word[0] ^= 1  # lowest mantissa bit: a different model, the same accuracy
        ckpt_b = str(tmp_path / "b.ckpt")
        save_checkpoint(model_b, ckpt_b)
        out = tmp_path / "r.csv"
        args = ["campaign", "--config", workspace["cfg"], "--code", "RBRNw",
                "--budget", "6", "--seed", "1", "--out", str(out)]
        assert main(args + ["--checkpoint", workspace["ckpt"]]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads(Path(meta_path_for(out)).read_text())
        out.unlink()
        # what a run interrupted after three draws leaves behind
        (tmp_path / "r.csv.part").write_text("\n".join(lines[:4]) + "\n")
        (tmp_path / "r.csv.part.meta.json").write_text(json.dumps(meta))

        assert main(args + ["--checkpoint", ckpt_b]) == 3
        err = capsys.readouterr().err
        assert "model_checksum" in err and "baseline" not in err
        assert main(args + ["--checkpoint", workspace["ckpt"]]) == 0  # its own model resumes
        assert out.read_text().splitlines()[1:4] == lines[1:4]

    def test_process_level_exit_code(self, workspace, tmp_path):
        """The module entry point propagates exit codes to the process."""
        images = tmp_path / "bad_images.idx"
        with open(images, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000901, 2, 28, 28))
            fh.write(np.zeros(2 * 28 * 28, dtype=np.uint8).tobytes())
        labels = tmp_path / "labels.idx"
        with open(labels, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(np.zeros(2, dtype=np.uint8).tobytes())
        cfg = write_config(tmp_path / "cfg.json",
                           dataset={"kind": "idx", "test_images": str(images),
                                    "test_labels": str(labels)})
        proc = subprocess.run(
            [sys.executable, "-m", "sdcprobe.cli", "campaign", "--config", cfg,
             "--checkpoint", workspace["ckpt"], "--code", "RBRNw",
             "--budget", "2", "--out", str(tmp_path / "r.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: data:")
