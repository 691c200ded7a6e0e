"""Training and evaluation behavior."""

import numpy as np
import pytest

from sdcprobe.data import Dataset, synth_blobs, train_test_split
from sdcprobe.errors import ConfigError, TrainingDivergedError, UsageError
from sdcprobe.fault_model import FaultSite
from sdcprobe.nnet import training
from sdcprobe.nnet.training import predict
from sdcprobe.nnet import (
    Adam,
    Conv2d,
    Flatten,
    Linear,
    Model,
    Relu,
    build_mlp,
    evaluate,
    evaluate_detailed,
    make_optimizer,
    model_checksum,
    train,
    train_lockstep,
)


def passthrough_model(dims):
    return Model([Flatten(), Linear(np.eye(dims, dtype=np.float32))], (1, 1, dims))


class TestEvaluate:
    def test_constant_class_zero_model(self):
        model = build_mlp((1, 1, 3), [], classes=2, seed=0)
        for p in model.parameters():
            p.data[...] = 0.0
        images = np.ones((6, 1, 1, 3), dtype=np.float32)
        assert evaluate(model, Dataset(images, np.zeros(6, dtype=np.int64))) == 1.0
        assert evaluate(model, Dataset(images, np.ones(6, dtype=np.int64))) == 0.0

    def test_hand_built_four_sample_accuracy(self):
        model = passthrough_model(2)
        images = np.array([[1, 0], [0, 1], [2, 1], [1, 2]],
                          dtype=np.float32).reshape(4, 1, 1, 2)
        labels = np.array([0, 1, 0, 0])  # last one misclassified -> 3/4
        assert evaluate(model, Dataset(images, labels)) == 0.75

    def test_argmax_ties_break_to_lowest_index(self):
        model = passthrough_model(3)
        images = np.array([[5.0, 5.0, 1.0]], dtype=np.float32).reshape(1, 1, 1, 3)
        assert evaluate(model, Dataset(images, np.array([0]))) == 1.0
        assert evaluate(model, Dataset(images, np.array([1]))) == 0.0

    def test_empty_dataset_rejected(self):
        model = passthrough_model(2)
        empty = Dataset(np.zeros((0, 1, 1, 2), dtype=np.float32), np.zeros(0, dtype=np.int64))
        with pytest.raises(UsageError):
            evaluate(model, empty)

    def test_predict_on_zero_rows_gives_empty_arrays(self):
        preds, poisoned = predict(passthrough_model(2), np.zeros((0, 1, 1, 2), np.float32))
        assert preds.shape == poisoned.shape == (0,)

    def test_nan_logits_poison_and_resolve_to_class_zero(self):
        model = passthrough_model(2)
        model.layers[1].weight.data[0, 0] = np.nan
        images = np.ones((3, 1, 1, 2), dtype=np.float32)
        acc, poisoned = evaluate_detailed(model, Dataset(images, np.zeros(3, dtype=np.int64)))
        assert poisoned
        assert acc == 1.0  # NaN rows resolve to class 0, which matches the labels

    def test_infinite_logits_do_not_poison(self):
        model = passthrough_model(2)
        model.layers[1].weight.data[1, 1] = np.float32("inf")
        images = np.ones((2, 1, 1, 2), dtype=np.float32)
        acc, poisoned = evaluate_detailed(model, Dataset(images, np.ones(2, dtype=np.int64)))
        assert not poisoned
        assert acc == 1.0  # +inf wins argmax deterministically


class TestTrain:
    def make_blobs(self):
        ds = synth_blobs(classes=2, samples_per_class=100, dims=4, spread=0.15, seed=5)
        return train_test_split(ds, 0.1)

    def test_separable_blobs_reach_high_accuracy(self):
        train_ds, test_ds = self.make_blobs()
        model = build_mlp((1, 1, 4), [], classes=2, seed=1)
        train(model, train_ds, epochs=30, batch_size=32, lr=0.01,
              optimizer="adam", seed=2, eval_set=test_ds)
        assert evaluate(model, test_ds) >= 0.95

    def test_zero_epochs_leaves_model_untouched(self):
        train_ds, _ = self.make_blobs()
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        before = model_checksum(model)
        log = train(model, train_ds, epochs=0, batch_size=32, lr=0.01, seed=2)
        assert log == []
        assert model_checksum(model) == before

    def test_same_seed_bit_identical(self):
        train_ds, _ = self.make_blobs()
        sums = []
        logs = []
        for _ in range(2):
            model = build_mlp((1, 1, 4), [5], classes=2, seed=1)
            logs.append(train(model, train_ds, epochs=3, batch_size=32,
                              lr=0.01, optimizer="adam", seed=2))
            sums.append(model_checksum(model))
        assert sums[0] == sums[1]
        assert logs[0] == logs[1]

    def test_different_seed_differs(self):
        train_ds, _ = self.make_blobs()
        sums = []
        for seed in (2, 3):
            model = build_mlp((1, 1, 4), [5], classes=2, seed=1)
            train(model, train_ds, epochs=1, batch_size=32, lr=0.01, seed=seed)
            sums.append(model_checksum(model))
        assert sums[0] != sums[1]

    def test_sgd_also_learns(self):
        train_ds, test_ds = self.make_blobs()
        model = build_mlp((1, 1, 4), [], classes=2, seed=1)
        train(model, train_ds, epochs=20, batch_size=32, lr=0.1,
              optimizer="sgd", seed=2)
        assert evaluate(model, test_ds) >= 0.9

    def test_divergence_detected(self):
        train_ds, _ = self.make_blobs()
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        model.layers[1].weight.data[...] = 3.0e38  # overflows to inf logits
        with pytest.raises(TrainingDivergedError):
            train(model, train_ds, epochs=1, batch_size=32, lr=0.01, seed=2)

    def test_label_range_checked(self):
        images = np.ones((4, 1, 1, 2), dtype=np.float32)
        bad = Dataset(images, np.array([0, 1, 2, 0]))  # class 2 out of range
        model = build_mlp((1, 1, 2), [], classes=2, seed=0)
        with pytest.raises(UsageError):
            train(model, bad, epochs=1, batch_size=2, lr=0.01, seed=0)

    @pytest.mark.parametrize("kwargs", [dict(epochs=-3), dict(batch_size=0),
                                        dict(batch_size=-4), dict(lr=0.0), dict(lr=-0.1)])
    def test_bad_training_parameters_rejected(self, kwargs):
        train_ds, _ = self.make_blobs()
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(UsageError, match="training needs"):
            train(model, train_ds, **{**dict(epochs=1, batch_size=8, lr=0.01), **kwargs})
        assert all((p.data == b).all() for p, b in zip(model.parameters(), before))

    @pytest.mark.parametrize("lr", [float("inf"), float("nan")])
    def test_non_finite_lr_refused_before_the_first_step(self, lr, monkeypatch):
        """An infinite or NaN learning rate shows only as a non-finite loss
        after a step; it is refused before any step runs."""
        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
        train_ds, _ = self.make_blobs()
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        with pytest.raises(UsageError, match="a finite lr > 0"):
            train(model, train_ds, epochs=1, batch_size=8, lr=lr)
        assert steps == []

    @pytest.mark.parametrize("case, error", [
        ("empty", UsageError), ("shape", ConfigError), ("labels", UsageError)])
    def test_a_bad_eval_set_refused_before_the_first_step(self, case, error, monkeypatch):
        """An eval set that the per-epoch evaluation would refuse is refused
        up front, so the model is not trained an epoch first."""
        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
        train_ds, test_ds = self.make_blobs()
        images, labels = test_ds.images, test_ds.labels
        bad = {"empty": Dataset(images[:0], labels[:0]),
               "shape": Dataset(images.reshape(len(labels), 1, 2, 2), labels),
               "labels": Dataset(images, np.where(labels == 1, 2, labels))}[case]
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        before = model_checksum(model)
        with pytest.raises(error):
            train(model, train_ds, epochs=1, batch_size=8, lr=0.01, eval_set=bad)
        assert steps == []
        assert model_checksum(model) == before

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(UsageError):
            make_optimizer("rmsprop", [], 0.01)


class TestTrainWithFaults:
    def blank_run(self):
        """A fresh model, and a train call on it that takes faults=."""
        ds = synth_blobs(classes=2, samples_per_class=40, dims=4, spread=0.15, seed=5)
        model = build_mlp((1, 1, 4), [3], classes=2, seed=1)
        return model, lambda **kw: train(model, ds, epochs=2, batch_size=8, lr=0.01,
                                         seed=2, **kw)

    def test_a_site_naming_no_element_refused_before_any_step(self, monkeypatch):
        """The set is checked whole before any bit is set or step taken."""
        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
        model, fit = self.blank_run()
        before = model_checksum(model)
        with pytest.raises(UsageError, match="element 12 out of range"):
            fit(faults=[FaultSite(1, "neuron_weight", 0, 30),
                        FaultSite(1, "neuron_weight", 12, 30)])
        assert steps == []
        assert model_checksum(model) == before

    def test_a_weight_faults_bit_is_restored_when_training_diverges(self):
        """Bit 30 of a 1.0 weight makes it +inf, so every batch is skipped
        and train raises; the bit is set back on the way out."""
        model, fit = self.blank_run()
        model.layers[3].weight.data[0, 0] = 1.0
        before = model_checksum(model)
        with pytest.raises(TrainingDivergedError, match="every batch of epoch 0"):
            fit(faults=[FaultSite(3, "neuron_weight", 0, 30)])
        assert model.layers[3].weight.data[0, 0] == 1.0
        assert model_checksum(model) == before

    def test_no_faults_gives_the_bits_of_a_plain_call(self):
        plain, fit_plain = self.blank_run()
        empty, fit_empty = self.blank_run()
        assert fit_plain() == fit_empty(faults=[])
        assert model_checksum(plain) == model_checksum(empty)

    @pytest.mark.parametrize("kind", ["neuron_weight", "neuron_output"])
    def test_a_site_listed_twice_counts_once(self, kind):
        """Two flips of one bit would cancel; the set drops the repeat."""
        site = FaultSite(1, kind, 0, 22)
        runs = []
        for faults in ([], [site], [site, site]):
            model, fit = self.blank_run()
            runs.append((fit(faults=faults), model_checksum(model)))
        assert runs[1] != runs[0]
        assert runs[2] == runs[1]


def blobs_models(k, seeds=(1, 2, 3)):
    return [build_mlp((1, 1, 4), [5], classes=2, seed=seed) for seed in seeds[:k]]


def strided_cnns(k):
    """K CNNs whose first conv has stride 2: (1,7,7) -> (3,3,3) -> (4,2,2) -> 3."""
    models = []
    for seed in range(k):
        rng = np.random.default_rng(seed)
        w = [rng.uniform(-0.5, 0.5, size=s).astype(np.float32)
             for s in [(3, 1, 3, 3), (3,), (4, 3, 2, 2), (4,), (3, 16), (3,)]]
        models.append(Model([Conv2d(w[0], w[1], stride=2), Relu(), Conv2d(w[2], w[3]), Relu(),
                             Flatten(), Linear(w[4], w[5])], (1, 7, 7)))
    return models


def fat_fixture():
    ds = synth_blobs(3, 200, dims=12, spread=0.15, seed=5, center_scale=0.3)
    return train_test_split(ds, test_fraction=0.25)


def alone_and_lockstep(make_models, train_set, faults=None, **kw):
    """(checksum, log) of each model trained by its own train call, and of
    the same models trained in one train_lockstep call."""
    alone = []
    for k, model in enumerate(make_models()):
        log = train(model, train_set, faults=() if faults is None else faults[k], **kw)
        alone.append((model_checksum(model), log))
    models = make_models()
    logs = train_lockstep(models, train_set, faults=faults, **kw)
    return alone, [(model_checksum(m), log) for m, log in zip(models, logs)]


class TestLockstep:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_each_model_gets_the_bits_of_its_own_train_call(self, k, optimizer, batch_size):
        train_set, test_set = TestTrain().make_blobs()
        alone, lockstep = alone_and_lockstep(
            lambda: blobs_models(k), train_set, epochs=2, batch_size=batch_size, lr=0.05,
            optimizer=optimizer, seed=4, eval_set=test_set)
        assert len({checksum for checksum, _ in alone}) == k
        assert lockstep == alone

    def test_output_faults_skips_weight_faults_and_a_clean_model(self, monkeypatch):
        """Model 0 has output faults, one on the logits that makes some
        batches' loss non-finite, so its Adam step count lags; model 1 has
        pinned weight faults; model 2 none."""
        optimizers = []
        step = Adam.step

        def spy(opt, active):
            optimizers.append(opt)
            return step(opt, active)

        monkeypatch.setattr(Adam, "step", spy)
        train_set, test_set = fat_fixture()
        faults = [[FaultSite(0, "neuron_output", 3, 22), FaultSite(1, "neuron_output", 12, 30),
                   FaultSite(3, "neuron_output", 0, 30)],
                  [FaultSite(1, "neuron_weight", 7, 22), FaultSite(3, "neuron_weight", 2, 29)],
                  []]
        alone, lockstep = alone_and_lockstep(
            lambda: [build_mlp((1, 1, 12), [16], 3, seed=seed) for seed in (4, 5, 6)],
            train_set, faults=faults, epochs=2, batch_size=1, lr=0.01, optimizer="adam",
            seed=4, eval_set=test_set)
        assert lockstep == alone
        t = optimizers[-1].t
        assert len(t) == 3 and 0 < t[0] < t[1] == t[2] == 2 * len(train_set)

    def test_strided_cnns_with_an_output_fault(self):
        data = synth_blobs(classes=3, samples_per_class=20, dims=49, spread=0.35, seed=5,
                           image_shape=(1, 7, 7), center_scale=0.5)
        train_set, test_set = train_test_split(data, test_fraction=0.25)
        alone, lockstep = alone_and_lockstep(
            lambda: strided_cnns(2), train_set, faults=[[], [FaultSite(2, "neuron_output", 5, 12)]],
            epochs=2, batch_size=4, lr=0.01, optimizer="adam", seed=3, eval_set=test_set)
        assert alone[0][0] != alone[1][0]
        assert lockstep == alone

    def test_a_clean_model_with_a_non_finite_loss_raises(self):
        """A diverging clean model aborts the run, and every other model's
        weight faults get their original bits back."""
        train_set, _ = TestTrain().make_blobs()
        models = blobs_models(2)
        models[1].layers[1].weight.data[...] = 3.0e38  # overflows to inf logits
        site = FaultSite(1, "neuron_weight", 4, 30)
        word = models[0].layers[1].weight.data.reshape(-1).view(np.uint32)[4]
        with pytest.raises(TrainingDivergedError, match=r"non-finite loss .* \(model 1\)"):
            train_lockstep(models, train_set, epochs=1, batch_size=8, lr=0.01,
                           faults=[[site], []])
        after = models[0].layers[1].weight.data.reshape(-1).view(np.uint32)[4]
        assert after >> 30 & 1 == word >> 30 & 1

    def test_every_weight_faults_bit_restored_and_no_memory_shared(self):
        train_set, _ = TestTrain().make_blobs()
        models = blobs_models(3)
        sites = [[FaultSite(1, "neuron_weight", e, b) for e, b in ((0, 30), (6, 23))],
                 [FaultSite(3, "neuron_weight", 1, 29)], [FaultSite(1, "neuron_weight", 0, 30)]]

        def bits(model, ss):
            return [int(model.layers[s.layer_id].weight.data.reshape(-1).view(np.uint32)
                        [s.element_index]) >> s.bit_index & 1 for s in ss]
        before = [bits(m, ss) for m, ss in zip(models, sites)]
        train_lockstep(models, train_set, epochs=2, batch_size=8, lr=0.05, faults=sites)
        assert [bits(m, ss) for m, ss in zip(models, sites)] == before
        params = [p.data for m in models for p in m.parameters()]
        assert all(a.flags.c_contiguous and a.flags.owndata for a in params)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(params)
                       for b in params[i + 1:])

    @pytest.mark.parametrize("case", ["wider", "stride", "no bias", "same model",
                                      "fault sets"])
    def test_mismatched_models_refused_before_any_step(self, case, monkeypatch):
        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
        train_set, _ = TestTrain().make_blobs()
        models, faults = blobs_models(2), None
        if case == "wider":
            models[1] = build_mlp((1, 1, 4), [6], classes=2, seed=2)
        elif case == "stride":
            models = strided_cnns(2)
            models[1].layers[0].stride = 1
            train_set = synth_blobs(2, 10, dims=49, spread=0.3, seed=1, image_shape=(1, 7, 7))
        elif case == "no bias":
            models[1].layers[3].bias = None
        elif case == "same model":
            models[1] = models[0]
        else:
            faults = [[]]
        before = [model_checksum(m) for m in models]
        with pytest.raises(UsageError):
            train_lockstep(models, train_set, epochs=1, batch_size=8, lr=0.01, faults=faults)
        assert steps == []
        assert [model_checksum(m) for m in models] == before


class TestAdam:
    def test_matches_the_per_parameter_reference_bit_for_bit(self):
        """The flat in-place update gives the same float64 moments and
        float32 weights as the textbook per-parameter form, operation order
        included, over steps with -0.0, tiny and huge gradients."""
        rng = np.random.default_rng(8)
        shapes = [(4, 3), (4,), (2, 4), (2,)]
        ref = [rng.normal(size=s).astype(np.float32) for s in shapes]
        weights = np.concatenate([a.ravel() for a in ref])[None]   # one variant's row
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(weights, lr=0.01)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 8):
            grads = [(rng.normal(size=s) * 10.0 ** rng.integers(-30, 30, size=s))
                     .astype(np.float32) for s in shapes]
            grads[0][0, 0] = -0.0
            opt.grads[0] = np.concatenate([g.ravel() for g in grads])
            opt.step([True])
            for i, g in enumerate(grads):
                g = g.astype(np.float64)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat, vhat = m[i] / (1 - b1 ** t), v[i] / (1 - b2 ** t)
                ref[i] = (ref[i].astype(np.float64)
                          - lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32)
            np.testing.assert_array_equal(opt.m[0].view(np.uint64),
                                          np.concatenate([a.ravel() for a in m]).view(np.uint64))
            np.testing.assert_array_equal(opt.v[0].view(np.uint64),
                                          np.concatenate([a.ravel() for a in v]).view(np.uint64))
            np.testing.assert_array_equal(weights[0].view(np.uint32), np.concatenate(
                [a.ravel() for a in ref]).view(np.uint32))
        assert opt.t == [7]
