"""Training and evaluation behavior."""

import numpy as np
import pytest

from sdcprobe.data import Dataset, synth_blobs, train_test_split
from sdcprobe.errors import TrainingDivergedError, UsageError
from sdcprobe.fault_model import FaultSite
from sdcprobe.nnet.autodiff import Tensor
from sdcprobe.nnet import training
from sdcprobe.nnet.training import predict
from sdcprobe.nnet import (
    Adam,
    Flatten,
    Linear,
    Model,
    build_mlp,
    evaluate,
    evaluate_detailed,
    make_optimizer,
    model_checksum,
    train,
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


class TestAdam:
    def test_matches_the_per_parameter_reference_bit_for_bit(self):
        """The flat in-place update gives the same float64 moments and
        float32 weights as the textbook per-parameter form, operation order
        included, over steps with -0.0, tiny and huge gradients."""
        rng = np.random.default_rng(8)
        shapes = [(4, 3), (4,), (2, 4), (2,)]
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        ref = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(params, lr=0.01)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 8):
            grads = [(rng.normal(size=s) * 10.0 ** rng.integers(-30, 30, size=s))
                     .astype(np.float32) for s in shapes]
            grads[0][0, 0] = -0.0
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                g = g.astype(np.float64)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat, vhat = m[i] / (1 - b1 ** t), v[i] / (1 - b2 ** t)
                ref[i] = (ref[i].astype(np.float64)
                          - lr * mhat / (np.sqrt(vhat) + eps)).astype(np.float32)
            np.testing.assert_array_equal(opt.m.view(np.uint64),
                                          np.concatenate([a.ravel() for a in m]).view(np.uint64))
            np.testing.assert_array_equal(opt.v.view(np.uint64),
                                          np.concatenate([a.ravel() for a in v]).view(np.uint64))
            for p, want in zip(params, ref):
                np.testing.assert_array_equal(p.data.view(np.uint32), want.view(np.uint32))
