"""Injection tests: involution, bit-exact restoration, oracle accuracy."""

import numpy as np
import pytest

from sdcprobe.data import Dataset, synth_blobs, train_test_split
from sdcprobe.errors import ConfigError, UsageError
from sdcprobe.fat import FatConfig, fat_train
from sdcprobe.fault_model import FaultSite
from sdcprobe.injector import evaluate_with_fault, evaluate_with_fault_set, faults_active
from sdcprobe.nnet import (ActivationFault, Flatten, Linear, Model, Relu, build_cnn,
                           build_mlp, evaluate_detailed, model_checksum, train)

# every attribute a Model holds: its layers and their shapes, no fault
MODEL_STATE = {"layers", "input_shape", "in_shapes"}


def identity_model():
    w = np.eye(2, dtype=np.float32)
    return Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                 input_shape=(1, 1, 2))


def two_class_dataset():
    # class = argmax coordinate; all four correctly separable by identity weights
    images = np.array([[[[2.0, 1.0]]], [[[1.0, 3.0]]],
                       [[[4.0, 0.5]]], [[[0.25, 2.0]]]], dtype=np.float32)
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    return Dataset(images, labels, split="test")


class TestWeightInjection:
    def test_flip_changes_exactly_one_bit(self):
        model = identity_model()
        before = model.layers[1].weight.data.copy().view(np.uint32).reshape(-1)
        with faults_active(model, [FaultSite(1, "neuron_weight", 2, 7)]):
            after = model.layers[1].weight.data.view(np.uint32).reshape(-1)
            diff = before ^ after
        assert diff[2] == np.uint32(1 << 7)
        assert (np.delete(diff, 2) == 0).all()

    def test_a_column_major_weight_takes_the_fault(self):
        """Element e is the e-th weight in row-major order, also when the
        layer was built from a column-major array."""
        w = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        model = Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 2))
        with faults_active(model, [FaultSite(1, "neuron_weight", 1, 31)]):
            assert model.layers[1].weight.data[0, 1] == -2.0
        assert model.layers[1].weight.data[0, 1] == 2.0

    def test_remove_restores_bit_exactly(self):
        """Entering and leaving a block over a thousand random sites leaves
        the checksum untouched, including flips landing on sign, exponent,
        and NaN-producing patterns."""
        model = build_mlp((1, 1, 6), [8], 3, seed=0)
        baseline = model_checksum(model)
        rng = np.random.default_rng(42)
        wids = model.weight_layer_ids()
        for _ in range(1000):
            lid = int(rng.choice(wids))
            size = model.layers[lid].weight.data.size
            site = FaultSite(lid, "neuron_weight",
                             int(rng.integers(size)), int(rng.integers(32)))
            with faults_active(model, [site]):
                assert model_checksum(model) != baseline
        assert model_checksum(model) == baseline

    def test_involution_through_nan_pattern(self):
        """A flip landing on an inf weight makes a NaN; flipping back
        restores the original bits, not a canonicalized NaN."""
        w = np.array([[np.inf, 1.0]], dtype=np.float32)
        model = Model([Flatten(), Linear(w, np.zeros(1, dtype=np.float32))],
                      input_shape=(1, 1, 2))
        before = model.layers[1].weight.data.copy().view(np.uint32).reshape(-1)
        with faults_active(model, [FaultSite(1, "neuron_weight", 0, 3)]):
            assert np.isnan(model.layers[1].weight.data[0, 0])
        after = model.layers[1].weight.data.view(np.uint32).reshape(-1)
        assert (before == after).all()

    def test_exponent_flip_on_one_gives_inf(self):
        """Weight 1.0 with bit 30 flipped is exactly +inf (0x7F800000)."""
        model = identity_model()
        with faults_active(model, [FaultSite(1, "neuron_weight", 0, 30)]):
            assert np.isposinf(model.layers[1].weight.data[0, 0])

    def test_exit_sets_the_bit_from_before_the_block(self):
        """Exit sets the site's bit back to its value before the block even
        when the block wrote the weight and did not repin."""
        model = identity_model()
        w = model.layers[1].weight.data
        with faults_active(model, [FaultSite(1, "neuron_weight", 0, 30)]):
            w[0, 0] = 0.5  # bit 30 clear, as in 1.0 before the block
        assert w[0, 0] == 0.5

    def test_site_bounds_checked(self):
        """A bad site anywhere in the set is refused before any bit is set."""
        model = identity_model()
        baseline = model_checksum(model)
        good = FaultSite(1, "neuron_weight", 0, 30)
        for bad in (FaultSite(0, "neuron_weight", 0, 0),    # flatten
                    FaultSite(1, "neuron_weight", 4, 0),    # no fifth weight
                    FaultSite(9, "neuron_weight", 0, 0)):   # no tenth layer
            with pytest.raises(UsageError):
                with faults_active(model, [good, bad]):
                    pass
            assert model_checksum(model) == baseline


class TestOutputInjection:
    """Output faults are arguments of a forward pass, never model state."""

    def test_active_on_every_forward_until_removed(self):
        """Active on every forward pass it is passed to; gone from the
        first one it is left out of."""
        model = identity_model()
        x = np.array([[[[2.0, 1.0]]]], dtype=np.float32)
        clean = model.apply(x)
        faults = [ActivationFault(1, 0, 31)]
        first = model.apply(x, output_faults=faults)
        second = model.apply(x, output_faults=faults)
        assert first[0, 0] == -2.0
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(model.apply(x), clean)

    def test_each_sample_hit_at_its_own_row(self):
        """The fault lands on the same within-sample element of every
        sample in the batch."""
        model = identity_model()
        x = np.array([[[[2.0, 1.0]]], [[[1.0, 3.0]]]], dtype=np.float32)
        out = model.apply(x, output_faults=[ActivationFault(1, 1, 31)])
        np.testing.assert_array_equal(out[:, 1], [-1.0, -3.0])
        np.testing.assert_array_equal(out[:, 0], [2.0, 1.0])

    def test_weights_untouched_by_output_fault(self):
        """Sign-flipping output 0 of the identity head sends class-0
        samples to class 1, as the weight flip of the oracle test does."""
        model = identity_model()
        baseline = model_checksum(model)
        site = FaultSite(1, "neuron_output", 0, 31)
        assert evaluate_with_fault_set(model, two_class_dataset(), [site]) == (0.5, False)
        assert evaluate_with_fault(model, two_class_dataset(), site) == (0.5, False)
        assert model_checksum(model) == baseline

    def test_output_element_bounds_checked(self):
        model = identity_model()
        with pytest.raises(UsageError, match="out of range"):
            evaluate_with_fault_set(model, two_class_dataset(),
                                    [FaultSite(1, "neuron_output", 2, 0)])

    def test_an_output_site_is_never_model_state(self):
        """Inside the block an output site is one of the output faults it
        hands out; the model's bits and attributes stay as they were."""
        model = identity_model()
        baseline = model_checksum(model)
        site = FaultSite(1, "neuron_output", 0, 30)
        with faults_active(model, [site]) as (faults, repin):
            assert faults == [ActivationFault(1, 0, 30)] and repin is None
            assert model_checksum(model) == baseline
            assert set(vars(model)) == MODEL_STATE

    @pytest.mark.parametrize("kind", ["neuron_weight", "neuron_output"])
    def test_a_site_listed_twice_counts_once(self, kind):
        """Two flips of one bit would cancel; the set drops the repeat."""
        model = identity_model()
        data = two_class_dataset()
        site = FaultSite(1, kind, 0, 31)
        once = evaluate_with_fault_set(model, data, [site])
        assert once != evaluate_detailed(model, data)
        assert evaluate_with_fault_set(model, data, [site, site]) == once


class TestEvaluateWithFault:
    def test_against_hand_computed_oracle(self):
        """Sign-flipping w[0,0] of the identity head sends class-0 samples
        to class 1: accuracy drops from 1.0 to 0.5."""
        model = identity_model()
        data = two_class_dataset()
        base_acc, base_poisoned = evaluate_detailed(model, data)
        assert base_acc == 1.0 and not base_poisoned
        acc, poisoned = evaluate_with_fault(model, data, FaultSite(1, "neuron_weight", 0, 31))
        assert acc == 0.5
        assert not poisoned

    def test_model_bit_identical_after_evaluation(self):
        model = build_mlp((1, 1, 4), [6], 2, seed=1)
        images = np.random.default_rng(0).normal(size=(8, 1, 1, 4)).astype(np.float32)
        data = Dataset(images, np.zeros(8, dtype=np.int64), split="test")
        baseline = model_checksum(model)
        for bit in (0, 15, 23, 30, 31):
            evaluate_with_fault(model, data, FaultSite(1, "neuron_weight", 3, bit))
            evaluate_with_fault(model, data, FaultSite(2, "neuron_output", 1, bit))
        assert model_checksum(model) == baseline
        assert set(vars(model)) == MODEL_STATE

    def test_removed_even_when_evaluation_raises(self):
        model = identity_model()
        bad = Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32),
                      np.zeros(2, dtype=np.int64), split="test")
        baseline = model_checksum(model)
        with pytest.raises(ConfigError):
            evaluate_with_fault(model, bad, FaultSite(1, "neuron_weight", 0, 30))
        assert model_checksum(model) == baseline

    def test_nan_propagation_poisons_without_crashing(self):
        """0 * inf inside the matmul makes NaN logits; those rows predict
        class 0 and raise the poisoned flag."""
        w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        model = Model([Flatten(), Linear(w, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 2))
        images = np.array([[[[0.0, 1.0]]]], dtype=np.float32)
        data = Dataset(images, np.array([0], dtype=np.int64), split="test")
        # w[0,0]=1.0, bit 30 -> +inf; input x0=0 makes inf*0 = NaN
        acc, poisoned = evaluate_with_fault(model, data, FaultSite(1, "neuron_weight", 0, 30))
        assert poisoned
        assert acc == 1.0  # NaN rows predict class 0, which matches the label

    def test_repeat_evaluations_deterministic(self):
        model = build_mlp((1, 1, 4), [6], 2, seed=3)
        images = np.random.default_rng(5).normal(size=(16, 1, 1, 4)).astype(np.float32)
        data = Dataset(images, np.zeros(16, dtype=np.int64), split="test")
        site = FaultSite(1, "neuron_weight", 7, 29)
        assert evaluate_with_fault(model, data, site) == evaluate_with_fault(model, data, site)

    def test_no_consequence_site_matches_baseline(self):
        """A mantissa-LSB flip on a weight feeding a dead relu leaves the
        accuracy at exactly the baseline."""
        w1 = np.array([[-1.0, -1.0]], dtype=np.float32)  # always negative pre-act
        w2 = np.array([[1.0], [0.0]], dtype=np.float32)
        model = Model([Flatten(),
                       Linear(w1, np.zeros(1, dtype=np.float32)),
                       Relu(),
                       Linear(w2, np.zeros(2, dtype=np.float32))],
                      input_shape=(1, 1, 2))
        images = np.abs(np.random.default_rng(2).normal(size=(8, 1, 1, 2))).astype(np.float32)
        data = Dataset(images, np.zeros(8, dtype=np.int64), split="test")
        base_acc, _ = evaluate_detailed(model, data)
        acc, poisoned = evaluate_with_fault(model, data, FaultSite(1, "neuron_weight", 0, 0))
        assert acc == base_acc
        assert not poisoned


class TestModelHoldsNoFaultState:
    """A Model holds its layers and shapes, and nothing an evaluation or
    fault-aware training leaves behind: output faults are only ever
    arguments, and injected weight bits are restored."""

    def test_fresh_model(self):
        assert set(vars(identity_model())) == MODEL_STATE
        assert set(vars(build_cnn((1, 6, 6), [2, 3], 3, 4, 3, seed=0))) == MODEL_STATE

    def test_after_evaluating_a_set_of_both_kinds(self):
        model = build_mlp((1, 1, 4), [6], 2, seed=1)
        images = np.random.default_rng(0).normal(size=(8, 1, 1, 4)).astype(np.float32)
        data = Dataset(images, np.zeros(8, dtype=np.int64), split="test")
        baseline = model_checksum(model)
        evaluate_with_fault_set(model, data, [
            FaultSite(1, "neuron_weight", 3, 30), FaultSite(2, "neuron_output", 1, 30),
            FaultSite(3, "neuron_weight", 0, 31), FaultSite(1, "neuron_output", 4, 31)])
        assert set(vars(model)) == MODEL_STATE
        assert model_checksum(model) == baseline

    def test_after_output_fault_aware_training(self):
        """GBINo fault-aware training equals plain train calls, one per FAT
        epoch, given the drawn sites as faults; the RBRNw adversary set,
        evaluated by injecting weight bits, leaves every bit as it was."""
        data = synth_blobs(3, 40, dims=6, spread=0.3, seed=2)
        train_set, test_set = train_test_split(data, test_fraction=0.25)
        config = FatConfig(code="GBINo", adversary_code="RBRNw", warmup_epochs=1,
                           fat_epochs=2, faults_per_round=3, simulations_per_epoch=0,
                           lr=0.05, batch_size=8, optimizer="sgd", seed=3)
        model, report = fat_train(build_mlp((1, 1, 6), [8], 3, seed=4), train_set,
                                  test_set, config)
        assert set(vars(model)) == MODEL_STATE

        assert len(report.trained_fault_sites) == 3
        twin = build_mlp((1, 1, 6), [8], 3, seed=4)
        fit = dict(batch_size=config.batch_size, lr=config.lr, optimizer=config.optimizer,
                   eval_set=test_set)
        train(twin, train_set, epochs=config.warmup_epochs, seed=config.seed, **fit)
        log = []
        for epoch in range(config.fat_epochs):
            log += train(twin, train_set, epochs=1, seed=config.seed + 1 + epoch,
                         faults=report.trained_fault_sites, **fit)
        assert model_checksum(model) == model_checksum(twin)
        assert report.fat_log == log
