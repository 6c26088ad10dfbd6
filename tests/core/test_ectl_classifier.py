"""Tests for the halting policy, REINFORCE baseline and classification network."""

import numpy as np
import pytest

from repro.core.classifier import SequenceClassifier
from repro.core.ectl import ACTION_HALT, ACTION_WAIT, BaselineValue, HaltingPolicy
from repro.nn.tensor import Tensor


class TestHaltingPolicy:
    def test_probability_in_unit_interval(self):
        policy = HaltingPolicy(8, rng=np.random.default_rng(0))
        for _ in range(10):
            state = np.random.default_rng(1).standard_normal(8) * 10
            assert 0.0 <= policy.halt_probability_inference(state) <= 1.0

    def test_log_probs_of_both_actions_sum_to_one(self):
        policy = HaltingPolicy(6, rng=np.random.default_rng(0))
        state = Tensor(np.random.default_rng(1).standard_normal(6))
        halt = np.exp(policy.log_prob(state, ACTION_HALT).data)
        wait = np.exp(policy.log_prob(state, ACTION_WAIT).data)
        assert halt + wait == pytest.approx(1.0, abs=1e-6)

    def test_sampling_respects_probability(self):
        policy = HaltingPolicy(4, rng=np.random.default_rng(0))
        policy.projection.weight.data[:] = 0.0
        policy.projection.bias.data[:] = 100.0  # sigmoid ~ 1 -> always halt
        probabilities = policy.halt_probabilities_inference(np.zeros((20, 4)))
        np.testing.assert_array_equal(probabilities, np.ones(20))

    def test_greedy_action_threshold(self):
        policy = HaltingPolicy(4, rng=np.random.default_rng(0))
        policy.projection.weight.data[:] = 0.0
        policy.projection.bias.data[:] = 0.0  # probability exactly 0.5
        assert policy.halt_probability_inference(np.zeros(4)) == 0.5

    def test_log_prob_is_differentiable(self):
        policy = HaltingPolicy(4, rng=np.random.default_rng(0))
        state = Tensor(np.random.default_rng(1).standard_normal(4), requires_grad=True)
        policy.log_prob(state, ACTION_HALT).backward()
        assert state.grad is not None
        assert policy.projection.weight.grad is not None


class TestBaselineValue:
    def test_scalar_output(self):
        baseline = BaselineValue(8, rng=np.random.default_rng(0))
        value = baseline(Tensor(np.random.default_rng(1).standard_normal(8)))
        assert value.shape == ()
        assert isinstance(baseline.value(Tensor(np.zeros(8))), float)

    def test_can_regress_to_target(self):
        from repro.nn.optim import Adam

        baseline = BaselineValue(4, hidden=16, rng=np.random.default_rng(0))
        optimizer = Adam(baseline.parameters(), lr=0.01)
        state = Tensor(np.ones(4))
        for _ in range(200):
            optimizer.zero_grad()
            ((baseline(state) - 7.0) ** 2).backward()
            optimizer.step()
        assert baseline.value(state) == pytest.approx(7.0, abs=0.2)


class TestSequenceClassifier:
    def test_probabilities_sum_to_one(self):
        classifier = SequenceClassifier(8, 5, rng=np.random.default_rng(0))
        probabilities = classifier.probabilities_inference(np.random.default_rng(1).standard_normal(8))
        assert probabilities.shape == (5,)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_are_softmax_of_logits(self):
        classifier = SequenceClassifier(4, 3, rng=np.random.default_rng(0))
        state = np.random.default_rng(1).standard_normal(4)
        logits = classifier(Tensor(state)).data
        expected = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
        np.testing.assert_allclose(classifier.probabilities_inference(state), expected, atol=1e-12)

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            SequenceClassifier(4, 1)

    def test_logits_shape(self):
        classifier = SequenceClassifier(6, 4, rng=np.random.default_rng(0))
        assert classifier(Tensor(np.zeros(6))).shape == (4,)
