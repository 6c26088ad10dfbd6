"""Tests for the online classification engine (uses the session-scoped trained model)."""

import pytest

from repro.data.stream import replay
from repro.serving.engine import Decision, EngineConfig, OnlineClassificationEngine
from repro.serving.simulator import ArrivalSimulator, SimulatorConfig


class TestEngineConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            EngineConfig(window_items=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            EngineConfig(halt_threshold=0.0)

    def test_rejects_bad_reencode(self):
        with pytest.raises(ValueError):
            EngineConfig(reencode_every=0)


@pytest.fixture(scope="module")
def served(trained_tiny_kvec):
    """An engine plus the test stream it will consume."""
    model = trained_tiny_kvec["model"]
    splits = trained_tiny_kvec["splits"]
    spec = splits["spec"]
    return {"model": model, "spec": spec, "test": splits["test"]}


class TestOnlineClassificationEngine:
    def test_every_key_eventually_decided(self, served):
        engine = OnlineClassificationEngine(
            served["model"], served["spec"], EngineConfig(window_items=128, reencode_every=2)
        )
        tangle = served["test"][0]
        engine.consume(replay(tangle))
        engine.flush()
        assert set(engine.decisions) == set(tangle.keys)

    def test_decisions_not_revised(self, served):
        engine = OnlineClassificationEngine(
            served["model"], served["spec"], EngineConfig(window_items=128, reencode_every=1)
        )
        tangle = served["test"][0]
        first_decisions = {}
        for event in replay(tangle):
            for decision in engine.offer(event):
                assert decision.key not in first_decisions
                first_decisions[decision.key] = decision.predicted
        engine.flush()
        for key, predicted in first_decisions.items():
            assert engine.decisions[key].predicted == predicted

    def test_observations_positive_and_bounded(self, served):
        engine = OnlineClassificationEngine(served["model"], served["spec"])
        tangle = served["test"][0]
        engine.consume(replay(tangle))
        engine.flush()
        for key, decision in engine.decisions.items():
            assert 1 <= decision.observations <= tangle.sequence_length(key)

    def test_observations_count_every_arrival_per_key(self, served):
        """The session counts each key's arrivals (the paper's ``n_k``),
        window evictions included; a flush decides each key still in the
        window at its full count when nothing halted it earlier."""
        engine = OnlineClassificationEngine(
            served["model"], served["spec"], EngineConfig(window_items=4, halt_threshold=1.0)
        )
        tangle = served["test"][0]
        engine.consume(replay(tangle))
        lengths = {key: tangle.sequence_length(key) for key in tangle.keys}
        assert engine.observations == lengths
        assert len(engine.window) < len(tangle)
        assert engine.flush()
        for key, decision in engine.decisions.items():
            assert decision.observations == lengths[key]

    def test_records_match_ground_truth_labels(self, served):
        engine = OnlineClassificationEngine(served["model"], served["spec"])
        tangle = served["test"][0]
        engine.consume(replay(tangle))
        engine.flush()
        records = engine.records(tangle.labels, {key: tangle.sequence_length(key) for key in tangle.keys})
        assert len(records) == len(tangle.keys)
        for record in records:
            assert record.label == tangle.label_of(record.key)
            assert 0 < record.earliness <= 1.0

    def test_flush_marks_forced_decisions(self, served):
        # With an impossible halting threshold nothing halts early, so every
        # decision must come from flush() and be marked as not policy-halted.
        engine = OnlineClassificationEngine(
            served["model"], served["spec"], EngineConfig(halt_threshold=1.0)
        )
        tangle = served["test"][0]
        emitted = engine.consume(replay(tangle))
        flushed = engine.flush()
        assert emitted == [] or all(d.halted_by_policy for d in emitted)
        assert flushed
        assert all(not decision.halted_by_policy for decision in flushed)

    def test_window_truncation_reported(self, served):
        engine = OnlineClassificationEngine(
            served["model"], served["spec"],
            EngineConfig(window_items=4, halt_threshold=1.0, reencode_every=4),
        )
        tangle = served["test"][0]
        engine.consume(replay(tangle))
        engine.flush()
        # With a 4-item window over a much longer stream at least one decided
        # key must have lost items to eviction.
        assert engine.num_truncated >= 1

    def test_simulated_stream_end_to_end(self, served, trained_tiny_kvec):
        sequences = []
        for tangle in served["test"]:
            sequences.extend(tangle.per_key_sequences().values())
        simulator = ArrivalSimulator(sequences, SimulatorConfig(arrival_rate=2.0, seed=0))
        # window_items must fit the absolute scheme's max_time table (512);
        # larger windows are rejected at construction since the eviction-
        # stable encodings PR.  512 still exceeds the simulated stream length.
        engine = OnlineClassificationEngine(
            served["model"], served["spec"], EngineConfig(window_items=512, reencode_every=4)
        )
        engine.consume(simulator.events())
        engine.flush()
        assert engine.num_decided == len(sequences)
        records = engine.records(simulator.labels, simulator.sequence_lengths)
        assert len(records) == len(sequences)
