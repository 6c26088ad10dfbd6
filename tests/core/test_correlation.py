"""Tests for key/value correlations and the dynamic mask matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KVECConfig
from repro.core.correlation import build_correlation_structure
from repro.core.incremental import IncrementalEncoderState, append_batch
from repro.core.kvrl import KVRLBlock
from repro.core.model import KVEC
from repro.data.items import Item, TangledSequence, ValueSpec
from repro.nn.attention import MASK_VALUE
from tests.core.input_oracle import reference_correlation_structure

SPEC = ValueSpec(("size", "direction"), (8, 2), session_field=1)


def tangle_from(rows):
    """rows: list of (key, size, direction); times follow list order."""
    items = [Item(key, (size, direction), float(i)) for i, (key, size, direction) in enumerate(rows)]
    labels = {key: 0 for key, _, _ in rows}
    return TangledSequence(items, labels, SPEC)


#: Hand-written streams (key, size, direction) fed to the column-rule
#: property test next to the seeded random ones.
RULE_CASES = {
    "first_item_has_no_correlations": [("a", 0, 0)],
    "same_key_items_are_key_correlated": [("a", 0, 0), ("a", 1, 1), ("a", 2, 0)],
    "value_correlation_requires_open_session_match": [("a", 0, 0), ("b", 3, 0)],
    "value_correlation_broken_by_session_change": [("a", 0, 0), ("a", 1, 1), ("b", 3, 0)],
    "value_correlation_excludes_same_key": [("a", 0, 0), ("a", 1, 0)],
    "disabling_key_correlation": [("a", 0, 0), ("a", 1, 0), ("b", 2, 0)],
    "disabling_value_correlation": [("a", 0, 0), ("b", 1, 0), ("a", 2, 0)],
    "count_tracks_observations": [("a", 0, 0)] * 5,
}
RANDOM_SEEDS = range(6)
ABLATIONS = {
    "both": {},
    "no_key": dict(use_key_correlation=False),
    "no_value": dict(use_value_correlation=False),
}


def random_rows(seed):
    rng = np.random.default_rng(seed)
    return [
        (f"k{rng.integers(4)}", int(rng.integers(8)), int(rng.integers(2)))
        for _ in range(int(rng.integers(20, 40)))
    ]


def rule_model(encoding, ablation, ablations=ABLATIONS):
    config = KVECConfig(
        d_model=8,
        num_blocks=1,
        num_heads=2,
        ffn_hidden=8,
        d_state=8,
        dropout=0.0,
        encoding=encoding,
        seed=0,
        **ablations[ablation],
    )
    return KVEC(SPEC, num_classes=2, config=config)


class TestColumnVisibilityRule:
    """The streaming state's column rule reproduces the reference mask.

    Every mask row :meth:`IncrementalEncoderState._correlation_rows` hands to
    an encode, whether from ``append`` or ``append_batch``, must equal the
    matching row of :func:`build_correlation_structure` over the retained
    history, restricted to the rows inside the window.  Slots of evicted
    rows and batch padding must stay masked.  Rotary rings evict with
    ``evict_oldest`` (runs of several evictions leave dead slots); absolute
    states drop their oldest rows and ``rebuild``, which encodes every block
    under the window's whole mask, equal to the item-by-item reference of
    ``tests/core/input_oracle.py``, and leaves the open flags the later
    appends read.
    """

    @pytest.fixture
    def recorded(self, monkeypatch):
        masks = []
        original = IncrementalEncoderState._correlation_rows

        def spy(self, columns, live, slots):
            rows = original(self, columns, live, slots)
            masks.append(rows[0].copy())
            return rows

        monkeypatch.setattr(IncrementalEncoderState, "_correlation_rows", spy)
        return masks

    @pytest.fixture
    def rebuild_masks(self, monkeypatch):
        masks = []
        original = KVRLBlock.forward_inference

        def spy(self, x, mask=None, **kwargs):
            masks.append(mask.copy())
            return original(self, x, mask=mask, **kwargs)

        monkeypatch.setattr(KVRLBlock, "forward_inference", spy)
        return masks

    @staticmethod
    def check_row(mask_row, live, reference_row):
        """``mask_row`` (slot order) shows exactly the visible rows of
        ``reference_row`` (arrival order) at the ``live`` slots, and masks
        every other slot."""
        np.testing.assert_array_equal(mask_row[live] == 0.0, reference_row == 0.0)
        dead = np.ones(len(mask_row), dtype=bool)
        dead[live] = False
        assert np.all(mask_row[dead] == MASK_VALUE)

    @pytest.mark.parametrize("path", ["append", "append_batch"])
    @pytest.mark.parametrize("ablation", sorted(ABLATIONS))
    @pytest.mark.parametrize("encoding", ["rotary", "absolute"])
    @pytest.mark.parametrize(
        "rows", list(RULE_CASES.values()) + [random_rows(seed) for seed in RANDOM_SEEDS],
        ids=list(RULE_CASES) + [f"random{seed}" for seed in RANDOM_SEEDS],
    )
    def test_rows_match_reference(self, recorded, rebuild_masks, rows, encoding, ablation, path):
        rng = np.random.default_rng(len(rows))
        model = rule_model(encoding, ablation)
        flags = dict(
            use_key_correlation=model.config.use_key_correlation,
            use_value_correlation=model.config.use_value_correlation,
        )
        window = int(rng.integers(3, 9))
        state = model.make_incremental_state(capacity=window)
        # A companion stream makes the batched path pad to another width.
        companion = model.make_incremental_state(capacity=window + 3)
        retained = []
        for index, row in enumerate(rows):
            if len(state) == window or (len(state) > 1 and rng.random() < 0.2):
                drop = 1 if len(state) == window else int(rng.integers(1, len(state)))
                if encoding == "rotary":
                    for _ in range(drop):
                        state.evict_oldest()
                else:
                    retained = retained[drop:]
                    del recorded[:], rebuild_masks[:]
                    state.rebuild(tangle_from(retained).items)
                    reference = reference_correlation_structure(tangle_from(retained), **flags)
                    assert not recorded
                    assert len(rebuild_masks) == len(model.encoder.blocks)
                    for mask in rebuild_masks:
                        assert np.array_equal(mask, reference.mask)
            item = tangle_from(rows[: index + 1])[index]
            retained.append(row)
            if path == "append":
                state.append(item)
            else:
                other = Item(f"c{index % 3}", (index % 8, index % 2), float(index))
                append_batch([state, companion], [item, other])
            mask_row = recorded[-1][0]
            assert np.all(mask_row[state._filled() :] == MASK_VALUE)
            reference = build_correlation_structure(tangle_from(retained), **flags).mask
            live = state._live_slots()
            newest = len(retained) - 1
            self.check_row(
                mask_row[: state._filled()], live, reference[newest, newest + 1 - len(live) :]
            )


#: The four ablation switches of Fig. 9, each off alone.
SWITCHES = {
    "key_correlation": dict(use_key_correlation=False),
    "value_correlation": dict(use_value_correlation=False),
    "time_embeddings": dict(use_time_embeddings=False),
    "membership_embedding": dict(use_membership_embedding=False),
}


@pytest.mark.parametrize("switch", sorted(SWITCHES))
@pytest.mark.parametrize("encoding", ["rotary", "absolute"])
def test_rebuild_leaves_the_appends_column_table(encoding, switch):
    """``rebuild`` tables its window in one pass; the key codes, ranks,
    session values and open flags it leaves equal, exactly, those that
    appending the same items one by one leaves."""
    model = rule_model(encoding, switch, ablations=SWITCHES)
    for seed in RANDOM_SEEDS:
        items = tangle_from(random_rows(seed)).items
        appended = model.make_incremental_state(capacity=len(items))
        for item in items:
            appended.append(item)
        rebuilt = model.make_incremental_state(capacity=len(items))
        rebuilt.rebuild(items)
        assert np.array_equal(
            rebuilt._columns[:, : len(items)], appended._columns[:, : len(items)]
        ), seed


class TestBuildCorrelationStructure:
    def test_mask_shape_and_diagonal(self):
        tangle = tangle_from([("a", 0, 0), ("b", 1, 1), ("a", 2, 0)])
        structure = build_correlation_structure(tangle)
        assert structure.mask.shape == (3, 3)
        np.testing.assert_allclose(np.diag(structure.mask), np.zeros(3))

    def test_mask_is_causal(self):
        tangle = tangle_from([("a", 0, 0), ("a", 1, 0), ("a", 2, 0), ("b", 3, 0)])
        structure = build_correlation_structure(tangle)
        upper = structure.mask[np.triu_indices(4, k=1)]
        assert np.all(upper == MASK_VALUE)

    def test_key_correlation_matrix_marks_same_key_pairs(self):
        tangle = tangle_from([("a", 0, 0), ("b", 1, 1), ("a", 2, 1), ("b", 3, 0)])
        structure = build_correlation_structure(tangle)
        assert structure.key_correlated[2, 0]
        assert structure.key_correlated[3, 1]
        assert not structure.key_correlated[2, 1]

    def test_value_correlation_matches_paper_example(self):
        # b's open session has direction 0 when the third item (key a,
        # direction 0) arrives, so they are value-correlated.
        tangle = tangle_from([("b", 0, 0), ("b", 1, 0), ("a", 2, 0)])
        structure = build_correlation_structure(tangle)
        assert structure.value_correlated[2, 0]
        assert structure.value_correlated[2, 1]
        assert structure.mask[2, 0] == 0.0

    def test_key_and_value_matrices_are_disjoint(self):
        tangle = tangle_from(
            [("a", 0, 0), ("b", 1, 0), ("a", 2, 0), ("b", 3, 1), ("a", 4, 1), ("b", 5, 1)]
        )
        structure = build_correlation_structure(tangle)
        assert not np.any(structure.key_correlated & structure.value_correlated)

    def test_upto_truncates(self):
        tangle = tangle_from([("a", 0, 0)] * 6)
        structure = build_correlation_structure(tangle, upto=4)
        assert structure.length == 4

    def test_ablation_flags_reduce_visibility(self):
        rows = [("a", 0, 0), ("b", 1, 0), ("a", 2, 0), ("b", 3, 0), ("a", 4, 0)]
        full = build_correlation_structure(tangle_from(rows))
        no_value = build_correlation_structure(tangle_from(rows), use_value_correlation=False)
        no_key = build_correlation_structure(tangle_from(rows), use_key_correlation=False)
        assert full.visible_pairs() > no_value.visible_pairs()
        assert full.visible_pairs() > no_key.visible_pairs()

    def test_without_value_correlation_only_same_key_visible(self):
        rows = [("a", 0, 0), ("b", 1, 0), ("a", 2, 0), ("b", 3, 0)]
        structure = build_correlation_structure(tangle_from(rows), use_value_correlation=False)
        tangle = tangle_from(rows)
        for i in range(4):
            for j in range(i):
                visible = structure.mask[i, j] == 0.0
                assert visible == (tangle[i].key == tangle[j].key)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 1)),
                    min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_mask_invariants_on_random_tangles(self, rows):
        tangle = tangle_from([(f"k{key}", size, direction) for key, size, direction in rows])
        structure = build_correlation_structure(tangle)
        mask = structure.mask
        length = len(tangle)
        # Diagonal visible, strictly upper triangle invisible, and visibility
        # implies key- or value-correlation (or the diagonal).
        assert np.all(np.diag(mask) == 0.0)
        assert np.all(mask[np.triu_indices(length, k=1)] == MASK_VALUE)
        visible = mask == 0.0
        np.fill_diagonal(visible, False)
        assert np.all(visible == (structure.key_correlated | structure.value_correlated))
        # Key correlation exactly matches "same key and earlier".
        for i in range(length):
            for j in range(i):
                assert structure.key_correlated[i, j] == (tangle[i].key == tangle[j].key)
