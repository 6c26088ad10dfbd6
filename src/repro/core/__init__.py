"""KVEC: Key-Value sequence Early Co-classification (the paper's contribution).

The model has two cooperating modules (Fig. 2 of the paper):

* **KVRL** (key-value sequence representation learning):
  :class:`~repro.core.embeddings.InputEmbedding` builds per-item embeddings
  (value + membership + relative position + time),
  :func:`~repro.core.correlation.build_correlation_structure` derives the
  dynamic key/value-correlation mask (:meth:`~repro.core.model.KVEC.encoder_inputs`
  builds it with every offline encode's other inputs, and the streaming
  :class:`~repro.core.incremental.IncrementalEncoderState` replays the same
  rule one arrival at a time from a column table of its cached rows),
  :class:`~repro.core.kvrl.KVRLEncoder` applies
  correlation-masked self-attention blocks, and
  :class:`~repro.core.fusion.GatedFusion` folds the refined item embeddings
  into one running representation per key-value sequence.

* **ECTL** (early co-classification timing learning):
  :class:`~repro.core.ectl.HaltingPolicy` decides Halt/Wait per observation,
  :class:`~repro.core.ectl.BaselineValue` is the REINFORCE variance-reduction
  baseline, and :class:`~repro.core.classifier.SequenceClassifier` produces
  the label distribution once a sequence halts.

:class:`~repro.core.model.KVEC` ties the pieces together and
:class:`~repro.core.trainer.KVECTrainer` implements the joint training loop of
Algorithm 1 (cross-entropy + REINFORCE-with-baseline + earliness penalty).
"""

from repro.core.config import KVECConfig
from repro.core.correlation import CorrelationStructure, build_correlation_structure
from repro.core.embeddings import InputEmbedding
from repro.core.kvrl import KVRLEncoder
from repro.core.fusion import GatedFusion, MeanFusion, LastItemFusion
from repro.core.ectl import BaselineValue, HaltingPolicy
from repro.core.classifier import SequenceClassifier
from repro.core.model import KVEC, EpisodeResult, KeyEpisode
from repro.core.trainer import KVECTrainer, TrainingHistory
from repro.core.ablations import make_kvec_variant, ABLATION_VARIANTS
from repro.core.checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "KVECConfig",
    "CorrelationStructure",
    "build_correlation_structure",
    "InputEmbedding",
    "KVRLEncoder",
    "GatedFusion",
    "MeanFusion",
    "LastItemFusion",
    "HaltingPolicy",
    "BaselineValue",
    "SequenceClassifier",
    "KVEC",
    "EpisodeResult",
    "KeyEpisode",
    "KVECTrainer",
    "TrainingHistory",
    "make_kvec_variant",
    "ABLATION_VARIANTS",
]
