"""Configuration of the KVEC model and its training procedure."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass
class KVECConfig:
    """Hyperparameters of KVEC.

    The defaults are scaled-down versions of the paper's settings (Section
    V-A4: 6 attention blocks with 128-dimensional embeddings on the traffic
    datasets, a 256-cell LSTM fusion layer, Adam with learning rate 1e-4,
    100 epochs, batch size 64) so that CPU training with the numpy substrate
    converges in seconds at test scale and minutes at benchmark scale.

    Attributes
    ----------
    d_model:
        Dimension of item embeddings inside KVRL.
    num_blocks:
        Number of stacked attention blocks (paper: 6 for traffic, 2 for
        MovieLens).
    num_heads:
        Attention heads per block (the paper's formulation is single-head).
    ffn_hidden:
        Hidden width of the position-wise feed-forward network.
    d_state:
        Dimension of the per-sequence representation maintained by the gated
        fusion (paper: 256).
    dropout:
        Dropout probability inside attention blocks (paper: 0.1).
    max_positions / max_keys / max_time:
        Capacities of the relative-position, membership and time embedding
        tables; indices beyond the capacity are clamped to the last entry.
    alpha / beta:
        Loss weights: ``l = l1 + alpha * l2 + beta * l3`` (Section IV-E).
        ``alpha`` scales the REINFORCE policy loss, ``beta`` the earliness
        penalty.  The paper freezes ``alpha = 0.1`` and sweeps ``beta`` to
        trace the accuracy/earliness curve.
    learning_rate / baseline_learning_rate:
        Adam learning rates for the model parameters θ and the baseline
        value-network parameters θb respectively.
    epochs / batch_size:
        Training epochs and the number of tangled sequences per gradient
        accumulation window.  Every minibatch trains through the lockstep
        episode runner (:mod:`repro.core.batched_episodes`): one GEMM per
        layer and arrival round across the minibatch.
    grad_clip:
        Global gradient-norm clip (0 disables clipping).
    use_key_correlation / use_value_correlation:
        Ablation switches for the two correlation types in the dynamic mask
        ("w/o Key Correlation", "w/o Value Correlation" in Fig. 9).
    use_membership_embedding / use_time_embeddings:
        Ablation switches for the membership embedding and the time-related
        (relative position + time) embeddings ("w/o Membership Embed.",
        "w/o Time-related Embed." in Fig. 9).  Under ``encoding="rotary"``
        the latter switch disables the attention-side rotary phases and the
        relative within-key position bias instead.
    encoding:
        How time/position information enters the model.  ``"absolute"`` (the
        paper's scheme, the default) adds learned absolute position/time
        embeddings indexed by the item's offset *within the current window* —
        faithful to the paper but eviction-unstable: sliding-window serving
        must re-encode everything whenever an item is evicted.  ``"rotary"``
        moves the time-related signal into attention: queries/keys are phase
        rotated by the item's *global* arrival index (rotary embedding, so
        attention logits depend only on arrival-index differences) and a
        learned relative within-key position bias replaces the absolute
        position embedding; the membership embedding is indexed by a stable
        hash of the key.  An item's embedding, cached K/V projections and
        fused representation then never depend on its current offset in the
        serving window, enabling O(W·d) steady-state serving (see
        :mod:`repro.core.incremental`).
    fusion:
        Fusion mechanism: ``"gated"`` (the paper's LSTM-style gating),
        ``"mean"`` or ``"last"`` (parameter-free ablations).
    seed:
        Seed for parameter initialisation and action sampling.
    """

    d_model: int = 32
    num_blocks: int = 2
    num_heads: int = 2
    ffn_hidden: int = 64
    d_state: int = 48
    dropout: float = 0.1
    max_positions: int = 256
    max_keys: int = 64
    max_time: int = 512
    alpha: float = 0.1
    beta: float = 0.001
    learning_rate: float = 1e-3
    baseline_learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 8
    grad_clip: float = 5.0
    use_key_correlation: bool = True
    use_value_correlation: bool = True
    use_membership_embedding: bool = True
    use_time_embeddings: bool = True
    encoding: str = "absolute"
    fusion: str = "gated"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.d_state <= 0:
            raise ValueError("embedding dimensions must be positive")
        if self.num_heads <= 0:
            raise ValueError("num_heads must be positive")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.encoding not in ("absolute", "rotary"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.fusion not in ("gated", "mean", "last"):
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")

    def with_overrides(self, **kwargs) -> "KVECConfig":
        """Return a copy of the config with the given fields replaced."""
        return replace(self, **kwargs)

    def paper_scale(self) -> "KVECConfig":
        """Return the configuration matching the paper's published settings."""
        return self.with_overrides(
            d_model=128,
            num_blocks=6,
            num_heads=4,
            ffn_hidden=256,
            d_state=256,
            learning_rate=1e-4,
            epochs=100,
            batch_size=64,
        )
