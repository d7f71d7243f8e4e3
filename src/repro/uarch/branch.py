"""Branch direction predictors.

:class:`PredictorSpec` is the compact (strength, table size)
description of a machine's predictor, consumed by the analytic engine
through :meth:`repro.workloads.profiles.BranchProfile.mispredict_rate`.
The exact predictor simulators (static, bimodal, gshare, tournament)
step one branch per ``predict``/``update`` call: they are the scalar
oracle the trace engine's batch replay
(:class:`repro.uarch.kernels.BranchTables`) is tested against.
:func:`predictor_table_entries` and :data:`GSHARE_HISTORY_BITS` fix the
table both sides simulate for a spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "PredictorSpec",
    "BranchPredictor",
    "StaticPredictor",
    "BimodalPredictor",
    "GSharePredictor",
    "TournamentPredictor",
    "build_predictor",
    "predictor_table_entries",
    "GSHARE_HISTORY_BITS",
]

#: Global-history length of every gshare table (a tournament's too).
GSHARE_HISTORY_BITS = 12


@dataclass(frozen=True)
class PredictorSpec:
    """Analytic description of a machine's branch predictor.

    Parameters
    ----------
    kind:
        One of ``"static"``, ``"bimodal"``, ``"gshare"``, ``"tournament"``.
    strength:
        Pattern-learning strength in [0, 1]; how much of the learnable
        misprediction mass the predictor removes.
    table_entries:
        Counter-table entries; drives aliasing for code with many static
        branches.
    mispredict_penalty:
        Pipeline refill cost of a misprediction, in cycles.
    """

    kind: str = "gshare"
    strength: float = 0.9
    table_entries: int = 16384
    mispredict_penalty: float = 16.0

    def __post_init__(self) -> None:
        if self.kind not in ("static", "bimodal", "gshare", "tournament"):
            raise ConfigurationError(f"unknown predictor kind {self.kind!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise ConfigurationError(f"strength must be in [0, 1], got {self.strength}")
        if self.table_entries < 0:
            raise ConfigurationError(
                f"table_entries must be >= 0, got {self.table_entries}"
            )
        if self.mispredict_penalty <= 0.0:
            raise ConfigurationError(
                f"mispredict_penalty must be > 0, got {self.mispredict_penalty}"
            )


class BranchPredictor:
    """Interface shared by the exact predictor simulators."""

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome of the branch at ``pc``."""
        raise NotImplementedError

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Convenience: one prediction step; returns True when correct."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction == taken


class StaticPredictor(BranchPredictor):
    """Predicts a fixed direction (default: always taken)."""

    def __init__(self, taken: bool = True) -> None:
        self.taken = taken

    def predict(self, pc: int) -> bool:
        """Always the fixed direction."""
        return self.taken

    def update(self, pc: int, taken: bool) -> None:
        """Static predictors do not learn."""
        return None


class BimodalPredictor(BranchPredictor):
    """Per-PC two-bit saturating counters."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"entries must be a positive power of two, got {entries}"
            )
        self._counters = np.full(entries, 2, dtype=np.int8)  # weakly taken
        self._mask = entries - 1

    def _index(self, pc: int) -> int:
        return pc & self._mask

    def predict(self, pc: int) -> bool:
        """Majority direction of the PC's two-bit counter."""
        return bool(self._counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Saturating-increment/decrement the PC's counter."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)


class GSharePredictor(BranchPredictor):
    """Global-history XOR-indexed two-bit counters."""

    def __init__(
        self, entries: int = 16384, history_bits: int = GSHARE_HISTORY_BITS
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"entries must be a positive power of two, got {entries}"
            )
        if history_bits <= 0:
            raise ConfigurationError(
                f"history_bits must be > 0, got {history_bits}"
            )
        self._counters = np.full(entries, 2, dtype=np.int8)
        self._mask = entries - 1
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        """Majority direction of the history-XOR-indexed counter."""
        return bool(self._counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Train the indexed counter and shift the global history."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class TournamentPredictor(BranchPredictor):
    """Chooses per-PC between a bimodal and a gshare component."""

    def __init__(
        self, entries: int = 16384, history_bits: int = GSHARE_HISTORY_BITS
    ) -> None:
        self._bimodal = BimodalPredictor(entries)
        self._gshare = GSharePredictor(entries, history_bits)
        self._chooser = np.full(entries, 2, dtype=np.int8)  # weakly gshare
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        """Direction of whichever component the chooser trusts."""
        if self._chooser[pc & self._mask] >= 2:
            return self._gshare.predict(pc)
        return self._bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train both components and the per-PC chooser."""
        bimodal_correct = self._bimodal.predict(pc) == taken
        gshare_correct = self._gshare.predict(pc) == taken
        index = pc & self._mask
        if gshare_correct and not bimodal_correct:
            self._chooser[index] = min(3, self._chooser[index] + 1)
        elif bimodal_correct and not gshare_correct:
            self._chooser[index] = max(0, self._chooser[index] - 1)
        self._bimodal.update(pc, taken)
        self._gshare.update(pc, taken)


def predictor_table_entries(spec: PredictorSpec) -> int:
    """Counter-table entries simulated for ``spec``.

    Its ``table_entries`` rounded down to a power of two (at least 1):
    two specs rounding to the same table simulate identically, since
    ``strength`` and ``mispredict_penalty`` feed only the analytic
    model and the CPI stack.
    """
    return 1 << (max(1, spec.table_entries).bit_length() - 1)


def build_predictor(spec: PredictorSpec) -> BranchPredictor:
    """Instantiate the exact simulator matching an analytic spec."""
    entries = predictor_table_entries(spec)
    if spec.kind == "static":
        return StaticPredictor()
    if spec.kind == "bimodal":
        return BimodalPredictor(entries)
    if spec.kind == "gshare":
        return GSharePredictor(entries)
    return TournamentPredictor(entries)
