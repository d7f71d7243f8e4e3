"""Branch predictor configuration.

:class:`PredictorSpec` is the compact (kind, strength, table size)
description of a machine's branch direction predictor: static,
bimodal, gshare or tournament.  The analytic engine reads its strength
and table size through
:meth:`repro.workloads.profiles.BranchProfile.mispredict_rate`.  The
trace engine replays the predictor's counter tables over a trace
(:class:`repro.uarch.kernels.BranchTables`), at the table size
:func:`predictor_table_entries` fixes and with
:data:`GSHARE_HISTORY_BITS` of global history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "PredictorSpec",
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


def predictor_table_entries(spec: PredictorSpec) -> int:
    """Counter-table entries simulated for ``spec``.

    Its ``table_entries`` rounded down to a power of two (at least 1):
    two specs rounding to the same table simulate identically, since
    ``strength`` and ``mispredict_penalty`` feed only the analytic
    model and the CPI stack.
    """
    return 1 << (max(1, spec.table_entries).bit_length() - 1)
