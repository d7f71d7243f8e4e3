"""The analysis-mode name recorded by the end-to-end benchmark.

The campaign fold is one exact batch fit over the campaign store; there
is no incremental engine and no mode to choose.  This constant stays
only because ``benchmarks/e2e/op.py`` (``_knobs``: ``"analysis":
resolve_analysis_mode(None)``) records it and
``benchmarks/e2e/test_e2e.py`` asserts the value; the next change to
that benchmark deletes both.
"""

from __future__ import annotations


def resolve_analysis_mode(mode: None = None) -> str:
    """The name the end-to-end benchmark records for the fold."""
    return "incremental"
