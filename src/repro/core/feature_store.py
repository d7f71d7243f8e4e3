"""Placeholder for the end-to-end benchmark's timing wrapper.

The campaign fold reads the campaign store directly, so there is no
second feature store.  ``benchmarks/e2e/op.py`` (``_install_wrappers``:
``(FeatureMatrixStore, "append_machine_block", ...)``) still wraps this
attribute in traced ops, so its ``feature_store.append_s`` metric reads
0; the next change to that benchmark deletes both.
"""

from __future__ import annotations


class FeatureMatrixStore:
    """Nothing constructs this class; it only carries the wrapped name."""

    def append_machine_block(self, *args, **kwargs) -> None:
        """Never called: no production path appends to a feature store."""
        raise NotImplementedError(
            "FeatureMatrixStore was removed; the campaign fold reads "
            "the campaign store"
        )
