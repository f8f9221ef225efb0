"""Segmented array primitive shared by the flat engine.

:func:`segment_ranges` is the segmented iota of the paper's Section 2.2
toolkit in whole-array form: it expands ``(start, count)`` segments into one
concatenated index array with a single ``np.repeat`` pass.  The flat kd-tree
build, the dendrogram leaf-span scatters and the dynamic engine's spatial
index all use it.
"""

from __future__ import annotations

import numpy as np


def segment_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``.

    The segmented-iota primitive: one ``np.repeat``-based pass in place of a
    Python loop over segments.  Shared by the flat kd-tree build and the
    dendrogram leaf-span scatters.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(offsets, counts)
    out += np.repeat(starts, counts)
    return out
