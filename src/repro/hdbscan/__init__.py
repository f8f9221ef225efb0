"""HDBSCAN* — hierarchical density-based clustering (Section 3.2 + Appendix C).

The pipeline is: core distances via k-NN (``minPts``-nearest neighbour), then
an MST of the *mutual reachability graph* (edge weights
``max(cd(p), cd(q), d(p, q))``), then the ordered dendrogram and reachability
plot of that MST.  Three MST constructions are provided:

* :func:`~repro.hdbscan.memogfk.hdbscan_mst_gantao` — the parallelized exact
  version of Gan & Tao's algorithm: standard (geometric) well-separation,
  BCCP* per pair (Section 3.2.1 baseline);
* :func:`~repro.hdbscan.memogfk.hdbscan_mst_memogfk` — the paper's
  space-efficient algorithm using the new disjunctive notion of
  well-separation (Section 3.2.2); both run the same MemoGFK-engine driver
  and differ only in the separation predicate;
* :func:`~repro.hdbscan.bruteforce.hdbscan_mst_bruteforce` — O(n^2) reference
  over the complete mutual reachability graph (testing only).

:func:`~repro.hdbscan.optics_approx.optics_approx_mst` implements the parallel
approximate OPTICS algorithm of Appendix C.  The public entry point is
:func:`~repro.hdbscan.api.hdbscan`.
"""

from repro.hdbscan.core_distance import core_distances
from repro.hdbscan.mutual_reachability import (
    mutual_reachability,
    mutual_reachability_matrix,
)
from repro.hdbscan.bruteforce import hdbscan_mst_bruteforce
from repro.hdbscan.memogfk import hdbscan_mst_gantao, hdbscan_mst_memogfk
from repro.hdbscan.optics_approx import optics_approx_mst
from repro.hdbscan.result import HDBSCANResult
from repro.hdbscan.validation import adjusted_rand_index
from repro.hdbscan.api import hdbscan, HDBSCAN_METHODS

__all__ = [
    "core_distances",
    "mutual_reachability",
    "mutual_reachability_matrix",
    "hdbscan_mst_bruteforce",
    "hdbscan_mst_gantao",
    "hdbscan_mst_memogfk",
    "optics_approx_mst",
    "HDBSCANResult",
    "adjusted_rand_index",
    "hdbscan",
    "HDBSCAN_METHODS",
]
