"""Approximation subsystem: (1+ε)-approximate EMST and HDBSCAN* pipelines.

Everything in this package trades a *contractual* accuracy bound for speed,
built on the same engine layers as the exact methods — the flat kd-tree, the
vectorized WSPD frontier traversal, the batched BCCP kernels, the worker-pool
sharding and the pluggable metric:

* :func:`~repro.approx.emst.approx_emst` — (1+ε)-approximate metric MST from
  the WSPD: at the fixed separation constant ``s = 2``, pairs are split until
  their center-nearest representative edge is certified within ``(1 + ε)``
  of the pair's BCCP (small uncertified pairs get their exact BCCP), then
  one Kruskal pass.  The returned tree is a genuine spanning tree of true
  pairwise distances whose total weight is at most ``(1 + ε)`` times the
  exact MST weight.
* :func:`~repro.approx.hdbscan.approx_hdbscan_mst` — the same pipeline under
  the mutual reachability distance (BCCP* in place of BCCP), registered as
  HDBSCAN* method ``"wspd-approx"``.
* :func:`~repro.approx.hdbscan.approx_hdbscan` — full approximate HDBSCAN*
  pipeline (core distances, approximate MST, dendrogram).

``ε = 0`` always means *exact*: the entry points delegate to the exact
MemoGFK engine, so callers can treat ε as a pure accuracy knob.
"""

from repro.approx.emst import approx_emst, resolve_approx_method
from repro.approx.hdbscan import approx_hdbscan, approx_hdbscan_mst

__all__ = [
    "approx_emst",
    "resolve_approx_method",
    "approx_hdbscan",
    "approx_hdbscan_mst",
]
