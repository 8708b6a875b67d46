"""Content fingerprints: the cache/batching identity of a workload.

The serving layer must decide when two requests refer to *the same*
clustering problem.  Object identity is useless across a replayed trace
(every line re-resolves its dataset), so identity is defined by content:

* :func:`graph_fingerprint` — SHA-256 over the canonical CSR form of the
  similarity graph (shape, ``indptr``, ``indices``, values).  Two graphs
  with equal sparsity pattern and equal values fingerprint equally no
  matter how they were constructed (COO entry order, duplicate
  accumulation, format).
* :func:`points_fingerprint` — the point-input analogue: SHA-256 over the
  profile matrix, the ε-edge list, and the similarity measure parameters
  (which determine the graph Algorithm 1 would build).

The composite cache keys on top of a workload fingerprint (operator,
embedding and model keys) are methods of the fit configuration,
:class:`~repro.core.config.FitConfig`, next to the declaration of which
field enters which key.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _h64(h: "hashlib._Hash", *ints: int) -> None:
    for i in ints:
        h.update(np.int64(i).tobytes())


def graph_fingerprint(graph: COOMatrix | CSRMatrix) -> str:
    """SHA-256 content hash of a similarity graph in canonical CSR form."""
    csr = graph if isinstance(graph, CSRMatrix) else graph.to_csr()
    h = hashlib.sha256(b"repro.graph.csr.v1")
    _h64(h, csr.shape[0], csr.shape[1], csr.nnz)
    h.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def points_fingerprint(
    X: np.ndarray, edges: np.ndarray, measure: str, sigma: float
) -> str:
    """SHA-256 content hash of a point-input workload (Algorithm 1 inputs).

    ``sigma`` only parameterizes the exponential-decay measure; cosine and
    cross-correlation ignore it entirely, so it is canonicalized to the
    default before hashing.  A request that spells out ``sigma=2.5`` with
    ``similarity='crosscorr'`` builds the exact same graph as the default
    and must share its cache slot.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    h = hashlib.sha256(b"repro.points.v1")
    _h64(h, X.shape[0], X.shape[1] if X.ndim > 1 else 1, edges.shape[0])
    h.update(X.tobytes())
    h.update(edges.tobytes())
    h.update(measure.encode("utf-8"))
    sigma_canon = float(sigma) if measure == "expdecay" else 1.0
    h.update(np.float64(sigma_canon).tobytes())
    return h.hexdigest()
