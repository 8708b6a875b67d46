"""Connected components and isolated-node handling.

The paper assumes every ``D_ii > 0``, "otherwise the isolated nodes can be
removed from the graph" (§IV.B) — :func:`remove_isolated` performs exactly
that surgery.

The pipeline extends the surgery to connected components.  On a graph
with ``c`` components the operator the eigensolver sees is block
diagonal, and its top eigenvalue repeats exactly ``c`` times with known
eigenvectors: ``D^{1/2} 1_C / ‖·‖`` for ``D^{-1/2} W D^{-1/2}`` (eigenvalue
1), ``1_C / ‖·‖`` for ``D⁻¹W`` (eigenvalue 1) and for the shifted
Laplacian ``cI - L`` (eigenvalue ``c``).  A single-vector Krylov solver
finds only a few of these copies, and which few depends on rounding.  So
the host labels the components (:func:`csr_components`, one sparse sweep,
while the device builds the Laplacian) and the eigensolver stage hands
:func:`component_block` to the solver as a locked block: with ``c >= k``
the top-k spectrum is the block itself and no Lanczos runs; with
``c < k`` the IRLM solves only for the ``k - c`` remaining pairs on the
block's orthogonal complement.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def csr_components(indptr, indices) -> tuple[int, np.ndarray]:
    """Label the connected components of a square CSR sparsity pattern.

    Edges are followed both ways (weak connectivity).  Labels are 0-based
    and ordered by each component's first vertex, so a component's label
    never depends on the traversal.

    Vectorized hook-and-shortcut: every vertex points at a parent no
    larger than itself; each round hooks the tree of each edge's one end
    under the other end's smaller root, then jumps every pointer to its
    root.  Rounds repeat until both ends of every edge share a root, which
    is then the component's smallest vertex.
    """
    indptr = np.asarray(indptr)
    n = indptr.size - 1
    if n <= 0:
        return 0, np.zeros(0, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = np.asarray(indices, dtype=np.int64)
    parent = np.arange(n, dtype=np.int64)
    while True:
        pr, pc = parent[rows], parent[cols]
        if np.array_equal(pr, pc):
            break
        np.minimum.at(parent, pr, pc)
        np.minimum.at(parent, pc, pr)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    return int(roots.size), labels.astype(np.int64, copy=False)


def connected_components(W) -> tuple[int, np.ndarray]:
    """Label connected components of an undirected graph.

    Parameters
    ----------
    W:
        Sparse adjacency in any format (values ignored; treated as
        undirected — edges are followed both ways).

    Returns
    -------
    (n_components, labels):
        Component count and a length-n label vector (0-based, ordered by
        first-seen node).
    """
    csr = W if isinstance(W, CSRMatrix) else W.to_csr()
    return csr_components(csr.indptr, csr.indices)


def component_block(
    labels: np.ndarray,
    n_comp: int,
    weights: np.ndarray,
    n_cols: int | None = None,
) -> np.ndarray:
    """The analytic top eigenvectors of a block-diagonal operator.

    Column ``j`` is ``weights`` restricted to component ``C_j`` and
    normalized to unit length (``weights = sqrt(degree)`` for
    ``D^{-1/2} W D^{-1/2}``, ones for ``D⁻¹W`` and the shifted
    Laplacian).  Columns are ordered by component size descending, then
    by first vertex, so the block is canonical.  Returns the first
    ``n_cols`` (default all ``n_comp``) columns, shape ``(n, n_cols)``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    sizes = np.bincount(labels, minlength=n_comp)
    # labels are already ordered by first vertex, so a stable sort on
    # size breaks ties by first vertex
    order = np.argsort(-sizes, kind="stable")
    col = np.empty(n_comp, dtype=np.int64)
    col[order] = np.arange(n_comp, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    norms = np.sqrt(np.bincount(labels, weights=w * w, minlength=n_comp))
    n_cols = n_comp if n_cols is None else min(int(n_cols), n_comp)
    vertex_col = col[labels]
    rows = np.flatnonzero(vertex_col < n_cols)
    B = np.zeros((n, n_cols))
    B[rows, vertex_col[rows]] = w[rows] / norms[labels[rows]]
    return B


def induced_subgraph(W, nodes: np.ndarray) -> CSRMatrix:
    """The subgraph of ``W`` induced by ``nodes`` (sorted original
    indices), relabelled ``0..len(nodes)-1`` in that order, as CSR."""
    csr = W if isinstance(W, CSRMatrix) else W.to_csr()
    nodes = np.asarray(nodes, dtype=np.int64)
    remap = np.full(csr.shape[0], -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    coo = csr.to_coo()
    mask = (remap[coo.row] >= 0) & (remap[coo.col] >= 0)
    sub = COOMatrix(
        remap[coo.row[mask]],
        remap[coo.col[mask]],
        coo.data[mask],
        (nodes.size, nodes.size),
        check=False,
    )
    return sub.to_csr()


def remove_isolated(W) -> tuple[CSRMatrix, np.ndarray]:
    """Drop zero-degree nodes from a similarity graph.

    Returns
    -------
    (W_sub, kept):
        The induced subgraph on non-isolated nodes (CSR) and the original
        indices of the kept nodes, so cluster labels can be scattered back
        (isolated nodes get their own singleton treatment downstream).
    """
    csr = W if isinstance(W, CSRMatrix) else W.to_csr()
    deg = csr.row_sums()
    kept = np.flatnonzero(deg > 0)
    if kept.size == csr.shape[0]:
        return csr, kept
    return induced_subgraph(csr, kept), kept
