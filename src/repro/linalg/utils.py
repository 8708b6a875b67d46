"""Orthogonalization and small vector utilities for the eigensolver."""

from __future__ import annotations

import numpy as np


def dgks_orthogonalize(
    V: np.ndarray,
    w: np.ndarray,
    max_passes: int = 3,
    eta: float = 1.0 / np.sqrt(2.0),
    locked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize ``w`` against the rows of ``V`` with DGKS refinement.

    Classical Gram-Schmidt with iterative refinement (Daniel, Gragg,
    Kaufman & Stewart) — the scheme ARPACK uses.  A pass is repeated while
    the vector loses more than a factor ``eta`` of its norm, which signals
    cancellation.

    Parameters
    ----------
    V:
        ``(j, n)`` matrix with orthonormal rows.
    w:
        Vector to orthogonalize (modified copy returned).
    locked:
        Optional ``(c, n)`` orthonormal rows of a locked (already known)
        invariant block: every pass also projects ``w`` off them, so the
        vector stays in the block's orthogonal complement.  Their
        coefficients are discarded — the block is not part of ``V``'s
        factorization.

    Returns
    -------
    (w_orth, h):
        The orthogonalized vector and the total projection coefficients
        ``h = V @ w`` accumulated over all passes (used to correct the
        tridiagonal entries).
    """
    w = np.array(w, dtype=np.float64, copy=True)
    h_total = np.zeros(V.shape[0])
    if V.shape[0] == 0 and locked is None:
        return w, h_total
    for _ in range(max_passes):
        norm_before = np.linalg.norm(w)
        if locked is not None:
            w -= locked.T @ (locked @ w)
        h = V @ w
        w -= V.T @ h
        h_total += h
        norm_after = np.linalg.norm(w)
        if norm_after >= eta * norm_before or norm_after == 0.0:
            break
    return w, h_total


def normalize_columns(X: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Return ``X`` with each column scaled to unit Euclidean norm.

    Columns with norm ≤ ``eps`` are left unscaled (all-zero columns stay
    zero rather than becoming NaN).
    """
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    safe = np.where(norms > eps, norms, 1.0)
    return X / safe


def normalize_rows(X: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Return ``X`` with each row scaled to unit Euclidean norm."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms > eps, norms, 1.0)
    return X / safe[:, None]


def random_unit_vector(
    n: int,
    rng: np.random.Generator,
    orthogonal_to: np.ndarray | None = None,
    locked: np.ndarray | None = None,
) -> np.ndarray:
    """A random unit vector, optionally orthogonalized against given rows.

    Used to restart the Lanczos process after exact breakdown (an invariant
    subspace was found); ``locked`` rows (see :func:`dgks_orthogonalize`)
    are projected out too.
    """
    for _ in range(5):
        v = rng.standard_normal(n)
        if orthogonal_to is not None:
            v, _ = dgks_orthogonalize(orthogonal_to, v, locked=locked)
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            return v / norm
    raise RuntimeError(
        "failed to draw a vector outside the current invariant subspace "
        f"(n={n}, basis rows={0 if orthogonal_to is None else len(orthogonal_to)})"
    )
