"""The Lanczos factorization with full reorthogonalization.

A ``j``-step Lanczos factorization of a symmetric operator ``A`` is::

    A V_j = V_j T_j + f e_jᵀ

with orthonormal ``V_j`` (here stored row-major: ``V[i]`` is the i-th basis
vector), symmetric tridiagonal ``T_j`` (``alpha`` diagonal / ``beta``
subdiagonal), and residual ``f`` orthogonal to the basis.

:class:`LanczosState` holds the factorization; extension is written as a
*generator* step so the operator application can be supplied externally —
the hook the reverse communication interface hangs off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.linalg.utils import dgks_orthogonalize, random_unit_vector


@dataclass
class LanczosState:
    """An in-progress Lanczos factorization.

    Attributes
    ----------
    V:
        ``(m_max, n)`` basis storage; rows ``0..j-1`` are valid.
    alpha, beta:
        Tridiagonal entries; ``alpha[i]`` valid for ``i < j``;
        ``beta[i]`` couples steps ``i`` and ``i+1`` (``beta[j-1]`` is the
        current residual norm once step ``j-1`` completes).
    j:
        Number of completed steps (valid basis rows).
    f:
        Current residual vector (unnormalized).
    breakdowns:
        Count of exact breakdowns recovered via random restarts — each one
        means an invariant subspace was captured.
    """

    V: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    j: int = 0
    f: np.ndarray | None = None
    breakdowns: int = 0
    reorth_passes: int = 0

    @classmethod
    def allocate(cls, n: int, m_max: int) -> "LanczosState":
        return cls(
            V=np.zeros((m_max, n)),
            alpha=np.zeros(m_max),
            beta=np.zeros(m_max),
        )

    @property
    def n(self) -> int:
        return self.V.shape[1]

    @property
    def m_max(self) -> int:
        return self.V.shape[0]

    def basis(self) -> np.ndarray:
        """The valid rows of the basis, shape ``(j, n)``."""
        return self.V[: self.j]

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) of the current j×j projected matrix."""
        return self.alpha[: self.j].copy(), self.beta[: self.j - 1].copy()

    def orthogonality_error(self) -> float:
        """``max |V Vᵀ - I|`` over the valid basis — a health diagnostic."""
        Vj = self.basis()
        G = Vj @ Vj.T
        return float(np.max(np.abs(G - np.eye(self.j)))) if self.j else 0.0


def extend_factorization(
    state: LanczosState,
    to_steps: int,
    rng: np.random.Generator,
    breakdown_tol: float = 0.0,
    locked: np.ndarray | None = None,
) -> Generator[np.ndarray, np.ndarray, None]:
    """Grow the factorization to ``to_steps`` steps (a generator).

    Yields the vector to be multiplied by the operator and receives the
    product via ``send`` — one round trip per Lanczos step.  On entry,
    either ``state.j == 0`` (fresh start; ``state.f`` must hold the start
    vector) or a valid j-step factorization with residual ``state.f`` is
    present (post-restart continuation).

    ``locked`` is an optional ``(c, n)`` block of known orthonormal
    eigenvectors: every DGKS pass (and every breakdown restart vector) is
    also orthogonalized against it, so the factorization lives in the
    block's orthogonal complement and never rediscovers it.
    """
    n = state.n
    if to_steps > state.m_max:
        raise ValueError(f"requested {to_steps} steps but storage has {state.m_max}")
    if breakdown_tol <= 0.0:
        breakdown_tol = n * np.finfo(np.float64).eps

    while state.j < to_steps:
        j = state.j
        # place the next basis vector from the residual
        if j == 0:
            if state.f is None:
                raise ValueError("fresh factorization requires a start vector in f")
            fnorm = np.linalg.norm(state.f)
            if fnorm == 0.0:
                raise ValueError("start vector is zero")
            state.V[0] = state.f / fnorm
        else:
            fnorm = np.linalg.norm(state.f)
            scale = max(1.0, np.max(np.abs(state.alpha[:j])), np.max(state.beta[:j]))
            if fnorm <= breakdown_tol * scale:
                # exact breakdown: invariant subspace found; restart with a
                # random direction orthogonal to everything so far.
                state.V[j] = random_unit_vector(
                    n, rng, orthogonal_to=state.V[:j], locked=locked
                )
                state.beta[j - 1] = 0.0
                state.breakdowns += 1
            else:
                state.V[j] = state.f / fnorm
                state.beta[j - 1] = fnorm

        # one operator application (suspend here)
        w = yield state.V[j]
        w = np.asarray(w, dtype=np.float64).ravel()
        if w.size != n:
            raise ValueError(f"operator returned length {w.size}, expected {n}")

        a = float(state.V[j] @ w)
        w = w - a * state.V[j]
        if j > 0:
            w = w - state.beta[j - 1] * state.V[j - 1]
        # full reorthogonalization with DGKS refinement
        w, h = dgks_orthogonalize(state.V[: j + 1], w, locked=locked)
        state.reorth_passes += 1
        a += float(h[j])
        if j > 0:
            state.beta[j - 1] += float(h[j - 1])
        state.alpha[j] = a
        state.f = w
        state.j = j + 1
    # final residual norm is read by the caller via np.linalg.norm(state.f)
