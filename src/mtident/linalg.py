"""Shared numerical linear-algebra helpers.

Rank and null-space decisions are all SVD-based with the conventional
tolerance ``max(rows, cols) * eps * sigma_max``; only :func:`nullspace`
accepts an absolute cutoff instead.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

EPS = float(np.finfo(float).eps)


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix."""
    return 0.5 * (M + M.T)


def _svd_tol(M: np.ndarray, s: np.ndarray) -> float:
    return max(M.shape) * EPS * (s[0] if s.size else 0.0)


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank: the number of singular values above the default cutoff."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > _svd_tol(M, s)))


def nullity(M: np.ndarray) -> int:
    """Dimension of the (right) null space; always ``cols - rank``."""
    M = np.atleast_2d(np.asarray(M))
    return M.shape[1] - numerical_rank(M)


def nullspace(M: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the right null space, one column per dimension;
    singular values at or below ``tol`` (default cutoff when None) count as
    zero."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return np.eye(M.shape[1], dtype=M.dtype)
    _, s, Vh = np.linalg.svd(M)
    cutoff = _svd_tol(M, s) if tol is None else float(tol)
    rank = int(np.sum(s > cutoff))
    return Vh[rank:].conj().T


def orth_complement(B: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(B) in R^n (or C^n)."""
    B = np.atleast_2d(np.asarray(B))
    if B.shape[1] == 0:
        return np.eye(n, dtype=float)
    if B.shape[0] != n:
        raise ValueError(f"basis has {B.shape[0]} rows, expected {n}")
    # rows of B^H span the row space; its null space is the complement
    return nullspace(B.conj().T)


def psd_factor(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Factor ``L`` with ``L @ L.T`` equal to the PSD part of symmetric ``M``.

    Eigenvalues in ``[-tol, 0)`` with ``tol = 1e-10 * ||M||`` are clamped to
    zero; anything below ``-tol`` raises :class:`ModelError`.
    """
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(sym(M))
    tol = 1e-10 * (float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w.min() < -tol:
        raise ModelError(f"{name} is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A)))))


def observability_stack(A: np.ndarray, C: np.ndarray, steps: int) -> np.ndarray:
    """Stack ``[C; C A; ...; C A^(steps-1)]`` for a fixed pair."""
    A = np.atleast_2d(np.asarray(A))
    C = np.atleast_2d(np.asarray(C))
    if steps < 1:
        raise ValueError("steps must be >= 1")
    blocks = [C]
    row = C
    for _ in range(steps - 1):
        row = row @ A
        blocks.append(row)
    return np.vstack(blocks)
