"""Shared numerical linear-algebra helpers.

Rank and null-space decisions are all SVD-based with the conventional
tolerance ``max(rows, cols) * eps * sigma_max``; only :func:`nullspace`
accepts an absolute cutoff instead.

:func:`scipy_compiled` hands the engine scipy's compiled LAPACK and special
functions without running scipy's package initialisation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ModelError

EPS = float(np.finfo(float).eps)


def _extension_file(module: str) -> str | None:
    """The file of scipy's extension module ``scipy.<module>``, found
    without executing scipy, or None. Suffixes are tried in the
    interpreter's own search order."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    stem = os.path.join(spec.submodule_search_locations[0], *module.split("."))
    return next(
        (stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)),
        None,
    )


def scipy_compiled(module: str, public: str, *names: str) -> tuple:
    """The functions ``names`` of scipy's extension module ``scipy.<module>``.

    The module is loaded from its file, which skips scipy's package
    ``__init__``s: importing ``scipy.linalg`` and ``scipy.special`` costs
    about 0.3 s, almost all of it Python set-up that the engine never uses.
    It is registered under its own name, so a later ``import scipy...``
    reuses it and exports these same function objects. If the file or a
    name is missing in this scipy's layout, the functions come from the
    public module ``scipy.<public>`` instead.
    """
    full = f"scipy.{module}"
    mod = sys.modules.get(full)
    if mod is None and (path := _extension_file(module)) is not None:
        spec = importlib.util.spec_from_file_location(full, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[full] = mod
    if mod is None or not all(hasattr(mod, n) for n in names):
        mod = importlib.import_module(f"scipy.{public}")
    return tuple(getattr(mod, n) for n in names)


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part ``0.5 (M + M')`` of a square float matrix, formed in
    one new array."""
    S = M.T.copy()
    S += M
    S *= 0.5
    return S


def _svd_tol(M: np.ndarray, s: np.ndarray) -> float:
    return max(M.shape) * EPS * (s[0] if s.size else 0.0)


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank: the number of singular values above the default cutoff."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > _svd_tol(M, s)))


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


def observable(A: np.ndarray, C: np.ndarray) -> bool:
    """Is the pair ``(A, C)`` observable: does its stack of ``n = dim A``
    steps have numerical rank ``n``?"""
    n = np.shape(A)[0]
    stack = observability_stack(A, C, n)
    return numerical_rank(stack) == n
