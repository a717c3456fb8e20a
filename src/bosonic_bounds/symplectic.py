"""Symplectic linear algebra on quadrature covariance matrices.

Quadratures are ordered (X1, P1, ..., Xn, Pn) and scaled so the vacuum
covariance matrix is the identity (quadrature variance 1/2, covariance
entries are doubled second moments).  In these units a covariance matrix V
describes a physical state iff all symplectic eigenvalues are >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricInputError, NonPositiveDefiniteError
from .tolerances import TAU_PD, TAU_PHYS, TAU_SYM

__all__ = [
    "Bipartition",
    "default_bipartition",
    "omega",
    "validate_covariance",
    "symplectic_eigenvalues",
    "partial_transpose",
    "check_physicality",
]


@dataclass(frozen=True)
class Bipartition:
    """Split of n = n_a + n_b modes into party A (first n_a modes) and party B.

    Modes are zero-indexed; party A always takes the leading modes.
    """

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError("both parties need at least one mode")

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    @property
    def a_modes(self) -> range:
        return range(self.n_a)

    @property
    def b_modes(self) -> range:
        return range(self.n_a, self.n)

    def quad_indices(self, modes) -> np.ndarray:
        """Flat quadrature indices (X_i, P_i interleaved) for the given modes."""
        modes = np.asarray(list(modes), dtype=int)
        return np.stack([2 * modes, 2 * modes + 1], axis=1).reshape(-1)


def default_bipartition(n: int) -> Bipartition | None:
    """The n//2 | n - n//2 split used when none is given; None for one mode."""
    if n < 2:
        return None
    return Bipartition(n // 2, n - n // 2)


def omega(n: int) -> np.ndarray:
    """Symplectic form for n modes: direct sum of [[0, 1], [-1, 0]] blocks."""
    w = np.zeros((2 * n, 2 * n))
    for k in range(n):
        w[2 * k, 2 * k + 1] = 1.0
        w[2 * k + 1, 2 * k] = -1.0
    return w


def validate_covariance(V) -> np.ndarray:
    """Check shape, symmetry, and positive definiteness of a covariance matrix.

    The asymmetry may reach TAU_SYM times the largest entry magnitude (at
    least 1); every eigenvalue must exceed the positivity floor TAU_PD.

    Parameters
    ----------
    V : array_like
        Candidate 2n x 2n covariance matrix.

    Returns
    -------
    ndarray
        The input as a float array (symmetrized copy).

    Raises
    ------
    ValueError
        If V is not 2n x 2n or has a NaN or infinite entry.
    AsymmetricInputError
        If V deviates from its transpose by more than the tolerance.
    NonPositiveDefiniteError
        If V has an eigenvalue at or below the floor.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2 != 0 or V.shape[0] == 0:
        raise ValueError(f"covariance matrix must be 2n x 2n, got shape {V.shape}")
    peak = float(abs(V).max())
    if not math.isfinite(peak):
        raise ValueError("covariance matrix has a non-finite entry")
    scale = max(1.0, peak)
    asym = float(abs(V - V.T).max())
    if asym > TAU_SYM * scale:
        raise AsymmetricInputError(
            f"covariance asymmetry {asym:.3e} exceeds {TAU_SYM:.1e} * {scale:.3e}"
        )
    V = V + V.T
    V *= 0.5
    evals = np.linalg.eigvalsh(V)
    if evals[0] <= TAU_PD:
        raise NonPositiveDefiniteError(
            f"covariance eigenvalue {evals[0]:.3e} at or below floor {TAU_PD:.1e} "
            f"(condition number of V {np.linalg.cond(V):.3e})"
        )
    return V


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    With the Cholesky factor V = L L^T, the Hermitian matrix L^T (i Omega) L
    is similar to i Omega V; its spectrum is +/- the symplectic eigenvalues.
    L^T Omega is formed by a column permutation, with no Omega matrix: each
    mode's pair of columns of L^T is swapped and the first negated, which is
    exact, so the spectrum equals that of the dense product bit for bit.

    Returns
    -------
    ndarray
        The n positive values nu_1 <= ... <= nu_n.
    """
    V = validate_covariance(V)
    n = V.shape[0] // 2
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(
            f"covariance has no Cholesky factor: {exc} "
            f"(condition number of V {np.linalg.cond(V):.3e})"
        ) from exc
    lt_omega = np.empty_like(L)
    lt_omega[:, 1::2] = L[0::2].T
    np.negative(L[1::2].T, out=lt_omega[:, 0::2])
    return np.linalg.eigvalsh((1j * lt_omega) @ L)[n:]


def partial_transpose(V, bp: Bipartition) -> np.ndarray:
    """Covariance matrix of the partial transpose over party B.

    Flips the sign of every P quadrature belonging to a B mode; an exact
    involution.
    """
    V = np.asarray(V, dtype=float)
    if V.shape[0] != 2 * bp.n:
        raise ValueError(f"covariance is for {V.shape[0] // 2} modes, bipartition has {bp.n}")
    signs = np.ones(2 * bp.n)
    signs[2 * bp.n_a + 1 :: 2] = -1.0  # the P quadrature of every B mode
    return V * signs * signs[:, None]


def check_physicality(V) -> bool:
    """True iff every symplectic eigenvalue is >= 1 - TAU_PHYS."""
    nu = symplectic_eigenvalues(V)
    return bool(nu[0] >= 1.0 - TAU_PHYS)
