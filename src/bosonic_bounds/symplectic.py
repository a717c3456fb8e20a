"""Symplectic linear algebra on quadrature covariance matrices.

Quadratures are ordered (X1, P1, ..., Xn, Pn) and scaled so the vacuum
covariance matrix is the identity (quadrature variance 1/2, covariance
entries are doubled second moments).  In these units a covariance matrix V
describes a physical state iff all symplectic eigenvalues are >= 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import AsymmetricInputError, CovarianceOverflowError, NonPositiveDefiniteError
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


def _is_count(value, least: int) -> bool:
    """The library's one integer rule: a Python or numpy integer >= least, never a bool."""
    return (type(value) is int or isinstance(value, np.integer)) and value >= least


def _mode_pair(modes, n: int) -> tuple[int, int]:
    """The two distinct mode indices of a pair, each an integer in 0..n-1."""
    i, j = modes
    if not (_is_count(i, 0) and _is_count(j, 0) and i < n and j < n and i != j):
        raise ValueError(f"mode pair {modes} invalid for {n} modes")
    return i, j


def _check_split(bp: Bipartition, n: int) -> None:
    """The library's one split rule: bp must cover exactly the n modes of its state."""
    if bp.n != n:
        raise ValueError(
            f"bipartition {bp.n_a}:{bp.n_b} covers {bp.n} modes but the state has {n}"
        )


def _lapack(name: str, a: np.ndarray, signature: str) -> np.ndarray:
    """numpy.linalg's own LAPACK gufunc ``_umath_linalg.<name>`` on a, without its wrapper.

    ``eigvalsh_lo``, ``cholesky_lo``, ``inv`` and ``det`` with signature
    "d->d" (or "D->d" for a complex eigvalsh) return, bit for bit, what
    numpy.linalg's function of that name returns for a float64 (complex128)
    a; that wrapper's checks cost as much as LAPACK on the small matrices
    of one state.  Where the wrapper raises LinAlgError the gufunc fills its
    result with NaN, emitting no warning, so a caller refuses a NaN.
    """
    with np.errstate(all="ignore"):
        return getattr(_umath_linalg, name)(a, signature=signature)


def _real_square(V) -> np.ndarray:
    """V as an array, refused unless its dtype is integer or float and it is 2n x 2n, n >= 1."""
    V = np.asarray(V)
    if (V.dtype.kind not in "iuf" or V.ndim != 2 or V.shape[0] != V.shape[1] or V.shape[0] % 2
            or not V.size):
        raise ValueError(f"covariance matrix must be real and 2n x 2n, got {V.dtype} {V.shape}")
    return V


@dataclass(frozen=True)
class Bipartition:
    """Split of n = n_a + n_b modes, counts integers >= 1: A takes modes 0..n_a-1, B the rest."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if not (_is_count(self.n_a, 1) and _is_count(self.n_b, 1)):
            raise ValueError(f"both parties need an integer mode count >= 1, got {self!r}")

    @property
    def n(self) -> int:
        return self.n_a + self.n_b


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


def validate_covariance(V, *, _floor: bool = True) -> np.ndarray:
    """Check shape, symmetry, and positive definiteness of a covariance matrix.

    The asymmetry max|V - V^T| may reach TAU_SYM times the largest entry
    magnitude (at least 1); every eigenvalue must exceed the positivity
    floor TAU_PD.  The asymmetry is measured first: an exactly symmetric V
    (max|V - V^T| = 0, which no NaN or infinite entry gives) is finite and
    within tolerance, so the largest entry is looked up only for a V that
    is not.

    Parameters
    ----------
    V : array_like
        Candidate 2n x 2n covariance matrix.
    _floor : bool, keyword-only, private
        False skips the eigenvalue floor.  Only :func:`symplectic_eigenvalues`
        passes it, and proves the floor from its own spectrum or runs it
        itself.  It is a keyword, not a second function, only because
        ``test_three_mode_audit_per_state_counts`` in bench/tests/test_bench.py
        pins 5 validate_covariance calls per audited state.

    Returns
    -------
    ndarray
        A new float array that shares no memory with V, so callers may
        freeze it: a copy of V when V is exactly symmetric, else the
        symmetric part (V + V^T) / 2.  The two agree entrywise, since
        (V + V) / 2 == V short of overflow.

    Raises
    ------
    ValueError
        If V is not an integer or float matrix (a complex one included), is
        not 2n x 2n, or has a NaN or infinite entry.
        An infinity on the diagonal, or facing the same infinity across it,
        gives inf - inf in V - V^T, so numpy first warns "invalid value
        encountered in subtract" (a RuntimeWarning, which warnings-as-errors
        raises in place of the ValueError); an np.errstate guard on the
        subtraction would take back about half of what the exact-symmetry
        path saves on every call.
    AsymmetricInputError
        If V deviates from its transpose by more than the tolerance.
    CovarianceOverflowError
        If V is within tolerance of symmetric, but not exactly, and has an
        entry above half the largest float, so that V + V^T would overflow;
        the message names that entry.  No non-finite matrix is returned.
    NonPositiveDefiniteError
        If V has an eigenvalue at or below the floor (or a NaN one, as an
        eigensolve that does not converge gives).
    """
    V = _real_square(V).astype(float, copy=False)
    # V - V^T is NaN or infinite wherever V is, so an exactly symmetric V is
    # finite and needs neither a scale nor the symmetrizing sum
    asym = float(abs(V - V.T).max())
    if asym == 0.0:
        V = V.copy()
    else:
        peak = float(abs(V).max())
        if not math.isfinite(peak):
            raise ValueError("covariance matrix has a non-finite entry")
        scale = max(1.0, peak)
        if asym > TAU_SYM * scale:
            raise AsymmetricInputError(
                f"covariance asymmetry {asym:.3e} exceeds {TAU_SYM:.1e} * {scale:.3e}"
            )
        if peak > sys.float_info.max / 2:
            raise CovarianceOverflowError(
                f"covariance entry of magnitude {peak:.3e} overflows V + V^T "
                f"(limit {sys.float_info.max / 2:.3e}); rescale the covariance"
            )
        V = V + V.T
        V *= 0.5
    if _floor:
        _eigenvalue_floor(V)
    return V


def _eigenvalue_floor(V: np.ndarray) -> None:
    """Refuse a symmetric V whose least eigenvalue is at or below TAU_PD (or NaN)."""
    evals = _lapack("eigvalsh_lo", V, "d->d")
    if not evals[0] > TAU_PD:
        raise NonPositiveDefiniteError(
            f"covariance eigenvalue {evals[0]:.3e} at or below floor {TAU_PD:.1e} "
            f"(condition number of V {np.linalg.cond(V):.3e})"
        )


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending.

    With the Cholesky factor V = L L^T, the Hermitian matrix L^T (i Omega) L
    is similar to i Omega V; its spectrum is +/- the symplectic eigenvalues.
    L^T Omega is L^T with each mode's pair of columns swapped and the first
    negated, and the real product (L^T Omega) L fills the imaginary part of a
    zeroed complex matrix: tests check the spectrum is the dense form's bit for bit.

    V is refused exactly as :func:`validate_covariance` refuses it, but its
    eigenvalue floor runs only when the spectrum cannot prove the floor
    through the Williamson bound lambda_min(V) >= nu_1^2 / lambda_max(V).

    Returns
    -------
    ndarray
        The n positive values nu_1 <= ... <= nu_n.

    Raises
    ------
    ValueError, AsymmetricInputError, CovarianceOverflowError
        As :func:`validate_covariance` raises them.
    NonPositiveDefiniteError
        If V has an eigenvalue at or below TAU_PD, with validate_covariance's
        message, whether or not V has a Cholesky factor; or, for a V that
        passes the floor, if Cholesky still fails: "covariance has no
        Cholesky factor", or if the eigensolve of L^T (i Omega) L does not
        converge: "symplectic eigensolve did not converge".  Each message
        ends with "(condition number of V ...)"; no LinAlgError and no NaN
        spectrum escapes.
    """
    V = validate_covariance(V, _floor=False)
    L = _lapack("cholesky_lo", V, "d->d")
    if math.isnan(L[0, 0]):  # a failed factor is NaN throughout
        _eigenvalue_floor(V)  # an indefinite V is refused by the floor, as validation refuses it
        raise NonPositiveDefiniteError(
            "covariance has no Cholesky factor: Matrix is not positive definite "
            f"(condition number of V {np.linalg.cond(V):.3e})"
        )
    lt_omega = np.empty_like(L)
    lt_omega[:, 1::2] = L[0::2].T
    np.negative(L[1::2].T, out=lt_omega[:, 0::2])
    h = np.zeros(L.shape, dtype=complex)
    h.imag = lt_omega @ L
    nu = _lapack("eigvalsh_lo", h, "D->d")[len(h) // 2 :]
    # Williamson: V = S D S^T with D >= nu_1 I, so V >= nu_1 S S^T, and
    # lambda_max(V) >= nu_1 lambda_max(S S^T).  S S^T has reciprocal
    # eigenvalue pairs, so lambda_min(V) >= nu_1 / lambda_max(S S^T)
    # >= nu_1^2 / lambda_max(V).  As lambda_max(V) <= Tr V <= 2n max V_ii,
    # r = nu_1 / (2n max V_ii) gives lambda_min(V) >= nu_1 r and
    # cond V <= 1 / r^2.  r > 1e-4 keeps cond V <= 1e8, where the computed
    # nu_1 can be trusted, and nu_1 r > 2 TAU_PD then proves the floor with a
    # factor 2 to spare.  Python floats (and a Python max, faster than
    # numpy's on a short diagonal): an overflowing 2n max V_ii gives r = 0,
    # with no warning, and the floor runs.  A spectrum that did not
    # converge is NaN throughout, so it fails the certificate too.
    nu_1 = float(nu[0])
    r = nu_1 / (len(V) * max(V.diagonal().tolist()))
    if not (r > 1e-4 and nu_1 * r > 2.0 * TAU_PD):
        _eigenvalue_floor(V)
        if math.isnan(nu_1):
            raise NonPositiveDefiniteError(
                "symplectic eigensolve did not converge "
                f"(condition number of V {np.linalg.cond(V):.3e})"
            )
    return nu


def partial_transpose(V, bp: Bipartition) -> np.ndarray:
    """Covariance matrix of the partial transpose over party B.

    Flips the sign of every P quadrature belonging to a B mode, an exact
    involution, by one product with the split's sign matrix, built once per split.
    V must be real and 2n x 2n, as in validate_covariance (which is not run
    here), and bp must cover its n modes; otherwise ValueError.
    """
    V = _real_square(V)
    _check_split(bp, len(V) // 2)
    return V * _pt_signs(bp.n_a, bp.n_b)


@lru_cache(maxsize=16)
def _pt_signs(n_a: int, n_b: int) -> np.ndarray:
    """Read-only +/-1 matrix flipping the P quadrature of each of the last n_b modes."""
    s = np.array([1.0, 1.0] * n_a + [1.0, -1.0] * n_b)
    signs = s[:, None] * s
    signs.setflags(write=False)
    return signs


def check_physicality(V) -> bool:
    """True iff every symplectic eigenvalue is >= 1 - TAU_PHYS."""
    return bool(symplectic_eigenvalues(V)[0] >= 1.0 - TAU_PHYS)
