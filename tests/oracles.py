"""Second routes to quantities the library computes one way.

Each oracle reaches its quantity through different arithmetic from the
library's own path, so a test that compares the two checks both:

- ``quadrature_moments`` builds a pure Fock state's full quadrature mean
  and covariance from first and second ladder moments; half the trace of
  its V is ``fock.total_noise``.
- ``qcs2_gaussian_char_oracle`` reads C^2 of a Gaussian state off the
  covariance of its characteristic function, against
  ``gaussian.qcs2_gaussian``'s Tr V^{-1} / (2n).
- ``sweep_csv_oracle`` writes a sweep CSV through ``csv.writer`` with one
  formatting call per cell, where ``experiments.write_sweep`` joins each
  row itself.
- ``symplectic_eigenvalues_full_floor`` runs the full ``validate_covariance``,
  eigenvalue floor included, before the Cholesky kernel of
  ``symplectic.symplectic_eigenvalues``, which runs that floor only when its
  own spectrum cannot prove it.

Tests import them as ``from oracles import ...``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from bosonic_bounds.errors import NonPositiveDefiniteError
from bosonic_bounds.fock import FockPureState, _ladder
from bosonic_bounds.gaussian import GaussianState, _inverse
from bosonic_bounds.symplectic import omega, validate_covariance


def quadrature_moments(psi: FockPureState) -> tuple[np.ndarray, np.ndarray]:
    """Mean quadrature vector and covariance matrix of a pure Fock state.

    Returns (mean, V) in the conventions of :mod:`bosonic_bounds.symplectic`,
    computed from first and second ladder moments.
    """
    amps = psi.amps
    n = psi.n
    low = [_ladder(amps, i) for i in range(n)]

    def against_low(v):
        return [np.vdot(v, lo) for lo in low]

    m1 = np.array(against_low(amps))
    K = np.array([against_low(lo) for lo in low])
    # <a_i^dag a_i> is real; dropping its rounding residue keeps xp = px.
    np.fill_diagonal(K, K.diagonal().real)
    # <a_i a_j> = <a_i^dag psi | a_j psi>: the truncated a^dag is exactly the
    # adjoint of the truncated a.  Each raised vector is freed once its row
    # is done, so at most one is alive beside the n lowered ones.
    M2 = np.array([against_low(_ladder(amps, i, create=True)) for i in range(n)])
    mean = np.zeros(2 * n)
    mean[0::2] = math.sqrt(2.0) * m1.real
    mean[1::2] = math.sqrt(2.0) * m1.imag
    half = 0.5 * np.eye(n)
    sym = np.empty((2 * n, 2 * n))
    sym[0::2, 0::2] = M2.real + K.real + half
    sym[1::2, 1::2] = -M2.real + K.real + half
    sym[0::2, 1::2] = M2.imag + K.imag
    sym[1::2, 0::2] = M2.imag - K.imag
    V = 2.0 * sym - 2.0 * np.outer(mean, mean)
    return mean, V


def qcs2_gaussian_char_oracle(st: GaussianState) -> float:
    """Same quantity as ``qcs2_gaussian``, from the characteristic-function second moments.

    The squared coherence scale is Tr Sigma / n with
    Sigma = Omega V^{-1} Omega^T / 2, the covariance of |chi(xi)|^2 seen as a
    (Gaussian) distribution over phase space.
    """
    n = st.n
    w = omega(n)
    sigma = 0.5 * w @ _inverse(st.cov) @ w.T
    return float(np.trace(sigma) / n)


_FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT_FMT % x
    return str(x)


def sweep_csv_oracle(path, columns, rows) -> None:
    """Write ``rows`` to ``path`` as ``write_sweep`` writes its CSV, through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def symplectic_eigenvalues_full_floor(V) -> np.ndarray:
    """``symplectic_eigenvalues`` with every refusal decided before the spectrum.

    The full validation's eigenvalue floor runs first, then the same
    Cholesky kernel: the answer and every refusal, type and message, that
    ``symplectic_eigenvalues`` must reproduce.
    """
    V = validate_covariance(V)
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
    h = np.zeros(L.shape, dtype=complex)
    h.imag = lt_omega @ L
    return np.linalg.eigvalsh(h)[len(h) // 2 :]
