"""Gaussian states: constructors, beam splitter, measures, sampling, and I/O.

A Gaussian state is (mean, cov) with the conventions of :mod:`.symplectic`:
interleaved quadrature order and vacuum covariance equal to the identity.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import g
from .errors import (
    MixedStateError,
    NonPositiveDefiniteError,
    SchemaError,
    UnphysicalStateError,
)
from .symplectic import (
    Bipartition,
    _check_split,
    _is_count,
    _mode_pair,
    check_physicality,
    default_bipartition,
    partial_transpose,
    symplectic_eigenvalues,
    validate_covariance,
)
from .tolerances import TAU_PHYS

__all__ = [
    "GaussianState",
    "MeasureReport",
    "make_vacuum",
    "make_thermal",
    "make_squeezed",
    "make_tmsv",
    "tensor",
    "purity",
    "apply_beam_splitter",
    "qcs2_gaussian",
    "log_negativity_gaussian",
    "entanglement_entropy_gaussian",
    "gaussian_measures",
    "random_symplectic",
    "random_gaussian_state",
    "random_classical_state",
    "gaussian_to_dict",
    "gaussian_from_dict",
    "save_gaussian",
    "load_gaussian",
]


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector (length 2n) and covariance matrix (2n x 2n), both real and finite."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean)
        if mean.dtype.kind == "c":
            raise ValueError(f"mean vector must be real, got {mean.dtype}")
        mean = np.array(mean, dtype=float)
        cov = validate_covariance(self.cov)
        if mean.shape != (cov.shape[0],):
            raise ValueError(f"mean shape {mean.shape} does not match covariance {cov.shape}")
        if not all(map(math.isfinite, mean.tolist())):  # faster than np.isfinite on a short vector
            raise ValueError("mean vector has a non-finite entry")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self) -> int:
        return self.cov.shape[0] // 2


def make_vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance; n is an integer >= 1."""
    if not _is_count(n, 1):
        raise ValueError(f"mode count n must be an integer >= 1, got {n!r}")
    return GaussianState(np.zeros(2 * n), np.eye(2 * n))


# largest |x| for which exp(x) and cosh(x) are finite floats
_EXP_RANGE = math.log(sys.float_info.max)
_COSH_RANGE = math.acosh(sys.float_info.max)


def make_thermal(nbar) -> GaussianState:
    """Thermal state with mean photon number nbar per mode.

    ``nbar`` may be a scalar (one mode) or a sequence (one entry per mode);
    the covariance is diag(2 nbar_k + 1) on both quadratures of mode k.
    Each nbar_k must be >= 0 with 2 nbar_k + 1 finite, else ValueError.
    """
    nbar = np.atleast_1d(np.asarray(nbar, dtype=float))
    for k, x in enumerate(nbar.tolist()):
        if not (x >= 0.0 and math.isfinite(2.0 * x + 1.0)):  # NaN fails x >= 0
            raise ValueError(
                f"thermal occupation must be >= 0 with 2 nbar + 1 finite, got nbar {x!r} "
                f"for mode {k}"
            )
    diag = np.repeat(2.0 * nbar + 1.0, 2)
    return GaussianState(np.zeros(diag.size), np.diag(diag))


def make_squeezed(s: float, phi: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum with strength s and squeezing axis at angle phi.

    phi = 0 squeezes X (cov diag(e^{-2s}, e^{2s})); phi = pi/2 squeezes P.
    s must be finite with e^{|2s|} finite, and phi finite, else ValueError.
    """
    if not abs(2.0 * s) <= _EXP_RANGE:  # NaN fails too
        raise ValueError(f"squeezing s must be finite with |2s| <= {_EXP_RANGE!r}, got {s!r}")
    if not math.isfinite(phi):
        raise ValueError(f"squeezing angle phi must be finite, got {phi!r}")
    c, sn = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -sn], [sn, c]])
    V = rot @ np.diag([np.exp(-2.0 * s), np.exp(2.0 * s)]) @ rot.T
    return GaussianState(np.zeros(2), V)


def make_tmsv(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Block form: V_A = V_B = cosh(2r) I, cross block sinh(2r) diag(1, -1).
    r must be finite with cosh(2r) finite, else ValueError.
    """
    if not abs(2.0 * r) <= _COSH_RANGE:  # NaN fails too
        raise ValueError(f"squeezing r must be finite with |2r| <= {_COSH_RANGE!r}, got {r!r}")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    V = np.eye(4) * ch
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return GaussianState(np.zeros(4), V)


def tensor(*states: GaussianState) -> GaussianState:
    """Tensor product, concatenating modes in argument order."""
    mean = np.concatenate([st.mean for st in states])
    cov = np.zeros((mean.size, mean.size))
    k = 0
    for st in states:
        d = st.cov.shape[0]
        cov[k : k + d, k : k + d] = st.cov
        k += d
    return GaussianState(mean, cov)


def purity(st: GaussianState) -> float:
    """Tr rho^2 = 1 / sqrt(det V)."""
    sign, logdet = np.linalg.slogdet(st.cov)
    if sign <= 0:
        raise UnphysicalStateError("covariance has non-positive determinant")
    return float(np.exp(-0.5 * logdet))


def beam_splitter_symplectic(n: int, modes: tuple[int, int]) -> np.ndarray:
    """Symplectic matrix of the balanced beam splitter on a mode pair.

    Convention: quadratures of the first mode map to (R_i + R_j)/sqrt(2) and
    those of the second to (R_j - R_i)/sqrt(2).
    """
    i, j = _mode_pair(modes, n)
    M = np.eye(2 * n)
    inv = 1.0 / np.sqrt(2.0)
    for q in range(2):
        a, b = 2 * i + q, 2 * j + q
        M[a, a] = inv
        M[a, b] = inv
        M[b, b] = inv
        M[b, a] = -inv
    return M


def apply_beam_splitter(st: GaussianState, modes: tuple[int, int] = (0, 1)) -> GaussianState:
    """Balanced beam splitter acting on two modes of a Gaussian state."""
    M = beam_splitter_symplectic(st.n, modes)
    return GaussianState(M @ st.mean, M @ st.cov @ M.T)


def _inverse(V: np.ndarray) -> np.ndarray:
    """V^{-1}; a V that is singular to working precision raises a library error.

    Far past the squeezing envelope the positivity floor can pass while LU
    still meets an exact zero pivot.
    """
    try:
        return np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(
            f"covariance matrix is singular to working precision "
            f"(condition number of V {np.linalg.cond(V):.3e})"
        ) from exc


def qcs2_gaussian(st: GaussianState) -> float:
    """Squared quadrature coherence scale of a Gaussian state: Tr V^{-1} / (2n).

    For Gaussian states this equals the total phase-space Fisher information
    per mode; it exceeds 1 exactly for nonclassical Gaussian states.
    """
    return float(_inverse(st.cov).trace() / (2.0 * st.n))


def log_negativity_gaussian(st: GaussianState, bp: Bipartition) -> tuple[float, int]:
    """Logarithmic negativity of a Gaussian state across a bipartition.

    Returns
    -------
    (float, int)
        E_N = sum of -ln(nu) over partially transposed symplectic
        eigenvalues nu < 1, and the count n_minus of such eigenvalues.
    """
    nu = symplectic_eigenvalues(partial_transpose(st.cov, bp))
    below = nu < 1.0 - TAU_PHYS
    n_minus = int(np.count_nonzero(below))
    en = float(-np.log(nu[below]).sum()) if n_minus else 0.0
    return en, n_minus


def entanglement_entropy_gaussian(st: GaussianState, bp: Bipartition) -> float:
    """Entanglement entropy of a pure Gaussian state across a bipartition.

    E_F = sum_k g((nu_k - 1)/2) over the symplectic eigenvalues nu_k of the
    covariance restricted to party A's quadratures (Weedbrook et al., Rev.
    Mod. Phys. 84, 621 (2012)).  On the larger party the modes that share
    no entanglement have nu = 1 only up to rounding, so nu_k - 1 is clamped
    at 0.

    Raises
    ------
    MixedStateError
        If the largest symplectic eigenvalue of the full covariance exceeds
        1 + TAU_PHYS; E_F is then not the entanglement of the state.  The
        message quotes the condition number of V, since the spectrum's
        rounding error grows with it.
    """
    _check_split(bp, st.n)
    nu_max = float(symplectic_eigenvalues(st.cov)[-1])
    if nu_max > 1.0 + TAU_PHYS:
        raise MixedStateError(
            f"entanglement entropy needs a pure state; largest symplectic "
            f"eigenvalue {nu_max:.12g} exceeds 1 + {TAU_PHYS:.1e} "
            f"(condition number of V {np.linalg.cond(st.cov):.3e})"
        )
    nu_a = symplectic_eigenvalues(st.cov[: 2 * bp.n_a, : 2 * bp.n_a])
    return float(sum(g(max(nu - 1.0, 0.0) / 2.0) for nu in nu_a))


@dataclass(frozen=True)
class MeasureReport:
    """All Gaussian measures of one state across one bipartition."""

    qcs2: float
    ftot: float
    log_negativity: float
    n_minus: int
    symplectic_spectrum: tuple
    symplectic_spectrum_pt: tuple


def gaussian_measures(st: GaussianState, bp: Bipartition | None = None) -> MeasureReport:
    """Evaluate coherence scale, Fisher information, and log-negativity.

    With no bipartition the state takes :func:`default_bipartition`: the
    n//2 | n - n//2 split (2|3 at five modes), and no split at one mode,
    where the log-negativity is 0.
    """
    if bp is None:
        bp = default_bipartition(st.n)
    qcs2 = qcs2_gaussian(st)
    nu = symplectic_eigenvalues(st.cov)
    if not check_physicality(st.cov):
        raise UnphysicalStateError(
            f"min symplectic eigenvalue {nu[0]:.6g} < 1 "
            f"(condition number of V {np.linalg.cond(st.cov):.3e})"
        )
    if bp is None:
        en, nm, nu_pt = 0.0, 0, nu
    else:
        en, nm = log_negativity_gaussian(st, bp)
        nu_pt = symplectic_eigenvalues(partial_transpose(st.cov, bp))
    return MeasureReport(
        qcs2=qcs2,
        ftot=qcs2,
        log_negativity=en,
        n_minus=nm,
        symplectic_spectrum=tuple(nu.tolist()),
        symplectic_spectrum_pt=tuple(nu_pt.tolist()),
    )


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _orthogonal_symplectic(w: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic matrices from Gaussian draws w, shape (..., 2, n, n).

    One stacked QR of w[..., 0, :, :] + i w[..., 1, :, :] gives Haar unitaries
    U = A + iB; the 2x2 block for modes (i, j) is [[A_ij, -B_ij], [B_ij, A_ij]].
    """
    q, r = np.linalg.qr(w[..., 0, :, :] + 1j * w[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    n = u.shape[-1]
    O = np.zeros(u.shape[:-2] + (2 * n, 2 * n))
    O[..., 0::2, 0::2] = u.real
    O[..., 0::2, 1::2] = -u.imag
    O[..., 1::2, 0::2] = u.imag
    O[..., 1::2, 1::2] = u.real
    return O


def _euler_symplectic(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S = O1 diag(e^{-s_k}, e^{s_k}) O2 from draws w (..., 2, 2, n, n) and s (..., n).

    A stack equals its matrices built one at a time bit for bit as long as
    numpy hands each slice of a stacked QR and matmul to the same LAPACK and
    BLAS routine, with the same strides and workspace, as a lone matrix.
    That is numpy's behaviour, not its documented API; the tier-1 tests in
    tests/test_gaussian.py check it on the BLAS in use.
    """
    O = _orthogonal_symplectic(w)
    d = np.exp(s[..., None] * (-1.0, 1.0)).reshape(s.shape[:-1] + (2 * s.shape[-1],))
    return (O[..., 0, :, :] * d[..., None, :]) @ O[..., 1, :, :]


def _check_sampler(n, squeeze_max: float = 0.0, size=None) -> int:
    """Reject bad sampler arguments before any draw; return the number of states."""
    if not _is_count(n, 1):
        raise ValueError(f"mode count n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(squeeze_max) and squeeze_max >= 0.0):
        raise ValueError(f"squeeze_max must be finite and >= 0, got {squeeze_max!r}")
    if size is not None and not _is_count(size, 0):
        raise ValueError(f"size must be None or an integer >= 0, got {size!r}")
    return 1 if size is None else int(size)


def _states(V: np.ndarray, size):
    """One zero-mean GaussianState per stacked covariance; the lone state when size is None."""
    states = [GaussianState(np.zeros(V.shape[-1]), v) for v in V]
    return states[0] if size is None else states


def random_symplectic(n: int, rng=None, squeeze_max: float = 1.0) -> np.ndarray:
    """Random symplectic S = O1 diag(e^{-s_k}, e^{s_k}) O2, Euler form.

    O1 and O2 come from Haar unitaries; s_k is uniform on [0, squeeze_max].
    """
    _check_sampler(n, squeeze_max)
    rng = _as_rng(rng)
    w = rng.normal(size=(2, 2, n, n))
    return _euler_symplectic(w, rng.uniform(0.0, squeeze_max, size=n))


def random_gaussian_state(
    n: int,
    seed=None,
    purity_profile: str = "mixed",
    squeeze_max: float = 1.0,
    size: int | None = None,
):
    """Sample a random physical Gaussian state, or a list of ``size`` of them.

    V = S diag(nu) S^T with S from :func:`random_symplectic`'s Euler form.

    Parameters
    ----------
    n : int
        Mode count, at least 1.
    seed : int, Generator, or None
        Determinism contract: the same integer seed yields the same state
        bit for bit.
    purity_profile : {"mixed", "pure"}
        "pure" sets every symplectic eigenvalue to 1; "mixed" draws
        nu_k = 1 + Exponential(1).
    squeeze_max : float
        Squeezing magnitudes are drawn uniformly from [0, squeeze_max];
        it must be finite and >= 0.
    size : int or None
        None returns one GaussianState.  An integer k >= 0 returns a list of
        k states equal bit for bit to k calls in a row on the same
        generator: each state's variates are drawn in the single-call order
        (exponential, normal, uniform), then the k states are assembled as
        one stack.  The draws are always the same; the bit-for-bit equality
        of the assembled states rests on numpy calling the same LAPACK and
        BLAS routine for each slice of a stack as for a lone matrix (see
        :func:`_euler_symplectic`), which the tier-1 tests check.  If one
        of the states fails validation the call raises, with all k states'
        variates drawn.

    Raises
    ------
    ValueError
        For an unknown profile, or an n, squeeze_max or size out of range;
        these are checked before any draw.
    """
    count = _check_sampler(n, squeeze_max, size)
    if purity_profile not in ("mixed", "pure"):
        raise ValueError(f"unknown purity profile {purity_profile!r}")
    rng = _as_rng(seed)
    mixed = purity_profile == "mixed"
    nu = np.ones((count, n))
    w = np.empty((count, 2, 2, n, n))
    s = np.empty((count, n))
    for k in range(count):
        if mixed:
            nu[k] += rng.exponential(1.0, size=n)
        w[k] = rng.normal(size=(2, 2, n, n))
        s[k] = rng.uniform(0.0, squeeze_max, size=n)
    S = _euler_symplectic(w, s)
    return _states((S * np.repeat(nu, 2, axis=-1)[:, None, :]) @ S.swapaxes(-1, -2), size)


def random_classical_state(n: int, seed=None, size: int | None = None):
    """Random classical Gaussian state: V = identity + positive semidefinite noise.

    Such states have QCS^2 <= 1 and zero log-negativity across every split.
    ``size`` follows :func:`random_gaussian_state`: None gives one state, an
    integer k >= 0 a list of k states equal bit for bit to k calls in a row,
    as long as numpy's stacked A @ A^T calls the same BLAS routine for each
    slice as for a lone matrix (checked by the tier-1 tests).
    """
    count = _check_sampler(n, size=size)
    rng = _as_rng(seed)
    A = rng.normal(size=(count, 2 * n, 2 * n))
    return _states(np.eye(2 * n) + (A @ A.swapaxes(-1, -2)) / (2.0 * n), size)


def gaussian_to_dict(st: GaussianState) -> dict:
    return {"n": st.n, "mean": st.mean.tolist(), "cov": st.cov.tolist()}


def _numeric_array(data: dict, field: str) -> np.ndarray:
    """data[field] as a float array, refusing any entry that is not a JSON number.

    numpy alone would read true as 1.0 and "0.5" as 0.5, so each entry must
    be an int or a float, and not a bool (an int to isinstance).
    """
    value = data[field]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"field '{field}' is not numeric: {exc}") from exc
    # value is now a regular nesting of arr.ndim lists; a scalar is its own entry
    entries = value if arr.ndim else [value]
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        raise SchemaError(f"field '{field}' is not numeric")
    return arr


def gaussian_from_dict(data: dict) -> GaussianState:
    """Build a state from {"n", "mean", "cov"}, naming any offending field."""
    if not isinstance(data, dict):
        raise SchemaError("gaussian state file must hold a JSON object")
    for field in ("n", "mean", "cov"):
        if field not in data:
            raise SchemaError(f"missing field '{field}'")
    n = data["n"]
    if not _is_count(n, 1):
        raise SchemaError("field 'n' must be a positive integer")
    mean = _numeric_array(data, "mean")
    if mean.shape != (2 * n,):
        raise SchemaError(f"field 'mean' must have length {2 * n}, got shape {mean.shape}")
    if not np.all(np.isfinite(mean)):
        raise SchemaError("field 'mean' has a non-finite entry")
    cov = _numeric_array(data, "cov")
    if cov.shape != (2 * n, 2 * n):
        raise SchemaError(f"field 'cov' must be {2 * n} x {2 * n}, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise SchemaError("field 'cov' has a non-finite entry")
    try:
        return GaussianState(mean, cov)
    except ValueError as exc:
        raise SchemaError(f"field 'cov' invalid: {exc}") from exc


def save_gaussian(st: GaussianState, path) -> None:
    with open(path, "w") as fh:
        json.dump(gaussian_to_dict(st), fh, indent=1)
        fh.write("\n")


def load_gaussian(path) -> GaussianState:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return gaussian_from_dict(data)
