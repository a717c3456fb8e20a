"""Truncated Fock-space states, operators, measures, and special families.

Pure states live on a dense tensor of amplitudes indexed by per-mode photon
numbers; density operators are dense matrices over the flattened product
basis.  Constructors for analytic families track the probability mass lost
to truncation (``tail_mass``) and refuse cutoffs that leave more than the
requested tolerance in the tail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffOverflowError, SchemaError, TruncationError
from .symplectic import Bipartition
from .tolerances import TAU_TRUNC

__all__ = [
    "FockPureState",
    "FockDensityOperator",
    "make_fock_number",
    "make_fock_coherent",
    "make_fock_squeezed",
    "make_fock_tmsv",
    "make_fock_thermal",
    "pad_fock",
    "squeezed_cutoff",
    "tmsv_cutoff",
    "thermal_cutoff",
    "quadrature_moments",
    "total_noise",
    "mtn_pure",
    "schmidt_coefficients",
    "entanglement_entropy",
    "log_negativity_pure",
    "entanglement_measures_pure",
    "beam_splitter_block",
    "apply_beam_splitter_fock",
    "qcs2_fock",
    "saturating_family",
    "number_preserving_phases",
    "number_preserving_permutation",
    "make_counterexample_states",
    "fock_to_dict",
    "fock_from_dict",
    "save_fock",
    "load_fock",
]


# Largest dense amplitude tensor that the constructors taking their shape from
# user input (make_fock_number, fock_from_dict, make_counterexample_states)
# allocate: 256 MiB of complex128, about 4096^2 amplitudes.  A larger request
# raises CutoffOverflowError before it allocates, instead of a MemoryError or
# the OOM killer.
AMPLITUDE_BUDGET_BYTES = 2**28


def _check_budget(shape: tuple[int, ...], what: str):
    need = math.prod(shape) * np.dtype(complex).itemsize
    if need > AMPLITUDE_BUDGET_BYTES:
        est = f"{need:.3g}" if need < 1e300 else "over 1e300"
        raise CutoffOverflowError(
            f"{what}: amplitude tensor of shape {shape} needs {est} bytes, "
            f"over the budget of {AMPLITUDE_BUDGET_BYTES} bytes"
        )


def _check_tail_mass(tail_mass: float):
    if not math.isfinite(tail_mass):
        raise ValueError(f"tail_mass {tail_mass} is not finite")
    if tail_mass < -1e-12:
        raise ValueError("tail_mass must be >= 0")


@dataclass(frozen=True)
class FockPureState:
    """Dense amplitude tensor over per-mode photon-number cutoffs.

    ``amps[k1, ..., kn]`` is the amplitude of ``|k1, ..., kn>``; indices run
    to ``cutoffs[i] - 1``.  ``tail_mass`` is the probability mass of the
    untruncated state lying beyond the cutoffs, so ``norm^2 + tail_mass``
    is approximately 1 for states built from analytic families.
    """

    amps: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim < 1:
            raise ValueError("amplitude tensor needs at least one mode")
        if amps.size == 0:
            raise ValueError(f"amplitude tensor of shape {amps.shape} is empty")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not math.isfinite(norm2):
            raise ValueError("amplitude tensor has a non-finite entry")
        if norm2 > 1.0 + 1e-9:
            raise ValueError(f"squared norm {norm2:.12g} exceeds 1")
        _check_tail_mass(self.tail_mass)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "tail_mass", float(max(self.tail_mass, 0.0)))

    @property
    def n(self) -> int:
        return self.amps.ndim

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return self.amps.shape

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class FockDensityOperator:
    """Density matrix over the flattened product Fock basis."""

    mat: np.ndarray
    cutoffs: tuple[int, ...]
    tail_mass: float = 0.0

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        cutoffs = tuple(int(c) for c in self.cutoffs)
        dim = int(np.prod(cutoffs))
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoffs {cutoffs}")
        if dim == 0:
            raise ValueError(f"density matrix for cutoffs {cutoffs} is empty")
        _check_tail_mass(self.tail_mass)
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        # A NaN or infinite entry makes its own difference non-finite.
        if not math.isfinite(herm):
            raise ValueError("density matrix has a non-finite entry")
        if herm > 1e-10 * max(1.0, float(np.max(np.abs(mat)))):
            raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
        mat = 0.5 * (mat + mat.conj().T)
        tr = float(mat.trace().real)
        if tr > 1.0 + 1e-9:
            raise ValueError(f"trace {tr:.12g} exceeds 1")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "tail_mass", float(max(self.tail_mass, 0.0)))

    @property
    def n(self) -> int:
        return len(self.cutoffs)

    def trace(self) -> float:
        return float(self.mat.trace().real)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.mat) ** 2))

    @classmethod
    def from_pure(cls, psi: FockPureState) -> "FockDensityOperator":
        """|psi><psi| without the checks of __post_init__.

        psi is finite, non-empty and of squared norm <= 1, so the outer
        product is Hermitian, positive and of trace <= 1 by construction and
        needs no eigensolve.  Complex products round differently in the two
        triangles, so it is still symmetrized as __post_init__ would.
        """
        v = psi.amps.reshape(-1)
        mat = np.outer(v, v.conj())
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        object.__setattr__(rho, "cutoffs", psi.cutoffs)
        object.__setattr__(rho, "tail_mass", psi.tail_mass)
        return rho


# ---------------------------------------------------------------------------
# analytic families and their cutoffs


def _require_tail(tail: float, cutoff, tau: float, family: str):
    if tail > tau:
        raise TruncationError(
            f"{family}: tail mass {tail:.3e} at cutoff {cutoff} exceeds {tau:.1e}"
        )


def tmsv_cutoff(r: float, tau: float = TAU_TRUNC) -> int:
    """Smallest per-mode cutoff with two-mode squeezed tail mass <= tau.

    The tail after keeping levels 0..K-1 is exactly tanh(r)^{2K}.
    """
    t = abs(math.tanh(r))
    if t == 0.0:
        return 1
    return max(1, math.ceil(0.5 * math.log(tau) / math.log(t)))


def squeezed_cutoff(s: float, tau: float = TAU_TRUNC) -> int:
    """Smallest cutoff with single-mode squeezed-vacuum tail mass <= tau."""
    t2 = math.tanh(abs(s)) ** 2
    if t2 == 0.0:
        return 1
    term = 1.0 / math.cosh(s)  # |c_0|^2
    m = 0
    while term * t2 / (1.0 - t2) > 0.5 * tau and m < 100000:
        m += 1
        term *= t2 * (2 * m - 1) / (2 * m)
    return 2 * m + 2


def thermal_cutoff(nbar: float, tau: float = TAU_TRUNC) -> int:
    """Smallest cutoff with thermal tail mass <= tau: tail = (nbar/(1+nbar))^K."""
    if nbar <= 0.0:
        return 1
    q = nbar / (1.0 + nbar)
    return max(1, math.ceil(math.log(tau) / math.log(q)))


def make_fock_number(occupations, cutoffs=None) -> FockPureState:
    """Product number state |k1, ..., kn>.

    Default cutoffs accommodate a balanced beam splitter on any mode pair:
    every cutoff is total photons + 1.
    """
    occ = tuple(int(k) for k in occupations)
    if any(k < 0 for k in occ):
        raise ValueError("occupations must be >= 0")
    if cutoffs is None:
        cutoffs = (sum(occ) + 1,) * len(occ)
    cutoffs = tuple(int(c) for c in cutoffs)
    if any(k >= c for k, c in zip(occ, cutoffs)):
        raise ValueError(f"occupation {occ} outside cutoffs {cutoffs}")
    _check_budget(cutoffs, "number state")
    amps = np.zeros(cutoffs, dtype=complex)
    amps[occ] = 1.0
    return FockPureState(amps)


def pad_fock(psi: FockPureState, extra: int = 2) -> FockPureState:
    """Grow every mode cutoff by ``extra`` empty levels.

    Operators built from creation and annihilation act exactly on occupations
    at least two levels below the cutoff; padding restores that headroom for
    states populated right up to their boundary (number states in particular).
    """
    if extra < 0:
        raise ValueError("extra must be >= 0")
    if extra == 0:
        return psi
    amps = np.pad(psi.amps, [(0, extra)] * psi.n)
    return FockPureState(amps, psi.tail_mass)


def _poisson_tail(cutoff: int, x: float) -> float:
    """Poisson mass at levels >= cutoff for mean x (the regularized gamma P).

    The terms e^{-x} x^k / k! are summed in log space outward from the one
    next to the cutoff, so e^{-x} never underflows on its own: upward when
    cutoff > x, where each ratio x / (k + 1) is below 1, and otherwise as 1
    minus the levels below the cutoff summed downward, whose ratios k / x
    are at most 1.  In the second case the tail is at least about 1/2, so
    the subtraction loses nothing.
    """
    if cutoff <= 0:
        return 1.0
    if x == 0.0:
        return 0.0
    upper = cutoff > x
    k = cutoff if upper else cutoff - 1
    log_first = k * math.log(x) - x - math.lgamma(k + 1)
    total = term = 1.0
    while term > 1e-17 * total:
        if upper:
            k += 1
            term *= x / k
        elif k == 0:
            break
        else:
            term *= k / x
            k -= 1
        total += term
    mass = math.exp(log_first + math.log(total))
    return mass if upper else 1.0 - mass


def make_fock_coherent(alpha: complex, cutoff: int = None, tau: float = TAU_TRUNC) -> FockPureState:
    """Single-mode coherent state with amplitude alpha."""
    # The Poisson tail at the cutoff is the recorded tail: 1 - sum |c_k|^2
    # carries rounding of order 1e-12 at |alpha|^2 ~ 400, enough to reject
    # a cutoff that meets tau = 1e-12.  Cutoff 0 keeps the whole mass.
    x = abs(alpha) ** 2
    if cutoff is None:
        cutoff = 8
        while _poisson_tail(cutoff, x) > tau:
            cutoff *= 2
    k = np.arange(cutoff)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(cutoff)])
    logs = -0.5 * x + k * np.log(np.abs(alpha)) - 0.5 * log_fact \
        if alpha != 0 else np.where(k == 0, 0.0, -np.inf)
    phase = np.exp(1j * np.angle(alpha) * k) if alpha != 0 else np.ones(cutoff)
    amps = np.exp(logs) * phase
    tail = _poisson_tail(cutoff, x)
    _require_tail(tail, cutoff, tau, "coherent")
    return FockPureState(amps, tail)


def make_fock_squeezed(
    s: float, phi: float = 0.0, cutoff: int = None, tau: float = TAU_TRUNC
) -> FockPureState:
    """Single-mode squeezed vacuum, axis at angle phi (phi = 0 squeezes X).

    Amplitudes c_{2m} = (-e^{2 i phi} tanh s)^m sqrt((2m)!) / (2^m m!) /
    sqrt(cosh s); odd levels vanish.
    """
    if cutoff is None:
        cutoff = squeezed_cutoff(s, tau)
    t = math.tanh(s)
    amps = np.zeros(cutoff, dtype=complex)
    base = 1.0 / math.sqrt(math.cosh(s))
    factor = -np.exp(2j * phi) * t
    for m in range(0, (cutoff - 1) // 2 + 1):
        ln = 0.5 * math.lgamma(2 * m + 1) - math.lgamma(m + 1) - m * math.log(2.0)
        amps[2 * m] = base * math.exp(ln) * factor**m
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _require_tail(tail, cutoff, tau, "squeezed")
    return FockPureState(amps, tail)


def make_fock_tmsv(r: float, cutoff: int = None, tau: float = TAU_TRUNC) -> FockPureState:
    """Two-mode squeezed vacuum: amplitudes tanh(r)^k / cosh(r) on |k, k>."""
    if cutoff is None:
        cutoff = tmsv_cutoff(r, tau)
    t, ch = math.tanh(r), math.cosh(r)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[np.arange(cutoff), np.arange(cutoff)] = t ** np.arange(cutoff) / ch
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _require_tail(tail, cutoff, tau, "tmsv")
    return FockPureState(amps, tail)


def make_fock_thermal(nbar: float, cutoff: int = None, tau: float = TAU_TRUNC) -> FockDensityOperator:
    """Single-mode thermal density operator with mean occupation nbar."""
    if cutoff is None:
        cutoff = thermal_cutoff(nbar, tau)
    if nbar == 0.0:
        p = np.zeros(cutoff)
        p[0] = 1.0
    else:
        k = np.arange(cutoff)
        p = np.exp(k * math.log(nbar) - (k + 1) * math.log(1.0 + nbar))
    tail = max(0.0, 1.0 - float(p.sum()))
    _require_tail(tail, cutoff, tau, "thermal")
    return FockDensityOperator(np.diag(p.astype(complex)), (cutoff,), tail)


# ---------------------------------------------------------------------------
# moments and measures


def _ladder(t: np.ndarray, axis: int, create: bool = False) -> np.ndarray:
    """Apply one mode's annihilation (or creation) operator along a tensor axis.

    The axis indexes that mode's photon number k: a|k> = sqrt(k)|k-1> and
    a^dag|k> = sqrt(k+1)|k+1>, the level a^dag pushes past the cutoff dropped.
    """
    d = t.shape[axis]
    shape = [1] * t.ndim
    shape[axis] = d - 1
    w = np.sqrt(np.arange(1, d)).reshape(shape)
    low = (slice(None),) * axis + (slice(0, d - 1),)
    high = (slice(None),) * axis + (slice(1, d),)
    out = np.zeros_like(t)
    if create:
        np.multiply(w, t[low], out=out[high])
    else:
        np.multiply(w, t[high], out=out[low])
    return out


def _check_tail(psi: FockPureState, tau: float):
    if psi.tail_mass > tau:
        raise TruncationError(
            f"state tail mass {psi.tail_mass:.3e} exceeds {tau:.1e}; increase cutoffs"
        )


def quadrature_moments(psi: FockPureState) -> tuple[np.ndarray, np.ndarray]:
    """Mean quadrature vector and covariance matrix of a pure Fock state.

    Returns (mean, V) in the conventions of :mod:`.symplectic`, computed
    from first and second ladder moments.
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


def _total_noise(psi: FockPureState) -> float:
    """Tr V / 2 from the quadrature moments, with no tail check."""
    _, V = quadrature_moments(psi)
    return float(0.5 * np.trace(V))


def total_noise(psi: FockPureState, tau: float = TAU_TRUNC) -> float:
    """Sum of the variances of all 2n quadratures.

    For states with zero mean this equals 2 <N> + n.
    """
    _check_tail(psi, tau)
    return _total_noise(psi)


def mtn_pure(psi: FockPureState, tau: float = TAU_TRUNC) -> float:
    """Total noise per mode after centering; equals 1 exactly for coherent states."""
    return total_noise(psi, tau) / psi.n


def _split_dims(psi: FockPureState, bp: Bipartition) -> tuple[int, int]:
    if bp.n != psi.n:
        raise ValueError(f"state has {psi.n} modes, bipartition {bp.n}")
    da = int(np.prod(psi.cutoffs[: bp.n_a]))
    db = int(np.prod(psi.cutoffs[bp.n_a :]))
    return da, db


def schmidt_coefficients(psi: FockPureState, bp: Bipartition) -> np.ndarray:
    """Singular values of the amplitude tensor reshaped across the bipartition."""
    da, db = _split_dims(psi, bp)
    return np.linalg.svd(psi.amps.reshape(da, db), compute_uv=False)


def _entropy_of(s: np.ndarray) -> float:
    s2 = s**2
    s2 = s2[s2 > 1e-30]
    return float(max(-np.sum(s2 * np.log(s2)), 0.0) + 0.0)


def _log_negativity_of(s: np.ndarray) -> float:
    return float(max(2.0 * np.log(np.sum(s)), 0.0) + 0.0)


def entanglement_entropy(psi: FockPureState, bp: Bipartition, tau: float = TAU_TRUNC) -> float:
    """Entropy of entanglement: -sum sigma^2 ln sigma^2 over Schmidt values."""
    _check_tail(psi, tau)
    return _entropy_of(schmidt_coefficients(psi, bp))


def log_negativity_pure(psi: FockPureState, bp: Bipartition, tau: float = TAU_TRUNC) -> float:
    """Logarithmic negativity of a pure state: 2 ln(sum of Schmidt values)."""
    _check_tail(psi, tau)
    return _log_negativity_of(schmidt_coefficients(psi, bp))


def entanglement_measures_pure(
    psi: FockPureState, bp: Bipartition, tau: float = TAU_TRUNC
) -> tuple[float, float]:
    """(E_F, E_N) of a pure state from one Schmidt decomposition.

    Equal to (entanglement_entropy, log_negativity_pure) bit for bit.
    """
    _check_tail(psi, tau)
    s = schmidt_coefficients(psi, bp)
    return _entropy_of(s), _log_negativity_of(s)


# ---------------------------------------------------------------------------
# balanced beam splitter


@lru_cache(maxsize=None)
def beam_splitter_block(M: int) -> np.ndarray:
    """Balanced beam splitter on the total-photon-M subspace, basis |m, M-m>.

    The generator (pi/4)(a1^dag a2 - a1 a2^dag) restricted to the block is a
    real antisymmetric tridiagonal matrix; conjugating by diag(i^m) turns it
    into a real symmetric tridiagonal eigenproblem, giving the exact
    rotation matrix elements to machine precision.  The column for input
    |N, 0> reproduces the binomial amplitude law sqrt(C(N, m) 2^{-N}).
    """
    m = np.arange(M)
    alpha = (math.pi / 4.0) * np.sqrt((m + 1.0) * (M - m))
    lam, Q = np.linalg.eigh(np.diag(alpha, 1) + np.diag(alpha, -1))
    D = (1j) ** np.arange(M + 1)
    U = (np.conj(D)[:, None] * Q) @ (np.exp(1j * lam)[:, None] * (Q.T * D[None, :]))
    out = U.real
    out.setflags(write=False)
    return out


def apply_beam_splitter_fock(
    psi: FockPureState, modes: tuple[int, int] = (0, 1), tau: float = TAU_TRUNC
) -> FockPureState:
    """Balanced beam splitter on a mode pair of a Fock state.

    Acts blockwise on each total-photon subspace of the pair.  The beam
    splitter conserves the pair's photon number, so only the blocks holding
    a nonzero amplitude are visited: a number state fills one.  A populated
    block that does not fit inside both cutoffs raises CutoffOverflowError;
    blocks carrying mass <= tau beyond the cutoffs are dropped into
    tail_mass instead.
    """
    i, j = modes
    if i == j or not (0 <= i < psi.n and 0 <= j < psi.n):
        raise ValueError(f"mode pair {modes} invalid for {psi.n} modes")
    di, dj = psi.cutoffs[i], psi.cutoffs[j]
    work = np.moveaxis(psi.amps, (i, j), (0, 1))
    batch = work.reshape(di, dj, -1)
    out = np.zeros_like(batch)
    fits = min(di, dj) - 1
    dropped = 0.0
    totals = np.add.outer(np.arange(di), np.arange(dj))
    occupied = np.bincount(totals[np.any(batch != 0, axis=2)])
    for M in np.flatnonzero(occupied).tolist():
        ks = np.arange(max(0, M - dj + 1), min(di - 1, M) + 1)
        vec = batch[ks, M - ks, :]
        mass = float(np.sum(np.abs(vec) ** 2))
        if mass == 0.0:
            continue
        if M > fits:
            if mass > tau:
                raise CutoffOverflowError(
                    f"total-photon block {M} holds mass {mass:.3e} but cutoffs "
                    f"({di}, {dj}) only fit blocks up to {fits}"
                )
            dropped += mass
            continue
        out[ks, M - ks, :] = beam_splitter_block(M) @ vec
    result = np.moveaxis(out.reshape(work.shape), (0, 1), (i, j))
    return FockPureState(result, psi.tail_mass + dropped)


# ---------------------------------------------------------------------------
# coherence scale: moments of pure states, commutators of density operators


def qcs2_fock(state: FockPureState | FockDensityOperator) -> float:
    """Squared quadrature coherence scale C^2 of a pure state or density operator.

    On a pure state C^2 is the mean total noise M_TN = Tr V / (2n) (De
    Bievre et al., Phys. Rev. Lett. 122, 080402 (2019)), read from the
    quadrature moments: exact for the truncated state without padding, and
    equal to mtn_pure bit for bit.  A density operator takes the commutator
    route, C^2 = sum_j Tr([rho, R_j][R_j, rho]) / (2 n Tr rho^2) over the 2n
    quadratures.  With X and P built from the truncated ladder operator a_j,
    the two terms of mode j sum to 2 ||[rho, a_j]||_F^2, so exactly

        C^2 = sum_j ||rho a_j - a_j rho||_F^2 / (n Tr rho^2).

    On ``rho.mat`` reshaped to ``cutoffs + cutoffs``, a_j rho lowers row axis
    j and rho a_j raises column axis n + j (a_j^T = a_j^dag), so the cost is
    O(n D^2) in the dimension D.  The truncated a_j^dag drops the level above
    each cutoff, so pad an operator populated up to its boundary first (see
    pad_fock).  Neither route checks the tail mass.
    """
    if isinstance(state, FockPureState):
        return _total_noise(state) / state.n
    n = state.n
    t = state.mat.reshape(state.cutoffs + state.cutoffs)
    acc = 0.0
    for j in range(n):
        comm = _ladder(t, n + j, create=True)
        comm -= _ladder(t, j)
        acc += float(np.vdot(comm, comm).real)
    return acc / (n * state.purity())


# ---------------------------------------------------------------------------
# structured entangled families


def _basis_totals(n_modes: int, cutoff: int) -> np.ndarray:
    """Total photon number of each flattened product-basis index."""
    idx = np.indices((cutoff,) * n_modes).reshape(n_modes, -1)
    return idx.sum(axis=0)


def number_preserving_phases(cutoff: int, n_modes: int, rng) -> np.ndarray:
    """Diagonal unitary e^{i phi_K} acting per total photon number K.

    The phases phi_K are drawn uniformly from [0, 2 pi).
    """
    totals = _basis_totals(n_modes, cutoff)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=int(totals.max()) + 1)
    return np.diag(np.exp(1j * phi[totals]))


def number_preserving_permutation(cutoff: int, n_modes: int, rng) -> np.ndarray:
    """Random permutation matrix mixing basis states within each total-photon block."""
    totals = _basis_totals(n_modes, cutoff)
    dim = totals.size
    perm = np.arange(dim)
    for K in range(int(totals.max()) + 1):
        block = np.flatnonzero(totals == K)
        perm[block] = block[rng.permutation(block.size)]
    U = np.zeros((dim, dim))
    U[perm, np.arange(dim)] = 1.0
    return U


def _check_number_preserving(U: np.ndarray, totals: np.ndarray, label: str):
    dim = totals.size
    if U.shape != (dim, dim):
        raise ValueError(f"{label} must be {dim} x {dim}, got {U.shape}")
    if float(np.max(np.abs(U.conj().T @ U - np.eye(dim)))) > 1e-10:
        raise ValueError(f"{label} is not unitary")
    mask = totals[:, None] != totals[None, :]
    leak = float(np.max(np.abs(U[mask]))) if mask.any() else 0.0
    if leak > 1e-12:
        raise ValueError(f"{label} mixes total-photon sectors (leak {leak:.3e})")


def saturating_family(
    n: int,
    r: float,
    cutoff: int = None,
    u_a: np.ndarray = None,
    u_b: np.ndarray = None,
    tau: float = TAU_TRUNC,
) -> FockPureState:
    """Pure n-mode states saturating the symmetric entanglement vs noise bound.

    With n = 2 n_A modes split evenly, amplitudes are (U_A D^{1/2} U_B)_{k, l}
    over A and B multi-indices, where D is the thermal weight
    (1 - t^2)^{n_A} t^{2 |k|} with t = tanh r, and U_A, U_B are unitaries
    preserving total photon number (validated).  For any such choice the
    state is centered, has M_TN = cosh 2r, and entanglement entropy
    n_A g(sinh^2 r), saturating the bound.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    n_a = n // 2
    t = math.tanh(r)
    if cutoff is None:
        if t == 0.0:
            cutoff = 1
        else:
            cutoff = max(1, math.ceil(0.5 * math.log(tau / n_a) / math.log(t)))
    totals = _basis_totals(n_a, cutoff)
    weights = (1.0 - t * t) ** n_a * t ** (2.0 * totals.astype(float))
    C = np.diag(np.sqrt(weights)).astype(complex)
    if u_a is not None:
        u_a = np.asarray(u_a, dtype=complex)
        _check_number_preserving(u_a, totals, "u_a")
        C = u_a @ C
    if u_b is not None:
        u_b = np.asarray(u_b, dtype=complex)
        _check_number_preserving(u_b, totals, "u_b")
        C = C @ u_b
    tail = max(0.0, 1.0 - float(weights.sum()))
    _require_tail(tail, cutoff, tau, "saturating family")
    amps = C.reshape((cutoff,) * n_a + (cutoff,) * n_a)
    return FockPureState(amps, tail)


def make_counterexample_states(
    q: float, k: int, cutoff: int = None, tau: float = TAU_TRUNC
) -> tuple[FockPureState, FockPureState]:
    """Three-mode pair showing entanglement is not monotone in total noise.

    The base state on modes (A, B1, B2) is sqrt(1-q) sum_m q^{m/2} |m; m, 0>.
    The partner applies a local permutation on B swapping |k, 0> with |0, 1>,
    which for k >= 2 lowers the mean photon number by (1-q) q^k (k-1) while
    leaving the entanglement across A | B unchanged.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if k < 2:
        raise ValueError("k must be >= 2 so the permutation lowers the photon number")
    if cutoff is None:
        cutoff = max(k + 2, math.ceil(math.log(tau) / math.log(q)))
    if k >= cutoff:
        raise ValueError(f"k = {k} outside cutoff {cutoff}")
    _check_budget((cutoff, cutoff, 2), "counterexample")
    m = np.arange(cutoff)
    coeff = np.sqrt((1.0 - q) * q**m.astype(float))
    base = np.zeros((cutoff, cutoff, 2), dtype=complex)
    base[m, m, 0] = coeff
    tail = max(0.0, 1.0 - float(np.sum(coeff**2)))
    _require_tail(tail, cutoff, tau, "counterexample")
    permuted = base.copy()
    permuted[k, k, 0] = 0.0
    permuted[k, 0, 1] = coeff[k]
    return FockPureState(base, tail), FockPureState(permuted, tail)


# ---------------------------------------------------------------------------
# serialization


def fock_to_dict(psi: FockPureState) -> dict:
    entries = []
    it = np.nditer(psi.amps, flags=["multi_index"])
    for val in it:
        z = complex(val)
        if z != 0.0:
            entries.append([*it.multi_index, z.real, z.imag])
    return {
        "n": psi.n,
        "cutoffs": list(psi.cutoffs),
        "amps": entries,
        "tail_mass": psi.tail_mass,
    }


def fock_from_dict(data: dict) -> FockPureState:
    """Build a state from {"n", "cutoffs", "amps"}, naming any offending field."""
    if not isinstance(data, dict):
        raise SchemaError("fock state file must hold a JSON object")
    for field in ("n", "cutoffs", "amps"):
        if field not in data:
            raise SchemaError(f"missing field '{field}'")
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("field 'n' must be a positive integer")
    cutoffs = data["cutoffs"]
    if (
        not isinstance(cutoffs, list)
        or len(cutoffs) != n
        or not all(isinstance(c, int) and c >= 1 for c in cutoffs)
    ):
        raise SchemaError(f"field 'cutoffs' must list {n} positive integers")
    _check_budget(tuple(cutoffs), "fock state file")
    amps = np.zeros(tuple(cutoffs), dtype=complex)
    rows = data["amps"]
    if not isinstance(rows, list):
        raise SchemaError("field 'amps' must be a list of [indices..., re, im] rows")
    for rownum, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 2:
            raise SchemaError(f"field 'amps' row {rownum} must have {n + 2} entries")
        idx = row[:n]
        if not all(isinstance(x, int) and 0 <= x < c for x, c in zip(idx, cutoffs)):
            raise SchemaError(f"field 'amps' row {rownum} has indices outside cutoffs")
        try:
            re, im = float(row[n]), float(row[n + 1])
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"field 'amps' row {rownum} has non-numeric amplitude")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SchemaError(f"field 'amps' row {rownum} has a non-finite amplitude")
        amps[tuple(idx)] = complex(re, im)
    tail = data.get("tail_mass", 0.0)
    try:
        tail = float(tail) if isinstance(tail, (int, float)) else math.nan
    except OverflowError:
        tail = math.inf
    if not 0.0 <= tail < math.inf:
        raise SchemaError("field 'tail_mass' must be a finite nonnegative number")
    return FockPureState(amps, tail)


def save_fock(psi: FockPureState, path) -> None:
    with open(path, "w") as fh:
        json.dump(fock_to_dict(psi), fh)
        fh.write("\n")


def load_fock(path) -> FockPureState:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return fock_from_dict(data)
