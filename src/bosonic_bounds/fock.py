"""Truncated Fock-space states, operators, measures, and special families.

Pure states live on a dense tensor of amplitudes indexed by per-mode photon
numbers; density operators are dense matrices over the flattened product
basis.  Each analytic family has one tail law, the mass a cutoff K drops,
and one rule (``_family_cutoff``) reads it: the default cutoff is the
smallest K whose tail is <= tau, searched up to the byte budget, and any
cutoff must fit the budget and meet tau.  The state records the law's tail;
the squeezed vacuum's law is only a bound that picks the default, so it
records and checks 1 - sum |c_k|^2.  Past the rule's edges errors are typed.
A number state is stored at cutoffs k_i + 1; the beam splitter widens
the cutoffs it needs itself, so it drops nothing and keeps the input's tail.

Every measure is exact for the state as stored, with no padding, and
checks no tail (the constructors and FockPureState.check_tail do).  C^2
of a density operator adds back what the truncated ladder drops at the
top level, and the Schmidt measures never leave the stored tensor.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import CutoffOverflowError, SchemaError, TruncationError
from .symplectic import Bipartition, _check_split, _is_count, _mode_pair
from .tolerances import TAU_NORM, TAU_TRUNC

__all__ = [
    "FockPureState",
    "FockDensityOperator",
    "make_fock_number",
    "make_fock_coherent",
    "make_fock_squeezed",
    "make_fock_tmsv",
    "make_fock_thermal",
    "squeezed_cutoff",
    "tmsv_cutoff",
    "thermal_cutoff",
    "total_noise",
    "mtn_pure",
    "schmidt_coefficients",
    "entanglement_entropy",
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


# Largest dense complex tensor a constructor allocates: 256 MiB of complex128,
# about 4096^2 amplitudes.  Every constructor (the analytic families, number
# states, fock_from_dict, density operators, the beam splitter's output) checks
# its shape and raises CutoffOverflowError before it allocates more, not a
# MemoryError or OOM kill.
AMPLITUDE_BUDGET_BYTES = 2**28


def _nbytes(shape: tuple[int, ...]) -> int:
    return math.prod(shape) * np.dtype(complex).itemsize


def _check_budget(shape: tuple[int, ...], what: str):
    need = _nbytes(shape)
    if need > AMPLITUDE_BUDGET_BYTES:
        est = f"{need:.3g}" if need < 1e300 else "over 1e300"
        raise CutoffOverflowError(
            f"{what}: amplitude tensor of shape {shape} needs {est} bytes, "
            f"over the budget of {AMPLITUDE_BUDGET_BYTES} bytes"
        )


def _check_mass(mass: float, tail_mass: float, what: str) -> float:
    """Refuse a stored probability (squared norm or trace) over 1, a tail_mass
    that is not finite and >= 0, or the two together off 1 by over TAU_NORM;
    return the tail_mass to store, at least 0.0 (never -0.0)."""
    if mass > 1.0 + 1e-9:
        raise ValueError(f"{what} {mass:.12g} exceeds 1")
    if not math.isfinite(tail_mass):
        raise ValueError(f"tail_mass {tail_mass} is not finite")
    if tail_mass < -1e-12:
        raise ValueError("tail_mass must be >= 0")
    if mass + tail_mass < 1.0 - TAU_NORM:
        raise ValueError(
            f"{what} {mass:.12g} plus tail_mass {tail_mass:.3g} is below 1 - {TAU_NORM:g}"
        )
    if mass + tail_mass > 1.0 + TAU_NORM:
        raise ValueError(
            f"{what} {mass:.12g} plus tail_mass {tail_mass:.3g} exceeds 1 + {TAU_NORM:g}"
        )
    return float(max(0.0, tail_mass))  # 0.0 first: max keeps it over an equal -0.0


@dataclass(frozen=True)
class FockPureState:
    """Dense amplitude tensor over per-mode photon-number cutoffs.

    ``amps[k1, ..., kn]`` is the amplitude of ``|k1, ..., kn>``; indices run
    to ``cutoffs[i] - 1``.  ``tail_mass`` is the probability mass of the
    untruncated state lying beyond the cutoffs: ``norm^2 <= 1`` and
    ``|norm^2 + tail_mass - 1| <= TAU_NORM``.
    """

    amps: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim < 1:
            raise ValueError("amplitude tensor needs at least one mode")
        if amps.size == 0:
            raise ValueError(f"amplitude tensor of shape {amps.shape} is empty")
        norm2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm2):
            raise ValueError("amplitude tensor has a non-finite entry")
        tail_mass = _check_mass(norm2, self.tail_mass, "squared norm")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "tail_mass", tail_mass)

    @property
    def n(self) -> int:
        return self.amps.ndim

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return self.amps.shape

    def norm2(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def check_tail(self, tau: float):
        """Raise TruncationError if tail_mass exceeds tau: the check where a state is read."""
        _check_tail(self.tail_mass, self.cutoffs, tau, "state")


@dataclass(frozen=True)
class FockDensityOperator:
    """Density matrix over the flattened product Fock basis; D x D must fit the byte budget.

    Like a pure state's squared norm, ``trace <= 1`` and ``|trace + tail_mass - 1| <= TAU_NORM``.
    """

    mat: np.ndarray
    cutoffs: tuple[int, ...]
    tail_mass: float = 0.0

    def __post_init__(self):
        cutoffs = _integers(self.cutoffs, "cutoffs", "density operator")
        dim = math.prod(cutoffs)
        _check_budget((dim, dim), "density operator")
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoffs {cutoffs}")
        if dim == 0:
            raise ValueError(f"density matrix for cutoffs {cutoffs} is empty")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        # A NaN or infinite entry makes its own difference non-finite.
        if not math.isfinite(herm):
            raise ValueError("density matrix has a non-finite entry")
        if herm > 1e-10 * max(1.0, float(np.max(np.abs(mat)))):
            raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
        mat = 0.5 * (mat + mat.conj().T)
        tail_mass = _check_mass(float(mat.trace().real), self.tail_mass, "trace")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "tail_mass", tail_mass)

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
        _check_budget((v.size, v.size), "density operator")
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


def _check_finite(value, name: str, what: str):
    if not cmath.isfinite(value):
        raise ValueError(f"{what}: {name} = {value!r} is not finite")


def _check_tail(tail: float, cutoff, tau: float, what: str):
    if not tail <= tau:  # a NaN tail is refused too
        raise TruncationError(
            f"{what}: tail mass {tail:.3e} at cutoff {cutoff} exceeds {tau:.1e}; increase cutoffs"
        )


def _sech(x: float) -> float:
    """1 / cosh x without overflow: math.cosh overflows past |x| ~ 710.5,
    and from |x| = 700 on sech x is 2 e^{-|x|} to the last bit."""
    x = abs(x)
    return 1.0 / math.cosh(x) if x < 700.0 else 2.0 * math.exp(-x)


def _family_cutoff(what, law, shape, cutoff, tau, first=1, bisect=True, bound=False):
    """(cutoff, tail) of an analytic family, the cutoff given or chosen.

    ``law(K)`` is the tail at cutoff K, non-increasing from ``first`` on,
    with limit ``law(math.inf)``; ``shape(K)`` is the tensor.  The default
    is the smallest K >= first whose tail meets tau, by doubling, then
    bisection (``bisect=False`` keeps the doubling's K), and raises at the
    first K over AMPLITUDE_BUDGET_BYTES.  A law that only bounds the tail
    (``bound=True``) returns no tail: the caller checks the one it records.
    """
    if not tau >= 0.0:  # NaN too
        raise ValueError(f"{what}: tau = {tau!r} must be >= 0")
    if cutoff is None:
        if not law(math.inf) < 1.0:
            raise CutoffOverflowError(f"{what}: no finite cutoff: the tail does not fall below 1")

        def done(K):  # monotone: over the budget, or the tail meets tau
            return _nbytes(shape(K)) > AMPLITUDE_BUDGET_BYTES or law(K) <= tau

        lo, cutoff = first - 1, first
        while not done(cutoff):
            lo, cutoff = cutoff, 2 * cutoff
        while bisect and cutoff - lo > 1:
            mid = (lo + cutoff) // 2
            lo, cutoff = (lo, mid) if done(mid) else (mid, cutoff)
        what = f"{what}: default cutoff for tau = {tau:.1e}"
    elif not _is_count(cutoff, 0):
        raise ValueError(f"{what}: cutoff = {cutoff!r} must be an integer >= 0")
    _check_budget(shape(cutoff), what)
    if bound:  # the caller checks the tail it records
        return cutoff, None
    tail = law(cutoff)
    _check_tail(tail, cutoff, tau, what)
    return cutoff, tail


def _tmsv_cutoff(r, cutoff, tau):
    _check_finite(r, "r", "tmsv")
    t = math.tanh(r)
    return _family_cutoff("tmsv", lambda K: (t * t) ** K, lambda K: (K, K), cutoff, tau)


def _squeezed_bound(K, s: float) -> float:
    """Twice B_m = |c_2m|^2 t^2 / (1 - t^2), t = tanh s, at cutoff K = 2m + 2: a bound,
    falling with m, on the squeezed vacuum's tail, which has no closed form."""
    t2 = math.tanh(abs(s)) ** 2
    if t2 in (0.0, 1.0) or K == math.inf:  # tanh s rounds to 1 from s ~ 19.1
        return float(t2 == 1.0)
    m = K // 2 - 1
    return 2.0 * math.exp(
        math.lgamma(2 * m + 1) - 2.0 * math.lgamma(m + 1) - 2 * m * math.log(2.0)
        + (m + 1) * math.log(t2) - math.log1p(-t2) - math.log(math.cosh(s))
    )


def _squeezed_cutoff(s, cutoff, tau):
    _check_finite(s, "s", "squeezed")
    law, first = partial(_squeezed_bound, s=s), 2 if math.tanh(s) ** 2 else 1
    return _family_cutoff("squeezed", law, lambda K: (K,), cutoff, tau, first=first, bound=True)


def _thermal_cutoff(nbar, cutoff, tau):
    _check_finite(nbar, "nbar", "thermal")
    if nbar < 0.0:
        raise ValueError("thermal occupation must be >= 0")
    q = nbar / (1.0 + nbar)
    return _family_cutoff("thermal", lambda K: q**K, lambda K: (K, K), cutoff, tau)


def tmsv_cutoff(r: float, tau: float = TAU_TRUNC) -> int:
    """Smallest per-mode cutoff whose two-mode squeezed tail tanh(r)^{2K} is <= tau."""
    return _tmsv_cutoff(r, None, tau)[0]


def squeezed_cutoff(s: float, tau: float = TAU_TRUNC) -> int:
    """Smallest even cutoff 2m + 2 whose squeezed-vacuum tail bound is <= tau / 2 (1 at s = 0)."""
    return _squeezed_cutoff(s, None, tau)[0]


def thermal_cutoff(nbar: float, tau: float = TAU_TRUNC) -> int:
    """Smallest cutoff with thermal tail (nbar/(1+nbar))^K <= tau."""
    return _thermal_cutoff(nbar, None, tau)[0]


def make_fock_number(occupations, cutoffs=None) -> FockPureState:
    """Product number state |k1, ..., kn>; the default cutoffs are k_i + 1.

    Occupations and cutoffs must be integers >= 0 (Python or numpy, not
    bools); the beam splitter widens the cutoffs it needs itself.
    """
    occ = _integers(occupations, "occupations")
    cutoffs = tuple(k + 1 for k in occ) if cutoffs is None else _integers(cutoffs, "cutoffs")
    if len(cutoffs) != len(occ):
        raise ValueError(f"cutoffs has {len(cutoffs)} entries for {len(occ)} modes")
    if any(k >= c for k, c in zip(occ, cutoffs)):
        raise ValueError(f"occupation {occ} outside cutoffs {cutoffs}")
    _check_budget(cutoffs, "number state")
    amps = np.zeros(cutoffs, dtype=complex)
    amps[occ] = 1.0
    return FockPureState(amps)


def _integers(values, name: str, what: str = "number state") -> tuple[int, ...]:
    values = tuple(values)
    for v in values:
        if not _is_count(v, 0):
            raise ValueError(f"{what}: {name} entry {v!r} is not an integer >= 0")
    return tuple(int(v) for v in values)


def _poisson_tail(cutoff: int, x: float) -> float:
    """Poisson mass at levels >= cutoff for mean x (the regularized gamma P).

    The terms e^{-x} x^k / k! are summed in log space outward from the one
    next to the cutoff, so e^{-x} never underflows on its own: upward when
    cutoff > x, where each ratio x / (k + 1) is below 1, and otherwise as 1
    minus the levels below the cutoff summed downward, whose ratios k / x
    are at most 1.  In the second case the tail is at least about 1/2, so
    the subtraction loses nothing.  An infinite cutoff gives the limit.
    """
    if cutoff <= 0:
        return 1.0
    if x == 0.0 or cutoff == math.inf:
        return float(x == math.inf)
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
    """Single-mode coherent state with amplitude alpha; default cutoff up to |alpha| = 4092."""
    # The default is the first of 8, 16, 32, ... to meet tau.  The Poisson tail is recorded:
    # 1 - sum |c_k|^2 rounds by ~1e-12 at |alpha|^2 ~ 400, enough to fail tau = 1e-12.
    _check_finite(alpha, "alpha", "coherent")
    x = abs(alpha) * abs(alpha)  # inf past |alpha| ~ 1e154
    cutoff, tail = _family_cutoff(
        "coherent", partial(_poisson_tail, x=x), lambda K: (K,), cutoff, tau, first=8, bisect=False
    )
    return FockPureState(_coherent_amps(alpha, cutoff), tail)


def _coherent_amps(alpha: complex, cutoff: int) -> np.ndarray:
    """The coherent state's amplitudes below cutoff, built in numpy.

    ln|c_k| = -|alpha|^2/2 + k ln|alpha| - ln(k!)/2 is set by one lgamma at
    the Poisson mode k0 = floor(|alpha|^2) (or the top level, if lower) and
    reached from there by cumulative sums of the steps ln|alpha| - ln(k)/2,
    upward and downward; summed from k = 0, the rounding grows to ~1e-7 at
    |alpha| = 1000.  The phase e^{i k arg alpha} goes on as cos and sin.
    The work arrays are freed on return.
    """
    amps = np.zeros(cutoff, dtype=complex)
    if alpha == 0 or cutoff == 0:  # |0>, or the empty tensor FockPureState refuses
        amps[:1] = 1.0
        return amps
    a = abs(alpha)
    ln_a = math.log(a)
    k0 = min(int(a * a), cutoff - 1)
    steps = np.arange(1.0, cutoff)  # steps[k - 1] takes ln|c_{k-1}| to ln|c_k|
    np.log(steps, out=steps)
    steps *= -0.5
    steps += ln_a
    logs = np.empty(cutoff)
    logs[k0] = -0.5 * a * a + k0 * ln_a - 0.5 * math.lgamma(k0 + 1.0)
    np.cumsum(steps[k0:], out=logs[k0 + 1 :])
    logs[k0 + 1 :] += logs[k0]
    np.cumsum(steps[:k0][::-1], out=logs[:k0][::-1])
    np.subtract(logs[k0], logs[:k0], out=logs[:k0])
    del steps
    np.exp(logs, out=logs)
    phi = cmath.phase(alpha)
    if phi:
        theta = np.arange(cutoff) * phi
        np.multiply(logs, np.sin(theta), out=amps.imag)
        np.multiply(logs, np.cos(theta, out=theta), out=amps.real)
    else:
        amps.real = logs
    return amps


def _squeezed_amps(s: float, phi: float, cutoff: int) -> np.ndarray:
    """The squeezed vacuum's amplitudes below cutoff, built in numpy.

    sqrt((2m)!) / (2^m m!) = prod_{j <= m} sqrt(1 - 1/(2j)) is summed in logs,
    and ln tanh|s| is taken from expm1, which keeps its last bits where tanh s
    rounds toward 1.  The phase (-e^{2 i phi} sign s)^m is applied as an exact
    sign, then e^{2 i phi m}.  The work arrays are freed on return.
    """
    a = abs(s)
    ln_t = math.log(-math.expm1(-2.0 * a)) - math.log1p(math.exp(-2.0 * a)) if a else -math.inf
    m = np.arange((cutoff + 1) // 2)
    ln = np.zeros(m.size)
    np.cumsum(0.5 * np.log1p(-0.5 / m[1:]), out=ln[1:])
    ln[1:] += m[1:] * ln_t
    amps = np.zeros(cutoff, dtype=complex)
    amps[0::2] = np.exp(ln, out=ln)
    amps[0::2] *= math.sqrt(_sech(s))
    if s > 0:
        amps[2::4] *= -1.0
    if phi:
        amps[0::2] *= np.exp(2j * phi * m)
    return amps


def make_fock_squeezed(
    s: float, phi: float = 0.0, cutoff: int = None, tau: float = TAU_TRUNC
) -> FockPureState:
    """Single-mode squeezed vacuum, axis at angle phi (phi = 0 squeezes X).

    Amplitudes c_{2m} = (-e^{2 i phi} tanh s)^m sqrt((2m)!) / (2^m m!) /
    sqrt(cosh s); odd levels vanish.  Default cutoff up to |s| = 7.12.
    """
    _check_finite(phi, "phi", "squeezed")
    cutoff, _ = _squeezed_cutoff(s, cutoff, tau)
    amps = _squeezed_amps(s, phi, cutoff)
    # The law is a bound, so the summed tail is recorded; its factor 2 absorbs the rounding.
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _check_tail(tail, cutoff, tau, "squeezed")
    return FockPureState(amps, tail)


def make_fock_tmsv(r: float, cutoff: int = None, tau: float = TAU_TRUNC) -> FockPureState:
    """Two-mode squeezed vacuum tanh(r)^k / cosh(r) on |k, k>; default cutoff up to |r| = 3.28."""
    cutoff, tail = _tmsv_cutoff(r, cutoff, tau)
    t = math.tanh(r)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[np.arange(cutoff), np.arange(cutoff)] = t ** np.arange(cutoff) * _sech(r)
    return FockPureState(amps, tail)


def make_fock_thermal(nbar: float, cutoff: int = None, tau: float = TAU_TRUNC) -> FockDensityOperator:
    """Thermal density operator of mean occupation nbar; default cutoff up to nbar = 177."""
    cutoff, tail = _thermal_cutoff(nbar, cutoff, tau)
    if nbar == 0.0:
        p = np.eye(1, cutoff)[0]  # empty at cutoff 0
    else:
        k = np.arange(cutoff)
        p = np.exp(k * math.log(nbar) - (k + 1) * math.log(1.0 + nbar))
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


def total_noise(psi: FockPureState) -> float:
    """Sum of the variances of all 2n quadratures, Tr V / 2.

    Computed as sum_i (2 <N_i> + 1 - 2 |<a_i>|^2) from the photon numbers
    and first moments; for states with zero mean this is 2 <N> + n.
    <N_i> = ||a_i psi||^2 and <a_i> = <psi|a_i psi> come from one lowered
    tensor, freed before the next mode's is made.
    """
    amps = psi.amps

    def mode_noise(low):
        return 2.0 * np.vdot(low, low).real + 1.0 - 2.0 * abs(np.vdot(amps, low)) ** 2

    return float(sum(mode_noise(_ladder(amps, i)) for i in range(psi.n)))


def mtn_pure(psi: FockPureState) -> float:
    """Total noise per mode after centering; equals 1 exactly for coherent states."""
    return total_noise(psi) / psi.n


def schmidt_coefficients(psi: FockPureState, bp: Bipartition) -> np.ndarray:
    """The min(da, db) singular values of the da x db amplitude matrix, descending.

    A monomial support, at most one nonzero per row and column (number
    states, their beam-splitter outputs, TMSV, the counterexample pair),
    gives its moduli padded with zeros, sorted in Python: np.sort and
    np.unique page in code (numpy.ma for np.unique) each process pays for.
    Any other matrix, at once one with over min(da, db) nonzeros, takes an SVD.
    """
    _check_split(bp, psi.n)
    mat = psi.amps.reshape(int(np.prod(psi.cutoffs[: bp.n_a])), -1)
    k = min(mat.shape)
    nz = mat != 0
    if np.count_nonzero(nz) <= k and nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1:
        s = sorted(np.abs(mat[nz]).tolist(), reverse=True)
        return np.array(s + [0.0] * (k - len(s)))
    return np.linalg.svd(mat, compute_uv=False)


def entanglement_measures_pure(psi: FockPureState, bp: Bipartition) -> tuple[float, float]:
    """(E_F, E_N) of a pure state from one Schmidt decomposition.

    Over the Schmidt values sigma, E_F = -sum sigma^2 ln sigma^2 is the
    entropy of entanglement and E_N = 2 ln(sum sigma) the logarithmic
    negativity.
    """
    s = schmidt_coefficients(psi, bp)
    s2 = s**2
    s2 = s2[s2 > 1e-30]
    ef = float(max(-np.sum(s2 * np.log(s2)), 0.0) + 0.0)
    en = float(max(2.0 * np.log(np.sum(s)), 0.0) + 0.0)
    return ef, en


def entanglement_entropy(psi: FockPureState, bp: Bipartition) -> float:
    """Entropy of entanglement E_F, the first of entanglement_measures_pure."""
    return entanglement_measures_pure(psi, bp)[0]


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


def apply_beam_splitter_fock(psi: FockPureState, modes: tuple[int, int] = (0, 1)) -> FockPureState:
    """Balanced beam splitter on a mode pair of a Fock state, with nothing dropped.

    Acts blockwise on each total-photon subspace of the pair.  The beam
    splitter conserves the pair's photon number, so only the blocks holding
    a nonzero amplitude are visited: a number state fills one.  Block M
    spreads over |m, M - m>, m = 0..M, so each mode of the pair gets the
    cutoff M_max + 1 of the largest occupied block, and never less than its
    input cutoff; the output is checked against AMPLITUDE_BUDGET_BYTES
    before it is allocated.  The map is unitary on the stored tensor, so
    the output's tail is the input's.
    """
    i, j = _mode_pair(modes, psi.n)
    di, dj = psi.cutoffs[i], psi.cutoffs[j]
    work = np.moveaxis(psi.amps, (i, j), (0, 1))
    batch = work.reshape(di, dj, -1)
    totals = np.add.outer(np.arange(di), np.arange(dj))
    occupied = np.flatnonzero(np.bincount(totals[np.any(batch != 0, axis=2)])).tolist()
    top = occupied[-1] + 1 if occupied else 0
    shape = list(psi.cutoffs)
    shape[i], shape[j] = max(di, top), max(dj, top)
    _check_budget(tuple(shape), "beam-splitter output")
    out = np.zeros((shape[i], shape[j], batch.shape[2]), dtype=complex)
    for M in occupied:
        ks = np.arange(max(0, M - dj + 1), min(di - 1, M) + 1)
        m = np.arange(M + 1)
        out[m, M - m, :] = beam_splitter_block(M)[:, ks] @ batch[ks, M - ks, :]
    result = np.moveaxis(out.reshape(shape[i], shape[j], *work.shape[2:]), (0, 1), (i, j))
    return FockPureState(result, psi.tail_mass)


# ---------------------------------------------------------------------------
# coherence scale: moments of pure states, commutators of density operators


def qcs2_fock(state: FockPureState | FockDensityOperator) -> float:
    """Squared quadrature coherence scale C^2 of a pure state or density operator.

    On a pure state C^2 is the mean total noise M_TN = Tr V / (2n) (De
    Bievre et al., Phys. Rev. Lett. 122, 080402 (2019)), read by mtn_pure
    from the photon numbers and first moments: exact for the truncated state
    without padding.  A density operator takes the commutator
    route, C^2 = sum_j Tr([rho, R_j][R_j, rho]) / (2 n Tr rho^2) over the 2n
    quadratures.  With X and P built from the truncated ladder operator a_j,
    the two terms of mode j sum to 2 ||[rho, a_j]||_F^2, so exactly

        C^2 = sum_j ||rho a_j - a_j rho||_F^2 / (n Tr rho^2).

    On ``rho.mat`` reshaped to ``cutoffs + cutoffs``, a_j rho lowers row axis
    j and rho a_j raises column axis n + j (a_j^T = a_j^dag), so the cost is
    O(n D^2) in the dimension D.  The raise takes column level d_j - 1 of
    mode j to level d_j, past the cutoff, where a_j rho has no entry; the
    truncated ladder drops it, so its norm d_j ||rho at column level
    d_j - 1||_F^2 is added back.  C^2 is thus exact for the stored operator,
    with no padding, as on the pure route.
    """
    if isinstance(state, FockPureState):
        return mtn_pure(state)
    n = state.n
    t = state.mat.reshape(state.cutoffs + state.cutoffs)
    acc = 0.0
    for j, d in enumerate(state.cutoffs):
        comm = _ladder(t, n + j, create=True)
        comm -= _ladder(t, j)
        edge = t[(slice(None),) * (n + j) + (d - 1,)]
        acc += float(np.vdot(comm, comm).real) + d * float(np.vdot(edge, edge).real)
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
    n_A g(sinh^2 r), saturating the bound.  Its tail is 1 - (1 - t^{2K})^{n_A};
    default cutoff up to |r| = 3.28 (n = 2), 1.19 (n = 4), 0.51 (n = 6).
    """
    if not (_is_count(n, 2) and n % 2 == 0):
        raise ValueError("n must be even and >= 2")
    n_a = n // 2
    _check_finite(r, "r", "saturating family")
    t = math.tanh(r)

    def law(K):
        q = (t * t) ** K  # 1 when tanh r rounds to 1
        return 1.0 if q == 1.0 else -math.expm1(n_a * math.log1p(-q))  # 1 - (1 - q)^{n_A}

    cutoff, tail = _family_cutoff("saturating family", law, lambda K: (K,) * n, cutoff, tau)
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
    amps = C.reshape((cutoff,) * n_a + (cutoff,) * n_a)
    return FockPureState(amps, tail)


def make_counterexample_states(
    q: float, k: int, cutoff: int = None, tau: float = TAU_TRUNC
) -> tuple[FockPureState, FockPureState]:
    """Three-mode pair showing entanglement is not monotone in total noise.

    The base state on modes (A, B1, B2) is sqrt(1-q) sum_m q^{m/2} |m; m, 0>.
    The partner applies a local permutation on B swapping |k, 0> with |0, 1>,
    which for k >= 2 lowers the mean photon number by (1-q) q^k (k-1) while
    leaving the entanglement across A | B unchanged.  The default cutoff is
    at least k + 2; default cutoff up to q = 0.992 and k = 2894.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q = {q!r} must lie in (0, 1)")
    if not _is_count(k, 2):
        raise ValueError(f"k = {k!r} must be an integer >= 2 so the swap lowers the photon number")
    if cutoff is not None and k >= cutoff:
        raise ValueError(f"k = {k} outside cutoff {cutoff}")
    cutoff, tail = _family_cutoff(
        "counterexample", lambda K: q**K, lambda K: (K, K, 2), cutoff, tau, first=k + 2
    )
    m = np.arange(cutoff)
    coeff = np.sqrt((1.0 - q) * q**m.astype(float))
    base = np.zeros((cutoff, cutoff, 2), dtype=complex)
    base[m, m, 0] = coeff
    permuted = base.copy()
    permuted[k, k, 0] = 0.0
    permuted[k, 0, 1] = coeff[k]
    return FockPureState(base, tail), FockPureState(permuted, tail)


# ---------------------------------------------------------------------------
# serialization


def fock_to_dict(psi: FockPureState) -> dict:
    """{"n", "cutoffs", "amps", "tail_mass"}, listing the nonzero amplitudes in C order."""
    idx = np.nonzero(psi.amps)
    vals = psi.amps[idx]
    rows = zip(*(i.tolist() for i in idx), vals.real.tolist(), vals.imag.tolist())
    return {
        "n": psi.n,
        "cutoffs": list(psi.cutoffs),
        "amps": [list(row) for row in rows],
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
    if not _is_count(n, 1):
        raise SchemaError("field 'n' must be a positive integer")
    cutoffs = data["cutoffs"]
    if (
        not isinstance(cutoffs, list)
        or len(cutoffs) != n
        or not all(_is_count(c, 1) for c in cutoffs)
    ):
        raise SchemaError(f"field 'cutoffs' must list {n} positive integers")
    _check_budget(tuple(cutoffs), "fock state file")
    amps = np.zeros(tuple(cutoffs), dtype=complex)
    rows = data["amps"]
    if not isinstance(rows, list):
        raise SchemaError("field 'amps' must be a list of [indices..., re, im] rows")
    first_row = {}  # index tuple -> the row that listed it
    for rownum, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 2:
            raise SchemaError(f"field 'amps' row {rownum} must have {n + 2} entries")
        idx = tuple(row[:n])
        if not all(_is_count(x, 0) and x < c for x, c in zip(idx, cutoffs)):
            raise SchemaError(f"field 'amps' row {rownum} needs integer indices inside cutoffs")
        try:
            if not all(type(v) in (int, float) for v in row[n:]):
                raise TypeError("an amplitude must be a JSON number")
            re, im = float(row[n]), float(row[n + 1])
        except (TypeError, OverflowError):
            raise SchemaError(f"field 'amps' row {rownum} has non-numeric amplitude")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SchemaError(f"field 'amps' row {rownum} has a non-finite amplitude")
        earlier = first_row.setdefault(idx, rownum)
        if earlier != rownum:
            raise SchemaError(f"field 'amps' rows {earlier} and {rownum} both list index {idx}")
        amps[idx] = complex(re, im)
    tail = data.get("tail_mass", 0.0)
    try:
        tail = float(tail) if type(tail) in (int, float) else math.nan
    except OverflowError:
        tail = math.inf
    if not 0.0 <= tail < math.inf:
        raise SchemaError("field 'tail_mass' must be a finite nonnegative number")
    try:
        return FockPureState(amps, tail)
    except ValueError as exc:
        raise SchemaError(f"field 'amps' invalid: {exc}") from exc


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
