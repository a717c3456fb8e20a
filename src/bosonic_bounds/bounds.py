"""Bounds linking entanglement measures to total-noise and coherence measures.

Everything here is built on the entropy-like function
g(x) = (x + 1) ln(x + 1) - x ln x, the mean photon number of a thermal
state of given entropy and vice versa.  It is all scalar arithmetic: the
equal-entropy split is one Newton solve, :func:`solve_na_star`, which
serves single splits and the figure grids alike.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .symplectic import _is_count
from .tolerances import TAU_CHECK, TAU_PHYS, TAU_SAT

# cap on the balance evaluations of solve_na_star
_MAX_ITER = 200

__all__ = [
    "g",
    "g_prime",
    "theorem_symmetric_bound",
    "mtn_floor_from_entanglement",
    "NAStarSolution",
    "solve_na_star",
    "na_star_asymptotic",
    "theorem_split_bound",
    "split_bound_asymptotic",
    "gaussian_pure_bound",
    "BoundCheck",
    "entanglement_check",
    "classical_checks",
    "log_negativity_qcs_bound",
    "log_negativity_qcs_refined",
    "qcs_implication_report",
    "coherence_scale_checks",
]


def _log1p_ratio(a: float, b: float) -> float:
    """ln(1 + a/b) for a, b > 0, finite also where a/b overflows."""
    r = a / b
    return math.log1p(r) if r != math.inf else math.log(a) - math.log(b)


def g(x: float) -> float:
    """(x + 1) ln(x + 1) - x ln x, the entropy of a thermal state with mean x.

    Increasing and strictly concave on x >= 0, with g(0) = 0.
    """
    if not 0.0 <= x < math.inf:  # refuses NaN too
        raise ValueError(f"g requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return math.log1p(x) + x * _log1p_ratio(1.0, x)


def g_prime(x: float) -> float:
    """Derivative ln(1 + 1/x); positive and decreasing."""
    if not x > 0.0:  # refuses NaN too
        raise ValueError(f"g_prime requires x > 0, got {x}")
    return _log1p_ratio(1.0, x)


def _mtn_at_least_one(mtn: float) -> float:
    """M_TN, with values up to TAU_PHYS below 1 taken as 1.

    Every physical state has M_TN >= 1, but a classical pure state's M_TN
    read from truncated Fock amplitudes can round a few ulps below it.
    """
    if not 1.0 - TAU_PHYS <= mtn < math.inf:  # refuses NaN too
        raise ValueError(f"M_TN must be >= 1 and finite, got {mtn}")
    return max(mtn, 1.0)


def theorem_symmetric_bound(mtn: float, n: int) -> float:
    """Upper bound (n/2) g((M_TN - 1)/2) on entanglement entropy, even n.

    Valid for pure states of n modes split evenly; saturated by products of
    two-mode squeezed vacua and their number-preserving relatives.
    """
    if not (_is_count(n, 2) and n % 2 == 0):
        raise ValueError("n must be even and >= 2")
    mtn = _mtn_at_least_one(mtn)
    return (n / 2.0) * g((mtn - 1.0) / 2.0)


def mtn_floor_from_entanglement(ef: float, n: int) -> float | None:
    """Noise floor M_TN >= 1 + 2 e^{(2/n) E_F - 2}, valid once E_F >= 3n/4.

    Returns None when the entanglement is below the validity threshold.  The
    mode count n must be an integer >= 1, and E_F finite with a floor in
    float range.
    """
    if not _is_count(n, 1):
        raise ValueError(f"mode count n must be an integer >= 1, got {n!r}")
    if not math.isfinite(ef):
        raise ValueError(f"E_F must be finite, got {ef}")
    if ef < 0.75 * n:
        return None
    try:
        return 1.0 + 2.0 * math.exp((2.0 / n) * ef - 2.0)
    except OverflowError:
        raise ValueError(f"noise floor for E_F = {ef} over {n} modes overflows") from None


@dataclass(frozen=True)
class NAStarSolution:
    """Split (N_A*, N_B*) of N photons; N_A* solves n_A g(t / n_A) = n_B g((N - t) / n_B)."""

    na_star: float
    nb_star: float
    residual: float
    iterations: int
    method: str
    total: float


def _check_mode_counts(n_a: int, n_b: int):
    if not (_is_count(n_a, 1) and _is_count(n_b, 1)):
        raise ValueError(f"mode counts must be integers >= 1, got {n_a!r} and {n_b!r}")
    # _balance divides by them as floats
    if not max(n_a, n_b) <= sys.float_info.max:
        raise ValueError(f"mode counts must be at most {sys.float_info.max:.6g}")


def _balance(t: float, N: float, n_a: int, n_b: int) -> float:
    return n_a * g(t / n_a) - n_b * g((N - t) / n_b)


def solve_na_star(N: float, n_a: int, n_b: int) -> NAStarSolution:
    """Split N photons so both parties carry equal thermal entropy.

    The party with more modes takes the smaller share s, at most N / 2.
    In u = ln s its balance f = n_more g(s / n_more) - n_fewer g((N - s) / n_fewer)
    is increasing and convex, so Newton's method in u started at s = N / 2,
    where f > 0, lowers s monotonically onto the root without overshooting
    it; the solve stops once f <= 0 or a step no longer lowers s.  Solving
    for the smaller share keeps its relative precision when it lies far
    below N, so s itself is stored as N_A* or N_B*, never N minus the other.
    The method label "bisection" names this solve.  The residual is |f| at
    s, so mirrored calls (n_a, n_b) and (n_b, n_a) report the same one; it
    is bounded by TAU_ROOT * max(1, N) in the tests.
    """
    _check_mode_counts(n_a, n_b)
    if not math.isfinite(N):
        raise ValueError(f"photon number must be finite, got {N}")
    if N < 0.0:
        raise ValueError(f"photon number must be >= 0, got {N}")
    if N == 0.0:
        return NAStarSolution(0.0, 0.0, 0.0, 0, "bisection", total=0.0)
    if n_a == n_b:
        half = 0.5 * N
        return NAStarSolution(
            half, half, abs(_balance(half, N, n_a, n_b)), 0, "bisection", total=N
        )
    more, fewer = max(n_a, n_b), min(n_a, n_b)
    s, it = 0.5 * N, 0
    while it < _MAX_ITER:
        it += 1
        f = _balance(s, N, more, fewer)
        if f <= 0.0:
            break
        slope = s * (_log1p_ratio(more, s) + _log1p_ratio(fewer, N - s))  # df/du > 0
        nxt = s * math.exp(-f / slope)
        if not 0.0 < nxt < s:
            break
        s = nxt
    na, nb = (s, N - s) if n_a > n_b else (N - s, s)
    residual = abs(_balance(s, N, more, fewer))
    return NAStarSolution(na, nb, residual, it, "bisection", total=N)


def _closed_form_root(N: float, n_a: int, n_b: int, variant: str) -> float:
    """N_A* of the named closed form, without validation or residual.

    NaN where a power in it leaves the float range: (e nu)^{1 - mu} or
    nu^mu overflows, or nu^mu underflows to 0.  That happens only far from
    the closed form's large-nu, moderate-mu regime.
    """
    if variant not in ("leading", "refined"):
        raise ValueError(f"unknown variant {variant!r}")
    mu = n_a / n_b
    nu = N / n_a
    try:
        delta = 1.0 / (mu * ((math.e * nu) ** (1.0 - mu) + 1.0))
        if variant == "refined":
            delta *= 1.0 - math.exp(1.0 - mu) / (2.0 * nu**mu)
    except (OverflowError, ZeroDivisionError):
        return math.nan
    return (1.0 - delta) * N


def na_star_asymptotic(N: float, n_a: int, n_b: int, variant: str = "leading") -> NAStarSolution:
    """Closed-form large-N approximations to the equal-entropy split.

    variant "leading": N_A* = (1 - delta) N with
    delta = 1 / (mu ((e nu)^{1 - mu} + 1)), mu = n_A/n_B, nu = N/n_A.
    variant "refined": multiplies in the next-order correction
    1 - e^{1 - mu} / (2 nu^mu).  Both are asymptotic in nu; a warning is
    issued for nu < 10.
    """
    _check_mode_counts(n_a, n_b)
    if not math.isfinite(N):
        raise ValueError(f"photon number must be finite, got {N}")
    if N <= 0.0:
        raise ValueError("asymptotic split needs N > 0")
    nu = N / n_a
    if nu < 10.0:
        warnings.warn(
            f"asymptotic split used at nu = {nu:.3g} < 10; expect poor accuracy",
            stacklevel=2,
        )
    root = _closed_form_root(N, n_a, n_b, variant)
    if 0.0 <= root <= N:
        residual = abs(_balance(root, N, n_a, n_b))
    else:
        # Outside its validity region the closed form can leave [0, N] or
        # the float range (a NaN root); report the raw value with an
        # undefined residual instead of failing.
        residual = math.nan
    return NAStarSolution(root, N - root, residual, 0, f"asymptotic-{variant}", total=N)


def theorem_split_bound(mtn: float, n_a: int, n_b: int) -> float:
    """Entanglement bound n_A g(N_A*/n_A) for a split of n modes into n_A | n_B.

    N = (n/2)(M_TN - 1) is the total-noise photon budget; N_A* balances the
    thermal entropies of the two parties.  At n_A = n_B it is :func:`theorem_symmetric_bound`.
    """
    _check_mode_counts(n_a, n_b)
    if n_a == n_b:
        return theorem_symmetric_bound(mtn, n_a + n_b)
    mtn = _mtn_at_least_one(mtn)
    n = n_a + n_b
    N = 0.5 * n * (mtn - 1.0)
    if N == 0.0:
        return 0.0
    sol = solve_na_star(N, n_a, n_b)
    return n_a * g(sol.na_star / n_a)


def split_bound_asymptotic(mtn: float, n_a: int, n_b: int) -> float:
    """Large-noise form n_A ln((1 - delta) N / n_A) + n_A of the split bound.

    Diverges logarithmically as M_TN -> 1, so that limit is rejected.
    """
    if mtn <= 1.0:
        raise ValueError("asymptotic bound requires M_TN > 1 (log divergence at 1)")
    n = n_a + n_b
    N = 0.5 * n * (mtn - 1.0)
    sol = na_star_asymptotic(N, n_a, n_b, variant="leading")
    x = sol.na_star / n_a
    if not x > 0.0:
        raise ValueError(
            f"asymptotic split gives no positive photon number: N_A* = {sol.na_star!r}"
        )
    return n_a * math.log(x) + n_a


def gaussian_pure_bound(mtn: float, n_a: int, n_b: int) -> float:
    """Entanglement bound n_A g((n / 4 n_A)(M_TN - 1)) for pure Gaussian states.

    Tighter than the general split bound when n_A < n_B; equal when the
    split is even.  Saturated by n_A two-mode squeezed vacua padded with
    vacuum modes on the larger party.
    """
    _check_mode_counts(n_a, n_b)
    mtn = _mtn_at_least_one(mtn)
    n = n_a + n_b
    return n_a * g((n / (4.0 * n_a)) * (mtn - 1.0))


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs <= rhs with slack bookkeeping."""

    provenance: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    saturated: bool


def _check(provenance: str, lhs: float, rhs: float, tau_check: float) -> BoundCheck:
    margin = rhs - lhs
    if not (math.isfinite(margin) and math.isfinite(tau_check)):
        raise ValueError(
            f"{provenance}: margin {margin} and tau_check {tau_check} must be finite"
        )
    return BoundCheck(
        provenance=provenance,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tau_check,
        saturated=abs(margin) <= TAU_SAT,
    )


def entanglement_check(
    ef: float,
    mtn: float,
    n_a: int,
    n_b: int,
    tau_check: float = TAU_CHECK,
) -> BoundCheck:
    """E_F <= :func:`theorem_split_bound` for a pure state; the provenance names the split."""
    split = "even" if n_a == n_b else "uneven"
    rhs = theorem_split_bound(mtn, n_a, n_b)
    return _check(f"entanglement vs total noise ({split} split)", ef, rhs, tau_check)


def classical_checks(qcs2: float, en: float, tau_check: float = TAU_CHECK) -> list[BoundCheck]:
    """What every classical state satisfies: C^2 <= 1 and E_N = 0."""
    return [
        _check("classical states have QCS^2 <= 1", qcs2, 1.0, tau_check),
        _check("classical states have zero log-negativity", en, 0.0, tau_check),
    ]


def _check_qcs2(qcs2: float):
    if not qcs2 > 0.0:  # refuses NaN too
        raise ValueError(f"QCS^2 must be positive, got {qcs2}")


def log_negativity_qcs_bound(
    en: float,
    qcs2: float,
    n: int,
    n_minus: int,
    tau_check: float = TAU_CHECK,
) -> BoundCheck:
    """E_N <= n_minus (ln C^2 + ln(n / n_minus)) for any n-mode state.

    Requires integers 1 <= n_minus <= n; the n_minus = 0 case asserts
    E_N = 0 and is reported by :func:`qcs_implication_report`.
    """
    if not (_is_count(n_minus, 1) and _is_count(n, n_minus)):
        raise ValueError(
            f"bound needs integers 1 <= n_minus <= n, got n_minus = {n_minus!r}, n = {n!r}; "
            "with n_minus = 0, E_N must vanish"
        )
    _check_qcs2(qcs2)
    rhs = n_minus * (math.log(qcs2) + math.log(n / n_minus))
    return _check("log-negativity vs coherence-scale (mode-counting)", en, rhs, tau_check)


def log_negativity_qcs_refined(
    qcs2: float,
    en: float,
    det_v: float,
    tau_check: float = TAU_CHECK,
) -> BoundCheck:
    """Two-mode refinement C^2 >= (e^{E_N} + e^{-E_N} / sqrt(det V)) / 2.

    For 1 + 1 mode states with E_N > 0; equality holds exactly on pure
    two-mode squeezed vacua (det V = 1).
    """
    if not det_v > 0.0:  # refuses NaN too
        raise ValueError(f"det V must be positive, got {det_v!r}")
    try:
        rhs = 0.5 * (math.exp(en) + math.exp(-en) / math.sqrt(det_v))
    except OverflowError:
        raise ValueError(f"two-mode refinement overflows at E_N = {en}") from None
    return _check("two-mode coherence-scale refinement", rhs, qcs2, tau_check)


def qcs_implication_report(
    qcs2: float,
    en: float,
    n: int,
    tau_check: float = TAU_CHECK,
) -> list[BoundCheck]:
    """Threshold implications between log-negativity and coherence scale.

    Two one-sided checks, each reported only when its hypothesis applies:
    E_N > n/e forces ln C^2 >= E_N / n - 1/e, and C^2 < e^{-n/e} forces
    E_N = 0.  The mode count n must be an integer >= 1 and C^2 positive.
    """
    if not _is_count(n, 1):
        raise ValueError(f"mode count n must be an integer >= 1, got {n!r}")
    _check_qcs2(qcs2)
    out = []
    if en > n / math.e:
        out.append(
            _check(
                "entangled-enough implies nonclassical",
                en / n - 1.0 / math.e,
                math.log(qcs2),
                tau_check,
            )
        )
    if qcs2 < math.exp(-n / math.e):
        out.append(
            _check(
                "classical-enough implies unentangled (PPT)",
                en,
                0.0,
                tau_check,
            )
        )
    return out


def coherence_scale_checks(
    en: float,
    qcs2: float,
    n: int,
    n_minus: int,
    det_v: float,
    tau_check: float = TAU_CHECK,
) -> list[BoundCheck]:
    """Every coherence-scale inequality that applies to an n-mode state.

    The mode-counting ceiling when n_minus >= 1, the two-mode refinement when
    also n = 2 and E_N > 0 (the one check that reads det_v, so NaN may stand
    in for it otherwise), then the implications of :func:`qcs_implication_report`.
    """
    out = []
    if n_minus >= 1:
        out.append(log_negativity_qcs_bound(en, qcs2, n, n_minus, tau_check))
        if n == 2 and en > 0.0:
            out.append(log_negativity_qcs_refined(qcs2, en, det_v, tau_check))
    out.extend(qcs_implication_report(qcs2, en, n, tau_check))
    return out
