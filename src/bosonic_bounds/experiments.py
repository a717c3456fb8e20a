"""Sweep drivers, randomized audits, and deterministic CSV emission.

Every sweep writes a CSV (17 significant digits, fixed column order listed
with each driver) plus a JSON manifest echoing the resolved configuration,
seed, tolerances, and package version.  Identical configuration and seed
produce byte-identical files; no timestamps are recorded.

CSV column orders
-----------------
beam_splitter_sweep.csv:
    family, param, mtn_in, g_in, ef, ratio, cutoff, tail_mass, asymptote_gap
    No row is truncated, so every row has cutoff 0 and tail_mass 0.  The
    number families (number-split, twin-number) come from the closed-form
    photon laws of the beam splitter's output.  The squeezed families
    (antisqueezed-vacuum, orthogonal-squeezed, tmsv-direct) come from the
    closed form of the two-mode squeezed vacuum.
bound_profile.csv:
    n_a, n_b, mu, nu, ef_per_na, ef_per_na_asymptotic, gaussian_per_na, residual
split_accuracy.csv:
    n_a, n_b, mu, nu, nu_star, nu_star_leading, nu_star_refined,
    relerr_leading, relerr_refined, residual
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from importlib import resources

import numpy as np

from . import __version__ as _version
from . import fock
from .bounds import (
    BoundCheck,
    _closed_form_root,
    classical_checks,
    coherence_scale_checks,
    entanglement_check,
    g,
    gaussian_pure_bound,
    mtn_floor_from_entanglement,
    solve_na_star,
)
from .errors import AuditViolationError, SchemaError
from .fock import (
    FockPureState,
    fock_to_dict,
    apply_beam_splitter_fock,
    entanglement_entropy,
    entanglement_measures_pure,
    make_counterexample_states,
    mtn_pure,
)
from .gaussian import (
    GaussianState,
    gaussian_measures,
    gaussian_to_dict,
    log_negativity_gaussian,
    qcs2_gaussian,
    random_classical_state,
    random_gaussian_state,
)
from .symplectic import Bipartition, _is_count, _lapack, default_bipartition
from .tolerances import TAU_CHECK, TAU_TRUNC

__all__ = [
    "AuditReport",
    "beam_splitter_fock",
    "beam_splitter_sweep",
    "bound_profile_sweep",
    "split_accuracy_sweep",
    "random_audit",
    "counterexample_demo",
    "write_sweep",
    "load_nastar_envelope",
    "state_checks",
    "BS_FAMILIES",
]

def _plain(obj):
    """json.dump's fallback: a numpy scalar or array as the Python value it holds."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_sweep(out_dir, name: str, columns, rows, params: dict) -> tuple[str, str]:
    """Write rows to <out_dir>/<name>.csv plus <name>.manifest.json.

    Cells go unquoted, floats as %.17g; a cell holding ',', '"', CR or LF raises ValueError.
    The manifest echoes ``params`` and the tolerances every sweep runs with;
    its ``seed`` is null because no sweep draws random numbers.
    """
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(["%.17g" % v if isinstance(v, float) else str(v)
                               for v in map(row.__getitem__, columns)]))
    text = "\n".join(lines) + "\n"
    if (text.count(",") != (len(columns) - 1) * len(lines) or text.count("\n") != len(lines)
            or '"' in text or "\r" in text):  # one scan of the text, not one per cell
        bad = next(c for row in (dict(zip(columns, columns)), *rows) for c in columns
                   if any(ch in str(row[c]) for ch in ',"\r\n'))
        raise ValueError(f"{name}.csv: column {bad!r} has a cell that CSV would quote")
    del lines  # freed before the text is encoded, which lowers peak RSS
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    man_path = os.path.join(out_dir, f"{name}.manifest.json")
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    with open(man_path, "w") as fh:
        manifest = {
            "version": _version,
            "sweep": name,
            "params": params,
            "seed": None,
            "tolerances": {"tau_check": TAU_CHECK, "tau_trunc": TAU_TRUNC},
            "columns": list(columns),
        }
        json.dump(manifest, fh, indent=1, sort_keys=True, default=_plain)
        fh.write("\n")
    return csv_path, man_path


# ---------------------------------------------------------------------------
# beam splitter sweep

BS_FAMILIES = (
    "number-split",
    "twin-number",
    "antisqueezed-vacuum",
    "orthogonal-squeezed",
    "tmsv-direct",
)

_BS_COLUMNS = (
    "family",
    "param",
    "mtn_in",
    "g_in",
    "ef",
    "ratio",
    "cutoff",
    "tail_mass",
    "asymptote_gap",
)


_NUMBER_FAMILIES = ("number-split", "twin-number")

# Largest photon number of a closed-form number row; a twin row's working
# arrays then stay under about 300 MB.
_NUMBER_ROW_MAX_N = 2**22


def _number_law_entropy(N: int, twin: bool) -> float:
    """Entropy of the photon law a balanced beam splitter makes from |N,0> or |N,N>.

    The beam splitter acts on number inputs as an SU(2) rotation, so the
    output is a Schmidt sum whose squared coefficients follow a known law:
    Binomial(N, 1/2) on |m, N - m> for |N,0>, and the twin-Fock law
    p_m = C(2m, m) C(2N - 2m, N - m) / 4^N on |2m, 2N - 2m> for |N,N>.
    log p_m comes from cumulative sums of log k, so a row costs O(N).
    """
    K = 2 * N if twin else N
    log_fact = np.zeros(K + 1)
    np.cumsum(np.log(np.arange(1.0, K + 1)), out=log_fact[1:])
    if twin:
        log_central = log_fact[::2] - 2.0 * log_fact[: N + 1]  # ln C(2m, m)
        log_p = log_central + log_central[::-1] - 2 * N * math.log(2.0)
    else:
        log_p = log_fact[N] - log_fact - log_fact[::-1] - N * math.log(2.0)
    return float(-np.sum(np.exp(log_p) * log_p) + 0.0)


def _bs_row(family: str, param: float) -> dict:
    # ref is the large-input asymptote of E_F; None means the ratio itself
    # tends to 1, so the gap is measured there.
    if isinstance(param, np.generic):  # so a refusal quotes 1.5, not np.float64(1.5)
        param = param.item()
    if family in _NUMBER_FAMILIES:
        if not (0 <= param <= _NUMBER_ROW_MAX_N and param == int(param)):
            raise ValueError(
                f"photon number must be an integer in [0, {_NUMBER_ROW_MAX_N}], got {param!r}"
            )
        N = int(param)
        twin = family == "twin-number"
        ef = _number_law_entropy(N, twin)
        # Var x + Var p of |k> is 2k + 1; M_TN is its mean over the modes.
        mtn_in = float(2 * N + 1 if twin else N + 1)
        if N == 0:
            ref = 0.0
        elif twin:
            ref = math.log(math.pi * N / 4.0)  # the arcsine law's entropy
        else:
            ref = 0.5 * math.log(0.5 * math.pi * math.e * N)  # variance N / 4
    else:
        # The output is locally a two-mode squeezed vacuum of parameter s, whose
        # reduced symplectic eigenvalue is cosh 2s; M_TN is Tr V / 4 of the input.
        s = float(param)
        try:
            c = math.cosh(2.0 * s)
        except OverflowError:
            c = math.inf
        if family == "antisqueezed-vacuum":
            mtn_in = c * c
            ref = 2.0 * abs(s) + 1.0 - math.log(4.0)  # g(x) ~ ln x + 1, x ~ e^{2|s|}/4
        else:
            mtn_in, ref = c, None
        if not math.isfinite(mtn_in):
            raise ValueError(
                f"{family}: squeezing s = {param!r} must be finite, with M_TN in float range"
            )
        ef = g(math.sinh(s) ** 2)
    chk = entanglement_check(ef, mtn_in, 1, 1)
    g_in = chk.rhs
    ratio = ef / g_in if g_in > 0.0 else 1.0
    if not chk.holds:
        raise AssertionError(
            f"sweep row violates the symmetric bound: family {family} param {param} "
            f"E_F {ef!r} > g_in {g_in!r}"
        )
    return {
        "family": family,
        "param": float(param),
        "mtn_in": mtn_in,
        "g_in": g_in,
        "ef": ef,
        "ratio": ratio,
        # No row truncates anything: no cutoff, no tail.
        "cutoff": 0,
        "tail_mass": 0.0,
        "asymptote_gap": abs(ratio - 1.0) if ref is None else abs(ef - ref),
    }


def beam_splitter_fock(state: FockPureState) -> dict:
    """Balanced beam splitter on a two-mode Fock state, in truncated Fock space.

    Returns the input's M_TN, its budget g_in = g((M_TN - 1)/2), the
    output's E_F and E_N, ratio = E_F / g_in (1 when g_in is 0), and the
    output's tail mass and cutoffs.  The output keeps every block, on
    cutoffs widened to hold it, so its tail is the input's, which the
    caller checks where the state is made or read.  This is the route for
    arbitrary input; the sweep's number families take their closed forms
    instead.
    """
    if state.n != 2:
        raise ValueError(f"the balanced beam splitter acts on 2 modes, state has {state.n}")
    mtn_in = mtn_pure(state)
    out = apply_beam_splitter_fock(state)
    ef, log_negativity = entanglement_measures_pure(out, Bipartition(1, 1))
    g_in = entanglement_check(ef, mtn_in, 1, 1).rhs
    return {
        "mtn_in": mtn_in,
        "g_in": g_in,
        "ef": ef,
        "ratio": ef / g_in if g_in > 0.0 else 1.0,
        "log_negativity": log_negativity,
        "tail_mass": out.tail_mass,
        "cutoffs": list(out.cutoffs),
    }


def beam_splitter_sweep(
    families=None,
    number_grid=None,
    squeeze_grid=None,
    out_dir=None,
) -> list[dict]:
    """Entanglement generated by a balanced beam splitter, family by family.

    Number families sweep the photon count N: E_F is the entropy of the
    output's closed-form photon law (binomial for |N,0>, twin-Fock for
    |N,N>) and M_TN is N + 1 or 2N + 1, in O(N) per row with no Fock
    tensor.  Squeezed families sweep the squeezing parameter s: the output
    is locally a two-mode squeezed vacuum of parameter s, so E_F =
    g(sinh^2 s), and M_TN is cosh 2s (cosh^2 2s for antisqueezed-vacuum,
    whose input is squeezed(2s) x vacuum); a NaN, infinite or overflowing
    s raises ValueError.  Nothing is truncated, so every row has cutoff 0
    and tail_mass 0.  Every row re-checks E_F <= g((M_TN - 1)/2).
    """
    families = tuple(families) if families is not None else BS_FAMILIES
    for f in families:
        if f not in BS_FAMILIES:
            raise ValueError(f"unknown family {f!r}; choose from {BS_FAMILIES}")
    number_grid = (
        list(number_grid) if number_grid is not None else [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40]
    )
    squeeze_grid = (
        list(squeeze_grid)
        if squeeze_grid is not None
        else [0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5]
    )
    rows = []
    for family in families:
        grid = number_grid if family in _NUMBER_FAMILIES else squeeze_grid
        rows.extend(_bs_row(family, p) for p in grid)
    if out_dir is not None:
        params = {
            "families": list(families),
            "number_grid": number_grid,
            "squeeze_grid": squeeze_grid,
        }
        write_sweep(out_dir, "beam_splitter_sweep", _BS_COLUMNS, rows, params)
    return rows


# ---------------------------------------------------------------------------
# equal-entropy split over (mode pair, photons per A-mode) grids


def _split_points(pairs, nu_grid, variants):
    """Solve the equal-entropy split at every grid point.

    Yields ``(head, N, sol, closed)`` per pair and nu, pairs outermost:
    ``head`` holds the n_a, n_b, mu and nu columns, N = nu n_a is the photon
    budget, ``sol`` the exact solution of :func:`solve_na_star`, and
    ``closed`` the closed-form N_A* of each named variant.  The closed forms
    are used outside their validity range too, where the sweeps report what
    they give.
    """
    for n_a, n_b in pairs:
        for nu in map(float, nu_grid):
            N = nu * n_a
            if N <= 0.0:
                raise ValueError("asymptotic split needs N > 0")
            sol = solve_na_star(N, n_a, n_b)
            closed = [_closed_form_root(N, n_a, n_b, v) for v in variants]
            yield {"n_a": n_a, "n_b": n_b, "mu": n_a / n_b, "nu": nu}, N, sol, closed


# ---------------------------------------------------------------------------
# bound profile over the photon budget

_PROFILE_COLUMNS = (
    "n_a",
    "n_b",
    "mu",
    "nu",
    "ef_per_na",
    "ef_per_na_asymptotic",
    "gaussian_per_na",
    "residual",
)


def bound_profile_sweep(pairs=None, nu_grid=None, out_dir=None) -> list[dict]:
    """Entanglement bound per A-mode against photons per A-mode.

    ef_per_na is g(N_A*/n_A) from the exact solve,
    ef_per_na_asymptotic uses the leading closed-form split, and
    gaussian_per_na = g(nu/2) is the pure-Gaussian version (equal to the
    exact column when n_A = n_B).
    """
    pairs = list(pairs) if pairs is not None else [(3, 3), (3, 6), (3, 9), (3, 15)]
    nu_grid = (
        list(nu_grid) if nu_grid is not None else list(np.geomspace(1.0, 100.0, 25))
    )
    rows = []
    for head, N, sol, (lead,) in _split_points(pairs, nu_grid, ("leading",)):
        n_a = head["n_a"]
        rows.append(
            {
                **head,
                "ef_per_na": g(sol.na_star / n_a),
                # The closed form can leave [0, N] at small nu; report NaN there.
                "ef_per_na_asymptotic": g(lead / n_a) if 0.0 < lead <= N else math.nan,
                "gaussian_per_na": g(head["nu"] / 2.0),
                "residual": sol.residual,
            }
        )
    if out_dir is not None:
        write_sweep(
            out_dir, "bound_profile", _PROFILE_COLUMNS, rows,
            {"pairs": pairs, "nu_grid": nu_grid},
        )
    return rows


# ---------------------------------------------------------------------------
# accuracy of the closed-form splits

_ACCURACY_COLUMNS = (
    "n_a",
    "n_b",
    "mu",
    "nu",
    "nu_star",
    "nu_star_leading",
    "nu_star_refined",
    "relerr_leading",
    "relerr_refined",
    "residual",
)


def split_accuracy_sweep(pairs=None, nu_grid=None, out_dir=None) -> list[dict]:
    """Equal-entropy split: the exact solve against both closed-form approximations."""
    pairs = (
        list(pairs)
        if pairs is not None
        else [(1, 1), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (3, 9)]
    )
    nu_grid = (
        list(nu_grid) if nu_grid is not None else list(np.geomspace(1.0, 1000.0, 25))
    )
    rows = []
    for head, _, sol, (lead, refined) in _split_points(
        pairs, nu_grid, ("leading", "refined")
    ):
        n_a, exact = head["n_a"], sol.na_star
        rows.append(
            {
                **head,
                "nu_star": exact / n_a,
                "nu_star_leading": lead / n_a,
                "nu_star_refined": refined / n_a,
                "relerr_leading": abs(lead - exact) / exact,
                "relerr_refined": abs(refined - exact) / exact,
                "residual": sol.residual,
            }
        )
    if out_dir is not None:
        write_sweep(
            out_dir, "split_accuracy", _ACCURACY_COLUMNS, rows,
            {"pairs": pairs, "nu_grid": nu_grid},
        )
    return rows


def load_nastar_envelope() -> list[dict]:
    """Frozen accuracy grid for the closed-form splits, shipped with the package."""
    with resources.files("bosonic_bounds").joinpath("data/nastar_accuracy.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# randomized audit


@dataclass
class AuditReport:
    """Outcome of one randomized audit run.

    ``by_check`` maps each inequality name to its count, minimum margin,
    and the instance that produced that minimum (seed and generator kind,
    plus the serialized state for replay).  An instance may carry its
    ``state`` as a GaussianState or FockPureState; it is serialized only
    when it becomes a check's tightest instance or a violation.
    """

    seed: int
    counts: dict
    checks: int = 0
    violations: list = field(default_factory=list)
    by_check: dict = field(default_factory=dict)

    def record(self, chk: BoundCheck, instance: dict):
        self.checks += 1
        entry = self.by_check.setdefault(
            chk.provenance, {"count": 0, "min_margin": math.inf, "tightest": None}
        )
        entry["count"] += 1
        if chk.margin < entry["min_margin"]:
            entry["min_margin"] = chk.margin
            entry["tightest"] = _serialized(instance)
        if not chk.holds:
            self.violations.append(
                {"check": chk.provenance, "margin": chk.margin, **_serialized(instance)}
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "counts": self.counts,
            "checks": self.checks,
            "violations": self.violations,
            "by_check": {k: dict(v) for k, v in sorted(self.by_check.items())},
        }


def _serialized(instance: dict) -> dict:
    """A copy of an audit instance with its state object turned into a dict."""
    state = instance.get("state")
    if isinstance(state, GaussianState):
        return {**instance, "state": gaussian_to_dict(state)}
    if isinstance(state, FockPureState):
        return {**instance, "state": fock_to_dict(state)}
    return dict(instance)


# States per sampler call in the audit's Gaussian and classical slices.  A block
# is drawn as a stack, bit for bit like one-at-a-time draws wherever numpy
# sends each slice of a stack to the same BLAS and LAPACK routine as a lone
# matrix (checked by the tier-1 tests); bounding it keeps the stack's memory
# flat in the slice's count.
SAMPLE_BLOCK = 128
# A block is also held to fock.AMPLITUDE_BUDGET_BYTES.  The tracemalloc peak of
# an audit slice is 6.5 times the bytes of its states' 2n x 2n covariances
# (Gaussian slice; 3.0 for the classical one), measured on 128-state blocks
# at 16, 32 and 64 modes with BLAS on one thread.
_DRAW_PEAK_FACTOR = 7


def _state_bytes(modes: int) -> int:
    """Peak bytes one state of a stacked audit draw holds."""
    return _DRAW_PEAK_FACTOR * np.dtype(float).itemsize * (2 * modes) ** 2


def _drawn(sample, count, modes):
    """Yield count states from sample(size=k), in blocks that fit the byte budget."""
    block = min(SAMPLE_BLOCK, fock.AMPLITUDE_BUDGET_BYTES // _state_bytes(modes))
    for start in range(0, count, block):
        yield from sample(size=min(block, count - start))


def state_checks(state, bp: Bipartition | None, tau_check: float = TAU_CHECK) -> tuple:
    """(measures, checks) of one state: its measures and every inequality that applies.

    A GaussianState gives C^2, E_N and n_minus with the coherence-scale
    checks.  A FockPureState gives M_TN, E_F and, once E_F >= 3n/4, the
    noise floor mtn_floor, with its one total-noise check; it needs a split,
    so bp None raises SchemaError.  The key order is the CSV column order.
    """
    if isinstance(state, GaussianState):
        rep = gaussian_measures(state, bp)
        measures = {"qcs2": rep.qcs2, "log_negativity": rep.log_negativity, "n_minus": rep.n_minus}
        det_v = float(_lapack("det", state.cov, "d->d")) if state.n == 2 else math.nan
        return measures, coherence_scale_checks(
            rep.log_negativity, rep.qcs2, state.n, rep.n_minus, det_v, tau_check)
    if bp is None:
        raise SchemaError("bound-check on a Fock state needs >= 2 modes")
    mtn, ef = mtn_pure(state), entanglement_entropy(state, bp)
    measures = {"mtn": mtn, "ef": ef}
    floor = mtn_floor_from_entanglement(ef, state.n)
    if floor is not None:
        measures["mtn_floor"] = floor
    return measures, [entanglement_check(ef, mtn, bp.n_a, bp.n_b, tau_check)]


def _audit_gaussian(rng, count, modes, tau_check, report):
    bp = default_bipartition(modes)
    for st in _drawn(partial(random_gaussian_state, modes, rng, squeeze_max=1.2), count, modes):
        inst = {"kind": "gaussian", "modes": modes, "state": st}
        for chk in state_checks(st, bp, tau_check)[1]:
            report.record(chk, inst)


def _audit_classical(rng, count, modes, tau_check, report):
    bp = default_bipartition(modes)
    for st in _drawn(partial(random_classical_state, modes, rng), count, modes):
        inst = {"kind": "classical", "modes": modes, "state": st}
        en, _ = log_negativity_gaussian(st, bp)
        for chk in classical_checks(qcs2_gaussian(st), en, tau_check):
            report.record(chk, inst)


def _random_fock_pure(rng, modes, cutoff) -> FockPureState:
    z = rng.normal(size=(cutoff,) * modes) + 1j * rng.normal(size=(cutoff,) * modes)
    z /= np.linalg.norm(z)
    return FockPureState(z)


def _audit_fock(rng, count, tau_check, report):
    for idx in range(count):
        modes = 2 if idx % 2 == 0 else 3
        cutoff = 6 if modes == 2 else 4
        psi = _random_fock_pure(rng, modes, cutoff)
        inst = {"kind": "fock", "modes": modes, "cutoff": cutoff, "state": psi}
        for chk in state_checks(psi, default_bipartition(modes), tau_check)[1]:
            report.record(chk, inst)


def random_audit(
    n_states: int = 1000,
    modes: int = 2,
    seed: int | None = None,
    fock_states: int = 200,
    classical_states: int = 200,
    tau_check: float = TAU_CHECK,
) -> AuditReport:
    """Randomized no-violation audit of every bound in the package.

    Draws Gaussian states (mixed profile), classical states, and random pure
    Fock states, evaluates every applicable bound, and raises
    AuditViolationError carrying the seed and offending instance if any
    margin dips below -tau_check.  ``seed`` is None (read as 0) or an
    integer >= 0; anything else raises ValueError.  Results are
    deterministic in (seed, counts): the Gaussian, classical and Fock slices
    each draw from their own generator spawned from ``seed``, so one slice's
    count does not move another slice's states.  The Gaussian and
    classical slices draw their states in stacked blocks of at most
    SAMPLE_BLOCK, fewer where the block would pass
    fock.AMPLITUDE_BUDGET_BYTES; a mode count at which one state does not
    fit raises ValueError before any draw.  The random stream does not
    depend on the block size; the report does not either as long as numpy
    sends each slice of a stacked QR and matmul to the same BLAS and LAPACK
    routine as a lone matrix, which the tier-1 tests check.
    """
    if not _is_count(modes, 2):
        raise ValueError(f"the audit splits states in two, so it needs modes >= 2, got {modes}")
    need = _state_bytes(modes)
    if need > fock.AMPLITUDE_BUDGET_BYTES:
        raise ValueError(
            f"the audit at {modes} modes draws {need} bytes per state, "
            f"over the budget of {fock.AMPLITUDE_BUDGET_BYTES} bytes"
        )
    counts = {"gaussian": n_states, "classical": classical_states, "fock": fock_states}
    for kind, count in counts.items():
        if not _is_count(count, 0):
            raise ValueError(f"{kind} state count must be >= 0, got {count}")
    if seed is None:
        seed = 0
    elif not _is_count(seed, 0):
        raise ValueError(f"seed must be None or an integer >= 0, got {seed!r}")
    report = AuditReport(seed=seed, counts=counts)
    gauss_rng, classical_rng, fock_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    _audit_gaussian(gauss_rng, n_states, modes, tau_check, report)
    _audit_classical(classical_rng, classical_states, modes, tau_check, report)
    _audit_fock(fock_rng, fock_states, tau_check, report)
    if report.violations:
        raise AuditViolationError(
            f"{len(report.violations)} bound violation(s) found (seed {seed}); "
            f"first: {report.violations[0]}",
            seed=seed,
            instance=report.violations[0],
        )
    return report


# ---------------------------------------------------------------------------
# noise-vs-entanglement counterexample demo


def counterexample_demo(q: float = 0.5, k: int = 2) -> dict:
    """Three-mode demonstration that entanglement is not monotone in total noise.

    Returns the measured photon numbers, M_TN values, shared entanglement
    entropy, the pure-Gaussian bound the permuted state violates, and the
    uneven-split bound it still satisfies.
    """
    psi, psi_perm = make_counterexample_states(q, k)
    bp = Bipartition(1, 2)
    base, _ = state_checks(psi, bp)
    perm, (split,) = state_checks(psi_perm, bp)
    mtn_base, ef_base = base["mtn"], base["ef"]
    mtn_perm, ef_perm = perm["mtn"], perm["ef"]
    gauss = gaussian_pure_bound(mtn_perm, 1, 2)
    return {
        "q": q,
        "k": k,
        "mtn_base": mtn_base,
        "mtn_permuted": mtn_perm,
        "noise_drops": mtn_perm < mtn_base,
        "ef_base": ef_base,
        "ef_permuted": ef_perm,
        "entanglement_preserved": abs(ef_base - ef_perm) < 1e-9,
        "gaussian_pure_bound": gauss,
        "exceeds_gaussian_pure_bound": ef_perm > gauss,
        "gaussian_violation_margin": ef_perm - gauss,
        "split_bound": split.rhs,
        "split_bound_margin": split.margin,
        "satisfies_split_bound": split.holds,
    }
