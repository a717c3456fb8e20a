"""Sweep drivers, randomized audits, and deterministic CSV emission.

Every sweep writes a CSV (17 significant digits, fixed column order listed
with each driver) plus a JSON manifest echoing the resolved configuration,
seed, tolerances, and package version.  Identical configuration and seed
produce byte-identical files; no timestamps are recorded.

CSV column orders
-----------------
beam_splitter_sweep.csv:
    family, param, mtn_in, g_in, ef, ratio, cutoff, tail_mass, asymptote_gap
    The number families (number-split, twin-number) run in truncated Fock
    space.  The squeezed families (antisqueezed-vacuum, orthogonal-squeezed,
    tmsv-direct) have Gaussian inputs and pure Gaussian outputs, so they run
    on covariance matrices; their rows have cutoff 0 and tail_mass 0, meaning
    no truncation.
bound_profile.csv:
    n_a, n_b, mu, nu, ef_per_na, ef_per_na_asymptotic, gaussian_per_na, residual
split_accuracy.csv:
    n_a, n_b, mu, nu, nu_star, nu_star_leading, nu_star_refined,
    relerr_leading, relerr_refined, residual
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__ as _version
from .bounds import (
    _closed_form_root,
    coherence_scale_checks,
    even_split_check,
    g,
    gaussian_pure_bound,
    solve_na_star,
    uneven_split_check,
)
from .errors import AuditViolationError
from .fock import (
    FockPureState,
    fock_to_dict,
    apply_beam_splitter_fock,
    entanglement_entropy,
    make_counterexample_states,
    make_fock_number,
    mtn_pure,
)
from .gaussian import (
    apply_beam_splitter,
    entanglement_entropy_gaussian,
    gaussian_measures,
    gaussian_to_dict,
    log_negativity_gaussian,
    make_squeezed,
    make_tmsv,
    make_vacuum,
    qcs2_gaussian,
    random_classical_state,
    random_gaussian_state,
    tensor,
)
from .symplectic import Bipartition, default_bipartition
from .tolerances import TAU_CHECK, TAU_TRUNC

__all__ = [
    "AuditReport",
    "beam_splitter_sweep",
    "bound_profile_sweep",
    "split_accuracy_sweep",
    "random_audit",
    "counterexample_demo",
    "write_sweep",
    "load_nastar_envelope",
    "BS_FAMILIES",
]

_FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT_FMT % x
    return str(x)


def write_sweep(out_dir, name: str, columns, rows, params: dict) -> tuple[str, str]:
    """Write rows to <out_dir>/<name>.csv plus <name>.manifest.json.

    The manifest echoes ``params`` and the tolerances every sweep runs with;
    its ``seed`` is null because no sweep draws random numbers.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    man_path = os.path.join(out_dir, f"{name}.manifest.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
    with open(man_path, "w") as fh:
        manifest = {
            "version": _version,
            "sweep": name,
            "params": params,
            "seed": None,
            "tolerances": {"tau_check": TAU_CHECK, "tau_trunc": TAU_TRUNC},
            "columns": list(columns),
        }
        json.dump(manifest, fh, indent=1, sort_keys=True)
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


def _bs_row(family: str, param: float) -> dict:
    # ref is the large-input asymptote of E_F; None means the ratio itself
    # tends to 1, so the gap is measured there.
    if family in ("number-split", "twin-number"):
        N = int(param)
        twin = family == "twin-number"
        psi_in = make_fock_number((N, N) if twin else (N, 0))
        if N == 0:
            ref = 0.0
        elif twin:
            ref = math.log(math.pi * N / 4.0)
        else:
            ref = 0.5 * math.log(2.0 * math.pi * math.e * N)
        psi_out = apply_beam_splitter_fock(psi_in)
        mtn_in = mtn_pure(psi_in)
        ef = entanglement_entropy(psi_out, Bipartition(1, 1))
        cutoff, tail_mass = int(psi_in.cutoffs[0]), psi_out.tail_mass
    else:
        s = float(param)
        if family == "antisqueezed-vacuum":
            st_in = tensor(make_squeezed(2.0 * s), make_vacuum(1))
            ref = g(math.sinh(s) ** 2)
        elif family == "orthogonal-squeezed":
            st_in = tensor(make_squeezed(s), make_squeezed(s, math.pi / 2.0))
            ref = None
        elif family == "tmsv-direct":
            st_in = make_tmsv(s)
            ref = None
        else:
            raise ValueError(f"unknown family {family!r}")
        # tmsv-direct is already the state a balanced beam splitter makes
        # from an orthogonally squeezed pair.
        st_out = st_in if family == "tmsv-direct" else apply_beam_splitter(st_in)
        mtn_in = float(np.trace(st_in.cov)) / (2 * st_in.n)
        ef = entanglement_entropy_gaussian(st_out, Bipartition(1, 1))
        # Gaussian rows are exact: no Fock truncation, so no cutoff or tail.
        cutoff, tail_mass = 0, 0.0
    chk = even_split_check(ef, mtn_in, 2)
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
        "cutoff": cutoff,
        "tail_mass": tail_mass,
        "asymptote_gap": abs(ratio - 1.0) if ref is None else abs(ef - ref),
    }


def beam_splitter_sweep(
    families=None,
    number_grid=None,
    squeeze_grid=None,
    out_dir=None,
) -> list[dict]:
    """Entanglement generated by a balanced beam splitter, family by family.

    Number families sweep the photon count through the Fock-space beam
    splitter; their rows record the per-mode cutoff and the output tail
    mass, which is 0: |N,0> and |N,N> fill one block inside the cutoffs.
    Squeezed families sweep the squeezing parameter on covariance
    matrices: E_F comes from the symplectic spectrum of the output's
    reduced covariance and M_TN = Tr V / (2n) from the input's, with no
    truncation, so their rows have cutoff 0 and tail_mass 0.  Every row
    re-checks E_F <= g((M_TN - 1)/2).
    """
    families = tuple(families) if families else BS_FAMILIES
    for f in families:
        if f not in BS_FAMILIES:
            raise ValueError(f"unknown family {f!r}; choose from {BS_FAMILIES}")
    number_grid = list(number_grid) if number_grid else [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40]
    squeeze_grid = (
        list(squeeze_grid) if squeeze_grid else [0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5]
    )
    rows = []
    for family in families:
        grid = number_grid if family in ("number-split", "twin-number") else squeeze_grid
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
    pairs = list(pairs) if pairs else [(3, 3), (3, 6), (3, 9), (3, 15)]
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
        if pairs
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
    plus the serialized state for replay).
    """

    seed: int
    counts: dict
    checks: int = 0
    violations: list = field(default_factory=list)
    by_check: dict = field(default_factory=dict)

    def record(self, name: str, margin: float, holds: bool, instance: dict):
        self.checks += 1
        entry = self.by_check.setdefault(
            name, {"count": 0, "min_margin": math.inf, "tightest": None}
        )
        entry["count"] += 1
        if margin < entry["min_margin"]:
            entry["min_margin"] = margin
            entry["tightest"] = dict(instance)
        if not holds:
            self.violations.append({"check": name, "margin": margin, **instance})

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "counts": self.counts,
            "checks": self.checks,
            "violations": self.violations,
            "by_check": {k: dict(v) for k, v in sorted(self.by_check.items())},
        }


def _audit_gaussian(rng, count, modes, tau_check, report):
    bp = default_bipartition(modes)
    for _ in range(count):
        st = random_gaussian_state(modes, rng, squeeze_max=1.2)
        rep = gaussian_measures(st, bp)
        inst = {"kind": "gaussian", "modes": modes, "state": gaussian_to_dict(st)}
        for chk in coherence_scale_checks(
            rep.log_negativity, rep.qcs2, modes, rep.n_minus,
            float(np.linalg.det(st.cov)), tau_check=tau_check,
        ):
            report.record(chk.provenance, chk.margin, chk.holds, inst)


def _audit_classical(rng, count, modes, tau_check, report):
    bp = default_bipartition(modes)
    for _ in range(count):
        st = random_classical_state(modes, rng)
        inst = {"kind": "classical", "modes": modes, "state": gaussian_to_dict(st)}
        qcs2 = qcs2_gaussian(st)
        margin = 1.0 - qcs2
        report.record("classical states have QCS^2 <= 1", margin, margin >= -tau_check, inst)
        en, _ = log_negativity_gaussian(st, bp)
        report.record(
            "classical states have zero log-negativity", -en, en <= tau_check, inst
        )


def _random_fock_pure(rng, modes, cutoff) -> FockPureState:
    z = rng.normal(size=(cutoff,) * modes) + 1j * rng.normal(size=(cutoff,) * modes)
    z /= np.linalg.norm(z)
    return FockPureState(z)


def _audit_fock(rng, count, tau_check, report):
    for idx in range(count):
        modes = 2 if idx % 2 == 0 else 3
        cutoff = 6 if modes == 2 else 4
        psi = _random_fock_pure(rng, modes, cutoff)
        mtn = mtn_pure(psi)
        inst = {"kind": "fock", "modes": modes, "cutoff": cutoff,
                "state": fock_to_dict(psi)}
        if modes == 2:
            ef = entanglement_entropy(psi, Bipartition(1, 1))
            chk = even_split_check(ef, mtn, 2, tau_check=tau_check)
        else:
            ef = entanglement_entropy(psi, Bipartition(1, 2))
            chk = uneven_split_check(ef, mtn, 1, 2, tau_check=tau_check)
        report.record(chk.provenance, chk.margin, chk.holds, inst)


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
    margin dips below -tau_check.  Results are deterministic in (seed,
    counts): the Gaussian, classical and Fock slices each draw from their
    own generator spawned from ``seed``, so one slice's count does not move
    another slice's states.
    """
    if modes < 2:
        raise ValueError(f"the audit splits states in two, so it needs modes >= 2, got {modes}")
    counts = {"gaussian": n_states, "classical": classical_states, "fock": fock_states}
    for kind, count in counts.items():
        if count < 0:
            raise ValueError(f"{kind} state count must be >= 0, got {count}")
    if seed is None:
        seed = 0
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
    mtn_base = mtn_pure(psi)
    mtn_perm = mtn_pure(psi_perm)
    ef_base = entanglement_entropy(psi, bp)
    ef_perm = entanglement_entropy(psi_perm, bp)
    gauss = gaussian_pure_bound(mtn_perm, 1, 2)
    split = uneven_split_check(ef_perm, mtn_perm, 1, 2)
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
