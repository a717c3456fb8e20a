"""Command line front end.

Subcommands
-----------
measure         measures of one state (file or inline spec)
bound-check     evaluate every applicable inequality on one state
nastar          equal-entropy photon split between two mode groups
beamsplitter    send a Fock state through a balanced beam splitter
figure          write a sweep CSV + manifest into a directory
audit           randomized no-violation audit over seeded state families
counterexample  three-mode noise-vs-entanglement counterexample

Exit codes: 0 success, 2 validation or input errors, 3 audit found a
bound violation.  Output is strict JSON (no NaN or Infinity), or one CSV
row with --format csv, to stdout or --output.  Entropies are in nats;
--ebits on measure, bound-check, beamsplitter and counterexample divides
entanglement quantities by ln 2.  BOSONIC_BOUNDS_SEED provides the seed
when --seed is absent.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (
    coherence_scale_checks,
    even_split_check,
    g,
    mtn_floor_from_entanglement,
    na_star_asymptotic,
    solve_na_star,
    uneven_split_check,
)
from .errors import AuditViolationError, CutoffOverflowError, SchemaError
from .experiments import (
    beam_splitter_sweep,
    bound_profile_sweep,
    counterexample_demo,
    random_audit,
    split_accuracy_sweep,
)
from .fock import (
    apply_beam_splitter_fock,
    entanglement_entropy,
    entanglement_measures_pure,
    load_fock,
    make_fock_number,
    mtn_pure,
    qcs2_fock,
    total_noise,
)
from .gaussian import gaussian_measures, load_gaussian
from .symplectic import Bipartition, default_bipartition
from .tolerances import TAU_CHECK, TAU_TRUNC

# Keys holding entanglement entropies or logarithmic negativities (nats);
# --ebits divides exactly these.  Raw inequality pieces inside "checks" keep
# their native units.
_EBIT_KEYS = {
    "ef",
    "g_in",
    "log_negativity",
    "ef_base",
    "ef_permuted",
    "gaussian_pure_bound",
    "gaussian_violation_margin",
    "split_bound",
    "split_bound_margin",
}


def _bipartition(args, n: int) -> Bipartition | None:
    """The --bipartition split checked against n modes, else the default split."""
    if not args.bipartition:
        return default_bipartition(n)
    text = args.bipartition
    try:
        a, b = text.split(":")
        bp = Bipartition(int(a), int(b))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bipartition must look like '1:2', got {text!r}") from exc
    if bp.n != n:
        raise SchemaError(
            f"bipartition {text} covers {bp.n} modes but the state has {n}"
        )
    return bp


def _tolerance(text: str) -> float:
    """argparse type of --tau-check: a finite number.

    NaN would make every comparison against the tolerance false.  A negative
    --tau-check asks each check for a margin of at least its size.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _budget(text: str) -> float:
    """argparse type of --tau-trunc and of nastar's --N: a finite number >= 0.

    A negative tail budget is one no state meets, and some commands never
    compare against it, so it is refused here rather than late or never.
    A photon budget is a mean photon number, so it is finite and >= 0 too.
    """
    value = _tolerance(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of the audit's state counts: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _parse_fock_arg(text: str):
    """A path to a Fock JSON file, or an inline number state 'N=k1,k2,...'."""
    if text.startswith("N="):
        try:
            occ = tuple(int(tok) for tok in text[2:].split(","))
        except ValueError as exc:
            raise SchemaError(
                f"inline Fock spec must look like 'N=10,0', got {text!r}"
            ) from exc
        if not occ or any(k < 0 for k in occ):
            raise SchemaError(f"occupation numbers must be >= 0, got {text!r}")
        return make_fock_number(occ)
    if not os.path.exists(text):
        raise SchemaError(f"no such Fock state file: {text}")
    return load_fock(text)


def _convert_units(payload, ebits: bool):
    if not ebits:
        return payload
    if isinstance(payload, dict):
        return {
            k: (v / math.log(2.0) if k in _EBIT_KEYS and isinstance(v, float) else
                _convert_units(v, ebits))
            for k, v in payload.items()
        }
    if isinstance(payload, list):
        return [_convert_units(v, ebits) for v in payload]
    return payload


def _emit(payload: dict, args) -> None:
    payload = _convert_units(payload, getattr(args, "ebits", False))
    payload["unit"] = "ebits" if getattr(args, "ebits", False) else "nats"
    if args.format == "csv":
        flat = _flatten(payload)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in flat.values()])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value, allow_nan=False)
        else:
            flat[name] = value
    return flat


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("BOSONIC_BOUNDS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SchemaError(
                f"BOSONIC_BOUNDS_SEED must be an integer, got {env!r}"
            ) from exc
    return 0


def _load_fock(args):
    """The --fock state, with --tau-trunc set to TAU_TRUNC when not given."""
    if not args.fock:
        raise SchemaError("--fock is required")
    if args.tau_trunc is None:
        args.tau_trunc = TAU_TRUNC
    return _parse_fock_arg(args.fock)


def _load_state(args):
    """Return ('gaussian', state) or ('fock', state) from --gaussian/--fock.

    Exactly one is allowed.  --tau-trunc bounds a Fock truncation, so with
    --gaussian it is an error rather than a value echoed and never read.
    """
    if args.gaussian and args.fock:
        raise SchemaError("give one of --gaussian or --fock, not both")
    if args.gaussian:
        if args.tau_trunc is not None:
            raise SchemaError(
                "--tau-trunc applies only to --fock input; a Gaussian state is not truncated"
            )
        return "gaussian", load_gaussian(args.gaussian)
    if args.fock:
        return "fock", _load_fock(args)
    raise SchemaError("one of --gaussian or --fock is required")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_measure(args) -> int:
    kind, state = _load_state(args)
    bp = _bipartition(args, state.n)
    if kind == "gaussian":
        rep = gaussian_measures(state, bp)
        payload = rep.to_dict()
    else:
        tau = args.tau_trunc
        noise = total_noise(state, tau=tau)
        payload = {
            "modes": state.n,
            "cutoffs": list(state.cutoffs),
            "tail_mass": state.tail_mass,
            "qcs2": qcs2_fock(state),
            "total_noise": noise,
            "mtn": noise / state.n,
        }
        if bp is not None:
            payload["ef"], payload["log_negativity"] = entanglement_measures_pure(
                state, bp, tau=tau
            )
    payload["config"] = _config_echo(args, kind=kind)
    _emit(payload, args)
    return 0


def _cmd_bound_check(args) -> int:
    kind, state = _load_state(args)
    bp = _bipartition(args, state.n)
    tau_check = args.tau_check
    if kind == "gaussian":
        rep = gaussian_measures(state, bp)
        payload = {"qcs2": rep.qcs2, "log_negativity": rep.log_negativity,
                   "n_minus": rep.n_minus}
        checks = coherence_scale_checks(
            rep.log_negativity, rep.qcs2, state.n, rep.n_minus,
            float(np.linalg.det(state.cov)), tau_check=tau_check,
        )
    else:
        if bp is None:
            raise SchemaError("bound-check on a Fock state needs >= 2 modes")
        tau = args.tau_trunc
        mtn = mtn_pure(state, tau=tau)
        ef = entanglement_entropy(state, bp, tau=tau)
        payload = {"mtn": mtn, "ef": ef}
        checks = []
        if bp.n_a == bp.n_b:
            checks.append(even_split_check(ef, mtn, state.n, tau_check=tau_check))
        checks.append(uneven_split_check(ef, mtn, bp.n_a, bp.n_b, tau_check=tau_check))
        floor = mtn_floor_from_entanglement(ef, state.n)
        if floor is not None:
            payload["mtn_floor"] = floor
    payload["checks"] = [c.to_dict() for c in checks]
    payload["all_hold"] = all(c.holds for c in checks)
    payload["config"] = _config_echo(args, kind=kind)
    _emit(payload, args)
    return 0


def _cmd_nastar(args) -> int:
    methods = (
        ["bisection", "leading", "refined"] if args.method == "all" else [args.method]
    )
    payload = {"N": args.N, "n_a": args.nA, "n_b": args.nB, "solutions": {}}
    for method in methods:
        reason = None
        if method == "bisection":
            sol = solve_na_star(args.N, args.nA, args.nB)
        elif args.N == 0.0:
            # The closed forms refuse N = 0, where the split (0, 0) still
            # exists; solve_na_star checks the mode counts.
            sol = replace(solve_na_star(0.0, args.nA, args.nB), method=f"asymptotic-{method}")
            reason = "closed form is asymptotic in N and undefined at N = 0"
        else:
            sol = na_star_asymptotic(args.N, args.nA, args.nB, method)
            if not 0.0 <= sol.na_star <= sol.total:  # no split of N photons
                reason = f"closed form gives N_A* = {sol.na_star!r}, outside [0, N]"
        entry = payload["solutions"][method] = sol.to_dict()
        if reason is not None:
            entry.update(na_star=None, nb_star=None, residual=None, reason=reason)
    payload["config"] = _config_echo(args)
    _emit(payload, args)
    return 0


def _cmd_beamsplitter(args) -> int:
    state = _load_fock(args)
    if state.n != 2:
        raise SchemaError(
            f"the balanced beam splitter acts on 2 modes, state has {state.n}"
        )
    tau = args.tau_trunc
    mtn_in = mtn_pure(state, tau=tau)
    out = apply_beam_splitter_fock(state, tau=tau)
    g_in = g((mtn_in - 1.0) / 2.0)
    ef, log_negativity = entanglement_measures_pure(out, Bipartition(1, 1), tau=tau)
    payload = {
        "mtn_in": mtn_in,
        "g_in": g_in,
        "ef": ef,
        "ratio": ef / g_in if g_in > 0.0 else 1.0,
        "log_negativity": log_negativity,
        "tail_mass": out.tail_mass,
        "cutoffs": list(out.cutoffs),
        "config": _config_echo(args),
    }
    _emit(payload, args)
    return 0


def _cmd_figure(args) -> int:
    written = []
    targets = (
        ["beamsplitter-sweep", "bound-profile", "split-accuracy"]
        if args.name == "all"
        else [args.name]
    )
    for name in targets:
        if name == "beamsplitter-sweep":
            beam_splitter_sweep(out_dir=args.out)
            written.append("beam_splitter_sweep.csv")
        elif name == "bound-profile":
            bound_profile_sweep(out_dir=args.out)
            written.append("bound_profile.csv")
        elif name == "split-accuracy":
            split_accuracy_sweep(out_dir=args.out)
            written.append("split_accuracy.csv")
    _emit({"written": written, "out_dir": args.out, "config": _config_echo(args)}, args)
    return 0


def _cmd_audit(args) -> int:
    seed = _seed_from(args)
    try:
        report = random_audit(
            n_states=args.states,
            modes=args.modes,
            seed=seed,
            fock_states=args.fock_states,
            classical_states=args.classical_states,
            tau_check=args.tau_check,
        )
    except AuditViolationError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": "bound violation", "seed": exc.seed, "instance": exc.instance},
                indent=1,
                sort_keys=True,
                default=str,
            )
            + "\n"
        )
        return 3
    payload = report.to_dict()
    payload["config"] = _config_echo(args, seed=seed)
    _emit(payload, args)
    return 0


def _cmd_counterexample(args) -> int:
    payload = counterexample_demo(args.q, args.k)
    payload["config"] = _config_echo(args)
    _emit(payload, args)
    return 0


def _config_echo(args, **extra) -> dict:
    skip = {"func", "output", "format", "ebits"}
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not callable(v)
    }
    cfg.update(extra)
    cfg["version"] = __version__
    return cfg


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-bounds",
        description="Entanglement and nonclassicality measures and bounds "
        "for multimode bosonic states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, state=False, checks=False):
        p.add_argument("--output", help="write JSON/CSV here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if state:
            p.add_argument("--gaussian", help="Gaussian state JSON file")
            p.add_argument("--bipartition", help="mode split like '1:1'")
        if checks:
            p.add_argument("--tau-check", type=_tolerance, default=TAU_CHECK,
                           dest="tau_check", help="bound-violation tolerance")

    p = sub.add_parser("measure", help="measures of one state")
    common(p, state=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("bound-check", help="evaluate every applicable inequality")
    common(p, state=True, checks=True)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("nastar", help="equal-entropy photon split")
    common(p)
    p.add_argument("--N", type=_budget, required=True, help="total photon budget")
    p.add_argument("--nA", type=int, required=True, help="modes in group A")
    p.add_argument("--nB", type=int, required=True, help="modes in group B")
    p.add_argument(
        "--method",
        choices=["bisection", "leading", "refined", "all"],
        default="bisection",
    )
    p.set_defaults(func=_cmd_nastar)

    p = sub.add_parser("beamsplitter", help="balanced beam splitter on a Fock state")
    common(p)
    p.set_defaults(func=_cmd_beamsplitter)

    p = sub.add_parser("figure", help="write sweep CSV + manifest")
    common(p)
    p.add_argument(
        "--name",
        choices=["beamsplitter-sweep", "bound-profile", "split-accuracy", "all"],
        required=True,
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("audit", help="randomized no-violation audit")
    common(p, checks=True)
    p.add_argument("--states", type=_count, default=1000, help="Gaussian draws")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--fock-states", type=_count, default=200, dest="fock_states")
    p.add_argument("--classical-states", type=_count, default=200, dest="classical_states")
    p.add_argument("--seed", type=int, help="falls back to BOSONIC_BOUNDS_SEED, then 0")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "counterexample",
        help="three-mode demonstration that entanglement is not monotone in total noise",
    )
    common(p)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_counterexample)

    for name in ("measure", "bound-check", "beamsplitter"):
        sub.choices[name].add_argument(
            "--fock", help="Fock state JSON file or inline number state 'N=10,0'")
        # None until a Fock state is loaded, so --gaussian can refuse it.
        sub.choices[name].add_argument("--tau-trunc", type=_budget, dest="tau_trunc",
                                       help=f"Fock truncation tail budget (default {TAU_TRUNC:g})")
    # Only the outputs of these commands hold an _EBIT_KEYS value.
    for name in ("measure", "bound-check", "beamsplitter", "counterexample"):
        sub.choices[name].add_argument("--ebits", action="store_true",
                                       help="report entanglement in ebits instead of nats")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first main call, not at import.

    Reusing it is safe: parse_args makes a fresh Namespace each call, no
    action holds a mutable default, and the environment (the audit's seed)
    is read when a command runs, not when the parser is built.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, CutoffOverflowError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
