"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage (normally started by run.py, from the root of a checkout):

    python3 bench/worker.py --workload W --seed S --workdir DIR [--trace] [--tiny]
    python3 bench/worker.py --probe

The first thing the worker does is import ``bosonic_bounds.cli`` and time
the import, then it times a reference kernel that gauges the host's speed;
with ``--probe`` it stops there.  It then builds the seeded inputs, times
each operation of the workload, checks each operation's output, times the
reference kernel again and prints one JSON line describing the repetition.  With ``--trace`` the
library's layers are wrapped (see tracing.py) and the line carries the
per-layer metrics of this repetition.
"""

import time

_T0 = time.perf_counter()
import bosonic_bounds.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bosonic_bounds.experiments as experiments  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

# Work in one repetition.  The full sizes keep a repetition at a second or
# two, so a run holds many fresh interpreters; the tiny sizes are for the
# benchmark's own tests.
SIZES = {
    "full": {
        "audit_states": 1000,
        "audit_slices": [],  # the CLI defaults: 200 classical and 200 Fock states
        "number_grid": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40],
        # s = 0.9 costs about 10 s and 850 MB per sweep, s = 1.0 about 2.5 GB,
        # and s >= 1.2 is killed on an 8 GB machine, so the grid stops at 0.8.
        "squeeze_grid": [0.1, 0.25, 0.4, 0.6, 0.8],
        "cycles": 3,
    },
    "tiny": {
        "audit_states": 100,
        "audit_slices": ["--classical-states", "20", "--fock-states", "20"],
        "number_grid": [1, 2, 4],
        "squeeze_grid": [0.1, 0.25],
        "cycles": 1,
    },
}

AUDIT_MODES = (2, 3, 4)


# One timed call into the library plus the check of what it produced.
Operation = collections.namedtuple("Operation", "label call check")


def _cli_call(argv):
    """Run cli.main on argv; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def gaussian_audit_ops(seed, workdir, size):
    rng = random.Random(seed)
    ops = []
    for modes in AUDIT_MODES:
        audit_seed = rng.randrange(2**31)
        out = os.path.join(workdir, f"audit-{modes}.json")
        argv = ["audit", "--states", str(size["audit_states"]), "--modes", str(modes),
                "--seed", str(audit_seed), "--output", out, *size["audit_slices"]]
        ops.append(Operation(
            f"audit m={modes}",
            lambda argv=argv: _cli_call(argv),
            lambda res, out=out, modes=modes: checks.audit_report(res, out, modes),
        ))
    return ops


def bs_sweep_ops(seed, workdir, size):
    families = list(experiments.BS_FAMILIES)
    random.Random(seed).shuffle(families)
    out = os.path.join(workdir, "sweep")
    expected_rows = 2 * len(size["number_grid"]) + 3 * len(size["squeeze_grid"])

    def call():
        # Looked up at call time so the tracing wrapper, when installed, is used.
        experiments.beam_splitter_sweep(
            families=families,
            number_grid=size["number_grid"],
            squeeze_grid=size["squeeze_grid"],
            out_dir=out,
        )
        return out

    return [Operation("beam-splitter sweep", call,
                      lambda res: checks.sweep_files(res, expected_rows))]


# Input states are built here with numpy, not with the library's own
# constructors, so the program under test receives only generated inputs.


def _random_gaussian_cov(rng, n):
    """Random physical covariance matrix S diag(nu) S^T (Euler form)."""
    def passive():
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        o = np.zeros((2 * n, 2 * n))
        o[0::2, 0::2], o[0::2, 1::2] = u.real, -u.imag
        o[1::2, 0::2], o[1::2, 1::2] = u.imag, u.real
        return o

    s = rng.uniform(0.0, 1.0, size=n)
    S = passive() @ np.diag(np.stack([np.exp(-s), np.exp(s)], axis=1).reshape(-1)) @ passive()
    nu = np.repeat(1.0 + rng.exponential(1.0, size=n), 2)
    V = S @ np.diag(nu) @ S.T
    return 0.5 * (V + V.T)


def _tmsv_cov(r):
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    V = np.eye(4) * ch
    V[0, 2] = V[2, 0] = sh
    V[1, 3] = V[3, 1] = -sh
    return V


def _write_gaussian(path, V):
    with open(path, "w") as fh:
        json.dump({"n": V.shape[0] // 2, "mean": [0.0] * V.shape[0], "cov": V.tolist()}, fh)


def _write_fock(path, amps, tail_mass):
    rows = [[*idx, float(z.real), float(z.imag)]
            for idx, z in np.ndenumerate(amps) if z != 0]
    with open(path, "w") as fh:
        json.dump({"n": amps.ndim, "cutoffs": list(amps.shape), "amps": rows,
                   "tail_mass": tail_mass}, fh)


def _fock_tmsv_amps(r, phase, cutoff):
    t = np.tanh(r)
    k = np.arange(cutoff)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[k, k] = t**k / np.cosh(r) * np.exp(1j * phase * k)
    return amps, float(t ** (2 * cutoff))


def cli_request_mix(seed, workdir):
    """The seeded list of (argv, check) pairs answered in one cycle.

    Path mix is fixed and only parameters vary with the seed: every padded
    two-mode number state has dimension 13^2 = 169 <= 256 (the dense
    qcs2_fock route), every three-mode one 8^3 = 512 > 256 (the M_TN route).
    """
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)
    reqs = []

    def state_requests(spec, measure_check):
        reqs.append((["measure", *spec], measure_check))
        reqs.append((["bound-check", *spec], checks.bounds_hold))

    for _ in range(2):
        a = pick.randint(0, 10)
        state_requests(["--fock", f"N={a},{10 - a}"], checks.fock_measure)
    for _ in range(2):
        a = pick.randint(0, 5)
        b = pick.randint(0, 5 - a)
        state_requests(["--fock", f"N={a},{b},{5 - a - b}"], checks.fock_measure)
    for modes in (2, 3, 4):
        path = os.path.join(workdir, f"gaussian-{modes}.json")
        _write_gaussian(path, _random_gaussian_cov(rng, modes))
        state_requests(["--gaussian", path], checks.gaussian_measure)
    r = float(rng.uniform(0.3, 1.0))
    path = os.path.join(workdir, "gaussian-tmsv.json")
    _write_gaussian(path, _tmsv_cov(r))
    state_requests(["--gaussian", path], lambda res, r=r: checks.gaussian_tmsv(res, r))
    path = os.path.join(workdir, "fock-tmsv.json")
    _write_fock(path, *_fock_tmsv_amps(0.3, float(rng.uniform(0.0, 2.0 * np.pi)), 10))
    state_requests(["--fock", path], checks.fock_measure)
    z = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    path = os.path.join(workdir, "fock-random3.json")
    _write_fock(path, z / np.linalg.norm(z), 0.0)
    state_requests(["--fock", path], checks.fock_measure)
    for _ in range(3):
        reqs.append((["beamsplitter", "--fock", "N=40,0"], checks.beamsplitter_single_arm))
        reqs.append((["beamsplitter", "--fock", "N=20,20"], checks.beamsplitter_twin))
    for _ in range(4):
        n_a = pick.randint(1, 3)
        n_b = n_a + pick.randint(1, 4)
        N = round(pick.uniform(10.0, 200.0), 3)
        reqs.append((["nastar", "--N", str(N), "--nA", str(n_a), "--nB", str(n_b),
                      "--method", "all"], lambda res, N=N: checks.nastar(res, N)))
    reqs.append((["counterexample"], checks.counterexample))
    figures = os.path.join(workdir, "figures")
    reqs.append((["figure", "--name", "bound-profile", "--out", figures],
                 lambda res: checks.figure(res, figures, "bound_profile")))
    reqs.append((["figure", "--name", "split-accuracy", "--out", figures],
                 lambda res: checks.figure(res, figures, "split_accuracy")))
    pick.shuffle(reqs)
    return reqs


def cli_requests_ops(seed, workdir, size):
    mix = cli_request_mix(seed, workdir)
    return [
        Operation(argv[0], lambda argv=argv: _cli_call(argv), check)
        for _ in range(size["cycles"])
        for argv, check in mix
    ]


WORKLOADS = {
    "gaussian-audit": gaussian_audit_ops,
    "bs-sweep": bs_sweep_ops,
    "cli-requests": cli_requests_ops,
}


def environment():
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_repetition(workload, seed, workdir, size, tracer=None):
    """Build the inputs, then time and check every operation."""
    ops = WORKLOADS[workload](seed, workdir, size)
    if tracer is not None:
        tracer.install()
    results = []
    for op in ops:
        # Any failure of one operation is counted against it, not fatal.
        items, problem = 0, None
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if problem is None:
            try:
                items, problem = op.check(res)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        results.append({"label": op.label, "seconds": elapsed, "items": items,
                        "problem": problem})
    if tracer is not None:
        tracer.uninstall()
    return results


def reference_s():
    """Seconds taken by a fixed kernel that does not use the library.

    The kernel mixes the two kinds of work the workloads do, small LAPACK
    calls through numpy and Python object churn, so a host that is slower
    for a while slows it about as much as it slows the workloads.
    """
    A = np.arange(64, dtype=float).reshape(8, 8) / 64.0
    A = A @ A.T + np.eye(8)
    t0 = time.perf_counter()
    for i in range(6000):
        np.linalg.eigvalsh(A)
        json.dumps({"k": i, "v": [i, i + 1.5], "s": "x" * (i % 7)})
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write this repetition's spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    line = {"import_s": IMPORT_S, "package": os.path.abspath(cli.__file__),
            "reference_s": [reference_s()]}
    if not args.probe:
        warnings.simplefilter("ignore")
        tracer = tracing.Tracer() if args.trace else None
        os.makedirs(args.workdir, exist_ok=True)
        size = SIZES["tiny" if args.tiny else "full"]
        line["ops"] = run_repetition(args.workload, args.seed, args.workdir, size, tracer)
        line["reference_s"].append(reference_s())
        line["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        line["env"] = environment()
        if tracer is not None:
            line["layers"] = tracing.layer_metrics(tracer)
            if args.spans:
                tracer.dump(args.spans)
    sys.stdout.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
