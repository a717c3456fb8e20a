"""Regenerate tests/golden/: one file per output of the documented CLI commands.

Runs each command in-process, in a temporary working directory so every
path it echoes is the same relative name on every run, with
BOSONIC_BOUNDS_SEED removed from the environment.  An output is a command's
stdout (its ``--output`` file where it names one), or for a command that
must fail, its exit code and stderr, plus each file ``figure --name all``
writes.  It goes to ``tests/golden/<name>``, ``<name>`` being its label with
every run of characters outside ``[A-Za-z0-9=.,-]`` replaced by ``_``.  Files
no command writes are removed; if a command exits with an unexpected code,
nothing is written.  tests/test_golden_outputs.py compares the same outputs
with these files.  The stored files were frozen under OpenBLAS's SkylakeX
kernel; other kernels round some outputs differently, so a failing
comparison starts with the kernel in use (``blas_core``).  Run from the
repository root:

    python tools/freeze_outputs.py
"""

import contextlib
import ctypes
import io
import os
import pathlib
import re
import tempfile

import numpy as np

from bosonic_bounds import cli
from bosonic_bounds.fock import make_fock_tmsv, save_fock
from bosonic_bounds.gaussian import make_squeezed, make_tmsv, save_gaussian

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

TMSV_FILE = "tmsv-0.8.json"
# Cutoff 10 and tail 1.9e-11; the beam splitter widens it to 19.
FOCK_FILE = "fock-tmsv-0.3.json"
FOCK_SPECS = ("N=3,7", "N=2,2", "N=40,0")
# E_F = 2.02 >= 3n/4, so bound-check reports the noise floor mtn_floor.
FLOOR_FILE = "fock-tmsv-1.2.json"
# One mode: no split, so no log-negativity and no bound-check inequality.
SQUEEZED_FILE = "squeezed-0.5.json"
# (N, nA, nB): an ordinary split, then N = 0 and a power past the float range,
# where the closed forms give a null split and a reason.
NASTAR_SPLITS = (("100", "1", "3"), ("0", "1", "2"), ("1", "1000", "1"))
# The output options the commands above leave at their defaults.  The CSV
# rows flatten a report's tuple fields, a list of checks in converted units,
# and nested solutions holding nulls.
OPTION_ARGVS = (
    ["measure", "--fock", "N=3,7", "--format", "csv"],
    ["beamsplitter", "--fock", "N=40,0", "--ebits"],
    ["measure", "--gaussian", TMSV_FILE, "--format", "csv"],
    ["bound-check", "--gaussian", TMSV_FILE, "--format", "csv", "--ebits"],
    ["nastar", "--N", "1", "--nA", "1000", "--nB", "1", "--method", "all", "--format", "csv"],
    ["bound-check", "--fock", "N=2,2", "--format", "csv"],  # the `kind` echo as a column
    ["counterexample", "--format", "csv", "--ebits"],
    # --output holds the row, so the file is kept, not the empty stdout.
    ["figure", "--name", "bound-profile", "--out", "figs", "--format", "csv",
     "--output", "fig.csv"],
    # Three modes, so total_noise = M_TN * n is not an exact power-of-two scaling.
    ["measure", "--fock", "N=1,2,3"],
)


def blas_core() -> str:
    """The OpenBLAS kernel numpy runs on, read from its bundled library, or "unknown"."""
    for lib in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))  # the library numpy loaded, not a second copy
        except OSError:
            continue
        getter = getattr(dll, "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return "unknown"


def commands() -> list[tuple[str, list[str], int]]:
    """(label, argv, exit code) of every golden command, in output order."""
    cmds = [("figure --name all", ["figure", "--name", "all", "--out", "figures"], 0)]
    for modes in (2, 3, 4):
        argv = ["audit", "--states", "1000", "--modes", str(modes), "--seed", "11"]
        cmds.append((" ".join(argv), argv, 0))
    # A negative tolerance makes some check fail: the exit-3 report on stderr.
    argv = ["audit", "--states", "20", "--seed", "3", "--fock-states", "4",
            "--classical-states", "4", "--tau-check", "-0.1"]
    cmds.append((" ".join(argv) + " [exit code, stderr]", argv, 3))
    # No --seed and no BOSONIC_BOUNDS_SEED: the seed 0 the command chose is echoed.
    argv = ["audit", "--states", "50", "--format", "csv"]
    cmds.append((" ".join(argv), argv, 0))
    for sub in ("measure", "bound-check", "beamsplitter"):
        for spec in FOCK_SPECS:
            cmds.append((f"{sub} --fock {spec}", [sub, "--fock", spec], 0))
        argv = [sub, "--fock", FOCK_FILE]
        cmds.append((" ".join(argv), argv, 0))
        argv = [sub, "--fock", FOCK_FILE, "--tau-trunc", "1e-12"]  # below the file's tail
        cmds.append((" ".join(argv) + " [exit code, stderr]", argv, 2))
        if sub != "beamsplitter":  # the beam splitter takes Fock input only
            cmds.append((f"{sub} --gaussian {TMSV_FILE}", [sub, "--gaussian", TMSV_FILE], 0))
    cmds += [
        (" ".join(argv), argv, 0)
        for argv in (["bound-check", "--fock", FLOOR_FILE],
                     ["measure", "--gaussian", SQUEEZED_FILE],
                     ["bound-check", "--gaussian", SQUEEZED_FILE])
    ]
    for flag in ("--gaussian", "--fock"):  # a missing file reads alike for both kinds
        argv = ["measure", flag, "nope.json"]
        cmds.append((" ".join(argv) + " [exit code, stderr]", argv, 2))
    for n, n_a, n_b in NASTAR_SPLITS:
        argv = ["nastar", "--N", n, "--nA", n_a, "--nB", n_b, "--method", "all"]
        cmds.append((" ".join(argv), argv, 0))
    cmds += [(" ".join(argv), argv, 0) for argv in OPTION_ARGVS]
    cmds.append(("counterexample", ["counterexample"], 0))
    return cmds


def outputs():
    """Yield (label, bytes) for every output, run in the current directory."""
    save_gaussian(make_tmsv(0.8), TMSV_FILE)
    save_fock(make_fock_tmsv(0.3), FOCK_FILE)
    save_fock(make_fock_tmsv(1.2), FLOOR_FILE)
    save_gaussian(make_squeezed(0.5), SQUEEZED_FILE)
    for label, argv, want in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != want:
            raise SystemExit(f"{label}: exit code {code}, expected {want}: {err.getvalue()}")
        if want != 0:
            yield label, f"exit {code}\n{err.getvalue()}".encode()
        elif "--output" in argv:
            path = argv[argv.index("--output") + 1]
            with open(path, "rb") as fh:
                yield f"{label}: {path}", fh.read()
        else:
            yield label, out.getvalue().encode()
        if argv[:3] == ["figure", "--name", "all"]:
            for name in sorted(os.listdir("figures")):
                with open(os.path.join("figures", name), "rb") as fh:
                    yield f"{label}: {name}", fh.read()


def golden_outputs() -> dict[str, tuple[str, bytes]]:
    """{golden file name: (label, bytes)} of every output, run in the current directory."""
    got = {}
    for label, data in outputs():
        name = re.sub(r"[^A-Za-z0-9=.,-]+", "_", label)
        assert name not in got, f"{label!r} and {got[name][0]!r} share the name {name}"
        got[name] = label, data
    return got


def main() -> None:
    os.environ.pop("BOSONIC_BOUNDS_SEED", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        got = golden_outputs()  # raises before any write if a command exits unexpectedly
        os.chdir(cwd)
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        if path.name not in got:
            path.unlink()
    for name, (_, data) in got.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(got)} files to {GOLDEN}")


if __name__ == "__main__":
    main()
