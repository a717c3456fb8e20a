import csv
import difflib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bosonic_bounds import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _freeze_outputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "freeze_outputs.py"
    spec = importlib.util.spec_from_file_location("freeze_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _lines(label: str, data: bytes) -> list[str]:
    """The lines to diff: one column=value line per cell of a one-row CSV."""
    text = data.decode()
    rows = list(csv.reader(io.StringIO(text))) if "--format csv" in label else []
    if len(rows) == 2:
        return [f"{column}={value}\n" for column, value in zip(*rows)]
    return text.splitlines(keepends=True)


def test_outputs_equal_the_golden_files(tmp_path, monkeypatch):
    """Golden files pin stability, not correctness; tools/freeze_outputs.py writes them."""
    tool = _freeze_outputs()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BOSONIC_BOUNDS_SEED", raising=False)
    got = tool.golden_outputs()
    stored = {p.name for p in tool.GOLDEN.iterdir()}
    problems = [f"{name}: stale golden file" for name in sorted(stored - got.keys())]
    for name, (label, data) in got.items():
        want = (tool.GOLDEN / name).read_bytes() if name in stored else None
        if want is None:
            problems.append(f"{label}: no golden file {name}")
        elif want != data:
            diff = difflib.unified_diff(_lines(label, want), _lines(label, data), "golden", "now")
            problems.append(f"{label}:\n" + ("".join(diff) or "bytes differ, lines do not\n"))
    assert not problems, (
        f"OpenBLAS core {tool.blas_core()} (tests/golden/ was frozen under SkylakeX): "
        "outputs differ from tests/golden/:\n" + "\n".join(problems)
    )


def test_blas_core_is_unknown_without_a_bundled_openblas(tmp_path, monkeypatch):
    tool = _freeze_outputs()
    assert tool.blas_core()
    monkeypatch.setattr(tool.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert tool.blas_core() == "unknown"


@pytest.mark.parametrize("modes, instances", [(2, 6), (3, 4), (4, 4)])
def test_audit_tightest_instances_replay_through_bound_check(modes, instances, tmp_path, capsys):
    """bound-check on each Gaussian and Fock tightest instance gives its audit margin exactly.

    Both evaluate the state with experiments.state_checks on the default split,
    and a state file holds the floats of the audit report unchanged.  Classical
    instances do not replay: their two checks come from bounds.classical_checks,
    which applies only because the classical generator made the state, and
    bound-check, given the same covariance, runs the coherence-scale checks of
    a Gaussian state instead.
    """
    report = json.loads((GOLDEN / f"audit_--states_1000_--modes_{modes}_--seed_11").read_text())
    replayed = 0
    for provenance, entry in report["by_check"].items():
        inst = entry["tightest"]
        if inst["kind"] == "classical":
            continue
        path = tmp_path / f"{inst['kind']}.json"
        path.write_text(json.dumps(inst["state"]))
        assert cli.main(["bound-check", f"--{inst['kind']}", str(path)]) == 0
        checks = {c["provenance"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks[provenance]["margin"] == entry["min_margin"], provenance
        replayed += 1
    assert replayed == instances


def test_the_exit_3_audit_violation_replays_through_bound_check(tmp_path, capsys):
    """bound-check at the audit's --tau-check gives the reported violation exactly.

    The exit-3 report names one instance, the first check to fail: a two-mode
    Gaussian state, whose floats the report holds unchanged.
    """
    (path,) = GOLDEN.glob("audit_*_--tau-check_-0.1_exit_code,_stderr_")
    head, body = path.read_text().split("\n", 1)
    assert head == "exit 3"
    inst = json.loads(body)["instance"]
    assert (inst["kind"], inst["modes"]) == ("gaussian", 2)
    state = tmp_path / "violation.json"
    state.write_text(json.dumps(inst["state"]))
    assert cli.main(["bound-check", "--gaussian", str(state), "--tau-check", "-0.1"]) == 0
    checks = {c["provenance"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[inst["check"]]["margin"] == inst["margin"]
    assert checks[inst["check"]]["holds"] is False


_SECOND_KERNEL_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import freeze_outputs as tool
core = tool.blas_core()
got = tool.golden_outputs() if core == "Haswell" else {}
differ = sorted(label for name, (label, data) in got.items()
                if not (tool.GOLDEN / name).is_file() or (tool.GOLDEN / name).read_bytes() != data)
print(json.dumps({"core": core, "differ": differ}))
"""


def test_under_a_second_blas_kernel_only_the_audit_outputs_differ(tmp_path):
    """The cross-kernel contract: a named state's outputs do not follow the kernel.

    The audits' sampled covariances come from BLAS products, whose last bits
    are the kernel's, so their outputs may differ from tests/golden/ (frozen
    under SkylakeX); no other output may.  The commands run in a child
    process with OPENBLAS_CORETYPE=Haswell; the test is skipped where the
    child does not get that kernel (no AVX2, or a numpy without its bundled
    OpenBLAS).
    """
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "BOSONIC_BOUNDS_SEED"}
    env["OPENBLAS_CORETYPE"] = "Haswell"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SECOND_KERNEL_RUN, str(root / "tools")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result["core"] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell gave the kernel {result['core']}")
    assert [label for label in result["differ"] if not label.startswith("audit")] == []
