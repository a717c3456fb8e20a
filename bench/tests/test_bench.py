"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    report = json.loads(report_line)["report"]
    assert report["failed_frac"] == 0.0
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"} <= set(
        report["env"])
    if trace:
        assert report["inexact_counts"] == []


def test_declared_workloads_are_the_implemented_ones():
    import worker

    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == list(run.WORKLOADS) == list(worker.WORKLOADS)


def test_layer_names_match_the_declaration():
    declared = [m["name"] for m in DECLARED["per_layer"]]
    assert declared == list(run.LAYER_MAP)
    produced = set(tracing.layer_metrics(tracing.Tracer())) | {"tracing_overhead_frac"}
    assert produced == set(declared)


def test_timings_are_scaled_to_the_reference_speed():
    # A host at half speed: the reference kernel takes twice its nominal time.
    rep = {"reference_s": [2 * run.REFERENCE_S, 2 * run.REFERENCE_S],
           "ops": [{"seconds": 0.2, "items": 10}, {"seconds": 0.4, "items": 20}]}
    assert run.speed_factor(rep) == pytest.approx(0.5)
    assert run.items_per_s(rep) == pytest.approx(30 / 0.3)
    assert run.latency_ms(rep, 0.5) == pytest.approx(150.0)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["b", 0, 3.0, 6.0],   # overlaps a: the union [1, 6] counts once
        ["c", 0, 8.0, 12.0],  # runs past its parent: clipped to [8, 10]
        ["a1", 1, 2.0, 3.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_merge_keeps_exact_counts_and_flags_differences():
    reps = [{"x.calls": 4, "x.self_s": 1.0}, {"x.calls": 4, "x.self_s": 3.0},
            {"x.calls": 5, "x.self_s": 2.0}]
    merged, mismatched = tracing.merge_repetitions(reps)
    assert merged == {"x.calls": 4, "x.self_s": 2.0}
    assert mismatched == ["x.calls"]


@pytest.fixture
def tracer():
    import bosonic_bounds.cli  # noqa: F401  (loads every layer)

    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_wrappers_reach_every_binding_site_and_keep_the_block_cache(tracer):
    import bosonic_bounds
    from bosonic_bounds import cli, experiments, fock

    for site in (fock, experiments, bosonic_bounds):
        assert site.apply_beam_splitter_fock.__wrapped__ is not None
    assert cli.qcs2_fock.__wrapped__ is fock.qcs2_fock.__wrapped__
    cached = fock.beam_splitter_block.__wrapped__
    before = cached.cache_info()
    fock.beam_splitter_block(7)
    fock.beam_splitter_block(7)
    after = cached.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 2
    assert after.hits - before.hits >= 1
    assert tracer.observed["fock.beam_splitter_block"] == [7, 7]


def test_uninstall_restores_the_library():
    from bosonic_bounds import cli, fock

    original = fock.qcs2_fock
    t = tracing.Tracer()
    t.install()
    assert cli.qcs2_fock is not original
    t.uninstall()
    assert cli.qcs2_fock is original and fock.qcs2_fock is original


def test_three_mode_audit_per_state_counts(tracer, tmp_path):
    """The seed implementation takes 4 spectra and 5 validations per Gaussian state.

    A change that removes the redundant spectra moves these counts and must
    update the expected values here.
    """
    from bosonic_bounds import cli

    code = cli.main(["audit", "--states", "40", "--modes", "3", "--seed", "5",
                     "--fock-states", "0", "--classical-states", "0",
                     "--output", str(tmp_path / "audit.json")])
    assert code == 0
    m = tracing.layer_metrics(tracer)
    assert m["gaussian.gaussian_measures.calls"] == 40
    assert m["symplectic.spectra_per_state"] == 4
    assert m["symplectic.validations_per_state"] == 5


def test_checks_reject_wrong_outputs():
    ok = (0, json.dumps({"qcs2": 3.0, "mtn": 3.0}))
    assert checks.fock_measure(ok) == (1, None)
    assert checks.fock_measure((0, json.dumps({"qcs2": 3.1, "mtn": 3.0})))[1]
    with pytest.raises(ValueError):
        checks.fock_measure((2, ""))
    wrong = {"mtn_base": 7 / 3, "mtn_permuted": 2.3, "ef_base": 2 * math.log(2),
             "ef_permuted": 2 * math.log(2)}
    assert checks.counterexample((0, json.dumps(wrong)))[1]


def test_binomial_entropy_reference():
    assert checks.binomial_entropy(0) == 0.0
    assert checks.binomial_entropy(1) == pytest.approx(math.log(2.0))
    assert checks.binomial_entropy(2) == pytest.approx(1.5 * math.log(2.0))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "bs-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
