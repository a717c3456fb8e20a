import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from bosonic_bounds import (
    Bipartition,
    cli,
    fock,
    gaussian_measures,
    make_fock_tmsv,
    make_tmsv,
    make_vacuum,
    na_star_asymptotic,
    save_gaussian,
    solve_na_star,
    theorem_symmetric_bound,
)
from bosonic_bounds.tolerances import TAU_CHECK, TAU_ROOT, TAU_TRUNC

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == cli.__version__


def test_measure_gaussian_vacuum(tmp_path, capsys):
    path = tmp_path / "vacuum.json"
    save_gaussian(make_vacuum(2), path)
    payload = run_json(["measure", "--gaussian", str(path)], capsys)
    assert payload["qcs2"] == pytest.approx(1.0, abs=1e-12)
    assert payload["ftot"] == payload["qcs2"]
    assert payload["log_negativity"] == 0.0
    assert payload["n_minus"] == 0
    assert payload["symplectic_spectrum"] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert payload["unit"] == "nats"


def test_measure_fock_number_state(capsys):
    payload = run_json(["measure", "--fock", "N=3,0"], capsys)
    assert payload["mtn"] == pytest.approx(4.0, abs=1e-10)
    assert payload["qcs2"] == pytest.approx(payload["mtn"], abs=1e-10)


def test_beamsplitter_matches_binomial_entropy(capsys):
    payload = run_json(["beamsplitter", "--fock", "N=10,0"], capsys)
    assert payload["ef"] == pytest.approx(1.8759536052468004, abs=1e-9)
    assert payload["ratio"] == pytest.approx(payload["ef"] / payload["g_in"], rel=1e-12)


@pytest.mark.parametrize(
    "argv", [["measure", "--fock", "N=3,1"], ["beamsplitter", "--fock", "N=3,1"]],
    ids=["measure", "beamsplitter"],
)
def test_fock_request_takes_one_schmidt_decomposition(argv, capsys, monkeypatch):
    calls = []
    original = fock.schmidt_coefficients

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, "schmidt_coefficients", counted)
    payload = run_json(argv, capsys)
    assert len(calls) == 1
    assert {"ef", "log_negativity"} <= set(payload)


_FOCK_REQUESTS_MODULES = """
import contextlib, io, json, sys
from bosonic_bounds import cli
for argv in (["measure", "--fock", "N=3,7"], ["bound-check", "--fock", "N=2,2"],
             ["beamsplitter", "--fock", "N=40,0"], ["counterexample"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"])))
"""


def test_fock_requests_never_load_numpy_ma():
    """numpy.ma, which np.unique imports on its first call, costs each process ~1.7 MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FOCK_REQUESTS_MODULES],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_measure_fock_computes_the_total_noise_once(capsys, monkeypatch):
    calls = []
    original = fock.total_noise

    def counted(psi):
        calls.append(psi)
        return original(psi)

    monkeypatch.setattr(fock, "total_noise", counted)
    # Patched on cli too, so a call through a name the front end imported counts.
    monkeypatch.setattr(cli, "total_noise", counted, raising=False)
    payload = run_json(["measure", "--fock", "N=3,7"], capsys)
    assert len(calls) == 1
    assert payload["qcs2"] == payload["mtn"] == 11.0 and payload["total_noise"] == 22.0


def test_beamsplitter_reports_the_shared_fock_route(capsys):
    from bosonic_bounds import beam_splitter_fock, make_fock_number

    payload = run_json(["beamsplitter", "--fock", "N=3,7"], capsys)
    want = beam_splitter_fock(make_fock_number((3, 7)))
    assert {k: payload[k] for k in want} == want
    assert set(payload) == set(want) | {"config", "unit"}


def test_beamsplitter_ebits_unit(capsys):
    payload = run_json(["beamsplitter", "--fock", "N=10,0", "--ebits"], capsys)
    assert payload["unit"] == "ebits"
    assert payload["ef"] == pytest.approx(1.8759536052468004 / math.log(2.0), abs=1e-9)
    # ratio is dimensionless so the unit change must not touch it
    assert payload["ratio"] == pytest.approx(
        1.8759536052468004 / (math.log(2.0) * payload["g_in"]), rel=1e-9
    )


def test_beamsplitter_rejects_wrong_mode_count(capsys):
    code, _, err = run_cli(["beamsplitter", "--fock", "N=1,0,0"], capsys)
    assert code == 2
    assert "error:" in err


def test_bound_check_tmsv_all_hold(tmp_path, capsys):
    from bosonic_bounds import make_tmsv

    path = tmp_path / "tmsv.json"
    save_gaussian(make_tmsv(0.8), path)
    payload = run_json(["bound-check", "--gaussian", str(path)], capsys)
    assert payload["all_hold"]
    names = [c["provenance"] for c in payload["checks"]]
    assert len(names) == len(set(names))
    refined = [c for c in payload["checks"] if "refinement" in c["provenance"]]
    assert refined and refined[0]["saturated"]


_MODE_COUNTING = "log-negativity vs coherence-scale (mode-counting)"
_EVEN = "entanglement vs total noise (even split)"
_UNEVEN = "entanglement vs total noise (uneven split)"


def test_bound_check_fock_takes_one_check_chosen_by_the_split(capsys):
    payload = run_json(["bound-check", "--fock", "N=2,2"], capsys)
    assert payload["all_hold"]
    assert [c["provenance"] for c in payload["checks"]] == [_EVEN]
    payload = run_json(["bound-check", "--fock", "N=2,1,0", "--bipartition", "1:2"], capsys)
    assert payload["all_hold"]
    assert [c["provenance"] for c in payload["checks"]] == [_UNEVEN]


def test_bound_check_fock_even_split_emits_the_inequality_once(capsys):
    payload = run_json(["bound-check", "--fock", "N=3,7"], capsys)
    assert payload["all_hold"] and payload["mtn"] == 11.0
    (chk,) = payload["checks"]
    assert chk["provenance"] == _EVEN
    assert chk["rhs"] == theorem_symmetric_bound(11.0, 2)


def test_bound_check_fock_reports_the_noise_floor_of_a_strongly_entangled_state(
    tmp_path, capsys
):
    path = tmp_path / "tmsv.json"
    fock.save_fock(fock.make_fock_tmsv(1.2), path)
    payload = run_json(["bound-check", "--fock", str(path)], capsys)
    assert payload["ef"] == pytest.approx(2.016451148900509, rel=1e-12)
    assert payload["mtn"] == pytest.approx(5.556947156764798, rel=1e-12)
    # E_F >= 3n/4 = 1.5, so the floor 1 + 2 e^{(2/n) E_F - 2} applies
    assert payload["mtn_floor"] == pytest.approx(3.0331744283397755, rel=1e-12)
    assert payload["mtn_floor"] == 1.0 + 2.0 * math.exp(payload["ef"] - 2.0)
    assert payload["mtn_floor"] <= payload["mtn"]
    assert payload["all_hold"] and [c["provenance"] for c in payload["checks"]] == [_EVEN]
    # CSV columns follow the measures' insertion order
    code, out, err = run_cli(["bound-check", "--fock", str(path), "--format", "csv"], capsys)
    assert code == 0, err
    assert out.splitlines()[0].split(",")[:5] == ["mtn", "ef", "mtn_floor", "checks", "all_hold"]


def test_bound_check_on_a_one_mode_fock_state_is_refused(capsys):
    code, out, err = run_cli(["bound-check", "--fock", "N=3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: bound-check on a Fock state needs >= 2 modes\n"


def test_one_mode_gaussian_state_has_no_split(tmp_path, capsys):
    from bosonic_bounds import make_squeezed

    path = tmp_path / "squeezed.json"
    save_gaussian(make_squeezed(0.5), path)
    payload = run_json(["measure", "--gaussian", str(path)], capsys)
    assert (payload["log_negativity"], payload["n_minus"]) == (0.0, 0)
    assert payload["symplectic_spectrum_pt"] == payload["symplectic_spectrum"]
    payload = run_json(["bound-check", "--gaussian", str(path)], capsys)
    assert payload["checks"] == [] and payload["all_hold"]
    code, out, err = run_cli(["bound-check", "--gaussian", str(path), "--format", "csv"], capsys)
    assert code == 0, err
    assert out.splitlines()[0].split(",")[:5] == [
        "qcs2", "log_negativity", "n_minus", "checks", "all_hold"]


def test_coherent_product_rounding_below_unit_noise_is_accepted(tmp_path, capsys):
    # A product of coherent states has M_TN = 1; read from its truncated
    # amplitudes it rounds about 1e-14 below, inside the TAU_PHYS slack.
    a = fock.make_fock_coherent(-0.1928019944160514 + 2.049695205824529j, tau=1e-14)
    b = fock.make_fock_coherent(-0.9977920102299203 + 0.5272651051395296j, tau=1e-14)
    path = tmp_path / "coherent.json"
    amps = np.tensordot(a.amps, b.amps, axes=0)
    fock.save_fock(fock.FockPureState(amps, a.tail_mass + b.tail_mass), path)
    payload = run_json(["bound-check", "--fock", str(path)], capsys)
    assert payload["mtn"] < 1.0 and payload["all_hold"]
    assert [c["rhs"] for c in payload["checks"]] == [0.0]
    payload = run_json(["beamsplitter", "--fock", str(path)], capsys)
    assert payload["mtn_in"] < 1.0 and payload["g_in"] == 0.0


@pytest.mark.parametrize(
    "state, extra, expected",
    [
        ("tmsv", [], [_MODE_COUNTING, "two-mode coherence-scale refinement",
                      "entangled-enough implies nonclassical"]),
        ("mixed3", [], [_MODE_COUNTING]),
        ("N=2,2", [], [_EVEN]),
        ("N=2,1,0", ["--bipartition", "1:2"], [_UNEVEN]),
    ],
)
def test_bound_check_provenance_order(state, extra, expected, tmp_path, capsys):
    from bosonic_bounds import make_tmsv, random_gaussian_state

    if state.startswith("N="):
        argv = ["--fock", state]
    else:
        path = tmp_path / f"{state}.json"
        st = (make_tmsv(0.8) if state == "tmsv"
              else random_gaussian_state(3, seed=123, squeeze_max=1.2))
        save_gaussian(st, path)
        argv = ["--gaussian", str(path)]
    payload = run_json(["bound-check", *argv, *extra], capsys)
    assert payload["all_hold"]
    assert [c["provenance"] for c in payload["checks"]] == expected


def test_nastar_all_methods(capsys):
    payload = run_json(
        ["nastar", "--N", "100", "--nA", "1", "--nB", "3", "--method", "all"], capsys
    )
    sols = payload["solutions"]
    assert set(sols) == {"bisection", "leading", "refined"}
    assert sols["bisection"]["na_star"] == pytest.approx(94.42046037884808, abs=1e-8)
    assert sols["bisection"]["residual"] <= TAU_ROOT * 100  # max(1, N) at N = 100
    assert abs(sols["refined"]["na_star"] - sols["bisection"]["na_star"]) < abs(
        sols["leading"]["na_star"] - sols["bisection"]["na_star"]
    )


@pytest.mark.parametrize("budget", ["1.7e308", "1e-310"])
def test_nastar_solves_budgets_at_the_ends_of_the_float_range(budget, capsys):
    # (lo + hi) / 2 overflows near the top; 1 / x inside g overflows near the bottom
    code, out, err = run_cli(["nastar", "--N", budget, "--nA", "1", "--nB", "2"], capsys)
    assert code == 0, err
    sol = json.loads(out, parse_constant=_refuse_constant)["solutions"]["bisection"]
    N = float(budget)
    assert 0.0 <= sol["na_star"] <= N and sol["total"] == N
    assert sol["residual"] <= TAU_ROOT * max(1.0, N)


@pytest.mark.parametrize("flag", ["--nA", "--nB"])
def test_nastar_refuses_a_mode_count_past_the_float_range(flag, capsys):
    counts = {"--nA": "1", "--nB": "1"}
    counts[flag] = "1" + "0" * 400
    argv = ["nastar", "--N", "10", "--method", "all"]
    for name, value in counts.items():
        argv += [name, value]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: mode counts must be at most")


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def test_nastar_out_of_range_closed_forms_print_null(capsys):
    argv = ["nastar", "--N", "0.5", "--nA", "1", "--nB", "5", "--method", "all"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    # nu = 0.5 < 10 warns, as one plain stderr line, not Python's warning format
    assert set(err.splitlines()) == {
        "warning: asymptotic split used at nu = 0.5 < 10; expect poor accuracy"}
    sols = json.loads(out, parse_constant=_refuse_constant)["solutions"]
    # leading gives N_A* = -0.597 and refined 0.805, both outside [0, 0.5]
    for method in ("leading", "refined"):
        entry = sols[method]
        assert (entry["na_star"], entry["nb_star"], entry["residual"]) == (None, None, None)
        assert "outside [0, N]" in entry["reason"]
    assert sols["bisection"] == json.loads(json.dumps(asdict(solve_na_star(0.5, 1, 5))))


def _payload_reports():
    gaussian_checks = cli.state_checks(make_tmsv(0.8), Bipartition(1, 1))[1]
    fock_checks = cli.state_checks(make_fock_tmsv(1.2), Bipartition(1, 1))[1]
    return [gaussian_measures(make_tmsv(0.8), Bipartition(1, 1)), *gaussian_checks,
            *fock_checks, solve_na_star(100.0, 1, 3), na_star_asymptotic(100.0, 1, 3, "refined")]


@pytest.mark.parametrize("report", _payload_reports(), ids=lambda r: type(r).__name__)
def test_payload_reports_are_flat_so_a_shallow_copy_equals_asdict(report):
    # measure, bound-check and nastar copy these with dict(vars(x)); that is
    # asdict's copy only while no field holds a dataclass, a list or a dict.
    copy = dict(vars(report))
    assert copy == asdict(report)
    assert list(copy) == [f.name for f in fields(report)]  # the CSV column order
    for name, value in copy.items():
        items = value if isinstance(value, tuple) else (value,)
        assert all(isinstance(v, (bool, int, float, str)) for v in items), name


def test_nastar_null_split_leaves_the_solutions_unchanged(capsys, monkeypatch):
    made = []

    def recorded(solver):
        def solve(*args):
            sol = solver(*args)
            made.append((sol, asdict(sol)))
            return sol
        return solve

    monkeypatch.setattr(cli, "solve_na_star", recorded(solve_na_star))
    monkeypatch.setattr(cli, "na_star_asymptotic", recorded(na_star_asymptotic))
    code, out, err = run_cli(
        ["nastar", "--N", "1", "--nA", "1000", "--nB", "1", "--method", "all"], capsys)
    assert code == 0, err
    sols = json.loads(out)["solutions"]
    assert sols["leading"]["na_star"] is None and sols["refined"]["na_star"] is None
    assert len(made) == 3
    for sol, before in made:
        assert asdict(sol) == before


@pytest.mark.parametrize(
    "argv, method",
    [(["--N", "1", "--nA", "1000", "--nB", "1", "--method", "leading"], "leading"),
     (["--N", "1e300", "--nA", "3", "--nB", "1", "--method", "all"], "refined")],
    ids=["e-nu-power-overflows", "nu-power-overflows"],
)
def test_nastar_closed_forms_past_the_float_range_print_null(argv, method, capsys):
    # (e nu)^(1 - mu) = (e / 1000)^-999 and nu^mu = (1e300 / 3)^3 overflow a float
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nu = 1e-3 warns that nu < 10
        code, out, err = run_cli(["nastar", *argv], capsys)
    assert code == 0, err
    entry = json.loads(out, parse_constant=_refuse_constant)["solutions"][method]
    assert (entry["na_star"], entry["nb_star"], entry["residual"]) == (None, None, None)
    assert "leaves the float range" in entry["reason"]


@pytest.mark.parametrize("method", ["all", "leading"])
def test_nastar_zero_budget_gives_null_closed_forms(method, capsys):
    code, out, err = run_cli(
        ["nastar", "--N", "0", "--nA", "1", "--nB", "2", "--method", method], capsys
    )
    assert code == 0, err
    sols = json.loads(out, parse_constant=_refuse_constant)["solutions"]
    closed = ["leading", "refined"] if method == "all" else ["leading"]
    assert set(sols) == set(closed) | ({"bisection"} if method == "all" else set())
    for name in closed:
        entry = sols[name]
        assert (entry["na_star"], entry["nb_star"], entry["residual"]) == (None, None, None)
        assert "N = 0" in entry["reason"]
        assert entry["method"] == f"asymptotic-{name}"
    if method == "all":
        bisection = sols["bisection"]
        assert (bisection["na_star"], bisection["nb_star"], bisection["residual"]) == (0, 0, 0)


def test_json_output_refuses_non_finite_numbers(monkeypatch, capsys):
    monkeypatch.setattr(cli, "counterexample_demo", lambda q, k: {"ef_base": math.nan})
    code, out, err = run_cli(["counterexample"], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [["measure", "--fock", "N=3,1"],
     ["measure", "--gaussian", "tmsv.json"],
     ["bound-check", "--fock", "N=2,2"],
     ["beamsplitter", "--fock", "N=10,0"],
     ["counterexample"]],
    ids=["measure-fock", "measure-gaussian", "bound-check", "beamsplitter", "counterexample"],
)
def test_ebits_divides_exactly_the_entanglement_values(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_gaussian(make_tmsv(0.8), tmp_path / "tmsv.json")
    nats = run_json(argv, capsys)
    ebits = run_json([*argv, "--ebits"], capsys)
    assert (nats.pop("unit"), ebits.pop("unit")) == ("nats", "ebits")
    converted = []

    def compare(a, b, key=None):
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            for k in a:
                compare(a[k], b[k], k)
        elif isinstance(a, list):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                compare(x, y)
        elif key in cli._EBIT_KEYS and isinstance(a, float):
            converted.append(key)
            assert b == a / math.log(2.0), key
        else:
            assert b == a, key

    compare(nats, ebits)
    assert converted


@pytest.mark.parametrize(
    "argv, flag",
    [(["figure", "--name", "bound-profile", "--out", "out", "--tau-trunc", "1e-10"],
      "--tau-trunc"),
     (["nastar", "--N", "10", "--nA", "1", "--nB", "2", "--ebits"], "--ebits"),
     (["figure", "--name", "bound-profile", "--out", "out", "--ebits"], "--ebits"),
     (["audit", "--states", "0", "--fock-states", "0", "--classical-states", "0",
       "--ebits"], "--ebits"),
     (["beamsplitter", "--fock", "N=2,0", "--bipartition", "1:1"], "--bipartition")],
    ids=["figure-tau-trunc", "nastar-ebits", "figure-ebits", "audit-ebits",
         "beamsplitter-bipartition"],
)
def test_removed_option_is_a_usage_error(argv, flag, capsys, tmp_path, monkeypatch):
    """These options changed no number, so the commands no longer take them."""
    monkeypatch.chdir(tmp_path)  # a figure that got through would write here
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_figure_runs_the_sweep_drivers_bound_in_the_cli_module(tmp_path, capsys, monkeypatch):
    """A driver rebound on cli, as a tracing wrapper is, is the one that runs."""
    calls = []
    for name in ("beam_splitter_sweep", "bound_profile_sweep", "split_accuracy_sweep"):
        monkeypatch.setattr(cli, name, lambda out_dir, name=name: calls.append((name, out_dir)))
    payload = run_json(["figure", "--name", "all", "--out", str(tmp_path)], capsys)
    assert calls == [(name, str(tmp_path)) for name in
                     ("beam_splitter_sweep", "bound_profile_sweep", "split_accuracy_sweep")]
    assert payload["written"] == ["beam_splitter_sweep.csv", "bound_profile.csv",
                                  "split_accuracy.csv"]


def test_audit_ok(capsys):
    payload = run_json(
        ["audit", "--states", "40", "--modes", "2", "--seed", "5",
         "--fock-states", "8", "--classical-states", "8"],
        capsys,
    )
    assert payload["violations"] == []
    assert payload["checks"] > 0


def test_audit_refuses_modes_past_the_byte_budget(monkeypatch, capsys):
    from bosonic_bounds import experiments

    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", experiments._state_bytes(3) - 1)
    code, out, err = run_cli(["audit", "--modes", "3", "--states", "4"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the audit at 3 modes draws")


def test_audit_violation_exit_code(capsys):
    code, _, err = run_cli(
        ["audit", "--states", "20", "--seed", "3", "--fock-states", "4",
         "--classical-states", "4", "--tau-check", "-0.1"],
        capsys,
    )
    assert code == 3
    detail = json.loads(err)
    assert detail["error"] == "bound violation"
    assert detail["seed"] == 3
    assert "check" in detail["instance"]


def test_audit_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("BOSONIC_BOUNDS_SEED", "5")
    via_env = run_json(
        ["audit", "--states", "40", "--modes", "2", "--fock-states", "8",
         "--classical-states", "8"],
        capsys,
    )
    monkeypatch.delenv("BOSONIC_BOUNDS_SEED")
    via_flag = run_json(
        ["audit", "--states", "40", "--modes", "2", "--seed", "5",
         "--fock-states", "8", "--classical-states", "8"],
        capsys,
    )
    assert via_env["by_check"] == via_flag["by_check"]


def test_counterexample_command(capsys):
    payload = run_json(["counterexample"], capsys)
    assert payload["noise_drops"]
    assert payload["entanglement_preserved"]
    assert payload["exceeds_gaussian_pure_bound"]
    assert payload["satisfies_split_bound"]


def test_csv_format_single_row(capsys):
    import csv
    import io

    code, out, err = run_cli(
        ["measure", "--fock", "N=2,0", "--format", "csv"], capsys
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    header, values = rows
    assert len(header) == len(values)
    assert "mtn" in header
    assert float(values[header.index("mtn")]) == pytest.approx(3.0, abs=1e-10)


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run_cli(
        ["measure", "--fock", "N=2,0", "--output", str(target)], capsys
    )
    assert code == 0, err
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["mtn"] == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("spec", ["N=", "N=1.5", "N=a,2", "N=-1,2"])
def test_malformed_inline_fock_spec_is_a_usage_error(spec, capsys):
    code, out, err = run_cli(["measure", "--fock", spec], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and repr(spec) in err


def test_bad_inline_state_is_schema_error(capsys):
    code, _, err = run_cli(["measure", "--fock", "N=banana"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--gaussian", "--fock"])
def test_missing_file_is_reported(flag, capsys):
    code, _, err = run_cli(["measure", flag, "/nonexistent/state.json"], capsys)
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/state.json'\n"


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["measure", "--gaussian", str(path)], capsys)
    assert code == 2


_NAN_FOCK_AMP = {"n": 2, "cutoffs": [2, 2], "amps": [[0, 0, 1.0, 0.0], [1, 1, math.nan, 0.0]]}
_NAN_FOCK_TAIL = {"n": 2, "cutoffs": [2, 2], "amps": [[0, 0, 1.0, 0.0]], "tail_mass": math.nan}
_NAN_GAUSS_MEAN = {"n": 1, "mean": [0.0, math.nan], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_NAN_GAUSS_COV = {"n": 1, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, math.nan]]}
_HUGE = 10**400  # an exact JSON integer too large for a float
_HUGE_FOCK_AMP = {"n": 1, "cutoffs": [2], "amps": [[0, _HUGE, 0.0]]}
_HUGE_FOCK_TAIL = {"n": 1, "cutoffs": [2], "amps": [[0, 1.0, 0.0]], "tail_mass": _HUGE}
_HUGE_GAUSS_MEAN = {"n": 1, "mean": [0.0, _HUGE], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_HUGE_GAUSS_COV = {"n": 1, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, _HUGE]]}
# JSON true loads as Python True, which is an int equal to 1.
_BOOL_FOCK_N = {"n": True, "cutoffs": [2], "amps": [[0, 1.0, 0.0]]}
_BOOL_FOCK_CUTOFF = {"n": 2, "cutoffs": [2, True], "amps": [[0, 0, 1.0, 0.0]]}
_BOOL_FOCK_INDEX = {"n": 1, "cutoffs": [3], "amps": [[True, 1.0, 0.0]]}
_BOOL_FOCK_RE = {"n": 1, "cutoffs": [2], "amps": [[0, True, 0.0]]}
_BOOL_FOCK_IM = {"n": 1, "cutoffs": [2], "amps": [[0, 0.0, True]]}
_BOOL_FOCK_TAIL = {"n": 1, "cutoffs": [2], "amps": [[0, 1.0, 0.0]], "tail_mass": True}
_BOOL_GAUSS_N = {"n": True, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
# numpy reads true as 1.0 and the string "0.5" as 0.5, so these files load
# as states unless the type of every entry is checked
_MIXED_GAUSS = {"n": 1, "mean": [True, "0.5"], "cov": [["1", 0], [0, True]]}
_BOOL_GAUSS_COV = {"n": 1, "mean": [0.0, 0.0], "cov": [[True, 0.0], [0.0, True]]}
_STRING_GAUSS_MEAN = {"n": 1, "mean": ["0.5", 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "kind, data, field",
    [
        ("--fock", _NAN_FOCK_AMP, "field 'amps' row 1 has a non-finite"),
        ("--fock", _NAN_FOCK_TAIL, "field 'tail_mass' must be a finite"),
        ("--gaussian", _NAN_GAUSS_MEAN, "field 'mean' has a non-finite"),
        ("--gaussian", _NAN_GAUSS_COV, "field 'cov' has a non-finite"),
        ("--fock", _HUGE_FOCK_AMP, "field 'amps' row 0 has non-numeric"),
        ("--fock", _HUGE_FOCK_TAIL, "field 'tail_mass' must be a finite"),
        ("--gaussian", _HUGE_GAUSS_MEAN, "field 'mean' is not numeric"),
        ("--gaussian", _HUGE_GAUSS_COV, "field 'cov' is not numeric"),
        ("--fock", _BOOL_FOCK_N, "field 'n' must be a positive integer"),
        ("--fock", _BOOL_FOCK_CUTOFF, "field 'cutoffs' must list 2 positive integers"),
        ("--fock", _BOOL_FOCK_INDEX, "field 'amps' row 0 needs integer indices"),
        ("--fock", _BOOL_FOCK_RE, "field 'amps' row 0 has non-numeric"),
        ("--fock", _BOOL_FOCK_IM, "field 'amps' row 0 has non-numeric"),
        ("--fock", _BOOL_FOCK_TAIL, "field 'tail_mass' must be a finite"),
        ("--gaussian", _BOOL_GAUSS_N, "field 'n' must be a positive integer"),
        ("--gaussian", _MIXED_GAUSS, "field 'mean' is not numeric"),
        ("--gaussian", _BOOL_GAUSS_COV, "field 'cov' is not numeric"),
        ("--gaussian", _STRING_GAUSS_MEAN, "field 'mean' is not numeric"),
    ],
)
def test_non_finite_state_file_names_the_field(kind, data, field, tmp_path, capsys):
    path = tmp_path / "state.json"
    # json writes NaN and big integers, and json.load accepts both
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["measure", kind, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize(
    "kind, text, named",
    [
        ("--gaussian", "[1, 2]", "gaussian state file must hold a JSON object"),
        ("--gaussian", "{not json", "not valid JSON"),
        ("--gaussian", '{"n": 1, "mean": [0, 0], "cov": [[1, 0, 0], [0, 1, 0]]}',
         "field 'cov' must be 2 x 2, got shape (2, 3)"),
        ("--gaussian", '{"n": 1, "mean": [0, 0], "cov": [[1, 0.5], [0, 1]]}',
         "field 'cov' invalid: covariance asymmetry"),
        ("--gaussian", '{"n": 1, "mean": [0, 0], "cov": [[-1, 0], [0, 1]]}',
         "field 'cov' invalid: covariance eigenvalue"),
        ("--fock", "[]", "fock state file must hold a JSON object"),
        ("--fock", "{not json", "not valid JSON"),
        ("--fock", '{"n": 1, "cutoffs": [2], "amps": {"0": 1}}',
         "field 'amps' must be a list of [indices..., re, im] rows"),
        ("--fock", '{"n": 1, "cutoffs": [2], "amps": [[0, 1.0]]}',
         "field 'amps' row 0 must have 3 entries"),
        ("--fock", '{"n": 2, "cutoffs": [2, 2], "amps": [[0, 1, 1, 0], [1, 0, 1, 0], '
         '[0, 1, 0, 0]]}', "field 'amps' rows 0 and 2 both list index (0, 1)"),
        ("--fock", '{"n": 1, "cutoffs": [2], "amps": [[0, 1, 0], [1, 1, 0]]}',
         "field 'amps' invalid: squared norm 2 exceeds 1"),
        ("--fock", '{"n": 1, "cutoffs": [2], "amps": [[0, 0.5, 0]]}',
         "field 'amps' invalid: squared norm 0.25 plus tail_mass 0 is below 1 - 1e-06"),
    ],
    ids=["gaussian-not-object", "gaussian-not-json", "gaussian-cov-shape",
         "gaussian-cov-asymmetric", "gaussian-cov-indefinite", "fock-not-object",
         "fock-not-json", "fock-amps-not-list", "fock-row-length", "fock-index-twice",
         "fock-over-norm", "fock-under-norm"],
)
def test_malformed_state_file_is_refused_naming_the_field(kind, text, named, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(text)
    for command in ("measure", "bound-check"):
        code, out, err = run_cli([command, kind, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}")


def test_jobs_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _readme_cli_argvs():
    """The argument lists of the commands in the README's CLI block."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [ln.split("#")[0] for ln in block.group(1).splitlines()
             if ln.startswith("bosonic-bounds ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_block_parses():
    argvs = _readme_cli_argvs()
    assert len(argvs) >= 8
    parser = cli.build_parser()
    for argv in argvs:
        assert callable(parser.parse_args(argv).func), argv


_RUN_WITHOUT_OUTPUT = """
import contextlib, io, json, sys
from bosonic_bounds import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "numpy.ma": sorted(m for m in sys.modules
                                    if m == "numpy.ma" or m.startswith("numpy.ma."))}))
"""


def test_readme_cli_commands_run_without_scipy(tmp_path):
    """Every README command runs, in a fresh interpreter, on numpy alone.

    numpy.ma costs about 10 ms and 1 MB to import; no command needs it.
    """
    save_gaussian(make_vacuum(2), tmp_path / "state.json")
    argvs = _readme_cli_argvs()
    for argv in argvs:
        if "--states" in argv:  # a small audit loads the same modules
            argv[argv.index("--states") + 1] = "20"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_OUTPUT, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(argvs)
    assert result["scipy"] == []
    assert result["numpy.ma"] == []


# Every option of every subcommand in usage order, as (flag, dest, default).
_OUTPUT = [("--output", "output", None), ("--format", "format", "json")]
_FOCK = [("--fock", "fock", None), ("--tau-trunc", "tau_trunc", None)]
_STATE = [("--gaussian", "gaussian", None), ("--bipartition", "bipartition", None)]
_EBITS = [("--ebits", "ebits", False)]
_CHECK = [("--tau-check", "tau_check", TAU_CHECK)]
_OPTIONS = {
    "measure": _OUTPUT + _STATE + _FOCK + _EBITS,
    "bound-check": _OUTPUT + _STATE + _CHECK + _FOCK + _EBITS,
    "nastar": _OUTPUT + [("--N", "N", None), ("--nA", "nA", None), ("--nB", "nB", None),
                         ("--method", "method", "bisection")],
    "beamsplitter": _OUTPUT + _FOCK + _EBITS,
    "figure": _OUTPUT + [("--name", "name", None), ("--out", "out", None)],
    "audit": _OUTPUT + _CHECK + [("--states", "states", 1000), ("--modes", "modes", 2),
                                 ("--fock-states", "fock_states", 200),
                                 ("--classical-states", "classical_states", 200),
                                 ("--seed", "seed", None)],
    "counterexample": _OUTPUT + [("--q", "q", 0.5), ("--k", "k", 2)] + _EBITS,
}


def test_each_subcommand_takes_exactly_its_options():
    parser = cli.build_parser()
    assert [a.dest for a in parser._actions] == ["help", "version", "subcommand"]
    sub = parser._actions[-1]
    assert list(sub.choices) == list(_OPTIONS)
    for name, p in sub.choices.items():
        assert p._actions[0].dest == "help"
        got = [(" ".join(a.option_strings), a.dest, a.default) for a in p._actions[1:]]
        assert got == _OPTIONS[name], name


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for n in range(1, 6):
        payload = run_json(["nastar", "--N", str(10 * n), "--nA", "1", "--nB", "2"], capsys)
        assert payload["N"] == 10.0 * n
    assert len(built) == 1


@pytest.mark.parametrize(
    "interrupt, code",
    [(["nastar", "--method", "all", "--nA", "2", "--N", "nan"], 2),
     (["beamsplitter", "--fock", "N=2,0", "--ebits", "--tau-trunc", "-1"], 2),
     (["audit", "--states", "0", "--seed", "9", "--modes"], 2),
     (["--version"], 0)],
    ids=["nastar-bad-budget", "beamsplitter-bad-budget", "audit-missing-value", "version"],
)
@pytest.mark.parametrize(
    "request_argv",
    [["nastar", "--N", "100", "--nA", "1", "--nB", "3"],
     ["beamsplitter", "--fock", "N=2,0"]],
    ids=["nastar", "beamsplitter"],
)
def test_an_exit_leaves_the_next_request_intact(interrupt, code, request_argv, capsys):
    """Options parsed before a usage error or --version do not reach the next call."""
    expected = run_cli(request_argv, capsys)
    assert expected[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(interrupt)
    assert exc.value.code == code
    capsys.readouterr()
    assert run_cli(request_argv, capsys) == expected
    payload = json.loads(expected[1])
    assert payload["unit"] == "nats"
    assert "seed" not in payload["config"]


def test_seed_env_is_read_on_every_call(monkeypatch, capsys):
    argv = ["audit", "--states", "10", "--modes", "2", "--fock-states", "2",
            "--classical-states", "2"]
    reports = []
    for seed in ("5", "6"):
        monkeypatch.setenv("BOSONIC_BOUNDS_SEED", seed)
        reports.append(run_json(argv, capsys))
    assert [r["seed"] for r in reports] == [5, 6]
    assert [r["config"]["seed"] for r in reports] == [5, 6]
    monkeypatch.delenv("BOSONIC_BOUNDS_SEED")
    assert run_json([*argv, "--seed", "6"], capsys)["by_check"] == reports[1]["by_check"]


def test_readme_cli_commands_print_the_same_bytes_twice(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the figure command writes sweeps/ here
    save_gaussian(make_vacuum(2), tmp_path / "state.json")
    for argv in _readme_cli_argvs():
        if "--states" in argv:
            argv[argv.index("--states") + 1] = "20"
        first = run_cli(argv, capsys)
        assert first[0] == 0, (argv, first[2])
        assert run_cli(argv, capsys) == first, argv


_IMPORT_THEN_MAIN = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from bosonic_bounds import cli
after_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["nastar", "--N", "1", "--nA", "1", "--nB", "1"])
print(json.dumps([after_import, len(built)]))
"""


def test_import_builds_no_parser():
    """The parser is built by the first main call, so import time does not grow."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_THEN_MAIN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_main = json.loads(proc.stdout)
    assert after_import == 0
    assert after_main > 0


@pytest.mark.parametrize("value", ["nan", "-inf", "1e400", "tight"])
@pytest.mark.parametrize(
    "argv",
    [["audit", "--states", "20", "--tau-check"],
     ["bound-check", "--fock", "N=2,2", "--tau-check"],
     ["measure", "--fock", "N=2,0", "--tau-trunc"],
     ["nastar", "--nA", "1", "--nB", "2", "--N"]],
    ids=["audit", "bound-check", "measure", "nastar"],
)
def test_non_finite_tolerance_is_a_usage_error(argv, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv[:-1], f"{argv[-1]}={value}"])
    assert exc.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["measure", "--fock", "N=2,0"],
     ["bound-check", "--fock", "N=2,2"],
     ["beamsplitter", "--fock", "N=2,0"]],
    ids=["measure", "bound-check", "beamsplitter"],
)
@pytest.mark.parametrize("flag", [["--tau-trunc", "-1"], ["--tau-trunc=-1e-300"]])
def test_negative_tail_budget_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tau-trunc: must be >= 0" in err


def test_negative_photon_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nastar", "--N=-1", "--nA", "1", "--nB", "2"])
    assert exc.value.code == 2
    assert "argument --N: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--states", "--fock-states", "--classical-states"])
def test_audit_negative_count_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--states", "0", "--fock-states", "0",
                  "--classical-states", "0", f"{flag}=-3"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0, got '-3'" in capsys.readouterr().err


def test_audit_zero_counts_are_accepted(capsys):
    payload = run_json(
        ["audit", "--states", "0", "--fock-states", "0", "--classical-states", "0"], capsys
    )
    assert payload["counts"] == {"gaussian": 0, "classical": 0, "fock": 0}
    assert payload["checks"] == 0


def test_zero_tail_budget_is_accepted(capsys):
    payload = run_json(["measure", "--fock", "N=2,0", "--tau-trunc", "0"], capsys)
    assert payload["config"]["tau_trunc"] == 0.0


@pytest.mark.parametrize("command", ["measure", "bound-check"])
def test_tail_budget_is_refused_on_gaussian_input(command, tmp_path, capsys):
    path = tmp_path / "tmsv.json"
    save_gaussian(make_tmsv(0.5), path)
    code, out, err = run_cli([command, "--gaussian", str(path), "--tau-trunc", "1e-6"], capsys)
    assert code == 2 and out == ""
    assert "--tau-trunc applies only to --fock" in err
    payload = run_json([command, "--gaussian", str(path)], capsys)
    assert "tau_trunc" not in payload["config"]


_TAIL_ERROR = (
    "error: state: tail mass 1.937e-11 at cutoff (10, 10) exceeds 1.0e-12; increase cutoffs\n"
)


@pytest.mark.parametrize("command", ["measure", "bound-check", "beamsplitter"])
def test_fock_file_whose_tail_exceeds_the_budget_is_refused(command, tmp_path, capsys):
    path = tmp_path / "tmsv.json"
    fock.save_fock(fock.make_fock_tmsv(0.3), path)
    argv = [command, "--fock", str(path), "--tau-trunc"]
    assert run_cli(argv + ["1e-12"], capsys) == (2, "", _TAIL_ERROR)
    assert run_json(argv + ["1e-5"], capsys)["config"]["tau_trunc"] == 1e-5
    if command != "beamsplitter":  # the tail is checked where the file is read, first
        assert run_cli(argv + ["1e-12", "--bipartition", "3:1"], capsys) == (2, "", _TAIL_ERROR)


def test_fock_input_echoes_the_default_tail_budget(capsys):
    payload = run_json(["bound-check", "--fock", "N=2,2"], capsys)
    assert payload["config"]["tau_trunc"] == TAU_TRUNC


def test_bad_bipartition_is_reported(capsys):
    code, _, err = run_cli(
        ["measure", "--fock", "N=2,0", "--bipartition", "3:1"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_measure_requires_some_state(capsys):
    code, _, err = run_cli(["measure"], capsys)
    assert code == 2
    assert "error:" in err


def test_beamsplitter_requires_a_fock_state(capsys):
    code, out, err = run_cli(["beamsplitter"], capsys)
    assert code == 2 and out == ""
    assert "error: --fock is required" in err


@pytest.mark.parametrize("command", ["measure", "bound-check"])
def test_gaussian_and_fock_input_together_are_refused(command, tmp_path, capsys):
    path = tmp_path / "tmsv.json"
    save_gaussian(make_tmsv(0.5), path)
    code, out, err = run_cli([command, "--gaussian", str(path), "--fock", "N=3,0"], capsys)
    assert code == 2 and out == ""
    assert "error: give one of --gaussian or --fock, not both" in err


def test_measure_fock_reports_qcs2_as_mtn_without_a_density_operator(
    tmp_path, monkeypatch, capsys
):
    def refuse(psi):
        raise AssertionError("measure built a density operator")

    monkeypatch.setattr(fock.FockDensityOperator, "from_pure", refuse)
    path = tmp_path / "tmsv.json"
    fock.save_fock(fock.make_fock_tmsv(0.3), path)
    padded = tmp_path / "padded.json"
    fock.save_fock(fock.make_fock_number((0, 2, 3), cutoffs=(8, 8, 8)), padded)
    # dimensions 20, 27, 12, 41, 100 and 512: both sides of 256
    for spec in ["N=9,1", "N=2,8", "N=0,2,3", "N=40,0", str(path), str(padded)]:
        payload = run_json(["measure", "--fock", spec], capsys)
        assert payload["qcs2"] == payload["mtn"], spec


@pytest.mark.parametrize(
    "argv, named",
    [(["measure", "--fock", "N=5000,5000"], "number state: amplitude tensor of shape "
      "(5001, 5001) needs 4e+08 bytes"),
     (["beamsplitter", "--fock", "N=20000,0"], "beam-splitter output: amplitude tensor of "
      "shape (20001, 20001) needs 6.4e+09 bytes"),
     (["counterexample", "--q", "0.999999"], "counterexample"),
     (["counterexample", "--q", "0.993"], "counterexample")],
    ids=["measure-400MB", "beamsplitter-output-6GB", "counterexample",
         "counterexample-past-the-envelope"],
)
def test_fock_tensors_past_the_byte_budget_are_usage_errors(argv, named, capsys, monkeypatch):
    def no_block(M):
        raise AssertionError("built a beam-splitter block past the budget")

    monkeypatch.setattr(fock, "beam_splitter_block", no_block)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}") and "over the budget of" in err


def test_beamsplitter_takes_an_analytic_state_saved_at_its_default_cutoff(tmp_path, capsys):
    path = tmp_path / "tmsv.json"
    fock.save_fock(fock.make_fock_tmsv(0.3), path)
    payload = run_json(["beamsplitter", "--fock", str(path)], capsys)
    # a TMSV on a balanced beam splitter is two squeezed vacua: no entanglement
    assert payload["cutoffs"] == [19, 19]
    assert 0.0 <= payload["ef"] <= 1e-9
    assert payload["tail_mass"] == pytest.approx(1.937e-11, rel=1e-3)
    assert payload["config"]["tau_trunc"] == TAU_TRUNC
