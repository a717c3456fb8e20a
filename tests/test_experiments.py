import importlib.util
import json
import math
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from bosonic_bounds import (
    AuditReport,
    Bipartition,
    BoundCheck,
    FockPureState,
    GaussianState,
    apply_beam_splitter,
    apply_beam_splitter_fock,
    beam_splitter_fock,
    beam_splitter_sweep,
    bound_profile_sweep,
    counterexample_demo,
    entanglement_entropy,
    entanglement_entropy_gaussian,
    entanglement_measures_pure,
    g,
    load_nastar_envelope,
    make_fock_number,
    make_fock_squeezed,
    make_fock_tmsv,
    make_squeezed,
    make_tmsv,
    make_vacuum,
    mtn_pure,
    random_audit,
    split_accuracy_sweep,
    squeezed_cutoff,
    tensor,
    theorem_symmetric_bound,
    tmsv_cutoff,
)
from bosonic_bounds import fock, gaussian, symplectic
from bosonic_bounds.errors import AuditViolationError
from bosonic_bounds.experiments import _number_law_entropy, write_sweep
from bosonic_bounds.tolerances import TAU_CHECK, TAU_TRUNC
from oracles import sweep_csv_oracle

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_write_sweep_emits_csv_and_manifest(tmp_path):
    rows = [{"a": 1.0, "b": 0.5}, {"a": 2.0, "b": 0.25}]
    csv_path, man_path = write_sweep(tmp_path, "demo", ["a", "b"], rows, {"x": 1})
    assert os.path.exists(csv_path) and os.path.exists(man_path)
    lines = _read(csv_path).decode().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
    manifest = json.loads(_read(man_path))
    assert set(manifest) >= {"version", "sweep", "params", "columns", "tolerances"}
    assert manifest["columns"] == ["a", "b"]


def _assert_csv_matches_oracle(csv_path, columns, rows, tmp_path):
    oracle = tmp_path / "oracle.csv"
    sweep_csv_oracle(oracle, columns, rows)
    assert _read(csv_path) == _read(oracle)


@pytest.mark.parametrize(
    "sweep, kwargs",
    [(beam_splitter_sweep, {}),
     (bound_profile_sweep, {}),
     (split_accuracy_sweep, {}),
     # float64 grid points; the grids are lists, since an array has no truth value
     (beam_splitter_sweep, {"number_grid": list(np.arange(1.0, 41.0)),
                            "squeeze_grid": list(np.linspace(0.05, 2.0, 9))})],
    ids=["beamsplitter", "bound-profile", "split-accuracy", "beamsplitter-float64-grids"],
)
def test_sweep_csv_matches_the_csv_writer_oracle(sweep, kwargs, tmp_path):
    rows = sweep(out_dir=tmp_path / "out", **kwargs)
    (man_path,) = (tmp_path / "out").glob("*.manifest.json")
    columns = json.loads(_read(man_path))["columns"]
    _assert_csv_matches_oracle(str(man_path).replace(".manifest.json", ".csv"), columns, rows,
                               tmp_path)


def test_write_sweep_matches_the_oracle_on_special_cells(tmp_path):
    columns = ["family", "x", "y", "k"]
    cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e300, 5e-324, np.float64(0.1),
             np.float64(-0.0), np.float32(0.1), 3, -7, True, False, np.int64(12), np.bool_(True),
             "", " padded ", "tab\there", None]
    rows = [{"family": "f", "x": v, "y": cells[-1 - i], "k": i} for i, v in enumerate(cells)]
    csv_path, _ = write_sweep(tmp_path / "out", "special", columns, rows, {})
    _assert_csv_matches_oracle(csv_path, columns, rows, tmp_path)
    # np.float64 is a float, so it takes 17 significant digits, not its short repr
    assert _read(csv_path).decode().count("0.10000000000000001") == 4


@pytest.mark.parametrize(
    "column, cell",
    [("family", "a,b"), ("family", 'say "hi"'), ("family", "two\nlines"), ("family", "cr\rhere"),
     ("a,b", "number-split")],
    ids=["comma", "quote", "newline", "carriage-return", "comma-in-name"],
)
def test_write_sweep_refuses_a_cell_it_cannot_write_unquoted(column, cell, tmp_path):
    rows = [{"param": 1.0, column: "number-split"}, {"param": 2.0, column: cell}]
    with pytest.raises(ValueError, match=f"column '{column}'"):
        write_sweep(tmp_path, "demo", ["param", column], rows, {})
    assert not (tmp_path / "demo.csv").exists()


def test_beam_splitter_sweep_small_grid(tmp_path):
    rows = beam_splitter_sweep(
        families=("number-split", "orthogonal-squeezed"),
        number_grid=[1, 2, 4],
        squeeze_grid=[0.3, 0.6],
        out_dir=tmp_path,
    )
    assert len(rows) == 5
    for row in rows:
        # the entanglement generated never exceeds the input nonclassicality
        assert row["ef"] <= row["g_in"] + 1e-9
        assert 0.0 <= row["ratio"] <= 1.0 + 1e-12
    split = [r for r in rows if r["family"] == "number-split"]
    assert [r["param"] for r in split] == [1.0, 2.0, 4.0]
    # orthogonal squeezed inputs convert all nonclassicality into entanglement
    for row in rows:
        if row["family"] == "orthogonal-squeezed":
            assert row["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert os.path.exists(os.path.join(tmp_path, "beam_splitter_sweep.csv"))


def test_beam_splitter_manifest_records_the_constant_tolerances(tmp_path):
    beam_splitter_sweep(families=("number-split",), number_grid=[1], out_dir=tmp_path)
    manifest = json.loads(_read(tmp_path / "beam_splitter_sweep.manifest.json"))
    assert manifest["tolerances"] == {"tau_check": TAU_CHECK, "tau_trunc": TAU_TRUNC}
    assert "tau" not in manifest["params"]
    assert manifest["seed"] is None
    # No row truncates anything, so the sweep takes no tail budget.
    with pytest.raises(TypeError):
        beam_splitter_sweep(families=("number-split",), number_grid=[1], tau=1e-8)
    with pytest.raises(TypeError):
        write_sweep(tmp_path, "demo", ["a"], [], {}, tau_trunc=1e-8)


def test_beam_splitter_sweep_single_photon_exact(tmp_path):
    rows = beam_splitter_sweep(families=("number-split",), number_grid=[1])
    assert rows[0]["ef"] == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize(
    "sweep, grids",
    [(beam_splitter_sweep, {"number_grid": [1, 2, 40], "squeeze_grid": [0.1, 0.5]}),
     (beam_splitter_sweep, {"families": ["number-split", "tmsv-direct"],
                            "number_grid": [1.0, 2.0, 40.0], "squeeze_grid": [0.25]}),
     (bound_profile_sweep, {"pairs": [(1, 2), (3, 3)], "nu_grid": [1.0, 5.0]}),
     (split_accuracy_sweep, {"pairs": [(1, 2), (3, 3)], "nu_grid": [1.0, 5.0]})],
    ids=["bs-int", "bs-float", "bound-profile", "split-accuracy"],
)
@pytest.mark.parametrize("to_disk", [False, True], ids=["rows", "files"])
def test_sweeps_take_numpy_grids_as_they_take_lists(sweep, grids, to_disk, tmp_path):
    arrays = {key: np.array(value) for key, value in grids.items()}
    dirs = (tmp_path / "list", tmp_path / "array") if to_disk else (None, None)
    rows = sweep(**grids, out_dir=dirs[0])
    assert rows and sweep(**arrays, out_dir=dirs[1]) == rows
    if to_disk:
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])) and len(names) == 2
        for name in names:
            assert _read(dirs[1] / name) == _read(dirs[0] / name)


@pytest.mark.parametrize(
    "family, key, value",
    [("number-split", "number_grid", 1.5), ("number-split", "number_grid", -1),
     ("tmsv-direct", "squeeze_grid", 400.0), ("tmsv-direct", "squeeze_grid", 400)],
    ids=["number-float64", "number-int64", "squeezed-float64", "squeezed-int64"],
)
def test_sweep_refusals_quote_a_numpy_grid_as_its_list(family, key, value):
    messages = []
    for grid in ([value], np.array([value])):
        with pytest.raises(ValueError) as exc:
            beam_splitter_sweep(families=[family], **{key: grid})
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and "np." not in messages[1]


def test_an_empty_grid_gives_no_rows_of_its_kind():
    rows = beam_splitter_sweep(number_grid=[], squeeze_grid=[0.5])
    assert [row["family"] for row in rows] == [
        "antisqueezed-vacuum", "orthogonal-squeezed", "tmsv-direct"]
    assert bound_profile_sweep(pairs=[]) == [] and split_accuracy_sweep(pairs=()) == []


def _fock_route(family, s, tau):
    """(E_F of the output, M_TN of the input) of a squeezed row in Fock space."""
    if family == "antisqueezed-vacuum":
        cutoff = squeezed_cutoff(2.0 * s, tau * 1e-2)
        mode = make_fock_squeezed(2.0 * s, 0.0, cutoff, tau)
        amps = np.zeros((cutoff, cutoff), dtype=complex)
        amps[:, 0] = mode.amps
        psi_in = FockPureState(amps, mode.tail_mass)
    elif family == "orthogonal-squeezed":
        cutoff = squeezed_cutoff(s, tau * 1e-2)
        m1 = make_fock_squeezed(s, 0.0, cutoff, tau)
        m2 = make_fock_squeezed(s, math.pi / 2.0, cutoff, tau)
        psi_in = FockPureState(
            np.tensordot(m1.amps, m2.amps, axes=0), m1.tail_mass + m2.tail_mass
        )
    else:
        psi_in = make_fock_tmsv(s, tmsv_cutoff(s, tau), tau)
    psi_out = (
        psi_in if family == "tmsv-direct" else apply_beam_splitter_fock(psi_in)
    )
    psi_in.check_tail(10.0 * tau)
    psi_out.check_tail(10.0 * tau)
    return entanglement_entropy(psi_out, Bipartition(1, 1)), mtn_pure(psi_in)


@pytest.mark.parametrize("s", [0.4, 0.8])
@pytest.mark.parametrize(
    "family, tol",
    [("antisqueezed-vacuum", 1e-10), ("orthogonal-squeezed", 1e-10),
     # the Fock two-mode squeezed vacuum is truncated at the sweep's tau
     ("tmsv-direct", 5e-9)],
)
def test_gaussian_sweep_rows_agree_with_the_fock_route(family, tol, s):
    (row,) = beam_splitter_sweep(families=(family,), squeeze_grid=[s])
    ef, mtn = _fock_route(family, s, 1e-10)
    assert row["ef"] == pytest.approx(ef, abs=tol)
    assert row["mtn_in"] == pytest.approx(mtn, rel=tol)
    assert (row["cutoff"], row["tail_mass"]) == (0, 0.0)


SQUEEZED_FAMILIES = ("antisqueezed-vacuum", "orthogonal-squeezed", "tmsv-direct")


def _covariance_route(family, s):
    """(E_F of the output, M_TN of the input) of a squeezed row on covariance matrices."""
    if family == "antisqueezed-vacuum":
        st_in = tensor(make_squeezed(2.0 * s), make_vacuum(1))
    elif family == "orthogonal-squeezed":
        st_in = tensor(make_squeezed(s), make_squeezed(s, math.pi / 2.0))
    else:
        st_in = make_tmsv(s)
    st_out = st_in if family == "tmsv-direct" else apply_beam_splitter(st_in)
    ef = entanglement_entropy_gaussian(st_out, Bipartition(1, 1))
    return ef, float(np.trace(st_in.cov)) / (2 * st_in.n)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("family", SQUEEZED_FAMILIES)
def test_squeezed_sweep_rows_agree_with_the_covariance_route(family, s):
    (row,) = beam_splitter_sweep(families=(family,), squeeze_grid=[s])
    ef, mtn = _covariance_route(family, s)
    assert row["ef"] == pytest.approx(ef, rel=1e-12)
    assert row["mtn_in"] == pytest.approx(mtn, rel=1e-12)
    assert row["g_in"] == pytest.approx(theorem_symmetric_bound(mtn, 2), rel=1e-12)


@pytest.mark.parametrize("s", [2.5, 3.0, 5.0, 20.0])
def test_squeezed_rows_stay_pure_past_the_covariance_route_envelope(s):
    # The output is locally a two-mode squeezed vacuum of parameter s at any
    # squeezing, where the covariance route's spectrum calls it mixed.
    rows = beam_splitter_sweep(families=SQUEEZED_FAMILIES, squeeze_grid=[s])
    assert [r["family"] for r in rows] == list(SQUEEZED_FAMILIES)
    for row in rows:
        assert row["ef"] == pytest.approx(g(math.sinh(s) ** 2), rel=1e-12)


@pytest.mark.parametrize(
    "family, s",
    [(f, s) for f in SQUEEZED_FAMILIES for s in (math.nan, math.inf, -math.inf)]
    # cosh^2 2s overflows near s = 177.5, cosh 2s near s = 355.2
    + [("antisqueezed-vacuum", 200.0), ("orthogonal-squeezed", 400.0),
       ("tmsv-direct", 400.0)],
)
def test_squeezed_rows_refuse_non_finite_or_overflowing_squeezing(family, s):
    with pytest.raises(ValueError, match=f"{family}: squeezing s = {s!r}"):
        beam_splitter_sweep(families=(family,), squeeze_grid=[s])


@pytest.mark.parametrize(
    "family, s",
    [("antisqueezed-vacuum", 177.0), ("orthogonal-squeezed", 355.0), ("tmsv-direct", 355.0)],
)
def test_squeezed_rows_are_finite_just_below_overflow(family, s):
    (row,) = beam_splitter_sweep(families=(family,), squeeze_grid=[s])
    assert all(math.isfinite(row[k]) for k in ("mtn_in", "g_in", "ef", "ratio"))


def test_default_beam_splitter_sweep_runs_no_gaussian_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reached the covariance layers")

    for module in (gaussian, symplectic):
        monkeypatch.setattr(module, "symplectic_eigenvalues", refuse)
        monkeypatch.setattr(module, "validate_covariance", refuse)
    assert len(beam_splitter_sweep()) == 2 * 11 + 3 * 8


def test_antisqueezed_gap_to_the_thermal_entropy_asymptote_closes():
    # g(x) -> ln x + 1 and sinh^2 s -> e^{2s} / 4, so E_F -> 2s + 1 - ln 4.
    rows = beam_splitter_sweep(families=("antisqueezed-vacuum",))
    gaps = [r["asymptote_gap"] for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    (top,) = [r for r in rows if r["param"] == 1.5]
    assert 0.0 < top["asymptote_gap"] < 1e-3


@pytest.mark.parametrize("N", [0, 1, 2, 3, 8, 16, 40])
@pytest.mark.parametrize("family, occupations", [("number-split", lambda N: (N, 0)),
                                                 ("twin-number", lambda N: (N, N))])
def test_number_sweep_rows_agree_with_the_fock_route(family, occupations, N):
    (row,) = beam_splitter_sweep(families=(family,), number_grid=[N])
    ref = beam_splitter_fock(make_fock_number(occupations(N)))
    for key in ("ef", "g_in", "ratio"):
        assert row[key] == pytest.approx(ref[key], abs=1e-12), key
    # M_TN of the input is exact; the Fock route's moment sums round it.
    assert row["mtn_in"] == (2 * N + 1 if family == "twin-number" else N + 1)
    assert row["mtn_in"] == pytest.approx(ref["mtn_in"], rel=1e-14)
    assert (row["cutoff"], row["tail_mass"]) == (0, 0.0)


@pytest.mark.parametrize("occupations, twin", [((1000, 0), False), ((500, 500), True)],
                         ids=["1000-0", "500-500"])
def test_the_fock_route_meets_the_photon_law_entropy_at_block_1000(occupations, twin):
    # Both inputs fill block M = 1000, so they share one cached eigensolve.
    # The closed form sums cumulative log factorials, and its rounding error
    # grows about linearly in N (ROADMAP item 14): the two routes differ by
    # 2.8e-13 and 9.3e-13 here, where the small-N test above holds them to 1e-12.
    ef = beam_splitter_fock(make_fock_number(occupations))["ef"]
    assert ef == pytest.approx(_number_law_entropy(occupations[0], twin), rel=1e-11)


def test_beam_splitter_fock_widens_the_output_and_keeps_the_input_tail():
    # At cutoffs (3, 3) the blocks of total 3 and 4 do not fit.  Each holds
    # 4e-4; both are kept on output cutoffs (5, 5), so the output's tail is
    # the input's 3e-4 and its norm is the input's.
    amps = np.zeros((3, 3), dtype=complex)
    amps[2, 1] = amps[2, 2] = math.sqrt(4e-4)
    amps[0, 0] = math.sqrt(1.0 - 3e-4 - 8e-4)
    psi = FockPureState(amps, 3e-4)
    out = apply_beam_splitter_fock(psi)
    assert out.cutoffs == (5, 5) and out.tail_mass == psi.tail_mass == 3e-4
    assert out.norm2() == pytest.approx(psi.norm2(), rel=0.0, abs=1e-14)
    report = beam_splitter_fock(psi)
    assert report["cutoffs"] == [5, 5] and report["tail_mass"] == 3e-4
    ef, en = entanglement_measures_pure(out, Bipartition(1, 1))
    assert (report["ef"], report["log_negativity"]) == (ef, en)


def test_number_split_gap_to_the_binomial_entropy_asymptote_closes():
    grid = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40]
    rows = beam_splitter_sweep(families=("number-split",), number_grid=grid)
    gaps = [r["asymptote_gap"] for r in rows]
    # H(Binomial(N, 1/2)) -> (1/2) ln(pi e N / 2); from N = 1 to 2 the entropy
    # and the asymptote both grow by exactly (1/2) ln 2, so the gap ties there.
    assert gaps[0] == pytest.approx(gaps[1], rel=1e-12)
    assert all(a > b for a, b in zip(gaps[1:], gaps[2:]))
    assert gaps[-1] < 1e-4


def test_single_arm_ratio_enters_the_half_window_at_1e5_photons():
    # The ratio E_F / g_in of |N,0> tends to 1/2 like a ratio of logarithms
    # and is within 0.05 of it from N ~ 7e4 on; the strict xfail of
    # criterion 2 records that N = 40 is far outside.
    (row,) = beam_splitter_sweep(families=("number-split",), number_grid=[100000])
    assert abs(row["ratio"] - 0.5) <= 0.05
    assert row["ef"] == pytest.approx(0.5 * math.log(0.5 * math.pi * math.e * 1e5), abs=1e-5)


def test_default_beam_splitter_sweep_leaves_the_block_cache_alone():
    before = fock.beam_splitter_block.cache_info()
    beam_splitter_sweep()
    after = fock.beam_splitter_block.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_number_rows_refuse_photon_numbers_outside_their_range():
    for N in (-1, 2**22 + 1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="photon number must be an integer in"):
            beam_splitter_sweep(families=("twin-number",), number_grid=[N])


def test_default_beam_splitter_sweep_reaches_high_squeezing_in_little_memory():
    tracemalloc.start()
    try:
        rows = beam_splitter_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # No row truncates anything.
    assert {(r["cutoff"], r["tail_mass"]) for r in rows} == {(0, 0.0)}
    for family in ("antisqueezed-vacuum", "orthogonal-squeezed", "tmsv-direct"):
        params = {r["param"] for r in rows if r["family"] == family}
        assert {1.2, 1.5} <= params


def test_bound_profile_even_split_matches_gaussian_column():
    rows = bound_profile_sweep(pairs=[(3, 3)], nu_grid=[2.0, 10.0, 40.0])
    for row in rows:
        assert row["ef_per_na"] == pytest.approx(row["gaussian_per_na"], abs=1e-12)
        assert row["ef_per_na"] == pytest.approx(g(row["nu"] / 2.0), abs=1e-10)


def test_bound_profile_reports_nan_outside_asymptotic_validity():
    rows = bound_profile_sweep(pairs=[(3, 15)], nu_grid=[1.0])
    assert math.isnan(rows[0]["ef_per_na_asymptotic"])
    assert math.isfinite(rows[0]["ef_per_na"])


@pytest.mark.parametrize("sweep", [bound_profile_sweep, split_accuracy_sweep])
def test_split_sweeps_refuse_a_zero_budget(sweep):
    # (2, 1) would raise ZeroDivisionError in the closed form at nu = 0.
    with pytest.raises(ValueError, match="needs N > 0"):
        sweep(pairs=[(1, 2), (2, 1)], nu_grid=[10.0, 0.0])


def test_split_accuracy_refined_beats_leading_at_large_budget():
    rows = split_accuracy_sweep(pairs=[(1, 3)], nu_grid=[10.0, 100.0, 1000.0])
    for row in rows:
        assert row["relerr_refined"] < row["relerr_leading"]
    errs = [r["relerr_refined"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_frozen_envelope_shape_and_monotonicity():
    rows = load_nastar_envelope()
    assert len(rows) == 21
    pairs = sorted({(r["n_a"], r["n_b"]) for r in rows})
    assert pairs == [(1, 2), (1, 3), (1, 5)]
    for pair in pairs:
        sub = sorted((r for r in rows if (r["n_a"], r["n_b"]) == pair),
                     key=lambda r: r["nu"])
        for col in ("relerr_leading", "relerr_refined"):
            vals = [r[col] for r in sub]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_freeze_tool_reproduces_the_shipped_envelope():
    path = ROOT / "tools" / "freeze_nastar_regression.py"
    spec = importlib.util.spec_from_file_location("freeze_nastar_regression", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.envelope_rows() == load_nastar_envelope()


def test_random_audit_clean_and_deterministic():
    rep1 = random_audit(n_states=120, modes=2, seed=7, fock_states=24,
                        classical_states=24)
    rep2 = random_audit(n_states=120, modes=2, seed=7, fock_states=24,
                        classical_states=24)
    assert rep1.violations == []
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.checks > 0
    for entry in rep1.by_check.values():
        assert entry["count"] > 0
        assert entry["min_margin"] >= 0.0
        assert entry["tightest"] is not None


def test_random_audit_needs_two_modes():
    with pytest.raises(ValueError, match="modes >= 2"):
        random_audit(n_states=4, modes=1, seed=0, fock_states=0, classical_states=0)


@pytest.mark.parametrize("kind", ["n_states", "fock_states", "classical_states"])
def test_random_audit_rejects_negative_counts(kind):
    counts = {"n_states": 0, "fock_states": 0, "classical_states": 0, kind: -1}
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        random_audit(modes=2, seed=0, **counts)


def test_random_audit_accepts_zero_counts():
    rep = random_audit(n_states=0, modes=2, seed=0, fock_states=0, classical_states=0)
    assert rep.counts == {"gaussian": 0, "classical": 0, "fock": 0}
    assert rep.checks == 0


def test_random_audit_three_mode_states():
    rep = random_audit(n_states=60, modes=3, seed=11, fock_states=12,
                       classical_states=12)
    assert rep.violations == []


def test_random_audit_reports_seed_and_instance_on_violation():
    # an impossible tolerance turns finite-margin passes into failures
    with pytest.raises(AuditViolationError) as exc:
        random_audit(n_states=40, modes=2, seed=3, fock_states=8,
                     classical_states=8, tau_check=-0.1)
    assert exc.value.seed == 3
    assert isinstance(exc.value.instance, dict)
    assert "check" in exc.value.instance


def test_audit_report_record_keeps_first_tightest_and_ordered_violations():
    report = AuditReport(seed=1, counts={"gaussian": 4})
    first = {"id": 1}

    def chk(name, margin, holds):
        return BoundCheck(name, 0.0, margin, margin, holds, saturated=False)

    report.record(chk("demo", 0.2, True), first)
    report.record(chk("demo", 0.2, True), {"id": 2})
    report.record(chk("bad", -0.5, False), {"id": 3})
    report.record(chk("demo", 0.7, True), {"id": 4})
    report.record(chk("bad", -0.1, False), {"id": 5})
    first["id"] = 99
    assert report.checks == 5
    demo = report.by_check["demo"]
    assert demo["count"] == 3
    assert demo["min_margin"] == 0.2
    # the first instance to reach the minimum wins a tie, stored as a copy
    assert demo["tightest"] == {"id": 1}
    assert report.by_check["bad"]["tightest"] == {"id": 3}
    assert report.violations == [
        {"check": "bad", "margin": -0.5, "id": 3},
        {"check": "bad", "margin": -0.1, "id": 5},
    ]


def test_audit_report_serializes_a_state_only_when_it_is_kept(monkeypatch):
    from bosonic_bounds import experiments

    serialized = []
    monkeypatch.setattr(experiments, "gaussian_to_dict",
                        lambda st: serialized.append(st) or gaussian.gaussian_to_dict(st))
    tight, loose, psi = make_tmsv(0.3), make_tmsv(0.9), make_fock_number((1, 0))
    report = AuditReport(seed=1, counts={})

    def chk(name, margin):
        return BoundCheck(name, 0.0, margin, margin, margin >= 0.0, saturated=False)

    report.record(chk("demo", 0.2), {"kind": "gaussian", "state": tight})
    report.record(chk("demo", 0.5), {"kind": "gaussian", "state": loose})
    report.record(chk("bad", -0.1), {"kind": "fock", "modes": 2, "state": psi})
    assert serialized == [tight]
    assert report.by_check["demo"]["tightest"] == {
        "kind": "gaussian", "state": gaussian.gaussian_to_dict(tight)}
    assert report.violations == [
        {"check": "bad", "margin": -0.1, "kind": "fock", "modes": 2,
         "state": fock.fock_to_dict(psi)}]
    assert report.by_check["bad"]["tightest"] == {
        "kind": "fock", "modes": 2, "state": fock.fock_to_dict(psi)}
    json.dumps(report.to_dict(), allow_nan=False)


def test_random_audit_serializes_far_fewer_states_than_it_draws(monkeypatch):
    from bosonic_bounds import experiments

    calls = []
    monkeypatch.setattr(experiments, "gaussian_to_dict",
                        lambda st: calls.append(st) or gaussian.gaussian_to_dict(st))
    report = random_audit(n_states=300, modes=3, seed=2, fock_states=0, classical_states=100)
    # one serialization per improvement of a check's tightest margin
    assert 0 < len(calls) < 100
    for entry in report.by_check.values():
        assert isinstance(entry["tightest"]["state"], dict)


def test_random_audit_gaussian_slice_ignores_other_slice_counts():
    alone = random_audit(n_states=30, modes=2, seed=4, fock_states=0,
                         classical_states=0)
    mixed = random_audit(n_states=30, modes=2, seed=4, fock_states=7,
                         classical_states=5)
    assert alone.by_check
    for name, entry in alone.by_check.items():
        assert mixed.by_check[name] == entry


def test_random_audit_report_does_not_depend_on_the_block_size(monkeypatch):
    from bosonic_bounds import experiments

    def audit():
        return random_audit(n_states=300, modes=2, seed=8, fock_states=0,
                            classical_states=300).to_dict()

    default = audit()
    for block in (1, 7):
        monkeypatch.setattr(experiments, "SAMPLE_BLOCK", block)
        assert audit() == default, block


def test_random_audit_blocks_fit_the_byte_budget(monkeypatch):
    from bosonic_bounds import experiments

    def audit():
        return random_audit(n_states=40, modes=3, seed=8, fock_states=0,
                            classical_states=40).to_dict()

    default = audit()
    sizes = []
    for name in ("random_gaussian_state", "random_classical_state"):
        sampler = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda *args, sampler=sampler, **kwargs: (
            sizes.append(kwargs["size"]) or sampler(*args, **kwargs)))
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 7 * experiments._state_bytes(3))
    assert audit() == default
    assert sizes == 2 * ([7] * 5 + [5])


def test_random_audit_refuses_a_state_past_the_byte_budget_before_drawing(monkeypatch):
    from bosonic_bounds import experiments

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a state")

    for name in ("random_gaussian_state", "random_classical_state"):
        monkeypatch.setattr(experiments, name, no_draw)
    need = experiments._state_bytes(3)
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", need - 1)
    with pytest.raises(ValueError, match=f"at 3 modes draws {need} bytes per state"):
        random_audit(n_states=4, modes=3, seed=0)


def _audit_peak(n_states):
    tracemalloc.start()
    try:
        random_audit(n_states=n_states, modes=2, seed=1, fock_states=0, classical_states=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_audit_memory_does_not_grow_with_the_state_count():
    _audit_peak(250)  # warm numpy's caches outside the trace
    # Stacking the whole 2000-state slice at once would hold eight times the
    # states a 250-state audit does.
    assert _audit_peak(2000) <= 1.5 * _audit_peak(250)


def test_counterexample_demo_flags():
    result = counterexample_demo()
    assert result["mtn_base"] == pytest.approx(7.0 / 3.0, rel=1e-8)
    assert result["mtn_permuted"] == pytest.approx(2.25, rel=1e-8)
    assert result["noise_drops"]
    assert result["entanglement_preserved"]
    assert result["ef_base"] == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
    assert result["exceeds_gaussian_pure_bound"]
    assert result["gaussian_violation_margin"] == pytest.approx(
        0.04432993820302289, abs=1e-8
    )
    assert result["satisfies_split_bound"]
    assert result["split_bound"] > result["ef_permuted"]


def test_an_audited_gaussian_state_takes_one_real_eigensolve(monkeypatch):
    """Its covariance's floor, once; each of the 4 spectra proves its own floor."""
    kinds = []
    lapack = symplectic._lapack

    def spy(name, a, signature):
        if name == "eigvalsh_lo":
            kinds.append(signature)
        return lapack(name, a, signature)

    monkeypatch.setattr(symplectic, "_lapack", spy)
    random_audit(40, modes=3, seed=5, fock_states=0, classical_states=0)
    assert (kinds.count("d->d"), kinds.count("D->d"), len(kinds)) == (40, 160, 200)


def test_no_spectrum_of_the_golden_audits_falls_back_to_the_eigenvalue_floor(monkeypatch):
    """The floor runs once per GaussianState built, and never for a spectrum."""
    counts = {"floor": 0, "state": 0}
    floor, post_init = symplectic._eigenvalue_floor, GaussianState.__post_init__

    def count(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(symplectic, "_eigenvalue_floor", count("floor", floor))
    monkeypatch.setattr(GaussianState, "__post_init__", count("state", post_init))
    for modes in (2, 3, 4):
        random_audit(1000, modes=modes, seed=11)
    assert counts["floor"] == counts["state"] > 0
