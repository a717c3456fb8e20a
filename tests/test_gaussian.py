import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bosonic_bounds import (
    Bipartition,
    GaussianState,
    MixedStateError,
    NonPositiveDefiniteError,
    SchemaError,
    UnphysicalStateError,
    apply_beam_splitter,
    entanglement_entropy_gaussian,
    g,
    gaussian_from_dict,
    gaussian_measures,
    gaussian_to_dict,
    load_gaussian,
    log_negativity_gaussian,
    make_squeezed,
    make_thermal,
    make_tmsv,
    make_vacuum,
    purity,
    qcs2_gaussian,
    random_classical_state,
    random_gaussian_state,
    random_symplectic,
    save_gaussian,
    tensor,
)
from bosonic_bounds import gaussian
from oracles import qcs2_gaussian_char_oracle


def test_vacuum_covariance_is_identity():
    st = make_vacuum(3)
    assert_allclose(st.cov, np.eye(6))
    assert_allclose(st.mean, np.zeros(6))


def test_thermal_accepts_scalar_and_sequence():
    assert_allclose(make_thermal(0.5).cov, 2.0 * np.eye(2))
    st = make_thermal([0.0, 0.5])
    assert_allclose(st.cov, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_squeezed_covariance_axis_convention():
    s = 0.4
    st = make_squeezed(s)
    assert_allclose(st.cov, np.diag([np.exp(-2 * s), np.exp(2 * s)]), rtol=1e-14)
    rot = make_squeezed(s, np.pi / 2)
    assert_allclose(rot.cov, np.diag([np.exp(2 * s), np.exp(-2 * s)]), rtol=1e-13, atol=1e-15)


def test_squeezed_intermediate_angle_rotates_covariance():
    s, phi = 0.3, 0.7
    c, d = np.cos(phi), np.sin(phi)
    r = np.array([[c, -d], [d, c]])
    expected = r @ np.diag([np.exp(-2 * s), np.exp(2 * s)]) @ r.T
    assert_allclose(make_squeezed(s, phi).cov, expected, rtol=1e-13)


def test_tmsv_is_pure_and_entangled():
    st = make_tmsv(0.8)
    assert purity(st) == pytest.approx(1.0, abs=1e-12)
    en, n_minus = log_negativity_gaussian(st, Bipartition(1, 1))
    assert en == pytest.approx(1.6, abs=1e-10)
    assert n_minus == 1


@pytest.mark.parametrize("r", [0.1, 1.0, 2.0, 3.0])
def test_tmsv_entanglement_entropy_is_g_of_sinh_squared(r):
    ef = entanglement_entropy_gaussian(make_tmsv(r), Bipartition(1, 1))
    assert ef == pytest.approx(g(np.sinh(r) ** 2), rel=1e-12)


def test_gaussian_entanglement_entropy_accepts_a_pure_state_at_high_squeezing():
    # squeezed(5) x vacuum through a balanced beam splitter is locally a
    # two-mode squeezed vacuum of parameter 2.5; cond V = e^20.
    s = 2.5
    st = apply_beam_splitter(tensor(make_squeezed(2 * s), make_vacuum(1)))
    ef = entanglement_entropy_gaussian(st, Bipartition(1, 1))
    assert ef == pytest.approx(g(np.sinh(s) ** 2), rel=1e-12)


def test_gaussian_entanglement_entropy_is_the_same_from_either_party():
    # On the two-mode party one symplectic eigenvalue is 1 up to rounding,
    # sometimes just below it.
    rng = np.random.default_rng(2004)
    move_first_mode_last = [2, 3, 4, 5, 0, 1]
    for _ in range(200):
        st = random_gaussian_state(3, rng, purity_profile="pure")
        idx = np.ix_(move_first_mode_last, move_first_mode_last)
        moved = GaussianState(st.mean[move_first_mode_last], st.cov[idx])
        one = entanglement_entropy_gaussian(st, Bipartition(1, 2))
        two = entanglement_entropy_gaussian(moved, Bipartition(2, 1))
        assert two == pytest.approx(one, rel=1e-10)


def test_gaussian_entanglement_entropy_rejects_mixed_and_mismatched_states():
    # thermal x vacuum has V = diag(2, 2, 1, 1), condition number 2
    with pytest.raises(
        MixedStateError, match=r"eigenvalue 2 .*\(condition number of V 2\.000e\+00\)"
    ):
        entanglement_entropy_gaussian(
            tensor(make_thermal(0.5), make_vacuum(1)), Bipartition(1, 1)
        )
    with pytest.raises(ValueError, match="bipartition"):
        entanglement_entropy_gaussian(make_tmsv(0.5), Bipartition(1, 2))


def test_tensor_stacks_blocks():
    st = tensor(make_thermal(0.5), make_vacuum(1))
    assert st.n == 2
    assert_allclose(st.cov, np.diag([2.0, 2.0, 1.0, 1.0]))


def test_purity_thermal():
    assert purity(make_thermal(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_beam_splitter_on_orthogonal_squeezed_pair_gives_tmsv():
    s = 0.55
    st = tensor(make_squeezed(s, 0.0), make_squeezed(s, np.pi / 2))
    out = apply_beam_splitter(st)
    assert_allclose(out.cov, make_tmsv(s).cov, rtol=1e-12, atol=1e-13)


def test_qcs2_closed_forms():
    assert qcs2_gaussian(make_vacuum(2)) == pytest.approx(1.0, abs=1e-14)
    assert qcs2_gaussian(make_thermal(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-13)
    s = 0.7
    assert qcs2_gaussian(make_squeezed(s)) == pytest.approx(np.cosh(2 * s), rel=1e-13)
    r = 0.9
    assert qcs2_gaussian(make_tmsv(r)) == pytest.approx(np.cosh(2 * r), rel=1e-13)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_qcs2_characteristic_oracle_matches_main_formula(n, seed):
    rng = np.random.default_rng(seed)
    st = random_gaussian_state(n, rng)
    assert qcs2_gaussian(st) == pytest.approx(
        qcs2_gaussian_char_oracle(st), rel=1e-10, abs=1e-12
    )


@pytest.mark.parametrize("V, patch", [(np.zeros((2, 2)), False), (np.eye(2), True)],
                         ids=["singular", "nan-inverse"])
def test_a_failed_inverse_is_refused_with_the_singular_message(V, patch, monkeypatch):
    """An exact zero pivot, or any inverse that comes back NaN, is a library error."""
    if patch:
        monkeypatch.setattr(gaussian, "_lapack", lambda name, a, sig: np.full_like(a, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NonPositiveDefiniteError,
            match=r"^covariance matrix is singular to working precision "
                  r"\(condition number of V \S+\)$",
        ):
            gaussian._inverse(V)


def test_gaussian_measures_report_fields():
    rep = gaussian_measures(make_tmsv(0.5), Bipartition(1, 1))
    d = asdict(rep)
    assert d["n_minus"] == 1
    assert d["log_negativity"] == pytest.approx(1.0, abs=1e-10)
    assert_allclose(d["symplectic_spectrum"], [1.0, 1.0], atol=1e-10)
    assert d["qcs2"] == pytest.approx(np.cosh(1.0), rel=1e-12)


def test_gaussian_measures_rejects_unphysical():
    bad = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    with pytest.raises(UnphysicalStateError):
        gaussian_measures(bad)
    # the message quotes the condition number ||V|| ||V^-1|| = 2 / 0.25
    squeezed_below_vacuum = GaussianState(np.zeros(2), np.diag([0.25, 2.0]))
    with pytest.raises(UnphysicalStateError, match=r"< 1 \(condition number of V 8\.000e\+00\)"):
        gaussian_measures(squeezed_below_vacuum)


def test_gaussian_state_rejects_a_complex_mean_naming_its_dtype():
    cov = make_tmsv(0.3).cov
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, no imaginary part dropped
        with pytest.raises(ValueError, match="mean vector must be real, got complex128"):
            GaussianState(np.array([0.5j, 0, 0, 0]), cov)
        with pytest.raises(ValueError, match="mean vector must be real, got complex128"):
            GaussianState([0.0, 0.0, 0.0, 1.0 + 0j], cov)
        assert GaussianState([0, 1, 0, 0], cov).mean.dtype == np.float64


def test_gaussian_state_freezes_its_own_copy_of_the_covariance():
    cov = make_tmsv(0.3).cov.copy()
    st = GaussianState(np.zeros(4), cov)
    assert cov.flags.writeable and not st.cov.flags.writeable
    cov[0, 0] = 5.0
    assert st.cov[0, 0] == make_tmsv(0.3).cov[0, 0]


def test_high_squeezing_fails_only_with_library_errors():
    """Far past the envelope, every failure is a typed error quoting cond(V).

    At squeeze_max = 10 the condition number of V reaches 1e16 and more:
    the Cholesky factor inside the symplectic spectrum can fail on a V whose
    eigenvalues validate_covariance's eigvalsh found positive, and inv can
    meet an exact zero pivot.  Neither may surface as a raw LinAlgError or a
    NaN warning.
    """
    failures = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(200):
            try:
                st = random_gaussian_state(
                    3, np.random.default_rng(k), purity_profile="pure", squeeze_max=10
                )
                gaussian_measures(st)
            except (NonPositiveDefiniteError, UnphysicalStateError) as exc:
                assert "(condition number of V " in str(exc), exc
                failures += 1
    assert failures > 0
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_random_gaussian_state_is_physical_and_seedable():
    a = random_gaussian_state(3, 11)
    b = random_gaussian_state(3, 11)
    assert_allclose(a.cov, b.cov)
    assert gaussian_measures(a).qcs2 > 0


def test_random_gaussian_state_pure_profile():
    st = random_gaussian_state(2, 5, purity_profile="pure")
    assert purity(st) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("profile", ["mixed", "pure"])
@pytest.mark.parametrize("squeeze_max", [1.2, 6.0])
def test_a_stacked_draw_equals_single_draws_in_a_row_bit_for_bit(profile, squeeze_max):
    for n in range(1, 7):
        single, stacked = np.random.default_rng(n), np.random.default_rng(n)
        want = [random_gaussian_state(n, single, profile, squeeze_max) for _ in range(9)]
        got = random_gaussian_state(n, stacked, profile, squeeze_max, size=9)
        assert len(got) == 9
        for a, b in zip(want, got):
            assert np.array_equal(a.cov, b.cov) and np.array_equal(a.mean, b.mean)
        # both generators stand at the same point of the stream
        assert stacked.bit_generator.state == single.bit_generator.state


def test_a_stacked_classical_draw_equals_single_draws_in_a_row_bit_for_bit():
    for n in range(1, 5):
        single, stacked = np.random.default_rng(n), np.random.default_rng(n)
        want = [random_classical_state(n, single) for _ in range(9)]
        got = random_classical_state(n, stacked, size=9)
        assert [a.cov.tobytes() for a in want] == [b.cov.tobytes() for b in got]
        assert stacked.bit_generator.state == single.bit_generator.state


def test_sampler_size_gives_a_list_and_none_one_state():
    assert random_gaussian_state(2, 1, size=0) == []
    assert random_classical_state(2, 1, size=0) == []
    assert isinstance(random_gaussian_state(2, 1), GaussianState)
    assert isinstance(random_classical_state(2, 1), GaussianState)
    one = random_gaussian_state(2, 1, size=1)
    assert len(one) == 1 and np.array_equal(one[0].cov, random_gaussian_state(2, 1).cov)


_BAD_SAMPLER_ARGS = [
    ("n", {"n": 0}),
    ("n", {"n": -1}),
    ("n", {"n": 2.0}),
    ("n", {"n": True}),
    ("squeeze_max", {"squeeze_max": math.nan}),
    ("squeeze_max", {"squeeze_max": math.inf}),
    ("squeeze_max", {"squeeze_max": -0.1}),
    ("size", {"size": -1}),
    ("size", {"size": 2.0}),
    ("size", {"size": False}),
]


@pytest.mark.parametrize("name,bad", _BAD_SAMPLER_ARGS, ids=[str(b) for _, b in _BAD_SAMPLER_ARGS])
def test_samplers_reject_bad_arguments_before_any_draw(name, bad):
    samplers = {
        random_gaussian_state: {"n": 2, "squeeze_max": 1.0, "size": 3},
        random_symplectic: {"n": 2, "squeeze_max": 1.0},
        random_classical_state: {"n": 2, "size": 3},
    }
    for sampler, good in samplers.items():
        if name not in good:
            continue
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        kwargs = {**good, **bad}
        n = kwargs.pop("n")
        with pytest.raises(ValueError, match=name):
            sampler(n, rng, **kwargs)
        assert rng.bit_generator.state == before, sampler.__name__


def test_random_classical_state_is_classical():
    for seed in range(10):
        st = random_classical_state(2, seed)
        evs = np.linalg.eigvalsh(st.cov - np.eye(4))
        assert evs.min() >= -1e-10
        assert qcs2_gaussian(st) <= 1.0 + 1e-12
        en, _ = log_negativity_gaussian(st, Bipartition(1, 1))
        assert en == 0.0


def test_serialization_round_trip(tmp_path):
    st = random_gaussian_state(2, 3)
    path = tmp_path / "state.json"
    save_gaussian(st, path)
    back = load_gaussian(path)
    assert_allclose(back.cov, st.cov)
    assert_allclose(back.mean, st.mean)


def test_from_dict_names_offending_field():
    d = gaussian_to_dict(make_vacuum(1))
    del d["cov"]
    with pytest.raises(SchemaError, match="cov"):
        gaussian_from_dict(d)
    d = gaussian_to_dict(make_vacuum(1))
    d["mean"] = [[0.0]]
    with pytest.raises(SchemaError, match="mean"):
        gaussian_from_dict(d)


def test_load_gaussian_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises((SchemaError, json.JSONDecodeError)):
        load_gaussian(path)


def test_state_arrays_are_frozen():
    st = make_vacuum(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 5.0
