import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bosonic_bounds import (
    AsymmetricInputError,
    Bipartition,
    CovarianceOverflowError,
    GaussianState,
    NonPositiveDefiniteError,
    check_physicality,
    default_bipartition,
    make_thermal,
    make_tmsv,
    omega,
    partial_transpose,
    random_gaussian_state,
    random_symplectic,
    symplectic_eigenvalues,
    validate_covariance,
)
from bosonic_bounds import symplectic
from bosonic_bounds.tolerances import TAU_PD, TAU_PHYS, TAU_SYM
from oracles import symplectic_eigenvalues_full_floor


def test_omega_is_antisymmetric_and_squares_to_minus_identity():
    for n in (1, 2, 5):
        w = omega(n)
        assert_allclose(w.T, -w)
        assert_allclose(w @ w, -np.eye(2 * n))


def test_bipartition_validates_counts():
    bp = Bipartition(1, 2)
    assert bp.n == 3
    assert Bipartition(np.int64(1), np.int32(2)).n == 3
    for counts in [(0, 2), (1, -1), (1.5, 1), (1, 2.0), (True, 1), (1, np.bool_(True)), ("1", 1)]:
        with pytest.raises(ValueError, match="integer mode count"):
            Bipartition(*counts)


@pytest.mark.parametrize(
    "n, split", [(1, None), (2, (1, 1)), (3, (1, 2)), (5, (2, 3))]
)
def test_default_bipartition(n, split):
    expected = Bipartition(*split) if split else None
    assert default_bipartition(n) == expected


def test_validate_covariance_symmetrizes_within_tolerance():
    v = np.eye(2)
    v[0, 1] = 1e-13
    out = validate_covariance(v)
    assert_allclose(out, out.T)


def test_validate_covariance_rejects_asymmetric():
    v = np.eye(2)
    v[0, 1] = 1e-3
    with pytest.raises(AsymmetricInputError):
        validate_covariance(v)


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_validate_covariance_symmetry_tolerance_scales_with_largest_entry(scale):
    v = scale * np.eye(2)
    v[0, 1] = 0.9 * TAU_SYM * scale
    validate_covariance(v)
    v[0, 1] = 1.1 * TAU_SYM * scale
    with pytest.raises(AsymmetricInputError):
        validate_covariance(v)


def test_validate_covariance_positivity_floor():
    validate_covariance(np.diag([2.0 * TAU_PD, 1.0]))
    with pytest.raises(NonPositiveDefiniteError):
        validate_covariance(np.diag([TAU_PD, 1.0]))


@pytest.mark.parametrize(
    "V, warns",
    [([[np.nan, 0.0], [0.0, 1.0]], False), ([[1.0, np.nan], [np.nan, 1.0]], False),
     ([[np.inf, 0.0], [0.0, 1.0]], True), (np.diag([np.nan] * 4), False),
     ([[1.0, np.inf], [np.inf, 1.0]], True), ([[1.0, -np.inf], [0.0, 1.0]], False)],
    ids=["nan-diagonal", "nan-off-diagonal", "inf", "all-nan", "inf-off-diagonal",
         "one-sided-minus-inf"],
)
def test_validate_covariance_rejects_non_finite_entries(V, warns):
    # an infinity facing the same infinity across the diagonal (or on it) gives
    # inf - inf in V - V^T: numpy warns once, by design, before the ValueError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="non-finite entry"):
            validate_covariance(V)
    seen = [(w.category, str(w.message)) for w in caught]
    assert seen == ([(RuntimeWarning, "invalid value encountered in subtract")] if warns else [])


def test_validate_covariance_copies_an_exactly_symmetric_input():
    for v in (make_tmsv(0.4).cov, np.diag([2.0, 1.0, 3.0, 1.0]), [[2.0, 0.5], [0.5, 1.0]]):
        out = validate_covariance(v)
        assert np.array_equal(out, v) and out.dtype == np.float64
        assert not np.shares_memory(out, v) and out.flags.writeable


def test_a_finite_matrix_whose_asymmetry_overflows_is_asymmetric():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # V - V^T overflows
        with pytest.raises(AsymmetricInputError, match="asymmetry inf"):
            validate_covariance([[1.0, 1e308], [-1e308, 1.0]])


def test_entries_past_half_the_float_range_never_give_a_non_finite_result():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way
        # indefinite, eigenvalues 1 -/+ 1.7e308: the floor refuses it, no inf matrix
        with pytest.raises(NonPositiveDefiniteError, match=r"eigenvalue -1\.700e\+308"):
            validate_covariance([[1.0, 1.7e308], [1.7e308, 1.0]])
        huge = np.diag([1e308, 1e308])
        assert_allclose(symplectic_eigenvalues(huge), [1e308], rtol=1e-15)
        assert np.array_equal(GaussianState(np.zeros(2), huge).cov, huge)
        # symmetric within tolerance but not exactly: V + V^T would overflow
        near = np.diag([1.7e308, 1.0])
        near[1, 0] = 1e-300
        with pytest.raises(CovarianceOverflowError, match=r"magnitude 1\.700e\+308"):
            validate_covariance(near)


def test_a_nan_eigenvalue_fails_the_positivity_floor(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda v: np.array([np.nan, 1.0]))
    with pytest.raises(NonPositiveDefiniteError, match="eigenvalue nan"):
        validate_covariance(np.eye(2))


def test_validate_covariance_rejects_indefinite():
    with pytest.raises(
        NonPositiveDefiniteError, match=r"floor .*\(condition number of V 1\.000e\+00\)"
    ):
        validate_covariance(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("V", [np.eye(2, dtype=complex), [[1.0, 0.5j], [-0.5j, 1.0]]])
def test_validate_covariance_rejects_a_complex_matrix_naming_its_dtype(V):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, no imaginary part dropped
        with pytest.raises(ValueError, match="must be real .* complex128"):
            validate_covariance(V)


@pytest.mark.parametrize("V", [np.eye(4).astype(str), np.eye(4, dtype=bool),
                               np.eye(4).astype(object)], ids=["str", "bool", "object"])
def test_covariance_of_no_real_number_dtype_is_refused_naming_its_dtype(V):
    message = re.escape(f"must be real and 2n x 2n, got {V.dtype} (4, 4)")
    with pytest.raises(ValueError, match=message):
        validate_covariance(V)
    with pytest.raises(ValueError, match=message):
        partial_transpose(V, Bipartition(1, 1))


def test_validate_covariance_rejects_odd_dimension():
    with pytest.raises(ValueError):
        validate_covariance(np.eye(3))


@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.0])
def test_symplectic_eigenvalues_thermal(nbar):
    v = make_thermal([nbar, nbar]).cov
    assert_allclose(symplectic_eigenvalues(v), [2 * nbar + 1] * 2, atol=1e-12)


def test_symplectic_eigenvalues_tmsv_is_pure(rng=None):
    v = make_tmsv(0.7).cov
    assert_allclose(symplectic_eigenvalues(v), [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_eigenvalues_invariant_under_symplectic_congruence(n, seed):
    rng = np.random.default_rng(seed)
    st = random_gaussian_state(n, rng)
    s = random_symplectic(n, rng)
    nu = symplectic_eigenvalues(st.cov)
    nu2 = symplectic_eigenvalues(s @ st.cov @ s.T)
    assert_allclose(np.sort(nu2), np.sort(nu), rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symplectic_eigenvalues_recover_a_known_williamson_spectrum(n):
    # V = S diag(nu (x) (1, 1)) S^T has symplectic spectrum nu by construction.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = random_symplectic(n, rng, squeeze_max=1.2)
        nu = 1.0 + rng.exponential(1.0, size=n)
        v = (s * np.repeat(nu, 2)) @ s.T
        assert_allclose(symplectic_eigenvalues(v), np.sort(nu), rtol=1e-10)


def test_symplectic_eigenvalues_turn_a_failed_factorization_into_a_library_error(
    monkeypatch,
):
    def no_factor(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    with pytest.raises(NonPositiveDefiniteError, match=r"\(condition number of V "):
        symplectic_eigenvalues(make_tmsv(0.7).cov)


@pytest.mark.parametrize("seed", range(5))
def test_symplectic_trace_below_trace(seed):
    rng = np.random.default_rng(seed)
    st = random_gaussian_state(3, rng)
    assert 2.0 * np.sum(symplectic_eigenvalues(st.cov)) <= np.trace(st.cov) + 1e-9


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(4)
    st = random_gaussian_state(3, rng)
    bp = Bipartition(1, 2)
    pt = partial_transpose(st.cov, bp)
    assert_allclose(partial_transpose(pt, bp), st.cov)


def test_partial_transpose_leaves_the_frozen_bipartition_as_it_was():
    bp = Bipartition(1, 2)
    before = dict(vars(bp))
    partial_transpose(random_gaussian_state(3, np.random.default_rng(4)).cov, bp)
    assert vars(bp) == before
    from bosonic_bounds.symplectic import _pt_signs

    assert not _pt_signs(1, 2).flags.writeable


@pytest.mark.parametrize("V", [make_tmsv(0.3).cov + 1e-3j, make_tmsv(0.3).cov.astype(complex)],
                         ids=["imaginary-part", "complex-dtype"])
def test_partial_transpose_rejects_a_complex_matrix_naming_its_dtype(V):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, no imaginary part dropped
        with pytest.raises(ValueError, match=r"real and 2n x 2n, got complex128 \(4, 4\)"):
            partial_transpose(V, Bipartition(1, 1))


def test_partial_transpose_tmsv_spectrum():
    r = 0.6
    pt = partial_transpose(make_tmsv(r).cov, Bipartition(1, 1))
    assert_allclose(
        np.sort(symplectic_eigenvalues(pt)),
        [np.exp(-2 * r), np.exp(2 * r)],
        rtol=1e-12,
    )


def test_partial_transpose_keeps_product_thermal_unchanged():
    v = make_thermal([0.5, 1.5]).cov
    assert_allclose(partial_transpose(v, Bipartition(1, 1)), v)


def test_check_physicality():
    assert check_physicality(np.eye(4))
    assert not check_physicality(0.5 * np.eye(2))
    assert check_physicality(make_tmsv(1.0).cov)
    assert check_physicality((1.0 - TAU_PHYS / 2) * np.eye(2))
    assert not check_physicality((1.0 - 2 * TAU_PHYS) * np.eye(2))


def _dense_spectrum(V):
    """The spectrum built with the dense Omega matrix."""
    n = V.shape[0] // 2
    L = np.linalg.cholesky(validate_covariance(V))
    return np.linalg.eigvalsh(1j * L.T @ omega(n) @ L)[n:]


def _dense_partial_transpose(V, bp):
    """The partial transpose built from a per-mode sign loop and an outer product."""
    signs = np.ones(2 * bp.n)
    for j in range(bp.n_a, bp.n):
        signs[2 * j + 1] = -1.0
    return V * np.outer(signs, signs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("squeeze_max", [0.5, 2.0, 6.0])
@pytest.mark.parametrize("profile", ["mixed", "pure"])
def test_spectrum_and_partial_transpose_equal_the_dense_forms_bit_for_bit(
    n, squeeze_max, profile
):
    rng = np.random.default_rng(100 * n + int(10 * squeeze_max))
    for _ in range(8):
        V = random_gaussian_state(n, rng, profile, squeeze_max).cov
        assert np.array_equal(symplectic_eigenvalues(V), _dense_spectrum(V))
        for n_a in range(1, n):
            bp = Bipartition(n_a, n - n_a)
            pt = partial_transpose(V, bp)
            assert np.array_equal(pt, _dense_partial_transpose(V, bp))
            assert np.array_equal(symplectic_eigenvalues(pt), _dense_spectrum(pt))


def test_validate_covariance_returns_the_symmetric_part_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in (1, 3):
        v = random_gaussian_state(n, rng).cov * (1.0 + 1e-13 * rng.normal(size=(2 * n, 2 * n)))
        assert np.array_equal(validate_covariance(v), 0.5 * (v + v.T))


def test_random_symplectic_equals_the_stacked_euler_form_bit_for_bit():
    from bosonic_bounds.gaussian import _orthogonal_symplectic

    for n in (1, 2, 4):
        ref_rng = np.random.default_rng(n)
        o1, o2 = _orthogonal_symplectic(ref_rng.normal(size=(2, 2, n, n)))
        s = ref_rng.uniform(0.0, 1.5, size=n)
        d = np.stack([np.exp(-s), np.exp(s)], axis=1).reshape(-1)
        S = random_symplectic(n, np.random.default_rng(n), squeeze_max=1.5)
        assert np.array_equal(S, (o1 * d) @ o2)


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _log_uniform_spd(rng):
    """Eigenvalues log-uniform in [e^-35, e^5]: most fail the floor, many by a hair."""
    d = 2 * int(rng.integers(1, 5))
    q = _orthogonal(rng, d)
    return (q * np.exp(rng.uniform(-35.0, 5.0, d))) @ q.T


def _near_singular(rng):
    """A rank-deficient Gram matrix shifted by 1e-17..1e-9, scaled by 10^-5..10^300."""
    d = 2 * int(rng.integers(1, 5))
    b = rng.normal(size=(d, d - 1))
    v = b @ b.T + 10.0 ** rng.uniform(-17.0, -9.0) * np.eye(d)
    return v * 10.0 ** rng.uniform(-5.0, 300.0)


def _indefinite(rng):
    """Some eigenvalues negated, from -1e-16 to -1 of their size, scaled as above."""
    d = 2 * int(rng.integers(1, 5))
    q = _orthogonal(rng, d)
    lam = np.exp(rng.uniform(-10.0, 3.0, d))
    lam[: rng.integers(1, d + 1)] *= -(10.0 ** rng.uniform(-16.0, 0.0))
    return ((q * lam) @ q.T) * 10.0 ** rng.uniform(-5.0, 300.0)


def _physical(rng):
    """S diag(nu) S^T at squeeze_max up to 9, pure or mixed, unvalidated."""
    n = int(rng.integers(1, 5))
    s = random_symplectic(n, rng, rng.uniform(0.0, 9.0))
    nu = 1.0 + (rng.exponential(1.0, n) if rng.random() < 0.5 else np.zeros(n))
    return (s * np.repeat(nu, 2)) @ s.T


def _outcome(spectrum, V):
    """The spectrum's bytes, or the refusal's type and message; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "answer", spectrum(V).tobytes()
        except ValueError as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize(
    "family, count, seed, seen",
    [
        (_log_uniform_spd, 1200, 1, {"proved", "floor", "refused"}),
        (_near_singular, 600, 2, {"floor", "refused"}),
        (_indefinite, 600, 3, {"refused"}),
        (_physical, 600, 4, {"proved", "floor"}),
    ],
    ids=["log-uniform-spd", "near-singular", "indefinite", "physical"],
)
def test_spectrum_answers_and_refuses_as_the_full_floor_does(
    family, count, seed, seen, monkeypatch
):
    """Proving the floor from the spectrum moves no answer bit and no refusal.

    Each family reaches at least the outcomes in ``seen``: an answer whose
    floor the spectrum proved, an answer after the eigenvalue floor ran, a
    refusal.
    """
    floors = []
    floor = symplectic._eigenvalue_floor
    monkeypatch.setattr(symplectic, "_eigenvalue_floor", lambda V: floors.append(1) or floor(V))
    rng = np.random.default_rng(seed)
    reached = set()
    for _ in range(count):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 10^300 scalings of the draws
            V = family(rng)
        want = _outcome(symplectic_eigenvalues_full_floor, V)
        before = len(floors)
        assert _outcome(symplectic_eigenvalues, V) == want
        if want[0] != "answer":
            reached.add("refused")
        else:
            reached.add("floor" if len(floors) > before else "proved")
    assert seen <= reached


# The Gram matrix of 4 x 3 normal draws, nudged 3e-16 below singular along
# its null vector and scaled by 1e160: Cholesky factors it and nu_1 r passes
# 2 TAU_PD, so only the r > 1e-4 guard sends it to the floor, which refuses it.
_B = np.random.default_rng(8).normal(size=(4, 3))
_U = np.linalg.svd(_B)[0][:, 3]
_SINGULAR = (_B @ _B.T - 3e-16 * np.outer(_U, _U)) * 1e160
_SINGULAR = (_SINGULAR + _SINGULAR.T) / 2


@pytest.mark.parametrize(
    "V, answer, message",
    [
        (np.diag([TAU_PD, 1.0]), None, r"^covariance eigenvalue 1\.000e-12 at or below floor"),
        (np.diag([2 * TAU_PD, 1.0]), [math.sqrt(2 * TAU_PD)], None),
        (np.diag([1.0, -1.0]), None, r"^covariance eigenvalue -1\.000e\+00 at or below floor"),
        (_SINGULAR, None, r"^covariance eigenvalue -\S+ at or below floor"),
        (np.diag([1e308, 1e308]), [1e308], None),
    ],
    ids=["at-floor", "twice-floor", "indefinite", "scaled-singular", "near-float-max"],
)
def test_spectrum_refusal_rows(V, answer, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if answer is None:
            with pytest.raises(NonPositiveDefiniteError, match=message) as exc:
                symplectic_eigenvalues(V)
            with pytest.raises(NonPositiveDefiniteError) as ref:
                symplectic_eigenvalues_full_floor(V)
            assert str(exc.value) == str(ref.value)
        else:
            nu = symplectic_eigenvalues(V)
            assert np.array_equal(nu, symplectic_eigenvalues_full_floor(V))
            assert nu.tolist() == answer


def test_the_scaled_singular_row_passes_all_but_the_condition_guard():
    L = np.linalg.cholesky(_SINGULAR)
    nu_1 = np.linalg.eigvalsh(1j * L.T @ omega(2) @ L)[2]
    r = nu_1 / (4 * _SINGULAR.diagonal().max())
    assert r < 1e-4 and nu_1 * r > 2 * TAU_PD
