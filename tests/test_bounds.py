import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_bounds import (
    bound_profile_sweep,
    classical_checks,
    coherence_scale_checks,
    entanglement_check,
    g,
    g_prime,
    gaussian_pure_bound,
    log_negativity_qcs_bound,
    log_negativity_qcs_refined,
    make_tmsv,
    mtn_floor_from_entanglement,
    na_star_asymptotic,
    qcs2_gaussian,
    qcs_implication_report,
    solve_na_star,
    split_accuracy_sweep,
    split_bound_asymptotic,
    theorem_split_bound,
    theorem_symmetric_bound,
)
from bosonic_bounds.tolerances import TAU_CHECK, TAU_PHYS, TAU_ROOT, TAU_SAT


def test_g_fixed_values():
    assert g(0.0) == 0.0
    assert g(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert g(math.e - 1.0) == pytest.approx(
        1.0 + (math.e - 1.0) * math.log(math.e / (math.e - 1.0)), rel=1e-13
    )


def test_g_is_finite_where_its_reciprocal_overflows():
    # 1 / x overflows below about 5.6e-309; there x ln(1 + 1/x) = -x ln x.
    x = 1e-310
    assert g(x) == pytest.approx(x * (1.0 - math.log(x)), rel=1e-15)
    assert g_prime(x) == -math.log(x)
    assert 0.0 < g(5e-324) < g(x) < g(5.6e-309) < g(1e-300)
    assert math.isfinite(g_prime(5e-324))
    x = 1e-300
    assert g(x) == math.log1p(x) + x * math.log1p(1.0 / x)


def test_g_rejects_negative():
    with pytest.raises(ValueError):
        g(-0.1)


@given(st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_g_prime_matches_finite_difference(x):
    h = 1e-5 * x
    numeric = (g(x + h) - g(x - h)) / (2.0 * h)
    assert g_prime(x) == pytest.approx(numeric, rel=1e-4)


def test_g_is_concave_on_samples():
    xs = np.linspace(0.1, 50.0, 200)
    vals = np.array([g(x) for x in xs])
    second = np.diff(vals, 2)
    assert second.max() <= 1e-12


def test_g_inequality_suite():
    xs = np.logspace(-6, 6, 400)
    vals = np.array([g(x) for x in xs])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals <= xs + 0.5 + 1e-12)
    assert np.all(vals <= np.log(xs) + 1.0 + 1.0 / xs + 1e-12)
    big = xs >= 1.0
    assert np.all(vals[big] <= np.log(xs[big]) + 2.0 + 1e-12)


def test_symmetric_bound_values_and_validation():
    assert theorem_symmetric_bound(3.0, 2) == pytest.approx(g(1.0), rel=1e-14)
    assert theorem_symmetric_bound(1.0, 4) == 0.0
    with pytest.raises(ValueError):
        theorem_symmetric_bound(3.0, 3)
    with pytest.raises(ValueError):
        theorem_symmetric_bound(0.9, 2)


@pytest.mark.parametrize(
    "bound",
    [
        lambda mtn: theorem_symmetric_bound(mtn, 2),
        lambda mtn: theorem_split_bound(mtn, 1, 2),
        lambda mtn: gaussian_pure_bound(mtn, 1, 2),
    ],
    ids=["symmetric", "split", "gaussian-pure"],
)
def test_bounds_take_mtn_within_tau_phys_below_one_as_one(bound):
    # A classical pure state's M_TN read from Fock amplitudes can round a
    # few ulps below 1; up to TAU_PHYS below, the bound is its value at 1.
    assert bound(1.0 - 0.5 * TAU_PHYS) == bound(1.0) == 0.0
    assert bound(1.0 - 1.2e-14) == 0.0
    with pytest.raises(ValueError, match="M_TN must be >= 1"):
        bound(1.0 - 2.0 * TAU_PHYS)


def test_mtn_floor_inverts_symmetric_bound():
    n = 2
    mtn = 4.0
    ef = theorem_symmetric_bound(mtn, n)
    if ef >= 0.75 * n:
        floor = mtn_floor_from_entanglement(ef, n)
        assert floor is not None
        assert floor <= mtn + 1e-12
    assert mtn_floor_from_entanglement(0.1, 2) is None


def test_mtn_floor_threshold_value():
    # exactly at the applicability threshold the floor is 1 + 2/sqrt(e)
    floor = mtn_floor_from_entanglement(1.5, 2)
    assert floor == pytest.approx(1.0 + 2.0 * math.exp(-0.5), rel=1e-12)


def test_mtn_floor_holds_for_tmsv_sweep():
    for r in np.linspace(1.0, 3.0, 9):
        ef = g(math.sinh(r) ** 2)
        floor = mtn_floor_from_entanglement(ef, 2)
        if floor is not None:
            assert math.cosh(2.0 * r) >= floor - 1e-12


def test_solve_na_star_symmetric_is_half():
    sol = solve_na_star(100.0, 3, 3)
    assert sol.na_star == 50.0
    assert sol.residual == 0.0


def test_solve_na_star_balances_entropies():
    sol = solve_na_star(100.0, 1, 3)
    lhs = 1 * g(sol.na_star / 1)
    rhs = 3 * g((100.0 - sol.na_star) / 3)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert sol.nb_star == pytest.approx(100.0 - sol.na_star)
    assert sol.method == "bisection"


def test_solve_na_star_gives_majority_to_fewer_modes():
    # fewer modes need more photons to carry the same entropy
    sol = solve_na_star(100.0, 1, 3)
    assert sol.na_star > 50.0


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 5), (3, 4)])
def test_solve_na_star_residuals_small_across_budgets(n_a, n_b):
    for nu in np.geomspace(0.5, 2000.0, 40):
        N = nu * n_a
        sol = solve_na_star(N, n_a, n_b)
        assert sol.residual <= TAU_ROOT * max(1.0, N)


# Budgets at the edges of the solver's range, and even splits, beside the
# default figure grids.  1.7e308 is near the top of the float range; below
# about 5.6e-309 the 1 / x inside g overflows; at large N with n_A > n_B the
# root lies many orders of magnitude below N.
_EDGE_POINTS = [
    (0.0, 1, 2), (0.0, 3, 3), (1e-12, 1, 2), (1e-12, 3, 7),
    (1e6, 1, 2), (1e6, 2, 5), (1e6, 3, 3), (7.5, 2, 2),
    (1.7e308, 1, 2), (1e-310, 1, 2), (1e20, 9, 1), (1e30, 2, 1),
]


def test_solve_na_star_agrees_with_brentq():
    from scipy.optimize import brentq

    rows = bound_profile_sweep() + split_accuracy_sweep()
    grid = [(row["nu"] * row["n_a"], row["n_a"], row["n_b"]) for row in rows]
    for N, n_a, n_b in grid + _EDGE_POINTS:
        sol = solve_na_star(N, n_a, n_b)
        assert (sol.method, sol.total) == ("bisection", N)
        assert 0.0 <= sol.na_star <= N
        assert sol.residual <= TAU_ROOT * max(1.0, N)
        if N == 0.0:
            assert sol.na_star == 0.0
            continue
        # relative to the root, however far below N it lies; xtol is four
        # subnormal steps, as brentq never stops within one
        ref = brentq(
            lambda t: n_a * g(t / n_a) - n_b * g((N - t) / n_b), 0.0, N,
            xtol=4.0 * math.ulp(0.0), rtol=4.0 * np.finfo(float).eps, maxiter=2000,
        )
        assert sol.na_star == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert max(solve_na_star(*point).iterations for point in grid) <= 20


def test_mirrored_solves_store_the_same_share_and_residual():
    # N_B* is the share the solver found, not N - N_A*, which reads 0 once
    # N_B* falls below ulp(N).
    rows = bound_profile_sweep() + split_accuracy_sweep()
    grid = [(row["nu"] * row["n_a"], row["n_a"], row["n_b"]) for row in rows]
    for N, n_a, n_b in grid + _EDGE_POINTS:
        sol, mirror = solve_na_star(N, n_a, n_b), solve_na_star(N, n_b, n_a)
        assert sol.nb_star == mirror.na_star and sol.na_star == mirror.nb_star
        assert sol.residual == mirror.residual
    assert solve_na_star(1e20, 1, 9).nb_star == pytest.approx(612.7044376474738, rel=1e-14)


@pytest.mark.parametrize(
    "N,n_a,n_b", [(1e20, 9, 1), (1e30, 2, 1), (1e100, 5, 1), (1e300, 9, 2), (1.7e308, 2, 1)]
)
def test_solve_na_star_brackets_a_root_far_below_the_budget(N, n_a, n_b):
    # The balance changes sign within 1e-13 of N_A* on either side.  Its
    # rounding error limits the root to about 1e-14 relative here, too
    # coarse for the 1e-14 match with brentq.
    sol = solve_na_star(N, n_a, n_b)

    def balance(t):
        return n_a * g(t / n_a) - n_b * g((N - t) / n_b)

    assert balance(sol.na_star * (1.0 - 1e-13)) < 0.0 < balance(sol.na_star * (1.0 + 1e-13))
    assert sol.iterations <= 10


def test_na_star_increases_with_budget():
    sols = [solve_na_star(N, 2, 3) for N in np.linspace(1.0, 500.0, 60)]
    na = [s.na_star for s in sols]
    nb = [s.nb_star for s in sols]
    assert all(b > a for a, b in zip(na, na[1:]))
    assert all(b > a for a, b in zip(nb, nb[1:]))


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (3, 9), (2, 5)])
def test_bound_profile_concave_in_budget(n_a, n_b):
    Ns = np.linspace(2.0, 1000.0, 120)
    F = np.array([n_a * g(solve_na_star(N, n_a, n_b).na_star / n_a) for N in Ns])
    assert float(np.diff(F, 2).max()) <= 1e-9


def test_asymptotic_warns_below_validity():
    with pytest.warns(UserWarning):
        na_star_asymptotic(5.0, 1, 2)


def test_asymptotic_variants_improve_with_budget():
    for n_a, n_b in [(1, 2), (1, 5)]:
        errs_lead, errs_ref = [], []
        for nu in (10.0, 100.0, 1000.0):
            N = nu * n_a
            exact = solve_na_star(N, n_a, n_b).na_star
            lead = na_star_asymptotic(N, n_a, n_b, "leading").na_star
            ref = na_star_asymptotic(N, n_a, n_b, "refined").na_star
            errs_lead.append(abs(lead - exact) / exact)
            errs_ref.append(abs(ref - exact) / exact)
        assert errs_lead[0] > errs_lead[1] > errs_lead[2]
        assert errs_ref[0] > errs_ref[1] > errs_ref[2]
        assert all(r < l for r, l in zip(errs_ref, errs_lead))


def test_asymptotic_symmetric_leading_split_is_exact():
    sol = na_star_asymptotic(80.0, 2, 2, "leading")
    assert sol.na_star == pytest.approx(40.0, rel=1e-14)


def test_asymptotic_out_of_range_root_reports_nan_residual():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = na_star_asymptotic(3.0, 3, 15, "leading")
    assert sol.na_star < 0.0
    assert math.isnan(sol.residual)


@pytest.mark.parametrize(
    "N, n_a, n_b, variant",
    [(1.0, 1000, 1, "leading"),  # (e nu)^(1 - mu) overflows
     (1e300, 3, 1, "refined"),  # nu^mu overflows
     (5e-324, 2, 2, "refined"),  # nu rounds to 0, so nu^mu does too
     (5e-324, 3, 2, "leading")],  # 0 to a negative power
)
def test_asymptotic_root_past_the_float_range_is_nan(N, n_a, n_b, variant):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = na_star_asymptotic(N, n_a, n_b, variant)
    assert math.isnan(sol.na_star) and math.isnan(sol.residual)


def test_split_bound_asymptotic_refuses_a_root_past_the_float_range():
    import warnings

    # N = 0.5 photons over 1000 A-modes: (e nu)^(1 - mu) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="no positive photon number"):
            split_bound_asymptotic(1.0 + 1.0 / 1001.0, 1000, 1)


@pytest.mark.parametrize("N", [math.nan, math.inf, -math.inf])
def test_na_star_solvers_reject_non_finite_budget(N):
    with pytest.raises(ValueError, match="must be finite"):
        solve_na_star(N, 1, 2)
    for variant in ("leading", "refined"):
        with pytest.raises(ValueError, match="must be finite"):
            na_star_asymptotic(N, 1, 2, variant)


@pytest.mark.parametrize(
    "n_a, n_b", [(10**400, 1), (1, 10**400), (2, 10**309)], ids=["n_a", "n_b", "n_b-1e309"]
)
def test_na_star_solvers_reject_mode_counts_past_the_float_range(n_a, n_b):
    with pytest.raises(ValueError, match="mode counts must be at most"):
        solve_na_star(10.0, n_a, n_b)
    for variant in ("leading", "refined"):
        with pytest.raises(ValueError, match="mode counts must be at most"):
            na_star_asymptotic(10.0, n_a, n_b, variant)


def test_asymptotic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        na_star_asymptotic(10.0, 1, 2, "quadratic")
    with pytest.raises(ValueError):
        na_star_asymptotic(0.0, 1, 2)


def test_split_bound_reduces_to_symmetric_for_even_split():
    mtn = 3.5
    assert theorem_split_bound(mtn, 2, 2) == pytest.approx(
        theorem_symmetric_bound(mtn, 4), rel=1e-12
    )


def test_split_bound_is_the_symmetric_bound_bit_for_bit_on_an_even_split():
    # 2000 draws of M_TN in [1, 200] per n_A = 1..8; the Newton solve's
    # n_A g(N_A*/n_A) differed from (n/2) g((M_TN - 1)/2) by an ulp on 216.
    rng = np.random.default_rng(0)
    for n_a in range(1, 9):
        for mtn in rng.uniform(1.0, 200.0, size=2000):
            assert theorem_split_bound(mtn, n_a, n_a) == theorem_symmetric_bound(mtn, 2 * n_a)


def test_split_bound_closed_form_approaches_exact():
    mtn = 200.0
    exact = theorem_split_bound(mtn, 1, 3)
    approx = split_bound_asymptotic(mtn, 1, 3)
    assert approx == pytest.approx(exact, rel=2e-2)
    with pytest.raises(ValueError):
        split_bound_asymptotic(1.0, 1, 3)


def test_gaussian_pure_bound_matches_split_bound_when_even():
    mtn = 2.8
    assert gaussian_pure_bound(mtn, 2, 2) == pytest.approx(
        theorem_split_bound(mtn, 2, 2), rel=1e-12
    )


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (1, 3), (2, 5)])
def test_gaussian_pure_bound_below_split_bound_when_uneven(n_a, n_b):
    for mtn in np.linspace(1.01, 50.0, 30):
        assert gaussian_pure_bound(mtn, n_a, n_b) <= (
            theorem_split_bound(mtn, n_a, n_b) + 1e-12
        )


def test_log_negativity_qcs_bound_check_fields():
    chk = log_negativity_qcs_bound(en=0.5, qcs2=2.0, n=2, n_minus=1)
    assert chk.rhs == pytest.approx(math.log(2.0) + math.log(2.0))
    assert chk.holds
    assert chk.margin == pytest.approx(chk.rhs - 0.5)
    d = asdict(chk)
    assert set(d) >= {"provenance", "lhs", "rhs", "margin", "holds", "saturated"}


def test_log_negativity_qcs_bound_validates_n_minus():
    with pytest.raises(ValueError):
        log_negativity_qcs_bound(0.5, 2.0, 2, 0)
    with pytest.raises(ValueError):
        log_negativity_qcs_bound(0.5, 2.0, 2, 3)


def test_refined_bound_saturated_by_tmsv():
    r = 0.8
    st = make_tmsv(r)
    qcs2 = qcs2_gaussian(st)
    det_v = float(np.linalg.det(st.cov))
    chk = log_negativity_qcs_refined(qcs2, 2.0 * r, det_v)
    assert chk.holds
    assert chk.saturated
    assert abs(chk.margin) <= 1e-9


@pytest.mark.parametrize("det_v", [0.0, -1.0, math.nan])
def test_refined_bound_refuses_a_det_v_that_is_not_positive(det_v):
    with pytest.raises(ValueError, match="det V must be positive"):
        log_negativity_qcs_refined(1.5, 0.3, det_v)
    # Only the refinement reads det V: a state it does not apply to may pass NaN.
    checks = coherence_scale_checks(0.3, 1.5, 3, 1, math.nan)
    assert checks and "two-mode coherence-scale refinement" not in {c.provenance for c in checks}
    with pytest.raises(ValueError, match="det V must be positive"):
        coherence_scale_checks(0.3, 1.5, 2, 1, det_v)


def test_saturation_flips_at_tau_sat():
    # at M_TN = 1 the even-split bound is exactly 0, so the margin is -ef
    for ef in (TAU_SAT, -TAU_SAT):
        assert entanglement_check(ef, 1.0, 1, 1).saturated
    for ef in (math.nextafter(TAU_SAT, 1.0), math.nextafter(-TAU_SAT, -1.0)):
        assert not entanglement_check(ef, 1.0, 1, 1).saturated


_EVEN = "entanglement vs total noise (even split)"
_UNEVEN = "entanglement vs total noise (uneven split)"


@pytest.mark.parametrize("n_a", [1, 2, 3])
@pytest.mark.parametrize("mtn", [1.0, 1.5, 2.8, 100.0])
def test_entanglement_check_takes_the_symmetric_bound_on_an_even_split(n_a, mtn):
    chk = entanglement_check(0.3, mtn, n_a, n_a)
    assert chk.provenance == _EVEN
    assert chk.rhs == theorem_symmetric_bound(mtn, 2 * n_a)
    assert chk.margin == chk.rhs - 0.3


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 3), (2, 1)])
@pytest.mark.parametrize("mtn", [1.0, 1.5, 2.8, 100.0])
def test_entanglement_check_takes_the_split_bound_on_an_uneven_split(n_a, n_b, mtn):
    chk = entanglement_check(0.3, mtn, n_a, n_b)
    assert chk.provenance == _UNEVEN
    assert chk.rhs == theorem_split_bound(mtn, n_a, n_b)
    assert chk.margin == chk.rhs - 0.3


def test_classical_checks_hold_up_to_tau_check_and_fail_one_ulp_past_it():
    names = ["classical states have QCS^2 <= 1", "classical states have zero log-negativity"]
    # the largest C^2 with 1 - C^2 >= -TAU_CHECK
    qcs2_edge = 1.0 + TAU_CHECK
    while 1.0 - qcs2_edge < -TAU_CHECK:
        qcs2_edge = math.nextafter(qcs2_edge, 0.0)
    for qcs2, en, holds in [
        (0.5, 0.0, [True, True]),
        (qcs2_edge, TAU_CHECK, [True, True]),
        (math.nextafter(qcs2_edge, 2.0), 0.0, [False, True]),
        (1.0, math.nextafter(TAU_CHECK, 1.0), [True, False]),
    ]:
        checks = classical_checks(qcs2, en, TAU_CHECK)
        assert [c.provenance for c in checks] == names
        assert [c.holds for c in checks] == holds
        # the rules the audit applied inline before these checks existed
        assert holds == [1.0 - qcs2 >= -TAU_CHECK, en <= TAU_CHECK]
        assert [c.margin for c in checks] == [1.0 - qcs2, 0.0 - en]


def test_implication_report_regimes():
    # strongly entangled: must be flagged nonclassical
    checks = qcs_implication_report(qcs2=5.0, en=3.0, n=2)
    names = [c.provenance for c in checks]
    assert any("nonclassical" in name for name in names)
    # very classical: must be flagged unentangled
    checks = qcs_implication_report(qcs2=0.1, en=0.0, n=2)
    names = [c.provenance for c in checks]
    assert any("unentangled" in name for name in names)
    # middle ground triggers neither implication
    assert qcs_implication_report(qcs2=1.0, en=0.1, n=2) == []


@given(
    st.floats(min_value=1.0 + 1e-9, max_value=1e4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_split_bound_never_exceeds_total_entropy_budget(mtn, n_a, n_b):
    bound = theorem_split_bound(mtn, n_a, n_b)
    n = n_a + n_b
    N = 0.5 * n * (mtn - 1.0)
    # each party's entropy is at most its modes times g(photons per mode)
    assert bound <= n_a * g(N / n_a) + 1e-9
