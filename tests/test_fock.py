import decimal
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammainc

from bosonic_bounds import (
    Bipartition,
    CutoffOverflowError,
    FockDensityOperator,
    FockPureState,
    SchemaError,
    TruncationError,
    apply_beam_splitter_fock,
    beam_splitter_block,
    entanglement_entropy,
    entanglement_measures_pure,
    fock,
    fock_from_dict,
    fock_to_dict,
    g,
    load_fock,
    make_counterexample_states,
    make_fock_coherent,
    make_fock_number,
    make_fock_squeezed,
    make_fock_thermal,
    make_fock_tmsv,
    make_squeezed,
    mtn_pure,
    number_preserving_permutation,
    number_preserving_phases,
    qcs2_fock,
    saturating_family,
    save_fock,
    schmidt_coefficients,
    squeezed_cutoff,
    thermal_cutoff,
    tmsv_cutoff,
    total_noise,
)
from bosonic_bounds.tolerances import TAU_TRUNC
from oracles import quadrature_moments


def test_number_state_moments():
    psi = make_fock_number((3,))
    mean, cov = quadrature_moments(psi)
    assert_allclose(mean, [0.0, 0.0], atol=1e-14)
    assert_allclose(cov, (2 * 3 + 1) * np.eye(2), atol=1e-12)


def test_number_state_rejects_bad_occupations():
    with pytest.raises(ValueError):
        make_fock_number((-1,))
    with pytest.raises(ValueError):
        make_fock_number((4,), cutoffs=(3,))
    with pytest.raises(ValueError, match="cutoffs has 1 entries for 2 modes"):
        make_fock_number((1, 2), cutoffs=(3,))
    with pytest.raises(ValueError, match="cutoffs has 2 entries for 1 modes"):
        make_fock_number((1,), cutoffs=(3, 4))


@pytest.mark.parametrize(
    "occupations, cutoffs, named",
    [((1.7,), None, "occupations entry 1.7"),
     ((2, 1.0), None, "occupations entry 1.0"),
     ((math.inf,), None, "occupations entry inf"),
     ((math.nan,), None, "occupations entry nan"),
     ((1,), (2.9,), "cutoffs entry 2.9"),
     ((1,), (math.inf,), "cutoffs entry inf"),
     ((1,), ("3",), "cutoffs entry '3'")],
)
def test_number_state_takes_integers_only(occupations, cutoffs, named):
    with pytest.raises(ValueError, match=re.escape(named) + " is not an integer"):
        make_fock_number(occupations, cutoffs)


def test_number_state_cutoffs_default_to_one_above_each_occupation():
    assert make_fock_number((3, 7)).cutoffs == (4, 8)
    assert make_fock_number((0, 2, 3)).cutoffs == (1, 3, 4)
    psi = make_fock_number((np.int64(2), 1), cutoffs=(np.int32(3), 2))
    assert psi.cutoffs == (3, 2) and psi.amps[2, 1] == 1.0


def test_coherent_state_is_minimum_noise():
    psi = make_fock_coherent(0.8 - 0.3j, tau=1e-14)
    mean, cov = quadrature_moments(psi)
    assert_allclose(mean, [np.sqrt(2) * 0.8, -np.sqrt(2) * 0.3], atol=1e-10)
    assert_allclose(cov, np.eye(2), atol=1e-10)
    psi.check_tail(1e-9)
    assert mtn_pure(psi) == pytest.approx(1.0, abs=1e-10)


def test_coherent_cutoff_search_returns_at_large_amplitude():
    # exp(-|alpha|^2) underflows to 0 past |alpha|^2 ~ 745, so the cutoff
    # search must not rebuild the Poisson mass from its first term.
    psi = make_fock_coherent(30.0)
    assert psi.cutoffs == (2048,)
    assert psi.tail_mass <= 1e-10
    photons = np.sum(np.arange(2048) * np.abs(psi.amps) ** 2)
    assert photons == pytest.approx(900.0, rel=1e-12)


def test_coherent_tail_is_the_poisson_tail():
    # Here 1 - sum |c_k|^2 rounds to 1.06e-12 while the Poisson tail at
    # cutoff 512 is 9.84e-13, inside tau.
    alpha = 19.198 * np.exp(0.3j)
    tail = gammainc(512, abs(alpha) ** 2)
    poisson = pytest.approx(tail, rel=1e-10, abs=0.0)
    assert make_fock_coherent(alpha, tau=1e-12).tail_mass == poisson
    psi = make_fock_coherent(alpha, cutoff=512, tau=1e-12)
    assert psi.cutoffs == (512,) and psi.tail_mass == poisson
    assert 1.0 - psi.norm2() != pytest.approx(tail, rel=1e-2, abs=0.0)
    with pytest.raises(TruncationError):
        make_fock_coherent(0.0, cutoff=0)


def _coherent_amps_lgamma_list(alpha, cutoff):
    """Reference: the former builder, ln(k!) from a Python list of lgamma values."""
    k = np.arange(cutoff)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(cutoff)])
    logs = -0.5 * abs(alpha) ** 2 + k * np.log(np.abs(alpha)) - 0.5 * log_fact
    return np.exp(logs) * np.exp(1j * np.angle(alpha) * k)


@pytest.mark.parametrize("alpha", [1e-3, 0.8 - 0.3j, 2.0, 5.0 * np.exp(2.1j), -12.0, 30.0, 30j])
def test_coherent_amplitudes_match_the_lgamma_reference(alpha):
    psi = make_fock_coherent(alpha)
    assert_allclose(psi.amps, _coherent_amps_lgamma_list(alpha, psi.cutoffs[0]),
                    rtol=1e-11, atol=0.0)


def test_coherent_vacuum_is_exactly_the_zero_photon_state():
    for alpha in (0, 0.0, 0j):
        psi = make_fock_coherent(alpha)
        assert psi.amps[0] == 1.0 and not np.any(psi.amps[1:])
        assert psi.tail_mass == 0.0


def test_coherent_builder_holds_at_most_three_tensors():
    # A 2 MiB tensor; the lgamma-list builder peaked at 5x it.
    alpha = 300.0 * np.exp(0.4j)
    make_fock_coherent(alpha)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        psi = make_fock_coherent(alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * psi.amps.nbytes


def test_pure_state_constructor_holds_only_its_copy():
    # A 256 KiB tensor: the norm from np.abs(amps) ** 2 held 1.0x more in
    # temporaries beside the copy (2.0x in all, beyond the caller's array).
    alpha = 100.0 * np.exp(0.4j)
    psi = make_fock_coherent(alpha)
    amps = fock._coherent_amps(alpha, psi.cutoffs[0])
    FockPureState(amps, psi.tail_mass)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        FockPureState(amps, psi.tail_mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amps.nbytes == 2**18
    assert peak <= 1.1 * amps.nbytes


def test_norm2_matches_the_summed_squared_moduli():
    for r in np.linspace(0.05, 2.3, 46):
        psi = make_fock_tmsv(float(r))
        ref = float(np.sum(np.abs(psi.amps) ** 2))
        assert psi.norm2() == pytest.approx(ref, rel=0.0, abs=1.1e-15)


def test_poisson_tail_matches_regularized_gamma():
    cutoffs = sorted({*range(1, 65), *np.geomspace(1, 4096, 60).astype(int).tolist()})
    for x in np.geomspace(1e-6, 2000.0, 80):
        for c in cutoffs:
            ref = gammainc(c, x)
            got = fock._poisson_tail(c, float(x))
            if ref < 1e-280:  # below the Poisson tail anyone records
                assert got < 1e-270
            else:
                assert got == pytest.approx(ref, rel=1e-10, abs=0.0), (c, x)
    assert fock._poisson_tail(0, 2.0) == 1.0
    assert fock._poisson_tail(5, 0.0) == 0.0


def test_coherent_cutoff_search_keeps_the_power_of_two_rule():
    for x in np.geomspace(1e-6, 2000.0, 60):
        for tau in (1e-6, 1e-9, 1e-12, 1e-14):
            expected = 8
            while gammainc(expected, x) > tau:
                expected *= 2
            psi = make_fock_coherent(math.sqrt(x) * np.exp(0.7j), tau=tau)
            assert psi.cutoffs == (expected,), (x, tau)


_COHERENT_MODULES = """
import json, sys
from bosonic_bounds import make_fock_coherent
make_fock_coherent(3.0)
make_fock_coherent(30.0)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_coherent_states_load_no_scipy():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COHERENT_MODULES],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi / 4, 1.1])
def test_squeezed_fock_matches_gaussian_covariance(phi):
    s = 0.6
    psi = make_fock_squeezed(s, phi, tau=1e-13)
    _, cov = quadrature_moments(psi)
    assert_allclose(cov, make_squeezed(s, phi).cov, atol=1e-10)


def test_squeezed_even_amplitudes_only():
    psi = make_fock_squeezed(0.5, 0.0, tau=1e-12)
    assert_allclose(psi.amps[1::2], 0.0, atol=1e-15)
    # squeezing along X alternates amplitude signs
    assert psi.amps[0].real > 0
    assert psi.amps[2].real < 0
    assert psi.amps[4].real > 0


def test_tmsv_amplitudes_geometric():
    r = 0.7
    psi = make_fock_tmsv(r, tau=1e-13)
    t = np.tanh(r)
    k = np.arange(psi.cutoffs[0])
    assert_allclose(np.diagonal(psi.amps.real), t**k / np.cosh(r), atol=1e-12)
    off = psi.amps - np.diag(np.diagonal(psi.amps))
    assert_allclose(off, 0.0, atol=1e-15)


def test_thermal_density_operator_basics():
    rho = make_fock_thermal(1.0, tau=1e-12)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert rho.purity() == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_total_noise_and_mtn():
    assert total_noise(make_fock_number((2, 0))) == pytest.approx(6.0, abs=1e-12)
    assert mtn_pure(make_fock_number((10, 0))) == pytest.approx(11.0, rel=1e-12)
    r = 0.8
    assert mtn_pure(make_fock_tmsv(r, tau=1e-12)) == pytest.approx(
        np.cosh(2 * r), rel=1e-9
    )


def test_displacement_does_not_change_mtn():
    psi = make_fock_coherent(1.2, tau=1e-14)
    psi.check_tail(1e-10)
    assert mtn_pure(psi) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_total_noise_is_half_the_trace_of_the_moments_covariance(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(6):
        psi = _random_fock_state(rng, tuple(rng.integers(2, 7, size=n)))
        _, V = quadrature_moments(psi)
        assert total_noise(psi) == pytest.approx(0.5 * np.trace(V), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("occ", [(0,), (3,), (2, 5), (1, 0, 4), (40, 0), (7, 7)])
def test_number_states_have_total_noise_2n_plus_modes(occ):
    want = 2 * sum(occ) + len(occ)
    assert total_noise(make_fock_number(occ)) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [0.3, 1.2 * np.exp(0.4j), -2.5j, 4.0])
def test_coherent_states_have_unit_mtn(alpha):
    psi = make_fock_coherent(alpha, tau=1e-14)
    psi.check_tail(1e-14)
    assert mtn_pure(psi) == pytest.approx(1.0, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
def test_tmsv_has_mtn_cosh_2r(r):
    psi = make_fock_tmsv(r, tau=1e-15)
    psi.check_tail(1e-15)
    assert mtn_pure(psi) == pytest.approx(math.cosh(2 * r), rel=1e-13, abs=0.0)


def test_total_noise_holds_one_lowered_tensor_at_a_time():
    psi = _random_fock_state(np.random.default_rng(6), (60, 60, 60))
    total_noise(psi)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        total_noise(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one lowered tensor and numpy's fixed ufunc buffers; two tensors would be over 2x
    assert peak <= 1.5 * psi.amps.nbytes


def _squeezed_amps_loop(s, phi, cutoff):
    """The per-level lgamma loop that built the squeezed vacuum, kept as its reference."""
    amps = np.zeros(cutoff, dtype=complex)
    base = math.sqrt(1.0 / math.cosh(s))
    factor = -np.exp(2j * phi) * math.tanh(s)
    for m in range(0, (cutoff - 1) // 2 + 1):
        ln = 0.5 * math.lgamma(2 * m + 1) - math.lgamma(m + 1) - m * math.log(2.0)
        amps[2 * m] = base * math.exp(ln) * factor**m
    return amps


@pytest.mark.parametrize("s", [0.0, 0.05, 0.5, -0.8, 1.3, 2.0, -2.0])
@pytest.mark.parametrize("phi", [0.0, 0.7, -2.3])
def test_squeezed_builder_matches_the_per_level_loop(s, phi):
    psi = make_fock_squeezed(s, phi, tau=1e-14)
    assert_allclose(psi.amps, _squeezed_amps_loop(s, phi, psi.cutoffs[0]), rtol=1e-12, atol=0.0)
    if phi == 0.0:  # the signs (-sign s)^m are exact, with no imaginary residue
        assert not psi.amps.imag.any()
        ref = _squeezed_amps_loop(s, 0.0, psi.cutoffs[0])
        assert np.array_equal(np.sign(psi.amps.real), np.sign(ref.real))


def test_squeezed_builder_zeroes_every_level_above_vacuum_at_s_zero():
    psi = make_fock_squeezed(0.0, 0.4, cutoff=7)
    assert np.array_equal(psi.amps, np.eye(1, 7)[0])


def test_tail_guard_raises():
    psi = make_fock_tmsv(1.0, cutoff=4, tau=1.0)
    assert psi.tail_mass > 1e-2
    with pytest.raises(TruncationError, match=r"state: .* at cutoff \(4, 4\) .*increase cutoffs"):
        psi.check_tail(1e-12)
    psi.check_tail(psi.tail_mass)


def test_measures_read_the_stored_state_whatever_its_tail():
    # The tail is checked where a state is built or read; a measure reads
    # the truncated tensor as it is, here with 1 - t^8 of the norm.
    psi = make_fock_tmsv(1.0, cutoff=4, tau=1.0)
    with pytest.raises(TruncationError):
        psi.check_tail(TAU_TRUNC)
    p = np.abs(np.diagonal(psi.amps)) ** 2
    assert total_noise(psi) == pytest.approx(2.0 + 4.0 * np.dot(np.arange(4), p), rel=1e-14)
    assert mtn_pure(psi) == qcs2_fock(psi) == total_noise(psi) / 2
    ef, en = entanglement_measures_pure(psi, Bipartition(1, 1))
    assert ef == entanglement_entropy(psi, Bipartition(1, 1))
    assert ef == pytest.approx(-np.sum(p * np.log(p)), rel=1e-12)
    assert en == pytest.approx(2.0 * np.log(np.sum(np.sqrt(p))), rel=1e-12)
    with pytest.raises(TruncationError, match=r"tmsv: .* at cutoff 4 .*increase cutoffs"):
        make_fock_tmsv(1.0, cutoff=4, tau=1e-12)


# Each geometric family's recorded tail: its closed form at per-mode cutoff K.
def _tmsv_tail(r, K):
    t = math.tanh(r)
    return (t * t) ** K


def _build_tmsv(r, tau):
    psi = make_fock_tmsv(r, tau=tau)
    return psi.cutoffs[0], psi.tail_mass, 1.0 - psi.norm2()


def _build_thermal(nbar, tau):
    rho = make_fock_thermal(nbar, tau=tau)
    return rho.cutoffs[0], rho.tail_mass, 1.0 - rho.trace()


def _build_saturating(r, tau):
    psi = saturating_family(2, r, tau=tau)
    return psi.cutoffs[0], psi.tail_mass, 1.0 - psi.norm2()


def _build_counterexample(q, tau):
    psi, partner = make_counterexample_states(q, 2, tau=tau)
    assert partner.tail_mass == psi.tail_mass
    return psi.cutoffs[0], psi.tail_mass, 1.0 - psi.norm2()


_GEOMETRIC_FAMILIES = {
    "tmsv": (_build_tmsv, (0.05, 2.3), _tmsv_tail),
    "thermal": (_build_thermal, (0.01, 5.0), lambda nbar, K: (nbar / (1.0 + nbar)) ** K),
    "saturating": (_build_saturating, (0.05, 2.0),
                   lambda r, K: -math.expm1(math.log1p(-_tmsv_tail(r, K)))),
    "counterexample": (_build_counterexample, (0.01, 0.95), lambda q, K: q**K),
}


@pytest.mark.parametrize("tau", [1e-13, 1e-14, 1e-15])
@pytest.mark.parametrize("family", list(_GEOMETRIC_FAMILIES))
def test_geometric_families_record_the_tail_law_that_picks_their_cutoff(family, tau):
    build, (lo, hi), law = _GEOMETRIC_FAMILIES[family]
    for x in np.random.default_rng(0).uniform(lo, hi, 200):
        K, tail, resummed = build(float(x), tau)
        assert tail == law(float(x), K) <= tau, (x, K)
        # the re-summed 1 - sum |c_k|^2 differs from the law by rounding only
        assert abs(tail - resummed) <= K * np.finfo(float).eps, (x, K)


def test_tmsv_builds_the_cutoff_its_tail_law_picks():
    # 1 - sum |c_k|^2 rounds to 1.010e-13 here, above the law's 9.91e-14.
    r = 2.2859237374201697
    psi = make_fock_tmsv(r, tau=1e-13)
    assert psi.cutoffs == (724, 724)
    assert psi.tail_mass == _tmsv_tail(r, 724) < 1e-13


def _geometric(q, tau):
    """The shared cutoff rule on the geometric law q^K, over a one-mode tensor."""
    return fock._family_cutoff("geometric", lambda K: q**K, lambda K: (K,), None, tau)[0]


def _geometric_rule(q, tau):
    """Reference: the closed form, with its step-up, that picked geometric cutoffs
    before the shared search."""
    if q == 0.0:
        return 1
    K = max(1, math.ceil(math.log(tau) / math.log(q)))
    return K if q**K <= tau else K + 1


def _coherent_doubling(x, tau):
    """Reference: the coherent search, doubling from 8 to a Poisson tail <= tau."""
    K = 8
    while not fock._poisson_tail(K, x) <= tau:
        K *= 2
    return K


class _Resolved(Exception):
    pass


def _default_cutoff(build):
    """The default cutoff a constructor resolves, stopped before it allocates."""
    resolve = fock._family_cutoff

    def stop(*args, **kwargs):
        raise _Resolved(resolve(*args, **kwargs)[0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "_family_cutoff", stop)
        with pytest.raises(_Resolved) as resolved:
            build()
    return resolved.value.args[0]


def _assert_cutoff_or_overflow(cutoff_of, want, top):
    """cutoff_of() is want, or raises past the budget's largest cutoff top."""
    if want <= top:
        assert cutoff_of() == want
    else:
        with pytest.raises(CutoffOverflowError, match="over the budget"):
            cutoff_of()


def test_geometric_cutoffs_equal_their_closed_forms():
    taus = [1e-3, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15]
    for tau in taus:
        for x in np.random.default_rng(7).uniform(0.01, 5.0, 400).tolist():
            # 4096^2 amplitudes fill the budget; past it the search raises
            t = abs(math.tanh(x))
            want = max(1, math.ceil(0.5 * math.log(tau) / math.log(t)))
            _assert_cutoff_or_overflow(lambda: tmsv_cutoff(x, tau), want, 4096)
            q = x / (1.0 + x)
            want = max(1, math.ceil(math.log(tau) / math.log(q)))
            _assert_cutoff_or_overflow(lambda: thermal_cutoff(x, tau), want, 4096)
            for n_a in (1, 2, 3):
                K = _geometric(t * t, tau / n_a)
                assert K == max(1, math.ceil(0.5 * math.log(tau / n_a) / math.log(t)))
            q = x / 5.01
            assert _geometric(q, tau) == max(1, math.ceil(math.log(tau) / math.log(q)))
    assert tmsv_cutoff(0.0) == thermal_cutoff(0.0) == 1


def test_geometric_cutoff_steps_up_where_the_log_ratio_lands_short():
    # log(1e-10) / log(1e-5) is 2.0, but (1e-5)^2 rounds above 1e-10
    q, tau = 1e-5, 1e-10
    assert math.ceil(math.log(tau) / math.log(q)) == 2 and q**2 > tau
    assert _geometric(q, tau) == 3


@pytest.mark.parametrize("tau", [1e-6, 1e-10, 1e-12, 1e-15])
def test_the_cutoff_rule_keeps_the_geometric_closed_form(tau):
    rng = np.random.default_rng(20)
    qs = np.concatenate([rng.uniform(0.0, 1.0, 1600), 1.0 - np.geomspace(1e-7, 0.5, 1600)])
    for q in qs.tolist():
        want = _geometric_rule(q, tau)
        if want <= 2**24:  # a one-mode tensor of 2^24 amplitudes fills the budget
            assert _geometric(q, tau) == want, q
        else:
            with pytest.raises(CutoffOverflowError, match="over the budget"):
                _geometric(q, tau)


def test_the_cutoff_rule_keeps_the_saturating_cutoffs(monkeypatch):
    # Before the shared search the saturating family took the geometric rule
    # at tau / n_A; the search reads its recorded tail 1 - (1 - t^2K)^{n_A}.
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 2**400)
    for n_a in (2, 3):
        for tau in (1e-6, 1e-10, 1e-12, 1e-14):
            for r in np.linspace(0.01, 3.0, 600).tolist():
                t = math.tanh(r)
                got = _default_cutoff(lambda: saturating_family(2 * n_a, r, tau=tau))
                assert got == _geometric_rule(t * t, tau / n_a), (n_a, tau, r)


def test_the_cutoff_rule_keeps_the_squeezed_and_coherent_cutoffs():
    for s in np.linspace(0.01, 4.9, 200).tolist():
        assert squeezed_cutoff(s) == _squeezed_cutoff_search(s), s
    # _squeezed_cutoff_search takes about a second to reach this value
    assert squeezed_cutoff(7.0) == 12994174
    assert squeezed_cutoff(0.0) == squeezed_cutoff(0.0, tau=0.0) == 1
    for alpha in np.arange(0.0, 30.05, 0.1).tolist():
        want = _coherent_doubling(alpha * alpha, TAU_TRUNC)
        assert make_fock_coherent(alpha).cutoffs == (want,), alpha


def test_tau_zero_takes_the_first_cutoff_whose_tail_is_zero():
    t = math.tanh(0.5)
    for law, K in [(lambda K: (t * t) ** K, tmsv_cutoff(0.5, tau=0.0)),
                   (lambda K: 0.5**K, thermal_cutoff(1.0, tau=0.0))]:
        assert law(K) == 0.0 < law(K - 1), K
    # coherent states keep the doubling: 128 still leaves a tail
    assert make_fock_coherent(1.0, tau=0.0).cutoffs == (256,)
    assert fock._poisson_tail(256, 1.0) == 0.0 < fock._poisson_tail(128, 1.0)
    K = squeezed_cutoff(0.5, tau=0.0)
    bound, below = (fock._squeezed_bound(c, 0.5) for c in (K, K - 2))
    assert K % 2 == 0 and bound == 0.0 < below


def test_thermal_refuses_negative_occupation():
    with pytest.raises(ValueError, match="thermal occupation must be >= 0"):
        make_fock_thermal(-0.5)
    with pytest.raises(ValueError, match="thermal occupation must be >= 0"):
        thermal_cutoff(-1.0)


def test_schmidt_product_state_is_rank_one():
    psi = make_fock_number((2, 3), cutoffs=(4, 5))
    s = schmidt_coefficients(psi, Bipartition(1, 1))
    assert s[0] == pytest.approx(1.0, abs=1e-14)
    assert_allclose(s[1:], 0.0, atol=1e-14)
    assert entanglement_entropy(psi, Bipartition(1, 1)) == 0.0


_SVD = np.linalg.svd
_EPS = np.finfo(float).eps
_MONOMIAL_STATES = {
    **{f"number-{N}-{M}": (lambda N=N, M=M: make_fock_number((N, M)), Bipartition(1, 1))
       for N, M in [(0, 0), (1, 0), (40, 0), (300, 0), (7, 7), (300, 300)]},
    "number-2-0-5": (lambda: make_fock_number((2, 0, 5)), Bipartition(1, 2)),
    **{f"bs-{N}-{M}": (lambda N=N, M=M: apply_beam_splitter_fock(make_fock_number((N, M))),
                       Bipartition(1, 1))
       for N, M in [(1, 0), (2, 0), (40, 0), (300, 0), (1, 1), (40, 40), (300, 300)]},
    "tmsv-0.8": (lambda: make_fock_tmsv(0.8), Bipartition(1, 1)),
    "phased-tmsv": (lambda: _phased_tmsv(0.3, 1.1, 10), Bipartition(1, 1)),
    "counterexample": (lambda: make_counterexample_states(0.5, 2)[0], Bipartition(1, 2)),
    "counterexample-permuted": (lambda: make_counterexample_states(0.5, 2)[1], Bipartition(1, 2)),
}


def _svd_values(psi, bp):
    da = int(np.prod(psi.cutoffs[: bp.n_a]))
    return _SVD(psi.amps.reshape(da, -1), compute_uv=False)


@pytest.mark.parametrize("name", list(_MONOMIAL_STATES))
def test_monomial_supports_give_the_svd_values_without_an_svd(name, monkeypatch):
    build, bp = _MONOMIAL_STATES[name]
    psi = build()
    ref = _svd_values(psi, bp)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("an SVD ran"))
        s = schmidt_coefficients(psi, bp)
        ef, en = entanglement_measures_pure(psi, bp)
    assert s.shape == ref.shape and s.dtype == ref.dtype
    assert np.all(s[:-1] >= s[1:])
    assert np.max(np.abs(s - ref)) <= 4 * _EPS
    monkeypatch.setattr(fock, "schmidt_coefficients", _svd_values)
    ef_svd, en_svd = entanglement_measures_pure(psi, bp)
    assert abs(ef - ef_svd) <= 4 * _EPS * ef_svd and abs(en - en_svd) <= 4 * _EPS * en_svd


@pytest.mark.parametrize("shape, bp", [((5, 6), Bipartition(1, 1)), ((6, 5), Bipartition(1, 1)),
                                       ((3, 4, 5), Bipartition(1, 2)),
                                       ((3, 3, 2, 2), Bipartition(2, 2))])
def test_dense_states_give_the_svd_values_bit_for_bit(shape, bp):
    psi = _random_fock_state(np.random.default_rng(sum(shape)), shape)
    assert np.array_equal(schmidt_coefficients(psi, bp), _svd_values(psi, bp))


@pytest.mark.parametrize("where", [((0, 0), (0, 2)), ((0, 1), (2, 1))], ids=["row", "column"])
def test_two_nonzeros_in_one_row_or_column_take_the_svd(where, monkeypatch):
    amps = np.zeros((3, 3), dtype=complex)
    amps[where[0]], amps[where[1]] = 0.6, 0.8j
    psi = FockPureState(amps)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or _SVD(*a, **k))
    s = schmidt_coefficients(psi, Bipartition(1, 1))
    assert len(calls) == 1
    assert_allclose(s, [1.0, 0.0, 0.0], rtol=0, atol=4 * _EPS)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 1.1])
def test_tmsv_entropy_matches_thermal_entropy(r):
    # the Schmidt-value sum converges slowly, so give it extra headroom
    psi = make_fock_tmsv(r, cutoff=110, tau=1e-12)
    psi.check_tail(1e-9)
    ef, en = entanglement_measures_pure(psi, Bipartition(1, 1))
    assert ef == pytest.approx(g(math.sinh(r) ** 2), abs=1e-9)
    assert en == pytest.approx(2 * r, abs=1e-9)


def test_beam_splitter_block_is_unitary():
    for m in (1, 2, 5, 12):
        u = beam_splitter_block(m)
        assert_allclose(u @ u.T.conj(), np.eye(m + 1), atol=1e-12)


def _block_by_tridiagonal_solver(M):
    """The balanced beam-splitter block from scipy's tridiagonal eigensolver."""
    from scipy.linalg import eigh_tridiagonal

    if M == 0:
        return np.ones((1, 1))
    m = np.arange(M)
    alpha = (math.pi / 4.0) * np.sqrt((m + 1.0) * (M - m))
    lam, Q = eigh_tridiagonal(np.zeros(M + 1), alpha)
    D = (1j) ** np.arange(M + 1)
    return ((np.conj(D)[:, None] * Q) @ (np.exp(1j * lam)[:, None] * (Q.T * D[None, :]))).real


def test_beam_splitter_block_matches_tridiagonal_solver():
    assert beam_splitter_block.cache_parameters()["maxsize"] is None
    for M in range(81):
        u = beam_splitter_block(M)
        assert u.dtype == np.float64 and not u.flags.writeable
        assert_allclose(u, _block_by_tridiagonal_solver(M), rtol=0, atol=1e-14)


def test_beam_splitter_single_photon():
    psi = make_fock_number((1, 0))
    out = apply_beam_splitter_fock(psi)
    assert out.amps[1, 0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert out.amps[0, 1] == pytest.approx(-1 / np.sqrt(2), rel=1e-12)


def test_beam_splitter_two_photon_interference():
    out = apply_beam_splitter_fock(make_fock_number((1, 1)))
    # coincidences vanish; photons bunch into |2,0> and |0,2>
    assert abs(out.amps[1, 1]) < 1e-12
    assert abs(out.amps[2, 0]) == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert abs(out.amps[0, 2]) == pytest.approx(1 / np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("n_photons", [4, 10])
def test_beam_splitter_number_state_gives_binomial_weights(n_photons):
    out = apply_beam_splitter_fock(make_fock_number((n_photons, 0)))
    probs = np.abs(out.amps) ** 2
    ks = np.arange(n_photons + 1)
    binom = np.array(
        [math.comb(n_photons, int(k)) for k in ks], dtype=float
    ) / 2.0**n_photons
    assert_allclose(probs[ks, n_photons - ks], binom, atol=1e-12)


def test_beam_splitter_orthogonal_squeezed_pair_gives_tmsv():
    s = 0.5
    cutoff = 40
    m1 = make_fock_squeezed(s, 0.0, cutoff, tau=1e-11)
    m2 = make_fock_squeezed(s, np.pi / 2, cutoff, tau=1e-11)
    pair = FockPureState(
        np.tensordot(m1.amps, m2.amps, axes=0), m1.tail_mass + m2.tail_mass
    )
    out = apply_beam_splitter_fock(pair)
    ref = make_fock_tmsv(s, cutoff, tau=1e-11)
    # every block is kept, on cutoffs widened to the top one (M = 76); the
    # input holds blocks M <= 39 whole, so those match the TMSV exactly
    assert out.cutoffs == (77, 77) and out.tail_mass == pair.tail_mass
    assert_allclose(out.amps[:20, :20], ref.amps[:20, :20], atol=1e-12)


def test_beam_splitter_preserves_total_photon_number():
    psi = make_fock_number((3, 2), cutoffs=(6, 6))
    out = apply_beam_splitter_fock(psi)
    probs = np.abs(out.amps) ** 2
    i, j = np.indices(out.cutoffs)
    assert probs[(i + j) != 5].max() < 1e-24


def _assert_widened(psi, out, shape):
    """out keeps every block of psi on the given cutoffs: same tail, same norm."""
    assert out.cutoffs == shape
    assert out.tail_mass == psi.tail_mass
    assert out.norm2() == pytest.approx(psi.norm2(), rel=0.0, abs=1e-14)


def test_beam_splitter_widens_the_cutoffs_to_the_top_block():
    # equal-cutoff state populated at the top: block 4 needs cutoff 5 on both modes
    amps = np.zeros((3, 3), dtype=complex)
    amps[2, 2] = 1.0
    psi = FockPureState(amps, 1e-13)
    out = apply_beam_splitter_fock(psi)
    _assert_widened(psi, out, (5, 5))
    m = np.arange(5)
    assert_allclose(out.amps[m, 4 - m], beam_splitter_block(4)[:, 2], rtol=0.0, atol=0.0)


def test_qcs2_fock_thermal_matches_gaussian_value():
    rho = make_fock_thermal(1.0, tau=1e-12)
    assert qcs2_fock(rho) == pytest.approx(1.0 / 3.0, abs=1e-9)


def _beam_splitter_all_blocks(psi, modes=(0, 1)):
    """apply_beam_splitter_fock as a loop over every total-photon block.

    Each mode of the pair gets the cutoff that holds the top nonzero block,
    and never less than its own.  A block the input holds whole is
    multiplied by the whole matrix, as the version that dropped blocks past
    the cutoffs did, so on an input whose blocks all fit, the reference is
    that version's arithmetic on the same shape.
    """
    i, j = modes
    di, dj = psi.cutoffs[i], psi.cutoffs[j]
    work = np.moveaxis(psi.amps.copy(), (i, j), (0, 1))
    batch = work.reshape(di, dj, -1)
    totals = np.add.outer(np.arange(di), np.arange(dj))
    top = max((M for M in range(di + dj - 1) if np.any(batch[totals == M] != 0)), default=-1)
    ci, cj = max(di, top + 1), max(dj, top + 1)
    out = np.zeros((ci, cj, batch.shape[2]), dtype=complex)
    for M in range(di + dj - 1):
        ks = np.arange(max(0, M - dj + 1), min(di - 1, M) + 1)
        vec = batch[ks, M - ks, :]
        if not np.any(vec != 0):
            continue
        u = beam_splitter_block(M)
        if ks.size < M + 1:  # the input holds only part of the block
            u = u[:, ks]
        m = np.arange(M + 1)
        out[m, M - m, :] = u @ vec
    result = np.moveaxis(out.reshape((ci, cj) + work.shape[2:]), (0, 1), (i, j))
    return FockPureState(result, psi.tail_mass)


def _random_amps(rng, shape, keep, modes=None):
    """Random amplitudes, each kept with probability keep.

    With a mode pair, only the total-photon blocks of that pair that fit
    both its cutoffs are filled.
    """
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps *= rng.random(shape) < keep
    if modes is not None:
        i, j = modes
        levels = np.indices(shape)
        amps *= levels[i] + levels[j] < min(shape[i], shape[j])
    return amps / np.linalg.norm(amps)


def _beam_splitter_cases():
    rng = np.random.default_rng(8)
    cases = [(make_fock_number(occ), (0, 1))
             for occ in [(0, 0), (1, 0), (40, 0), (20, 20), (7, 3), (0, 5)]]
    cases.append((make_fock_number((2, 3, 1), cutoffs=(5, 4, 6)), (2, 0)))
    for shape, modes in [((6, 9), (0, 1)), ((5, 4, 3), (0, 2)), ((4, 3, 5), (2, 1))]:
        for keep in (0.05, 0.3, 1.0):
            cases.append((FockPureState(_random_amps(rng, shape, keep, modes)), modes))
    # a nonzero block whose squared mass underflows to 0.0 is rotated too
    amps = np.zeros((4, 4), dtype=complex)
    amps[1, 0], amps[0, 2] = 1e-170, 1.0
    cases.append((FockPureState(amps), (0, 1)))
    # blocks past the cutoffs widen them
    amps = _random_amps(rng, (5, 5), 1.0)
    amps[np.add.outer(np.arange(5), np.arange(5)) > 4] *= 1e-6
    cases.append((FockPureState(amps / np.linalg.norm(amps), 1e-13), (1, 0)))
    cases.append((FockPureState(_random_amps(rng, (3, 6, 2), 0.5)), (1, 0)))
    return cases


@pytest.mark.parametrize("psi, modes", _beam_splitter_cases())
def test_beam_splitter_matches_all_blocks_loop_bit_for_bit(psi, modes):
    out = apply_beam_splitter_fock(psi, modes)
    ref = _beam_splitter_all_blocks(psi, modes)
    assert out.cutoffs == ref.cutoffs
    assert out.amps.tobytes() == ref.amps.tobytes()
    assert out.tail_mass == ref.tail_mass == psi.tail_mass


def test_beam_splitter_rotates_a_block_whose_squared_mass_underflows():
    # |1e-170|^2 is 0.0, but the amplitude is not: it is rotated like any
    # other, and the output keeps it at the same magnitude
    amps = np.zeros((4, 4), dtype=complex)
    amps[1, 0], amps[0, 2] = 1e-170, 1.0
    out = apply_beam_splitter_fock(FockPureState(amps))
    assert out.cutoffs == (4, 4)
    assert_allclose(out.amps[[0, 1], [1, 0]], 1e-170 * beam_splitter_block(1)[:, 1], rtol=1e-15)


def test_beam_splitter_keeps_the_blocks_past_the_cutoffs():
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0], amps[3, 3] = math.sqrt(1.0 - 1e-10), 1e-5
    psi = FockPureState(amps, 1e-12)
    out = apply_beam_splitter_fock(psi)
    _assert_widened(psi, out, (7, 7))
    assert out.amps.tobytes() == _beam_splitter_all_blocks(psi).amps.tobytes()
    m = np.arange(7)
    assert_allclose(out.amps[m, 6 - m], 1e-5 * beam_splitter_block(6)[:, 3], rtol=1e-15)
    # a third mode rides along, and a widened pair need not be the leading axes
    rng = np.random.default_rng(5)
    psi = FockPureState(_random_amps(rng, (3, 2, 4), 1.0), 1e-9)
    out = apply_beam_splitter_fock(psi, (2, 0))
    _assert_widened(psi, out, (6, 2, 6))


def _random_fock_state(rng, shape, tail_mass=0.0):
    return FockPureState(_random_amps(rng, shape, 1.0), tail_mass)


@pytest.mark.parametrize("shape", [(1,), (7,), (4, 5), (13, 13), (6, 6, 6), (216,)])
def test_from_pure_is_the_checked_outer_product_without_an_eigensolve(shape, monkeypatch):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    psi = _random_fock_state(rng, shape, tail_mass=1e-9)
    v = psi.amps.reshape(-1)
    ref = FockDensityOperator(np.outer(v, v.conj()), psi.cutoffs, psi.tail_mass)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("from_pure ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    rho = FockDensityOperator.from_pure(psi)
    assert rho.mat.tobytes() == ref.mat.tobytes()
    assert rho.mat.dtype == ref.mat.dtype and rho.mat.shape == ref.mat.shape
    assert not rho.mat.flags.writeable
    assert rho.cutoffs == ref.cutoffs and rho.tail_mass == ref.tail_mass
    assert type(rho.tail_mass) is float and all(type(c) is int for c in rho.cutoffs)


def test_density_operators_past_the_byte_budget_are_refused_before_they_allocate(monkeypatch):
    # 4096 bytes hold a 16 x 16 complex matrix: cutoffs (4, 4) fit, (5, 5) do not
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 4096)
    FockDensityOperator.from_pure(make_fock_number((1, 2), cutoffs=(4, 4)))
    FockDensityOperator(np.eye(16) / 16, (4, 4))
    psi = make_fock_number((1, 2), cutoffs=(5, 5))
    mat = np.eye(25) / 25

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the budget")

    monkeypatch.setattr(np, "outer", no_allocation)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_allocation)
    over = r"density operator: .* \(25, 25\) needs 1e\+04 bytes, over the budget of 4096"
    with pytest.raises(CutoffOverflowError, match=over):
        FockDensityOperator.from_pure(psi)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffOverflowError, match=over):
            FockDensityOperator(mat, (5, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes  # no copy of the matrix was made


def test_entanglement_measures_pure_equal_the_separate_measures():
    rng = np.random.default_rng(3)
    for shape, bp in [((5, 6), Bipartition(1, 1)), ((3, 4, 5), Bipartition(1, 2)),
                      ((3, 3, 2, 2), Bipartition(2, 2))]:
        psi = _random_fock_state(rng, shape)
        ef, en = entanglement_measures_pure(psi, bp)
        s = schmidt_coefficients(psi, bp)
        assert ef == entanglement_entropy(psi, bp)
        assert ef == pytest.approx(-np.sum(s**2 * np.log(s**2)), rel=1e-12)
        assert en == 2.0 * np.log(np.sum(s))
    assert entanglement_measures_pure(make_fock_number((3, 0)), Bipartition(1, 1)) == (0.0, 0.0)


def _phased_tmsv(r, phase, cutoff):
    t = math.tanh(r)
    k = np.arange(cutoff)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[k, k] = t**k / math.cosh(r) * np.exp(1j * phase * k)
    return FockPureState(amps, t ** (2 * cutoff))


_PURE_STATES = {
    # populated at its top level, where truncated quadratures halve C^2
    "number-4-0": lambda: make_fock_number((4, 0)),
    "number-9-1": lambda: make_fock_number((9, 1)),
    "number-0-2-3": lambda: make_fock_number((0, 2, 3)),
    "phased-tmsv": lambda: _phased_tmsv(0.3, 1.1, 10),
    "random-4x4x4": lambda: _random_fock_state(np.random.default_rng(4), (4, 4, 4)),
    # a nonzero mean, so the moments route must center
    "coherent": lambda: make_fock_coherent(1.3 * np.exp(0.4j)),
    "squeezed": lambda: make_fock_squeezed(0.5),
}


@pytest.mark.parametrize("name", list(_PURE_STATES))
def test_qcs2_fock_pure_states_reduce_to_mtn(name):
    # The moments route against the commutator route on the unpadded
    # density operator; they part by the truncated tail, if any.
    psi = _PURE_STATES[name]()
    value = qcs2_fock(psi)
    ref = qcs2_fock(FockDensityOperator.from_pure(psi))
    if psi.tail_mass == 0.0:
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
    else:
        assert value == pytest.approx(ref, rel=0.0, abs=10.0 * psi.tail_mass)
    assert value == mtn_pure(psi)


def test_qcs2_fock_two_mode_thermal_product():
    # unequal occupations and cutoffs (16 and 29 levels, dimension 464)
    rho1, rho2 = make_fock_thermal(0.3), make_fock_thermal(0.8)
    rho = FockDensityOperator(np.kron(rho1.mat, rho2.mat), rho1.cutoffs + rho2.cutoffs)
    assert rho1.cutoffs != rho2.cutoffs
    expected = 0.5 * (1.0 / (2.0 * 0.3 + 1.0) + 1.0 / (2.0 * 0.8 + 1.0))
    assert qcs2_fock(rho) == pytest.approx(expected, abs=1e-9)


def _pad_one_level(rho):
    """rho with one empty level added above every mode's cutoff."""
    n = rho.n
    t = rho.mat.reshape(rho.cutoffs + rho.cutoffs)
    cutoffs = tuple(c + 1 for c in rho.cutoffs)
    dim = int(np.prod(cutoffs))
    mat = np.pad(t, [(0, 1)] * (2 * n)).reshape(dim, dim)
    return FockDensityOperator(mat, cutoffs, rho.tail_mass)


def _qcs2_dense_reference(rho):
    """sum_R Tr(rho^2 R^2) - Tr(rho R rho R) over Kronecker-lifted truncated X and P.

    Exact only when every mode's top level is empty, as after _pad_one_level.
    """
    mat = rho.mat
    rho2 = mat @ mat
    acc = 0.0
    for mode, d in enumerate(rho.cutoffs):
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        for op in ((a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))):
            R = np.ones((1, 1))
            for i, c in enumerate(rho.cutoffs):
                R = np.kron(R, op if i == mode else np.eye(c))
            A = mat @ R
            acc += float(np.sum(rho2 * (R @ R).T).real) - float(np.sum(A * A.T).real)
    return acc / (rho.n * float(rho2.trace().real))


@pytest.mark.parametrize("cutoffs", [(4, 6), (3, 4, 5)])
@pytest.mark.parametrize("rank", [1, 3])
def test_qcs2_fock_matches_dense_quadrature_formula(cutoffs, rank):
    rng = np.random.default_rng(rank * 100 + len(cutoffs))
    dim = int(np.prod(cutoffs))
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = (z * rng.uniform(0.1, 1.0, size=rank)) @ z.conj().T
    rho = FockDensityOperator(mat / mat.trace().real, cutoffs)
    ref = _qcs2_dense_reference(_pad_one_level(rho))
    assert qcs2_fock(rho) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cutoffs", [(4, 6), (3, 4, 5)])
def test_quadrature_moments_match_dense_quadratures(cutoffs):
    rng = np.random.default_rng(len(cutoffs))
    z = rng.normal(size=cutoffs) + 1j * rng.normal(size=cutoffs)
    # an empty top level per mode makes the truncated quadratures exact
    psi = FockPureState(np.pad(z / np.linalg.norm(z), [(0, 1)] * len(cutoffs)))
    vec = psi.amps.ravel()
    quads = []
    for mode, d in enumerate(psi.cutoffs):
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
        for op in ((a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))):
            R = np.ones((1, 1))
            for i, c in enumerate(psi.cutoffs):
                R = np.kron(R, op if i == mode else np.eye(c))
            quads.append(R)
    ref_mean = np.array([np.vdot(vec, R @ vec).real for R in quads])
    ref_cov = np.array(
        [[np.vdot(vec, (R @ S + S @ R) @ vec).real for S in quads] for R in quads]
    ) - 2.0 * np.outer(ref_mean, ref_mean)
    mean, cov = quadrature_moments(psi)
    assert_allclose(mean, ref_mean, rtol=0.0, atol=1e-13)
    assert_allclose(cov, ref_cov, rtol=1e-12, atol=1e-13)


def test_number_preserving_phases_and_permutation_are_block_unitaries():
    rng = np.random.default_rng(0)
    for u in (
        number_preserving_phases(4, 2, rng=rng),
        number_preserving_permutation(4, 2, rng=rng),
    ):
        assert_allclose(u @ u.T.conj(), np.eye(16), atol=1e-12)
        totals = np.indices((4, 4)).reshape(2, -1).sum(axis=0)
        mixing = u[np.not_equal.outer(totals, totals)]
        assert_allclose(mixing, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 7])
def test_saturating_family_entropy_is_invariant_under_local_rotations(seed):
    r = 0.6
    rng = np.random.default_rng(seed)
    cutoff = 18
    u_a = number_preserving_phases(cutoff, 1, rng=rng)
    u_b = number_preserving_phases(cutoff, 1, rng=rng)
    psi = saturating_family(2, r, cutoff=cutoff, u_a=u_a, u_b=u_b, tau=1e-7)
    psi.check_tail(1e-7)
    ef = entanglement_entropy(psi, Bipartition(1, 1))
    assert ef == pytest.approx(g(math.sinh(r) ** 2), abs=1e-7)
    assert mtn_pure(psi) == pytest.approx(math.cosh(2 * r), rel=1e-7)


def test_saturating_family_multimode():
    r = 0.4
    psi = saturating_family(4, r, cutoff=12, tau=1e-7)
    psi.check_tail(1e-7)
    ef = entanglement_entropy(psi, Bipartition(2, 2))
    assert ef == pytest.approx(2 * g(math.sinh(r) ** 2), abs=1e-7)


def test_counterexample_states_swap_noise_but_not_entanglement():
    q, k = 0.5, 2
    psi, perm = make_counterexample_states(q, k, cutoff=60)
    bp = Bipartition(1, 2)
    assert mtn_pure(psi) == pytest.approx(7.0 / 3.0, rel=1e-10)
    assert mtn_pure(perm) == pytest.approx(2.25, rel=1e-10)
    assert entanglement_entropy(psi, bp) == pytest.approx(
        entanglement_entropy(perm, bp), rel=1e-12
    )
    assert entanglement_entropy(psi, bp) == pytest.approx(2 * math.log(2), rel=1e-10)


def test_counterexample_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_counterexample_states(0.5, 1)
    with pytest.raises(ValueError):
        make_counterexample_states(1.0, 2)
    with pytest.raises(ValueError, match="k = 2.5 must be an integer"):
        make_counterexample_states(0.5, 2.5)
    for cutoff in (-2, 2.5):
        with pytest.raises(ValueError, match="cutoff"):
            make_counterexample_states(0.5, 2, cutoff=cutoff)
    with pytest.raises(ValueError, match="tau = nan"):
        make_counterexample_states(0.5, 2, tau=math.nan)


@pytest.mark.parametrize(
    "build,fits,over",
    [
        (lambda c: make_fock_number((1,), cutoffs=(c,)), 32, 33),
        (lambda c: fock_from_dict({"n": 2, "cutoffs": [4, c], "amps": [[0, 0, 1.0, 0.0]]}),
         8, 9),
        (lambda c: make_counterexample_states(0.5, 2, cutoff=c, tau=1.0), 4, 5),
        (lambda c: make_fock_coherent(1.0, cutoff=c, tau=1.0), 32, 33),
        (lambda c: make_fock_squeezed(0.5, cutoff=c, tau=1.0), 32, 33),
        (lambda c: make_fock_tmsv(0.5, cutoff=c, tau=1.0), 5, 6),
        (lambda c: make_fock_thermal(0.5, cutoff=c, tau=1.0), 5, 6),
        (lambda c: saturating_family(2, 0.5, cutoff=c, tau=1.0), 5, 6),
        (lambda c: apply_beam_splitter_fock(make_fock_number((c - 1, 0))), 5, 6),
    ],
    ids=["number", "from-dict", "counterexample", "coherent", "squeezed", "tmsv",
         "thermal", "saturating", "beam-splitter-output"],
)
def test_amplitude_tensors_past_the_byte_budget_are_refused(build, fits, over, monkeypatch):
    # 512 bytes hold exactly 32 complex amplitudes
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 512)
    build(fits)
    with pytest.raises(CutoffOverflowError, match=r"needs \d+ bytes, over the budget of 512"):
        build(over)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_fock_coherent(3.0),
        lambda: make_fock_squeezed(1.0),
        lambda: make_fock_tmsv(0.3),
        lambda: make_fock_thermal(1.0),
        lambda: saturating_family(2, 0.3),
        lambda: saturating_family(4, 0.3),
    ],
    ids=["coherent", "squeezed", "tmsv", "thermal", "saturating-2", "saturating-4"],
)
def test_default_cutoffs_are_checked_against_the_byte_budget(build, monkeypatch):
    # each default cutoff here needs more than 32 amplitudes
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 512)
    with pytest.raises(CutoffOverflowError, match="over the budget of 512"):
        build()


_EDGE_VALUES = [0.0, 1e-300, 0.5, 19.1, 1e17, 1e154, 1e300, math.inf, math.nan]


_TAU_EDGES = [TAU_TRUNC, 0.0, math.nan, -1.0]


@pytest.mark.parametrize(
    "build",
    [
        lambda x, tau: make_fock_number((x,)),
        make_fock_coherent,
        make_fock_squeezed,
        lambda x, tau: make_fock_squeezed(0.5, phi=x, tau=tau),
        make_fock_tmsv,
        make_fock_thermal,
        lambda x, tau: saturating_family(2, x, tau=tau),
        lambda x, tau: make_counterexample_states(x, 2, tau=tau),
        tmsv_cutoff,
        squeezed_cutoff,
        thermal_cutoff,
    ],
    ids=["number", "coherent", "squeezed", "squeezed-phi", "tmsv", "thermal",
         "saturating-2", "counterexample", "tmsv-cutoff", "squeezed-cutoff",
         "thermal-cutoff"],
)
def test_fock_constructors_build_or_raise_a_value_error_at_every_edge(build, request, monkeypatch):
    # 2^16 bytes hold 4096 amplitudes.  Anything but a ValueError subclass
    # (ZeroDivisionError, OverflowError, MemoryError) escapes and fails here.
    # A NaN or negative tau is named wherever the parameter is valid.
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 2**16)
    takes_tau = request.node.callspec.id != "number"
    for tau in _TAU_EDGES:
        bad_tau = takes_tau and not tau >= 0.0
        for x in _EDGE_VALUES:
            try:
                build(x, tau=tau)
            except ValueError as exc:
                assert not (bad_tau and x == 0.5) or f"tau = {tau!r}" in str(exc), exc
                continue
            assert math.isfinite(x) and not bad_tau, f"built at parameter {x}, tau {tau}"


@pytest.mark.parametrize("tau", [TAU_TRUNC, 1.0, 0.0, math.nan, -1.0])
@pytest.mark.parametrize(
    "build",
    [
        make_fock_coherent,
        make_fock_squeezed,
        lambda x, **kw: make_fock_squeezed(0.5, phi=x, **kw),
        make_fock_tmsv,
        make_fock_thermal,
        lambda x, **kw: saturating_family(2, x, **kw),
    ],
    ids=["coherent", "squeezed", "squeezed-phi", "tmsv", "thermal", "saturating-2"],
)
def test_explicit_cutoff_constructors_build_or_raise_a_typed_error_at_every_edge(
    build, tau, monkeypatch
):
    # Past s ~ 710 cosh overflows, and tanh r rounds to 1 from r ~ 19.1.  A
    # tail above tau is a TruncationError; tau = 1 admits any tail a moderate
    # parameter leaves (the squeezed law, a bound, reads 3.2 at s = 2 and
    # cutoff 4), and the state then built keeps its mass and its tail adding
    # to 1.  A bare ValueError names what is wrong: a non-finite parameter,
    # a NaN or negative tau, a negative or non-integer cutoff, or the empty
    # tensor of cutoff 0.  "math domain error", a raw TypeError, IndexError
    # or OverflowError fails here.
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 2**16)
    bad_tau = not tau >= 0.0
    for x in (*_EDGE_VALUES, 2.0):
        for cutoff in (1, 4, 5, 10, 0, -2, 2.5):
            try:
                state = build(x, cutoff=cutoff, tau=tau)
            except (TruncationError, CutoffOverflowError):
                assert not bad_tau or not math.isfinite(x), (x, cutoff, tau)
                assert not (tau == 1.0 and abs(x) <= 2.0), (x, cutoff)
                continue
            except ValueError as exc:
                named = ["is not finite"]
                named += [f"tau = {tau!r}"] if bad_tau else []
                named += [f"cutoff = {cutoff!r}"] if cutoff in (-2, 2.5) else []
                named += ["is empty"] if cutoff == 0 else []
                assert any(n in str(exc) for n in named), (x, cutoff, tau, exc)
                assert math.isfinite(x) or "is not finite" in str(exc), (x, cutoff, exc)
                assert not bad_tau or not math.isfinite(x) or "tau = " in str(exc), (x, exc)
                continue
            assert math.isfinite(x) and not bad_tau and cutoff in (1, 4, 5, 10), (x, cutoff, tau)
            mass = (state.norm2() if isinstance(state, FockPureState)
                    else float(np.trace(state.mat).real))
            assert mass + state.tail_mass == pytest.approx(1.0, abs=1e-9), (x, cutoff)


@pytest.mark.parametrize(
    "build", [make_fock_coherent, make_fock_squeezed, make_fock_tmsv, make_fock_thermal],
    ids=["coherent", "squeezed", "tmsv", "thermal"],
)
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_named(build, x):
    with pytest.raises(ValueError, match=r"(alpha|s|r|nbar) = -?(inf|nan) is not finite"):
        build(x)


def test_geometric_cutoffs_past_a_unit_ratio_are_typed():
    # tanh r and nbar / (1 + nbar) round to 1 in floats
    for call in (lambda: tmsv_cutoff(20.0), lambda: saturating_family(2, 20.0),
                 lambda: thermal_cutoff(1e17), lambda: make_fock_thermal(1e300)):
        with pytest.raises(CutoffOverflowError, match="no finite cutoff"):
            call()


def _squeezed_cutoff_search(s, tau=TAU_TRUNC):
    """Reference: the squeezed search as a loop over m, with no bound on its length."""
    t2 = math.tanh(abs(s)) ** 2
    if t2 == 0.0:
        return 1
    term, m = 1.0 / math.cosh(s), 0
    while term * t2 / (1.0 - t2) > 0.5 * tau:
        m += 1
        term *= t2 * (2 * m - 1) / (2 * m)
    return 2 * m + 2


def test_squeezed_cutoff_search_ends_at_the_byte_budget(monkeypatch):
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 2**16)
    for s in np.linspace(0.05, 4.0, 80):
        want = _squeezed_cutoff_search(s)
        if want <= 4096:
            assert squeezed_cutoff(s) == want, s
        else:
            with pytest.raises(CutoffOverflowError, match="over the budget of 65536"):
                squeezed_cutoff(s)
    for s in (19.1, 1e17):  # tanh(s)^2 rounds to 1
        with pytest.raises(CutoffOverflowError, match="no finite cutoff"):
            squeezed_cutoff(s)


def test_squeezed_vacuum_builds_past_the_old_search_cap():
    # a search capped at 100000 steps returned 200002 here and refused it
    psi = make_fock_squeezed(5.0)
    assert psi.cutoffs == (_squeezed_cutoff_search(5.0),) == (237998,)
    assert psi.tail_mass <= TAU_TRUNC


def test_fock_serialization_round_trip(tmp_path):
    psi = make_fock_tmsv(0.4, tau=1e-10)
    path = tmp_path / "tmsv.json"
    save_fock(psi, path)
    back = load_fock(path)
    assert back.cutoffs == psi.cutoffs
    assert_allclose(back.amps, psi.amps, atol=1e-15)
    assert back.tail_mass == pytest.approx(psi.tail_mass)


def test_fock_dict_is_sparse():
    psi = make_fock_number((1, 0), cutoffs=(3, 3))
    d = fock_to_dict(psi)
    assert len(d["amps"]) == 1
    assert d["amps"][0][:2] == [1, 0]


def _fock_rows_nditer(psi):
    """Reference: the per-amplitude loop that listed the nonzero amplitudes."""
    entries = []
    it = np.nditer(psi.amps, flags=["multi_index"])
    for val in it:
        z = complex(val)
        if z != 0.0:
            entries.append([*it.multi_index, z.real, z.imag])
    return entries


def test_fock_dict_rows_match_the_per_amplitude_loop():
    signed = np.zeros((3, 2, 2), dtype=complex)
    signed[0, 0, 0] = complex(-0.0, 0.6)
    signed[1, 1, 0] = complex(0.8, -0.0)
    signed[2, 0, 1] = complex(-0.0, -0.0)  # a signed zero is not listed
    states = [
        make_fock_number((1, 0), cutoffs=(3, 3)),
        make_fock_tmsv(0.3),
        make_fock_coherent(1.3 * np.exp(0.4j)),
        make_fock_squeezed(0.5, 0.3),
        _random_fock_state(np.random.default_rng(8), (3, 4, 2), tail_mass=1e-11),
        FockPureState(signed),
    ]
    for psi in states:
        d = fock_to_dict(psi)
        assert json.dumps(d["amps"]) == json.dumps(_fock_rows_nditer(psi))
        assert [type(x) for x in d["amps"][0]] == [int] * psi.n + [float, float]


def test_fock_from_dict_names_offending_field():
    d = fock_to_dict(make_fock_number((1,)))
    d["amps"][0] = [0, "x", 0.0]
    with pytest.raises(SchemaError, match="amps"):
        fock_from_dict(d)
    d2 = fock_to_dict(make_fock_number((1,)))
    del d2["cutoffs"]
    with pytest.raises(SchemaError, match="cutoffs"):
        fock_from_dict(d2)


def test_a_signed_zero_tail_is_read_back_as_positive_zero(tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"n": 1, "cutoffs": [2], "amps": [[0, 1.0, 0.0]], "tail_mass": -0.0}')
    psi = load_fock(path)
    assert psi.tail_mass == 0.0 and math.copysign(1.0, psi.tail_mass) == 1.0
    assert json.dumps(fock_to_dict(psi)["tail_mass"]) == "0.0"


def test_norm_validation():
    with pytest.raises(ValueError):
        FockPureState(np.full((2,), 1.0 + 0j))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FockPureState(np.zeros(0)),
        lambda: FockPureState([math.nan]),
        lambda: FockPureState([1.0], math.nan),
        lambda: FockPureState([1.0], math.inf),
        lambda: FockDensityOperator(np.zeros((0, 0)), (0,)),
        lambda: FockDensityOperator([[math.nan]], (1,)),
        lambda: FockDensityOperator(np.eye(1), (1,), math.nan),
    ],
    ids=["empty", "nan-amplitude", "nan-tail", "inf-tail", "density-empty",
         "density-nan-entry", "density-nan-tail"],
)
def test_non_finite_or_empty_fock_states_are_rejected(build):
    with pytest.raises(ValueError, match="empty|finite"):
        build()


_ENVELOPE_CALLS = {
    "make_fock_tmsv(r)": make_fock_tmsv,
    "make_fock_thermal(nbar)": make_fock_thermal,
    "make_fock_squeezed(s)": make_fock_squeezed,
    "make_fock_coherent(alpha)": make_fock_coherent,
    "saturating_family(2, r)": lambda r: saturating_family(2, r),
    "saturating_family(4, r)": lambda r: saturating_family(4, r),
    "saturating_family(6, r)": lambda r: saturating_family(6, r),
    "make_counterexample_states(q, 2)": lambda q: make_counterexample_states(q, 2),
    "make_counterexample_states(0.5, k)": lambda k: make_counterexample_states(0.5, k),
}


def _envelope_rows():
    """(call, largest parameter, next value out, cutoff) rows of the README envelope table."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\s*\| `(.+?)` \| \w+ = ([\d.]+) \| (\d+) \|$", readme, re.M)
    assert {call for call, _, _ in rows} == set(_ENVELOPE_CALLS)
    for call, value, cutoff in rows:
        largest = decimal.Decimal(value)
        step = decimal.Decimal(1).scaleb(largest.as_tuple().exponent)
        parse = int if "." not in value else float
        yield call, parse(largest), parse(largest + step), int(cutoff)


def test_the_readme_envelope_table_matches_the_cutoff_rule():
    # The default cutoff at each stated edge resolves (nothing is allocated),
    # and the next value out raises from the constructor itself, before any
    # allocation, and from the public cutoff function where there is one.
    # The constructor's docstring states the same edge.
    cutoff_of = {"make_fock_tmsv(r)": tmsv_cutoff, "make_fock_thermal(nbar)": thermal_cutoff,
                 "make_fock_squeezed(s)": squeezed_cutoff}
    for call, largest, beyond, cutoff in _envelope_rows():
        doc = getattr(fock, call.split("(")[0]).__doc__
        assert re.search(rf"(?<![\d.]){re.escape(str(largest))}(?![\d.]\d)", doc), call
        build = _ENVELOPE_CALLS[call]
        assert _default_cutoff(lambda: build(largest)) == cutoff, call
        with pytest.raises(CutoffOverflowError, match="over the budget"):
            build(beyond)
        if call in cutoff_of:
            assert cutoff_of[call](largest) == cutoff
            with pytest.raises(CutoffOverflowError, match="over the budget"):
                cutoff_of[call](beyond)
