"""Each refusal of a bad argument raises its own type and message.

One row per guard that no other test reaches, plus the guards that keep a
Fock state from holding almost no probability and a bound from returning
NaN or leaking an OverflowError.
"""

import math
import warnings

import numpy as np
import pytest

from bosonic_bounds import (
    FockDensityOperator,
    FockPureState,
    GaussianState,
    SchemaError,
    beam_splitter_sweep,
    classical_checks,
    fock_from_dict,
    g,
    g_prime,
    gaussian_pure_bound,
    log_negativity_qcs_bound,
    log_negativity_qcs_refined,
    make_squeezed,
    make_thermal,
    make_tmsv,
    mtn_floor_from_entanglement,
    qcs_implication_report,
    random_gaussian_state,
    saturating_family,
    solve_na_star,
    theorem_symmetric_bound,
    write_sweep,
)
from bosonic_bounds.tolerances import TAU_NORM

NAN, INF = math.nan, math.inf


def _row(name, call, error, message):
    return pytest.param(call, error, message, id=name)


def _density(mat, cutoffs=(2,), tail_mass=0.0):
    return FockDensityOperator(np.asarray(mat, dtype=complex), cutoffs, tail_mass)


def _unitary(u):
    return saturating_family(2, 0.3, cutoff=3, u_a=u, tau=1.0)


REFUSALS = [
    # bounds
    _row("g-nan", lambda: g(NAN), ValueError, r"g requires finite x >= 0, got nan"),
    _row("g-inf", lambda: g(INF), ValueError, r"g requires finite x >= 0, got inf"),
    _row("g_prime-zero", lambda: g_prime(0.0), ValueError, r"g_prime requires x > 0, got 0.0"),
    _row("g_prime-nan", lambda: g_prime(NAN), ValueError, r"g_prime requires x > 0, got nan"),
    _row("solve_na_star-negative", lambda: solve_na_star(-1.0, 1, 2), ValueError,
         r"photon number must be >= 0, got -1.0"),
    _row("theorem_symmetric_bound-nan", lambda: theorem_symmetric_bound(NAN, 2), ValueError,
         r"M_TN must be >= 1 and finite, got nan"),
    _row("gaussian_pure_bound-inf", lambda: gaussian_pure_bound(INF, 1, 2), ValueError,
         r"M_TN must be >= 1 and finite, got inf"),
    _row("mtn_floor-nan", lambda: mtn_floor_from_entanglement(NAN, 2), ValueError,
         r"E_F must be finite, got nan"),
    _row("mtn_floor-overflow", lambda: mtn_floor_from_entanglement(1e6, 1), ValueError,
         r"noise floor for E_F = 1000000.0 over 1 modes overflows"),
    _row("log_negativity_qcs_bound-zero", lambda: log_negativity_qcs_bound(0.1, 0.0, 2, 1),
         ValueError, r"QCS\^2 must be positive, got 0.0"),
    _row("log_negativity_qcs_bound-nan", lambda: log_negativity_qcs_bound(0.1, NAN, 2, 1),
         ValueError, r"QCS\^2 must be positive, got nan"),
    _row("log_negativity_qcs_refined-overflow",
         lambda: log_negativity_qcs_refined(2.0, 1000.0, 1.0), ValueError,
         r"two-mode refinement overflows at E_N = 1000.0"),
    _row("qcs_implication_report-zero", lambda: qcs_implication_report(0.0, 1.0, 2), ValueError,
         r"QCS\^2 must be positive, got 0.0"),
    _row("qcs_implication_report-nan", lambda: qcs_implication_report(NAN, 1.0, 2), ValueError,
         r"QCS\^2 must be positive, got nan"),
    _row("check-infinite-margin", lambda: classical_checks(INF, 0.0), ValueError,
         r"^classical states have QCS\^2 <= 1: margin -inf and tau_check 1e-09 must be finite"),
    _row("check-nan-tau", lambda: classical_checks(0.5, 0.0, tau_check=NAN), ValueError,
         r"^classical states have QCS\^2 <= 1: margin 0.5 and tau_check nan must be finite"),
    # experiments
    _row("write_sweep-unserializable-param",
         lambda: write_sweep(".", "x", ["a"], [], {"p": object()}), TypeError,
         r"object is not JSON serializable"),
    _row("beam_splitter_sweep-unknown-family", lambda: beam_splitter_sweep(families=["cat"]),
         ValueError, r"unknown family 'cat'; choose from \("),
    # fock: pure states
    _row("pure-negative-tail", lambda: FockPureState([1.0], -1.0), ValueError,
         r"tail_mass must be >= 0"),
    _row("pure-no-mode", lambda: FockPureState(1.0), ValueError,
         r"amplitude tensor needs at least one mode"),
    _row("pure-zero", lambda: FockPureState(np.zeros((2, 2))), ValueError,
         rf"squared norm 0 plus tail_mass 0 is below 1 - {TAU_NORM:g}"),
    _row("pure-half-missing", lambda: FockPureState([0.5, 0.0]), ValueError,
         rf"squared norm 0.25 plus tail_mass 0 is below 1 - {TAU_NORM:g}"),
    _row("pure-file-half-missing",
         lambda: fock_from_dict({"n": 1, "cutoffs": [2], "amps": [[0, 0.5, 0.0]]}),
         SchemaError, r"field 'amps' invalid: squared norm 0.25 plus tail_mass 0 is below"),
    # fock: density operators
    _row("density-shape", lambda: _density(np.eye(3) / 3), ValueError,
         r"matrix shape \(3, 3\) does not match cutoffs \(2,\)"),
    _row("density-non-finite", lambda: _density([[NAN, 0], [0, 1]]), ValueError,
         r"density matrix has a non-finite entry"),
    _row("density-not-hermitian", lambda: _density([[0.5, 0.5], [0.0, 0.5]]), ValueError,
         r"density matrix not Hermitian \(deviation 5.000e-01\)"),
    _row("density-over-trace", lambda: _density(np.eye(2)), ValueError,
         r"trace 2 exceeds 1"),
    _row("density-zero", lambda: _density(np.zeros((2, 2))), ValueError,
         rf"trace 0 plus tail_mass 0 is below 1 - {TAU_NORM:g}"),
    _row("density-negative-eigenvalue", lambda: _density([[0.5, 0.6], [0.6, 0.5]]), ValueError,
         r"density matrix has negative eigenvalue -1.000e-01"),
    # fock: number-preserving unitaries
    _row("unitary-shape", lambda: _unitary(np.eye(2)), ValueError, r"u_a must be 3 x 3"),
    _row("unitary-not-unitary", lambda: _unitary(2 * np.eye(3)), ValueError,
         r"u_a is not unitary"),
    _row("unitary-mixes-sectors", lambda: _unitary(np.eye(3)[[1, 0, 2]]), ValueError,
         r"u_a mixes total-photon sectors \(leak 1.000e\+00\)"),
    # gaussian
    _row("mean-shape", lambda: GaussianState(np.zeros(3), np.eye(2)), ValueError,
         r"mean shape \(3,\) does not match covariance \(2, 2\)"),
    _row("mean-non-finite", lambda: GaussianState([NAN, 0.0], np.eye(2)), ValueError,
         r"mean vector has a non-finite entry"),
    _row("mean-infinite", lambda: GaussianState([0.0, INF], np.eye(2)), ValueError,
         r"mean vector has a non-finite entry"),
    _row("make_thermal-negative", lambda: make_thermal([1.0, -0.5]), ValueError,
         r"thermal occupation must be >= 0"),
    # the constructors refuse a parameter by name before numpy can warn or overflow
    _row("make_thermal-nan", lambda: make_thermal(NAN), ValueError,
         r"^thermal occupation must be >= 0 with 2 nbar \+ 1 finite, got nbar nan for mode 0$"),
    _row("make_thermal-inf", lambda: make_thermal(INF), ValueError,
         r"^thermal occupation must be >= 0 with 2 nbar \+ 1 finite, got nbar inf for mode 0$"),
    _row("make_thermal-overflow", lambda: make_thermal([1.0, 1e308]), ValueError,
         r"got nbar 1e\+308 for mode 1$"),
    _row("make_squeezed-overflow", lambda: make_squeezed(400.0), ValueError,
         r"^squeezing s must be finite with \|2s\| <= 709\.782712893384, got 400\.0$"),
    _row("make_squeezed-nan", lambda: make_squeezed(NAN), ValueError,
         r"^squeezing s must be finite with \|2s\| <= 709\.782712893384, got nan$"),
    _row("make_squeezed-underflow", lambda: make_squeezed(-400.0), ValueError,
         r"got -400\.0$"),
    _row("make_squeezed-phi-inf", lambda: make_squeezed(0.5, INF), ValueError,
         r"^squeezing angle phi must be finite, got inf$"),
    _row("make_squeezed-phi-nan", lambda: make_squeezed(0.5, NAN), ValueError,
         r"^squeezing angle phi must be finite, got nan$"),
    _row("make_tmsv-overflow", lambda: make_tmsv(400.0), ValueError,
         r"^squeezing r must be finite with \|2r\| <= 710\.4758600739439, got 400\.0$"),
    _row("make_tmsv-inf", lambda: make_tmsv(INF), ValueError,
         r"^squeezing r must be finite with \|2r\| <= 710\.4758600739439, got inf$"),
    _row("make_tmsv-nan", lambda: make_tmsv(NAN), ValueError, r"got nan$"),
    _row("random_gaussian_state-profile",
         lambda: random_gaussian_state(2, 0, purity_profile="squeezed"), ValueError,
         r"unknown purity profile 'squeezed'"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal_raises_its_type_and_message(call, error, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # for the files write_sweep opens
    with warnings.catch_warnings(), pytest.raises(error, match=message) as exc:
        warnings.simplefilter("error")  # a refusal comes before any numpy warning
        call()
    assert type(exc.value) is error
