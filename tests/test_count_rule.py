"""Every count, cutoff and mode index goes through one integer rule.

Python and numpy integers at or above the argument's minimum pass; bools,
integer-valued floats, strings and smaller integers raise ValueError (or
SchemaError from the state-file readers) naming the argument, never a raw
TypeError or IndexError.
"""

import numpy as np
import pytest

from bosonic_bounds import (
    Bipartition,
    FockDensityOperator,
    SchemaError,
    apply_beam_splitter,
    apply_beam_splitter_fock,
    entanglement_check,
    fock_from_dict,
    gaussian_from_dict,
    gaussian_pure_bound,
    log_negativity_qcs_bound,
    make_counterexample_states,
    make_fock_coherent,
    make_fock_number,
    make_vacuum,
    mtn_floor_from_entanglement,
    na_star_asymptotic,
    qcs_implication_report,
    random_audit,
    random_classical_state,
    random_gaussian_state,
    random_symplectic,
    saturating_family,
    solve_na_star,
    theorem_split_bound,
    theorem_symmetric_bound,
)


def _audit(**counts):
    args = {"n_states": 0, "modes": 2, "fock_states": 0, "classical_states": 0}
    return random_audit(**{**args, **counts})


def _fock_file(n=1, cutoffs=(3,), index=2):
    return fock_from_dict({"n": n, "cutoffs": list(cutoffs), "amps": [[index, 1.0, 0.0]]})


def _gaussian_file(n):
    return gaussian_from_dict({"n": n, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})


def _entry(name, call, least, valid, named, error=ValueError):
    """call(v) for a count v whose rule accepts integers >= least; named is in the refusal."""
    return pytest.param(call, least, valid, error, named, id=name)


ENTRY_POINTS = [
    _entry("Bipartition-n_a", lambda v: Bipartition(v, 1), 1, 1, "n_a="),
    _entry("Bipartition-n_b", lambda v: Bipartition(1, v), 1, 2, "n_b="),
    _entry("random_gaussian_state-n", lambda v: random_gaussian_state(v, 0), 1, 2,
           "mode count n"),
    _entry("family-cutoff", lambda v: make_fock_coherent(0.5, cutoff=v), 0, 16, "cutoff = "),
    _entry("make_fock_number-occupations", lambda v: make_fock_number((v, 0)), 0, 2,
           "occupations entry"),
    _entry("make_fock_number-cutoffs", lambda v: make_fock_number((0,), cutoffs=(v,)), 0, 3,
           "cutoffs entry"),
    _entry("make_counterexample_states-k", lambda v: make_counterexample_states(0.5, v), 2, 3,
           "k = "),
    _entry("saturating_family-n", lambda v: saturating_family(v, 0.3), 2, 2, "n must be"),
    _entry("FockDensityOperator-cutoffs", lambda v: FockDensityOperator(np.eye(2) / 2, (v,)),
           0, 2, "cutoffs entry"),
    _entry("fock_from_dict-n", lambda v: _fock_file(n=v), 1, 1, "field 'n'", SchemaError),
    _entry("fock_from_dict-cutoffs", lambda v: _fock_file(cutoffs=(v,), index=0), 1, 2,
           "field 'cutoffs'", SchemaError),
    _entry("fock_from_dict-index", lambda v: _fock_file(index=v), 0, 2, "field 'amps' row 0",
           SchemaError),
    _entry("apply_beam_splitter_fock-modes",
           lambda v: apply_beam_splitter_fock(make_fock_number((1, 0, 0)), (v, 0)), 0, 2,
           "mode pair"),
    _entry("make_vacuum-n", make_vacuum, 1, 2, "mode count n"),
    _entry("apply_beam_splitter-modes", lambda v: apply_beam_splitter(make_vacuum(3), (0, v)),
           0, 2, "mode pair"),
    _entry("gaussian_from_dict-n", _gaussian_file, 1, 1, "field 'n'", SchemaError),
    _entry("random_audit-modes", lambda v: _audit(modes=v), 2, 2, "needs modes"),
    _entry("random_audit-n_states", lambda v: _audit(n_states=v), 0, 2, "gaussian state count"),
    _entry("random_audit-fock_states", lambda v: _audit(fock_states=v), 0, 1,
           "fock state count"),
    _entry("random_audit-classical_states", lambda v: _audit(classical_states=v), 0, 1,
           "classical state count"),
    _entry("random_audit-seed", lambda v: _audit(seed=v), 0, 3, "seed must be"),
    _entry("random_gaussian_state-seed", lambda v: random_gaussian_state(2, v), 0, 3,
           "seed must be"),
    _entry("random_classical_state-seed", lambda v: random_classical_state(2, v), 0, 3,
           "seed must be"),
    _entry("random_symplectic-rng", lambda v: random_symplectic(2, v), 0, 3, "rng must be"),
    _entry("solve_na_star-n_a", lambda v: solve_na_star(10.0, v, 2), 1, 1, "mode counts"),
    _entry("solve_na_star-n_b", lambda v: solve_na_star(10.0, 2, v), 1, 3, "mode counts"),
    _entry("na_star_asymptotic-n_a", lambda v: na_star_asymptotic(100.0, v, 2), 1, 1,
           "mode counts"),
    _entry("theorem_symmetric_bound-n", lambda v: theorem_symmetric_bound(3.0, v), 2, 2,
           "n must be"),
    _entry("theorem_split_bound-n_a", lambda v: theorem_split_bound(1.0, v, 2), 1, 1,
           "mode counts"),
    _entry("theorem_split_bound-n_b", lambda v: theorem_split_bound(3.0, 2, v), 1, 3,
           "mode counts"),
    _entry("gaussian_pure_bound-n_a", lambda v: gaussian_pure_bound(3.0, v, 2), 1, 1,
           "mode counts"),
    _entry("gaussian_pure_bound-n_b", lambda v: gaussian_pure_bound(3.0, 1, v), 1, 2,
           "mode counts"),
    _entry("entanglement_check-n_a", lambda v: entanglement_check(0.0, 1.0, v, 2), 1, 1,
           "mode counts"),
    _entry("entanglement_check-n_b", lambda v: entanglement_check(0.0, 3.0, 1, v), 1, 2,
           "mode counts"),
    _entry("log_negativity_qcs_bound-n", lambda v: log_negativity_qcs_bound(0.1, 2.0, v, 1),
           1, 2, "n_minus <= n"),
    _entry("log_negativity_qcs_bound-n_minus",
           lambda v: log_negativity_qcs_bound(0.1, 2.0, 3, v), 1, 2, "1 <= n_minus"),
    _entry("qcs_implication_report-n", lambda v: qcs_implication_report(0.5, 0.1, v), 1, 2,
           "mode count n"),
    _entry("mtn_floor_from_entanglement-n", lambda v: mtn_floor_from_entanglement(5.0, v), 1, 2,
           "mode count n"),
]


@pytest.mark.parametrize("bad", ["bool", "numpy-bool", "float", "str", "below-least"])
@pytest.mark.parametrize("call, least, valid, error, named", ENTRY_POINTS)
def test_every_count_refuses_what_is_not_an_integer_at_or_above_its_least(
    call, least, valid, error, named, bad
):
    value = {"bool": True, "numpy-bool": np.bool_(True), "float": float(valid), "str": str(valid),
             "below-least": least - 1}[bad]
    with pytest.raises(error, match=named):
        call(value)


@pytest.mark.parametrize("call, least, valid, error, named", ENTRY_POINTS)
def test_every_count_takes_numpy_integers(call, least, valid, error, named):
    call(np.int64(valid))
    call(np.int32(valid))
