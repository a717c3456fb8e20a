"""Every entry that takes a split refuses one that does not fit its state, one way.

The rule is symplectic._check_split: a Bipartition must cover exactly the
modes of the state it is applied to, else ValueError with one message,
which the CLI prints as its error with exit code 2.
"""

import re

import numpy as np
import pytest

from bosonic_bounds import (
    Bipartition,
    cli,
    entanglement_entropy,
    entanglement_entropy_gaussian,
    entanglement_measures_pure,
    gaussian_measures,
    log_negativity_gaussian,
    make_fock_number,
    make_tmsv,
    partial_transpose,
    save_gaussian,
    schmidt_coefficients,
)
from bosonic_bounds.experiments import state_checks

# A 1:2 split covers three modes; every state below has two.
_MESSAGE = re.escape("bipartition 1:2 covers 3 modes but the state has 2")
_BP = Bipartition(1, 2)
_TMSV = make_tmsv(0.3)
_NUMBER = make_fock_number((1, 2))

SPLIT_ENTRIES = [
    pytest.param(lambda: partial_transpose(_TMSV.cov, _BP), id="partial_transpose"),
    pytest.param(lambda: log_negativity_gaussian(_TMSV, _BP), id="log_negativity_gaussian"),
    pytest.param(lambda: gaussian_measures(_TMSV, _BP), id="gaussian_measures"),
    pytest.param(lambda: entanglement_entropy_gaussian(_TMSV, _BP),
                 id="entanglement_entropy_gaussian"),
    pytest.param(lambda: schmidt_coefficients(_NUMBER, _BP), id="schmidt_coefficients"),
    pytest.param(lambda: entanglement_measures_pure(_NUMBER, _BP),
                 id="entanglement_measures_pure"),
    pytest.param(lambda: entanglement_entropy(_NUMBER, _BP), id="entanglement_entropy"),
    pytest.param(lambda: state_checks(_TMSV, _BP), id="state_checks-gaussian"),
    pytest.param(lambda: state_checks(_NUMBER, _BP), id="state_checks-fock"),
]


@pytest.mark.parametrize("call", SPLIT_ENTRIES)
def test_every_split_entry_refuses_a_split_that_does_not_fit_with_one_message(call):
    with pytest.raises(ValueError, match=_MESSAGE):
        call()


@pytest.mark.parametrize("command", ["measure", "bound-check"])
@pytest.mark.parametrize("kind", ["gaussian", "fock"])
def test_cli_refuses_a_split_that_does_not_fit_with_the_same_message(
    command, kind, tmp_path, capsys
):
    if kind == "gaussian":
        path = tmp_path / "tmsv.json"
        save_gaussian(_TMSV, path)
        state = ["--gaussian", str(path)]
    else:
        state = ["--fock", "N=1,2"]
    assert cli.main([command, *state, "--bipartition", "1:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {_MESSAGE}\n", captured.err)


@pytest.mark.parametrize(
    "V",
    [np.eye(4)[0], np.eye(5), np.eye(4)[None], np.zeros((0, 0)), np.eye(4, 6)],
    ids=["vector-4", "square-5", "stacked", "empty", "wide"],
)
def test_partial_transpose_refuses_what_is_not_2n_x_2n(V):
    with pytest.raises(ValueError, match=re.escape(f"2n x 2n, got float64 {V.shape}")):
        partial_transpose(V, Bipartition(1, 1))
