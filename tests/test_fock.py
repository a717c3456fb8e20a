import math
import os
import pathlib
import subprocess
import sys

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
    log_negativity_pure,
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
    pad_fock,
    qcs2_fock,
    quadrature_moments,
    saturating_family,
    save_fock,
    schmidt_coefficients,
    total_noise,
)


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


def test_coherent_state_is_minimum_noise():
    psi = make_fock_coherent(0.8 - 0.3j, tau=1e-14)
    mean, cov = quadrature_moments(psi)
    assert_allclose(mean, [np.sqrt(2) * 0.8, -np.sqrt(2) * 0.3], atol=1e-10)
    assert_allclose(cov, np.eye(2), atol=1e-10)
    assert mtn_pure(psi, tau=1e-9) == pytest.approx(1.0, abs=1e-10)


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
    assert mtn_pure(psi, tau=1e-10) == pytest.approx(1.0, abs=1e-9)


def test_tail_guard_raises():
    psi = make_fock_tmsv(1.0, cutoff=4, tau=1.0)
    assert psi.tail_mass > 1e-2
    with pytest.raises(TruncationError):
        total_noise(psi, tau=1e-12)


def test_schmidt_product_state_is_rank_one():
    psi = make_fock_number((2, 3), cutoffs=(4, 5))
    s = schmidt_coefficients(psi, Bipartition(1, 1))
    assert s[0] == pytest.approx(1.0, abs=1e-14)
    assert_allclose(s[1:], 0.0, atol=1e-14)
    assert entanglement_entropy(psi, Bipartition(1, 1)) == 0.0


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 1.1])
def test_tmsv_entropy_matches_thermal_entropy(r):
    # the Schmidt-value sum converges slowly, so give it extra headroom
    psi = make_fock_tmsv(r, cutoff=110, tau=1e-12)
    ef = entanglement_entropy(psi, Bipartition(1, 1), tau=1e-9)
    assert ef == pytest.approx(g(math.sinh(r) ** 2), abs=1e-9)
    en = log_negativity_pure(psi, Bipartition(1, 1), tau=1e-9)
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
    out = apply_beam_splitter_fock(pair, tau=1e-8)
    ref = make_fock_tmsv(s, cutoff, tau=1e-11)
    # photon blocks that fit the cutoff are rotated exactly; compare those
    assert_allclose(out.amps[:20, :20], ref.amps[:20, :20], atol=1e-12)


def test_beam_splitter_preserves_total_photon_number():
    psi = make_fock_number((3, 2), cutoffs=(6, 6))
    out = apply_beam_splitter_fock(psi)
    probs = np.abs(out.amps) ** 2
    i, j = np.indices(out.cutoffs)
    assert probs[(i + j) != 5].max() < 1e-24


def test_beam_splitter_overflow_raises_when_mass_would_be_lost():
    # equal-cutoff state populated at the top: the rotated block no longer fits
    amps = np.zeros((3, 3), dtype=complex)
    amps[2, 2] = 1.0
    with pytest.raises(CutoffOverflowError):
        apply_beam_splitter_fock(FockPureState(amps))


def test_qcs2_fock_thermal_matches_gaussian_value():
    rho = make_fock_thermal(1.0, tau=1e-12)
    assert qcs2_fock(rho) == pytest.approx(1.0 / 3.0, abs=1e-9)


def _beam_splitter_all_blocks(psi, modes=(0, 1), tau=1e-12):
    """apply_beam_splitter_fock as a loop over every total-photon block."""
    i, j = modes
    di, dj = psi.cutoffs[i], psi.cutoffs[j]
    work = np.moveaxis(psi.amps.copy(), (i, j), (0, 1))
    batch = work.reshape(di, dj, -1)
    out = np.zeros_like(batch)
    fits = min(di, dj) - 1
    dropped = 0.0
    for M in range(di + dj - 1):
        ks = np.arange(max(0, M - dj + 1), min(di - 1, M) + 1)
        vec = batch[ks, M - ks, :]
        mass = float(np.sum(np.abs(vec) ** 2))
        if mass == 0.0:
            continue
        if M > fits:
            if mass > tau:
                raise CutoffOverflowError(f"block {M}")
            dropped += mass
            continue
        out[ks, M - ks, :] = beam_splitter_block(M) @ vec
    result = np.moveaxis(out.reshape(work.shape), (0, 1), (i, j))
    return FockPureState(result, psi.tail_mass + dropped)


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
    cases = [(make_fock_number(occ), (0, 1), 1e-12)
             for occ in [(0, 0), (1, 0), (40, 0), (20, 20), (7, 3), (0, 5)]]
    cases.append((make_fock_number((2, 3, 1), cutoffs=(5, 4, 6)), (2, 0), 1e-12))
    for shape, modes in [((6, 9), (0, 1)), ((5, 4, 3), (0, 2)), ((4, 3, 5), (2, 1))]:
        for keep in (0.05, 0.3, 1.0):
            cases.append((FockPureState(_random_amps(rng, shape, keep, modes)), modes, 1e-12))
    # a populated block whose squared mass underflows to 0.0 is skipped
    amps = np.zeros((4, 4), dtype=complex)
    amps[1, 0], amps[0, 2] = 1e-170, 1.0
    cases.append((FockPureState(amps), (0, 1), 1e-12))
    # blocks past the cutoffs holding mass <= tau go to the tail
    amps = _random_amps(rng, (5, 5), 1.0)
    amps[np.add.outer(np.arange(5), np.arange(5)) > 4] *= 1e-6
    cases.append((FockPureState(amps / np.linalg.norm(amps), 1e-13), (1, 0), 1e-8))
    return cases


@pytest.mark.parametrize("psi, modes, tau", _beam_splitter_cases())
def test_beam_splitter_matches_all_blocks_loop_bit_for_bit(psi, modes, tau):
    out = apply_beam_splitter_fock(psi, modes, tau=tau)
    ref = _beam_splitter_all_blocks(psi, modes, tau=tau)
    assert out.amps.tobytes() == ref.amps.tobytes()
    assert out.tail_mass == ref.tail_mass


def test_beam_splitter_tail_drop_and_overflow_follow_the_all_blocks_loop():
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0], amps[3, 3] = math.sqrt(1.0 - 1e-10), 1e-5
    psi = FockPureState(amps)
    out = apply_beam_splitter_fock(psi, tau=1e-8)
    ref = _beam_splitter_all_blocks(psi, tau=1e-8)
    assert out.tail_mass == ref.tail_mass > 0.0
    assert out.amps.tobytes() == ref.amps.tobytes()
    for tau in (1e-12, 0.0):
        with pytest.raises(CutoffOverflowError):
            _beam_splitter_all_blocks(psi, tau=tau)
        with pytest.raises(CutoffOverflowError, match="total-photon block 6"):
            apply_beam_splitter_fock(psi, tau=tau)


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


def test_entanglement_measures_pure_equal_the_separate_measures():
    rng = np.random.default_rng(3)
    for shape, bp in [((5, 6), Bipartition(1, 1)), ((3, 4, 5), Bipartition(1, 2)),
                      ((3, 3, 2, 2), Bipartition(2, 2))]:
        psi = _random_fock_state(rng, shape)
        ef, en = entanglement_measures_pure(psi, bp)
        assert ef == entanglement_entropy(psi, bp) and en == log_negativity_pure(psi, bp)
    assert entanglement_measures_pure(make_fock_number((3, 0)), Bipartition(1, 1)) == (0.0, 0.0)
    with pytest.raises(TruncationError):
        entanglement_measures_pure(make_fock_tmsv(1.0, cutoff=4, tau=1.0), Bipartition(1, 1))


def _phased_tmsv(r, phase, cutoff):
    t = math.tanh(r)
    k = np.arange(cutoff)
    amps = np.zeros((cutoff, cutoff), dtype=complex)
    amps[k, k] = t**k / math.cosh(r) * np.exp(1j * phase * k)
    return FockPureState(amps, t ** (2 * cutoff))


_PURE_STATES = {
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
    # The moments route against the commutator route on the padded
    # density operator; they part by the truncated tail, if any.
    psi = _PURE_STATES[name]()
    value = qcs2_fock(psi)
    ref = qcs2_fock(FockDensityOperator.from_pure(pad_fock(psi)))
    if psi.tail_mass == 0.0:
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
    else:
        assert value == pytest.approx(ref, rel=0.0, abs=10.0 * psi.tail_mass)
    assert value == mtn_pure(psi, tau=1.0)


def test_qcs2_fock_two_mode_thermal_product():
    # unequal occupations and cutoffs (16 and 29 levels, dimension 464)
    rho1, rho2 = make_fock_thermal(0.3), make_fock_thermal(0.8)
    rho = FockDensityOperator(np.kron(rho1.mat, rho2.mat), rho1.cutoffs + rho2.cutoffs)
    assert rho1.cutoffs != rho2.cutoffs
    expected = 0.5 * (1.0 / (2.0 * 0.3 + 1.0) + 1.0 / (2.0 * 0.8 + 1.0))
    assert qcs2_fock(rho) == pytest.approx(expected, abs=1e-9)


def _qcs2_dense_reference(rho):
    """sum_R Tr(rho^2 R^2) - Tr(rho R rho R) over Kronecker-lifted truncated X and P."""
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
    assert qcs2_fock(rho) == pytest.approx(_qcs2_dense_reference(rho), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cutoffs", [(4, 6), (3, 4, 5)])
def test_quadrature_moments_match_dense_quadratures(cutoffs):
    rng = np.random.default_rng(len(cutoffs))
    z = rng.normal(size=cutoffs) + 1j * rng.normal(size=cutoffs)
    # an empty top level per mode makes the truncated quadratures exact
    psi = pad_fock(FockPureState(z / np.linalg.norm(z)), 1)
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


def test_pad_fock_keeps_measures():
    psi = make_fock_tmsv(0.5, tau=1e-12)
    padded = pad_fock(psi, 3)
    assert padded.cutoffs == tuple(c + 3 for c in psi.cutoffs)
    assert mtn_pure(padded, tau=1e-9) == pytest.approx(mtn_pure(psi, tau=1e-9), rel=1e-13)
    assert entanglement_entropy(padded, Bipartition(1, 1), tau=1e-9) == pytest.approx(
        entanglement_entropy(psi, Bipartition(1, 1), tau=1e-9), rel=1e-12
    )


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
    ef = entanglement_entropy(psi, Bipartition(1, 1), tau=1e-7)
    assert ef == pytest.approx(g(math.sinh(r) ** 2), abs=1e-7)
    assert mtn_pure(psi, tau=1e-7) == pytest.approx(math.cosh(2 * r), rel=1e-7)


def test_saturating_family_multimode():
    r = 0.4
    psi = saturating_family(4, r, cutoff=12, tau=1e-7)
    ef = entanglement_entropy(psi, Bipartition(2, 2), tau=1e-7)
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


@pytest.mark.parametrize(
    "build,fits,over",
    [
        (lambda c: make_fock_number((1,), cutoffs=(c,)), 32, 33),
        (lambda c: fock_from_dict({"n": 2, "cutoffs": [4, c], "amps": [[0, 0, 1.0, 0.0]]}),
         8, 9),
        (lambda c: make_counterexample_states(0.5, 2, cutoff=c, tau=1.0), 4, 5),
    ],
    ids=["number", "from-dict", "counterexample"],
)
def test_amplitude_tensors_past_the_byte_budget_are_refused(build, fits, over, monkeypatch):
    # 512 bytes hold exactly 32 complex amplitudes
    monkeypatch.setattr(fock, "AMPLITUDE_BUDGET_BYTES", 512)
    build(fits)
    with pytest.raises(CutoffOverflowError, match=r"needs \d+ bytes, over the budget of 512"):
        build(over)


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


def test_fock_from_dict_names_offending_field():
    d = fock_to_dict(make_fock_number((1,)))
    d["amps"][0] = [0, "x", 0.0]
    with pytest.raises(SchemaError, match="amps"):
        fock_from_dict(d)
    d2 = fock_to_dict(make_fock_number((1,)))
    del d2["cutoffs"]
    with pytest.raises(SchemaError, match="cutoffs"):
        fock_from_dict(d2)


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
