import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_jump_target
from walkforge import feasibility
from walkforge.evolve import evolve_qw, evolve_rw_exact
from walkforge.feasibility import (DEFAULT_TOL, flux_from_rho,
                                   flux_from_wavefield, validate_sequence)
from walkforge.lattice import (InfeasibleTargetError, IntegrityError,
                               ProbabilitySequence, from_storage_index,
                               probability_from_wavefield)
from walkforge.synthesis import (COIN_NORM_TOL, reconstruct_wavefield,
                                 synthesize_coins, synthesize_jumps)
from walkforge.targets import binomial_target, uniform_target


def test_uniform_flux_closed_form():
    # The flat target forces J(n, t) = n / ((t + 1)(t + 2)).
    flux = flux_from_rho(uniform_target(30))
    for t in (0, 1, 7, 29):
        for k in range(t + 1):
            n = from_storage_index(k, t)
            assert flux.slices[t][k] == pytest.approx(
                n / ((t + 1) * (t + 2)), abs=1e-13)


def test_symmetric_target_has_zero_central_flux():
    flux = flux_from_rho(binomial_target(0.5, 20))
    for t in range(0, 20, 2):
        assert flux.value(0, t) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_binomial_flux_is_drift_times_density(p):
    # Homogeneous jump probability p gives J = (2p - 1) rho exactly.
    rho = binomial_target(p, 25)
    flux = flux_from_rho(rho)
    for t in (0, 3, 12, 24):
        assert np.allclose(flux.slices[t], (2 * p - 1) * rho.slices[t],
                           atol=1e-13)


def test_infeasible_example_names_site():
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    report = validate_sequence(rho)
    assert not report.feasible
    v = report.violations[0]
    assert (v.n, v.t) == (1, 1)
    assert v.flux == pytest.approx(1.3, abs=1e-14)
    assert v.rho == pytest.approx(0.5, abs=1e-14)
    assert v.to_dict() == {"n": 1, "t": 1, "J": pytest.approx(1.3),
                           "rho": pytest.approx(0.5)}


def test_point_mass_spreading_is_boundary_flagged():
    # rho(n, t) concentrated on the cone edges saturates |J| = rho.
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.5, 0.0, 0.5]])
    report = validate_sequence(rho)
    assert report.feasible
    assert (-1, 1) in report.boundary_sites
    assert (1, 1) in report.boundary_sites
    assert (0, 1) not in report.boundary_sites


def test_zero_density_sites_reported_undefined():
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.5, 0.0, 0.5],
                               [0.5, 0.0, 0.0, 0.5]])
    report = validate_sequence(rho)
    assert (0, 2) in report.undefined_sites


def _random_feasible_sequence(rng, horizon):
    """Evolve a random classical walk so conservation holds by construction."""
    slices = [np.array([1.0])]
    for t in range(horizon):
        cur = slices[-1]
        p = rng.uniform(0.05, 0.95, size=t + 1)
        nxt = np.zeros(t + 2)
        nxt[1:] += cur * p
        nxt[:-1] += cur * (1 - p)
        slices.append(nxt)
    return ProbabilitySequence(slices)


def test_conservation_recursion_identity():
    # 2 rho(n, t+1) = rho(n-1, t) + rho(n+1, t) + J(n-1, t) - J(n+1, t)
    rng = np.random.default_rng(7)
    rho = _random_feasible_sequence(rng, 12)
    flux = flux_from_rho(rho)
    for t in range(12):
        cur = rho.slices[t]
        nxt = rho.slices[t + 1]
        js = flux.slices[t]
        for k in range(t + 2):
            left = cur[k - 1] + js[k - 1] if k >= 1 else 0.0
            right = cur[k] - js[k] if k <= t else 0.0
            assert 2 * nxt[k] == pytest.approx(left + right, abs=1e-12)


def test_flux_matches_generating_function_identity():
    # In the z-transform the conservation law reads
    #   J^(z, t) (z^2 - 1) = 2 z rho^(z, t+1) - (1 + z^2) rho^(z, t)
    # as an identity between Laurent polynomials.  Check the coefficient
    # arrays directly for small horizons.
    rng = np.random.default_rng(11)
    rho = _random_feasible_sequence(rng, 6)
    flux = flux_from_rho(rho)
    for t in range(6):
        j = flux.slices[t]
        cur = rho.slices[t]
        nxt = rho.slices[t + 1]
        # Coefficient grid: index i holds the power z^(2i - t - 2).
        lhs = np.zeros(t + 3)
        lhs[1:-1] -= j
        lhs[2:] += j
        rhs = np.zeros(t + 3)
        rhs[1:] += 2 * nxt
        rhs[1:-1] -= cur
        rhs[2:] -= cur
        assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_classical_targets_are_feasible(seed):
    rng = np.random.default_rng(seed)
    rho = _random_feasible_sequence(rng, 10)
    assert validate_sequence(rho).feasible


def test_flux_from_wavefield_matches_recursion():
    rho = uniform_target(20)
    field = reconstruct_wavefield(rho)
    a = flux_from_rho(rho)
    b = flux_from_wavefield(field)
    for t in range(20):
        assert np.allclose(a.slices[t], b.slices[t], atol=1e-12)


def _perturbed_jump_target(rng, horizon, small):
    """A master-equation target with some empty sites, where one to three
    times a mass delta moves between two sites of one slice: delta <= tol/4
    if ``small``, else delta >= 4 tol.  Slice totals are kept, and the site
    that gives holds at least delta, so the target loads."""
    slices = [s.copy() for s in
              random_jump_target(rng, horizon, p_edge=0.3).slices]
    for _ in range(rng.integers(1, 4)):
        x = slices[rng.integers(1, horizon + 1)]
        delta = (DEFAULT_TOL / 4 * rng.random() if small
                 else 4 * DEFAULT_TOL * 10 ** rng.uniform(0.0, 6.0))
        give = rng.choice(np.flatnonzero(x >= delta))
        take = rng.choice(np.flatnonzero(np.arange(len(x)) != give))
        x[give] -= delta
        x[take] += delta
    return ProbabilitySequence(slices)


def _max_error(evolved, rho):
    return float(np.max(np.abs(evolved.buf - rho.buf)))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(2, 14))
@settings(max_examples=150, deadline=None)
def test_validate_and_synthesis_agree_on_perturbed_targets(seed, small,
                                                           horizon):
    rho = _perturbed_jump_target(np.random.default_rng(seed), horizon, small)
    report = validate_sequence(rho)
    first = [(v.n, v.t) for v in report.violations[:1]]
    try:
        jumps = synthesize_jumps(rho)
    except InfeasibleTargetError as exc:
        assert [(exc.n, exc.t)] == first
    else:
        assert report.feasible
        assert _max_error(evolve_rw_exact(jumps), rho) < 1e-10
    try:
        coins = synthesize_coins(reconstruct_wavefield(rho))
    except InfeasibleTargetError as exc:
        assert [(exc.n, exc.t)] == first
    except IntegrityError:
        # qw is stricter than the flux tolerance: a clamped mass delta is an
        # amplitude of about sqrt(delta), so the wave field's norm or a coin
        # step's mass drift may exceed its own tolerance.
        assert report.feasible
    else:
        assert report.feasible
        # A known limit: where the gate clamped the split, a mass defect
        # delta at a site of mass m is an amplitude error of about
        # delta / (2 sqrt m), which interference downstream can raise to
        # delta sqrt(M / m) in mass (1.24e-10 in one example).  The coin
        # check bounds the drift of each step by COIN_NORM_TOL relative, so
        # that is the bound there; without a clamp it is 1e-10.
        a, b = feasibility._split(rho)
        clamped = ((np.minimum(a, b) < 0.0)
                   | (np.maximum(a, b) > rho.buf[:len(a)])).any()
        evolved = probability_from_wavefield(evolve_qw(coins))
        assert _max_error(evolved, rho) < (COIN_NORM_TOL if clamped
                                           else 1e-10)
