"""The vectorized inverse-design path against the per-site reference loops.

Flux, wave field and jump probabilities repeat the reference arithmetic
step for step, so they must agree bit for bit.  Coin angles come from
``np.arctan2`` instead of ``math.atan2``, which may round differently in
the last place: they must agree to 1e-15, about two units in the last
place of pi.  Errors must match in type, message and named site.  The flux
is also held to the exact flux within FLUX_GAP, and the conservation
recursion, an independent algorithm, within the agreement its two passes
promise: two rounded algorithms can disagree by more than either errs, so
neither is the other's reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import perturbed_jump_target, random_jump_target
from walkforge import feasibility, lattice, synthesis
from walkforge.evolve import (HomogeneousCoinParams, evolve_qw,
                              evolve_qw_complex)
from walkforge.lattice import ProbabilitySequence, WalkError
from walkforge.targets import binomial_target, uniform_target

THETA_TOL = 1e-15
FLUX_GAP = 2e-15


def outcome(fn, *args):
    """The result of fn(*args), or the type, message and site of its error."""
    try:
        return fn(*args)
    except WalkError as exc:
        return type(exc), str(exc), getattr(exc, "n", None), getattr(exc, "t", None)


def assert_slices_equal(a, b, tol=0.0):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(np.isnan(x), np.isnan(y))
        assert np.allclose(x, y, rtol=0.0, atol=tol, equal_nan=True) if tol \
            else np.array_equal(x, y, equal_nan=True)


def assert_same(a, b, tol=0.0):
    """Same error, or containers whose slices agree to ``tol``."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
    elif isinstance(a, lattice._Schedule):
        assert type(a) is type(b)
        assert_slices_equal(a.defined_slices, b.defined_slices)
        assert_slices_equal(a.value_slices, b.value_slices, tol)
    elif isinstance(a, lattice._WaveBase):
        assert_slices_equal(a.plus_slices, b.plus_slices, tol)
        assert_slices_equal(a.minus_slices, b.minus_slices, tol)
    else:
        assert_slices_equal(a.slices, b.slices, tol)


def assert_near_exact(field, exact, gap):
    """Every value of ``field`` within ``gap`` of the exact one (both in
    units of 2**-1074, see :func:`oracles.fixed_point`)."""
    gap = oracles.fixed_point(gap)
    for got, want in zip(field.slices, exact, strict=True):
        assert max(abs(oracles.fixed_point(g) - w)
                   for g, w in zip(got, want)) <= gap


def check_against_oracles(rho):
    flux = outcome(feasibility.flux_from_rho, rho)
    assert_same(flux, outcome(oracles.flux_from_rho, rho))
    exact = oracles.exact_flux(rho)
    assert_near_exact(flux, exact, FLUX_GAP)
    assert_near_exact(oracles.flux_recursion(rho), exact,
                      oracles.PASS_AGREEMENT)
    report = outcome(feasibility.validate_sequence, rho)
    assert report == outcome(oracles.validate_sequence, rho)
    assert_same(outcome(synthesis.synthesize_jumps, rho),
                outcome(oracles.synthesize_jumps, rho))
    field = outcome(synthesis.reconstruct_wavefield, rho)
    assert_same(field, outcome(oracles.reconstruct_wavefield, rho))
    if not isinstance(field, tuple):
        assert_same(outcome(synthesis.synthesize_coins, field),
                    outcome(oracles.synthesize_coins, field), THETA_TOL)
        assert_same(outcome(synthesis.mimic_quantum_walk, field),
                    outcome(oracles.mimic_quantum_walk, field))
    return report


def random_coin_target(rng, horizon):
    """Position distribution of a real walk under random coin angles."""
    plus, minus = np.array([1.0]), np.array([0.0])
    slices = [plus**2 + minus**2]
    for t in range(horizon):
        th = rng.uniform(0.0, math.pi, t + 1)
        new_p, new_m = np.zeros(t + 2), np.zeros(t + 2)
        new_p[1:] = np.cos(th) * plus + np.sin(th) * minus
        new_m[:-1] = np.sin(th) * plus - np.cos(th) * minus
        plus, minus = new_p, new_m
        slices.append(plus**2 + minus**2)
    return ProbabilitySequence(slices, renormalize=True)


def random_slices_target(rng, horizon):
    """Independent random slices: conserving in total mass, and almost
    always infeasible."""
    return ProbabilitySequence([rng.dirichlet(np.ones(t + 1))
                                for t in range(horizon + 1)])


@given(st.sampled_from([random_jump_target, perturbed_jump_target,
                        random_coin_target, random_slices_target]),
       st.integers(0, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
# The split and the recursion disagree by 2.16e-15 here; the split errs by
# 1.4e-16, the recursion by 2.1e-15.
@example(random_coin_target, 24, 8027192, False)
# Feasible, and the gate clips one site: the clipped and unclipped splits
# differ there.
@example(perturbed_jump_target, 5, 3, True)
def test_small_targets_match_oracles(family, horizon, seed, edges):
    rng = np.random.default_rng(seed)
    if family is random_jump_target:
        rho = family(rng, horizon, p_edge=0.3 if edges else 0.0)
    elif family is perturbed_jump_target:
        rho = family(rng, max(horizon, 1), small=edges)
    else:
        rho = family(rng, horizon)
    check_against_oracles(rho)


def test_stranded_site_matches_oracles():
    # Site (-1, 1) holds 4e-11 within the flux tolerance, but both of its
    # destinations are empty: a violation for validate and synthesis alike.
    rho = ProbabilitySequence([[1.0], [4e-11, 0.99999999996], [0.0, 0.0, 1.0],
                               [0.0, 0.0, 0.5, 0.5]])
    report = check_against_oracles(rho)
    assert [(v.n, v.t) for v in report.violations] == [(-1, 1)]


@pytest.mark.parametrize("block", [lattice._BLOCK, 1])
@pytest.mark.parametrize("plus, minus, site", [
    ([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], "(n=0, t=0)"),
    ([0.0, 0.6, 0.8], [0.0, 0.0, 0.0], "(n=-1, t=1)"),
])
def test_coin_faults_match_oracle(monkeypatch, plus, minus, site, block):
    # (0, 0) sends psi+ = 1 to psi- = -1 at (-1, 1), which needs an angle
    # below 0; in the second field (-1, 1) also loses mass, which is named
    # first, though it comes later: in a later block where each slice is one.
    monkeypatch.setattr(lattice, "_BLOCK", block)
    w = lattice.WaveField([[1.0], [0.0, 0.0], plus],
                          [[0.0], [-1.0, 0.0], minus])
    got = outcome(synthesis.synthesize_coins, w)
    assert got == outcome(oracles.synthesize_coins, w)
    assert site in got[1]


@pytest.mark.parametrize("plus, minus, theta", [
    ([[-0.0], [0.0, -0.0]], [[1.0], [1.0, 0.0]], math.pi),
    ([[1.0], [0.0, 1.0]], [[-0.0], [-0.0, 0.0]], 0.0),
])
def test_signed_zero_fields_match_oracle_bit_for_bit(plus, minus, theta):
    # rho sin theta = -0.0 at (0, 0), with rho cos theta = -1 and then 1:
    # both atan2s give exactly pi and +0.0, so the angles agree in every bit.
    w = lattice.WaveField(plus, minus)
    got = synthesis.synthesize_coins(w).buf.tobytes()
    assert got == oracles.synthesize_coins(w).buf.tobytes()
    assert got == np.array([theta]).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_jump_family_matches_oracles_at_T300(seed):
    report = check_against_oracles(
        random_jump_target(np.random.default_rng(seed), 300))
    assert report.feasible


@pytest.mark.parametrize("rows, budget, blocks", [
    (16, 64, 66), (1, 1, 90), (3, 10 ** 9, 30), (91, 91 * 91, 1)])
def test_narrow_scan_blocks_match_oracles(monkeypatch, rows, budget, blocks):
    # Block shape never moves a bit.  At 64 entries the split's blocks hold
    # 16, 3, 2 and then 1 slice, each with one extra row; 1 or 3 rows make
    # blocks of one slice or three, and with 91 rows and 91^2 entries the
    # whole target is one block.  Coins, and the walk they evolve (its cos
    # and sin come in blocks, its mass in chunks of _BLOCK_SIZE), keep the
    # default blocks' bytes.
    rho = random_jump_target(np.random.default_rng(4), 90, p_edge=0.1)
    coins = synthesis.synthesize_coins(synthesis.reconstruct_wavefield(rho))

    def evolved():  # from (0.6, 0.8), t = 51 holds mass at undefined coins
        fields = evolve_qw(coins), evolve_qw(coins, (0.6, 0.8), 51)
        return [f.plus_buf.tobytes() + f.minus_buf.tobytes() for f in fields]

    walks = evolved()
    monkeypatch.setattr(lattice, "_BLOCK", rows)
    monkeypatch.setattr(lattice, "_BLOCK_SIZE", budget)
    assert len(list(lattice._blocks(rho.slices, extra=1))) == blocks
    check_against_oracles(rho)
    assert synthesis.synthesize_coins(synthesis.reconstruct_wavefield(
        rho)).buf.tobytes() == coins.buf.tobytes()
    assert evolved() == walks
    field = _complex_walk(90)
    assert lattice.probability_from_wavefield(field).buf.tobytes() == \
        oracles.probability_from_wavefield(field).buf.tobytes()


def test_complex_walk_mimicry_matches_oracle():
    params = HomogeneousCoinParams(theta=0.7, eta=0.4, gamma=1.1, alpha=0.3)
    field = evolve_qw_complex(params, 60)
    assert_same(synthesis.mimic_quantum_walk(field),
                oracles.mimic_quantum_walk(field))


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=200))
@settings(max_examples=100, deadline=None)
def test_compensated_sums_equal_neumaier_scans(values):
    arr = np.array(values, dtype=float)
    assert np.array_equal(lattice._scan(arr.copy()), oracles.prefix_sums(arr))
    assert np.array_equal(lattice._scan(np.r_[0.0, arr[::-1]])[::-1],
                          oracles.suffix_sums(arr))


def _complex_walk(horizon):
    return evolve_qw_complex(
        HomogeneousCoinParams(theta=0.7, eta=0.4, gamma=1.1, alpha=0.3),
        horizon)


@pytest.mark.parametrize("field, divided", [
    (lambda: synthesis.reconstruct_wavefield(uniform_target(300)), 0),
    (lambda: synthesis.reconstruct_wavefield(binomial_target(0.3, 300)), 200),
    (lambda: synthesis.reconstruct_wavefield(
        random_jump_target(np.random.default_rng(3), 300)), 0),
    (lambda: _complex_walk(300), 150),
])
def test_renormalised_probabilities_match_fsum_oracle_at_T300(field, divided):
    # The divisors are bits of the output.  Complex-layer bits diverge only
    # from T ~ 200; at least ``divided`` slices take a divisor.
    field = field()
    got = lattice.probability_from_wavefield(field)
    want = oracles.probability_from_wavefield(field)
    assert got.buf.tobytes() == want.buf.tobytes()
    raw = np.abs(field.plus_buf) ** 2 + np.abs(field.minus_buf) ** 2
    assert np.count_nonzero(
        [not np.array_equal(a, b) for a, b in
         zip(lattice.split_slices(raw), got.slices)]) >= divided
