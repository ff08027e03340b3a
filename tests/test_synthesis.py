import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import peak_buffers, random_jump_target
from walkforge.evolve import (
    HomogeneousCoinParams,
    evolve_qw,
    evolve_qw_complex,
    evolve_rw_exact,
)
from walkforge.feasibility import validate_sequence
from walkforge.io import write_schedule_json
from walkforge.lattice import (
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    ProbabilitySequence,
    WaveField,
    neighbours,
    probability_from_wavefield,
    slice_offset,
)
from walkforge.synthesis import (
    mimic_quantum_walk,
    realify_quantum_walk,
    reconstruct_wavefield,
    synthesize_coins,
    synthesize_jumps,
)
from walkforge.targets import binomial_target, uniform_target

QUASI_SYMMETRIC = HomogeneousCoinParams(math.pi / 4, 3 * math.pi / 8, 0.0)


def test_uniform_wavefield_closed_form():
    # For the flat target psi+-^2(n, t) = (t +- n) / (2t(t+1)).
    w = reconstruct_wavefield(uniform_target(12))
    for t in (1, 5, 12):
        for k in range(t + 1):
            n = 2 * k - t
            assert w.plus_slices[t][k] ** 2 == pytest.approx(
                (t + n) / (2 * t * (t + 1)), abs=1e-15)
            assert w.minus_slices[t][k] ** 2 == pytest.approx(
                (t - n) / (2 * t * (t + 1)), abs=1e-15)


def test_binomial_wavefield_closed_form():
    # Homogeneous jump probability p implies psi+^2(n, t) = p rho(n-1, t-1).
    p = 0.37
    rho = binomial_target(p, 15)
    w = reconstruct_wavefield(rho)
    for t in (1, 8, 15):
        for k in range(1, t + 1):
            assert w.plus_slices[t][k] ** 2 == pytest.approx(
                p * rho.slices[t - 1][k - 1], rel=1e-10)


def test_wavefield_edge_identity():
    # The right cone edge is pure plus-component: psi+^2(t, t) = rho(t, t).
    rho = binomial_target(0.6, 20)
    w = reconstruct_wavefield(rho)
    for t in range(1, 21):
        assert w.plus_slices[t][t] ** 2 == pytest.approx(
            rho.slices[t][t], rel=1e-12)
        assert w.minus_slices[t][t] == 0.0
        assert w.plus_slices[t][0] == 0.0


def test_wavefield_one_step_conservation():
    # psi+^2(n+1, t+1) + psi-^2(n-1, t+1) = rho(n, t)
    rho = uniform_target(25)
    w = reconstruct_wavefield(rho)
    for t in range(25):
        wp = w.plus_slices[t + 1] ** 2
        wm = w.minus_slices[t + 1] ** 2
        assert np.allclose(wp[1:] + wm[:-1], rho.slices[t], atol=1e-14)


def test_infeasible_target_rejected_during_reconstruction():
    # The flux-bound gate rejects the target at its first violated site,
    # before any squared amplitude is formed.
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    with pytest.raises(InfeasibleTargetError) as err:
        reconstruct_wavefield(rho)
    assert str(err.value) == \
        "target is infeasible; flux bound violated at (n=1, t=1)"
    assert (err.value.n, err.value.t) == (1, 1)


def test_inconsistent_coin_error_prints_a_plain_float():
    # Site (-1, 1) holds mass 0.5, but its successors hold 0 + 0.8^2.
    w = WaveField([[1.0], [0.0, math.sqrt(0.5)], [0.0, 0.0, 0.6]],
                  [[0.0], [math.sqrt(0.5), 0.0], [0.8, 0.0, 0.0]])
    with pytest.raises(IntegrityError) as err:
        synthesize_coins(w)
    assert str(err.value) == (
        "coin at (n=-1, t=1) changes the local mass by 0.14; "
        "wave field inconsistent")


def test_coin_outside_zero_to_pi_is_an_error():
    # Site (0, 0) keeps its mass, but sends psi+ = 1 to psi- = -1 at
    # (-1, 1): rho sin theta = -1, and theta = -pi/2 clamped to 0 would send
    # it to (1, 1) instead.  A sine part within ROUNDTRIP_TOL of 0 is
    # rounding, and rounds up to 0.
    def field(minus):
        return WaveField([[1.0], [0.0, math.sqrt(1.0 - minus**2)]],
                         [[0.0], [minus, 0.0]])
    with pytest.raises(IntegrityError) as err:
        synthesize_coins(field(-1.0))
    assert str(err.value) == ("coin at (n=0, t=0) has rho sin theta = -1.0 "
                              "< 0; wave field inconsistent")
    assert synthesize_coins(field(-1e-11)).value(0, 0) == 0.0


def test_negative_zero_sine_part_gives_a_needed_pi():
    # At (0, 0) rho cos theta = -1 and rho sin theta = -0.0 + -0.0 = -0.0;
    # atan2 of that is -pi, not the pi that sends psi- = 1 on as +1.
    w = WaveField([[-0.0], [0.0, -0.0]], [[1.0], [1.0, 0.0]])
    coins = synthesize_coins(w)
    assert coins.value(0, 0) == math.pi
    assert evolve_qw(coins, (-0.0, 1.0)).minus_slices[1][0] == \
        pytest.approx(1.0, abs=1e-15)


def test_negative_zero_sine_part_stores_a_positive_zero(tmp_path):
    # rho cos theta = 1 and rho sin theta = -0.0: the angle is +0.0, which a
    # schedule file writes as 0.0.
    w = WaveField([[1.0], [0.0, 1.0]], [[-0.0], [-0.0, 0.0]])
    theta = synthesize_coins(w)
    assert math.copysign(1.0, theta.value(0, 0)) == 1.0
    write_schedule_json(theta, tmp_path / "coins.json")
    assert "-0.0" not in (tmp_path / "coins.json").read_text()


def exact_walk(init, cos, zero_signs):
    """The real walk from ``init`` under coins with sin theta = 0 exactly
    and cos theta = ``cos[t]`` at slice t (t + 1 values of +-1), each zero
    amplitude then given the sign that ``zero_signs(count)`` draws for it."""
    plus, minus = [np.array([init[0]])], [np.array([init[1]])]
    for t in range(len(cos)):
        new_p, new_m = np.zeros(t + 2), np.zeros(t + 2)
        new_p[1:] = cos[t] * plus[-1]
        new_m[:-1] = -cos[t] * minus[-1]
        plus.append(new_p)
        minus.append(new_m)
    for x in plus + minus:
        zero = x == 0.0
        x[zero] = np.copysign(0.0, zero_signs(int(zero.sum())))
    return WaveField(plus, minus)


@given(st.integers(1, 6),
       st.one_of(st.floats(-math.pi, math.pi).map(
                     lambda phi: (math.cos(phi), math.sin(phi))),
                 st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                                  (0.0, -1.0)])),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_exact_zero_and_pi_walks_with_signed_zeros_round_trip(horizon, init,
                                                              seed):
    rng = np.random.default_rng(seed)
    cos = [rng.choice([-1.0, 1.0], t + 1) for t in range(horizon)]
    w = exact_walk(init, cos, lambda k: rng.choice([-1.0, 1.0], k))
    back = evolve_qw(synthesize_coins(w),
                     (w.plus_slices[0][0], w.minus_slices[0][0]))
    assert np.max(np.abs(back.plus_buf - w.plus_buf)) <= 1e-15
    assert np.max(np.abs(back.minus_buf - w.minus_buf)) <= 1e-15


def test_subnormal_sites_use_an_absolute_tolerance():
    # Site (-1, 1) holds mass 1e-320, its successor 1.21e-320: relatively
    # far apart, but both below the smallest normal, where a step may move
    # ROUNDTRIP_TOL times the square root of that normal, 1.49e-164.
    def field(successor):
        return WaveField([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
                         [[0.0], [1e-160, 0.0], [successor, 0.0, 0.0]])
    coins = synthesize_coins(field(1.1e-160))
    assert coins.value(-1, 1) == math.pi
    synthesize_coins(field(1e-82))  # moves 1e-164
    with pytest.raises(IntegrityError, match=r"\(n=-1, t=1\)"):
        synthesize_coins(field(1e-81))  # moves 1e-162


def test_uniform_coin_examples():
    rho = uniform_target(6)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    assert coins.value(0, 0) == pytest.approx(math.pi / 4, abs=1e-15)
    assert coins.value(0, 2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_uniform_round_trip():
    rho = uniform_target(50)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    back = probability_from_wavefield(evolve_qw(coins))
    worst = max(float(np.max(np.abs(back.slices[t] - rho.slices[t])))
                for t in range(51))
    assert worst < 1e-12


@pytest.mark.parametrize("walk", ["qw", "rw"])
def test_uniform_round_trip_at_T2000(walk):
    # The README's 1e-10 round-trip bound, at a horizon where rounding in
    # the split's partial sums has had 2000 slices to grow.
    rho = uniform_target(2000)
    if walk == "qw":
        coins = synthesize_coins(reconstruct_wavefield(rho))
        back = probability_from_wavefield(evolve_qw(coins))
    else:
        back = evolve_rw_exact(synthesize_jumps(rho))
    worst = max(float(np.max(np.abs(b - r)))
                for b, r in zip(back.slices, rho.slices))
    assert worst < 1e-10


def test_coins_take_no_whole_horizon_temporaries():
    # The field is stepped in slice blocks, which also form its mass, so the
    # angles are the only float buffer of its size: about 1.4 at the peak
    # with the range check's masks.  A whole mass() took 2.4; whole-buffer
    # products and neighbour copies took about 5.4.
    w = reconstruct_wavefield(uniform_target(2000))
    assert peak_buffers(synthesize_coins, w, entries=slice_offset(2000)) < 2.0


def test_reconstruction_drops_each_half_of_the_split():
    # a and b each go once their np.insert copy exists, so at most three
    # buffers live at once: psi+, b and psi-, then psi+, psi- and the mass.
    # Holding both halves to the end peaked at about 4.1.
    rho = uniform_target(2000)
    assert peak_buffers(reconstruct_wavefield, rho,
                        entries=slice_offset(2001)) < 3.5


@pytest.mark.parametrize("p", [0.3, 0.5, 0.71])
def test_binomial_round_trip(p):
    rho = binomial_target(p, 50)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    back = probability_from_wavefield(evolve_qw(coins))
    worst = max(float(np.max(np.abs(back.slices[t] - rho.slices[t])))
                for t in range(51))
    assert worst < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_empty_interior_sites_round_trip(seed):
    # Some jump probabilities are exactly 0 or 1, which empties sites inside
    # the cone; their partial-sum residues must not survive as amplitude.
    rho = random_jump_target(np.random.default_rng(seed), 60, p_edge=0.3)
    assert validate_sequence(rho).feasible
    empty = rho.buf == 0.0
    assert empty.any()
    w = reconstruct_wavefield(rho)
    assert not w.plus_buf[empty].any() and not w.minus_buf[empty].any()
    # Nor does an empty site pass any amplitude on.
    m = slice_offset(rho.horizon)
    assert not neighbours(w.plus_buf, 1)[empty[:m]].any()
    assert not neighbours(w.minus_buf, -1)[empty[:m]].any()
    back = probability_from_wavefield(evolve_qw(synthesize_coins(w)))
    assert np.max(np.abs(back.buf - rho.buf)) < 1e-10


def test_random_jump_round_trip_at_T1000():
    # rho underflows to subnormal values near the cone edges from t ~ 800.
    rho = random_jump_target(np.random.default_rng(0), 1000)
    assert ((0.0 < rho.buf) & (rho.buf < np.finfo(float).tiny)).any()
    coins = synthesize_coins(reconstruct_wavefield(rho))
    back = probability_from_wavefield(evolve_qw(coins))
    assert np.max(np.abs(back.buf - rho.buf)) < 1e-10


def test_small_interior_density_round_trip():
    # rho(0, 16) = 4e-13 sits between partial sums near 0.5, which carry
    # absolute rounding of about 1e-17: far from its own relative accuracy.
    rng = np.random.default_rng(0)
    probs = [rng.uniform(0.2, 0.8, t + 1) for t in range(30)]
    probs[15][7:9] = 1e-12, 1.0 - 1e-12
    rho = evolve_rw_exact(JumpSchedule(probs))
    assert rho.value(0, 16) < 1e-12
    back = probability_from_wavefield(
        evolve_qw(synthesize_coins(reconstruct_wavefield(rho))))
    assert np.max(np.abs(back.buf - rho.buf)) < 1e-10


def test_uniform_jump_closed_form():
    # Flat target jumps: p(n, t) = (1 + n / (t + 2)) / 2.
    rho = uniform_target(30)
    jumps = synthesize_jumps(rho)
    for t in (0, 4, 17, 29):
        for k in range(t + 1):
            n = 2 * k - t
            assert jumps.value(n, t) == pytest.approx(
                0.5 * (1 + n / (t + 2)), abs=1e-13)


def test_binomial_jump_is_constant():
    p = 0.3
    jumps = synthesize_jumps(binomial_target(p, 40))
    for t in (0, 13, 39):
        defined = jumps.defined_slices[t]
        assert defined.all()
        assert np.allclose(jumps.value_slices[t], p, atol=1e-12)


def test_infeasible_jump_error_prints_a_plain_float():
    # The gate names the site before any jump probability is formed; the
    # clamped split keeps every a / rho of a feasible target in [0, 1].
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    with pytest.raises(InfeasibleTargetError) as err:
        synthesize_jumps(rho)
    assert str(err.value) == \
        "target is infeasible; flux bound violated at (n=1, t=1)"
    assert (err.value.n, err.value.t) == (1, 1)


def test_mimicry_jump_error_prints_a_plain_float():
    # Site (-1, 1) holds mass 0.25 but passes 0.75 right: p = 3 but for
    # rounding.  Synthesis cannot get here; mimicry reads a wave field.
    w = WaveField([[1.0], [0.0, math.sqrt(0.75)], [0.0, math.sqrt(0.75), 0.0]],
                  [[0.0], [0.5, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(InfeasibleTargetError) as err:
        mimic_quantum_walk(w)
    assert str(err.value) == \
        f"jump probability {math.sqrt(0.75) ** 2 / 0.25!r} at (n=-1, t=1) " \
        "outside [0, 1]"
    assert (err.value.n, err.value.t) == (-1, 1)


def test_jump_round_trip():
    rho = uniform_target(40)
    back = evolve_rw_exact(synthesize_jumps(rho))
    for t in range(41):
        assert np.allclose(back.slices[t], rho.slices[t], atol=1e-13)


def test_mimic_initial_step_quasi_symmetric():
    w = evolve_qw_complex(QUASI_SYMMETRIC, 1)
    jumps = mimic_quantum_walk(w)
    assert jumps.value(0, 0) == pytest.approx((2 + math.sqrt(2)) / 4,
                                              abs=1e-14)


def test_mimic_initial_step_plus_start():
    w = evolve_qw_complex(
        HomogeneousCoinParams(math.pi / 4, 0.0, 0.0), 1)
    jumps = mimic_quantum_walk(w)
    assert jumps.value(0, 0) == pytest.approx(0.5, abs=1e-14)


def test_mimic_reproduces_quantum_statistics():
    w = evolve_qw_complex(QUASI_SYMMETRIC, 25)
    rho_qw = probability_from_wavefield(w)
    rho_rw = evolve_rw_exact(mimic_quantum_walk(w))
    for t in range(26):
        assert np.allclose(rho_rw.slices[t], rho_qw.slices[t], atol=1e-13)


def test_realify_preserves_statistics():
    w = evolve_qw_complex(QUASI_SYMMETRIC, 20)
    real_field, coins = realify_quantum_walk(w)
    rho_qw = probability_from_wavefield(w)
    init = (real_field.plus(0, 0), real_field.minus(0, 0))
    back = probability_from_wavefield(evolve_qw(coins, init=init))
    for t in range(21):
        assert np.allclose(back.slices[t], rho_qw.slices[t], atol=1e-13)


def test_realify_components_are_moduli():
    w = evolve_qw_complex(QUASI_SYMMETRIC, 8)
    real_field, _ = realify_quantum_walk(w)
    for t in range(9):
        assert np.allclose(real_field.plus_slices[t],
                           np.abs(w.plus_slices[t]), atol=1e-15)


def test_randomised_closure():
    # Evolve a random real walk, extract its distribution, re-synthesize,
    # and evolve again: the loop must close to rounding error.
    rng = np.random.default_rng(2026)
    horizon = 8
    worst = 0.0
    for _ in range(100):
        angles = [rng.uniform(0.3, math.pi - 0.3, size=t + 1)
                  for t in range(horizon)]
        from walkforge.lattice import CoinSchedule
        schedule = CoinSchedule(angles)
        rho = probability_from_wavefield(evolve_qw(schedule))
        coins = synthesize_coins(reconstruct_wavefield(rho))
        back = probability_from_wavefield(evolve_qw(coins))
        for t in range(horizon + 1):
            worst = max(worst, float(np.max(
                np.abs(back.slices[t] - rho.slices[t]))))
    assert worst < 1e-12
