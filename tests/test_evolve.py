import math
import os
import re
import signal

import numpy as np
import pytest

from oracles import peak_buffers, random_jump_target
from walkforge import evolve, lattice
from walkforge.evolve import (
    HomogeneousCoinParams,
    McConfig,
    asymptotic_density,
    closed_form_wavefield,
    evolve_qw,
    evolve_qw_complex,
    evolve_rw_exact,
    lambda_kernel,
    lambda_slice,
    simulate_rw,
    symmetry_conditions,
)
from walkforge.feasibility import flux_from_rho, flux_from_wavefield
from walkforge.lattice import (
    CoinSchedule,
    CoverageError,
    JumpSchedule,
    NORM_TOL,
    WalkError,
    probability_from_wavefield,
    site_positions,
    slice_offset,
)
from walkforge.synthesis import (reconstruct_wavefield, synthesize_coins,
                                 synthesize_jumps)
from walkforge.targets import binomial_target, uniform_target

QUASI_SYMMETRIC = HomogeneousCoinParams(math.pi / 4, 3 * math.pi / 8, 0.0)
EXACT_SYMMETRIC = HomogeneousCoinParams(math.pi / 4, math.pi / 4, math.pi / 2)


def _dense_step(theta_slice, defined, state):
    """Oracle: one walk step as an explicit sparse-matrix product on the
    stacked (plus, minus) amplitudes."""
    t = len(theta_slice) - 1
    new = np.zeros((2, t + 2))
    for k in range(t + 1):
        if not defined[k]:
            continue
        c, s = math.cos(theta_slice[k]), math.sin(theta_slice[k])
        new[0, k + 1] += c * state[0, k] + s * state[1, k]
        new[1, k] += s * state[0, k] - c * state[1, k]
    return new


def test_real_engine_matches_dense_oracle():
    rng = np.random.default_rng(5)
    angles = [rng.uniform(0.1, math.pi - 0.1, size=t + 1) for t in range(4)]
    schedule = CoinSchedule(angles)
    field = evolve_qw(schedule)
    state = np.array([[1.0], [0.0]])
    for t in range(4):
        state = _dense_step(angles[t], [True] * (t + 1), state)
        assert np.allclose(field.plus_slices[t + 1], state[0], atol=1e-15)
        assert np.allclose(field.minus_slices[t + 1], state[1], atol=1e-15)


def test_ballistic_coin_moves_right():
    schedule = CoinSchedule([np.zeros(t + 1) for t in range(10)])
    field = evolve_qw(schedule)
    rho = probability_from_wavefield(field)
    assert rho.value(10, 10) == pytest.approx(1.0, abs=1e-15)


def test_real_engine_conserves_at_t50():
    rho = uniform_target(50)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    # WaveField construction itself enforces per-slice normalisation.
    field = evolve_qw(coins)
    assert field.horizon == 50


def test_coverage_error_on_live_undefined_site():
    angles = [np.array([math.pi / 4]), np.array([math.nan, math.pi / 4])]
    schedule = CoinSchedule(angles)
    with pytest.raises(CoverageError, match=r"n=-1, t=1"):
        evolve_qw(schedule)


def test_undefined_site_with_dead_amplitude_is_allowed():
    # A ballistic first step leaves site (-1, 1) empty, so the schedule may
    # leave it undefined.
    angles = [np.array([0.0]), np.array([math.nan, math.pi / 4])]
    field = evolve_qw(CoinSchedule(angles))
    assert field.plus(2, 2) ** 2 + field.minus(0, 2) ** 2 == pytest.approx(1.0)


def test_undefined_coin_keeps_dead_mass_and_rejects_live_mass():
    # theta(0, 0) = a sends the amplitude sin a to the undefined site
    # (-1, 1): a mass of 1e-20 is dead, one of 1e-10 is not.
    field = evolve_qw(CoinSchedule([[1e-10], [math.nan, 0.7]]))
    # The undefined coin steps as theta = 0, which passes psi- on, negated.
    assert field.minus(-2, 2) == -math.sin(1e-10)
    with pytest.raises(CoverageError, match=r"n=-1, t=1"):
        evolve_qw(CoinSchedule([[1e-5], [math.nan, 0.7]]))


@pytest.mark.parametrize("init, norm", [
    ((1.0, 2e-5), "1.0000000004"),
    ((math.nan, 0.0), "nan"),
    ((1e200, 0.0), "inf"),
])
def test_initial_state_norm_is_checked_at_the_field_tolerance(init, norm):
    schedule = CoinSchedule([np.full(t + 1, 0.7) for t in range(3)])
    with pytest.raises(WalkError) as err:
        evolve_qw(schedule, init)
    assert type(err.value) is WalkError
    assert str(err.value) == f"initial state norm {norm} != 1"
    # 1 + 2.5e-13 lies within NORM_TOL.
    assert evolve_qw(schedule, (1.0, 5e-7)).minus(0, 0) == 5e-7


@pytest.mark.parametrize("engine", ["real", "complex"])
def test_a_wave_field_sums_its_norm_once(monkeypatch, engine):
    # The constructor's slice totals of the mass check the field and are
    # the divisors of probability_from_wavefield, which sums nothing again.
    schedule = CoinSchedule([np.full(t + 1, 0.7) for t in range(40)])
    calls = []
    totals = lattice._totals
    monkeypatch.setattr(lattice, "_totals",
                        lambda buf: calls.append(len(buf)) or totals(buf))
    field = (evolve_qw(schedule) if engine == "real"
             else evolve_qw_complex(QUASI_SYMMETRIC, 40))
    assert calls == [slice_offset(41)]
    probability_from_wavefield(field)
    assert calls == [slice_offset(41)]


def test_complex_engine_eta_zero_matches_real():
    # With eta = gamma = alpha = beta = chi = 0 the complex walk is the real
    # homogeneous walk started in (1, 0).
    theta = 1.1
    horizon = 12
    cw = evolve_qw_complex(HomogeneousCoinParams(theta, 0.0, 0.0), horizon)
    rw = evolve_qw(CoinSchedule(
        [np.full(t + 1, theta) for t in range(horizon)]))
    for t in range(horizon + 1):
        assert np.allclose(cw.plus_slices[t].real, rw.plus_slices[t],
                           atol=1e-14)
        assert np.allclose(cw.plus_slices[t].imag, 0.0, atol=1e-14)


def test_distribution_invariant_under_chi():
    base = HomogeneousCoinParams(0.9, 0.7, 0.3, alpha=0.2, beta=0.1)
    shifted = HomogeneousCoinParams(0.9, 0.7, 0.3, alpha=0.2, beta=0.1,
                                    chi=1.234)
    ra = probability_from_wavefield(evolve_qw_complex(base, 15))
    rb = probability_from_wavefield(evolve_qw_complex(shifted, 15))
    for t in range(16):
        assert np.allclose(ra.slices[t], rb.slices[t], atol=1e-13)


def test_distribution_depends_only_on_varphi():
    # Two parameter sets with equal alpha + beta - gamma and equal theta, eta.
    pa = HomogeneousCoinParams(0.8, 0.5, 0.1, alpha=0.3, beta=0.2)
    pb = HomogeneousCoinParams(0.8, 0.5, 0.4, alpha=0.45, beta=0.35)
    assert pa.varphi == pytest.approx(pb.varphi)
    ra = probability_from_wavefield(evolve_qw_complex(pa, 15))
    rb = probability_from_wavefield(evolve_qw_complex(pb, 15))
    for t in range(16):
        assert np.allclose(ra.slices[t], rb.slices[t], atol=1e-13)


def test_lambda_examples():
    theta = math.pi / 4
    assert lambda_kernel(0, 0, theta) == pytest.approx(1.0, abs=1e-15)
    assert lambda_kernel(1, 1, theta) == pytest.approx(0.0, abs=1e-14)
    assert lambda_kernel(-1, 1, theta) == pytest.approx(0.0, abs=1e-14)
    assert lambda_kernel(0, 1, theta) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-14)
    with pytest.raises(WalkError):
        lambda_kernel(3, 2, theta)


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_lambda_recursion_on_support(theta):
    # Lambda(n, t) = cos th [Lambda(n+1, t+1) - Lambda(n-1, t+1)]
    #                + Lambda(n, t+2), on the n + t even sublattice.
    c = math.cos(theta)
    worst = 0.0
    for t in range(0, 30):
        lam = lambda_slice(theta, t)
        lam_r = lambda_slice(theta, t + 1)[1:]
        lam_l = lambda_slice(theta, t + 1)[:-1]
        lam_2 = lambda_slice(theta, t + 2)[1:-1]
        gap = np.max(np.abs(lam - (c * (lam_r - lam_l) + lam_2)))
        worst = max(worst, float(gap))
    assert worst < 1e-12


def _random_coins(seed, count):
    rng = np.random.default_rng(seed)
    return [HomogeneousCoinParams(
        rng.uniform(0.2, math.pi / 2 - 0.2), rng.uniform(0, math.pi / 2),
        rng.uniform(0, 2 * math.pi), alpha=rng.uniform(0, 2 * math.pi),
        beta=rng.uniform(0, 2 * math.pi), chi=rng.uniform(0, 2 * math.pi))
        for _ in range(count)]


# Angles far outside [0, 2 pi): the closed form multiplies chi and alpha by
# t and n, so it must reduce them as the coin's own phasors do.  Any angle
# reduced by a float 2 pi modulus instead is off by ~4e-5 at gamma = 1e12
# and by ~1.5 at chi = 1e300.
LARGE_ANGLES = [
    HomogeneousCoinParams(0.7, 0.4, 1.1, alpha=1e6),
    HomogeneousCoinParams(0.7, 0.4, 1.1, beta=1e6),
    HomogeneousCoinParams(0.7, 0.4, 1e12),
    HomogeneousCoinParams(0.7, 0.4, -7e200, alpha=1e15, beta=-3e14,
                          chi=1e300),
]


@pytest.mark.parametrize("params", _random_coins(17, 10) + LARGE_ANGLES)
def test_closed_form_matches_recursion(params):
    a = closed_form_wavefield(params, 20)
    b = evolve_qw_complex(params, 20)
    for t in range(21):
        assert np.allclose(a.plus_slices[t], b.plus_slices[t], atol=1e-12)
        assert np.allclose(a.minus_slices[t], b.minus_slices[t], atol=1e-12)


@pytest.mark.parametrize("theta", [0.02, 0.3, 0.7, 1.2, math.pi - 0.02])
def test_lambda_slice_matches_direct_sum(theta):
    # The FFT slice against the definition, summed over r site by site.
    worst = 0.0
    for t in [*range(65), 359, 360, 1000]:
        direct = [lambda_kernel(2 * k - t, t, theta) for k in range(t + 1)]
        worst = max(worst, float(np.max(np.abs(
            lambda_slice(theta, t) - direct))))
    assert worst <= 1e-12


@pytest.mark.parametrize("theta", [0.02, 0.7, math.pi - 0.02])
def test_closed_form_matches_recursion_at_T1000(theta):
    eta, gamma, alpha, beta, chi = np.random.default_rng(1000).uniform(
        0, 2 * math.pi, 5)
    params = HomogeneousCoinParams(theta, eta, gamma, alpha=alpha, beta=beta,
                                   chi=chi)
    a = closed_form_wavefield(params, 1000)
    b = evolve_qw_complex(params, 1000)
    assert np.max(np.abs(a.plus_buf - b.plus_buf)) < 1e-10
    assert np.max(np.abs(a.minus_buf - b.minus_buf)) < 1e-10


def test_closed_form_ballistic_fallback():
    params = HomogeneousCoinParams(0.0, 0.4, 0.1)
    a = closed_form_wavefield(params, 6)
    b = evolve_qw_complex(params, 6)
    for t in range(7):
        assert np.allclose(a.plus_slices[t], b.plus_slices[t], atol=1e-15)


def test_symmetry_condition_examples():
    a, b = symmetry_conditions(EXACT_SYMMETRIC)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(0.0, abs=1e-15)
    a, b = symmetry_conditions(QUASI_SYMMETRIC)
    assert a == pytest.approx(0.0, abs=1e-15)
    assert b == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    a, b = symmetry_conditions(HomogeneousCoinParams(0.6, 0.0, 0.0))
    assert a == pytest.approx(math.cos(0.6), abs=1e-15)
    assert b == pytest.approx(math.cos(1.2), abs=1e-15)


@pytest.mark.parametrize("params, angle", [
    (HomogeneousCoinParams(0.7, 1e308, 0.0), "2 eta"),
    (HomogeneousCoinParams(1e308, 0.0, 0.0), "2 theta"),
    (HomogeneousCoinParams(0.7, 0.0, 0.0, alpha=1e308, beta=1e308),
     "alpha + beta - gamma"),
])
def test_overflowing_angles_raise_walk_error(params, angle):
    # Each parameter is finite, but an angle made of them overflows to inf,
    # which has no sine or cosine.
    message = re.escape(f"coin angle {angle} = inf is not finite")
    with pytest.raises(WalkError, match=message):
        symmetry_conditions(params)
    if angle != "2 theta":  # the envelope doubles eta only
        with pytest.raises(WalkError, match=message):
            asymptotic_density(params, 1, 4)


def test_exactly_symmetric_distribution():
    rho = probability_from_wavefield(evolve_qw_complex(EXACT_SYMMETRIC, 30))
    for t in range(31):
        assert np.allclose(rho.slices[t], rho.slices[t][::-1], atol=1e-14)


def test_asymptotic_density_tracks_exact_bulk():
    params = QUASI_SYMMETRIC
    t = 400
    rho = probability_from_wavefield(evolve_qw_complex(params, t))
    ns = site_positions(t)
    keep = np.abs(ns) <= 0.6 * t / math.sqrt(2)
    exact = rho.slices[t][keep]
    kept_ns = ns[keep]
    env = np.array([asymptotic_density(params, int(n), t) for n in kept_ns])
    # The exact values oscillate about the envelope; a 21-site moving
    # average over the support (applied to both curves) removes the fringes.
    w = 21
    kernel = np.ones(w) / w
    smooth = np.convolve(exact, kernel, mode="valid")
    centre = np.convolve(env, kernel, mode="valid")
    rel = np.abs(smooth - centre) / centre
    assert float(np.max(rel)) < 0.05


def test_asymptotic_density_domain():
    with pytest.raises(WalkError, match="cos theta"):
        asymptotic_density(QUASI_SYMMETRIC, 300, 400)


def test_exact_rw_fair_coin_is_binomial():
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(20)])
    rho = evolve_rw_exact(schedule)
    ref = binomial_target(0.5, 20)
    for t in range(21):
        assert np.allclose(rho.slices[t], ref.slices[t], atol=1e-14)


@pytest.mark.parametrize("engine", [
    evolve_rw_exact,
    lambda schedule: simulate_rw(
        schedule, McConfig(trajectories=100, seed=0, horizon=2)),
], ids=["exact", "mc"])
def test_exact_rw_coverage_error(engine):
    schedule = JumpSchedule([np.array([0.5]), np.array([math.nan, 0.5])])
    with pytest.raises(CoverageError, match=r"undefined at \w+ site "
                                            r"\(n=-1, t=1\)$"):
        engine(schedule)


def test_exact_rw_steps_dead_mass_left_at_undefined_site():
    rho = evolve_rw_exact(JumpSchedule([[1.0 - 1e-13], [math.nan, 0.5]]))
    assert 0.0 < rho.value(-1, 1) <= NORM_TOL
    # p = 0 at (-1, 1), as a Monte Carlo walker there would step.
    assert rho.value(-2, 2) == rho.value(-1, 1)


def test_mimicry_pair_agrees_on_live_undefined_sites():
    # Coins and jumps realising one target with empty sites: both engines
    # accept, and they judge the mass at every undefined site alike.
    horizon = 300
    rho = random_jump_target(np.random.default_rng(1), horizon, p_edge=0.3)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    jumps = synthesize_jumps(rho)
    field = evolve_qw(coins)
    m = slice_offset(horizon)
    undefined = np.isnan(coins.buf) | np.isnan(jumps.buf)
    qw_mass = (field.plus_buf[:m] ** 2 + field.minus_buf[:m] ** 2)[undefined]
    rw_mass = evolve_rw_exact(jumps).buf[:m][undefined]
    # Rounding-level mass reaches undefined sites in the quantum walk; the
    # split sends none into an empty site, so the random walk's is 0 there.
    assert (qw_mass > 0.0).any() and (rw_mass == 0.0).all()
    assert ((qw_mass > NORM_TOL) == (rw_mass > NORM_TOL)).all()


def test_mc_is_deterministic():
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(10)])
    cfg = McConfig(trajectories=2000, seed=123, horizon=10)
    a, _ = simulate_rw(schedule, cfg)
    b, _ = simulate_rw(schedule, cfg)
    for t in range(11):
        assert (a.slices[t] == b.slices[t]).all()


def documented_walks(seed, n_traj, probs):
    """Storage index k = (n + t) / 2 of trajectory i at t = 0..T, one row
    each: trajectory i draws its uniforms from Philox(key=[seed, i]) and
    steps right at time t when draw t is below p(n, t)."""
    steps = len(probs)
    ks = np.zeros((n_traj, steps + 1), dtype=np.int64)
    for i in range(n_traj):
        draws = np.random.Generator(np.random.Philox(key=[seed, i])).random(
            steps)
        n = 0
        for t in range(steps):
            n += 1 if draws[t] < probs[t][(n + t) // 2] else -1
            ks[i, t + 1] = (n + t + 1) // 2
    return ks


MC_BLOCKS = [1, 7, 10 ** 5]
# Patched CPU counts: 1 runs the blocks in process; 2 and 3 fork that many
# workers, or one per block where there are fewer blocks.
MC_CPUS = [1, 2, 3]


@pytest.mark.parametrize("cpus", MC_CPUS)
@pytest.mark.parametrize("block", MC_BLOCKS)
@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1])
def test_mc_follows_the_documented_stream(seed, block, cpus, monkeypatch):
    monkeypatch.setattr(evolve, "_MC_BLOCK", block)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: cpus)
    steps, n_traj = 6, 300
    probs = [np.linspace(0.2, 0.8, t + 1) for t in range(steps)]
    ks = documented_walks(seed, n_traj, probs)
    rho, _ = simulate_rw(JumpSchedule(probs),
                         McConfig(trajectories=n_traj, seed=seed,
                                  horizon=steps))
    for t in range(steps + 1):
        # Frequencies, not rho * N: (c / N) * N is not always c in floats.
        counts = np.bincount(ks[:, t], minlength=t + 1)
        assert (rho.slices[t] == counts / n_traj).all()


@pytest.mark.parametrize("cpus", MC_CPUS)
def test_mc_coverage_error_does_not_depend_on_block_size(cpus, monkeypatch):
    # Undefined: (n=3, t=3), after three right steps, and (n=-5, t=5),
    # after five left ones.  Trajectories 0..6 reach only the second, so
    # with blocks of 7 a later block reaches an undefined site first.
    steps, n_traj, seed = 6, 300, 10
    probs = [np.full(t + 1, 0.5) for t in range(steps)]
    probs[3][3] = math.nan
    probs[5][0] = math.nan
    ks = documented_walks(seed, n_traj, probs)
    assert not (ks[:7, 3] == 3).any() and (ks[:7, 5] == 0).any()
    assert (ks[7:, 3] == 3).any()
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: cpus)
    messages = set()
    for block in MC_BLOCKS:
        monkeypatch.setattr(evolve, "_MC_BLOCK", block)
        with pytest.raises(CoverageError) as exc:
            simulate_rw(JumpSchedule(probs),
                        McConfig(trajectories=n_traj, seed=seed,
                                 horizon=steps))
        messages.add(str(exc.value))
    assert messages == {
        "jump probability undefined at visited site (n=3, t=3)"}


def test_no_affinity_mask_means_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert evolve._usable_cpus() == 1


def test_mc_memory_does_not_grow_with_trajectories(monkeypatch):
    # The 4 000 trajectories fill two blocks; 16 times as many add none.
    # tracemalloc sees no forked worker, so the blocks run in process: the
    # code each worker runs.
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 1)
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(200)])
    peaks = [peak_buffers(simulate_rw, schedule,
                          McConfig(trajectories=n_traj, seed=0, horizon=200),
                          entries=slice_offset(201))
             for n_traj in (4_000, 64_000)]
    assert peaks[1] <= 1.2 * peaks[0]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_worker(*_):
    raise MemoryError


def killed_worker(*_):
    os.kill(os.getpid(), signal.SIGKILL)


def wordy_worker(*_):
    raise ValueError("schedule " + "\u00e9" * 200)


@pytest.mark.parametrize("blocks, message", [
    (failing_worker, "worker exited with status 1: MemoryError$"),
    # The cause is cut at _MC_ERROR_BYTES bytes, here inside the last é.
    (wordy_worker, "worker exited with status 1: ValueError: schedule "
                   "\u00e9{117}\ufffd$"),
    (killed_worker, f"worker killed by signal {int(signal.SIGKILL)}"),
])
def test_mc_worker_failure_is_a_walk_error(blocks, message, monkeypatch):
    monkeypatch.setattr(evolve, "_MC_BLOCK", 7)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evolve, "_mc_blocks", blocks)
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(5)])
    with pytest.raises(WalkError, match=message):
        simulate_rw(schedule, McConfig(trajectories=20, seed=0, horizon=5))
    assert_no_child_left()


@pytest.mark.parametrize("call, fails_at, fault", [
    ("fork", 2, OSError("no more processes")),  # one worker has started
    ("waitpid", 1, KeyboardInterrupt()),  # both workers have started
])
def test_mc_parent_fault_reaps_its_workers(call, fails_at, fault,
                                           monkeypatch):
    real, calls = getattr(os, call), []

    def faulty(*args):
        calls.append(args)
        if len(calls) == fails_at:
            raise fault
        return real(*args)

    monkeypatch.setattr(evolve, "_MC_BLOCK", 7)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, call, faulty)
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(5)])
    with pytest.raises(type(fault)):
        simulate_rw(schedule, McConfig(trajectories=20, seed=0, horizon=5))
    monkeypatch.undo()
    assert_no_child_left()


def test_exact_rw_holds_no_copy_of_the_schedule():
    # rho is one buffer; the NaN -> 0 replacement works slice by slice.
    horizon = 300
    schedule = JumpSchedule(np.full(slice_offset(horizon), 0.3))
    assert peak_buffers(evolve_rw_exact, schedule,
                        entries=slice_offset(horizon + 1)) < 2


def test_qw_takes_no_whole_horizon_temporaries():
    # The coins' cos and sin are formed a slice block at a time, and with
    # no undefined coin no coverage mass is formed, so psi+- and the norm's
    # mass are the only float buffers of the field's size: about 3.1.  Whole
    # cos and sin buffers, and a two-buffer mass, peaked at about 4.1.
    coins = synthesize_coins(reconstruct_wavefield(uniform_target(2000)))
    assert peak_buffers(evolve_qw, coins, entries=slice_offset(2001)) < 3.5


def test_mc_sure_thing():
    schedule = JumpSchedule([np.ones(t + 1) for t in range(12)])
    rho, stderr = simulate_rw(schedule,
                              McConfig(trajectories=500, seed=7, horizon=12))
    assert rho.value(12, 12) == 1.0
    assert stderr.value(12, 12) == 0.0


def test_mc_stderr_formula():
    schedule = JumpSchedule([np.full(t + 1, 0.5) for t in range(5)])
    n = 10_000
    rho, stderr = simulate_rw(schedule,
                              McConfig(trajectories=n, seed=3, horizon=5))
    for t in range(6):
        expect = np.sqrt(rho.slices[t] * (1 - rho.slices[t]) / n)
        assert np.allclose(stderr.slices[t], expect, atol=1e-15)


def test_flux_bridge_between_representations():
    # J = a - b from the split of rho equals the wave-function expression
    # |psi+(n+1, t+1)|^2 - |psi-(n-1, t+1)|^2, and for real fields also
    # cos 2th (psi+^2 - psi-^2) + 2 sin 2th psi+ psi-.
    rho = uniform_target(20)
    field = reconstruct_wavefield(rho)
    coins = synthesize_coins(field)
    ja = flux_from_rho(rho)
    jb = flux_from_wavefield(field)
    for t in range(20):
        assert np.allclose(ja.slices[t], jb.slices[t], atol=1e-12)
        wp = field.plus_slices[t]
        wm = field.minus_slices[t]
        th = coins.value_slices[t]
        jc = (np.cos(2 * th) * (wp ** 2 - wm ** 2)
              + 2 * np.sin(2 * th) * wp * wm)
        assert np.allclose(ja.slices[t], jc, atol=1e-12)
