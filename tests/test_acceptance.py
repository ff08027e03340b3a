"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured figure of merit, then
asserts it, so a plain ``pytest -s tests/test_acceptance.py`` doubles as an
acceptance report.
"""

import math
import time

import numpy as np

from walkforge.evolve import (
    HomogeneousCoinParams,
    McConfig,
    asymptotic_density,
    closed_form_wavefield,
    evolve_qw,
    evolve_qw_complex,
    evolve_rw_exact,
    lambda_slice,
    simulate_rw,
)
from walkforge.feasibility import validate_sequence
from walkforge.lattice import (
    CoinSchedule,
    JumpSchedule,
    ProbabilitySequence,
    probability_from_wavefield,
    site_positions,
)
from walkforge.synthesis import (
    mimic_quantum_walk,
    reconstruct_wavefield,
    synthesize_coins,
    synthesize_jumps,
)
from walkforge.targets import binomial_target, uniform_target

QUASI_SYMMETRIC = HomogeneousCoinParams(math.pi / 4, 3 * math.pi / 8, 0.0)
EXACT_SYMMETRIC = HomogeneousCoinParams(math.pi / 4, math.pi / 4, math.pi / 2)


def _verdict(label: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def _max_dev(a: ProbabilitySequence, b: ProbabilitySequence) -> float:
    return max(float(np.max(np.abs(a.slices[t] - b.slices[t])))
               for t in range(min(a.horizon, b.horizon) + 1))


def test_criterion_1_uniform_qw_round_trip():
    start = time.perf_counter()
    rho = uniform_target(50)
    coins = synthesize_coins(reconstruct_wavefield(rho))
    evolved = probability_from_wavefield(evolve_qw(coins))
    dev = _max_dev(evolved, rho)

    angle_dev = 0.0
    for t in range(1, 50):
        ns = site_positions(t)
        cos_ref = (np.sqrt((t + ns) * (t + ns + 2.0))
                   - np.sqrt((t - ns) * (t - ns + 2.0))) \
            / (2.0 * math.sqrt(t * (t + 2.0)))
        sin_ref = (np.sqrt((t - ns) * (t + ns + 2.0))
                   + np.sqrt((t + ns) * (t - ns + 2.0))) \
            / (2.0 * math.sqrt(t * (t + 2.0)))
        th = coins.value_slices[t]
        angle_dev = max(angle_dev,
                        float(np.max(np.abs(np.cos(th) - cos_ref))),
                        float(np.max(np.abs(np.sin(th) - sin_ref))))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1 (uniform QW round trip)",
        dev < 1e-10 and angle_dev < 1e-10 and elapsed < 1.0,
        f"max rho deviation {dev:.3e} (<1e-10), max angle deviation "
        f"{angle_dev:.3e} (<1e-10), runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_uniform_rw_round_trip():
    rho51 = uniform_target(51)
    jumps = synthesize_jumps(rho51)
    p_dev = 0.0
    for t in range(51):
        ns = site_positions(t)
        ref = 0.5 * (1.0 + ns / (t + 2.0))
        p_dev = max(p_dev,
                    float(np.max(np.abs(jumps.value_slices[t] - ref))))
    evolved = evolve_rw_exact(jumps, steps=50)
    dev = _max_dev(evolved, uniform_target(50))
    _verdict(
        "criterion 2 (uniform RW round trip)",
        p_dev < 1e-12 and dev < 1e-10,
        f"max |p - (1 + n/(t+2))/2| = {p_dev:.3e} (<1e-12), "
        f"max rho deviation {dev:.3e} (<1e-10)")


def test_criterion_3_binomial_interchange():
    worst_rho = 0.0
    worst_psi = 0.0
    for p in (0.3, 0.5, 0.7):
        rho = binomial_target(p, 50)
        field = reconstruct_wavefield(rho)
        coins = synthesize_coins(field)
        evolved = probability_from_wavefield(evolve_qw(coins))
        worst_rho = max(worst_rho, _max_dev(evolved, rho))
        for t in range(1, 51):
            wp_ref = math.sqrt(p) * np.sqrt(
                np.concatenate(([0.0], rho.slices[t - 1])))
            wm_ref = math.sqrt(1 - p) * np.sqrt(
                np.concatenate((rho.slices[t - 1], [0.0])))
            worst_psi = max(
                worst_psi,
                float(np.max(np.abs(field.plus_slices[t] - wp_ref))),
                float(np.max(np.abs(field.minus_slices[t] - wm_ref))))
    _verdict(
        "criterion 3 (binomial interchange, p in {0.3, 0.5, 0.7})",
        worst_rho < 1e-10 and worst_psi < 1e-10,
        f"max rho deviation {worst_rho:.3e} (<1e-10), max wavefield "
        f"deviation from redundant closed form {worst_psi:.3e} (<1e-10)")


def test_criterion_4_hadamard_mimicry():
    start = time.perf_counter()
    field = evolve_qw_complex(QUASI_SYMMETRIC, 31)
    exact = probability_from_wavefield(field)
    schedule = mimic_quantum_walk(field)
    rw = evolve_rw_exact(schedule, steps=30)
    dev = float(np.max(np.abs(rw.slices[30] - exact.slices[30])))

    n_traj = 10_000
    rho_hat, stderr = simulate_rw(
        schedule, McConfig(trajectories=n_traj, seed=42, horizon=30))
    hits = 0
    sites = 31
    for k in range(sites):
        est = rho_hat.slices[30][k]
        sigma = stderr.slices[30][k]
        if est in (0.0, 1.0):
            # The plug-in error vanishes at empirical extremes; fall back to
            # the binomial error at the exact probability.
            ex = exact.slices[30][k]
            sigma = math.sqrt(ex * (1 - ex) / n_traj)
        if abs(est - exact.slices[30][k]) <= 3 * sigma:
            hits += 1
    frac = hits / sites
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 4 (Hadamard mimicry, t=30)",
        dev < 1e-10 and frac >= 0.99 and elapsed < 5.0,
        f"exact RW vs QW max deviation {dev:.3e} (<1e-10); {hits}/{sites} "
        f"sites within 3 standard errors ({frac:.1%} >= 99%); runtime "
        f"{elapsed:.2f}s (<5s)")


def test_criterion_5_closed_form_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        params = HomogeneousCoinParams(
            theta=rng.uniform(0.2, math.pi - 0.2),
            eta=rng.uniform(0.0, 2 * math.pi),
            gamma=rng.uniform(0.0, 2 * math.pi),
            alpha=rng.uniform(0.0, 2 * math.pi),
            beta=rng.uniform(0.0, 2 * math.pi),
            chi=rng.uniform(0.0, 2 * math.pi))
        horizon = int(rng.integers(1, 41))
        a = closed_form_wavefield(params, horizon)
        b = evolve_qw_complex(params, horizon)
        for t in range(horizon + 1):
            worst = max(
                worst,
                float(np.max(np.abs(a.plus_slices[t] - b.plus_slices[t]))),
                float(np.max(np.abs(a.minus_slices[t] - b.minus_slices[t]))))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 5 (closed form vs recursion, 100 random draws)",
        worst < 1e-10 and elapsed < 10.0,
        f"max component deviation {worst:.3e} (<1e-10), runtime "
        f"{elapsed:.2f}s (<10s)")


def test_criterion_6_lambda_identities():
    worst_rec = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        c = math.cos(theta)
        for t in range(0, 41):
            # The recursion couples kernel values on the n + t even
            # sublattice, which is the only region the solution ever reads:
            # at the sites n of slice t, Lambda(n -+ 1, t + 1) is slice
            # t + 1 less its last or first value, and Lambda(n, t + 2) is
            # slice t + 2 less both ends.
            lam = lambda_slice(theta, t)
            lam_r = lambda_slice(theta, t + 1)[1:]
            lam_l = lambda_slice(theta, t + 1)[:-1]
            lam_2 = lambda_slice(theta, t + 2)[1:-1]
            worst_rec = max(worst_rec, float(np.max(
                np.abs(lam - (c * (lam_r - lam_l) + lam_2)))))

    theta = EXACT_SYMMETRIC.theta
    rho = probability_from_wavefield(
        closed_form_wavefield(EXACT_SYMMETRIC, 40))
    worst_hw = 0.0
    for t in range(41):
        nxt = lambda_slice(theta, t + 1)
        ref = (0.5 * nxt[1:] ** 2 + 0.5 * nxt[:-1] ** 2
               + lambda_slice(theta, t) * lambda_slice(theta, t + 2)[1:-1])
        worst_hw = max(worst_hw,
                       float(np.max(np.abs(rho.slices[t] - ref))))
    _verdict(
        "criterion 6 (kernel identities)",
        worst_rec < 1e-10 and worst_hw < 1e-12,
        f"recursion residual {worst_rec:.3e} (<1e-10) on the support "
        f"sublattice; symmetric-walk density identity residual "
        f"{worst_hw:.3e} (<1e-12)")


def test_criterion_7_feasibility_validator():
    ok_uniform = validate_sequence(uniform_target(200)).feasible
    ok_binomial = all(
        validate_sequence(binomial_target(p, 200)).feasible
        for p in (0.3, 0.7))
    bad = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    report = validate_sequence(bad)
    named = (not report.feasible
             and any(v.n == 1 and v.t == 1
                     and abs(v.flux - 1.3) < 1e-12 for v in report.violations))
    # The validator checks the flux bound only: conservation is held by
    # ProbabilitySequence, each slice total within 1e-12 of one.
    _verdict(
        "criterion 7 (feasibility validator)",
        ok_uniform and ok_binomial and named,
        f"uniform T=200 accepted: {ok_uniform}; binomial T=200 accepted: "
        f"{ok_binomial}; infeasible example rejected naming (n=1, t=1) with "
        f"J=1.3: {named}")


def test_criterion_8_asymptotics():
    params = EXACT_SYMMETRIC
    t = 200
    rho = probability_from_wavefield(evolve_qw_complex(params, t))
    ns = site_positions(t)
    keep = np.abs(ns) <= 0.6 * t / math.sqrt(2)
    exact = rho.slices[t][keep]
    env = np.array([asymptotic_density(params, int(n), t)
                    for n in ns[keep]])
    # Bipartite correction: both the exact on-support values and the smooth
    # envelope are averaged over a 21-site support window to cancel the
    # alternating fringes before the relative comparison.
    w = 21
    kernel = np.ones(w) / w
    smooth = np.convolve(exact, kernel, mode="valid")
    centre = np.convolve(env, kernel, mode="valid")
    rel = float(np.max(np.abs(smooth - centre) / centre))
    _verdict(
        "criterion 8 (asymptotic envelope, t=200)",
        rel < 0.05,
        f"max relative deviation {rel:.3%} (<5%) for |n| <= 0.6 t/sqrt(2)")


def test_criterion_9_property_suites():
    # Norm conservation, T = 1000, homogeneous real coin.
    horizon = 1000
    coins = CoinSchedule([np.full(t + 1, math.pi / 4)
                          for t in range(horizon)])
    field = evolve_qw(coins)
    norm_dev = max(
        abs(math.fsum(field.plus_slices[t] ** 2)
            + math.fsum(field.minus_slices[t] ** 2) - 1.0)
        for t in range(0, horizon + 1, 50))

    # Mass conservation, T = 1000, inhomogeneous jumps.
    rng = np.random.default_rng(99)
    jumps = JumpSchedule([rng.uniform(0.05, 0.95, size=t + 1)
                          for t in range(horizon)])
    rho = evolve_rw_exact(jumps)
    mass_dev = max(abs(math.fsum(rho.slices[t]) - 1.0)
                   for t in range(0, horizon + 1, 50))

    # Phase invariances of the distribution.
    base = HomogeneousCoinParams(0.9, 0.7, 0.3, alpha=0.2, beta=0.1)
    same_phi = HomogeneousCoinParams(0.9, 0.7, 0.6, alpha=0.35, beta=0.25)
    chi_shift = HomogeneousCoinParams(0.9, 0.7, 0.3, alpha=0.2, beta=0.1,
                                      chi=2.2)
    ra = probability_from_wavefield(evolve_qw_complex(base, 20))
    rb = probability_from_wavefield(evolve_qw_complex(same_phi, 20))
    rc = probability_from_wavefield(evolve_qw_complex(chi_shift, 20))
    phase_dev = max(_max_dev(ra, rb), _max_dev(ra, rc))

    # Round-trip closure on 100 random feasible sequences.
    rng = np.random.default_rng(2026)
    closure = 0.0
    for _ in range(100):
        angles = [rng.uniform(0.3, math.pi - 0.3, size=t + 1)
                  for t in range(8)]
        target = probability_from_wavefield(evolve_qw(CoinSchedule(angles)))
        coins = synthesize_coins(reconstruct_wavefield(target))
        back = probability_from_wavefield(evolve_qw(coins))
        closure = max(closure, _max_dev(back, target))
    _verdict(
        "criterion 9 (property suites)",
        norm_dev < 1e-12 and mass_dev < 1e-12 and phase_dev < 1e-12
        and closure < 1e-9,
        f"norm drift {norm_dev:.3e} and mass drift {mass_dev:.3e} at T=1000 "
        f"(<1e-12); phase-invariance deviation {phase_dev:.3e} (<1e-12); "
        f"round-trip closure over 100 random sequences {closure:.3e} "
        f"(<1e-9)")
