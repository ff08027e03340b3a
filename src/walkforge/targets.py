"""Built-in target distributions and ingestion of user-supplied ones."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .evolve import HomogeneousCoinParams, evolve_qw_complex, evolve_rw_exact
from .io import read_probability_csv, read_probability_json
from .lattice import (JumpSchedule, ProbabilitySequence, WalkError,
                      _check_horizon, probability_from_wavefield, slice_offset)

KINDS = ("uniform", "binomial", "hadamard", "file")


def uniform_target(horizon: int) -> ProbabilitySequence:
    """rho(n, t) = 1 / (t + 1) on every on-support site."""
    sizes = np.arange(1, _check_horizon(horizon) + 2)
    return ProbabilitySequence(np.repeat(1.0 / sizes, sizes))


def binomial_target(p: float, horizon: int) -> ProbabilitySequence:
    """rho(n, t) = C(t, (t+n)/2) p^{(t+n)/2} (1-p)^{(t-n)/2}.

    The position distribution of the homogeneous random walk that steps
    right with probability p, built by the exact master equation: sums of
    positive terms, which neither cancel nor overflow, and not renormalised.
    """
    if not 0.0 < p < 1.0:
        raise WalkError(f"binomial parameter must satisfy 0 < p < 1, got {p}")
    steps = _check_horizon(horizon)
    return evolve_rw_exact(JumpSchedule(np.full(slice_offset(steps), p)))


def hadamard_target(theta: float, eta: float, gamma: float, horizon: int,
                    alpha: float = 0.0, beta: float = 0.0,
                    chi: float = 0.0) -> ProbabilitySequence:
    """Position distribution of the general homogeneous complex walk.

    Delegates to the complex evolution engine so the closed-form machinery
    has a single home.
    """
    params = HomogeneousCoinParams(theta=theta, eta=eta, gamma=gamma,
                                   alpha=alpha, beta=beta, chi=chi)
    return probability_from_wavefield(evolve_qw_complex(params, horizon))


def load_target(path) -> ProbabilitySequence:
    """Read a target from the CSV/JSON field formats, validated.

    Normalisation is accepted within 1e-9 per slice and renormalised; parity
    and cone violations are rejected with their location.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_probability_json(path)
    return read_probability_csv(path)


def target_from_spec(spec: str, horizon: int | None) -> ProbabilitySequence:
    """The distribution a ``--target`` argument names: ``uniform``,
    ``binomial:p``, ``hadamard:theta,eta,gamma[,alpha,beta,chi]`` or
    ``file:<path>``.  A file fixes its own horizon, which ``horizon``, if
    given, must match; every other kind requires ``horizon``."""
    head, _, rest = spec.partition(":")
    if head == "binomial":
        try:
            p = float(rest)
        except ValueError:
            raise WalkError(f"bad binomial target {spec!r}: expected "
                            "binomial:p") from None
    elif head == "hadamard":
        try:
            angles = tuple(float(x) for x in rest.split(","))
        except ValueError:
            raise WalkError(f"bad hadamard target {spec!r}") from None
        if len(angles) not in (3, 6):
            raise WalkError(
                "hadamard target takes theta,eta,gamma[,alpha,beta,chi]")
    elif head == "file":
        if not rest:
            raise WalkError("file target needs a path: file:<path>")
        rho = load_target(rest)
        if horizon not in (None, rho.horizon):
            raise WalkError(f"horizon {horizon} does not match "
                            f"{rest}, which holds T = {rho.horizon}")
        return rho
    elif head != "uniform":
        raise WalkError(f"unknown target kind {head!r}; expected one of {KINDS}")
    if horizon is None:
        raise WalkError(f"target kind {head!r} requires a horizon")
    if head == "uniform":
        return uniform_target(horizon)
    if head == "binomial":
        return binomial_target(p, horizon)
    return hadamard_target(*angles[:3], horizon, *angles[3:])
