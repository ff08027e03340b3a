"""Built-in target distributions and ingestion of user-supplied ones."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .evolve import HomogeneousCoinParams, evolve_qw_complex
from .io import read_probability_csv, read_probability_json
from .lattice import (ProbabilitySequence, WalkError, _check_horizon,
                      flat_sites, probability_from_wavefield, slice_offset)

KINDS = ("uniform", "binomial", "hadamard", "file")


def uniform_target(horizon: int) -> ProbabilitySequence:
    """rho(n, t) = 1 / (t + 1) on every on-support site."""
    sizes = np.arange(1, _check_horizon(horizon) + 2)
    return ProbabilitySequence(np.repeat(1.0 / sizes, sizes))


def binomial_target(p: float, horizon: int) -> ProbabilitySequence:
    """rho(n, t) = C(t, (t+n)/2) p^{(t+n)/2} (1-p)^{(t-n)/2}.

    Coefficients are computed in log space so horizons past ~170 do not
    overflow while slice sums stay within 1e-12 of one.
    """
    if not 0.0 < p < 1.0:
        raise WalkError(f"binomial parameter must satisfy 0 < p < 1, got {p}")
    n, t = flat_sites(np.arange(slice_offset(_check_horizon(horizon) + 1)))
    k = (n + t) // 2
    logs = gammaln(t + 1) - gammaln(k + 1) - gammaln(t - k + 1) \
        + k * math.log(p) + (t - k) * math.log1p(-p)
    return ProbabilitySequence(np.exp(logs), accept_tol=1e-9, renormalize=True)


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


@dataclass(frozen=True)
class TargetSpec:
    """A parsed ``--target`` argument: which distribution, with parameters."""

    kind: str
    p: float | None = None
    angles: tuple[float, ...] = field(default=())
    path: str | None = None

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        head, _, rest = text.partition(":")
        if head == "uniform":
            return cls(kind="uniform")
        if head == "binomial":
            try:
                return cls(kind="binomial", p=float(rest))
            except ValueError:
                raise WalkError(f"bad binomial target {text!r}: expected "
                                "binomial:p") from None
        if head == "hadamard":
            try:
                angles = tuple(float(x) for x in rest.split(","))
            except ValueError:
                raise WalkError(f"bad hadamard target {text!r}") from None
            if len(angles) not in (3, 6):
                raise WalkError(
                    "hadamard target takes theta,eta,gamma[,alpha,beta,chi]")
            return cls(kind="hadamard", angles=angles)
        if head == "file":
            if not rest:
                raise WalkError("file target needs a path: file:<path>")
            return cls(kind="file", path=rest)
        raise WalkError(f"unknown target kind {head!r}; expected one of {KINDS}")

    def realize(self, horizon: int | None) -> ProbabilitySequence:
        if self.kind == "file":
            return load_target(self.path)
        if horizon is None:
            raise WalkError(f"target kind {self.kind!r} requires a horizon")
        if self.kind == "uniform":
            return uniform_target(horizon)
        if self.kind == "binomial":
            return binomial_target(self.p, horizon)
        theta, eta, gamma = self.angles[:3]
        return hadamard_target(theta, eta, gamma, horizon, *self.angles[3:])
