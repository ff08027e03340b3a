import math
import re

import numpy as np
import pytest

from walkforge import io
from walkforge.feasibility import validate_sequence
from walkforge.lattice import FormatError, WalkError
from walkforge.targets import (
    binomial_target,
    hadamard_target,
    load_target,
    target_from_spec,
    uniform_target,
)


def test_uniform_examples():
    rho = uniform_target(4)
    assert rho.value(0, 0) == 1.0
    assert np.allclose(rho.slices[2], [1 / 3] * 3, atol=1e-15)
    assert np.allclose(rho.slices[4], [1 / 5] * 5, atol=1e-15)


def test_uniform_rejects_negative_horizon():
    with pytest.raises(WalkError):
        uniform_target(-1)


def test_binomial_fair_coin_slice():
    rho = binomial_target(0.5, 2)
    assert np.allclose(rho.slices[2], [0.25, 0.5, 0.25], atol=1e-15)


def test_binomial_t1_slice():
    rho = binomial_target(0.3, 1)
    assert np.allclose(rho.slices[1], [0.7, 0.3], atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_binomial_rejects_boundary_p(p):
    with pytest.raises(WalkError):
        binomial_target(p, 5)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7])
def test_binomial_matches_exact_values_at_T120(p):
    # int / int division of the exact rational rounds correctly.
    a, d = p.as_integer_ratio()
    rho = binomial_target(p, 120)
    for t in range(121):
        exact = [math.comb(t, k) * a**k * (d - a)**(t - k) / d**t
                 for k in range(t + 1)]
        assert np.max(np.abs(rho.slices[t] - exact)) <= 2e-15, t


@pytest.mark.parametrize("p", [0.3, 0.5, 0.62])
def test_binomial_mean_position(p):
    rho = binomial_target(p, 40)
    for t in (1, 10, 40):
        assert rho.mean_position(t) == pytest.approx((2 * p - 1) * t, abs=1e-12)


@pytest.mark.parametrize("factory", [
    lambda: uniform_target(200),
    lambda: binomial_target(0.3, 200),
    lambda: binomial_target(0.7, 200),
])
def test_builtin_targets_are_feasible_to_t200(factory):
    assert validate_sequence(factory()).feasible


def test_hadamard_target_matches_complex_engine():
    rho = hadamard_target(math.pi / 4, 3 * math.pi / 8, 0.0, 10)
    assert math.fsum(rho.slices[10]) == pytest.approx(1.0, abs=1e-12)
    assert validate_sequence(rho).feasible


def test_load_target_round_trip(tmp_path):
    rho = uniform_target(2)
    path = tmp_path / "u.csv"
    io.write_field_csv(rho, path)
    back = load_target(path)
    for t in range(3):
        assert (back.slices[t] == rho.slices[t]).all()


def test_load_target_json_round_trip(tmp_path):
    rho = binomial_target(0.41, 8)
    path = tmp_path / "b.json"
    io.write_field_json(rho, path)
    back = load_target(path)
    for t in range(9):
        assert (back.slices[t] == rho.slices[t]).all()


def test_load_target_parity_error_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,n,value\n0,0,1.0\n2,1,1.0\n")
    with pytest.raises(FormatError, match="row 3"):
        load_target(path)


@pytest.mark.parametrize("spec, build", [
    ("uniform", lambda: uniform_target(5)),
    ("binomial:0.3", lambda: binomial_target(0.3, 5)),
    ("hadamard:0.785,1.178,0", lambda: hadamard_target(0.785, 1.178, 0.0, 5)),
    ("hadamard:0.7,0.4,1.1,2,3,4",
     lambda: hadamard_target(0.7, 0.4, 1.1, 5, 2.0, 3.0, 4.0)),
])
def test_target_from_spec_matches_builder(spec, build):
    assert np.array_equal(target_from_spec(spec, 5).buf, build().buf)


@pytest.mark.parametrize("horizon", [None, 5])
def test_target_from_spec_reads_file(tmp_path, horizon):
    path = tmp_path / "t.json"
    io.write_field_json(binomial_target(0.3, 5), path)
    rho = target_from_spec(f"file:{path}", horizon)
    assert np.array_equal(rho.buf, load_target(path).buf)


@pytest.mark.parametrize("horizon", [None, 3])
@pytest.mark.parametrize("spec, message", [
    ("gaussian", "unknown target kind 'gaussian'; expected one of "
                 "('uniform', 'binomial', 'hadamard', 'file')"),
    ("binomial:x", "bad binomial target 'binomial:x': expected binomial:p"),
    ("hadamard:a,b,c", "bad hadamard target 'hadamard:a,b,c'"),
    ("hadamard:1,2", "hadamard target takes theta,eta,gamma[,alpha,beta,chi]"),
    ("file:", "file target needs a path: file:<path>"),
])
def test_target_from_spec_rejects_bad_spec(spec, message, horizon):
    # A malformed spec is reported before a missing horizon.
    with pytest.raises(WalkError, match=f"^{re.escape(message)}$"):
        target_from_spec(spec, horizon)


@pytest.mark.parametrize("spec", ["uniform", "binomial:0.5",
                                  "hadamard:0.7,0.4,1.1"])
def test_target_from_spec_requires_horizon(spec):
    kind = spec.partition(":")[0]
    with pytest.raises(WalkError, match=re.escape(
            f"target kind {kind!r} requires a horizon")):
        target_from_spec(spec, None)
