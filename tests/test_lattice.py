import ast
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import peak_buffers
from walkforge import lattice
from walkforge.evolve import HomogeneousCoinParams, evolve_qw_complex
from walkforge.lattice import (
    CoinSchedule,
    ComplexWaveField,
    FluxField,
    FormatError,
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    SupportError,
    WaveField,
    from_storage_index,
    probability_from_wavefield,
    slice_offset,
    split_slices,
    to_storage_index,
)
from walkforge.synthesis import reconstruct_wavefield
from walkforge.targets import uniform_target


def test_storage_index_examples():
    assert to_storage_index(-2, 2) == 0
    assert to_storage_index(0, 2) == 1
    assert to_storage_index(2, 2) == 2


def test_storage_index_rejects_parity():
    with pytest.raises(SupportError, match="parity"):
        to_storage_index(1, 2)


def test_storage_index_rejects_cone():
    with pytest.raises(SupportError, match="light cone"):
        to_storage_index(5, 2)
    with pytest.raises(SupportError, match="negative time"):
        to_storage_index(0, -1)
    with pytest.raises(SupportError,
                       match=r"storage index k=3 outside 0\.\.t for t=2"):
        from_storage_index(3, 2)


@given(st.integers(0, 300), st.data())
def test_storage_index_round_trip(t, data):
    n = data.draw(st.integers(-t, t).map(lambda m: m - (m + t) % 2))
    if abs(n) > t:
        n += 2
    k = to_storage_index(n, t)
    assert 0 <= k <= t
    assert from_storage_index(k, t) == n


@given(st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=200))
def test_prefix_suffix_sums_match_fsum(values):
    arr = np.array(values)
    pre = lattice._scan(arr.copy())
    suf = lattice._scan(np.r_[0.0, arr[::-1]])[::-1]
    assert suf[-1] == 0.0
    for k in (0, len(arr) // 2, len(arr) - 1):
        assert pre[k] == pytest.approx(math.fsum(arr[: k + 1]), abs=1e-9, rel=1e-12)
        assert suf[k] == pytest.approx(math.fsum(arr[k:]), abs=1e-9, rel=1e-12)


# Summands that make exact ties (1 + 2**-53), cancel (+-1e308, +-1), sit in
# the subnormal range or overflow a slice total.
SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([1.0, -1.0, 3.0, 0.1, 2.0 ** -53, -2.0 ** -53,
                     2.0 ** -1074, 1e308, -1e308, 0.0]),
)


@given(st.integers(1, 24).flatmap(lambda slices: st.lists(
    SUMMANDS, min_size=slice_offset(slices), max_size=slice_offset(slices))))
@example([1.0, 1.0, 2.0 ** -53, 1.0, 2.0 ** -53, 2.0 ** -53])
@example([1.0, 1e308, 1e308, 1e308, -1e308, 1e308])
@example([2.0 ** -1074] * 10)
@settings(deadline=None)
def test_slice_totals_equal_fsum(values):
    # Slices of lengths 1..24: a block of 16 and part of the next.
    buf = np.array(values)
    fsum = [lattice._total(s) for s in split_slices(buf)]
    assert lattice._totals(buf).tolist() == fsum


def test_slice_totals_hold_at_most_five_blocks():
    # At T = 2000 every block holds about _BLOCK_SIZE entries, and a block,
    # its cumsum and its step errors are live at once.  Keeping the last
    # block's three until the next cascade returned peaked at 1.57 MB here.
    buf = uniform_target(2000).buf
    assert peak_buffers(lattice._totals, buf,
                        entries=lattice._BLOCK_SIZE) < 5


def test_mass_takes_one_buffer():
    # |psi-|^2 is added into |psi+|^2 a chunk at a time; the whole-buffer
    # sum of two squares held two buffers.
    w = reconstruct_wavefield(uniform_target(2000))
    assert peak_buffers(w.mass, entries=slice_offset(2001)) < 1.5


def test_complex_walk_probabilities_take_one_mass_at_a_time():
    # psi+- are two complex buffers, four float ones; the field's norm and
    # the probabilities each form one mass buffer, the second after the
    # first is gone.  Two-buffer masses peaked at about 6.0.
    params = HomogeneousCoinParams(theta=0.7, eta=0.4, gamma=1.1)
    assert peak_buffers(
        lambda: probability_from_wavefield(evolve_qw_complex(params, 2000)),
        entries=slice_offset(2001)) < 5.5


def test_probability_sequence_rejects_bad_slice_length():
    with pytest.raises(FormatError, match="slice t=1"):
        ProbabilitySequence([[1.0], [1.0]])


def test_probability_sequence_rejects_bad_normalisation():
    with pytest.raises(FormatError, match="sums to"):
        ProbabilitySequence([[1.0], [0.3, 0.3]])


def test_probability_sequence_clamps_cancellation_noise():
    rho = ProbabilitySequence([[1.0], [1.0 + 5e-13, -5e-13]])
    assert rho.value(1, 1) == 0.0


def test_renormalize_divides_a_writable_buffer_in_place():
    buf = np.array([1.0, 0.25, 0.75 + 4e-10, 0.125, 0.5, 0.375])
    want = buf.copy()
    want[1:3] /= math.fsum(buf[1:3])
    rho = ProbabilitySequence(buf, renormalize=True)
    assert rho.buf is buf
    assert buf.tobytes() == want.tobytes()


def test_each_threshold_is_written_once():
    # A float below 1e-3 in the sources is a threshold: each is written
    # once and named wherever it judges, so no two can drift apart.
    counts = Counter(
        node.value for path in Path(lattice.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < node.value < 1e-3)
    assert {value: n for value, n in counts.items() if n > 1} == {}
    # No new one: the noise floor, the accuracy bound, renormalize's
    # acceptance and the drift below which a slice is not divided.
    assert set(counts) == {lattice.NORM_TOL, lattice.ROUNDTRIP_TOL, 1e-9, 1e-15}


def test_probability_sequence_rejects_real_negatives():
    with pytest.raises(InfeasibleTargetError, match=r"n=1, t=1"):
        ProbabilitySequence([[1.0], [1.001, -1e-3]])


def test_nan_target_is_rejected_naming_its_site():
    # A NaN slips past every |x - 1| > tol test: before this check the
    # sequence was accepted, and validate_sequence called it feasible.
    with pytest.raises(FormatError, match=r"non-finite value nan .*n=-1, t=1"):
        ProbabilitySequence([[1.0], [math.nan, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_wave_fields_and_coins_reject_non_finite_values(bad):
    with pytest.raises(FormatError, match="non-finite"):
        WaveField([[1.0], [0.0, bad]], [[0.0], [1.0, 0.0]])
    with pytest.raises(FormatError, match="non-finite"):
        ComplexWaveField([[1.0], [0.0, complex(0.0, bad)]], [[0.0], [1.0, 0.0]])
    if not math.isnan(bad):  # NaN marks an undefined schedule site
        with pytest.raises(FormatError, match="outside"):
            CoinSchedule([[bad]])


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.integers(1, 8), st.data())
def test_non_finite_entry_anywhere_is_rejected(horizon, data):
    # One faulty entry at (n, t); every error names its slice, and the
    # sequence's errors that name a site name this one.
    t = data.draw(st.integers(0, horizon))
    k = data.draw(st.integers(0, t))
    n = 2 * k - t
    site = re.escape(f"(n={n}, t={t})")
    bad = data.draw(NON_FINITE)
    neg = data.draw(st.floats(-10.0, -1e-11))
    high = data.draw(st.floats(1.0, 10.0, exclude_min=True))

    def with_entry(value):
        slices = [np.full(s + 1, 1.0 / (s + 1)) for s in range(horizon + 1)]
        slices[t][k] = value
        return slices

    expected = {math.inf: (FormatError, rf"slice t={t} sums to inf"),
                -math.inf: (InfeasibleTargetError,
                            rf"negative probability -inf at {site}")}
    kind, match = expected.get(bad, (FormatError,
                                     rf"non-finite value nan at {site}"))
    with pytest.raises(kind, match=match):
        ProbabilitySequence(with_entry(bad))
    with pytest.raises(InfeasibleTargetError,
                       match=rf"negative probability .* at {site}") as exc:
        ProbabilitySequence(with_entry(neg))
    assert (exc.value.n, exc.value.t) == (n, t)
    # NaN marks an undefined schedule site, so only infinities are faults.
    for value in [v for v in (bad, neg, high) if not math.isnan(v)]:
        with pytest.raises(FormatError,
                           match=rf"jump probability outside \[0, 1\] in "
                                 rf"slice t={t}$"):
            JumpSchedule(with_entry(value))
        with pytest.raises(FormatError,
                           match=rf"coin angle outside \[0, pi\] in "
                                 rf"slice t={t}$"):
            CoinSchedule(with_entry(value + 3 * (value > 1.0)))


def test_schedule_nan_marks_undefined_sites_only():
    sched = CoinSchedule([[math.nan], [0.5, math.nan]])
    assert [d.tolist() for d in sched.defined_slices] == [[False], [True, False]]


def test_probability_sequence_immutable():
    # Every component of every container is one read-only buffer, copied
    # from a list of slices or taken over from a slice-order array, and
    # exposed as views of it.
    h = math.sqrt(0.5)
    for form in ("list", "buffer"):
        def given(*slices):
            slices = [np.array(s, dtype=float) for s in slices]
            return slices if form == "list" else np.concatenate(slices)

        inputs = given([1.0], [0.5, 0.5])
        components = {
            ("slices", "buf"): [ProbabilitySequence(inputs),
                                FluxField(given([1.0], [0.5, 0.5])),
                                ScalarField(given([1.0], [0.5, 0.5]))],
            ("plus_slices", "plus_buf"): [
                WaveField(given([1.0], [0.0, h]), given([0.0], [h, 0.0])),
                ComplexWaveField(given([1.0], [0.0, h]),
                                 given([0.0], [h, 0.0]))],
            ("value_slices", "buf"): [
                CoinSchedule(given([0.5], [0.5, math.nan])),
                JumpSchedule(given([0.5], [0.5, 0.5]))],
        }
        components["minus_slices", "minus_buf"] = \
            components["plus_slices", "plus_buf"]
        components["defined_slices", None] = components["value_slices", "buf"]
        for (name, buf_name), containers in components.items():
            for container in containers:
                slices = getattr(container, name)
                assert len(slices) == 2
                buf = slices[0].base
                assert buf is not None and not buf.flags.writeable
                if buf_name is not None:
                    assert getattr(container, buf_name) is buf
                for t, s in enumerate(slices):
                    assert s.base is buf and len(s) == t + 1
                    with pytest.raises(ValueError):
                        s[0] = 0.5
        if form == "list":
            inputs[1][0] = 0.25
            assert components["slices", "buf"][0].slices[1].tolist() == \
                [0.5, 0.5]
        else:  # taken over without a copy, and frozen
            assert components["slices", "buf"][0].buf is inputs
            assert not inputs.flags.writeable


# Each container kind with list inputs that build a valid container.
CONTAINERS = {
    ProbabilitySequence: [[[1.0], [0.25, 0.75], [0.125, 0.5, 0.375]]],
    FluxField: [[[0.5], [-0.25, 0.75]]],
    ScalarField: [[[2.0], [-1.0, 3.0]]],
    WaveField: [[[1.0], [0.0, math.sqrt(0.5)]], [[0.0], [math.sqrt(0.5), 0.0]]],
    ComplexWaveField: [[[1.0], [0.0, 0.6j]], [[0.0], [0.8, 0.0]]],
    CoinSchedule: [[[0.5], [math.nan, 3.0]]],
    JumpSchedule: [[[0.5], [0.25, math.nan]]],
}


@pytest.mark.parametrize("kind, args", CONTAINERS.items(),
                         ids=[k.__name__ for k in CONTAINERS])
def test_buffer_and_list_inputs_build_equal_containers(kind, args):
    from_list = kind(*args)
    from_buffer = kind(*(np.concatenate([np.asarray(s) for s in a])
                         for a in args))
    names = [n for n in ("buf", "plus_buf", "minus_buf")
             if hasattr(from_list, n)]
    assert names
    for name in names:
        a, b = getattr(from_list, name), getattr(from_buffer, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("kind, args", CONTAINERS.items(),
                         ids=[k.__name__ for k in CONTAINERS])
def test_buffer_that_is_not_whole_slices_is_rejected(kind, args):
    # Four values fill slices 0 and 1 and one entry of slice 2; before the
    # length check the fourth value was dropped without a word.
    buf = np.full(4, 0.25)
    with pytest.raises(FormatError, match="4 values do not fill whole"):
        kind(*(buf for _ in args))


@pytest.mark.parametrize("kind", [ProbabilitySequence, WaveField,
                                  ComplexWaveField])
@pytest.mark.parametrize("form", [[], np.empty(0)], ids=["list", "buffer"])
def test_fields_need_at_least_one_slice(kind, form):
    # A zero-slice ProbabilitySequence used to report horizon -1.
    with pytest.raises(FormatError, match="no slices"):
        kind(*[form] * len(CONTAINERS[kind]))


def test_wavefield_requires_edge_zeros():
    # The messages print plain floats, not numpy scalar reprs.
    with pytest.raises(IntegrityError) as err:
        WaveField([[1.0], [0.0, 0.7]], [[0.0], [0.0, math.sqrt(1 - 0.49)]])
    assert str(err.value) == (f"psi-(1,1) = {math.sqrt(1 - 0.49)!r}, must "
                              "vanish on the right cone edge")
    with pytest.raises(IntegrityError) as err:
        WaveField([[1.0], [0.7, 0.0]], [[0.0], [math.sqrt(1 - 0.49), 0.0]])
    assert str(err.value) == \
        "psi+(-1,1) = 0.7, must vanish on the left cone edge"
    with pytest.raises(FormatError,
                       match="plus and minus components differ in horizon"):
        WaveField([[1.0]], [[0.0], [0.0, 0.0]])


@pytest.mark.parametrize("kind", [WaveField, ComplexWaveField])
def test_wave_field_norm_overflow_is_an_integrity_error(kind):
    # The squares are finite; only their slice total overflows.
    plus = [[1.0], [0.0, 1.0], [0.0, 1e154, 1e154]]
    minus = [[0.0], [0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(IntegrityError) as err:
        kind(plus, minus)
    assert str(err.value) == \
        "wave field norm at t=2 is inf, deviates from 1 beyond 1e-12"


@pytest.mark.parametrize("renormalize", [False, True])
def test_probability_sequence_total_overflow_is_a_format_error(renormalize):
    # The entries are finite; only their slice total overflows, which must
    # not read as NaN, which passes every tolerance test.
    slices = [[1.0], [0.0, 1.0], [0.0, 1e308, 1e308]]
    with pytest.raises(FormatError) as err:
        ProbabilitySequence(slices, renormalize=renormalize)
    tol = "1e-09" if renormalize else "1e-12"
    assert str(err.value) == \
        f"slice t=2 sums to inf, deviates from 1 by more than {tol}"


def test_probability_from_wavefield_initial_condition():
    w = WaveField([[1.0]], [[0.0]])
    rho = probability_from_wavefield(w)
    assert rho.value(0, 0) == 1.0


def test_probability_from_wavefield_uniform_slice():
    # Uniform-target components at t = 2: psi+- = sqrt((t +- n) / (2t(t+1)))
    t = 2
    plus = [np.array([1.0]), np.array([0.0, math.sqrt(0.5)]),
            np.array([0.0, math.sqrt(2 / 12), math.sqrt(4 / 12)])]
    minus = [np.array([0.0]), np.array([math.sqrt(0.5), 0.0]),
             np.array([math.sqrt(4 / 12), math.sqrt(2 / 12), 0.0])]
    rho = probability_from_wavefield(WaveField(plus, minus))
    assert rho.value(0, 2) == pytest.approx(1 / 3, abs=1e-15)
    assert rho.value(2, 2) == pytest.approx(1 / 3, abs=1e-15)


def test_probability_from_wavefield_rejects_denormalised():
    plus = [np.array([1.0]), np.array([0.0, 0.8])]
    minus = [np.array([0.0]), np.array([0.6, 0.0])]
    w = WaveField(plus, minus)
    # Corrupt via direct construction is blocked, so check the guard through
    # a nearly-normalised field instead: 1e-10 drift passes, 1e-8 cannot be
    # built at all.
    assert probability_from_wavefield(w).value(1, 1) == pytest.approx(0.64)
    with pytest.raises(IntegrityError):
        WaveField([np.array([1.0]), np.array([0.0, 0.8])],
                  [np.array([0.0]), np.array([0.7, 0.0])])
