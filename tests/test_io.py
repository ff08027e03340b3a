import csv
import io as io_module
import json
import math

import numpy as np
import pytest

from walkforge import io
from walkforge.feasibility import flux_from_rho
from walkforge.lattice import (
    CoinSchedule,
    ComplexWaveField,
    FormatError,
    JumpSchedule,
    ScalarField,
)
from walkforge.targets import uniform_target


def test_csv_round_trip(tmp_path):
    rho = uniform_target(6)
    path = tmp_path / "rho.csv"
    io.write_field_csv(rho, path)
    back = io.read_probability_csv(path)
    for t in range(7):
        assert (back.slices[t] == rho.slices[t]).all()


def test_json_round_trip_bit_for_bit(tmp_path):
    rho = uniform_target(9)
    path = tmp_path / "rho.json"
    io.write_field_json(rho, path)
    back = io.read_probability_json(path)
    for t in range(10):
        assert (back.slices[t] == rho.slices[t]).all()


def test_csv_reader_rejects_parity_violation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,n,value\n0,0,1.0\n2,1,0.5\n")
    with pytest.raises(FormatError, match="row 3.*parity"):
        io.read_probability_csv(path)


def test_csv_reader_rejects_cone_violation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,n,value\n0,0,1.0\n1,3,0.5\n")
    with pytest.raises(FormatError, match="row 3.*light cone"):
        io.read_probability_csv(path)


def test_csv_reader_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,n,value\n0,0,1.0\n0,0,1.0\n")
    with pytest.raises(FormatError, match="duplicate"):
        io.read_probability_csv(path)


def test_csv_reader_rejects_denormalised_slice(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["t,n,value", "0,0,1.0", "1,-1,0.5", "1,1,0.5",
            "2,-2,0.25", "2,0,0.5", "2,2,0.25",
            "3,-3,0.25", "3,-1,0.25"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormatError, match="slice t=3"):
        io.read_probability_csv(path)


def test_json_reader_rejects_slice_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1, "slices": [[1.0], [1.0]]}))
    with pytest.raises(FormatError, match="slice t=1"):
        io.read_probability_json(path)


def test_schedule_round_trip_with_nulls(tmp_path):
    angles = [np.array([math.pi / 4]),
              np.array([math.nan, 1.0])]
    sched = CoinSchedule(angles)
    path = tmp_path / "coins.json"
    io.write_schedule_json(sched, path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "coin"
    assert {"t": 1, "n": -1, "value": None} in doc["entries"]
    back = io.read_schedule_json(path)
    assert isinstance(back, CoinSchedule)
    assert not back.is_defined(-1, 1)
    assert back.value(1, 1) == 1.0


def test_jump_schedule_kind_dispatch(tmp_path):
    sched = JumpSchedule([np.array([0.5])])
    path = tmp_path / "jumps.json"
    io.write_schedule_json(sched, path)
    assert isinstance(io.read_schedule_json(path), JumpSchedule)


def test_schedule_reader_rejects_off_support_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "horizon": 1, "kind": "jump",
        "entries": [{"t": 0, "n": 1, "value": 0.5}]}))
    with pytest.raises(FormatError, match="light cone"):
        io.read_schedule_json(path)


def test_complex_wavefield_json_round_trip(tmp_path):
    plus = [np.array([1 / math.sqrt(2)]), np.array([0.0, 0.5 + 0.5j])]
    minus = [np.array([1j / math.sqrt(2)]), np.array([math.sqrt(0.5), 0.0])]
    w = ComplexWaveField(plus, minus)
    path = tmp_path / "field.json"
    io.write_wavefield_json(w, path)
    back = io.read_wavefield_json(path)
    assert isinstance(back, ComplexWaveField)
    assert back.plus(1, 1) == 0.5 + 0.5j


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_readers_reject_non_finite_literals(tmp_path, literal):
    # Python's json module parses these by default.
    path = tmp_path / "bad.json"
    path.write_text(f'{{"horizon": 1, "slices": [[1.0], [{literal}, 1.0]]}}')
    with pytest.raises(FormatError, match=literal):
        io.read_probability_json(path)
    path.write_text('{"horizon": 1, "kind": "jump", "entries": '
                    f'[{{"t": 0, "n": 0, "value": {literal}}}]}}')
    with pytest.raises(FormatError, match=literal):
        io.read_schedule_json(path)


def test_schedule_reader_rejects_nan_at_defined_site(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "horizon": 1, "kind": "coin",
        "entries": [{"t": 0, "n": 0, "value": "nan"}]}))
    with pytest.raises(FormatError, match="outside"):
        io.read_schedule_json(path)


def _v1_schedule_doc(schedule):
    kind = "coin" if isinstance(schedule, CoinSchedule) else "jump"
    entries = [{"t": t, "n": 2 * k - t,
                "value": float(v[k]) if d[k] else None}
               for t, (v, d) in enumerate(zip(schedule.value_slices,
                                              schedule.defined_slices))
               for k in range(t + 1)]
    return {"schema_version": 1, "horizon": schedule.steps, "kind": kind,
            "entries": entries}


def _v1_field_doc(field, horizon):
    return {"schema_version": 1, "horizon": horizon,
            "slices": [[float(v) for v in s] for s in field.slices]}


@pytest.mark.parametrize("horizon", [0, 1, 7, 60])
def test_json_writers_are_byte_identical_to_json_dumps(tmp_path, horizon):
    rng = np.random.default_rng(horizon)
    values = [rng.uniform(0.0, 1.0, t + 1) for t in range(horizon)]
    for v in values:
        v[rng.random(v.size) < 0.3] = math.nan
        v[rng.random(v.size) < 0.1] = rng.choice([0.0, 1.0, 1e-5, 5e-324])
    path = tmp_path / "out.json"
    for sched in (JumpSchedule(values),
                  CoinSchedule([v * math.pi for v in values])):
        io.write_schedule_json(sched, path)
        assert path.read_text() == json.dumps(_v1_schedule_doc(sched)) + "\n"
    rho = uniform_target(horizon)
    io.write_field_json(rho, path)
    assert path.read_text() == json.dumps(_v1_field_doc(rho, horizon)) + "\n"
    flux = flux_from_rho(rho)
    io.write_flux_json(flux, path)
    assert path.read_text() == json.dumps(_v1_field_doc(flux, horizon)) + "\n"


def test_csv_writers_match_csv_module(tmp_path):
    rho = uniform_target(12)
    err = ScalarField([np.sqrt(s * (1 - s) / 7) for s in rho.slices])
    expected = io_module.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "n", "rho", "stderr"])
    for t, (r, e) in enumerate(zip(rho.slices, err.slices)):
        for k in range(t + 1):
            writer.writerow([t, 2 * k - t, repr(float(r[k])), repr(float(e[k]))])
    path = tmp_path / "mc.csv"
    io.write_mc_csv(rho, err, path)
    with open(path, newline="") as fh:
        assert fh.read() == expected.getvalue()


def test_csv_reader_reports_first_faulty_row(tmp_path):
    # Blank rows count in the numbering; the duplicate on row 5 comes before
    # the unparsable row 6 and is the one reported.
    path = tmp_path / "bad.csv"
    path.write_text("t,n,value\n0,0,1.0\n\n1,-1,0.5\n0,0,1.0\n1,x,0.5\n")
    with pytest.raises(FormatError, match=r"row 5: duplicate"):
        io.read_probability_csv(path)
    path.write_text("t,n,value\n0,0,1.0\n\n1,-1,0.5\n1,1\n1,3,0.5\n")
    with pytest.raises(FormatError, match=r"row 5: expected 3 columns, got 2"):
        io.read_probability_csv(path)


def test_schedule_reader_reports_first_faulty_entry(tmp_path):
    path = tmp_path / "bad.json"
    entries = [{"t": 0, "n": 0, "value": 0.5}, {"t": 1, "n": 1},
               {"t": 1, "n": 1}, {"t": "x", "n": 0}]
    path.write_text(json.dumps({"horizon": 2, "kind": "jump",
                                "entries": entries}))
    with pytest.raises(FormatError, match=r"duplicate schedule entry for \(n=1, t=1\)"):
        io.read_schedule_json(path)
    path.write_text(json.dumps({"horizon": 2, "kind": "jump",
                                "entries": entries[:2] + entries[3:]}))
    with pytest.raises(FormatError, match="malformed schedule entry"):
        io.read_schedule_json(path)
