import csv
import io as io_module
import json
import math

import numpy as np
import pytest

from walkforge import io
from walkforge.lattice import (
    CoinSchedule,
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
    assert doc["schema_version"] == 2 and doc["kind"] == "coin"
    assert doc["slices"] == [[math.pi / 4], [None, 1.0]]
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
    # A slice table has no off-support cells: an extra value makes a slice
    # too long, and a schedule holds one slice per step, not horizon + 1.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1, "kind": "jump",
                                "slices": [[0.5, 0.5]]}))
    with pytest.raises(FormatError, match="slice t=0 has 2 entries, expected 1"):
        io.read_schedule_json(path)
    path.write_text(json.dumps({"horizon": 1, "kind": "jump",
                                "slices": [[0.5], [0.5, 0.5]]}))
    with pytest.raises(FormatError, match="horizon 1 but 2 slices"):
        io.read_schedule_json(path)


def test_schedule_reader_rejects_v1_documents(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
        "schema_version": 1, "horizon": 1, "kind": "jump",
        "entries": [{"t": 0, "n": 0, "value": 0.5}]}))
    with pytest.raises(FormatError, match="v1 schedule.*re-run walkforge synth"):
        io.read_schedule_json(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_readers_reject_non_finite_literals(tmp_path, literal):
    # Python's json module parses these by default.
    path = tmp_path / "bad.json"
    path.write_text(f'{{"horizon": 1, "slices": [[1.0], [{literal}, 1.0]]}}')
    with pytest.raises(FormatError, match=literal):
        io.read_probability_json(path)
    path.write_text(
        f'{{"horizon": 2, "kind": "jump", "slices": [[0.5], [null, {literal}]]}}')
    with pytest.raises(FormatError, match=literal):
        io.read_schedule_json(path)


def test_schedule_reader_rejects_nan_at_defined_site(tmp_path):
    # null is the only spelling of an undefined site; the string "nan" is
    # not a number.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1, "kind": "coin",
                                "slices": [["nan"]]}))
    with pytest.raises(FormatError, match=r"'nan' at \(n=0, t=0\) is not a number"):
        io.read_schedule_json(path)


@pytest.mark.parametrize("value", ["0.5", True, [0.5], {"v": 0.5}])
@pytest.mark.parametrize("reader, doc", [
    (io.read_probability_json, {"horizon": 1, "slices": [[1.0], [0.5, None]]}),
    (io.read_schedule_json,
     {"horizon": 2, "kind": "jump", "slices": [[0.5], [0.5, None]]}),
], ids=["field", "schedule"])
def test_json_readers_accept_numbers_only(tmp_path, reader, doc, value):
    # json.load turns these into str, bool, list and dict, all of which
    # np.array(..., dtype=float) would convert or choke on.
    path = tmp_path / "bad.json"
    doc["slices"][1][1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=r"at \(n=1, t=1\) is not a number"):
        reader(path)


@pytest.mark.parametrize("text, message", [
    ('{"horizon": 1, "slices": [1.0, [0.5, 0.5]]}', "not a list of lists"),
    ('{"horizon": 0, "slices": [[1%s]]}' % ("0" * 400), "too large"),
])
def test_json_reader_rejects_malformed_tables(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        io.read_probability_json(path)


def test_field_reader_rejects_null(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"horizon": 1, "slices": [[1.0], [None, 1.0]]}))
    with pytest.raises(FormatError, match=r"None at \(n=-1, t=1\)"):
        io.read_probability_json(path)


def _random_schedules(horizon):
    """A jump and a coin schedule with undefined sites and edge values."""
    rng = np.random.default_rng(horizon)
    values = [rng.uniform(0.0, 1.0, t + 1) for t in range(horizon)]
    for v in values:
        v[rng.random(v.size) < 0.3] = math.nan
        v[rng.random(v.size) < 0.1] = rng.choice([0.0, 1.0, 1e-5, 5e-324])
    return JumpSchedule(values), CoinSchedule([v * math.pi for v in values])


def _slice_table_doc(head, slices):
    return {"schema_version": 2, **head,
            "slices": [[None if math.isnan(v) else float(v) for v in s]
                       for s in slices]}


@pytest.mark.parametrize("horizon", [0, 1, 7, 60])
def test_json_writers_are_byte_identical_to_json_dumps(tmp_path, horizon):
    path = tmp_path / "out.json"
    for sched, kind in zip(_random_schedules(horizon), ("jump", "coin")):
        io.write_schedule_json(sched, path)
        doc = _slice_table_doc({"horizon": horizon, "kind": kind},
                               sched.value_slices)
        assert path.read_text() == json.dumps(doc) + "\n"
    rho = uniform_target(horizon)
    io.write_field_json(rho, path)
    doc = _slice_table_doc({"horizon": horizon}, rho.slices)
    assert path.read_text() == json.dumps(doc) + "\n"


@pytest.mark.parametrize("horizon", [1, 60, 300])
def test_schedules_round_trip_bit_identically(tmp_path, horizon):
    path = tmp_path / "out.json"
    for sched in _random_schedules(horizon):
        io.write_schedule_json(sched, path)
        back = io.read_schedule_json(path)
        assert type(back) is type(sched) and back.steps == horizon
        for v, b, d, e in zip(sched.value_slices, back.value_slices,
                              sched.defined_slices, back.defined_slices):
            assert np.array_equal(d, e)
            assert np.array_equal(v.view(np.int64), b.view(np.int64))


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
    # Slices are checked in order, each for its length and then its values:
    # the first faulty slice is reported, and its first faulty value.
    path = tmp_path / "bad.json"
    slices = [[0.5], [None, "x", "y"], [0.5, "z", 0.5]]
    path.write_text(json.dumps({"horizon": 3, "kind": "jump",
                                "slices": slices}))
    with pytest.raises(FormatError, match="slice t=1 has 3 entries"):
        io.read_schedule_json(path)
    slices[1].pop()
    path.write_text(json.dumps({"horizon": 3, "kind": "jump",
                                "slices": slices}))
    with pytest.raises(FormatError, match=r"'x' at \(n=1, t=1\)"):
        io.read_schedule_json(path)
    slices[1][1] = 0.5
    path.write_text(json.dumps({"horizon": 3, "kind": "jump",
                                "slices": slices}))
    with pytest.raises(FormatError, match=r"'z' at \(n=0, t=2\)"):
        io.read_schedule_json(path)
