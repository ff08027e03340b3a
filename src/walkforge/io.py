"""CSV and JSON serialization of fields and schedules.

Single-valued fields use the line-oriented CSV form ``t,n,value`` (one row
per on-support point) and the structured JSON form
``{"horizon": T, "slices": [[...], ...]}``.  Wave fields serialize to JSON
only, with one slice table per chiral component (complex entries become
``[re, im]`` pairs).  Schedules serialize to JSON with explicit ``null`` for
undefined sites.

Readers reject parity and cone violations, duplicated rows, and slices of
the wrong length; on-support points missing from a CSV file are taken to be
zero.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from itertools import compress, repeat
from operator import is_not, itemgetter, methodcaller

import numpy as np

from .lattice import (
    CoinSchedule,
    ComplexWaveField,
    FluxField,
    FormatError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    WaveField,
    to_storage_index,
    SupportError,
)

SCHEMA_VERSION = 1


def _open_write(path):
    """Open ``path`` for writing; an already open text stream is used as is
    and left open."""
    if hasattr(path, "write"):
        return nullcontext(path)
    return open(path, "w", newline="")


def _write_csv(path, header, *fields) -> None:
    """``t,n,...`` rows, one value column per field, in (t, n) order, byte
    for byte as ``csv.writer`` writes the ``repr`` of each value."""
    with _open_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for t, cols in enumerate(zip(*(f.slices for f in fields))):
            row = f"{t},%d" + ",%s" * len(cols) + "\r\n"
            fh.write("".join(map(row.__mod__, zip(
                range(-t, t + 1, 2), *(map(repr, c.tolist()) for c in cols)))))


def write_field_csv(field, path) -> None:
    """Write a single-valued field as ``t,n,value`` rows in (t, n) order."""
    _write_csv(path, ("t", "n", "value"), field)


def _csv_columns(rows):
    """The int64 t, int64 n and float value columns of ``t,n,value`` rows."""
    width = np.fromiter(map(len, rows), np.int64, len(rows))
    if (width != 3).any():
        raise ValueError(f"expected 3 columns, got {width[width != 3][0]}")
    return tuple(
        np.fromiter(map(conv, map(itemgetter(col), rows)), dtype, len(rows))
        for col, conv, dtype in ((0, int, np.int64), (1, int, np.int64),
                                 (2, float, float)))


_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _parse_prefix(items, columns):
    """``columns(items[:m])`` for the longest prefix it accepts, m, and the
    error it raises on ``items[m]`` (None when m = len(items)).

    A bulk conversion reports no position when it fails, so only then are
    the items tried one at a time to find the first bad one.
    """
    try:
        return columns(items), len(items), None
    except _PARSE_ERRORS:
        for m, item in enumerate(items):
            try:
                columns([item])
            except _PARSE_ERRORS as exc:
                return columns(items[:m]), m, exc
        raise


def _check_sites(t, n, where, duplicate: str, steps=None) -> np.ndarray:
    """Flat slice-order index t(t+1)/2 + k of each site (t, n).

    Raises :class:`FormatError` for the first site that is off-support,
    outside ``0 <= t < steps`` (when given) or a repeat of an earlier site;
    ``where(i)`` prefixes the message for site i.
    """
    flat = t * (t + 1) // 2 + (n + t) // 2
    repeated = np.ones(len(flat), dtype=bool)
    repeated[np.unique(flat, return_index=True)[1]] = False
    bad = (t < 0) | (np.abs(n) > t) | ((n + t) % 2 != 0) | repeated
    if steps is not None:
        bad |= t >= steps
    if bad.any():
        i = int(np.argmax(bad))
        ti, ni = int(t[i]), int(n[i])
        if steps is not None and not 0 <= ti < steps:
            raise FormatError(
                f"{where(i)}entry at t={ti} outside horizon {steps}")
        try:
            to_storage_index(ni, ti)
        except SupportError as exc:
            raise FormatError(f"{where(i)}{exc}") from None
        raise FormatError(f"{where(i)}{duplicate} for (n={ni}, t={ti})")
    return flat


def _unpack(flat, steps):
    """Split a slice-order array into its slices t = 0..steps-1."""
    return [flat[t * (t + 1) // 2:(t + 1) * (t + 2) // 2] for t in range(steps)]


def _read_csv_slices(path):
    """Collect the slices of a t,n,value CSV file; missing sites are zero.

    Rows are numbered as csv.reader counts them (the header is row 1 and
    blank rows count); of several faults, the first row's is reported.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    width = np.fromiter(map(len, rows), np.int64, len(rows))[1:]
    lineno = np.flatnonzero(width) + 2
    rows = list(compress(rows[1:], width))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    (t, n, vals), m, exc = _parse_prefix(rows, _csv_columns)
    flat = _check_sites(t, n, lambda i: f"row {lineno[i]}: ", "duplicate entry")
    if exc is not None:
        raise FormatError(f"row {lineno[m]}: {exc}")
    horizon = int(t.max())
    out = np.zeros((horizon + 1) * (horizon + 2) // 2)
    out[flat] = vals
    return _unpack(out, horizon + 1)


def read_probability_csv(path) -> ProbabilitySequence:
    slices = _read_csv_slices(path)
    try:
        return ProbabilitySequence(slices, accept_tol=1e-9, renormalize=True)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _write_json(path, head: dict, key: str, runs) -> None:
    """Write ``{**head, key: [...]}`` byte for byte as ``json.dump`` would,
    plus a newline; ``runs`` yields the list's elements as JSON text, several
    to a run, joined by ", ".

    Callers encode each run with ``json.dumps``, which uses the C encoder
    (``json.dump`` never does); the document is never one string in memory.
    """
    with _open_write(path) as fh:
        fh.write(json.dumps({**head, key: []})[:-2])
        for i, text in enumerate(runs):
            fh.write(", " + text if i else text)
        fh.write("]}\n")


def write_field_json(field, path) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION,
                       "horizon": len(field.slices) - 1},
                "slices", (json.dumps(s.tolist()) for s in field.slices))


def _reject_constant(name):
    raise FormatError(f"non-finite number {name}")


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, FormatError) as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None


def _json_slices(doc, path):
    try:
        horizon = int(doc["horizon"])
        slices = doc["slices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed field document: {exc}") from None
    if len(slices) != horizon + 1:
        raise FormatError(
            f"{path}: horizon {horizon} but {len(slices)} slices present")
    for t, s in enumerate(slices):
        if len(s) != t + 1:
            raise FormatError(
                f"{path}: slice t={t} has {len(s)} entries, expected {t + 1}")
    return slices


def read_probability_json(path) -> ProbabilitySequence:
    slices = _json_slices(_load_json(path), path)
    try:
        return ProbabilitySequence(slices, accept_tol=1e-9, renormalize=True)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_flux_json(flux: FluxField, path) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION, "horizon": flux.steps},
                "slices", (json.dumps(s.tolist()) for s in flux.slices))


def _wave_payload(w):
    if isinstance(w, ComplexWaveField):
        conv = lambda v: [v.real, v.imag]
        kind = "complex"
    else:
        conv = float
        kind = "real"
    return {
        "schema_version": SCHEMA_VERSION,
        "horizon": w.horizon,
        "kind": kind,
        "plus": [[conv(v) for v in s] for s in w.plus_slices],
        "minus": [[conv(v) for v in s] for s in w.minus_slices],
    }


def write_wavefield_json(w, path) -> None:
    with _open_write(path) as fh:
        json.dump(_wave_payload(w), fh)
        fh.write("\n")


def read_wavefield_json(path):
    doc = _load_json(path)
    kind = doc.get("kind", "real")
    if kind == "complex":
        conv = lambda v: complex(v[0], v[1])
        cls = ComplexWaveField
    else:
        conv = float
        cls = WaveField
    plus = [[conv(v) for v in s] for s in doc["plus"]]
    minus = [[conv(v) for v in s] for s in doc["minus"]]
    return cls(plus, minus)


def _schedule_entries(t: int, values: np.ndarray) -> str:
    """The v1 entries of schedule slice t as JSON text, in site order.

    Undefined sites hold NaN, which json.dumps spells ``NaN``; defined
    values are finite, so every ``NaN`` token becomes ``null``.
    """
    vals = json.dumps(values.tolist()).replace("NaN", "null")[1:-1]
    entry = '{"t": %d, "n": %%d, "value": %%s}' % t
    return ", ".join(map(entry.__mod__,
                         zip(range(-t, t + 1, 2), vals.split(", "))))


def write_schedule_json(schedule, path) -> None:
    kind = "coin" if isinstance(schedule, CoinSchedule) else "jump"
    _write_json(path, {"schema_version": SCHEMA_VERSION,
                       "horizon": schedule.steps, "kind": kind},
                "entries", (_schedule_entries(t, v) for t, v
                            in enumerate(schedule.value_slices)))


def _entry_columns(entries):
    """The int64 t and n columns of v1 schedule entries."""
    return tuple(
        np.fromiter(map(int, map(itemgetter(key), entries)), np.int64,
                    len(entries))
        for key in ("t", "n"))


def read_schedule_json(path):
    doc = _load_json(path)
    try:
        steps = int(doc["horizon"])
        kind = doc["kind"]
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed schedule document: {exc}") from None
    if kind not in ("coin", "jump"):
        raise FormatError(f"{path}: unknown schedule kind {kind!r}")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: malformed schedule document: entries "
                          "is not a list")
    (t, n), m, exc = _parse_prefix(entries, _entry_columns)
    flat = _check_sites(t, n, lambda i: f"{path}: ",
                        "duplicate schedule entry", steps)
    if exc is not None:
        raise FormatError(f"{path}: malformed schedule entry {entries[m]!r}")
    given = list(map(methodcaller("get", "value"), entries))
    present = np.fromiter(map(is_not, given, repeat(None)), bool, m)
    try:
        vals = np.fromiter(map(float, compress(given, present)), float,
                           int(present.sum()))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed schedule value: {exc}") from None
    defined = flat[present]
    size = max(steps, 0) * (steps + 1) // 2
    values = np.full(size, math.nan)
    values[defined] = vals
    mask = np.zeros(size, dtype=bool)
    mask[defined] = True
    cls = CoinSchedule if kind == "coin" else JumpSchedule
    return cls(_unpack(values, steps), _unpack(mask, steps))


def write_mc_csv(rho: ProbabilitySequence, stderr: ScalarField, path) -> None:
    """Monte Carlo output: ``t,n,rho,stderr`` rows."""
    _write_csv(path, ("t", "n", "rho", "stderr"), rho, stderr)
