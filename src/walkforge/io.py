"""CSV and JSON serialization of fields and schedules.

Single-valued fields use the line-oriented CSV form ``t,n,value`` (one row
per on-support point).  Fields and schedules share one JSON form, the slice
table ``{"schema_version": 2, "horizon": ..., "slices": [[...], ...]}``:
a field has slices t = 0..T, a schedule (which also names its ``kind``,
coin or jump) has slices t = 0..S-1 with ``null`` at undefined sites.

Readers reject parity and cone violations, duplicated rows, slices of the
wrong length and table entries that are not JSON numbers; on-support points
missing from a CSV file are taken to be zero.
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from itertools import compress
from operator import itemgetter

import numpy as np

from .lattice import (
    CoinSchedule,
    FormatError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    SupportError,
    from_storage_index,
    slice_offset,
    to_storage_index,
)

SCHEMA_VERSION = 2


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


_PARSE_ERRORS = (TypeError, ValueError, OverflowError)


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


def _check_sites(t, n, lineno) -> np.ndarray:
    """Flat slice-order index t(t+1)/2 + k of each site (t, n).

    Raises :class:`FormatError` for the first site that is off-support or a
    repeat of an earlier site, naming its row ``lineno[i]``.
    """
    flat = slice_offset(t) + (n + t) // 2
    repeated = np.ones(len(flat), dtype=bool)
    repeated[np.unique(flat, return_index=True)[1]] = False
    bad = (t < 0) | (np.abs(n) > t) | ((n + t) % 2 != 0) | repeated
    if bad.any():
        i = int(np.argmax(bad))
        ti, ni = int(t[i]), int(n[i])
        try:
            to_storage_index(ni, ti)
        except SupportError as exc:
            raise FormatError(f"row {lineno[i]}: {exc}") from None
        raise FormatError(f"row {lineno[i]}: duplicate entry for "
                          f"(n={ni}, t={ti})")
    return flat


def _read_csv_buffer(path) -> np.ndarray:
    """The slice-order buffer of a t,n,value CSV file; missing sites are 0.

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
    flat = _check_sites(t, n, lineno)
    if exc is not None:
        raise FormatError(f"row {lineno[m]}: {exc}")
    horizon = int(t.max())
    out = np.zeros(slice_offset(horizon + 1))
    out[flat] = vals
    return out


def _build(path, cls, data, **kwargs):
    """``cls(data, **kwargs)``; a FormatError it raises names ``path``."""
    try:
        return cls(data, **kwargs)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_probability_csv(path) -> ProbabilitySequence:
    return _build(path, ProbabilitySequence, _read_csv_buffer(path),
                  accept_tol=1e-9, renormalize=True)


def _write_json(path, head: dict, slices) -> None:
    """Write ``{"schema_version": 2, **head, "slices": [...]}`` byte for byte
    as ``json.dump`` would, plus a newline, with NaN written as ``null``.

    Each slice is encoded with ``json.dumps``, which uses the C encoder
    (``json.dump`` never does); the document is never one string in memory.
    Stored values other than a schedule's undefined sites are finite, so
    every ``NaN`` token is one of those.
    """
    with _open_write(path) as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, **head,
                             "slices": []})[:-2])
        for t, s in enumerate(slices):
            text = json.dumps(s.tolist()).replace("NaN", "null")
            fh.write(", " + text if t else text)
        fh.write("]}\n")


def write_field_json(field, path) -> None:
    _write_json(path, {"horizon": len(field.slices) - 1}, field.slices)


def _reject_constant(name):
    raise FormatError(f"non-finite number {name}")


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, FormatError) as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from None


def _json_slices(doc, path, *, schedule=False):
    """The slices of a slice-table document, as lists of JSON numbers.

    A field has horizon + 1 slices of JSON numbers; a schedule has horizon
    slices, in which ``null`` marks an undefined site and is read as NaN.
    """
    try:
        horizon = doc["horizon"]
        slices = doc["slices"]
        if not all(isinstance(s, list) for s in slices):
            raise TypeError("slices is not a list of lists")
    except (KeyError, TypeError) as exc:
        raise FormatError(
            f"{path}: missing or malformed slice table: {exc}") from None
    if type(horizon) is not int or horizon < 0:  # bool is not int here
        raise FormatError(f"{path}: horizon must be a JSON integer >= 0, "
                          f"got {json.dumps(horizon)}")
    if len(slices) != (horizon if schedule else horizon + 1):
        raise FormatError(
            f"{path}: horizon {horizon} but {len(slices)} slices present")
    allowed = {int, float, type(None)} if schedule else {int, float}
    for t, s in enumerate(slices):
        if len(s) != t + 1:
            raise FormatError(
                f"{path}: slice t={t} has {len(s)} entries, expected {t + 1}")
        if not allowed.issuperset(map(type, s)):
            k = next(k for k, v in enumerate(s) if type(v) not in allowed)
            raise FormatError(f"{path}: {s[k]!r} at "
                              f"(n={from_storage_index(k, t)}, t={t}) "
                              "is not a number")
    return slices


def read_probability_json(path) -> ProbabilitySequence:
    return _build(path, ProbabilitySequence,
                  _json_slices(_load_json(path), path),
                  accept_tol=1e-9, renormalize=True)


def write_schedule_json(schedule, path) -> None:
    kind = "coin" if isinstance(schedule, CoinSchedule) else "jump"
    _write_json(path, {"horizon": schedule.steps, "kind": kind},
                schedule.value_slices)


def read_schedule_json(path):
    doc = _load_json(path)
    if isinstance(doc, dict) and "entries" in doc:
        raise FormatError(
            f"{path}: v1 schedule (one entry per site) is no longer read; "
            "re-run walkforge synth to write it as a schema 2 slice table")
    values = _json_slices(doc, path, schedule=True)
    kind = doc.get("kind")
    if kind not in ("coin", "jump"):
        raise FormatError(f"{path}: unknown schedule kind {kind!r}")
    return _build(path, CoinSchedule if kind == "coin" else JumpSchedule,
                  values)


def write_mc_csv(rho: ProbabilitySequence, stderr: ScalarField, path) -> None:
    """Monte Carlo output: ``t,n,rho,stderr`` rows."""
    _write_csv(path, ("t", "n", "rho", "stderr"), rho, stderr)
