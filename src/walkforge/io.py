"""CSV and JSON serialization of fields and schedules.

Single-valued fields use the line-oriented CSV form ``t,n,value`` (one row
per on-support point).  Fields and schedules share one JSON form, the slice
table ``{"schema_version": 2, "horizon": ..., "slices": [[...], ...]}``:
a field has slices t = 0..T, a schedule (which also names its ``kind``,
coin or jump) has slices t = 0..S-1 with ``null`` at undefined sites.

Readers reject parity and cone violations, duplicated rows, slices of the
wrong length and table entries that are not JSON numbers; on-support points
missing from a CSV file are taken to be zero, but each slice needs a row.
Files are read as UTF-8.  Each public reader adds the path to its errors in
one place, :func:`_reading`; the CSV reader also names the row.
"""

from __future__ import annotations

import csv
import json
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from .lattice import (
    CoinSchedule,
    FormatError,
    InfeasibleTargetError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    from_storage_index,
    slice_offset,
    to_storage_index,
)

SCHEMA_VERSION = 2


def open_write(path):
    """Open ``path`` for writing; an already open text stream is used as is
    and left open."""
    if hasattr(path, "write"):
        return nullcontext(path)
    return open(path, "w", newline="")


def _write_csv(path, header, *fields) -> None:
    """``t,n,...`` rows, one value column per field, in (t, n) order, byte
    for byte as ``csv.writer`` writes the ``repr`` of each value."""
    with open_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for t, cols in enumerate(zip(*(f.slices for f in fields))):
            row = f"{t},%d" + ",%s" * len(cols) + "\r\n"
            fh.write("".join(map(row.__mod__, zip(
                range(-t, t + 1, 2), *(map(repr, c.tolist()) for c in cols)))))


def write_field_csv(field, path) -> None:
    """Write a single-valued field as ``t,n,value`` rows in (t, n) order."""
    _write_csv(path, ("t", "n", "value"), field)


_PARSE_ERRORS = (TypeError, ValueError, OverflowError)


def _flat_sites(t, n) -> tuple[np.ndarray, np.ndarray]:
    """Flat slice-order index t(t+1)/2 + k of each site (t, n), and where
    a site is off-support or a repeat of an earlier site."""
    flat = slice_offset(t) + (n + t) // 2
    repeated = np.ones(len(flat), dtype=bool)
    # return_index keeps np.unique on its sort: without it numpy 2.4 hashes,
    # 1.3-1.6 s against 17-21 ms for the sites of a T = 2000 file.
    repeated[np.unique(flat, return_index=True)[1]] = False
    return flat, (t < 0) | (n > t) | (n < -t) | ((n + t) % 2 != 0) | repeated


def _int64(text) -> int:
    """``int(text)``, which must fit in an int64, as in np.loadtxt."""
    if not -2 ** 63 <= (i := int(text)) < 2 ** 63:
        raise OverflowError("Python int too large to convert to C long")
    return i


def _parse_csv(path):
    """The t column, flat site indices and values of a t,n,value CSV file.
    Each row is checked in turn for its width, then its t, n and value, its
    site and a repeat, so the first faulty row is reported.  Rows are
    numbered as csv.reader counts them: the header is row 1, blanks count."""
    t_col, flat_col, values, seen = [], [], [], set()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = enumerate(csv.reader(fh), 1)
        if next(rows, None) is None:
            raise FormatError("empty file")
        for lineno, row in rows:
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 columns, got {len(row)}")
                t, n, value = _int64(row[0]), _int64(row[1]), float(row[2])
                flat = slice_offset(t) + to_storage_index(n, t)
                if flat in seen:
                    raise ValueError(f"duplicate entry for (n={n}, t={t})")
            except _PARSE_ERRORS as exc:
                raise FormatError(f"row {lineno}: {exc}") from None
            seen.add(flat)
            t_col.append(t)
            flat_col.append(flat)
            values.append(value)
    if not seen:
        raise FormatError("no data rows")
    return np.array(t_col, np.int64), flat_col, np.array(values)


# The bytes of a file that np.loadtxt reads as _parse_csv does: ASCII but
# NUL and the quote, which csv.reader treats specially, and \x1c-\x1f, which
# np.loadtxt alone strips as whitespace.  It reads some non-ASCII letters as
# digits.
_PLAIN_BYTES = bytes(set(range(128)) - set(b'\0\x1c\x1d\x1e\x1f"'))

_CSV_DTYPE = np.dtype([("t", np.int64), ("n", np.int64), ("value", float)])


def _load_csv(path):
    """What :func:`_parse_csv` returns, parsed in bulk by np.loadtxt, or None
    where that may differ: the file holds other than plain bytes, or the
    bulk parse fails, finds no rows or a fault among the sites, which
    _parse_csv then reports with its row."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
    with open(path, newline="") as fh:
        fh.readline()  # the header
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no rows: a UserWarning
                cols = np.loadtxt(fh, _CSV_DTYPE, delimiter=",",
                                  comments=None, quotechar=None, ndmin=1)
        except (*_PARSE_ERRORS, Warning):
            return None
    flat, bad = _flat_sites(cols["t"], cols["n"])
    return None if bad.any() else (cols["t"], flat, cols["value"])


def _read_csv_buffer(path) -> np.ndarray:
    """The slice-order buffer of a t,n,value CSV file; missing sites are 0."""
    t, flat, vals = _load_csv(path) or _parse_csv(path)
    # Every t >= 0 here.  A slice without rows is named before the buffer,
    # sized by the largest t, is allocated.
    present = np.unique(t)
    if len(present) <= present[-1]:
        gap = int(np.argmin(present == np.arange(len(present))))
        raise FormatError(f"slice t={gap} has no rows")
    out = np.zeros(slice_offset(int(present[-1]) + 1))
    out[flat] = vals
    return out


@contextmanager
def _reading(path):
    """Prefix ``path`` to each read error raised inside, as a FormatError;
    an InfeasibleTargetError keeps its type and site."""
    try:
        yield
    except InfeasibleTargetError as exc:
        raise InfeasibleTargetError(f"{path}: {exc}", exc.n, exc.t) from None
    except (FormatError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_probability_csv(path) -> ProbabilitySequence:
    with _reading(path):
        return ProbabilitySequence(_read_csv_buffer(path), renormalize=True)


def _write_json(path, head: dict, slices) -> None:
    """Write ``{"schema_version": 2, **head, "slices": [...]}`` byte for byte
    as ``json.dump`` would, plus a newline, with NaN written as ``null``.

    Each slice is encoded with ``json.dumps``, which uses the C encoder
    (``json.dump`` never does); the document is never one string in memory.
    Stored values other than a schedule's undefined sites are finite, so
    every ``NaN`` token is one of those.
    """
    with open_write(path) as fh:
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
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (json.JSONDecodeError, RecursionError, FormatError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from None


def _json_slices(doc, *, schedule=False):
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
        raise FormatError(f"missing or malformed slice table: {exc}") from None
    if type(horizon) is not int or horizon < 0:  # bool is not int here
        raise FormatError(f"horizon must be a JSON integer >= 0, "
                          f"got {json.dumps(horizon)}")
    if len(slices) != (horizon if schedule else horizon + 1):
        raise FormatError(f"horizon {horizon} but {len(slices)} slices present")
    allowed = {int, float, type(None)} if schedule else {int, float}
    for t, s in enumerate(slices):
        if len(s) != t + 1:
            raise FormatError(
                f"slice t={t} has {len(s)} entries, expected {t + 1}")
        if not allowed.issuperset(map(type, s)):
            k = next(k for k, v in enumerate(s) if type(v) not in allowed)
            raise FormatError(f"{s[k]!r} at (n={from_storage_index(k, t)}, "
                              f"t={t}) is not a number")
    return slices


def read_probability_json(path) -> ProbabilitySequence:
    with _reading(path):
        return ProbabilitySequence(_json_slices(_load_json(path)),
                                   renormalize=True)


def write_schedule_json(schedule, path) -> None:
    kind = "coin" if isinstance(schedule, CoinSchedule) else "jump"
    _write_json(path, {"horizon": schedule.steps, "kind": kind},
                schedule.value_slices)


def read_schedule_json(path):
    with _reading(path):
        doc = _load_json(path)
        if isinstance(doc, dict) and "entries" in doc:
            raise FormatError(
                "v1 schedule (one entry per site) is no longer read; re-run "
                "walkforge synth to write it as a schema 2 slice table")
        values = _json_slices(doc, schedule=True)
        kind = doc.get("kind")
        if kind not in ("coin", "jump"):
            raise FormatError(f"unknown schedule kind {kind!r}")
        return (CoinSchedule if kind == "coin" else JumpSchedule)(values)


def write_mc_csv(rho: ProbabilitySequence, stderr: ScalarField, path) -> None:
    """Monte Carlo output: ``t,n,rho,stderr`` rows."""
    _write_csv(path, ("t", "n", "rho", "stderr"), rho, stderr)
