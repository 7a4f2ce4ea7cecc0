"""Delimited text input and output.

Numeric matrices come in and go out as delimited text.  Written floats
use 17 significant digits, enough to reconstruct every float64 exactly,
so a save/load round trip is lossless.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError

#: Shortest format that round-trips double precision exactly.
FLOAT_FORMAT = ".17g"


@dataclass
class Dataset:
    X: np.ndarray
    labels: Optional[np.ndarray] = None        # int codes, first appearance order
    label_names: Optional[list] = None         # code -> original string
    feature_names: Optional[list] = None


def _read_rows(path, delimiter: str) -> list:
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle, delimiter=delimiter)
                    if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path} contains no data")
    return rows


def load_csv(path, delimiter: str = ",", header: bool = True,
             label=None) -> Dataset:
    """Load a delimited numeric table, optionally splitting off a label column.

    ``label`` may be a column name (requires a header) or an integer
    index.  Label values are mapped to integer codes in order of first
    appearance and the original strings are kept in ``label_names``.

    Raises
    ------
    DataError
        On unreadable or empty files, ragged rows, or non-numeric or
        non-finite cells (``nan``, ``inf``), with the offending line and
        column named in the message.
    """
    rows = _read_rows(path, delimiter)
    if header:
        names = [cell.strip() for cell in rows[0]]
        body = rows[1:]
        first_line = 2
        if not body:
            raise DataError(f"{path} has a header but no data rows")
    else:
        names = [f"c{j}" for j in range(len(rows[0]))]
        body = rows
        first_line = 1

    width = len(names)
    label_idx = None
    if label is not None:
        if isinstance(label, str):
            if not header:
                raise ParameterError("label column by name requires a header")
            if label not in names:
                raise DataError(f"{path} has no column named {label!r}")
            label_idx = names.index(label)
        else:
            label_idx = int(label)
            if not (0 <= label_idx < width):
                raise DataError(
                    f"label column {label_idx} out of range for {width} columns")
    feature_cols = [j for j in range(width) if j != label_idx]
    if not feature_cols:
        raise DataError(f"{path} has no numeric columns besides the label")

    X = np.empty((len(body), len(feature_cols)), dtype=np.float64)
    raw_labels = []
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"{path} line {first_line + i}: expected {width} fields, got {len(row)}")
        # float() ignores the whitespace around a number, as strip() would.
        cells = row if label_idx is None else row[:label_idx] + row[label_idx + 1:]
        try:
            X[i] = list(map(float, cells))
        except ValueError:
            for j in feature_cols:
                cell = row[j].strip()
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path} line {first_line + i}, column {names[j]!r}: "
                        f"non-numeric value {cell!r}") from None
            raise
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0][0], feature_cols[bad[0][1]]
        raise DataError(f"{path} line {first_line + i}, column {names[j]!r}: "
                        f"non-finite value {body[i][j].strip()!r}")

    labels = None
    label_names = None
    if label_idx is not None:
        label_names = []
        seen = {}
        codes = np.empty(len(raw_labels), dtype=np.int64)
        for i, value in enumerate(raw_labels):
            if value not in seen:
                seen[value] = len(label_names)
                label_names.append(value)
            codes[i] = seen[value]
        labels = codes
    return Dataset(X, labels, label_names,
                   [names[j] for j in feature_cols])


def save_embedding(path, Z, labels=None, label_names=None,
                   delimiter: str = ",") -> None:
    """Write embedding coordinates as delimited text with a header.

    Columns are named z1..zq plus a trailing ``label`` column when
    labels are given.  Floats keep full precision, so loading the file
    back reproduces Z exactly.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ParameterError(f"Z must be 2-D, got ndim={Z.ndim}")
    n, q = Z.shape
    if labels is not None and len(labels) != n:
        raise ParameterError(f"got {len(labels)} labels for {n} rows")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        head = [f"z{j + 1}" for j in range(q)]
        if labels is not None:
            head.append("label")
        writer.writerow(head)
        for i in range(n):
            row = [format(v, FLOAT_FORMAT) for v in Z[i]]
            if labels is not None:
                code = labels[i]
                row.append(str(label_names[code]) if label_names is not None else str(code))
            writer.writerow(row)


def load_embedding(path, delimiter: str = ",") -> Dataset:
    """Load a file written by :func:`save_embedding`.

    The trailing label column is picked up automatically when present.
    """
    rows = _read_rows(path, delimiter)
    names = [cell.strip() for cell in rows[0]]
    label = "label" if "label" in names else None
    return load_csv(path, delimiter=delimiter, header=True, label=label)
