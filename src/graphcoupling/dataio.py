"""Delimited text input and output.

Numeric matrices come in and go out as delimited text.  Written floats
use 17 significant digits, enough to reconstruct every float64 exactly,
so a save/load round trip is lossless.  A plain table is read line by
line from the open file, so loading holds the parsed numbers and no
copy of the text.
"""

import csv
import io
import itertools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError

#: Shortest format that round-trips double precision exactly.
FLOAT_FORMAT = ".17g"

#: Bytes read at a time while :func:`load_csv` looks for quotes and NULs.
SCAN_BYTES = 1 << 16


@dataclass
class Dataset:
    X: np.ndarray
    labels: Optional[np.ndarray] = None        # int codes, first appearance order
    label_names: Optional[list] = None         # code -> original string
    feature_names: Optional[list] = None


def _read_rows(path, delimiter: str, limit: int = None) -> list:
    """The file's non-blank ``csv`` rows, only the first ``limit`` if given."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            rows = list(itertools.islice(
                (row for row in csv.reader(handle, delimiter=delimiter)
                 if any(cell.strip() for cell in row)), limit))
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

    numpy's C parser reads the table when it can (see
    :func:`_parse_with_numpy`); every input it refuses goes through a
    walk of the ``csv`` module's rows, which decides what is accepted
    and how an error reads.  Both give the same float64 bits.

    Raises
    ------
    DataError
        On unreadable or empty files, ragged rows, or non-numeric or
        non-finite cells (``nan``, ``inf``), with the offending line and
        column named in the message.
    """
    try:
        dataset = _parse_with_numpy(path, delimiter, header, label)
    except Exception:  # the row walk decides every input numpy refuses
        dataset = None
    return dataset if dataset is not None else _walk_rows(path, delimiter, header, label)


def _columns(path, names: list, header: bool, label):
    """The label column's index (None without one) and the feature columns."""
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
    return label_idx, feature_cols


def _parse_with_numpy(path, delimiter: str, header: bool, label) -> Optional[Dataset]:
    """:func:`load_csv` by ``np.loadtxt``, or None where the row walk must decide.

    It takes only text without a quote, a NUL or a leading blank row, and
    a delimiter of one character that is not whitespace: there a
    ``csv`` row is its line split at the delimiter, and the two parsers
    cut the same lines into the same cells.  Quotes and NULs are looked
    for in ``SCAN_BYTES`` chunks of the raw file (in UTF-8 neither byte
    occurs inside another character), then the open file goes to
    ``np.loadtxt`` a line at a time, so no copy of the whole text is
    made.  numpy parses only the feature columns into X, allocated once
    for the line endings the scan counted, from a generator that checks
    each line's field count (``usecols`` lets a longer row through) and
    codes its label in order of first appearance.  Any row of another
    width, any cell that numpy cannot read (such as ``1_0``, which
    ``float`` takes) and any non-finite value make the parse fail or
    return None.
    """
    if len(delimiter) != 1 or delimiter.isspace() or delimiter == '"':
        return None
    with open(path, "rb") as raw:
        endings = 0  # one more where a chunk splits a \r\n
        for chunk in iter(lambda: raw.read(SCAN_BYTES), b""):
            if b'"' in chunk or b"\0" in chunk:
                return None
            endings += chunk.count(b"\n")
            if b"\r" in chunk:  # \r ends a line too, unless \n follows it
                endings += chunk.count(b"\r") - chunk.count(b"\r\n")
        raw.seek(0)
        handle = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        first = handle.readline()
        cells = first.rstrip("\r\n").split(delimiter)
        if not "".join(cells).strip():  # csv skips a blank row; the header would move
            return None
        names = [cell.strip() for cell in cells] if header else [f"c{j}" for j in range(len(cells))]
        label_idx, feature_cols = _columns(path, names, header, label)
        codes, labels, width = {}, [], len(names)

        def lines():
            for line in handle if header else itertools.chain([first], handle):
                if line in ("\n", "\r\n", "\r"):  # an empty line, which csv and numpy skip
                    continue
                if line.count(delimiter) != width - 1:
                    raise ValueError("a row of another width")
                if label_idx is not None:  # its field, split off from the nearer end
                    cell = (line.split(delimiter, label_idx + 1)[label_idx] if 2 * label_idx < width
                            else line.rsplit(delimiter, width - label_idx)[1])
                    labels.append(codes.setdefault(cell.strip(), len(codes)))
                yield line

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns; the walk names it
            X = np.loadtxt(lines(), dtype=np.float64, delimiter=delimiter, comments=None,
                           usecols=feature_cols, ndmin=2, max_rows=endings + 1)
    if not np.isfinite(X).all():
        return None
    return Dataset(X, None if label_idx is None else np.array(labels, dtype=np.int64),
                   None if label_idx is None else list(codes), [names[j] for j in feature_cols])


def _walk_rows(path, delimiter: str, header: bool, label) -> Dataset:
    """:func:`load_csv` row by row over the ``csv`` module's rows."""
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
    label_idx, feature_cols = _columns(path, names, header, label)

    X = np.empty((len(body), len(feature_cols)), dtype=np.float64)
    codes, labels = {}, []
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
            labels.append(codes.setdefault(row[label_idx].strip(), len(codes)))
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        i, j = bad[0][0], feature_cols[bad[0][1]]
        raise DataError(f"{path} line {first_line + i}, column {names[j]!r}: "
                        f"non-finite value {body[i][j].strip()!r}")
    labels = None if label_idx is None else np.array(labels, dtype=np.int64)
    return Dataset(X, labels, None if label_idx is None else list(codes),
                   [names[j] for j in feature_cols])


def save_embedding(path, Z, labels=None, label_names=None,
                   delimiter: str = ",") -> None:
    """Write embedding coordinates as delimited text with a header.

    Columns are named z1..zq plus a trailing ``label`` column when
    labels are given.  Floats keep full precision, so loading the file
    back reproduces Z exactly.  A path that cannot be written raises
    ParameterError.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ParameterError(f"Z must be 2-D, got ndim={Z.ndim}")
    n, q = Z.shape
    if labels is not None and len(labels) != n:
        raise ParameterError(f"got {len(labels)} labels for {n} rows")
    try:
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
                    row.append(str(label_names[code]) if label_names is not None
                               else str(code))
                writer.writerow(row)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def load_embedding(path, delimiter: str = ",") -> Dataset:
    """Load a file written by :func:`save_embedding`.

    The trailing label column is picked up automatically when present.
    """
    names = [cell.strip() for cell in _read_rows(path, delimiter, limit=1)[0]]
    label = "label" if "label" in names else None
    return load_csv(path, delimiter=delimiter, header=True, label=label)
