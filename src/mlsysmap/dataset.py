"""Windowed observation tables aligned to a system map.

Input is a CSV with a header row, one ``window`` column labeling each row
``ref`` or ``cur``, and one column per observed variable named by any
member of its equivalence class; the simulator hands over the same
columns as arrays. Every CSV row must have as many cells as the header.
The text is cut into columns once: numpy's C reader types unquoted text
without blank lines in one ``np.loadtxt`` call, interning label cells as
it reads them, unless a cell it cannot parse (an empty cell or a missing
token in a numeric column, say) makes the call fail; any other text is
read by ``csv.reader``. Both give the same columns.
:func:`build_dataset` unifies columns to the canonical (lexicographically
smallest) class member and types each column once: a column is numeric
(float64, ``NaN`` = missing, i.e. empty, non-finite or one of
``MISSING_TOKENS``) when its node is not a modulator and every non-empty
cell is a number or a missing token, else categorical (``str`` cells,
``""`` = missing, tokens kept as labels). Past that point only
:func:`present` tests for the two missing markers.
"""

from __future__ import annotations

import csv
import io
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import (
    BadWindowLabel,
    DatasetError,
    DuplicateEquivalenceColumn,
    EmptyWindow,
    MissingWindowColumn,
    NoDataForView,
    RaggedRow,
)
from .mapcore import NodeKind, SystemMap, View

WINDOW_COLUMN = "window"
WINDOWS = ("ref", "cur")
MISSING_TOKENS = ("NA", "N/A", "null", "NULL", "None")
_AS_NAN = dict.fromkeys(("",) + MISSING_TOKENS, "nan")


def present(column: np.ndarray) -> np.ndarray:
    """Mask of the cells of a typed column that are not missing."""
    if column.dtype == object:
        return column != ""
    return ~np.isnan(column)


def _labels(cells) -> np.ndarray:
    """Object array of the interned cells: no cell string outlives the load.
    An array is kept as it is: numpy's C reader interns label cells as read."""
    if isinstance(cells, np.ndarray):
        return cells
    return np.fromiter(map(sys.intern, cells), object, len(cells))


@dataclass
class WindowedDataset:
    """Column store keyed by canonical qualified name, plus window labels."""

    columns: dict[str, np.ndarray]   # qname -> float64 or object array of str
    window: np.ndarray               # object array of 'ref' / 'cur'
    warnings: list[str] = field(default_factory=list)
    _masks: dict = field(init=False, repr=False, compare=False)  # label -> read-only mask

    def __post_init__(self):
        self._masks = {label: self.window == label for label in WINDOWS}
        for mask in self._masks.values():
            mask.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.window)

    def window_mask(self, label: str) -> np.ndarray:
        if label not in WINDOWS:
            raise BadWindowLabel(f"unknown window label '{label}'")
        return self._masks[label]


def _typed_column(values, modulator: bool) -> tuple[np.ndarray, dict]:
    """The column as float64 or as str cells, and by reason the number of
    non-empty cells loaded as missing.

    ``values`` is a list of CSV cells, an object array of ``str`` cells
    (kept as it is when the column is categorical) or another array. Text
    is numeric when every cell parses with ``float`` (as the object-to-float
    cast does), or does once empty cells and missing tokens read as
    ``"nan"``.
    """
    missing = np.zeros(len(values), dtype=bool)
    tokens = 0
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf" and not modulator:
        floats = values.astype(np.float64)
    else:
        cells = (values.astype(str).tolist()
                 if isinstance(values, np.ndarray) and values.dtype != object else values)
        if modulator:
            return _labels(cells), {}
        try:
            floats = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            try:
                floats = np.fromiter(map(float, map(_AS_NAN.get, cells, cells)),
                                     np.float64, len(cells))
            except ValueError:
                return _labels(cells), {}
            missing = np.fromiter(map(_AS_NAN.__contains__, cells), bool, len(cells))
            tokens = int(np.count_nonzero(missing)) - operator.countOf(cells, "")
    non_finite = ~np.isfinite(floats)
    floats[non_finite] = np.nan
    return floats, {"non-finite": int(np.count_nonzero(non_finite & ~missing)),
                    "missing-token": tokens}


def build_dataset(system_map: SystemMap, columns: Iterable[tuple[str, Union[np.ndarray, list]]],
                  window: np.ndarray) -> WindowedDataset:
    """A dataset from (name, cells) columns aligned with ``window``.

    A name may be any member of an equivalence class; two columns from one
    class are an error. Columns matching no map node, and non-finite or
    missing-token cells (loaded as missing), are reported as warnings.
    """
    ds = WindowedDataset(columns={}, window=np.asarray(window, dtype=object))
    for label in WINDOWS:
        if not np.any(ds.window_mask(label)):
            raise EmptyWindow(f"window '{label}' has no rows")
    claimed_by: dict[str, str] = {}
    for name, values in columns:
        if not system_map.has_node(name):
            ds.warnings.append(f"column '{name}' matches no map node")
            continue
        canonical = system_map.canonical_name(name)
        if canonical in claimed_by:
            raise DuplicateEquivalenceColumn(
                f"columns '{claimed_by[canonical]}' and '{name}' both map to '{canonical}'")
        claimed_by[canonical] = name
        modulator = system_map.node(canonical).kind is NodeKind.MODULATOR
        ds.columns[canonical], dropped = _typed_column(values, modulator)
        ds.warnings.extend(f"column '{name}': {n} {reason} cells loaded as missing"
                           for reason, n in dropped.items() if n)
    return ds


def _columns(system_map: SystemMap, source: Union[str, io.TextIOBase]) -> tuple[list[str], list]:
    """Header and columns of a CSV path, text or stream.

    Clean text has no quotes, no NUL (which ``csv`` rejects before Python
    3.11) and no ``\\x1c``-``\\x1f`` (numpy strips these around a number as
    whitespace, ``float`` rejects them), and once ``\\r\\n`` and ``\\r`` read
    as ``\\n`` and one trailing empty line is dropped, no empty line: there
    ``csv.reader`` would see a row of no cells. Clean text is dropped once
    it is split into lines. numpy's C reader types those where it can
    (:func:`_loadtxt_columns`); else ``csv.reader`` reads them, to the same
    rows as from the text. Any other text goes to ``csv.reader`` whole.
    """
    text = _text(source)
    lines = []
    if not any(c in text for c in '"\x00\x1c\x1d\x1e\x1f'):
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
    if len(lines) < 2 or "" in lines:
        return _csv_columns(io.StringIO(text, newline=""))
    del text
    return _loadtxt_columns(system_map, lines) or _csv_columns(lines)


def _csv_columns(lines) -> tuple[list[str], list]:
    """Header and columns as ``csv.reader`` reads the lines of a stream or list."""
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as exc:     # a cell past csv.field_size_limit(), say
        raise DatasetError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise MissingWindowColumn("empty CSV input")
    header = rows[0]
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise RaggedRow(f"row {n}: {len(row)} cells, header has {len(header)}")
    return header, [[row[i] for row in rows[1:]] for i in range(len(header))]


def _text(source: Union[str, io.TextIOBase]) -> str:
    """The text of a CSV path, text or stream, less one leading byte-order mark."""
    if isinstance(source, str) and "\n" not in source and "\r" not in source:
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DatasetError(f"line {line}, byte {exc.start}: not UTF-8 "
                               f"({exc.reason})") from None
    elif not isinstance(source, str):
        source = source.read()
    return source.removeprefix("\ufeff")


def _loadtxt_columns(system_map: SystemMap, lines: list[str]) -> tuple[list[str], list] | None:
    """Header and columns of clean lines (see :func:`_columns`), typed in one
    ``np.loadtxt`` call, or None where that call fails or reads another
    number of rows.

    A column is a float64 field when its node is not a modulator and its
    first cell parses with ``float``, returned as a view of the table; the
    window column and the other map columns are object fields of ``str``
    cells. Those are interned as they are read and returned as object
    arrays, unless the first cell is empty or a missing token: such a
    column may still be numeric, and its cells are returned as a list.
    numpy parses each number with ``PyOS_string_to_double``, as ``float``
    does, so the values are the same bits; an empty cell, a token or any
    other cell it cannot parse as a number, and a ragged row, raise
    ``ValueError``.
    """
    header, first = lines[0].split(","), lines[1].split(",")
    if len(first) != len(header):
        return None
    fields = np.dtype([(f"f{i}", _field(system_map, name, cell))
                       for i, (name, cell) in enumerate(zip(header, first))])
    labels = {i: sys.intern for i, cell in enumerate(first)
              if fields[i] == object and cell not in _AS_NAN}
    try:    # encoding=None: numpy 1.x passes bytes to converters by default
        table = np.loadtxt(lines, fields, delimiter=",", comments=None, quotechar=None, skiprows=1,
                           max_rows=len(lines) - 1, ndmin=1, converters=labels, encoding=None)
    except ValueError:
        return None
    if len(table) != len(lines) - 1:
        return None
    return header, [np.ascontiguousarray(table[name]) if i in labels
                    else table[name].tolist() if fields[i] == object else table[name]
                    for i, name in enumerate(fields.names)]


def _field(system_map: SystemMap, name: str, cell: str):
    """The C reader's field type for a column: float64, object (``str``
    cells), or a one-character field for a column that matches no map node
    (its cells are never read)."""
    if name == WINDOW_COLUMN:
        return object
    if not system_map.has_node(name):
        return "U1"
    if system_map.node(system_map.canonical_name(name)).kind is NodeKind.MODULATOR:
        return object
    try:
        float(cell)
    except ValueError:
        return object
    return np.float64


def load_csv(system_map: SystemMap, source: Union[str, io.TextIOBase]) -> WindowedDataset:
    """Read a CSV file (path, text, or open stream) against a map.

    A string holding a line end (``\\n`` or ``\\r``) is CSV text; any other
    string is a path. Lines may end in ``\\n``, ``\\r\\n`` or ``\\r``. One
    leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write, is not part of the first header cell. The text is read whole and
    cut into columns once (:func:`_columns`): clean unquoted text is typed
    by numpy's C reader where it can be, with label cells interned as they
    are read; anything else goes through ``csv.reader``. A file that is not
    UTF-8, or a quoted cell longer than ``csv.field_size_limit()``, raises
    ``DatasetError`` naming its line.
    """
    header, columns = _columns(system_map, source)

    if WINDOW_COLUMN not in header:
        raise MissingWindowColumn("CSV has no 'window' column")
    window = _labels(columns.pop(header.index(WINDOW_COLUMN)))
    header.remove(WINDOW_COLUMN)
    bad = np.flatnonzero((window != "ref") & (window != "cur"))
    if len(bad):
        raise BadWindowLabel(
            f"row {bad[0] + 2}: window label '{window[bad[0]]}' (expected ref/cur)")
    return build_dataset(system_map, zip(header, columns), window)


@dataclass
class ViewTable:
    """Complete-case rows of one window, restricted to one view's nodes."""

    view: View
    window: str
    nodes: tuple[str, ...]                 # included qnames, canonical node order
    columns: dict[str, np.ndarray]         # qname -> typed column, aligned rows
    excluded: tuple[str, ...]              # view nodes without any usable data
    n_rows: int


def resolve_column(ds: WindowedDataset, system_map: SystemMap, qname: str):
    """Column name backing a node: its class column, or a measure proxy."""
    canonical = system_map.canonical_name(qname)
    if canonical in ds.columns:
        return canonical
    node = system_map.node(qname)
    if node.kind is NodeKind.RANDOM:
        target = system_map.measure_target(qname)
        if target is not None:
            proxy = system_map.canonical_name(target)
            if proxy in ds.columns:
                return proxy
    return None


def view_matrix(ds: WindowedDataset, system_map: SystemMap, view: View,
                window: str) -> ViewTable:
    """Row-aligned complete-case table over one view for one window.

    Nodes without a backing column (directly or through a measure proxy),
    or whose column is entirely missing in the window, are excluded and
    reported; remaining rows with any missing cell are dropped.
    """
    graph = system_map.view_graph(view)
    mask = ds.window_mask(window)

    excluded: list[str] = []
    source: dict[str, str] = {}    # included qname -> its column, in node order
    for node in graph.nodes:
        col = resolve_column(ds, system_map, node.qname)
        if col is None or not np.any(present(ds.columns[col][mask])):
            excluded.append(node.qname)
        else:
            source[node.qname] = col

    complete = mask.copy()
    for col in source.values():
        complete &= present(ds.columns[col])
    n = int(np.count_nonzero(complete))
    if n == 0 or not source:
        raise NoDataForView(f"no complete rows for view '{view.name}' in window '{window}'")
    columns = {q: ds.columns[col][complete] for q, col in source.items()}
    return ViewTable(view=view, window=window, nodes=tuple(source), columns=columns,
                     excluded=tuple(excluded), n_rows=n)
