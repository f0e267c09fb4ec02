"""Windowed observation tables aligned to a system map.

Input is a CSV with a header row, one ``window`` column labeling each row
``ref`` or ``cur``, and one column per observed variable named by any
member of its equivalence class. Every CSV row must have as many cells
as the header. The text is cut into columns once: numpy's C reader types
unquoted text without blank lines in one ``np.loadtxt`` call, reading
each label cell as a raw 8-byte key or a code, unless a cell it cannot
parse (an empty cell or a missing token in a numeric column, say) makes
the call fail; any other text is read by ``csv.reader``. Both give the
same columns. Each route hands :func:`build_dataset` a column in one of
three forms: a numeric array (the C reader's float64 fields, the
simulator's numbers), a :class:`LabelColumn` (the C reader's label
fields, the simulator's labels) or a list of ``str`` cells (the columns
of ``csv.reader``, the C reader's object fields). :func:`build_dataset`
unifies columns to the canonical (lexicographically smallest) class
member and types each column once: a column is numeric (float64,
``NaN`` = missing, i.e. empty, non-finite or one of ``MISSING_TOKENS``)
when its node is not a modulator and every non-empty cell is a number or
a missing token, else categorical: a :class:`LabelColumn` of codes into
its sorted labels (``""`` = missing, tokens kept as labels), as is the
``window`` column. Past that point only :func:`present` tests for the
two missing markers.
"""

from __future__ import annotations

import bisect
import csv
import io
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


class _FirstSeen(dict):
    """Label -> code, handing each label not yet seen the next code."""

    def __missing__(self, label):
        code = self[label] = len(self)
        return code


class LabelColumn:
    """A categorical column: integer codes into its sorted distinct labels.

    Mask or index-array indexing gives a column over the same labels, and
    ``column == label`` a mask. A column made by :meth:`of` holds each of
    its labels; one indexed out of it keeps them all.
    """

    __slots__ = ("codes", "labels")

    def __init__(self, codes: np.ndarray, labels: tuple[str, ...]):
        self.codes, self.labels = codes, labels

    @classmethod
    def of(cls, cells: Union[list[str], LabelColumn]) -> LabelColumn:
        """The column of a list of ``str`` cells; a LabelColumn is returned as it is."""
        if isinstance(cells, LabelColumn):
            return cells
        return cls.first_seen(*_first_seen_codes(cells))

    @classmethod
    def first_seen(cls, codes: np.ndarray, labels: list[str]) -> LabelColumn:
        """The column of ``codes`` into ``labels`` in first-seen order: the
        C-contiguous intp ``codes`` are recoded to the sorted labels in place
        (``take`` reads each code before it writes that slot)."""
        ordered = sorted(labels)
        if ordered != labels:
            rank = {label: i for i, label in enumerate(ordered)}
            np.take(np.fromiter(map(rank.__getitem__, labels), np.intp, len(labels)), codes,
                    out=codes, mode="wrap")
        return cls(codes, tuple(map(sys.intern, ordered)))

    @classmethod
    def of_keys(cls, cells: np.ndarray) -> LabelColumn:
        """The column of ``S8`` cells of NUL-free ASCII: as big-endian keys they sort as labels."""
        keys, codes = np.unique(cells.view(">u8"), return_inverse=True)
        return cls(codes.reshape(-1), tuple(map(sys.intern, keys.view("S8").astype(str).tolist())))

    def code(self, label: str) -> int:
        """The code of ``label``, or -1 where the column has no such label."""
        i = bisect.bisect_left(self.labels, label)
        return i if i < len(self.labels) and self.labels[i] == label else -1

    def __getitem__(self, key) -> LabelColumn:
        return LabelColumn(self.codes[key], self.labels)

    def __eq__(self, label: str) -> np.ndarray:
        return self.codes == self.code(label)


def present(column) -> np.ndarray:
    """Mask of the cells of a typed column that are not missing."""
    if isinstance(column, LabelColumn):
        return column.codes != column.code("")
    return ~np.isnan(column)


@dataclass
class WindowedDataset:
    """Column store keyed by canonical qualified name, plus window labels."""

    columns: dict[str, Union[np.ndarray, LabelColumn]]   # qname -> float64 array or labels
    window: LabelColumn              # 'ref' / 'cur'
    warnings: list[str] = field(default_factory=list)
    _masks: dict = field(init=False, repr=False, compare=False)  # label -> read-only mask
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._masks = {label: self.window == label for label in WINDOWS}
        for mask in self._masks.values():
            mask.flags.writeable = False

    def window_mask(self, label: str) -> np.ndarray:
        if label not in WINDOWS:
            raise BadWindowLabel(f"unknown window label '{label}'")
        return self._masks[label]


def _first_seen_codes(cells: list[str]) -> tuple[np.ndarray, list[str]]:
    """Codes of the cells into their distinct labels in first-seen order."""
    seen = _FirstSeen()
    codes = np.fromiter(map(seen.__getitem__, cells), np.intp, len(cells))
    return codes, list(seen)


def _typed_column(values, modulator: bool) -> tuple[Union[np.ndarray, LabelColumn], dict]:
    """The column as float64 or as labels, and by reason the number of
    non-empty cells loaded as missing.

    ``values`` is a numeric array, a :class:`LabelColumn` (kept as it is
    when categorical) or a list of ``str`` cells. Text is numeric when
    every cell parses with ``float``, or does once empty cells and missing
    tokens read as ``"nan"``; past the first try, that is decided on the
    column's distinct labels, each parsed once.
    """
    if modulator:
        return LabelColumn.of(values), {}
    floats, tokens, marked = None, 0, 0
    if isinstance(values, np.ndarray):
        floats = values.astype(np.float64)
    elif isinstance(values, list):
        try:
            floats = np.fromiter(map(float, values), np.float64, len(values))
        except ValueError:
            pass
    if floats is None:
        column = values if isinstance(values, LabelColumn) else None
        codes, labels = ((column.codes, column.labels) if column is not None
                         else _first_seen_codes(values))
        held = np.bincount(codes, minlength=len(labels))
        # a label that no cell holds reads as empty, so it types nothing
        cells = [label if n else "" for label, n in zip(labels, held)]
        try:
            floats = np.fromiter(map(float, map(_AS_NAN.get, cells, cells)),
                                 np.float64, len(cells))[codes]
        except ValueError:
            return (column if column is not None else LabelColumn.first_seen(codes, labels)), {}
        tokens = int(held[[cell in MISSING_TOKENS for cell in cells]].sum())
        marked = int(held[[cell in _AS_NAN for cell in cells]].sum())
    non_finite = ~np.isfinite(floats)
    floats[non_finite] = np.nan
    return floats, {"non-finite": int(np.count_nonzero(non_finite)) - marked,
                    "missing-token": tokens}


def build_dataset(system_map: SystemMap,
                  columns: Iterable[tuple[str, Union[np.ndarray, LabelColumn, list[str]]]],
                  window: LabelColumn) -> WindowedDataset:
    """A dataset from (name, cells) columns aligned with ``window``.

    Each column is a numeric array, a :class:`LabelColumn` or a list of
    ``str`` cells, typed as the module docstring says. A name may be any
    member of an equivalence class; two columns from one class are an
    error. Columns matching no map node, and non-finite or
    missing-token cells (loaded as missing), are reported as warnings.
    """
    ds = WindowedDataset(columns={}, window=window)
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
    ascii_text = text.isascii()
    del text
    return _loadtxt_columns(system_map, lines, ascii_text) or _csv_columns(lines)


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


def _loadtxt_columns(system_map: SystemMap, lines: list[str],
                     ascii_text: bool) -> tuple[list[str], list] | None:
    """Header and columns of clean lines (see :func:`_columns`), typed in one
    ``np.loadtxt`` call (the lines are emptied), or None where that call
    fails or reads another number of rows.

    Each column gets the field of :func:`_field`; a float64 field is a view
    of the table. In ASCII text a label field whose first cell is under 8
    characters holds ``S8`` keys, coded by :meth:`LabelColumn.of_keys`; the
    columns with a key that fills 8 bytes, so may be cut, are read again in
    one more call, as codes like other label fields: a dict's ``__getitem__``
    converter hands each new label the next code, recoded to the sorted
    labels once. An object field's cells are returned as a list. numpy
    parses numbers as ``float`` does, to the same bits; a cell it cannot
    parse as a number, and a ragged row, raise ``ValueError``.
    """
    header, first = lines[0].split(","), lines[1].split(",")
    if len(first) != len(header):
        return None
    kinds = [_field(system_map, name, cell) for name, cell in zip(header, first)]
    keyed = {i for i, c in enumerate(first) if ascii_text and kinds[i] == np.intp and len(c) < 8}
    fields = np.dtype([(f"f{i}", "S8" if i in keyed else k) for i, k in enumerate(kinds)])
    seen = {i: _FirstSeen() for i, k in enumerate(kinds) if k == np.intp}
    rows = dict(delimiter=",", comments=None, quotechar=None, skiprows=1, max_rows=len(lines) - 1,
                ndmin=1, encoding=None)     # else numpy 1.x passes bytes to converters
    try:
        table = np.loadtxt(lines, fields, **rows,
                           converters={i: seen[i].__getitem__ for i in seen if i not in keyed})
    except ValueError:
        return None
    if len(table) != len(lines) - 1:
        return None
    cut = [i for i in keyed if np.any(table[f"f{i}"].view(">u8") & 0xFF)]
    recut = cut and np.loadtxt(lines, [(f"f{i}", np.intp) for i in cut], **rows, usecols=cut,
                               converters={i: seen[i].__getitem__ for i in cut})
    lines.clear()
    return header, [LabelColumn.of_keys(table[name]) if i in keyed and i not in cut
                    else LabelColumn.first_seen(np.ascontiguousarray(
                        (recut if i in cut else table)[name]), list(seen[i])) if i in seen
                    else table[name].tolist() if fields[i] == object else table[name]
                    for i, name in enumerate(fields.names)]


def _field(system_map: SystemMap, name: str, cell: str):
    """The C reader's field type for a column, from its first cell: intp (a
    label field, of keys or codes) for the window, a modulator or a first
    cell that is no number (a categorical column); object (``str`` cells)
    where that cell is empty or a missing token, so the column may yet be
    numeric; else float64; and ``U1``, never read, for an unmapped column."""
    if name == WINDOW_COLUMN:
        return np.intp
    if not system_map.has_node(name):
        return "U1"
    if system_map.node(system_map.canonical_name(name)).kind is NodeKind.MODULATOR:
        return np.intp
    if cell in _AS_NAN:
        return object
    try:
        float(cell)
    except ValueError:
        return np.intp
    return np.float64


def load_csv(system_map: SystemMap, source: Union[str, io.TextIOBase]) -> WindowedDataset:
    """Read a CSV file (path, text, or open stream) against a map.

    A string holding a line end (``\\n`` or ``\\r``) is CSV text; any other
    string is a path. Lines may end in ``\\n``, ``\\r\\n`` or ``\\r``. One
    leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write, is not part of the first header cell. The text is read whole and
    cut into columns once (:func:`_columns`): clean unquoted text is typed
    by numpy's C reader where it can be, with label cells read as keys or
    codes; anything else goes through ``csv.reader``. A file that is not
    UTF-8, or a quoted cell longer than ``csv.field_size_limit()``, raises
    ``DatasetError`` naming its line.
    """
    header, columns = _columns(system_map, source)

    if WINDOW_COLUMN not in header:
        raise MissingWindowColumn("CSV has no 'window' column")
    window = LabelColumn.of(columns.pop(header.index(WINDOW_COLUMN)))
    header.remove(WINDOW_COLUMN)
    known = np.array([label in WINDOWS for label in window.labels], dtype=bool)
    bad = np.flatnonzero(~known[window.codes])
    if len(bad):
        label = window.labels[window.codes[bad[0]]]
        raise BadWindowLabel(f"row {bad[0] + 2}: window label '{label}' (expected ref/cur)")
    return build_dataset(system_map, zip(header, columns), window)


@dataclass
class ViewTable:
    """Complete-case rows of both windows over one view's nodes; no cell is
    copied: node ``q``'s in window ``w`` are ``ds.columns[t.columns[q]][t.rows[w]]``."""

    view: View
    nodes: tuple[str, ...]                 # included qnames, canonical node order
    columns: dict[str, str]                # qname -> the dataset column behind it
    rows: dict[str, np.ndarray]            # window -> mask of its complete rows
    excluded: tuple[str, ...]              # view nodes without data in both windows


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


def view_matrix(ds: WindowedDataset, system_map: SystemMap, view: View) -> ViewTable:
    """Complete-case table over one view, decided once for both windows.

    A node is included when its backing column (directly or through a
    measure proxy) has a present cell in each window; the other nodes are
    excluded, in node order. ``rows`` masks each window's rows complete in
    the included nodes, so a column blank in every row of one window cuts
    no row of the other. ``NoDataForView`` is raised when a window has no
    complete row, or no node is included.
    """
    excluded: list[str] = []
    source: dict[str, str] = {}    # included qname -> its column, in node order
    complete = np.ones(len(ds.window.codes), bool)
    for node in system_map.view_graph(view).nodes:
        col = resolve_column(ds, system_map, node.qname)
        held = None if col is None else present(ds.columns[col])
        if held is None or not all(np.any(held & ds.window_mask(w)) for w in WINDOWS):
            excluded.append(node.qname)
        else:
            source[node.qname] = col
            complete &= held
    rows = {w: complete & ds.window_mask(w) for w in WINDOWS}
    for w, mask in rows.items():
        if not source or not mask.any():
            raise NoDataForView(f"no complete rows for view '{view.name}' in window '{w}'")
    return ViewTable(view=view, nodes=tuple(source), columns=source, rows=rows,
                     excluded=tuple(excluded))
