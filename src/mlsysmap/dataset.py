"""Windowed observation tables aligned to a system map.

Input is a CSV with a header row, one ``window`` column labeling each row
``ref`` or ``cur``, and one column per observed variable named by any
member of its equivalence class; the simulator hands over the same
columns as arrays. Every CSV row must have as many cells as the header.
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
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import (
    BadWindowLabel,
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


def present(column: np.ndarray) -> np.ndarray:
    """Mask of the cells of a typed column that are not missing."""
    if column.dtype == object:
        return column != ""
    return ~np.isnan(column)


@dataclass
class WindowedDataset:
    """Column store keyed by canonical qualified name, plus window labels."""

    columns: dict[str, np.ndarray]   # qname -> float64 or object array of str
    window: np.ndarray               # object array of 'ref' / 'cur'
    warnings: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.window)

    def window_mask(self, label: str) -> np.ndarray:
        if label not in WINDOWS:
            raise BadWindowLabel(f"unknown window label '{label}'")
        return self.window == label


def _typed_column(values: np.ndarray, modulator: bool) -> tuple[np.ndarray, dict]:
    """The column as float64 or as str cells, and by reason the number of
    non-empty cells loaded as missing.

    Text is numeric when every non-empty cell parses with ``float``, which
    the object-to-float cast calls per cell, or is a missing token; tokens
    are looked for only once that cast has failed.
    """
    missing = np.zeros(len(values), dtype=bool)
    tokens = 0
    if values.dtype.kind in "biuf" and not modulator:
        floats = values.astype(np.float64)
    else:
        cells = values if values.dtype == object else values.astype(str).astype(object)
        if modulator:
            return cells, {}
        missing = cells == ""
        try:
            floats = np.where(missing, "nan", cells).astype(np.float64)
        except (TypeError, ValueError):
            token = np.isin(cells, MISSING_TOKENS)
            try:
                floats = np.where(missing | token, "nan", cells).astype(np.float64)
            except (TypeError, ValueError):
                return cells, {}
            missing |= token
            tokens = int(np.count_nonzero(token))
    non_finite = ~np.isfinite(floats)
    floats[non_finite] = np.nan
    return floats, {"non-finite": int(np.count_nonzero(non_finite & ~missing)),
                    "missing-token": tokens}


def build_dataset(system_map: SystemMap, columns: Iterable[tuple[str, np.ndarray]],
                  window: np.ndarray) -> WindowedDataset:
    """A dataset from (name, cells) columns aligned with ``window``.

    A name may be any member of an equivalence class; two columns from one
    class are an error. Columns matching no map node, and non-finite or
    missing-token cells (loaded as missing), are reported as warnings.
    """
    window = np.asarray(window, dtype=object)
    for label in WINDOWS:
        if not np.any(window == label):
            raise EmptyWindow(f"window '{label}' has no rows")
    warnings: list[str] = []
    claimed_by: dict[str, str] = {}
    typed: dict[str, np.ndarray] = {}
    for name, values in columns:
        if not system_map.has_node(name):
            warnings.append(f"column '{name}' matches no map node")
            continue
        canonical = system_map.canonical_name(name)
        if canonical in claimed_by:
            raise DuplicateEquivalenceColumn(
                f"columns '{claimed_by[canonical]}' and '{name}' both map to '{canonical}'"
            )
        claimed_by[canonical] = name
        modulator = system_map.node(canonical).kind is NodeKind.MODULATOR
        typed[canonical], dropped = _typed_column(np.asarray(values), modulator)
        warnings.extend(f"column '{name}': {n} {reason} cells loaded as missing"
                        for reason, n in dropped.items() if n)
    return WindowedDataset(columns=typed, window=window, warnings=warnings)


def load_csv(system_map: SystemMap, source: Union[str, io.TextIOBase]) -> WindowedDataset:
    """Read a CSV file (path, text, or open stream) against a map.

    A string holding a newline is CSV text; any other string is a path.
    """
    if isinstance(source, str):
        if "\n" in source:
            rows = list(csv.reader(io.StringIO(source)))
        else:
            with open(source, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(source))

    if not rows:
        raise MissingWindowColumn("empty CSV input")
    header, data_rows = rows[0], rows[1:]
    if WINDOW_COLUMN not in header:
        raise MissingWindowColumn("CSV has no 'window' column")
    window_idx = header.index(WINDOW_COLUMN)
    for n, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise RaggedRow(f"row {n}: {len(row)} cells, header has {len(header)}")
    cells = [np.array([row[i] for row in data_rows], dtype=object)
             for i in range(len(header))]
    window = cells[window_idx]
    bad = np.flatnonzero((window != "ref") & (window != "cur"))
    if len(bad):
        raise BadWindowLabel(
            f"row {bad[0] + 2}: window label '{window[bad[0]]}' (expected ref/cur)")
    columns = [(name, c) for i, (name, c) in enumerate(zip(header, cells)) if i != window_idx]
    return build_dataset(system_map, columns, window)


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

    included: list[str] = []
    excluded: list[str] = []
    source: dict[str, str] = {}
    for node in graph.nodes:
        col = resolve_column(ds, system_map, node.qname)
        if col is None or not np.any(present(ds.columns[col][mask])):
            excluded.append(node.qname)
            continue
        included.append(node.qname)
        source[node.qname] = col

    complete = mask.copy()
    for qname in included:
        complete &= present(ds.columns[source[qname]])
    n = int(np.count_nonzero(complete))
    if n == 0 or not included:
        raise NoDataForView(
            f"no complete rows for view '{view.name}' in window '{window}'"
        )
    columns = {q: ds.columns[source[q]][complete] for q in included}
    return ViewTable(
        view=view,
        window=window,
        nodes=tuple(included),
        columns=columns,
        excluded=tuple(excluded),
        n_rows=n,
    )
