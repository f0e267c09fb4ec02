"""CSV loading, equivalence unification, column typing, and per-view
complete-case tables."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsysmap import dataset
from mlsysmap.dataset import (
    MISSING_TOKENS,
    WINDOWS,
    load_csv,
    present,
    resolve_column,
    view_matrix,
)
from mlsysmap.errors import (
    BadWindowLabel,
    DatasetError,
    DuplicateEquivalenceColumn,
    EmptyWindow,
    MissingWindowColumn,
    NoDataForView,
    RaggedRow,
)
from mlsysmap.mapcore import View
from mlsysmap.mechanisms import fit_mechanisms, fit_variable
from mlsysmap.msmformat import parse_map
from mlsysmap.simulator import SCENARIOS, ScenarioConfig, churn_map, generate, generate_csv

MAP = parse_map("""\
map tiny
view system
  data features
  data score
  edge features -> score
view subsystem pipe
  data raw boundary
  data out
  edge raw -> out
view environment
  random world
equiv pipe.out = system.features
measure env.world -> system.features
""")

CSV = """\
window,system.features,system.score,pipe.raw
ref,1.0,0.1,a
ref,2.0,0.2,b
cur,3.0,0.3,a
cur,4.0,0.4,b
"""


def test_load_basics():
    ds = load_csv(MAP, CSV)
    assert ds.n_rows == 4
    assert list(ds.window_mask("ref")) == [True, True, False, False]
    assert list(ds.window_mask("cur")) == [False, False, True, True]
    # features column unified to the canonical class member
    assert "pipe.out" in ds.columns and "system.features" not in ds.columns
    assert list(ds.columns["pipe.raw"]) == ["a", "b", "a", "b"]
    assert ds.warnings == []


def test_any_class_member_accepted_as_header():
    ds = load_csv(MAP, CSV.replace("system.features", "pipe.out"))
    assert "pipe.out" in ds.columns


def test_duplicate_class_columns_rejected():
    text = ("window,system.features,pipe.out\n"
            "ref,1,1\ncur,2,2\n")
    with pytest.raises(DuplicateEquivalenceColumn):
        load_csv(MAP, text)


def test_unknown_columns_become_warnings():
    text = CSV.replace("pipe.raw", "mystery")
    ds = load_csv(MAP, text)
    assert any("mystery" in w for w in ds.warnings)
    assert "mystery" not in ds.columns


def test_missing_window_column():
    with pytest.raises(MissingWindowColumn):
        load_csv(MAP, "system.score\n1\n")
    with pytest.raises(MissingWindowColumn):
        load_csv(MAP, "\n")
    with pytest.raises(MissingWindowColumn, match="empty CSV input"):
        load_csv(MAP, io.StringIO(""))


def test_bad_window_label_reports_row():
    text = CSV.replace("cur,3.0", "now,3.0")
    with pytest.raises(BadWindowLabel) as exc:
        load_csv(MAP, text)
    assert "row 4" in str(exc.value)


@pytest.mark.parametrize("row, n_cells", [("ref,1,2,99", 4), ("cur,3", 2)])
def test_ragged_row_rejected(row, n_cells):
    text = f"window,system.score,system.features\nref,1,2\n{row}\ncur,4,5\n"
    with pytest.raises(RaggedRow) as exc:
        load_csv(MAP, text)
    assert str(exc.value) == f"row 3: {n_cells} cells, header has 3"


def test_empty_window_rejected():
    text = ("window,system.score\nref,1\nref,2\n")
    with pytest.raises(EmptyWindow):
        load_csv(MAP, text)


def test_load_from_path(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(CSV, encoding="utf-8")
    ds = load_csv(MAP, str(p))
    assert ds.n_rows == 4


def test_load_from_path_with_comma(tmp_path):
    p = tmp_path / "a,b" / "d.csv"
    p.parent.mkdir()
    p.write_text(CSV, encoding="utf-8")
    assert load_csv(MAP, str(p)).n_rows == 4


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_ends_read_alike_from_text_stream_and_path(tmp_path, end):
    text = generate_csv(ScenarioConfig("S2", n=40, seed=3)).replace("\n", end)
    p = tmp_path / "data.csv"
    p.write_bytes(text.encode())
    want = load_csv(churn_map(), generate_csv(ScenarioConfig("S2", n=40, seed=3)))
    assert want.n_rows == 80
    for source in (text, io.StringIO(text, newline=""), str(p)):
        _assert_same_dataset(load_csv(churn_map(), source), want)


@pytest.mark.parametrize("header", [
    "window,system.features,system.score,pipe.raw",
    "system.features,window,system.score,pipe.raw",
])
def test_utf8_byte_order_mark_is_not_part_of_the_header(tmp_path, header):
    rows = [line.split(",") for line in CSV.splitlines()]
    order = [rows[0].index(name) for name in header.split(",")]
    text = "\n".join(",".join(row[i] for i in order) for row in rows) + "\n"
    clean = load_csv(MAP, text)
    p = tmp_path / "bom.csv"
    p.write_text(text, encoding="utf-8-sig")
    for ds in (load_csv(MAP, "\ufeff" + text), load_csv(MAP, str(p)),
               load_csv(MAP, io.StringIO("\ufeff" + text))):
        assert ds.warnings == []
        assert list(ds.window) == list(clean.window)
        assert ds.columns.keys() == clean.columns.keys() == {
            "pipe.out", "system.score", "pipe.raw"}
        assert all(np.array_equal(ds.columns[q], clean.columns[q]) for q in ds.columns)


def test_numeric_and_categorical_columns():
    ds = load_csv(MAP, CSV)
    assert ds.columns["pipe.out"].dtype == np.float64
    assert list(ds.columns["pipe.out"]) == [1.0, 2.0, 3.0, 4.0]
    assert ds.columns["pipe.raw"].dtype == object


def test_modulator_column_stays_categorical():
    m = parse_map("map m\nview system\n  data s\n"
                  "view subsystem sub\n  data out\n  modulator knob\n"
                  "  edge knob -> out\nequiv sub.out = system.s\n")
    ds = load_csv(m, "window,sub.knob,sub.out\nref,1,1\ncur,2,2\nref,1,3\n")
    assert ds.columns["sub.knob"].dtype == object
    assert list(ds.columns["sub.knob"]) == ["1", "2", "1"]
    assert ds.columns["sub.out"].dtype == np.float64


def test_mixed_values_are_categorical():
    ds = load_csv(MAP, "window,system.score\nref,1\nref,\ncur,a\n")
    assert ds.columns["system.score"].dtype == object
    assert list(ds.columns["system.score"]) == ["1", "", "a"]
    assert list(present(ds.columns["system.score"])) == [True, False, True]


def test_non_finite_cells_are_missing():
    text = ("window,system.score,system.features\n"
            "ref,nan,1\nref,inf,2\nref,,3\ncur,-inf,4\ncur,0.5,5\n")
    ds = load_csv(MAP, text)
    score = ds.columns["system.score"]
    assert score.dtype == np.float64
    assert list(present(score)) == [False, False, False, False, True]
    assert score[4] == 0.5
    assert ds.warnings == [
        "column 'system.score': 3 non-finite cells loaded as missing"]


def test_missing_tokens_in_numeric_column():
    text = ("window,system.score,pipe.raw\n"
            "ref,NA,NA\nref,1,a\ncur,null,b\ncur,2.5,\ncur,,None\n")
    ds = load_csv(MAP, text)
    score = ds.columns["system.score"]
    assert score.dtype == np.float64
    assert list(present(score)) == [False, True, False, True, False]
    assert list(score[[1, 3]]) == [1.0, 2.5]
    assert ds.warnings == [
        "column 'system.score': 2 missing-token cells loaded as missing"]
    # in a categorical column a token is a label like any other
    assert list(ds.columns["pipe.raw"]) == ["NA", "a", "b", "", "None"]


def test_resolve_column_direct_and_proxy():
    ds = load_csv(MAP, CSV)
    assert resolve_column(ds, MAP, "system.features") == "pipe.out"
    assert resolve_column(ds, MAP, "pipe.out") == "pipe.out"
    # random node resolves through its measure edge to the proxy column
    assert resolve_column(ds, MAP, "env.world") == "pipe.out"
    assert resolve_column(ds, MAP, "system.score") == "system.score"
    assert resolve_column(ds, MAP, "pipe.raw") == "pipe.raw"


def test_view_matrix_shapes_and_exclusions():
    ds = load_csv(MAP, CSV)
    t = view_matrix(ds, MAP, View.system(), "ref")
    # node names stay view-local; data is sourced from canonical columns
    assert t.nodes == ("system.features", "system.score")
    assert np.count_nonzero(t.rows) == 2
    assert list(ds.columns[t.columns["system.score"]][t.rows]) == [0.1, 0.2]
    assert list(ds.columns[t.columns["system.features"]][t.rows]) == [1.0, 2.0]

    sub = view_matrix(ds, MAP, View.subsystem("pipe"), "cur")
    assert sub.nodes == ("pipe.out", "pipe.raw")
    assert sub.excluded == ()

    env = view_matrix(ds, MAP, View.environment(), "cur")
    assert env.nodes == ("env.world",)    # via the measure proxy


def test_view_matrix_drops_incomplete_rows():
    text = ("window,system.features,system.score\n"
            "ref,1.0,0.1\nref,,0.2\ncur,3.0,\ncur,4.0,0.4\n")
    ds = load_csv(MAP, text)
    ref = view_matrix(ds, MAP, View.system(), "ref")
    cur = view_matrix(ds, MAP, View.system(), "cur")
    assert np.count_nonzero(ref.rows) == np.count_nonzero(cur.rows) == 1
    assert list(ds.columns[cur.columns["system.features"]][cur.rows]) == [4.0]


def test_view_matrix_excludes_all_missing_columns():
    text = ("window,system.features,system.score\n"
            "ref,1.0,\nref,2.0,\ncur,3.0,\ncur,4.0,\n")
    ds = load_csv(MAP, text)
    t = view_matrix(ds, MAP, View.system(), "ref")
    assert t.nodes == ("system.features",)
    assert "system.score" in t.excluded


def test_view_matrix_no_data():
    ds = load_csv(MAP, "window,system.score\nref,1\ncur,2\n")
    with pytest.raises(NoDataForView):
        view_matrix(ds, MAP, View.subsystem("pipe"), "ref")


def _assert_same_dataset(got, want):
    assert list(got.columns) == list(want.columns)
    for name, col in want.columns.items():
        assert got.columns[name].dtype == col.dtype, name
        if col.dtype == object:
            assert list(got.columns[name]) == list(col), name
        else:    # bit for bit: -0.0 is not 0.0
            assert got.columns[name].tobytes() == col.tobytes(), name
    assert got.window.dtype == want.window.dtype
    assert list(got.window) == list(want.window)
    assert got.warnings == want.warnings


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_generated_dataset_equals_csv_round_trip(scenario):
    cfg = ScenarioConfig(scenario, n=300, seed=3)
    _assert_same_dataset(generate(cfg).dataset,
                         load_csv(churn_map(), generate_csv(cfg)))


# -- invariance of the fitted mechanisms under layout-only changes ----------

_NUMBER = st.one_of(st.integers(-3, 3).map(str),
                    st.floats(-5, 5, allow_nan=False).map(repr),
                    st.just(""))
_ROW = st.tuples(_NUMBER, _NUMBER, st.sampled_from(["a", "b", "c", ""]))
_VIEWS = (View.system(), View.subsystem("pipe"), View.environment())


def _fitted(header, rows):
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    ds = load_csv(MAP, text)
    out = []
    for view in _VIEWS:
        try:
            mech = fit_mechanisms(MAP, ds, view, k=4)
        except NoDataForView:
            out.append(None)
            continue
        out.append((mech.nodes, repr(mech.disc),
                    {q: {w: t.tobytes() for w, t in mech.tables[q].items()}
                     for q in mech.nodes}))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fitted_mechanisms_ignore_data_layout(data):
    ref = data.draw(st.lists(_ROW, min_size=1, max_size=25))
    cur = data.draw(st.lists(_ROW, min_size=1, max_size=25))
    header = ["window", "system.features", "system.score", "pipe.raw"]
    rows = [("ref",) + r for r in ref] + [("cur",) + r for r in cur]
    want = _fitted(header, rows)

    order = data.draw(st.permutations(range(len(header))))
    assert _fitted([header[i] for i in order],
                   [tuple(r[i] for i in order) for r in rows]) == want

    renamed = ["pipe.out" if h == "system.features" else h for h in header]
    assert _fitted(renamed, rows) == want

    shuffled = ([("ref",) + r for r in data.draw(st.permutations(ref))]
                + [("cur",) + r for r in data.draw(st.permutations(cur))])
    assert _fitted(header, shuffled) == want


# -- cutting the text into columns: the C reader or csv.reader -------------

def _csv_reader_columns(text):
    """Header and columns as ``csv.reader`` reads the text, with the load's
    ``csv.Error``, empty-input and ragged-row errors."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:    # NUL before Python 3.11, say
        raise DatasetError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise MissingWindowColumn("empty CSV input")
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise RaggedRow(f"row {n}: {len(row)} cells, header has {len(rows[0])}")
    return rows[0], [[row[i] for row in rows[1:]] for i in range(len(rows[0]))]


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:    # the error itself is the outcome to compare
        return type(exc), str(exc)


def test_quoted_cell_loads_like_unquoted_text(tmp_path):
    # quoting a cell changes nothing but the path its text goes through
    quoted = CSV.replace("ref,1.0,0.1,a", 'ref,"1.0",0.1,"a"')
    assert dataset._columns(MAP, quoted) == _csv_reader_columns(CSV)
    _assert_same_dataset(load_csv(MAP, quoted), load_csv(MAP, CSV))
    # a comma inside quotes is part of its cell; every other cell loads as unquoted
    p = tmp_path / "comma.csv"
    p.write_text(CSV.replace("cur,4.0,0.4,b", 'cur,4.0,0.4,"b,c"'), encoding="utf-8")
    ds, clean = load_csv(MAP, str(p)), load_csv(MAP, CSV)
    assert list(ds.columns["pipe.raw"]) == ["a", "b", "a", "b,c"]
    cells = {q: ["a", "b", "a", "b,c"] if q == "pipe.raw" else col
             for q, col in clean.columns.items()}
    _assert_same_dataset(ds, dataset.build_dataset(MAP, cells.items(), clean.window))


def test_window_masks_are_built_once_and_read_only():
    ds = load_csv(MAP, CSV)
    for label in ("ref", "cur"):
        mask = ds.window_mask(label)
        assert mask is ds.window_mask(label)
        assert not mask.flags.writeable
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, ds.window == label)
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    with pytest.raises(BadWindowLabel):
        ds.window_mask("now")


def test_equal_labels_share_one_str():
    # label columns hold interned cells, so no cell string of the text outlives
    # the load; number cells are never interned, also where the first is a token
    with mock.patch.object(dataset.sys, "intern", wraps=dataset.sys.intern) as intern:
        ds = load_csv(MAP, "window,pipe.raw,system.score,system.features\n"
                           "ref,ab,1,NA\nref,ab,2,0.5\ncur,ab,3,1.5\ncur,cd,4,2.5\n")
    raw, window = ds.columns["pipe.raw"], ds.window
    assert list(raw) == ["ab", "ab", "ab", "cd"]
    assert raw[0] is raw[1] is raw[2]
    assert window[0] is window[1] and window[2] is window[3]
    assert ds.columns["pipe.out"].dtype == np.float64
    assert {call.args[0] for call in intern.call_args_list} == {"ref", "cur", "ab", "cd"}


# -- the C reader: one np.loadtxt call, or csv.reader unchanged -------------

MOD_MAP = parse_map("""\
map mod
view system
  data features
  data score
  edge features -> score
view subsystem pipe
  data raw boundary
  modulator knob
  data out
  edge raw -> out
  edge knob -> out
equiv pipe.out = system.features
""")


def _load_both(text, system_map=MOD_MAP):
    """The load's outcome, whether it took the C reader, and the outcome
    of the load with the text cut by ``_csv_reader_columns``."""
    typed = []
    c_reader = dataset._loadtxt_columns
    with mock.patch.object(dataset, "_loadtxt_columns",
                           side_effect=lambda *args: typed.append(c_reader(*args)) or typed[-1]):
        got = _outcome(lambda t: load_csv(system_map, t), text)
    with mock.patch.object(dataset, "_columns",
                           side_effect=lambda _, source: _csv_reader_columns(dataset._text(source))):
        want = _outcome(lambda t: load_csv(system_map, t), text)
    return got, any(typed), want


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _assert_same_dataset(got, want)


_ATOMS = ["\x00", "\x1c", "\x1f", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000", "\u0661",
          "_", "#", "'", ";", " ", "\t", "e", ".", "-", "+", "nan", "inf", "1e999", "1", "7", "0",
          "é", "a"]
_JUNK = st.one_of(st.sampled_from(("",) + MISSING_TOKENS),
                  st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=4).map("".join))
_NUMBER = st.one_of(st.integers(-99, 99).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: f"{x:.6g}"))
_LABEL = st.sampled_from(["a", "b", "ab", "é", "x y", " c", "d\t", "#", "q1", "v10"])
_NAMES = ["system.features", "system.score", "pipe.raw", "pipe.knob", "pipe.out", "other"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_c_reader_equals_csv_reader(data):
    names = data.draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    styles = [data.draw(st.sampled_from([_NUMBER] * 4 + [_LABEL] * 2 + [_JUNK])) for _ in names]
    n_rows = data.draw(st.integers(2, 8), label="rows")
    dirty = data.draw(st.sampled_from([None] * 8 + list(range(n_rows))), label="dirty row")
    window_at = data.draw(st.integers(0, len(names)), label="window column")
    rows = []
    for r in range(n_rows):
        cells = [data.draw(_JUNK if r == dirty else style) for style in styles]
        cells.insert(window_at, data.draw(st.sampled_from([WINDOWS[r % 2]] * 15 + ["now"])))
        ragged = data.draw(st.sampled_from([0] * 14 + [-1, 1]), label="cells past the header's")
        cells = cells[:len(cells) + ragged] + [data.draw(_JUNK) for _ in range(ragged)]
        rows.append(",".join(cells))
    lines = [",".join(names[:window_at] + ["window"] + names[window_at:])] + rows
    if data.draw(st.sampled_from([False] * 7 + [True]), label="whitespace line"):
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from([" ", "\t"])))
    for _ in range(data.draw(st.sampled_from([0] * 6 + [1, 2]), label="blank lines")):
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    end = data.draw(ends, label="line end")
    mixed = data.draw(st.sampled_from([False] * 3 + [True]), label="mixed line ends")
    text = "".join(line + (data.draw(ends) if mixed else end) for line in lines[:-1]) + lines[-1]
    text += "".join(data.draw(st.lists(ends, max_size=2), label="trailing line ends"))
    got, _, want = _load_both(text)
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("cells, column, dtype, c_reader", [
    (("1", "1_0", "2"), "system.score", np.float64, False),   # float reads 1_0, numpy not
    (("1", "1\x1c", "2"), "system.score", object, False),     # numpy strips \x1c, float not
    (("1", "#", "2"), "system.score", object, False),         # a cell, not a comment
    (("a", "#", "b"), "pipe.raw", object, True),
    (("1", "\xa01", "2"), "system.score", np.float64, True),    # both strip U+00A0
    (("v1", "v" * 40, "v2"), "pipe.knob", object, True),      # longer than any first-row label
    (("v1", "v" * 7, "v2"), "pipe.knob", object, True),       # the longest key never cut
    (("v1", "v" * 8, "v2"), "pipe.knob", object, True),       # a key that may be cut
    (("v1", "v" * 9, "v2"), "pipe.knob", object, True),       # a cut key
    (("ab", "abcdefgh", "abcdefghi"), "pipe.raw", object, True),  # equal when cut to 8 bytes
    (("v" * 8, "v1", "v2"), "pipe.knob", object, True),       # no key holds the first cell
])
def test_c_reader_named_cells(cells, column, dtype, c_reader):
    rows = "".join(f"{w},{c},{i}\n" for i, (w, c) in enumerate(zip(("ref", "ref", "cur"), cells)))
    got, took_c_reader, want = _load_both(f"window,{column},system.features\n{rows}")
    _assert_same_outcome(got, want)
    assert list(got.columns[MOD_MAP.canonical_name(column)]) == (
        list(cells) if dtype is object else [1.0, float(cells[1]), 2.0])
    assert got.columns[MOD_MAP.canonical_name(column)].dtype == dtype
    assert took_c_reader is c_reader


_CELL = st.sampled_from(("", "a", "B", "b", "é", "日本", "x y") + MISSING_TOKENS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_label_codes_are_alike_on_every_route_and_fit_like_their_cells(data):
    # a first row whose labels sort last, so first-seen order is not sorted order,
    # and a cur row with labels that ref never holds
    rows = [(w,) + data.draw(st.tuples(_CELL, _CELL))
            for w in data.draw(st.lists(st.sampled_from(WINDOWS), min_size=2, max_size=14))]
    rows = [("ref", "zz", data.draw(st.sampled_from(["zz", ""])))] + rows + [("cur", "ω", "ω")]
    text = "window,pipe.raw,pipe.knob\n" + "".join(",".join(r) + "\n" for r in rows)
    got, took_c_reader, _ = _load_both(text)
    assert took_c_reader
    quoted = load_csv(MOD_MAP, text.replace("ref,zz,", 'ref,"zz",', 1))
    window, raw, knob = (np.array(c, dtype=object) for c in zip(*rows))
    cells = {"pipe.raw": raw, "pipe.knob": knob}
    built = dataset.build_dataset(MOD_MAP, cells.items(), window)
    for ds in (quoted, built):
        assert ds.window.labels == got.window.labels == ("cur", "ref")
        assert np.array_equal(ds.window.codes, got.window.codes)
        for q in cells:
            assert ds.columns[q].labels == got.columns[q].labels
            assert np.array_equal(ds.columns[q].codes, got.columns[q].codes)
    ref = window == "ref"
    for q, column in got.columns.items():
        q_cells = cells[q]
        assert column.labels == tuple(sorted(set(q_cells)))
        assert np.array_equal(present(column), q_cells != "")
        keep = present(column) & ref
        bins = fit_variable(column[keep], 8, column[present(column) & ~ref])
        assert bins.categories == tuple(sorted(set(q_cells[keep])))
        index = {c: i for i, c in enumerate(bins.categories)}
        assert bins.encode(column).tolist() == [index.get(c, len(index)) for c in q_cells]


@pytest.mark.parametrize("text, n", [
    ("window,system.score\nref,1\n \ncur,2\n", 3),     # a whitespace-only line
    ("\nwindow\nref\ncur\n", 2),                       # a blank header line
    ("window,system.score\nref\ncur\n", 2),            # every row short of the header
])
def test_line_without_the_header_cells_is_ragged(text, n):
    got, _, want = _load_both(text)
    assert got == want
    assert got[0] is RaggedRow and got[1].startswith(f"row {n}: 1 cells")


@pytest.mark.parametrize("text", [
    CSV,
    CSV.replace("\n", "\r\n"),
    generate_csv(ScenarioConfig("S2", n=300, seed=3)),
])
def test_clean_text_is_read_in_one_loadtxt_call(text):
    system_map = MAP if text.startswith("window,system.features") else churn_map()
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got, took_c_reader, want = _load_both(text, system_map)
    assert took_c_reader and loadtxt.call_count == 1
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("text", [CSV, "window,system.score\nref,1\n \ncur,2\n"])
def test_loadtxt_reading_fewer_rows_hands_the_lines_to_csv_reader(text):
    # np.loadtxt may skip a whitespace-only line; the row count catches any dropped row
    loadtxt = np.loadtxt
    with mock.patch.object(np, "loadtxt", side_effect=lambda *a, **k: loadtxt(*a, **k)[:-1]) as short:
        got, took_c_reader, want = _load_both(text)
    assert short.call_count == 1 and not took_c_reader
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("dirt", ["", "NA", "None"])
def test_late_missing_cell_loads_through_csv_reader(dirt):
    # a numeric cell that fails np.loadtxt only at the last row
    text = "window,system.score\n" + "ref,1\n" * 50 + f"cur,2\ncur,{dirt}\n"
    got, took_c_reader, want = _load_both(text)
    assert not took_c_reader
    _assert_same_outcome(got, want)
    assert got.columns["system.score"].dtype == np.float64
    assert np.isnan(got.columns["system.score"][-1])


def test_label_fields_hold_whole_cells():
    # a long first-row label sizes no field: its field holds integer codes, and
    # the short window labels are 8-byte keys
    rows = [f"ref,{'u' * 300},1"] + [f"{w},ab,{i}" for i, w in enumerate(["ref", "cur"] * 500)]
    text = "window,pipe.raw,system.score\n" + "\n".join(rows) + "\n"
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got, took_c_reader, want = _load_both(text)
    assert took_c_reader
    assert [f for f, _ in loadtxt.call_args.args[1].fields.values()] == [
        np.dtype("S8"), np.dtype(np.intp), np.dtype(np.float64)]
    _assert_same_outcome(got, want)
    assert got.columns["pipe.raw"][0] == "u" * 300


def test_churn_label_fields_are_read_as_keys_in_one_call():
    # the window and the 6 categorical columns of a churn file are short ASCII labels
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got, took_c_reader, want = _load_both(generate_csv(ScenarioConfig("S2", n=300, seed=3)),
                                              churn_map())
    assert took_c_reader and loadtxt.call_count == 1
    kinds = [f for f, _ in loadtxt.call_args.args[1].fields.values()]
    assert kinds.count(np.dtype("S8")) == 7 and kinds.count(np.dtype(np.float64)) == len(kinds) - 7
    _assert_same_outcome(got, want)


_S8, _CODES = np.dtype("S8"), np.dtype(np.intp)


@pytest.mark.parametrize("rows, calls", [
    # a key that fills 8 bytes sends its column, and only it, to one more read, as codes
    ("ref,ab,k\ncur,abcdefghi,k\nref,abcdefgh,k2\ncur,ab,k\n",
     [([_S8, _S8, _S8], None), ([_CODES], [1])]),
    ("ref,ab,k\ncur,abcdefghi,k\nref,ab,kkkkkkkk\ncur,ab,k\n",
     [([_S8, _S8, _S8], None), ([_CODES, _CODES], [1, 2])]),
    ("ref,abcdefgh,k\ncur,ab,k2\n", [([_S8, _CODES, _S8], None)]),   # a first-row cell of 8
    ("ref,é,k\ncur,ab,k2\n", [([_CODES, _CODES, _CODES], None)]),    # text that is not ASCII
])
def test_label_fields_are_keys_only_where_no_key_may_be_cut(rows, calls):
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got, took_c_reader, want = _load_both("window,pipe.raw,pipe.knob\n" + rows)
    assert took_c_reader
    assert [([f for f, _ in np.dtype(call.args[1]).fields.values()], call.kwargs.get("usecols"))
            for call in loadtxt.call_args_list] == calls
    _assert_same_outcome(got, want)
    for q, c in (("pipe.raw", 1), ("pipe.knob", 2)):
        assert got.columns[q].labels == tuple(sorted({r.split(",")[c] for r in rows.split()}))


def test_load_holds_about_one_copy_of_the_file(tmp_path):
    # the text is dropped before its lines are parsed, and label cells are
    # interned as read: the traced peak is a small multiple of the file
    p = tmp_path / "s2.csv"
    p.write_text(generate_csv(ScenarioConfig("S2", n=5000, seed=3)), encoding="utf-8")
    system_map = churn_map()
    load_csv(system_map, str(p))
    held, loadtxt = [], np.loadtxt

    def traced_loadtxt(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return loadtxt(*args, **kwargs)

    tracemalloc.start()
    try:
        with mock.patch.object(np, "loadtxt", traced_loadtxt):
            load_csv(system_map, str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert peak < 4.5 * size
    assert held[0] < 2 * size     # the lines alone, about 1.5x; with the text, 2.5x


def test_object_cells_mixing_numbers_and_text_read_as_their_str():
    # 1 and "1" are one label, as they would be in CSV text
    window = np.array(["ref", "ref", "cur", "cur"], dtype=object)
    mixed = np.array([1, "1", 2.5, "a"], dtype=object)
    ds = dataset.build_dataset(MOD_MAP, [("pipe.raw", mixed), ("pipe.knob", mixed.copy())],
                               window)
    for q in ("pipe.raw", "pipe.knob"):
        assert ds.columns[q].labels == ("1", "2.5", "a")
        assert list(ds.columns[q]) == ["1", "1", "2.5", "a"]
