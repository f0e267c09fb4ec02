"""CSV loading, equivalence unification, column typing, and per-view
complete-case tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsysmap.dataset import load_csv, present, resolve_column, view_matrix
from mlsysmap.errors import (
    BadWindowLabel,
    DuplicateEquivalenceColumn,
    EmptyWindow,
    MissingWindowColumn,
    NoDataForView,
    RaggedRow,
)
from mlsysmap.mapcore import View
from mlsysmap.mechanisms import fit_mechanisms
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
    assert t.n_rows == 2
    assert list(t.columns["system.score"]) == [0.1, 0.2]
    assert list(t.columns["system.features"]) == [1.0, 2.0]

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
    assert ref.n_rows == 1 and cur.n_rows == 1
    assert list(cur.columns["system.features"]) == [4.0]


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
        else:
            np.testing.assert_array_equal(got.columns[name], col, err_msg=name)
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
