"""Pattern matching and the AQ1 -> AQ2 -> AQ3 traversal on simulated
scenarios."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlsysmap import report as report_mod
from mlsysmap import traversal
from mlsysmap.attribution import AttributionResult, Classification
from mlsysmap.dataset import (MISSING_TOKENS, LabelColumn, WindowedDataset, build_dataset,
                              load_csv, present)
from mlsysmap.errors import InsufficientData, UnknownAlert, ViewMismatch
from mlsysmap.mechanisms import shift_test
from mlsysmap.msmformat import parse_map
from mlsysmap.traversal import (
    Pattern,
    TraceConfig,
    detect_alerts,
    match_pattern,
    trace,
)

from mlsysmap.simulator import EXPECTED_TRACES, ScenarioConfig, churn_map, generate_csv

from helpers import cells_of, simulate


def result_on(view, target, nodes, kind="concentrated"):
    """Synthetic AttributionResult with mass placed by hand."""
    phi = {n: 1.0 / (i + 1) for i, n in enumerate(nodes)}
    total = sum(phi.values()) or 1.0
    shares = {n: abs(x) / total for n, x in phi.items()}
    return AttributionResult(
        view=view, target=target, players=tuple(nodes), phi=phi, total=total,
        shares=shares, mode="exact",
        classification=Classification(kind, tuple(nodes) if kind != "negligible" else ()),
    )


# ---------------------------------------------------------------------------
# pattern matching

def test_ap1_patterns(churn):
    system = churn.system_view()
    conditional = result_on(system, "system.promotion_sent", ["system.churn_score"])
    assert match_pattern(system, churn, conditional) is Pattern.AP1_1
    root = result_on(system, "system.promo_ranking", ["system.activity_features"])
    assert match_pattern(system, churn, root) is Pattern.AP1_2


def test_ap2_patterns(churn):
    pipe = churn.view("pipeline")
    mod = result_on(pipe, "pipeline.activity_features", ["pipeline.parse_quality"])
    assert match_pattern(pipe, churn, mod) is Pattern.AP2_1
    internal = result_on(pipe, "pipeline.activity_features", ["pipeline.daily_counts"])
    assert match_pattern(pipe, churn, internal) is Pattern.AP2_2
    boundary = result_on(pipe, "pipeline.activity_features", ["pipeline.activity_events"])
    assert match_pattern(pipe, churn, boundary) is Pattern.AP2_3


def test_ap3_patterns(churn):
    env = churn.environment_view()
    upstream = result_on(env, "env.user_activity", ["env.quality_of_service"])
    assert match_pattern(env, churn, upstream) is Pattern.AP3_1
    self_mass = result_on(env, "env.user_activity", ["env.user_activity"])
    assert match_pattern(env, churn, self_mass) is Pattern.AP3_2
    # mass on a non-ancestor of the implicated variable is also undecidable
    sideways = result_on(env, "env.quality_of_service", ["env.user_demographics"])
    assert match_pattern(env, churn, sideways) is Pattern.AP3_2


def test_distributed_and_negligible_patterns(churn):
    system = churn.system_view()
    spread = result_on(system, "system.promotion_sent",
                       ["system.churn_score", "system.promo_ranking"],
                       kind="distributed")
    assert match_pattern(system, churn, spread) is Pattern.DISTRIBUTED
    nil = result_on(system, "system.promotion_sent", [], kind="negligible")
    assert match_pattern(system, churn, nil) is Pattern.NEGLIGIBLE


def test_match_pattern_rejects_view_mismatch(churn):
    system = churn.system_view()
    r = result_on(system, "system.promo_ranking", ["system.activity_features"])
    with pytest.raises(ViewMismatch):
        match_pattern(churn.view("pipeline"), churn, r)


def test_pattern_values_are_stable():
    assert Pattern.AP1_1.value == "AP1.1"
    assert Pattern.AP2_3.value == "AP2.3"
    assert Pattern.AP3_2.value == "AP3.2"


# ---------------------------------------------------------------------------
# end-to-end traces on simulated scenarios

def first_child_path(report):
    pats, step = [], report.root
    while True:
        pats.append(step.pattern)
        if not step.children:
            return tuple(pats)
        step = step.children[0]


def test_trace_s2_modulator_root_cause():
    out = simulate("S2")
    report = trace(out.system_map, out.dataset, "system.promo_ranking")
    assert first_child_path(report) == (Pattern.AP1_2, Pattern.AP2_1)
    assert report.root.children[0].view.name == "pipeline"
    assert any(v.kind == "root-cause" and v.node == "pipeline.parse_quality"
               for v in report.verdicts)


def test_trace_s4_external_cause():
    out = simulate("S4")
    report = trace(out.system_map, out.dataset, "system.promo_ranking")
    assert first_child_path(report) == (Pattern.AP1_2, Pattern.AP2_3, Pattern.AP3_1)
    assert any(v.kind == "external" and v.node == "env.quality_of_service"
               for v in report.verdicts)
    # environment nodes without data are surfaced as potential hidden causes
    assert "env.promotion_received" in report.excluded_environment


def test_node_left_out_of_a_fit_is_named():
    # blank in every cur row, the churn score has no data to fit in that window
    header, *lines = generate_csv(ScenarioConfig("S2", n=1000, seed=3)).splitlines()
    names = header.split(",")
    window, at = names.index("window"), names.index("serving.churn_score_out")
    rows = [line.split(",") for line in lines]
    for row in rows:
        if row[window] == "cur":
            row[at] = ""
    system_map = churn_map()
    ds = load_csv(system_map, "\n".join([header] + [",".join(row) for row in rows]) + "\n")
    report = trace(system_map, ds, "system.promo_ranking")
    assert "system.churn_score" not in report.root.result.players
    assert report.excluded_environment == ("env.promotion_received",)
    assert report.warnings == (
        "system: nodes without usable data in a window, left out of the fit: "
        "system.churn_score",)


THREE_MAP = parse_map("map three\nview system\n  data a\n  data b\n  data x\n  edge a -> b\n")


def test_node_blank_in_one_window_cuts_no_row_of_the_other():
    # no change between the windows; x is blank in every cur row and in the
    # ref rows where a > 0.5, so ref rows cut on x would fake a shift of a
    rng = np.random.default_rng(0)
    lines = ["window,system.a,system.b,system.x"]
    for w in ("ref", "cur"):
        a, noise, x = rng.random(5000), rng.normal(0, 0.1, 5000), rng.random(5000)
        lines += (f"{w},{ai!r},{ai + ni!r},{'' if w == 'cur' or ai > 0.5 else repr(xi)}"
                  for ai, ni, xi in zip(a.tolist(), noise.tolist(), x.tolist()))
    report = trace(THREE_MAP, load_csv(THREE_MAP, "\n".join(lines) + "\n"), "system.b")
    assert report.root.result.players == ("system.a", "system.b")
    assert [v.kind for v in report.verdicts] == ["negligible"]


def test_trace_s0_is_negligible():
    out = simulate("S0")
    report = trace(out.system_map, out.dataset, "system.promo_ranking")
    assert report.root.pattern is Pattern.NEGLIGIBLE
    assert [v.kind for v in report.verdicts] == ["negligible"]
    assert report.root.result.total < 2e-3


def test_trace_eager_environment_adds_branches():
    out = simulate("S4")
    config = TraceConfig(eager_environment=True)
    report = trace(out.system_map, out.dataset, "system.promo_ranking", config)
    aqs = [c.aq for c in report.root.children]
    assert aqs.count(2) == 1 and aqs.count(3) >= 1


def detect_and_trace(scenario, data=None):
    """``detect_alerts`` and the trace JSON of the scenario's first expected
    alert, on the simulated dataset or on ``data`` in its place."""
    out = simulate(scenario, n=1000)
    data = out.dataset if data is None else data
    alert = EXPECTED_TRACES[scenario][0]
    return (detect_alerts(out.system_map, data),
            report_mod.render_json(report_mod.trace_document(
                "churn", trace(out.system_map, data, alert), TraceConfig())))


@functools.lru_cache(maxsize=None)
def baseline(scenario):
    return detect_and_trace(scenario)


def rebuilt(scenario, remap):
    """The scenario's dataset with every column passed through ``remap``."""
    out = simulate(scenario, n=1000)
    ds = out.dataset
    return build_dataset(out.system_map,
                         [(q, remap(q, col)) for q, col in ds.columns.items()], ds.window)


@pytest.mark.parametrize("scenario", ["S2", "S4", "S6"])
def test_detect_and_trace_invariant_to_monotone_relabeling(scenario):
    # bins are quantiles and sorted categories, so a strictly increasing
    # map of every number and an order-keeping relabeling change nothing
    relabeled = rebuilt(scenario, lambda q, col: (
        3.0 * np.cbrt(col) + 7.0 if not isinstance(col, LabelColumn)
        else LabelColumn.of(["lbl_" + v for v in cells_of(col)])))
    assert detect_and_trace(scenario, relabeled) == baseline(scenario)


def is_label(text):
    """A cell that stays a category label: not a number, missing token
    or the empty missing marker."""
    try:
        float(text)
    except ValueError:
        return text not in MISSING_TOKENS + ("",)
    return False


def drawn_renaming(scenario, data, keep_order):
    """The scenario's dataset with each category renamed to a drawn label,
    in the categories' sorted order when ``keep_order``, else in any."""
    renames = {}
    for q, col in sorted(simulate(scenario, n=1000).dataset.columns.items()):
        if isinstance(col, LabelColumn):
            old = sorted(set(cells_of(col[present(col)])))
            new = data.draw(st.lists(st.text(min_size=1, max_size=6).filter(is_label),
                                     min_size=len(old), max_size=len(old), unique=True),
                            label=q)
            renames[q] = {"": "", **dict(zip(old, sorted(new) if keep_order else new))}
    return rebuilt(scenario, lambda q, col: LabelColumn.of(
        [renames[q][v] for v in cells_of(col)]) if q in renames else col)


@st.composite
def increasing_map(draw):
    """Knot fractions, piece slopes and an offset of a strictly increasing
    piecewise-linear map."""
    n = draw(st.integers(0, 3))
    knots = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n,
                                 unique=True)))
    slopes = draw(st.lists(st.floats(0.01, 100.0), min_size=n + 1, max_size=n + 1))
    return knots, slopes, draw(st.floats(-100.0, 100.0))


def apply_map(col, knots, slopes, offset):
    lo, hi = np.nanmin(col), np.nanmax(col)
    xp = np.concatenate([[lo - 1.0], lo + (hi - lo) * np.array(knots), [hi + 1.0]])
    fp = offset + np.concatenate([[0.0], np.cumsum(np.diff(xp) * slopes)])
    return np.interp(col, xp, fp)


@pytest.mark.parametrize("scenario", ["S2", "S4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_detect_and_trace_invariant_to_piecewise_linear_maps(scenario, data):
    numeric = {q: col for q, col in simulate(scenario, n=1000).dataset.columns.items()
               if not isinstance(col, LabelColumn)}
    maps = {q: data.draw(increasing_map(), label=q) for q in sorted(numeric)}
    for q, col in numeric.items():
        values = np.unique(col[present(col)])
        assume(np.all(np.diff(apply_map(values, *maps[q])) > 0))
    mapped = rebuilt(scenario, lambda q, col: apply_map(col, *maps[q]) if q in maps else col)
    assert detect_and_trace(scenario, mapped) == baseline(scenario)


@pytest.mark.parametrize("scenario", ["S2", "S4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_detect_and_trace_invariant_to_order_preserving_renames(scenario, data):
    renamed = drawn_renaming(scenario, data, keep_order=True)
    assert detect_and_trace(scenario, renamed) == baseline(scenario)


@pytest.mark.parametrize("scenario", ["S2", "S4"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_alerts_and_verdicts_invariant_to_any_category_renaming(scenario, data):
    """Category order sets table layouts and so the last digits of φ, but
    no alert and no verdict depends on which label a category has."""
    renamed = drawn_renaming(scenario, data, keep_order=False)
    out = simulate(scenario, n=1000)
    alert = EXPECTED_TRACES[scenario][0]

    def outcome(ds):
        alerts = sorted(a.node for a in detect_alerts(out.system_map, ds))
        verdicts = [(v.kind, v.node, v.view) for v in trace(out.system_map, ds, alert).verdicts]
        return alerts, verdicts

    assert outcome(renamed) == outcome(out.dataset)


@functools.lru_cache(maxsize=None)
def scenario_csv(scenario):
    return generate_csv(ScenarioConfig(scenario, n=5000, seed=0))


def blank_cells(text, seed, share=0.01):
    """CSV text with about ``share`` of the cells of every column except
    ``window`` emptied, at random places drawn from ``seed``."""
    header, *lines = text.removesuffix("\n").split("\n")
    rows = np.array([line.split(",") for line in lines], dtype=object)
    blank = np.random.default_rng(seed).random(rows.shape) < share
    blank[:, header.split(",").index("window")] = False
    rows[blank] = ""
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize("scenario", sorted(EXPECTED_TRACES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_few_missing_cells_never_flip_a_verdict(scenario, seed):
    """Missing cells drop rows from a view's complete cases; at 1% of the
    cells of n = 5000 rows per window that must not change what is found."""
    alert, path, kind, node = EXPECTED_TRACES[scenario]
    system_map = churn_map()
    ds = load_csv(system_map, blank_cells(scenario_csv(scenario), seed))
    assert not any(present(col).all() for col in ds.columns.values())
    assert alert in [a.node for a in detect_alerts(system_map, ds)]
    report = trace(system_map, ds, alert)
    assert first_child_path(report) == path
    assert any(v.kind == kind and v.node == node for v in report.verdicts)


def test_trace_rejects_bad_alerts():
    out = simulate("S0")
    with pytest.raises(UnknownAlert):
        trace(out.system_map, out.dataset, "system.nope")
    with pytest.raises(UnknownAlert):
        trace(out.system_map, out.dataset, "pipeline.parse_quality")
    with pytest.raises(UnknownAlert):
        trace(out.system_map, out.dataset, "env.user_activity")



def test_trace_rejects_unknown_mode():
    out = simulate("S2")
    with pytest.raises(ValueError, match="Exact"):
        trace(out.system_map, out.dataset, "system.promo_ranking",
              TraceConfig(mode="Exact"))


def test_trace_alert_without_data_is_insufficient():
    out = simulate("S2")
    columns = {k: v for k, v in out.dataset.columns.items()
               if k != "serving2.promo_out"}
    ds = WindowedDataset(columns=columns, window=out.dataset.window)
    with pytest.raises(InsufficientData, match="system.promo_ranking"):
        trace(out.system_map, ds, "system.promo_ranking")

def test_detect_alerts_s1_vs_s0():
    s1 = simulate("S1")
    alerts = detect_alerts(s1.system_map, s1.dataset, alpha=0.01, B=200)
    names = [a.node for a in alerts]
    assert "system.outreach_decision" in names
    assert all(a.p_value <= 0.01 for a in alerts)
    assert names == sorted(names, key=lambda n: (
        next(a.p_value for a in alerts if a.node == n), n))

    s0 = simulate("S0")
    assert detect_alerts(s0.system_map, s0.dataset, alpha=0.01, B=200) == []


def test_detect_skips_a_node_without_a_column():
    s1 = simulate("S1")
    columns = {k: v for k, v in s1.dataset.columns.items() if k != "serving2.promo_out"}
    ds = WindowedDataset(columns=columns, window=s1.dataset.window)
    with pytest.raises(InsufficientData, match="no data column for 'system.promo_ranking'"):
        shift_test(ds, s1.system_map, "system.promo_ranking")
    everything = detect_alerts(s1.system_map, s1.dataset, alpha=1.0, B=100)
    assert "system.promo_ranking" in [a.node for a in everything]
    assert detect_alerts(s1.system_map, ds, alpha=1.0, B=100) == [
        a for a in everything if a.node != "system.promo_ranking"]


# ---------------------------------------------------------------------------
# routing on hand-placed attribution mass

PIN_CORE = """\
map pin

view system
  data extra
  data feat
  data orphan
  data rank
  data score
  edge extra -> score
  edge feat -> score
  edge orphan -> score
  edge score -> rank

view subsystem pipe
  data raw boundary
  data clean
  data out
  modulator knob
  edge raw -> clean
  edge clean -> out
  edge knob -> out

view subsystem pipe2
  data inlet boundary
  data out2
  edge inlet -> out2

view subsystem scorer
  data score_out

equiv pipe.out = system.feat
equiv pipe2.out2 = system.extra
equiv scorer.score_out = system.score
"""

PIN_MAP = PIN_CORE + """
view environment
  random up
  random act
  random side
  edge up -> act

measure env.act -> system.feat
measure env.side -> scorer.score_out
"""

PIN_CSV = "window,system.feat\nref,1\ncur,2\n"


def pinned_trace(monkeypatch, plan, alert="system.score", config=TraceConfig(),
                 map_text=PIN_MAP):
    """Trace with mass placed by hand: ``plan`` maps (view name, target) to
    (classification kind, nodes); any other step is negligible."""
    system_map = parse_map(map_text)

    def fake_attribute(mech, target, **_):
        kind, nodes = plan.get((mech.view.name, target), ("negligible", ()))
        return result_on(mech.view, target, list(nodes), kind=kind)

    monkeypatch.setattr(traversal, "fit_mechanisms",
                        lambda m, ds, view, **_: SimpleNamespace(view=view, excluded=()))
    monkeypatch.setattr(traversal, "attribute", fake_attribute)
    return trace(system_map, load_csv(system_map, PIN_CSV), alert, config)


def test_distributed_mass_opens_one_branch_per_node(monkeypatch):
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("distributed", ("system.feat", "system.extra")),
    })
    assert report.root.pattern is Pattern.DISTRIBUTED
    assert [(c.aq, c.view.name, c.target) for c in report.root.children] == [
        (2, "pipe", "pipe.out"), (2, "pipe2", "pipe2.out2")]
    assert report.warnings == ()


def test_distributed_mass_beyond_max_branches_warns(monkeypatch):
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("distributed",
                                     ("system.feat", "system.extra", "system.orphan")),
    }, config=TraceConfig(max_branches=1))
    assert [c.view.name for c in report.root.children] == ["pipe"]
    assert report.warnings == (
        "system: distributed mass, branches not expanded: system.extra, system.orphan",)


def test_environment_branches_beyond_max_branches_warn(monkeypatch):
    # two measured sources behind one feature: both the boundary hand-off
    # and the eager environment steps keep one and name the other
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.feat",)),
        ("pipe", "pipe.out"): ("concentrated", ("pipe.raw",)),
    }, config=TraceConfig(max_branches=1, eager_environment=True),
        map_text=PIN_MAP + "measure env.up -> system.feat\n")
    pipe, eager = report.root.children
    assert [(c.view.name, c.target) for c in pipe.children] == [("env", "env.act")]
    assert (eager.view.name, eager.target) == ("env", "env.act")
    assert report.warnings == (
        "pipe: environment sources, branches not expanded: env.up",
        "system: environment sources, branches not expanded: env.up")


def test_environment_step_notes_non_ancestral_mass(monkeypatch):
    def env_step(node):
        report = pinned_trace(monkeypatch, {
            ("system", "system.score"): ("concentrated", ("system.feat",)),
            ("pipe", "pipe.out"): ("concentrated", ("pipe.raw",)),
            ("env", "env.act"): ("concentrated", (node,)),
        })
        pipe = report.root.children[0]
        assert pipe.pattern is Pattern.AP2_3 and pipe.children[0].view.name == "env"
        (env,) = pipe.children
        assert env.aq == 3 and env.target == "env.act"
        return env

    sideways = env_step("env.side")
    assert sideways.pattern is Pattern.AP3_2
    assert sideways.note == "non-ancestral mass"
    assert [(v.kind, v.node) for v in sideways.verdicts] == [("undetermined", "env.side")]
    assert sideways.verdicts[0].detail.startswith(
        "mass on a non-ancestor of the implicated variable;")
    self_mass = env_step("env.act")
    assert self_mass.pattern is Pattern.AP3_2 and self_mass.note is None
    assert [(v.kind, v.node) for v in self_mass.verdicts] == [("undetermined", "env.act")]
    assert self_mass.verdicts[0].detail.startswith(
        "mass on the implicated variable itself;")
    upstream = env_step("env.up")
    assert upstream.pattern is Pattern.AP3_1 and upstream.note is None
    assert [(v.kind, v.node) for v in upstream.verdicts] == [("external", "env.up")]


def test_text_report_lines_for_no_alerts_and_for_a_step_note(monkeypatch):
    quiet = report_mod.detect_document("m", [], 0.01, 100, 0, [])
    assert report_mod.render_text(quiet) == "map: m\nalerts: none\n"
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.feat",)),
        ("pipe", "pipe.out"): ("concentrated", ("pipe.raw",)),
        ("env", "env.act"): ("concentrated", ("env.side",)),
    })
    lines = report_mod.render_text(
        report_mod.trace_document("pin", report, TraceConfig())).splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("      AQ3 [Environment]"))
    assert lines[head + 1] == "        note: non-ancestral mass"


def test_undetermined_when_no_subsystem_produces_the_node(monkeypatch):
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.orphan",)),
    })
    assert report.root.pattern is Pattern.AP1_2
    assert report.root.children == []
    assert [(v.kind, v.node, v.detail) for v in report.verdicts] == [
        ("undetermined", "system.orphan", "no subsystem view produces 'system.orphan'")]


def test_undetermined_when_boundary_has_no_environment_view(monkeypatch):
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.feat",)),
        ("pipe", "pipe.out"): ("concentrated", ("pipe.raw",)),
    }, map_text=PIN_CORE)
    pipe = report.root.children[0]
    assert pipe.pattern is Pattern.AP2_3 and pipe.children == []
    assert [(v.kind, v.node, v.detail) for v in report.verdicts] == [
        ("undetermined", "pipe.raw",
         "boundary reached but no environment view is modeled")]


def test_undetermined_when_boundary_has_no_measured_proxy(monkeypatch):
    report = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.extra",)),
        ("pipe2", "pipe2.out2"): ("concentrated", ("pipe2.inlet",)),
    })
    pipe2 = report.root.children[0]
    assert pipe2.pattern is Pattern.AP2_3 and pipe2.children == []
    assert [(v.kind, v.node, v.detail) for v in report.verdicts] == [
        ("undetermined", "pipe2.inlet",
         "no measured environment proxy for the boundary")]


def test_eager_environment_steps_only_under_a_root(monkeypatch):
    eager = TraceConfig(eager_environment=True)
    root = pinned_trace(monkeypatch, {
        ("system", "system.score"): ("concentrated", ("system.feat",)),
    }, config=eager)
    assert root.root.pattern is Pattern.AP1_2
    assert [(c.aq, c.view.name, c.target) for c in root.root.children] == [
        (2, "pipe", "pipe.out"), (3, "env", "env.act")]
    conditional = pinned_trace(monkeypatch, {
        ("system", "system.rank"): ("concentrated", ("system.score",)),
    }, alert="system.rank", config=eager)
    assert conditional.root.pattern is Pattern.AP1_1
    assert [(c.aq, c.view.name) for c in conditional.root.children] == [
        (2, "scorer")]
