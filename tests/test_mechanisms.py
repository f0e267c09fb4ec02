"""Discretization, mechanism fitting, exact/sampled inference, JSD, and
the re-split shift test.

Exact inference is checked against a brute-force joint-enumeration oracle
that shares no code with variable elimination.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsysmap.dataset import LabelColumn, load_csv
from mlsysmap.errors import (
    InsufficientData,
    LengthMismatch,
    NoDataForView,
    NotNormalized,
    StateSpaceTooLarge,
)
from mlsysmap import mechanisms
from mlsysmap.mapcore import View
from mlsysmap.mechanisms import (
    CategoryList,
    NumericBins,
    fit_discretization,
    fit_mechanisms,
    fit_variable,
    jsd,
    jsd_rows,
    sample_marginal,
    shift_test,
    target_marginal,
)
from mlsysmap.msmformat import parse_map

from helpers import brute_force_marginal, random_mechanism_set, reference_target_marginal

LN2 = math.log(2.0)


ONE_MAP = parse_map("map one\nview system\n  data a\n")


def _csv(ref_vals, cur_vals):
    rows = ["window,system.a"]
    rows += [f"ref,{v}" for v in ref_vals]
    rows += [f"cur,{v}" for v in cur_vals]
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# discretization

def test_numeric_quantile_bins():
    bins = fit_variable(np.array([0.0, 1.0, 2.0, 3.0]), k=2, extra_values=np.array([]))
    assert isinstance(bins, NumericBins)
    assert bins.edges == (1.5,)
    assert bins.n_states == 2
    assert list(bins.encode(np.array([0.0, 1.0, 2.0, 3.0]))) == [0, 0, 1, 1]


@pytest.mark.parametrize("n_edges", [0, 1, 15])
def test_numeric_encode_counts_the_edges_at_or_below_each_value(n_edges):
    rng = np.random.default_rng(n_edges)
    edges = np.sort(rng.choice(np.linspace(-3.0, 3.0, 61), n_edges, replace=False))
    values = np.concatenate([rng.normal(size=200), edges, np.nextafter(edges, -np.inf),
                             [-1e300, 1e300]])
    got = NumericBins(tuple(edges.tolist())).encode(values)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(edges, values, side="right"))


def test_numeric_bins_deduplicate_tied_quantiles():
    bins = fit_variable(np.array([1.0] * 10 + [2.0]), k=8, extra_values=np.array([]))
    assert len(bins.edges) < 8
    assert bins.edges == tuple(sorted(set(bins.edges)))


def test_pooled_quantiles_cover_both_windows():
    ref = np.arange(10, dtype=float)
    cur = np.arange(100, 110, dtype=float)
    bins = fit_variable(ref, k=2, extra_values=cur)
    # the median of the pooled sample separates the windows
    assert 9 < bins.edges[0] < 100


def test_modulator_is_always_categorical():
    # a modulator column loads as text, so its numbers bin as categories
    ds = load_csv(BACKOFF_MAP, "window,sub.m,sub.out\nref,1,1\nref,2,2\n"
                               "ref,1,3\ncur,2,4\n")
    mech = fit_mechanisms(BACKOFF_MAP, ds, View.subsystem("sub"))
    assert mech.disc["sub.m"] == CategoryList(("1", "2"))
    assert isinstance(mech.disc["sub.out"], NumericBins)
    ref = LabelColumn.of(np.array(["1", "2", "1"], dtype=object))
    assert fit_variable(ref, k=4, extra_values=ref[:0]) == CategoryList(("1", "2"))


def test_categories_come_from_reference_only():
    bins = fit_variable(LabelColumn.of(["a", "b"]), k=4, extra_values=LabelColumn.of(["c"]))
    assert isinstance(bins, CategoryList)
    assert bins.categories == ("a", "b")
    assert bins.n_states == 3
    assert list(bins.encode(LabelColumn.of(["a", "c", "b"]))) == [0, 2, 1]


def test_category_encode_matches_non_string_values():
    bins = CategoryList(("1", "2"))
    assert list(bins.encode(LabelColumn.of(np.array([1, 2, 3])))) == [0, 1, 2]
    assert list(bins.encode(LabelColumn.of(np.array(["2", "1"], dtype=object)))) == [1, 0]


def test_quantile_edges_ignore_non_finite_values():
    # non-finite cells load as missing, so they never reach the quantiles
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 30, ["0"] * 59 + ["nan"]))
    mech = fit_mechanisms(ONE_MAP, ds, View.system(), k=2)
    assert mech.disc["system.a"] == NumericBins((0.0,))
    ds = load_csv(ONE_MAP, _csv(["0", "1", "inf"], ["2", "3", "-inf"]))
    mech = fit_mechanisms(ONE_MAP, ds, View.system(), k=8)
    assert all(math.isfinite(e) for e in mech.disc["system.a"].edges)
    # a column with no finite cell has no data at all
    ds = load_csv(ONE_MAP, _csv(["nan"] * 40, ["inf"] * 40))
    with pytest.raises(NoDataForView):
        fit_mechanisms(ONE_MAP, ds, View.system())
    with pytest.raises(InsufficientData):
        shift_test(ds, ONE_MAP, "system.a", B=200)


def test_non_finite_cells_do_not_fake_a_mechanism_change():
    values = [str(v) for v in range(40)]
    ds = load_csv(ONE_MAP, _csv(values, values + ["nan"] * 4))
    assert ds.warnings == ["column 'system.a': 4 non-finite cells loaded as missing"]
    mech = fit_mechanisms(ONE_MAP, ds, View.system())
    assert np.array_equal(mech.tables["system.a"]["ref"], mech.tables["system.a"]["cur"])


# ---------------------------------------------------------------------------
# mechanism fitting

CHAIN_MAP = parse_map("""\
map chain
view system
  data a
  data b
  edge a -> b
""")

CHAIN_CSV = (
    "window,system.a,system.b\n"
    "ref,x,u\nref,x,v\nref,y,u\n"
    "cur,x,v\ncur,y,v\ncur,y,u\n"
)


def test_fit_mechanisms_hand_computed():
    ds = load_csv(CHAIN_MAP, CHAIN_CSV)
    mech = fit_mechanisms(CHAIN_MAP, ds, View.system(), k=8)
    assert mech.nodes == ("system.a", "system.b")
    assert mech.parents["system.b"] == ("system.a",)
    assert mech.topo == ("system.a", "system.b")
    # root: counts + Laplace(1) over {x, y, unseen}
    np.testing.assert_allclose(mech.tables["system.a"]["ref"],
                               np.array([3, 2, 1]) / 6.0)
    np.testing.assert_allclose(mech.tables["system.a"]["cur"],
                               np.array([2, 3, 1]) / 6.0)
    tab = mech.tables["system.b"]["ref"]
    assert tab.shape == (3, 3)
    np.testing.assert_allclose(tab[0], np.array([2, 2, 1]) / 5.0)  # a = x
    np.testing.assert_allclose(tab[1], np.array([2, 1, 1]) / 4.0)  # a = y
    # unseen parent config: empty in both windows, pooled is empty too,
    # so smoothing yields the uniform row
    np.testing.assert_allclose(tab[2], np.ones(3) / 3.0)
    # every row is a probability vector with positive entries
    for w in ("ref", "cur"):
        t = mech.tables["system.b"][w]
        assert np.all(t > 0)
        np.testing.assert_allclose(t.sum(axis=-1), 1.0)


BACKOFF_MAP = parse_map("""\
map backoff
view system
  data s
view subsystem sub
  data out
  modulator m
  edge m -> out
equiv sub.out = system.s
""")


def test_pooled_backoff_keeps_child_mechanism_unchanged():
    # the modulator takes a brand-new value in the current window; the
    # child's conditional must not absorb the change
    rows = ["window,sub.m,sub.out"]
    rows += [f"ref,old,{v}" for v in ("p", "p", "q", "p")]
    rows += [f"cur,new,{v}" for v in ("q", "q", "p", "q")]
    ds = load_csv(BACKOFF_MAP, "\n".join(rows) + "\n")
    mech = fit_mechanisms(BACKOFF_MAP, ds, View.subsystem("sub"))
    assert not np.array_equal(mech.tables["sub.m"]["ref"], mech.tables["sub.m"]["cur"])
    assert np.array_equal(mech.tables["sub.out"]["ref"], mech.tables["sub.out"]["cur"])


def test_fit_discretization_rejects_bad_inputs():
    ds = load_csv(CHAIN_MAP, CHAIN_CSV)
    with pytest.raises(ValueError):
        fit_mechanisms(CHAIN_MAP, ds, View.system(), k=1)


def test_table_size_is_checked_before_counting(monkeypatch):
    # system.b has 3 parent configurations (x, y, unseen) and 3 states: 9 cells
    ds = load_csv(CHAIN_MAP, CHAIN_CSV)
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 9)
    assert fit_mechanisms(CHAIN_MAP, ds, View.system()).tables["system.b"]["ref"].shape == (3, 3)

    bincount = np.bincount

    def no_oversized_counts(x, minlength=0):
        assert minlength <= 8, "counted into a table past the limit"
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 8)
    monkeypatch.setattr(np, "bincount", no_oversized_counts)
    with pytest.raises(StateSpaceTooLarge, match=r"'system\.b' given system\.a has 9 cells"):
        fit_mechanisms(CHAIN_MAP, ds, View.system())


SHARED_MAP = parse_map("""\
map shared
view system
  data s
  data t
  edge s -> t
view subsystem sub
  data knob
  data out
  edge knob -> out
equiv sub.out = system.s
""")


def test_a_column_is_binned_alike_in_every_view_and_its_shift_test():
    # blanks in system.t drop rows from the system view only, the high ones
    # of its parent; the bins of the column behind system.s and sub.out
    # must not move with them
    rng = np.random.default_rng(5)
    s = np.round(np.concatenate([rng.normal(0, 1, 200), rng.normal(0.5, 1, 200)]), 3)
    t = np.where(s > 0.8, "", np.round(rng.normal(size=400), 3).astype(str))
    knob = np.round(rng.normal(size=400), 3)
    window = ["ref"] * 200 + ["cur"] * 200
    ds = load_csv(SHARED_MAP, "window,system.s,system.t,sub.knob\n" + "".join(
        f"{w},{a},{b},{c}\n" for w, a, b, c in zip(window, s, t, knob)))
    system = fit_mechanisms(SHARED_MAP, ds, View.system(), k=4)
    sub = fit_mechanisms(SHARED_MAP, ds, View.subsystem("sub"), k=4)
    bins = sub.disc["sub.out"]
    assert system.disc["system.s"] == bins
    assert bins == fit_variable(s[:200], 4, s[200:])
    want = jsd(np.bincount(bins.encode(s[:200]), minlength=bins.n_states) / 200,
               np.bincount(bins.encode(s[200:]), minlength=bins.n_states) / 200)
    assert shift_test(ds, SHARED_MAP, "system.s", B=200, k=4).statistic == want


def test_fit_discretization_is_kept_per_column_and_bin_count():
    ds = load_csv(ONE_MAP, _csv(range(40), range(20, 60)))
    four = fit_discretization(ds, "system.a", 4)
    assert all(a is b for a, b in zip(fit_discretization(ds, "system.a", 4), four))
    eight = fit_discretization(ds, "system.a", 8)
    assert (four[0].n_states, eight[0].n_states) == (4, 8)
    assert fit_discretization(ds, "system.a", 4)[0] is four[0]
    bins, codes = eight
    assert codes.dtype == np.uint8 and not codes.flags.writeable
    assert codes.tolist() == bins.encode(ds.columns["system.a"]).tolist()
    with pytest.raises(ValueError, match="bin count must be >= 2, got 1$"):
        fit_discretization(ds, "system.a", 1)


# ---------------------------------------------------------------------------
# exact inference vs brute force

def test_root_marginal_equals_table_row():
    rng = np.random.default_rng(0)
    mech = random_mechanism_set(rng, n_nodes=3)
    root = mech.topo[0]
    for w in ("ref", "cur"):
        got = target_marginal(mech, {q: w for q in mech.nodes}, root)
        np.testing.assert_array_equal(got, mech.tables[root][w])


def test_target_marginal_matches_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        mech = random_mechanism_set(rng)
        target = str(rng.choice(mech.nodes))
        assignment = {q: ("cur" if rng.random() < 0.5 else "ref")
                      for q in mech.nodes}
        got = target_marginal(mech, assignment, target)
        want = brute_force_marginal(mech, assignment, target)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(got.sum() - 1.0) <= 1e-9


def test_target_marginal_is_deterministic():
    rng = np.random.default_rng(5)
    mech = random_mechanism_set(rng, n_nodes=5)
    a = dict.fromkeys(mech.nodes[:2], "cur")
    p1 = target_marginal(mech, a, mech.nodes[-1])
    p2 = target_marginal(mech, a, mech.nodes[-1])
    np.testing.assert_array_equal(p1, p2)


def test_unknown_target_rejected():
    mech = random_mechanism_set(np.random.default_rng(1), n_nodes=2)
    with pytest.raises(KeyError):
        target_marginal(mech, {}, "system.nope")


def test_state_space_limit(monkeypatch):
    """A plan past the limit raises on every call, with the reference's
    message."""
    rng = np.random.default_rng(3)
    mech = random_mechanism_set(rng, n_nodes=3, max_states=4, p_edge=1.0)
    target = mech.nodes[-1]
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 7)
    with pytest.raises(StateSpaceTooLarge) as ref_err:
        reference_target_marginal(mech, {}, target)
    for _ in range(2):
        with pytest.raises(StateSpaceTooLarge) as err:
            target_marginal(mech, {}, target)
        assert str(err.value) == str(ref_err.value)


def test_planned_elimination_is_bit_identical_to_reference():
    # up to 9 states, as nodes reach at --bins 8 (8 categories and the unseen bucket)
    rng = np.random.default_rng(2025)
    for max_states in [3] * 40 + [9] * 40:
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(2, 9)), max_states=max_states)
        for target in mech.nodes:
            for _ in range(3):
                assignment = {q: ("cur" if rng.random() < 0.5 else "ref")
                              for q in mech.nodes}
                got = target_marginal(mech, assignment, target)
                want = reference_target_marginal(mech, assignment, target)
                assert np.array_equal(got, want)


def test_plan_sums_out_axis_zero_in_min_degree_order():
    """Every step's victim leads its axes, and victims come in min-degree
    order with lexicographic tie-breaks ("n10" sorts before "n2")."""
    mech = random_mechanism_set(np.random.default_rng(1), n_nodes=12, p_edge=0.35)
    plan = mechanisms.elimination_plan(mech, "system.n11")
    assert [axis for _, _, axis, _ in plan.steps] == [0] * len(plan.steps)
    assert plan.order == tuple(f"system.{v}" for v in (
        "n2", "n1", "n4", "n9", "n7", "n3", "n0", "n10", "n5", "n6", "n11"))


def test_many_state_marginals_match_the_reference_to_rounding():
    """Victims of 8 or 9 states are summed slab by slab in order, so the
    marginals stay within rounding of the reference (which sums its slabs
    in the same order, so they agree to the bit as well)."""
    rng = np.random.default_rng(9)
    for _ in range(30):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(3, 7)), max_states=9)
        for target in mech.nodes:
            assignment = {q: ("cur" if rng.random() < 0.5 else "ref") for q in mech.nodes}
            got = target_marginal(mech, assignment, target)
            want = reference_target_marginal(mech, assignment, target)
            assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("limit", [0, math.inf])
def test_batched_rows_equal_target_marginal(limit):
    """Every row of every block, with the last 0, 1 or all leaves batched,
    is bit-identical to ``target_marginal`` under its key's assignment,
    whether the runs keep no step result or every one."""
    rng = np.random.default_rng(47)
    kept = 0
    for _ in range(12):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(2, 7)),
                                    max_states=int(rng.integers(2, 10)))
        for target in mech.nodes:
            plan = mechanisms.elimination_plan(mech, target)
            leaves = [q for q, _ in plan.leaves]
            n = len(leaves)
            for j in sorted({0, 1, n}):
                runs = mechanisms.BatchedRuns(plan, j, limit)
                for block in range(1 << (n - j)):
                    rows = mechanisms.batched_marginals(runs, block)
                    assert rows.shape == (1 << j, mech.disc[target].n_states)
                    assert rows.flags.c_contiguous
                    for b, row in enumerate(rows):
                        key = block << j | b
                        assignment = {q: "cur" for i, q in enumerate(leaves)
                                      if key >> (n - 1 - i) & 1}
                        assert np.array_equal(row, target_marginal(mech, assignment, target))
                kept += len(runs.steps)
    assert (kept > 0) == (limit > 0)


# ---------------------------------------------------------------------------
# sampled inference

def test_sample_marginal_converges_and_is_seeded():
    rng = np.random.default_rng(6)
    mech = random_mechanism_set(rng, n_nodes=4)
    target = mech.nodes[-1]
    a = dict.fromkeys(mech.nodes[:1], "cur")
    exact = target_marginal(mech, a, target)
    s1 = sample_marginal(mech, a, target, 40_000, seed=9)
    s2 = sample_marginal(mech, a, target, 40_000, seed=9)
    np.testing.assert_array_equal(s1, s2)
    assert np.max(np.abs(s1 - exact)) < 0.02
    assert sample_marginal(mech, a, target, 1000, seed=10) is not None
    with pytest.raises(ValueError):
        sample_marginal(mech, a, target, 0, seed=0)


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence

def test_jsd_frozen_values():
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-15)
    assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
        0.75 * math.log(4.0 / 3.0), abs=1e-12)
    assert jsd([0.25, 0.75], [0.25, 0.75]) == 0.0


def test_jsd_input_validation():
    with pytest.raises(LengthMismatch):
        jsd([1.0], [0.5, 0.5])
    with pytest.raises(NotNormalized):
        jsd([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(NotNormalized):
        jsd([1.5, -0.5], [0.5, 0.5])


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 0.5],
                                 [-math.inf, 1.0]])
def test_jsd_rejects_non_finite_entries(bad):
    with pytest.raises(NotNormalized, match="non-finite"):
        jsd(bad, [0.5, 0.5])
    with pytest.raises(NotNormalized, match="non-finite"):
        jsd([0.5, 0.5], bad)


def test_jsd_names_the_shape_of_non_vectors():
    with pytest.raises(LengthMismatch, match=r"1-D vectors expected.*\(1, 2\)"):
        jsd([[0.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(LengthMismatch, match="lengths differ"):
        jsd([1.0], [0.5, 0.5])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=12),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=12))
@example([0.5, 1.0, 1.0], [0.5, 1.0, 0.9999999999999999])   # summed to -2.2e-17
def test_jsd_properties(a, b):
    n = min(len(a), len(b))
    p = np.array(a[:n]) / sum(a[:n])
    q = np.array(b[:n]) / sum(b[:n])
    d = jsd(p, q)
    assert 0.0 <= d <= LN2 + 1e-12
    assert d == jsd(q, p)           # bitwise symmetric
    assert jsd(p, p) == 0.0
    # the unchecked kernel scores each row of a stack as jsd scores it alone
    rows = jsd_rows(np.stack([p, q, p]), np.stack([q, p, p]))
    assert rows.tolist() == [d, jsd(q, p), jsd(p, p)]


def masked_jsd_rows(p, q):
    """``jsd_rows`` with every quotient taken under the ``a > 0`` mask."""
    m = (p + q) * 0.5

    def kl(a):
        terms = np.ones_like(a)
        np.divide(a, m, out=terms, where=a > 0)
        return (np.log(terms) * a).sum(axis=-1)

    return np.maximum(0.5 * kl(p) + 0.5 * kl(q), 0.0)


@pytest.mark.parametrize("counts, positive", [
    ([40, 35, 30, 25, 20, 15, 10, 5], False), ([400, 300, 200, 100], True),
    ([1, 0, 6, 3, 900, 2], False), ([500, 501], True)])
def test_jsd_rows_equal_the_masked_divide(counts, positive):
    """Rows with and without zero entries score bit for bit as under the
    masked divide: a shift test's ``(1001, k)`` re-splits at once, which
    take the plain divide only when no entry is zero, and row by row."""
    pooled = np.array(counts)
    n_ref = int(pooled.sum()) // 2
    splits = np.random.default_rng(4).multivariate_hypergeometric(pooled, n_ref, size=1000)
    splits = np.vstack([pooled // 2, splits])
    p, q = splits / n_ref, (pooled - splits) / (pooled.sum() - n_ref)
    assert bool((p > 0).all() and (q > 0).all()) == positive
    assert jsd_rows(p, q).tobytes() == masked_jsd_rows(p, q).tobytes()
    assert all(jsd_rows(a, b).tobytes() == masked_jsd_rows(a, b).tobytes() for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# re-split shift test

def test_shift_test_detects_disjoint_windows():
    ds = load_csv(ONE_MAP, _csv(["0"] * 40, ["1"] * 40))
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0)
    assert r.node == "system.a"
    assert r.p_value == pytest.approx(1 / 201)
    assert r.statistic > 0.5


def test_shift_test_null_on_identical_windows():
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 20, ["0", "1"] * 20))
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_shift_test_is_seed_deterministic():
    rng = np.random.default_rng(11)
    ref = [f"{v:.3f}" for v in rng.normal(0, 1, 60)]
    cur = [f"{v:.3f}" for v in rng.normal(0.3, 1, 60)]
    ds = load_csv(ONE_MAP, _csv(ref, cur))
    r1 = shift_test(ds, ONE_MAP, "system.a", B=150, seed=3)
    r2 = shift_test(ds, ONE_MAP, "system.a", B=150, seed=3)
    assert (r1.statistic, r1.p_value) == (r2.statistic, r2.p_value)


def test_shift_test_guards():
    ds = load_csv(ONE_MAP, _csv(["0"] * 10, ["1"] * 10))
    with pytest.raises(InsufficientData):
        shift_test(ds, ONE_MAP, "system.a", B=200)
    big = load_csv(ONE_MAP, _csv(["0"] * 40, ["1"] * 40))
    with pytest.raises(ValueError):
        shift_test(big, ONE_MAP, "system.a", B=99)


@pytest.mark.parametrize("k", [1, 0, -3])
def test_shift_test_refuses_fewer_than_two_bins(k):
    """As ``fit_mechanisms`` does, and before any column is looked up."""
    ds = load_csv(ONE_MAP, _csv(["0"] * 40, ["1"] * 40))
    for node in ("system.a", "system.absent"):
        with pytest.raises(ValueError, match=f"bin count must be >= 2, got {k}$"):
            shift_test(ds, ONE_MAP, node, B=200, k=k)


def test_shift_test_drops_non_finite_cells():
    # a single nan cell must not collapse the bins and hide the shift
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 30, ["0"] * 59 + ["nan"]))
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0)
    assert r.p_value == pytest.approx(1 / 201)
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 30, ["0"] * 29 + ["inf"] * 30))
    with pytest.raises(InsufficientData):
        shift_test(ds, ONE_MAP, "system.a", B=200)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=60),
       st.lists(st.integers(-3, 3).map(float), max_size=60), st.integers(2, 16))
def test_quantile_edges_equal_those_of_the_unsorted_values(ref, cur, k):
    # quantiles read only order statistics, so sorting first moves no edge
    pooled = np.array(ref + cur)
    want = []
    for e in np.quantile(pooled, [i / k for i in range(1, k)]):
        if not want or e > want[-1]:
            want.append(float(e))
    bins = fit_variable(np.array(ref), k, extra_values=np.array(cur))
    assert list(bins.edges) == want
    # where -0.0 and 0.0 tie, a zero edge's sign may differ; it bins both alike
    if 0.0 in bins.edges:
        assert len(set(bins.encode(np.array([-0.0, 0.0])).tolist())) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40),
       st.lists(st.floats(-1e9, 1e9), max_size=40), st.integers(2, 16),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=20),
       st.lists(st.sampled_from("abcd"), max_size=20))
def test_an_empty_current_window_is_the_single_window_case(ref, cur, k, ref_cells, cur_cells):
    # numeric bins read the two windows' cells pooled, so an empty current
    # window bins the pooled cells alone; categories read the reference only
    ref, cur = np.array(ref), np.array(cur)
    pooled = np.concatenate([ref, cur])
    assert fit_variable(ref, k, cur).edges == fit_variable(pooled, k, ref[:0]).edges
    column = LabelColumn.of(ref_cells + cur_cells)
    ref_column, cur_column = column[:len(ref_cells)], column[len(ref_cells):]
    bins = fit_variable(ref_column, k, cur_column)
    assert bins == fit_variable(ref_column, k, ref_column[:0])
    assert bins.categories == tuple(sorted(set(ref_cells)))


def test_quantile_edges_equal_np_quantile_on_random_inputs():
    """The edges read off the sorted values equal np.quantile's, ties,
    integers, one value and magnitudes near 1e±300 included (a zero edge
    may differ in sign only, where -0.0 and 0.0 tie after the sort)."""
    rng = np.random.default_rng(12)
    for case in range(400):
        n = int(rng.choice([1, 2, 3, 7, 64, 1001]))
        pooled = [rng.normal(size=n), rng.integers(-3, 4, n).astype(float),
                  rng.integers(-5, 5, n), rng.normal(size=n) * 1e300,
                  rng.choice([-1e-300, 1e-300, 5e-324, 0.0, -0.0, 1e300, -1e300], n)][case % 5]
        k = int(rng.integers(2, 17))
        want = []
        for e in np.quantile(pooled, [i / k for i in range(1, k)]):
            if not want or e > want[-1]:
                want.append(float(e))
        assert list(fit_variable(pooled[: n // 2], k, extra_values=pooled[n // 2:]).edges) == want


def _window_histograms(ds, k=8):
    values = ds.columns["system.a"]
    ref = values[ds.window_mask("ref")]
    cur = values[ds.window_mask("cur")]
    bins = fit_variable(ref, k, extra_values=cur)
    return bins, bins.encode(ref), bins.encode(cur)


def _permutation_p_value(ds, B, seed):
    """Reference null: the pooled rows re-split one permutation at a time."""
    bins, ref_codes, cur_codes = _window_histograms(ds)
    n = bins.n_states

    def stat(a, b):
        return jsd(np.bincount(a, minlength=n) / len(a),
                   np.bincount(b, minlength=n) / len(b))

    observed = stat(ref_codes, cur_codes)
    pooled = np.concatenate([ref_codes, cur_codes])
    n_ref = len(ref_codes)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(B):
        perm = rng.permutation(pooled)
        if stat(perm[:n_ref], perm[n_ref:]) >= observed:
            hits += 1
    return (1 + hits) / (B + 1)


def _counts_csv(ref_counts, cur_counts):
    return _csv([str(v) for v, c in enumerate(ref_counts) for _ in range(c)],
                [str(v) for v, c in enumerate(cur_counts) for _ in range(c)])


def test_shift_test_agrees_with_permutation_loop():
    ds = load_csv(ONE_MAP, _counts_csv([30, 30, 30, 30], [44, 30, 24, 22]))
    want = _permutation_p_value(ds, B=2000, seed=1)
    assert 0.05 < want < 0.5            # a mild shift, far from either end
    got = shift_test(ds, ONE_MAP, "system.a", B=2000, seed=0).p_value
    assert abs(got - want) <= 0.03


def test_shift_test_statistic_is_window_jsd():
    rng = np.random.default_rng(12)
    ref = [f"{v:.3f}" for v in rng.normal(0, 1, 80)]
    cur = [f"{v:.3f}" for v in rng.normal(0.5, 1, 70)]
    ds = load_csv(ONE_MAP, _csv(ref, cur))
    bins, ref_codes, cur_codes = _window_histograms(ds)
    want = jsd(np.bincount(ref_codes, minlength=bins.n_states) / 80,
               np.bincount(cur_codes, minlength=bins.n_states) / 70)
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0)
    assert r.statistic == want
    assert 0 < r.p_value <= 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shift_test_ignores_row_order(data):
    values = st.integers(0, 4).map(str)
    ref = data.draw(st.lists(values, min_size=30, max_size=50))
    cur = data.draw(st.lists(values, min_size=30, max_size=50))
    rows = [("ref", v) for v in ref] + [("cur", v) for v in cur]
    shuffled = data.draw(st.permutations(rows))

    def result(rows):
        text = "window,system.a\n" + "".join(f"{w},{v}\n" for w, v in rows)
        r = shift_test(load_csv(ONE_MAP, text), ONE_MAP, "system.a", B=100, seed=5)
        return r.statistic, r.p_value

    assert result(shuffled) == result(rows)
