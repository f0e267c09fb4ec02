"""Discretization, mechanism fitting, exact/sampled inference, divergences,
and the re-split shift test.

Exact inference is checked against a brute-force joint-enumeration oracle
that shares no code with variable elimination.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsysmap.dataset import load_csv
from mlsysmap.errors import (
    EmptyTable,
    InsufficientData,
    LengthMismatch,
    NoDataForView,
    NotNormalized,
    StateSpaceTooLarge,
)
from mlsysmap.mapcore import View
from mlsysmap.mechanisms import (
    UNSEEN,
    CategoryList,
    NumericBins,
    divergence,
    fit_mechanisms,
    fit_variable,
    jsd,
    sample_marginal,
    shift_test,
    target_marginal,
    total_variation,
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
    bins = fit_variable(np.array([0.0, 1.0, 2.0, 3.0]), k=2)
    assert isinstance(bins, NumericBins)
    assert bins.edges == (1.5,)
    assert bins.n_states == 2
    assert list(bins.encode(np.array([0.0, 1.0, 2.0, 3.0]))) == [0, 0, 1, 1]


def test_numeric_bins_deduplicate_tied_quantiles():
    bins = fit_variable(np.array([1.0] * 10 + [2.0]), k=8)
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
    bins = fit_variable(np.array(["1", "2", "1"], dtype=object), k=4)
    assert bins == CategoryList(("1", "2"))


def test_categories_come_from_reference_only():
    bins = fit_variable(["a", "b"], k=4,
                        extra_values=np.array(["c"], dtype=object))
    assert isinstance(bins, CategoryList)
    assert bins.categories == ("a", "b")
    assert bins.labels() == ("a", "b", UNSEEN)
    assert list(bins.encode(np.array(["a", "c", "b"], dtype=object))) == [0, 2, 1]


def test_category_encode_matches_non_string_values():
    bins = CategoryList(("1", "2"))
    assert list(bins.encode(np.array([1, 2, 3]))) == [0, 1, 2]
    assert list(bins.encode(np.array(["2", "1"], dtype=object))) == [1, 0]


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
    mech = fit_mechanisms(CHAIN_MAP, ds, View.system(), k=8, alpha=1.0)
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


def test_empty_table_rejected():
    from mlsysmap.dataset import ViewTable
    from mlsysmap.mechanisms import fit_discretization
    empty = ViewTable(View.system(), "ref", (), {}, (), 0)
    with pytest.raises(EmptyTable):
        fit_discretization(empty, 8)


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


def test_state_space_limit():
    rng = np.random.default_rng(3)
    mech = random_mechanism_set(rng, n_nodes=3, max_states=4, p_edge=1.0)
    with pytest.raises(StateSpaceTooLarge):
        target_marginal(mech, {}, mech.nodes[-1], limit=7)


def test_planned_elimination_is_bit_identical_to_reference():
    rng = np.random.default_rng(2025)
    for _ in range(40):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(2, 9)))
        for target in mech.nodes:
            for _ in range(3):
                assignment = {q: ("cur" if rng.random() < 0.5 else "ref")
                              for q in mech.nodes}
                got = target_marginal(mech, assignment, target)
                want = reference_target_marginal(mech, assignment, target)
                assert np.array_equal(got, want)


def test_cached_plan_is_per_state_limit():
    def fresh():
        rng = np.random.default_rng(3)
        return random_mechanism_set(rng, n_nodes=3, max_states=4, p_edge=1.0)

    mech = fresh()
    target = mech.nodes[-1]
    want = reference_target_marginal(mech, {}, target)
    with pytest.raises(StateSpaceTooLarge) as ref_err:
        reference_target_marginal(mech, {}, target, limit=7)
    # default limit first: its plan must not serve the limit-7 call
    assert np.array_equal(target_marginal(mech, {}, target), want)
    for _ in range(2):
        with pytest.raises(StateSpaceTooLarge) as err:
            target_marginal(mech, {}, target, limit=7)
        assert str(err.value) == str(ref_err.value)
    # limit 7 first: its cached failure must not block the default limit
    mech = fresh()
    with pytest.raises(StateSpaceTooLarge):
        target_marginal(mech, {}, target, limit=7)
    assert np.array_equal(target_marginal(mech, {}, target), want)


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
# divergences

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


def test_total_variation():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.2)


def test_divergence_dispatch():
    p, q = [0.5, 0.5], [0.9, 0.1]
    assert divergence(p, q, "jsd") == jsd(p, q)
    assert divergence(p, q, "tv") == total_variation(p, q)
    with pytest.raises(ValueError):
        divergence(p, q, "hellinger")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
def test_jsd_properties(a, b):
    n = min(len(a), len(b))
    p = np.array(a[:n]) / sum(a[:n])
    q = np.array(b[:n]) / sum(b[:n])
    d = jsd(p, q)
    assert 0.0 <= d <= LN2 + 1e-12
    assert d == jsd(q, p)           # bitwise symmetric
    assert jsd(p, p) == 0.0


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


def test_shift_test_drops_non_finite_cells():
    # a single nan cell must not collapse the bins and hide the shift
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 30, ["0"] * 59 + ["nan"]))
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0)
    assert r.p_value == pytest.approx(1 / 201)
    ds = load_csv(ONE_MAP, _csv(["0", "1"] * 30, ["0"] * 29 + ["inf"] * 30))
    with pytest.raises(InsufficientData):
        shift_test(ds, ONE_MAP, "system.a", B=200)


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


def test_shift_test_total_variation():
    rng = np.random.default_rng(12)
    ref = [f"{v:.3f}" for v in rng.normal(0, 1, 80)]
    cur = [f"{v:.3f}" for v in rng.normal(0.5, 1, 70)]
    ds = load_csv(ONE_MAP, _csv(ref, cur))
    bins, ref_codes, cur_codes = _window_histograms(ds)
    want = total_variation(np.bincount(ref_codes, minlength=bins.n_states) / 80,
                           np.bincount(cur_codes, minlength=bins.n_states) / 70)
    r = shift_test(ds, ONE_MAP, "system.a", B=200, seed=0, div="tv")
    assert r.statistic == want
    assert 0 < r.p_value <= 1
    with pytest.raises(ValueError):
        shift_test(ds, ONE_MAP, "system.a", B=200, div="hellinger")


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
