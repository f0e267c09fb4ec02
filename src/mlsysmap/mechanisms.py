"""Empirical mechanisms over a shared discretization, plus inference.

For one view and a windowed dataset this module fits, per node and per
window, a marginal probability vector (root nodes) or a conditional
probability table (nodes with parents), all over one shared
discretization. Exact marginals of any node under a per-node window
assignment are computed by variable elimination; a sampled fallback uses
ancestral sampling. Jensen-Shannon divergence (natural log) is the
default shift measure, with total variation available as an alternative.

Column types and missing cells are decided once, when the dataset is
built (see :mod:`mlsysmap.dataset`); here a float64 column is numeric and
an object column is categorical, and missing cells are dropped. Numeric
variables are binned on quantiles of both windows pooled, so a location
shift in the current window keeps parent-child conditionals expressible
instead of collapsing into a single edge bin. Categorical
variables keep the reference window's categories plus an "unseen" bucket.
Conditional rows for parent configurations with no observations in one
window fall back to the pooled fit: absent evidence, the mechanism is
assumed unchanged. This is what lets a brand-new modulator value show up
as a change of the modulator's own mechanism rather than of every
downstream table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dataset import ViewTable, WindowedDataset, present, resolve_column, view_matrix
from .errors import (
    EmptyTable,
    InsufficientData,
    LengthMismatch,
    NoDataForView,
    NotNormalized,
    StateSpaceTooLarge,
)
from .mapcore import SystemMap, View, ancestors

DEFAULT_BINS = 8
DEFAULT_ALPHA = 1.0
DEFAULT_STATE_LIMIT = 1_000_000
UNSEEN = "__unseen__"


# ---------------------------------------------------------------------------
# discretization

@dataclass(frozen=True)
class NumericBins:
    """Quantile bins for a numeric variable; interior edges only."""

    edges: tuple[float, ...]

    @property
    def n_states(self) -> int:
        return len(self.edges) + 1

    def encode(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.array(self.edges), values, side="right")


@dataclass(frozen=True)
class CategoryList:
    """Known categories (reference window), with a trailing unseen bucket."""

    categories: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.categories) + 1

    def encode(self, values: np.ndarray) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.categories)}
        unseen = len(self.categories)
        return np.array([index.get(str(v), unseen) for v in values], dtype=np.int64)

    def labels(self) -> tuple[str, ...]:
        return self.categories + (UNSEEN,)


VariableBins = Union[NumericBins, CategoryList]


def fit_variable(ref_values, k: int, extra_values=None) -> VariableBins:
    """Bins for one variable: pooled quantiles (numeric) or categories.

    A number array is numeric, anything else categorical; the values are
    the present cells of a typed column, so all numbers are finite.
    """
    ref_values = np.asarray(ref_values)
    if not np.issubdtype(ref_values.dtype, np.number):
        return CategoryList(tuple(sorted(set(map(str, ref_values)))))
    pooled = ref_values if extra_values is None else np.concatenate([ref_values, extra_values])
    qs = np.quantile(pooled, [i / k for i in range(1, k)])
    edges = []
    for e in qs:
        if not edges or e > edges[-1]:
            edges.append(float(e))
    return NumericBins(tuple(edges))


def fit_discretization(table: ViewTable, k: int,
                       cur_table: Optional[ViewTable] = None) -> dict[str, VariableBins]:
    """Fit bins for every node of a view table, shared by both windows.

    ``table`` is the reference window; when ``cur_table`` is given, bins
    cover the nodes of both tables and numeric quantiles are computed on
    both windows pooled (categories still come from the reference window
    only).
    """
    if k < 2:
        raise ValueError(f"bin count must be >= 2, got {k}")
    if table.n_rows == 0:
        raise EmptyTable("cannot fit a discretization on an empty table")
    cur = {} if cur_table is None else cur_table.columns
    return {
        q: fit_variable(table.columns[q], k, cur.get(q))
        for q in table.nodes if cur_table is None or q in cur
    }


# ---------------------------------------------------------------------------
# mechanism sets

@dataclass
class MechanismSet:
    """Fitted ref/cur mechanisms for the nodes of one view DAG.

    ``tables[node][window]`` has shape ``(*parent_states, child_states)``
    with parent axes in lexicographic parent order, and ``disc[node]`` is
    the node's binning, shared by both windows (``disc[node].n_states``
    is the table's last axis). Every row is a probability vector with
    strictly positive entries. Elimination plans
    built by ``target_marginal`` are cached here, so the tables are not
    to be replaced once inference has run.
    """

    view: View
    nodes: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]
    topo: tuple[str, ...]
    disc: dict[str, VariableBins]
    tables: dict[str, dict[str, np.ndarray]]
    alpha: float
    excluded: tuple[str, ...] = ()
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _smoothed(counts: np.ndarray, alpha: float) -> np.ndarray:
    t = counts + alpha
    return t / t.sum(axis=-1, keepdims=True)


def fit_mechanisms(system_map: SystemMap, ds: WindowedDataset, view: View,
                   k: int = DEFAULT_BINS, alpha: float = DEFAULT_ALPHA) -> MechanismSet:
    """Fit ref and cur mechanisms for one view over a shared discretization."""
    ref_t = view_matrix(ds, system_map, view, "ref")
    cur_t = view_matrix(ds, system_map, view, "cur")
    common = tuple(q for q in ref_t.nodes if q in set(cur_t.nodes))
    if not common:
        raise NoDataForView(f"no nodes with data in both windows for view '{view.name}'")
    excluded = tuple(sorted(set(ref_t.excluded) | set(cur_t.excluded)
                            | (set(ref_t.nodes) ^ set(cur_t.nodes))))

    disc = fit_discretization(ref_t, k, cur_t)

    graph = system_map.view_graph(view)
    in_set = set(common)
    parents = {q: tuple(p for p in graph.parents[q] if p in in_set) for q in common}
    topo = tuple(q for q in graph.topo if q in in_set)

    codes = {
        "ref": {q: disc[q].encode(ref_t.columns[q]) for q in common},
        "cur": {q: disc[q].encode(cur_t.columns[q]) for q in common},
    }

    tables: dict[str, dict[str, np.ndarray]] = {}
    for q in common:
        pa = parents[q]
        child_k = disc[q].n_states
        pa_dims = tuple(disc[p].n_states for p in pa)
        n_cfg = int(np.prod(pa_dims)) if pa else 1
        counts = {}
        for w in ("ref", "cur"):
            if pa:
                cfg = np.ravel_multi_index([codes[w][p] for p in pa], pa_dims)
            else:
                cfg = np.zeros(len(codes[w][q]), dtype=np.int64)
            flat = np.bincount(cfg * child_k + codes[w][q], minlength=n_cfg * child_k)
            counts[w] = flat.reshape(n_cfg, child_k).astype(float)
        pooled = counts["ref"] + counts["cur"]
        pooled_tab = _smoothed(pooled, alpha)
        tables[q] = {}
        for w in ("ref", "cur"):
            tab = _smoothed(counts[w], alpha)
            empty = counts[w].sum(axis=1) == 0
            if np.any(empty):
                tab[empty] = pooled_tab[empty]
            tables[q][w] = tab.reshape(pa_dims + (child_k,))

    return MechanismSet(
        view=view, nodes=common, parents=parents, topo=topo, disc=disc,
        tables=tables, alpha=alpha, excluded=excluded,
    )


# ---------------------------------------------------------------------------
# exact inference by variable elimination

@dataclass(frozen=True)
class _EliminationPlan:
    """Variable elimination for one target, fixed before any arithmetic.

    ``leaves[i]`` is the i-th ancestral node (sorted) with its ref and cur
    tables transposed to sorted-scope axis order. Each step multiplies the
    factors in ``slots`` left to right, reshaping the running product and
    the next factor to the shapes in ``shapes`` so they broadcast over the
    union scope, then sums out ``axis``; the result takes the next slot.
    The marginal is the product of the ``target_slots`` factors times the
    ``scalar_slots`` constants. ``error`` is set, and nothing else used,
    when some product would exceed the state limit.
    """

    leaves: tuple = ()
    steps: tuple = ()
    target_slots: tuple = ()
    scalar_slots: tuple = ()
    error: Optional[str] = None


def _plan_elimination(mech: MechanismSet, target: str, limit: int) -> _EliminationPlan:
    """Min-degree elimination order, lexicographic tie-breaks."""
    relevant = ancestors(mech.parents, target) | {target}
    leaves, factors, dims = [], [], {}
    for slot, q in enumerate(sorted(relevant)):
        scope = mech.parents[q] + (q,)
        order = tuple(sorted(scope))
        perm = [scope.index(v) for v in order]
        windows = {w: np.transpose(t, perm) for w, t in mech.tables[q].items()}
        dims.update(zip(order, windows["ref"].shape))
        leaves.append((q, windows))
        factors.append((order, slot))

    steps = []
    to_eliminate = relevant - {target}
    while to_eliminate:
        neighbors = {v: set() for v in to_eliminate}
        for scope, _ in factors:
            for v in scope:
                if v in neighbors:
                    neighbors[v].update(scope)
        victim = min(to_eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        group = [f for f in factors if victim in f[0]]
        factors = [f for f in factors if victim not in f[0]]
        scope, shapes = group[0][0], []
        for other, _ in group[1:]:
            allvars = tuple(sorted(set(scope) | set(other)))
            size = math.prod(dims[v] for v in allvars)
            if size > limit:
                return _EliminationPlan(
                    error=f"factor over {allvars} has {size} states (limit {limit})")
            shapes.append(tuple(tuple(dims[v] if v in s else 1 for v in allvars)
                                for s in (scope, other)))
            scope = allvars
        steps.append((tuple(slot for _, slot in group), tuple(shapes),
                      scope.index(victim)))
        factors.append((tuple(v for v in scope if v != victim),
                        len(leaves) + len(steps) - 1))
        to_eliminate.discard(victim)

    # scalar factors can arise from disconnected eliminated components
    return _EliminationPlan(
        leaves=tuple(leaves), steps=tuple(steps),
        target_slots=tuple(slot for scope, slot in factors if scope == (target,)),
        scalar_slots=tuple(slot for scope, slot in factors if scope == ()),
    )


def target_marginal(mech: MechanismSet, assignment: dict, target: str,
                    limit: int = DEFAULT_STATE_LIMIT) -> np.ndarray:
    """Exact marginal of ``target`` under a per-node window assignment.

    A node missing from ``assignment`` uses its ``ref`` table. Only the
    target's ancestors participate (other factors integrate to
    one). Elimination order is min-degree with lexicographic tie-breaks,
    so results are bit-deterministic. The order, the factor transposes,
    the broadcast shapes and the state-limit check depend only on the
    structure, so they are planned on the first call for a ``(target,
    limit)`` pair and cached on the mechanism set; each call then runs
    the planned multiplies and sums on the assigned tables.
    """
    if target not in mech.parents:
        raise KeyError(f"'{target}' is not a fitted node of view '{mech.view.name}'")
    plan = mech._plans.get((target, limit))
    if plan is None:
        plan = mech._plans[(target, limit)] = _plan_elimination(mech, target, limit)
    if plan.error is not None:
        raise StateSpaceTooLarge(plan.error)
    values = [tables[assignment.get(q, "ref")] for q, tables in plan.leaves]
    for slots, shapes, axis in plan.steps:
        prod = values[slots[0]]
        for slot, (lhs, rhs) in zip(slots[1:], shapes):
            prod = prod.reshape(lhs) * values[slot].reshape(rhs)
        values.append(prod.sum(axis=axis))
    out = values[plan.target_slots[0]].copy()
    for slot in plan.target_slots[1:]:
        out = out * values[slot]
    for slot in plan.scalar_slots:
        out = out * float(values[slot])
    return out


def sample_marginal(mech: MechanismSet, assignment: dict, target: str,
                    m: int, seed) -> np.ndarray:
    """Histogram of ``m`` ancestral samples of ``target``; seed-deterministic."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    relevant = ancestors(mech.parents, target) | {target}
    samples: dict[str, np.ndarray] = {}
    for node in mech.topo:
        if node not in relevant:
            continue
        table = mech.tables[node][assignment.get(node, "ref")]
        k = mech.disc[node].n_states
        flat = table.reshape(-1, k)
        pa = mech.parents[node]
        if pa:
            dims = tuple(mech.disc[p].n_states for p in pa)
            idx = np.ravel_multi_index([samples[p] for p in pa], dims)
        else:
            idx = np.zeros(m, dtype=np.int64)
        cdf = np.cumsum(flat[idx], axis=1)
        u = rng.random(m)
        codes = (u[:, None] > cdf).sum(axis=1)
        samples[node] = np.minimum(codes, k - 1)
    k = mech.disc[target].n_states
    return np.bincount(samples[target], minlength=k) / m


# ---------------------------------------------------------------------------
# divergences

def _check_pair(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
        raise LengthMismatch(f"vector lengths differ: {p.shape} vs {q.shape}")
    for v in (p, q):
        if np.any(v < 0) or abs(float(v.sum()) - 1.0) > 1e-9:
            raise NotNormalized("probability vector does not sum to 1")
    return p, q


def jsd(p, q) -> float:
    """Jensen-Shannon divergence, natural log; symmetric, in [0, ln 2]."""
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    return 0.5 * kl(p) + 0.5 * kl(q)


def total_variation(p, q) -> float:
    p, q = _check_pair(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def divergence(p, q, kind: str = "jsd") -> float:
    if kind == "jsd":
        return jsd(p, q)
    if kind == "tv":
        return total_variation(p, q)
    raise ValueError(f"unknown divergence '{kind}'")


def _row_divergences(p: np.ndarray, q: np.ndarray, kind: str) -> np.ndarray:
    """``divergence(p[i], q[i], kind)`` for every row i, in one pass."""
    if kind == "jsd":
        m = 0.5 * (p + q)

        def kl(a):
            ratio = np.divide(a, m, out=np.ones_like(a), where=a > 0)
            return np.sum(a * np.log(ratio), axis=1)

        return 0.5 * kl(p) + 0.5 * kl(q)
    if kind == "tv":
        return 0.5 * np.abs(p - q).sum(axis=1)
    raise ValueError(f"unknown divergence '{kind}'")


# ---------------------------------------------------------------------------
# two-sample shift test

@dataclass(frozen=True)
class ShiftTestResult:
    node: str
    statistic: float
    p_value: float


def shift_test(ds: WindowedDataset, system_map: SystemMap, node: str,
               B: int = 1000, seed=0, k: int = DEFAULT_BINS,
               div: str = "jsd") -> ShiftTestResult:
    """Two-sample re-split test on one variable's binned marginals.

    Statistic: divergence between the per-window bin histograms. Missing
    cells are dropped. The null re-splits the pooled rows at random
    preserving window sizes; as the statistic depends only on the
    histograms, the reference histogram of a re-split is multivariate
    hypergeometric over the pooled bin counts, so ``B`` such histograms
    are drawn exactly and scored in one pass, alongside the observed
    split.
    p = (1 + #{re-split statistic >= observed}) / (B + 1).
    """
    if B < 100:
        raise ValueError(f"need at least 100 permutations, got {B}")
    col = resolve_column(ds, system_map, node)
    if col is None:
        raise InsufficientData(f"no data column for '{node}'")
    values = ds.columns[col]
    keep = present(values)
    ref_vals = values[keep & ds.window_mask("ref")]
    cur_vals = values[keep & ds.window_mask("cur")]
    n_ref, n_cur = len(ref_vals), len(cur_vals)
    if n_ref < 30 or n_cur < 30:
        raise InsufficientData(
            f"'{node}': {n_ref} ref / {n_cur} cur rows (need 30 each)"
        )
    bins = fit_variable(ref_vals, k, cur_vals)
    ref_counts = np.bincount(bins.encode(ref_vals), minlength=bins.n_states)
    cur_counts = np.bincount(bins.encode(cur_vals), minlength=bins.n_states)
    observed = divergence(ref_counts / n_ref, cur_counts / n_cur, div)

    pooled = ref_counts + cur_counts
    rng = np.random.default_rng(seed)
    splits = np.vstack([ref_counts,
                        rng.multivariate_hypergeometric(pooled, n_ref, size=B)])
    # row 0, the observed split, is scored like the re-splits so that
    # equal histograms tie exactly
    stats = _row_divergences(splits / n_ref, (pooled - splits) / n_cur, div)
    hits = int(np.count_nonzero(stats[1:] >= stats[0]))
    return ShiftTestResult(node=node, statistic=observed,
                           p_value=(1 + hits) / (B + 1))
