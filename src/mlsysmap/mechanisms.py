"""Empirical mechanisms over a shared discretization, plus inference.

For one view and a windowed dataset this module fits, per node and per
window, a marginal probability vector (root nodes) or a conditional
probability table (nodes with parents), all over one shared
discretization. Exact marginals of any node under a per-node window
assignment are computed by variable elimination, planned once per
target (``elimination_plan``). ``target_marginal`` runs the plan for one
assignment; ``batched_marginals`` runs it once for every ref/cur choice
of the plan's last ``j`` leaves, each carrying its two tables on a window
axis that is never summed out (a regime indicator in the sense of
Dawid, "Influence diagrams for causal modelling and inference", Int.
Stat. Review 2002), with rows bit-identical to ``target_marginal``.
Every factor has its axes in elimination order, window axes last, so
each step's victim is axis 0 and is summed out slab by slab. The runs
of one ``BatchedRuns`` compute each elimination step once per window
choice of the fixed leaves that step depends on. ``fit_mechanisms``
and ``elimination_plan`` refuse a table or product of more than
``STATE_LIMIT`` states, read when they run; ``sample_marginal`` is the
ancestral-sampling fallback. Jensen-Shannon divergence
(natural log) is the one shift measure, computed by the unchecked
kernel ``jsd_rows``; ``jsd`` validates outside input first. Every table
is Laplace-smoothed with ``SMOOTHING`` pseudo-counts per state.

Column types and missing cells are decided once, when the dataset is
built (see :mod:`mlsysmap.dataset`); here a float64 column is numeric and
a ``LabelColumn``, codes into its sorted labels, is categorical. Bins are
fitted once per column and bin count, from its present cells in both
windows, and shared by every view that holds the column and its shift
test: numeric variables on quantiles of both windows pooled, so a location
shift in the current window keeps parent-child conditionals expressible
instead of collapsing into a single edge bin; categorical variables keep
the reference window's categories plus an "unseen" bucket.
Conditional rows for parent configurations with no observations in one
window fall back to the pooled fit: absent evidence, the mechanism is
assumed unchanged. This is what lets a brand-new modulator value show up
as a change of the modulator's own mechanism rather than of every
downstream table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dataset import LabelColumn, WindowedDataset, present, resolve_column, view_matrix
from .errors import (
    InsufficientData,
    LengthMismatch,
    NotNormalized,
    StateSpaceTooLarge,
)
from .mapcore import SystemMap, View, ancestors

DEFAULT_BINS = 8
STATE_LIMIT = 1_000_000
DEFAULT_RESPLITS = 1000           # shift-test re-splits
SMOOTHING = 1.0                   # Laplace pseudo-count per state


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
        """Each value's bin, the count of edges at or below it: for finite
        values, ``np.searchsorted(edges, values, side="right")``."""
        codes = np.zeros(len(values), np.intp)
        for edge in self.edges:
            codes += values >= edge
        return codes


@dataclass(frozen=True)
class CategoryList:
    """Labels held by reference cells, then an unseen bucket; encodes a LabelColumn."""

    categories: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.categories) + 1

    def encode(self, column: LabelColumn) -> np.ndarray:
        """Each cell's category index, or the unseen bucket's: one lookup
        per label of the column."""
        index = {c: i for i, c in enumerate(self.categories)}
        unseen = itertools.repeat(len(self.categories))
        remap = np.fromiter(map(index.get, column.labels, unseen), np.intp, len(column.labels))
        return remap[column.codes]


VariableBins = Union[NumericBins, CategoryList]


def fit_variable(ref_values, k: int, extra_values) -> VariableBins:
    """Bins for one variable from the present reference and current cells
    of its typed column, so all numbers are finite: a :class:`LabelColumn`
    keeps the labels that some reference cell holds, in its sorted order;
    a float array is binned on quantiles of both windows pooled.
    """
    if isinstance(ref_values, LabelColumn):
        held = np.bincount(ref_values.codes, minlength=len(ref_values.labels))
        return CategoryList(tuple(itertools.compress(ref_values.labels, held)))
    pooled = np.concatenate([ref_values, extra_values])
    # np.quantile's linear rule on sorted values; one value is read at -1
    # with weight 1, as np.quantile reads it
    ranked = np.sort(pooled)
    at = (len(ranked) - 1) * (np.arange(1, k) / k)
    lo = np.minimum(np.floor(at), len(ranked) - 2).astype(np.intp)
    below, above = ranked[lo], ranked[lo + 1]
    t, step = at - lo, above - below
    qs = np.where(t >= 0.5, above - step * (1 - t), below + step * t)
    edges = []
    for e in qs:
        if not edges or e > edges[-1]:
            edges.append(float(e))
    return NumericBins(tuple(edges))


def _require_bins(k: int):
    if k < 2:
        raise ValueError(f"bin count must be >= 2, got {k}")


def fit_discretization(ds: WindowedDataset, column: str, k: int) -> tuple[VariableBins, np.ndarray]:
    """A column's bins for ``k`` bins and each row's code (read-only, in the
    least type that holds ``n_states``; a missing cell's means nothing),
    fitted once on its present cells in both windows, kept by ``(column, k)``."""
    _require_bins(k)
    if (column, k) not in ds._bins:
        values = ds.columns[column]
        ref, cur = (values[present(values) & ds.window_mask(w)] for w in ("ref", "cur"))
        bins = fit_variable(ref, k, cur)
        codes = bins.encode(values).astype(np.min_scalar_type(bins.n_states))
        codes.flags.writeable = False
        ds._bins[column, k] = bins, codes
    return ds._bins[column, k]


# ---------------------------------------------------------------------------
# mechanism sets

@dataclass
class MechanismSet:
    """Fitted ref/cur mechanisms for the nodes of one view DAG.

    ``tables[node][window]`` has shape ``(*parent_states, child_states)``
    with parent axes in lexicographic parent order, and ``disc[node]`` is
    the node's binning, shared by both windows (``disc[node].n_states``
    is the table's last axis). Every row is a probability vector with
    strictly positive entries. ``elimination_plan`` builds each
    elimination plan on first use and caches it here, so the tables are
    not to be replaced once inference has run.
    """

    view: View
    nodes: tuple[str, ...]
    parents: dict[str, tuple[str, ...]]
    topo: tuple[str, ...]
    disc: dict[str, VariableBins]
    tables: dict[str, dict[str, np.ndarray]]
    excluded: tuple[str, ...] = ()
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _smoothed(counts: np.ndarray) -> np.ndarray:
    t = counts + SMOOTHING
    return t / t.sum(axis=-1, keepdims=True)


def fit_mechanisms(system_map: SystemMap, ds: WindowedDataset, view: View,
                   k: int = DEFAULT_BINS) -> MechanismSet:
    """Fit ref and cur mechanisms for one view over a shared discretization,
    on the nodes and rows of :func:`~mlsysmap.dataset.view_matrix`: the
    nodes whose column has a present cell in each window, fitted on each
    window's rows complete in those nodes."""
    t = view_matrix(ds, system_map, view)
    fits = {q: fit_discretization(ds, t.columns[q], k) for q in t.nodes}
    disc = {q: bins for q, (bins, _) in fits.items()}

    graph = system_map.view_graph(view)
    in_set = set(t.nodes)
    parents = {q: tuple(p for p in graph.parents[q] if p in in_set) for q in t.nodes}
    topo = tuple(q for q in graph.topo if q in in_set)

    codes = {w: {q: fits[q][1][rows] for q in t.nodes} for w, rows in t.rows.items()}

    tables: dict[str, dict[str, np.ndarray]] = {}
    for q in t.nodes:
        pa = parents[q]
        child_k = disc[q].n_states
        pa_dims = tuple(disc[p].n_states for p in pa)
        n_cfg = math.prod(pa_dims)
        if n_cfg * child_k > STATE_LIMIT:
            raise StateSpaceTooLarge(f"table of '{q}' given {', '.join(pa)} has "
                                     f"{n_cfg * child_k} cells (limit {STATE_LIMIT})")
        counts = {}
        for w in ("ref", "cur"):
            cfg = np.ravel_multi_index([codes[w][p] for p in pa], pa_dims) if pa else 0
            flat = np.bincount(cfg * child_k + codes[w][q], minlength=n_cfg * child_k)
            counts[w] = flat.reshape(n_cfg, child_k).astype(float)
        pooled = counts["ref"] + counts["cur"]
        pooled_tab = _smoothed(pooled)
        tables[q] = {}
        for w in ("ref", "cur"):
            tab = _smoothed(counts[w])
            empty = counts[w].sum(axis=1) == 0
            if np.any(empty):
                tab[empty] = pooled_tab[empty]
            tables[q][w] = tab.reshape(pa_dims + (child_k,))

    return MechanismSet(
        view=view, nodes=t.nodes, parents=parents, topo=topo, disc=disc,
        tables=tables, excluded=t.excluded,
    )


# ---------------------------------------------------------------------------
# exact inference by variable elimination

@dataclass(frozen=True)
class _EliminationPlan:
    """Variable elimination for one target, fixed before any arithmetic.

    ``order`` is the elimination order, the target last, and every factor
    has its axes in that order. ``leaves[i]`` is the i-th ancestral node
    (sorted) with its ref and cur tables transposed to it. Each step
    multiplies the factors in ``slots`` left to right, reshaping the
    running product and the next factor to the shapes in ``shapes`` so
    they broadcast over the union scope, and sums out ``axis``, which is
    0: the victim comes first in the order. The result takes the next
    slot. A step's ``mask`` has bit ``n-1-i`` set, of ``n`` leaves, when
    its result depends on leaf ``i``.
    The marginal is the last value: the last step's result, or the
    target's table when it has no ancestors. ``sizes`` pairs the size of
    each leaf table and of each product a step forms with its mask. No
    plan is built past ``STATE_LIMIT``: ``_plan_elimination`` raises
    ``StateSpaceTooLarge``.
    """

    order: tuple
    leaves: tuple
    steps: tuple
    sizes: tuple


def _plan_elimination(mech: MechanismSet, target: str) -> _EliminationPlan:
    """Min-degree elimination order, lexicographic tie-breaks, found over
    the scopes as sets before any axis is placed."""
    relevant = ancestors(mech.parents, target) | {target}
    scopes = {q: mech.parents[q] + (q,) for q in sorted(relevant)}
    sets, order, to_eliminate = [set(s) for s in scopes.values()], [], relevant - {target}
    while to_eliminate:
        neighbors = {v: set() for v in to_eliminate}
        for scope in sets:
            for v in scope & to_eliminate:
                neighbors[v].update(scope)
        victim = min(to_eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        merged = set().union(*(s for s in sets if victim in s)) - {victim}
        sets = [s for s in sets if victim not in s] + [merged]
        order.append(victim)
        to_eliminate.discard(victim)
    rank = {v: i for i, v in enumerate(order + [target])}

    leaves, factors, dims, sizes = [], [], {}, []
    masks = [1 << (len(relevant) - 1 - slot) for slot in range(len(relevant))]
    for slot, (q, scope) in enumerate(scopes.items()):
        axes = tuple(sorted(scope, key=rank.get))
        perm = [scope.index(v) for v in axes]
        windows = {w: np.transpose(t, perm) for w, t in mech.tables[q].items()}
        dims.update(zip(axes, windows["ref"].shape))
        leaves.append((q, windows))
        sizes.append((windows["ref"].size, masks[slot]))
        factors.append((axes, slot))

    steps = []
    for victim in order:
        group = [f for f in factors if victim in f[0]]
        factors = [f for f in factors if victim not in f[0]]
        scope, shapes, mask = group[0][0], [], masks[group[0][1]]
        for other, slot in group[1:]:
            allvars = tuple(sorted(set(scope) | set(other), key=rank.get))
            size = math.prod(dims[v] for v in allvars)
            if size > STATE_LIMIT:
                raise StateSpaceTooLarge(f"factor over {tuple(sorted(allvars))} has "
                                         f"{size} states (limit {STATE_LIMIT})")
            mask |= masks[slot]
            sizes.append((size, mask))
            shapes.append(tuple(tuple(dims[v] if v in s else 1 for v in allvars)
                                for s in (scope, other)))
            scope = allvars
        masks.append(mask)
        steps.append((tuple(slot for _, slot in group), tuple(shapes), scope.index(victim), mask))
        factors.append((scope[1:], len(masks) - 1))

    # only the target's own table holds the target, and each step merges
    # every factor over its victim, so exactly one factor over the target
    # is left: the last value, which _run_plan returns
    return _EliminationPlan(order=tuple(rank), leaves=tuple(leaves), steps=tuple(steps),
                            sizes=tuple(sizes))


def elimination_plan(mech: MechanismSet, target: str) -> _EliminationPlan:
    """The elimination plan of ``target``, built on first use and cached
    on the mechanism set.

    The order, the factor transposes, the broadcast shapes and the
    state-limit check depend only on the structure. Raises
    ``StateSpaceTooLarge``, and caches nothing, when some product would
    exceed the ``STATE_LIMIT`` then in force.
    """
    if target not in mech.parents:
        raise KeyError(f"'{target}' is not a fitted node of view '{mech.view.name}'")
    plan = mech._plans.get(target)
    if plan is None:
        plan = mech._plans[target] = _plan_elimination(mech, target)
    return plan


def _run_step(values: list, slots, shapes, r: int) -> np.ndarray:
    """One planned multiply-and-sum on values with ``r`` trailing window
    axes, the victim on axis 0. Every factor but the last is multiplied
    whole, the last one victim slab by victim slab into one buffer, and
    the slabs are added in order, so no product over the victim is held
    whole and the sum's order is the same whatever the factors' memory
    layout."""
    def shaped(value, scope_shape):
        return value.reshape(scope_shape + value.shape[value.ndim - r:])

    prod = values[slots[0]]
    for slot, (lhs, rhs) in zip(slots[1:-1], shapes[:-1]):
        prod = shaped(prod, lhs) * shaped(values[slot], rhs)
    if not shapes:                 # the victim is in this one factor only
        return functools.reduce(operator.iadd, prod[1:], prod[0].copy())
    lhs, rhs = shapes[-1]
    prod, last = shaped(prod, lhs), shaped(values[slots[-1]], rhs)
    total = prod[0] * last[0]
    slab = np.empty_like(total)
    for v in range(1, len(prod)):
        total += np.multiply(prod[v], last[v], out=slab)
    return total


class BatchedRuns:
    """The runs of ``plan`` that batch its last ``j`` leaves, and what they
    share. ``leaves[i]`` holds leaf ``i``'s values by its bit in a run's
    ``block << j``: a fixed leaf's ref and cur tables with ``j`` trailing
    unit axes; the ``b``-th batched leaf, whose bit is 0, its two tables
    stacked on window axis ``b`` of ``j``: each batched bit of its mask
    doubles an array of a run. ``fixed`` has the fixed leaves' mask bits.
    ``steps`` keeps step results by ``(step, cur & mask)``, ``cur``
    holding the mask bits of the leaves on ``cur``, until they hold
    ``limit`` states (``states``); a step that depends on every fixed
    leaf is unique to its run and not kept."""

    def __init__(self, plan: _EliminationPlan, j: int, limit: int):
        n = len(plan.leaves)
        self.plan, self.j, self.limit = plan, j, limit
        self.leaves = []
        for b, (_, tables) in enumerate(plan.leaves, start=j - n):
            units = (1,) * (j if b < 0 else j - 1)      # fixed leaves come first, b < 0
            pair = [t.reshape(t.shape + units) for t in (tables["ref"], tables["cur"])]
            self.leaves.append(pair if b < 0 else [np.stack(pair, axis=b - j)])
        self.fixed = (1 << n) - (1 << j)
        self.steps: dict = {}
        self.states = 0


def _run_plan(plan: _EliminationPlan, values: list, r: int,
              runs: Optional[BatchedRuns] = None, cur: int = 0) -> np.ndarray:
    """The planned multiplies and sums on leaf ``values`` that each carry
    ``r`` trailing window axes; those axes broadcast and are never summed.
    With ``runs``, a step computes only when ``runs`` lacks its result."""
    for step, (slots, shapes, _, mask) in enumerate(plan.steps):
        if runs is None or mask & runs.fixed == runs.fixed:
            values.append(_run_step(values, slots, shapes, r))
            continue
        key = (step, cur & mask)
        out = runs.steps.get(key)
        if out is None:
            out = _run_step(values, slots, shapes, r)
            if runs.states + out.size <= runs.limit:
                runs.steps[key] = out
                runs.states += out.size
        values.append(out)
    return values[-1].copy()


def target_marginal(mech: MechanismSet, assignment: dict, target: str) -> np.ndarray:
    """Exact marginal of ``target`` under a per-node window assignment.

    A node missing from ``assignment`` uses its ``ref`` table. Only the
    target's ancestors participate (other factors integrate to
    one). Elimination order is min-degree with lexicographic tie-breaks,
    so results are bit-deterministic. Each call runs the cached
    :func:`elimination_plan` on the assigned tables.
    """
    plan = elimination_plan(mech, target)
    return _run_plan(plan, [tables[assignment.get(q, "ref")] for q, tables in plan.leaves], 0)


def batched_marginals(runs: BatchedRuns, block: int) -> np.ndarray:
    """Target marginals for the keys ``block << j | b`` of ``runs``.

    With ``n`` leaves, key bit ``n-1-i`` puts leaf ``i`` on ``cur``; the
    result is a C-contiguous ``(2**j, k)`` array whose row ``b`` is the
    marginal of key ``block << j | b``. One run of the plan computes every
    row: the planned multiplies broadcast over the batched leaves' window
    axes, and the run's ``(k, 2, ..., 2)`` result is transposed into the
    rows. The run reuses every step result ``runs`` holds for the same
    windows of the fixed leaves that step depends on. Each row is
    bit-identical to ``target_marginal`` under the same assignment.
    """
    cur, n = block << runs.j, len(runs.leaves)
    values = [leaf[cur >> (n - 1 - i) & 1] for i, leaf in enumerate(runs.leaves)]
    out = _run_plan(runs.plan, values, runs.j, runs, cur)
    return np.ascontiguousarray(out.reshape(len(out), -1).T)


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
# Jensen-Shannon divergence

def jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence along the last axis, natural log.

    ``p`` and ``q`` are same-shape float arrays whose last-axis rows are
    probability vectors; nothing is checked. Zero entries contribute 0.
    Rows that differ only by rounding can sum to a few ulps below zero,
    so results are clipped at 0.
    """
    m = p + q
    m *= 0.5

    def kl(a):              # a * log(a / m) in one buffer
        if a.all():         # no zero to mask: the same quotients
            terms = a / m
        else:
            terms = np.ones_like(a)
            np.divide(a, m, out=terms, where=a > 0)
        np.log(terms, out=terms)
        terms *= a
        return terms.sum(axis=-1)

    return np.maximum(0.5 * kl(p) + 0.5 * kl(q), 0.0)


def jsd(p, q) -> float:
    """Jensen-Shannon divergence, natural log; symmetric, in [0, ln 2].

    Raises ``LengthMismatch`` unless both are 1-D vectors of one length
    and ``NotNormalized`` unless both are finite, non-negative and sum to 1.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim != 1:
        raise LengthMismatch(f"1-D vectors expected, got shapes {p.shape} and {q.shape}")
    if p.shape != q.shape:
        raise LengthMismatch(f"vector lengths differ: {p.shape} vs {q.shape}")
    for v in (p, q):
        if not np.all(np.isfinite(v)):
            raise NotNormalized("probability vector has a non-finite entry")
        if np.any(v < 0) or abs(float(v.sum()) - 1.0) > 1e-9:
            raise NotNormalized("probability vector does not sum to 1")
    return float(jsd_rows(p, q))


# ---------------------------------------------------------------------------
# two-sample shift test

@dataclass(frozen=True)
class ShiftTestResult:
    node: str
    statistic: float
    p_value: float


def shift_test(ds: WindowedDataset, system_map: SystemMap, node: str,
               B: int = DEFAULT_RESPLITS, seed=0,
               k: int = DEFAULT_BINS) -> ShiftTestResult:
    """Two-sample re-split test on one variable's binned marginals.

    Statistic: JSD between the per-window bin histograms. Missing
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
    _require_bins(k)
    col = resolve_column(ds, system_map, node)
    if col is None:
        raise InsufficientData(f"no data column for '{node}'")
    keep = present(ds.columns[col])
    ref_rows, cur_rows = keep & ds.window_mask("ref"), keep & ds.window_mask("cur")
    n_ref, n_cur = int(np.count_nonzero(ref_rows)), int(np.count_nonzero(cur_rows))
    if n_ref < 30 or n_cur < 30:
        raise InsufficientData(f"'{node}': {n_ref} ref / {n_cur} cur rows (need 30 each)")
    bins, codes = fit_discretization(ds, col, k)
    ref_counts = np.bincount(codes[ref_rows], minlength=bins.n_states)
    cur_counts = np.bincount(codes[cur_rows], minlength=bins.n_states)
    pooled = ref_counts + cur_counts
    rng = np.random.default_rng(seed)
    splits = np.vstack([ref_counts,
                        rng.multivariate_hypergeometric(pooled, n_ref, size=B)])
    # row 0, the observed split, is scored like the re-splits so that
    # equal histograms tie exactly; its score is the reported statistic
    stats = jsd_rows(splits / n_ref, (pooled - splits) / n_cur)
    hits = int(np.count_nonzero(stats[1:] >= stats[0]))
    return ShiftTestResult(node=node, statistic=float(stats[0]),
                           p_value=(1 + hits) / (B + 1))
