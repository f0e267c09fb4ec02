"""Shared oracles and random-instance builders for the test suite.

The inference oracle enumerates the full joint distribution directly, so
it shares no code path with variable elimination. The reference
elimination redoes the whole schedule on every call, as ``target_marginal``
did before it planned once per target; the two must agree bit for bit.
The reference game value scores one coalition at a time, as the
mechanism-swap game did before it evaluated coalitions in blocks.
``exact_shapley`` and ``sampled_shapley`` solve any set function that
takes a frozenset of player names: the first from the table of its
values, the second over seeded orders of the sorted players, one
frozenset per prefix, which ``MechanismSwapGame.sampled_phi`` must equal
bit for bit on its own keys. The reference Shapley solver enumerates
every subset of every player with a per-player loop, as
``exact_shapley`` did before it solved one value array. The reference
CSV writer formats every cell on its own, row by
row, as ``generate_csv`` did before it wrote column by column. The
random builders
produce structurally valid maps and mechanism sets from a seeded
generator, for property-style checks over many instances. ``cells_of``
reads a typed column back as Python values, and ``game_value`` reads a
mechanism-swap game at a subset of player names.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from mlsysmap import mechanisms
from mlsysmap.mapcore import (Node, NodeKind, Relation, RelationKind, View, ancestors,
                              build_map)
from mlsysmap.attribution import (EXACT_PLAYER_LIMIT, FALLBACK_SAMPLES, MechanismSwapGame,
                                  shapley_from_table)
from mlsysmap.dataset import LabelColumn
from mlsysmap.errors import StateSpaceTooLarge, TooManyPlayers
from mlsysmap.mechanisms import (
    MechanismSet,
    NumericBins,
    jsd_rows,
    sample_marginal,
    target_marginal,
)
from mlsysmap.simulator import ScenarioConfig, _windows, generate


# ---------------------------------------------------------------------------
# readers of columns and games

def cells_of(column) -> list:
    """A typed column's cells: labels for a LabelColumn, floats for an array."""
    if isinstance(column, LabelColumn):
        return [column.labels[code] for code in column.codes.tolist()]
    return column.tolist()


def game_value(game: MechanismSwapGame, subset) -> float:
    """v(subset): the key sums ``1 << (r-1-i)`` over the indices ``i`` of
    the subset's players among the game's r sorted relevant ones."""
    r = len(game.relevant)
    return game._value(sum(1 << (r - 1 - i) for i, p in enumerate(game.relevant) if p in subset))


# ---------------------------------------------------------------------------
# inference oracle

def brute_force_marginal(mech: MechanismSet, assignment: dict, target: str):
    """Marginal of ``target`` by full enumeration of its ancestral joint."""
    relevant = sorted(ancestors(mech.parents, target) | {target})
    dims = [mech.disc[q].n_states for q in relevant]
    out = np.zeros(mech.disc[target].n_states)
    for combo in itertools.product(*(range(d) for d in dims)):
        state = dict(zip(relevant, combo))
        p = 1.0
        for q in relevant:
            table = mech.tables[q][assignment.get(q, "ref")]
            idx = tuple(state[pa] for pa in mech.parents[q]) + (state[q],)
            p *= float(table[idx])
        out[state[target]] += p
    return out


def reference_target_marginal(mech: MechanismSet, assignment: dict, target: str):
    """Variable elimination re-planned on every call (min-degree order,
    lexicographic ties), multiplying in the same order as
    ``target_marginal`` and summing each victim's slabs in index order,
    as it does, whatever the victim's state count or memory layout.
    Products are limited by ``mechanisms.STATE_LIMIT`` at call time."""

    def factor_for(node, window):
        scope = mech.parents[node] + (node,)
        order = tuple(sorted(scope))
        perm = [scope.index(v) for v in order]
        return order, np.transpose(mech.tables[node][window], perm)

    def broadcast(array, scope, allvars):
        dims = dict(zip(scope, array.shape))
        return array.reshape([dims.get(v, 1) for v in allvars])

    def multiply(f1, f2):
        (s1, a1), (s2, a2) = f1, f2
        allvars = tuple(sorted(set(s1) | set(s2)))
        dims = dict(zip(s1, a1.shape))
        dims.update(zip(s2, a2.shape))
        size = 1
        for v in allvars:
            size *= dims[v]
        if size > mechanisms.STATE_LIMIT:
            raise StateSpaceTooLarge(
                f"factor over {allvars} has {size} states (limit {mechanisms.STATE_LIMIT})")
        return allvars, broadcast(a1, s1, allvars) * broadcast(a2, s2, allvars)

    relevant = ancestors(mech.parents, target) | {target}
    factors = [factor_for(q, assignment.get(q, "ref")) for q in sorted(relevant)]
    to_eliminate = set(relevant) - {target}
    while to_eliminate:
        neighbors = {v: set() for v in to_eliminate}
        for scope, _ in factors:
            for v in scope:
                if v in neighbors:
                    neighbors[v].update(scope)
        victim = min(to_eliminate, key=lambda v: (len(neighbors[v] - {v}), v))
        group = [f for f in factors if victim in f[0]]
        factors = [f for f in factors if victim not in f[0]]
        prod = group[0]
        for f in group[1:]:
            prod = multiply(prod, f)
        scope, array = prod
        slabs = np.moveaxis(array, scope.index(victim), 0)
        factors.append((tuple(v for v in scope if v != victim),
                        functools.reduce(np.add, slabs[1:], slabs[0])))
        to_eliminate.discard(victim)

    out = None
    for scope, array in factors:
        if scope == (target,):
            out = array.copy() if out is None else out * array
    for scope, array in factors:
        if scope == ():
            out = out * float(array)
    return out


def reference_game_value(mech: MechanismSet, target: str, subset, seed=0) -> float:
    """Mechanism-swap game value of one coalition on its own: the JSD of
    the target's marginal with ``subset`` on ``cur`` against the
    all-reference marginal, 0.0 when no ancestor of the target (or the
    target itself) is in ``subset``. Past the state limit both marginals
    are ``FALLBACK_SAMPLES`` ancestral samples, the coalition's seeded
    ``[seed, key]`` with ``key`` the sum of ``1 << (r-1-i)`` over the
    indices ``i`` of its players among the r sorted relevant ones, the
    baseline's ``[seed, 0]``."""
    relevant = sorted(ancestors(mech.parents, target) | {target})
    if not set(relevant) & set(subset):
        return 0.0
    assignment = dict.fromkeys(subset, "cur")
    try:
        p = target_marginal(mech, assignment, target)
        q = target_marginal(mech, {}, target)
    except StateSpaceTooLarge:
        r = len(relevant)
        key = sum(1 << (r - 1 - i) for i, n in enumerate(relevant) if n in subset)
        p = sample_marginal(mech, assignment, target, FALLBACK_SAMPLES, [seed, key])
        q = sample_marginal(mech, {}, target, FALLBACK_SAMPLES, [seed, 0])
    return float(jsd_rows(p, q))


# ---------------------------------------------------------------------------
# Shapley solvers on any set function

def exact_shapley(v: Callable, players: Sequence[str]) -> dict[str, float]:
    """Exact Shapley values of any set function v, which takes a frozenset
    of player names, tabulated over every subset of the sorted players."""
    players = sorted(players)
    n = len(players)
    if n > EXACT_PLAYER_LIMIT:
        raise TooManyPlayers(f"{n} players exceeds exact limit {EXACT_PLAYER_LIMIT}")
    table = [v(frozenset(p for i, p in enumerate(players) if key >> (n - 1 - i) & 1))
             for key in range(1 << n)]
    return dict(zip(players, shapley_from_table(np.array(table, dtype=float)).tolist()))


def sampled_shapley(v: Callable, players: Sequence[str], permutations: int,
                    seed) -> dict[str, float]:
    """Mean marginal contribution over sampled player orders."""
    if permutations < 1:
        raise ValueError(f"need at least 1 permutation, got {permutations}")
    players = sorted(players)
    n = len(players)
    rng = np.random.default_rng(seed)
    phi = {p: 0.0 for p in players}
    for _ in range(permutations):
        order = rng.permutation(n)
        prefix: set = set()
        prev = v(frozenset())
        for idx in order:
            p = players[idx]
            prefix.add(p)
            val = v(frozenset(prefix))
            phi[p] += val - prev
            prev = val
    return {p: phi[p] / permutations for p in players}


def reference_exact_shapley(v, players) -> dict:
    """Exact Shapley values by full subset enumeration: for each sorted
    player, the size-weighted marginal over every subset without it, in
    increasing bitmask order."""
    players = sorted(players)
    n = len(players)
    values = {}
    for mask in range(1 << n):
        subset = frozenset(players[i] for i in range(n) if mask >> i & 1)
        values[mask] = v(subset)
    fact = [math.factorial(i) for i in range(n + 1)]
    weights = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    phi = {p: 0.0 for p in players}
    for i, p in enumerate(players):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            phi[p] += weights[s] * (values[mask | bit] - values[mask])
    return phi


# ---------------------------------------------------------------------------
# CSV writer oracle

def reference_generate_csv(config: ScenarioConfig) -> str:
    """Deterministic CSV text: n reference rows then n current rows.

    The window label comes first, then the columns in name order.
    """
    ref, cur = _windows(config)
    names = sorted(ref)
    lines = [",".join(["window"] + names)]
    for label, window in (("ref", ref), ("cur", cur)):
        # tolist() yields str, int and float cells; repr of a float round-trips
        for row in zip(*(window[c].tolist() for c in names)):
            lines.append(",".join([label] + [v if isinstance(v, str) else repr(v)
                                             for v in row]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random mechanism sets

def random_mechanism_set(rng, n_nodes=None, max_states=3, p_edge=0.5,
                         changed=None) -> MechanismSet:
    """Random DAG with random CPTs for both windows.

    ``changed``: None for fully independent ref/cur tables, otherwise the
    set of node indices whose cur table differs (the rest share arrays).
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(2, 6))
    names = tuple(f"system.n{i}" for i in range(n_nodes))
    parents = {}
    for j, q in enumerate(names):
        parents[q] = tuple(names[i] for i in range(j) if rng.random() < p_edge)
    states = {q: int(rng.integers(2, max_states + 1)) for q in names}
    disc = {
        q: NumericBins(tuple(float(e) for e in range(1, states[q])))
        for q in names
    }
    tables = {}
    for j, q in enumerate(names):
        shape = tuple(states[p] for p in parents[q]) + (states[q],)
        n_rows = int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1

        def cpt():
            return rng.dirichlet(np.ones(states[q]), size=n_rows).reshape(shape)

        ref = cpt()
        if changed is not None and j not in changed:
            cur = ref
        else:
            cur = cpt()
        tables[q] = {"ref": ref, "cur": cur}
    return MechanismSet(view=View.system(), nodes=names, parents=parents,
                        topo=names, disc=disc, tables=tables)


# ---------------------------------------------------------------------------
# random valid maps

def random_map(rng, name="rmap"):
    """A random structurally valid map exercising every relation kind."""
    nodes, relations = [], []
    sysview = View.system()
    nd = int(rng.integers(2, 6))
    for i in range(nd):
        nodes.append(Node(sysview, f"s{i}", NodeKind.DATA))
    for j in range(nd):
        for i in range(j):
            if rng.random() < 0.4:
                relations.append(
                    Relation(f"system.s{i}", f"system.s{j}", RelationKind.CAUSAL))

    n_sub = int(rng.integers(1, min(3, nd) + 1))
    for k in range(n_sub):
        v = View.subsystem(f"sub{k}")
        term = Node(v, "out", NodeKind.DATA)
        nodes.append(term)
        for m in range(int(rng.integers(0, 3))):
            inp = Node(v, f"in{m}", NodeKind.DATA, boundary=bool(rng.random() < 0.5))
            nodes.append(inp)
            relations.append(Relation(inp.qname, term.qname, RelationKind.CAUSAL))
        if rng.random() < 0.5:
            mod = Node(v, "knob", NodeKind.MODULATOR)
            nodes.append(mod)
            relations.append(Relation(mod.qname, term.qname, RelationKind.CAUSAL))
        relations.append(Relation(term.qname, f"system.s{k}", RelationKind.MAPPING))

    if rng.random() < 0.7:
        env = View.environment()
        nr = int(rng.integers(1, 4))
        for i in range(nr):
            nodes.append(Node(env, f"r{i}", NodeKind.RANDOM))
        for j in range(nr):
            for i in range(j):
                if rng.random() < 0.3:
                    relations.append(
                        Relation(f"env.r{i}", f"env.r{j}", RelationKind.CAUSAL))
        causal_dsts = {r.dst for r in relations if r.kind is RelationKind.CAUSAL}
        roots = [f"system.s{j}" for j in range(nd)
                 if f"system.s{j}" not in causal_dsts]
        if roots and rng.random() < 0.8:
            relations.append(Relation("env.r0", roots[0], RelationKind.MEASURE))
        if rng.random() < 0.5:
            relations.append(
                Relation(f"system.s{nd - 1}", f"env.r{nr - 1}", RelationKind.ACTUATE))

    return build_map(name, nodes, relations)


# ---------------------------------------------------------------------------
# shared scenario cache (simulation is deterministic, so caching is safe)

@functools.lru_cache(maxsize=None)
def simulate(scenario: str, n: int = 5000, seed: int = 0):
    return generate(ScenarioConfig(scenario, n=n, seed=seed))
