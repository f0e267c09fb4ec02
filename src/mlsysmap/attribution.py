"""Mechanism-swap Shapley attribution.

The game value of a node subset S is the Jensen-Shannon divergence
between the target's marginal when the nodes in S use their
current-window mechanisms (all others staying on reference) and the
all-reference marginal. Shapley values over this game split the
observed shift across the nodes whose mechanisms changed (Budhathoki et
al., "Why did the distribution change?", AISTATS 2021). Players are all
fitted nodes of the view, including the target itself, so a local
mechanism change at the target is attributable to it. Players outside
ancestors(target) | {target} are exact dummies; over the r others a
:class:`MechanismSwapGame` is solved exactly from a table of its 2**r
values when r is at most ``EXACT_PLAYER_LIMIT``.

``attribute`` is the one entry point on a mechanism set: it builds the
game, solves it exactly or by sampled player orders, and classifies
where the mass lands: on one node when its share reaches ``tau``,
otherwise on every node whose share reaches ``BRANCH_CUTOFF``.
``exact_shapley`` and ``sampled_shapley`` solve any set function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import mechanisms as mech_mod
from .errors import InsufficientData, StateSpaceTooLarge, TooManyPlayers
from .mapcore import View, ancestors
from .mechanisms import (MechanismSet, batched_marginals, elimination_plan, jsd_rows,
                         sample_marginal, target_marginal)

EXACT_PLAYER_LIMIT = 16           # most relevant players solved exactly
DEFAULT_PERMUTATIONS = 500        # sampled-Shapley player orders
DEFAULT_TAU = 0.5
DEFAULT_EPSILON = 2e-3
BRANCH_CUTOFF = 0.2               # least share that opens a distributed branch
FALLBACK_SAMPLES = 20_000         # ancestral samples per game value past the VE limit
BATCH_STATES = 1 << 18            # largest batched product: 2 MB of float64


@dataclass(frozen=True)
class Classification:
    """Where attribution mass lands: one node, several, or nowhere."""

    kind: str                    # "concentrated" | "distributed" | "negligible"
    nodes: tuple[str, ...] = ()

    @property
    def top(self) -> Optional[str]:
        return self.nodes[0] if self.nodes else None


@dataclass
class AttributionResult:
    view: View
    target: str
    players: tuple[str, ...]
    phi: dict[str, float]
    total: float                 # v(N), the full mechanism-swap shift
    shares: dict[str, float]     # |phi| normalized; all zero when sum is zero
    mode: str                    # "exact" | "sampled"
    classification: Classification


class MechanismSwapGame:
    """Cached set function v(S) over one mechanism set and target.

    Only the ``relevant`` players, ancestors(target) | {target}, enter the
    target's marginal. A coalition's key sums its players' weights: the
    i-th of the r relevant players (sorted, the plan's leaf order) weighs
    ``1 << (r-1-i)``, every other player 0.

    A value is computed on first request with its block: the ``2**j``
    keys that share all but their last ``j`` bits come from one run of the
    elimination plan with the last ``j`` leaves batched
    (:func:`mechanisms.batched_marginals`) and one ``jsd_rows`` call, for
    the largest ``j`` with ``2**j`` times the plan's largest product at
    most ``BATCH_STATES``. ``j`` is 0 past ``EXACT_PLAYER_LIMIT`` relevant
    players and past ``state_limit``, where a marginal is
    ``FALLBACK_SAMPLES`` ancestral samples seeded ``[seed, key]``. Up to
    that limit values fill one float64 :meth:`table` of ``2**r`` keys in
    ``runs`` runs; past it they are cached per key.
    """

    def __init__(self, mech: MechanismSet, target: str,
                 state_limit: int = mech_mod.DEFAULT_STATE_LIMIT, seed=0):
        self.mech = mech
        self.target = target
        self.seed = seed
        self.players = mech.nodes
        self.relevant = tuple(sorted(ancestors(mech.parents, target) | {target}))
        r = len(self.relevant)
        self._weight = dict.fromkeys(self.players, 0)
        self._weight.update((p, 1 << (r - 1 - i)) for i, p in enumerate(self.relevant))
        try:
            self._plan = elimination_plan(mech, target, state_limit)
        except StateSpaceTooLarge:
            self._plan = None
        self.used_sampling = self._plan is None
        self._j = (min(r, max(0, (BATCH_STATES // self._plan.largest).bit_length() - 1))
                   if not self.used_sampling and r <= EXACT_PLAYER_LIMIT else 0)
        self.runs = 1 << (r - self._j)
        self._values = {0: 0.0}      # by key, when there is no table
        # NaN marks a key whose block is not computed; v(∅) alone needs no run
        self._table = np.full(1 << r, np.nan) if r <= EXACT_PLAYER_LIMIT else None
        if self._table is not None and not self._j:
            self._table[0] = 0.0
        baseline = (sample_marginal(mech, {}, target, FALLBACK_SAMPLES, [seed, 0])
                    if self.used_sampling
                    else target_marginal(mech, {}, target, limit=state_limit))
        # one baseline row per block row: a stride-0 broadcast baseline can
        # change the last ulp of a JSD; a materialized one cannot
        self._baseline = np.tile(baseline, (1 << self._j, 1))

    def _block(self, block: int) -> np.ndarray:
        """Game values of the ``2**j`` coalitions keyed ``block << j | b``."""
        if self._plan is None:
            subset = [p for p in self.relevant if self._weight[p] & block]
            rows = sample_marginal(self.mech, dict.fromkeys(subset, "cur"), self.target,
                                   FALLBACK_SAMPLES, [self.seed, block])[None]
        else:
            fixed = len(self.relevant) - self._j
            windows = [("cur" if block >> (fixed - 1 - i) & 1 else "ref")
                       for i in range(fixed)] + [None] * self._j
            rows = batched_marginals(self._plan, windows)
        return jsd_rows(rows, self._baseline)

    def _value(self, key: int) -> float:
        if self._table is None:
            if key not in self._values:
                self._values[key] = self._block(key).item(0)
            return self._values[key]
        if math.isnan(self._table[key]):
            block, j = key >> self._j, self._j
            self._table[block << j:(block + 1) << j] = self._block(block)
        return self._table.item(key)

    def table(self) -> np.ndarray:
        """All ``2**r`` game values, indexed by key."""
        if self._table is None:
            raise TooManyPlayers(f"{len(self.relevant)} relevant players exceed "
                                 f"exact limit {EXACT_PLAYER_LIMIT}")
        for block in range(self.runs):
            self._value(block << self._j)
        return self._table

    def __call__(self, subset) -> float:
        return self._value(sum(self._weight[p] for p in subset))


# ---------------------------------------------------------------------------
# generic Shapley solvers (usable with any set function)

def shapley_from_table(table: np.ndarray) -> np.ndarray:
    """Exact Shapley values of the r players of a game given by its ``2**r``
    values, keyed as in :class:`MechanismSwapGame`: φ_i = Σ_{S∌i}
    |S|!(r-|S|-1)!/r! · (v(S ∪ {i}) − v(S)), summed in a fixed order."""
    r = table.size.bit_length() - 1
    sizes = np.zeros(1, dtype=np.uint8)        # |S| of each key
    for _ in range(r):
        sizes = np.concatenate([sizes, sizes + 1])
    weight = np.array([1 / (r * math.comb(r - 1, s)) for s in range(r)] + [0.0])
    cube, weight = table.reshape((2,) * r), weight[sizes].reshape((2,) * r)
    phi = []
    for i in range(r):                         # views along axis i: no 2**r copies
        v, w = np.moveaxis(cube, i, 0), np.moveaxis(weight, i, 0)
        phi.append(np.sum(w[0] * (v[1] - v[0])))
    return np.array(phi)


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


# ---------------------------------------------------------------------------
# classification and the mechanism-level entry point

def classify(phi: dict, total: float, tau: float = DEFAULT_TAU,
             epsilon: float = DEFAULT_EPSILON) -> Classification:
    """Concentrated / distributed / negligible, on absolute-value shares."""
    if total < epsilon:
        return Classification("negligible")
    shares = shares_of(phi)
    if not any(shares.values()):
        return Classification("negligible")
    ranked = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))
    if ranked[0][1] >= tau:
        return Classification("concentrated", (ranked[0][0],))
    tops = tuple(p for p, s in ranked if s >= BRANCH_CUTOFF)
    return Classification("distributed", tops)


def shares_of(phi: dict) -> dict:
    abs_sum = sum(abs(x) for x in phi.values())
    if abs_sum == 0.0:
        return {p: 0.0 for p in phi}
    return {p: abs(x) / abs_sum for p, x in phi.items()}


MODES = ("auto", "exact", "sampled")


def attribute(mech: MechanismSet, target: str, mode: str = "auto",
              permutations: int = DEFAULT_PERMUTATIONS, seed=0,
              tau: float = DEFAULT_TAU, epsilon: float = DEFAULT_EPSILON,
              state_limit: int = mech_mod.DEFAULT_STATE_LIMIT) -> AttributionResult:
    """Mechanism-swap Shapley attribution of the shift in one target.

    ``mode`` "exact" solves the game from its table, "sampled" averages
    over ``permutations`` seeded player orders, and "auto" is exact when
    the table takes no more runs than the orders could ask for (r + 1
    coalitions each). Dummies get φ = 0.0. The result's mode is "sampled"
    also when the game fell back to ancestral sampling past ``state_limit``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown attribution mode '{mode}' (expected one of {MODES})")
    if target not in mech.nodes:
        raise InsufficientData(
            f"no fitted data for '{target}' in view '{mech.view.name}'")
    game = MechanismSwapGame(mech, target, state_limit, seed=seed)
    r = len(game.relevant)
    exact = mode == "exact" or (mode == "auto" and r <= EXACT_PLAYER_LIMIT
                                and game.runs <= permutations * (r + 1))
    if exact:
        phi = dict.fromkeys(sorted(game.players), 0.0)
        phi.update(zip(game.relevant, shapley_from_table(game.table()).tolist()))
    else:
        phi = sampled_shapley(game, game.players, permutations, seed)
    total = game(frozenset(game.players))
    return AttributionResult(
        view=mech.view,
        target=target,
        players=tuple(sorted(phi)),
        phi=phi,
        total=total,
        shares=shares_of(phi),
        mode="exact" if exact and not game.used_sampling else "sampled",
        classification=classify(phi, total, tau, epsilon),
    )
