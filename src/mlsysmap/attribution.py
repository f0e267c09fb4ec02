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
values when r is at most ``EXACT_PLAYER_LIMIT``, or by walking the
coalition keys of sampled player orders.

``attribute`` is the one entry point on a mechanism set: it builds the
game, solves it exactly or by sampled player orders, and classifies
where the mass lands: on one node when its share reaches ``tau``,
otherwise on every node whose share reaches ``BRANCH_CUTOFF``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientData, StateSpaceTooLarge, TooManyPlayers
from .mapcore import View, ancestors
from .mechanisms import (BatchedRuns, MechanismSet, batched_marginals, elimination_plan,
                         jsd_rows, sample_marginal, target_marginal)

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
    the largest ``j`` with each of the plan's ``sizes``, doubled by each
    batched leaf in its mask, at most ``BATCH_STATES``. ``j`` is 0 past
    ``EXACT_PLAYER_LIMIT`` relevant players and past
    ``mechanisms.STATE_LIMIT``, where a marginal is
    ``FALLBACK_SAMPLES`` ancestral samples seeded ``[seed, key]``. Each
    computed block is kept in one store by block index: up to that player
    limit :meth:`table` fills all ``runs`` blocks and joins them into the
    ``2**r`` values, and :meth:`sampled_phi` computes only the blocks its
    orders' prefix keys reach. The runs share
    one :class:`mechanisms.BatchedRuns` of at most ``BATCH_STATES`` kept
    states: while it has room, an elimination step runs once per value of
    ``block & mask``, ``mask`` marking the fixed leaves it depends on, and
    a step that depends on all of them once per block.
    """

    def __init__(self, mech: MechanismSet, target: str, seed=0):
        self.mech = mech
        self.target = target
        self.seed = seed
        self.players = mech.nodes
        self.relevant = tuple(sorted(ancestors(mech.parents, target) | {target}))
        r = len(self.relevant)
        self._weight = dict.fromkeys(self.players, 0)
        self._weight.update((p, 1 << (r - 1 - i)) for i, p in enumerate(self.relevant))
        try:
            self._plan = elimination_plan(mech, target)
        except StateSpaceTooLarge:
            self._plan = None
        self.used_sampling = self._plan is None
        self._j = r if not self.used_sampling and r <= EXACT_PLAYER_LIMIT else 0
        while self._j and any(size << (mask & (1 << self._j) - 1).bit_count() > BATCH_STATES
                              for size, mask in self._plan.sizes):
            self._j -= 1
        self.runs = 1 << (r - self._j)
        self._runs = None if self.used_sampling else BatchedRuns(self._plan, self._j, BATCH_STATES)
        # computed blocks by block index; a block of one key needs no run for v(∅)
        self._blocks = {} if self._j else {0: np.zeros(1)}
        baseline = (sample_marginal(mech, {}, target, FALLBACK_SAMPLES, [seed, 0])
                    if self.used_sampling else target_marginal(mech, {}, target))
        # one baseline row per block row: a stride-0 broadcast baseline can
        # change the last ulp of a JSD; a materialized one cannot
        self._baseline = np.tile(baseline, (1 << self._j, 1))

    def _block(self, block: int) -> np.ndarray:
        """Game values of the ``2**j`` coalitions keyed ``block << j | b``,
        computed on first request."""
        if block not in self._blocks:
            if self._runs is None:
                subset = [p for p in self.relevant if self._weight[p] & block]
                rows = sample_marginal(self.mech, dict.fromkeys(subset, "cur"), self.target,
                                       FALLBACK_SAMPLES, [self.seed, block])[None]
            else:
                rows = batched_marginals(self._runs, block)
            self._blocks[block] = jsd_rows(rows, self._baseline)
        return self._blocks[block]

    def _value(self, key: int) -> float:
        return self._block(key >> self._j).item(key & (1 << self._j) - 1)

    def table(self) -> np.ndarray:
        """All ``2**r`` game values, indexed by key."""
        if len(self.relevant) > EXACT_PLAYER_LIMIT:
            raise TooManyPlayers(f"{len(self.relevant)} relevant players exceed "
                                 f"exact limit {EXACT_PLAYER_LIMIT}")
        return np.concatenate([self._block(block) for block in range(self.runs)])

    def sampled_phi(self, permutations: int, seed) -> dict[str, float]:
        """Mean marginal contribution over ``permutations`` orders of the
        sorted players drawn from ``default_rng(seed)``; each order walks
        the keys of its prefixes."""
        if permutations < 1:
            raise ValueError(f"need at least 1 permutation, got {permutations}")
        players = sorted(self.players)
        weight = [self._weight[p] for p in players]
        rng = np.random.default_rng(seed)
        phi = [0.0] * len(players)
        for _ in range(permutations):
            key, prev = 0, self._value(0)
            for idx in rng.permutation(len(players)):
                key += weight[idx]
                val = self._value(key)
                phi[idx] += val - prev
                prev = val
        return {p: x / permutations for p, x in zip(players, phi)}

    def __call__(self, subset) -> float:
        return self._value(sum(self._weight[p] for p in subset))


# ---------------------------------------------------------------------------
# exact Shapley values from a value table

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
              tau: float = DEFAULT_TAU, epsilon: float = DEFAULT_EPSILON) -> AttributionResult:
    """Mechanism-swap Shapley attribution of the shift in one target.

    ``mode`` "exact" solves the game from its table, "sampled" averages
    over ``permutations`` seeded player orders, and "auto" is exact when
    the table takes no more runs than the orders could ask for (r + 1
    coalitions each). Past ``mechanisms.STATE_LIMIT`` every value is a
    sampling, so up to ``EXACT_PLAYER_LIMIT`` relevant players "exact"
    then follows auto mode's rule, and the result's mode is "sampled".
    "exact" past that player limit raises ``TooManyPlayers`` before any
    game value is computed. Dummies get φ = 0.0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown attribution mode '{mode}' (expected one of {MODES})")
    if target not in mech.nodes:
        raise InsufficientData(
            f"no fitted data for '{target}' in view '{mech.view.name}'")
    r = len(ancestors(mech.parents, target)) + 1
    if mode == "exact" and r > EXACT_PLAYER_LIMIT:
        raise TooManyPlayers(f"{r} relevant players exceed exact limit {EXACT_PLAYER_LIMIT}")
    game = MechanismSwapGame(mech, target, seed=seed)
    exact = (mode == "exact" and not game.used_sampling
             or mode != "sampled" and r <= EXACT_PLAYER_LIMIT
             and game.runs <= permutations * (r + 1))
    if exact:
        phi = dict.fromkeys(sorted(game.players), 0.0)
        phi.update(zip(game.relevant, shapley_from_table(game.table()).tolist()))
    else:
        phi = game.sampled_phi(permutations, seed)
    total = game._value((1 << r) - 1)
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
