"""Mechanism-swap Shapley attribution.

The game value of a node subset S is the Jensen-Shannon divergence
between the target's marginal when the nodes in S use their
current-window mechanisms (all others staying on reference) and the
all-reference marginal. Shapley values over this game split the
observed shift across the nodes whose mechanisms changed (Budhathoki et
al., "Why did the distribution change?", AISTATS 2021). Players are all
fitted nodes of the view, including the target itself, so a local
mechanism change at the target is attributable to it. With at most
``DENSE_PLAYERS`` relevant players the game computes its values in
blocks of coalitions, one batched elimination run and one JSD call per
block, with every batched product within ``BATCH_STATES``; past that it
computes each requested coalition alone.

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

EXACT_PLAYER_LIMIT = 12
DEFAULT_PERMUTATIONS = 500        # sampled-Shapley player orders
DEFAULT_TAU = 0.5
DEFAULT_EPSILON = 2e-3
BRANCH_CUTOFF = 0.2               # least share that opens a distributed branch
FALLBACK_SAMPLES = 20_000         # ancestral samples per game value past the VE limit
BATCH_STATES = 1 << 18            # largest batched product: 2 MB of float64
DENSE_PLAYERS = 16                # most relevant players whose coalitions are batched


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

    Values depend only on the players in ancestors(target) | {target}:
    the target's marginal ignores every other mechanism, so non-ancestors
    weigh nothing in a coalition's key and are exact Shapley dummies.
    The r relevant players, in sorted (plan-leaf) order, weigh
    ``1 << (r-1-i)``.

    With at most ``DENSE_PLAYERS`` relevant players, coalitions are
    evaluated in blocks of ``2**j`` that share every bit of the key but
    the last ``j``: a miss on ``S`` runs the cached elimination plan
    once with the last ``j`` leaves batched
    (:func:`mechanisms.batched_marginals`) and scores the whole block
    with one ``jsd_rows`` call. ``j`` is the largest value with ``2**j``
    times the plan's largest product at most ``BATCH_STATES``. Past
    ``DENSE_PLAYERS``, sampled orders reach too small a share of each
    block to pay for it, so ``j = 0``: each miss evaluates its one
    coalition, as does a plan whose largest product alone exceeds half
    of ``BATCH_STATES``. Marginals are normalized by construction, so
    values go straight to the unchecked ``jsd_rows``.

    When variable elimination exceeds ``state_limit``, each coalition is
    instead keyed ``1 << i`` on its relevant players' positions in
    ``players``, and its marginal is ``FALLBACK_SAMPLES`` ancestral
    samples seeded ``[seed, key]``.
    """

    def __init__(self, mech: MechanismSet, target: str,
                 state_limit: int = mech_mod.DEFAULT_STATE_LIMIT, seed=0):
        self.mech = mech
        self.target = target
        self.seed = seed
        self.players = mech.nodes
        relevant = sorted(ancestors(mech.parents, target) | {target})
        try:
            self._plan = elimination_plan(mech, target, state_limit)
        except StateSpaceTooLarge:
            self._plan = None
        self.used_sampling = self._plan is None
        self._j = 0
        self._values = {0: 0.0}      # by key, when each miss computes one coalition
        self._blocks = {}            # by block, lists of 2**j values, when j > 0
        if self.used_sampling:
            self._weight = {p: (1 << i if p in relevant else 0)
                            for i, p in enumerate(self.players)}
            baseline = sample_marginal(mech, {}, target, FALLBACK_SAMPLES, [seed, 0])
        else:
            r = len(relevant)
            self._weight = dict.fromkeys(self.players, 0)
            self._weight.update((p, 1 << (r - 1 - i)) for i, p in enumerate(relevant))
            baseline = target_marginal(mech, {}, target, limit=state_limit)
            while (r <= DENSE_PLAYERS and self._j < r
                   and self._plan.largest << (self._j + 1) <= BATCH_STATES):
                self._j += 1
        # one baseline row per block row: a stride-0 broadcast baseline can
        # change the last ulp of a JSD; a materialized one cannot
        self._baseline = np.tile(baseline, (1 << self._j, 1))

    def _score(self, block: int) -> np.ndarray:
        """Game values of the ``2**j`` coalitions whose key is ``block << j | b``."""
        if self._plan is None:
            subset = [p for p in self.players if self._weight[p] & block]
            rows = sample_marginal(self.mech, dict.fromkeys(subset, "cur"), self.target,
                                   FALLBACK_SAMPLES, [self.seed, block])[None]
        else:
            fixed = len(self._plan.leaves) - self._j
            windows = [("cur" if block >> (fixed - 1 - i) & 1 else "ref")
                       for i in range(fixed)] + [None] * self._j
            rows = batched_marginals(self._plan, windows)
        return jsd_rows(rows, self._baseline)

    def __call__(self, subset) -> float:
        key = sum(self._weight[p] for p in subset)
        if not self._j:
            if key not in self._values:
                self._values[key] = self._score(key).item(0)
            return self._values[key]
        block = key >> self._j
        if block not in self._blocks:
            self._blocks[block] = self._score(block).tolist()
        return self._blocks[block][key & ((1 << self._j) - 1)]


# ---------------------------------------------------------------------------
# generic Shapley solvers (usable with any set function)

def exact_shapley(v: Callable, players: Sequence[str]) -> dict[str, float]:
    """Exact Shapley values by full subset enumeration.

    v takes a frozenset of player names. Accumulation order is canonical
    (sorted players, increasing subset bitmask) so results are
    bit-deterministic.
    """
    players = sorted(players)
    n = len(players)
    if n > EXACT_PLAYER_LIMIT:
        raise TooManyPlayers(f"{n} players exceeds exact limit {EXACT_PLAYER_LIMIT}")
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

    ``mode`` "exact" enumerates every coalition, "sampled" averages over
    ``permutations`` seeded player orders, and "auto" is exact up to
    ``EXACT_PLAYER_LIMIT`` players. The result's mode is "sampled" also
    when variable elimination exceeded ``state_limit`` and the game fell
    back to ancestral sampling.
    """
    if mode not in MODES:
        raise ValueError(f"unknown attribution mode '{mode}' (expected one of {MODES})")
    if target not in mech.nodes:
        raise InsufficientData(
            f"no fitted data for '{target}' in view '{mech.view.name}'")
    game = MechanismSwapGame(mech, target, state_limit, seed=seed)
    exact = mode == "exact" or (mode == "auto" and len(game.players) <= EXACT_PLAYER_LIMIT)
    if exact:
        phi = exact_shapley(game, game.players)
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
