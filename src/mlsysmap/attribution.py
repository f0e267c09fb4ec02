"""Mechanism-swap Shapley attribution.

The game value of a node subset S is the divergence between the target's
marginal when the nodes in S use their current-window mechanisms (all
others staying on reference) and the all-reference marginal. Shapley
values over this game split the observed shift across the nodes whose
mechanisms changed (Budhathoki et al., "Why did the distribution
change?", AISTATS 2021). Players are all fitted nodes of the view,
including the target itself, so a local mechanism change at the target
is attributable to it.

``attribute`` is the one entry point on a mechanism set: it builds the
game, solves it exactly or by sampled player orders, and classifies
where the mass lands. ``exact_shapley`` and ``sampled_shapley`` solve
any set function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import mechanisms as mech_mod
from .errors import InsufficientData, StateSpaceTooLarge, TooManyPlayers
from .mapcore import View, ancestors
from .mechanisms import MechanismSet, divergence, sample_marginal, target_marginal

EXACT_PLAYER_LIMIT = 12
DEFAULT_TAU = 0.5
DEFAULT_BRANCH_CUTOFF = 0.2
DEFAULT_EPSILON = 2e-3
FALLBACK_SAMPLES = 20_000


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

    Values are keyed on the players in ancestors(target) | {target}: the
    target's marginal ignores every other mechanism, so coalitions that
    differ only in non-ancestors share one evaluation (and, when variable
    elimination exceeds ``state_limit``, one sampling seed), which makes
    non-ancestors exact Shapley dummies.
    """

    def __init__(self, mech: MechanismSet, target: str, div: str = "jsd",
                 state_limit: int = mech_mod.DEFAULT_STATE_LIMIT,
                 fallback_samples: int = FALLBACK_SAMPLES, seed=0):
        self.mech = mech
        self.target = target
        self.div = div
        self.state_limit = state_limit
        self.fallback_samples = fallback_samples
        self.seed = seed
        self.players = mech.nodes
        relevant = ancestors(mech.parents, target) | {target}
        self._index = {p: (1 << i if p in relevant else 0)
                       for i, p in enumerate(self.players)}
        self.used_sampling = False
        self._baseline = self._marginal(frozenset(), 0)
        self._cache = {0: divergence(self._baseline, self._baseline, div)}

    def _marginal(self, subset, key: int) -> np.ndarray:
        assignment = dict.fromkeys(subset, "cur")
        try:
            return target_marginal(self.mech, assignment, self.target,
                                   limit=self.state_limit)
        except StateSpaceTooLarge:
            self.used_sampling = True
            return sample_marginal(self.mech, assignment, self.target,
                                   self.fallback_samples, [self.seed, key])

    def __call__(self, subset) -> float:
        key = sum(self._index[p] for p in subset)
        if key not in self._cache:
            p = self._marginal(subset, key)
            self._cache[key] = divergence(p, self._baseline, self.div)
        return self._cache[key]


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
             epsilon: float = DEFAULT_EPSILON,
             branch_cutoff: float = DEFAULT_BRANCH_CUTOFF) -> Classification:
    """Concentrated / distributed / negligible, on absolute-value shares."""
    if total < epsilon:
        return Classification("negligible")
    shares = shares_of(phi)
    if not any(shares.values()):
        return Classification("negligible")
    ranked = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))
    if ranked[0][1] >= tau:
        return Classification("concentrated", (ranked[0][0],))
    tops = tuple(p for p, s in ranked if s >= branch_cutoff)
    return Classification("distributed", tops)


def shares_of(phi: dict) -> dict:
    abs_sum = sum(abs(x) for x in phi.values())
    if abs_sum == 0.0:
        return {p: 0.0 for p in phi}
    return {p: abs(x) / abs_sum for p, x in phi.items()}


MODES = ("auto", "exact", "sampled")


def attribute(mech: MechanismSet, target: str, mode: str = "auto",
              permutations: int = 500, seed=0, div: str = "jsd",
              tau: float = DEFAULT_TAU, epsilon: float = DEFAULT_EPSILON,
              branch_cutoff: float = DEFAULT_BRANCH_CUTOFF,
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
    game = MechanismSwapGame(mech, target, div, state_limit, seed=seed)
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
        classification=classify(phi, total, tau, epsilon, branch_cutoff),
    )
