"""Shapley attribution: solver axioms on injected games, the
mechanism-swap game, and the concentrated/distributed/negligible
classification."""

import math

import numpy as np
import pytest

from mlsysmap import attribution, mechanisms
from mlsysmap.attribution import (
    MechanismSwapGame,
    attribute,
    classify,
    shares_of,
)
from mlsysmap.dataset import load_csv
from mlsysmap.errors import InsufficientData, StateSpaceTooLarge, TooManyPlayers
from mlsysmap.mapcore import View, ancestors
from mlsysmap.mechanisms import fit_mechanisms
from mlsysmap.msmformat import parse_map

from helpers import (exact_shapley, random_mechanism_set, reference_exact_shapley,
                     reference_game_value, sampled_shapley)


def dict_game(values):
    table = {frozenset(k): v for k, v in values.items()}
    return lambda s: table[frozenset(s)]


# ---------------------------------------------------------------------------
# exact solver on injected set functions

def test_exact_shapley_hand_computed():
    v = dict_game({(): 0.0, ("a",): 1.0, ("b",): 1.0, ("a", "b"): 4.0})
    phi = exact_shapley(v, ["a", "b"])
    assert phi == {"a": 2.0, "b": 2.0}


def test_exact_shapley_null_game():
    v = lambda s: 0.0
    phi = exact_shapley(v, ["a", "b", "c"])
    assert all(x == 0.0 for x in phi.values())


def test_exact_shapley_additive_game():
    weights = {"a": 0.3, "b": 1.1, "c": -0.4}
    v = lambda s: sum(weights[p] for p in s)
    phi = exact_shapley(v, list(weights))
    for p, w in weights.items():
        assert phi[p] == pytest.approx(w, abs=1e-12)


def test_exact_shapley_efficiency_on_random_games():
    rng = np.random.default_rng(17)
    players = ["a", "b", "c", "d"]
    for _ in range(20):
        table = {}
        for mask in range(16):
            s = frozenset(p for i, p in enumerate(players) if mask >> i & 1)
            table[s] = 0.0 if not s else float(rng.random())
        v = lambda s: table[frozenset(s)]
        phi = exact_shapley(v, players)
        assert sum(phi.values()) == pytest.approx(v(frozenset(players)), abs=1e-9)


def test_exact_shapley_symmetry():
    # v depends only on |S|: all players are interchangeable
    v = lambda s: float(len(s)) ** 2
    phi = exact_shapley(v, ["a", "b", "c"])
    assert len(set(phi.values())) == 1


def test_exact_shapley_dummy_player():
    # "d" never contributes
    v = lambda s: float(len(set(s) - {"d"}))
    phi = exact_shapley(v, ["a", "b", "d"])
    assert phi["d"] == 0.0
    assert phi["a"] == phi["b"] == pytest.approx(1.0)


def test_exact_shapley_player_limit():
    players = [f"p{i}" for i in range(attribution.EXACT_PLAYER_LIMIT + 1)]
    with pytest.raises(TooManyPlayers):
        exact_shapley(lambda s: 0.0, players)


def test_exact_shapley_matches_enumeration_reference():
    """The table solver agrees with the per-player enumeration on random
    games, and players the game ignores get exactly 0.0."""
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        players = [f"p{i}" for i in range(n)]
        dummies = {p for p in players if rng.random() < 0.3}
        table = {}

        def v(s):
            key = frozenset(s) - dummies
            if key not in table:
                table[key] = float(rng.normal()) if key else 0.0
            return table[key]

        phi = exact_shapley(v, players)
        reference = reference_exact_shapley(v, players)
        assert list(phi) == list(reference)
        for p in players:
            assert phi[p] == pytest.approx(reference[p], abs=1e-12)
        assert [phi[p] for p in sorted(dummies)] == [0.0] * len(dummies)


# ---------------------------------------------------------------------------
# sampled solver

def test_sampled_shapley_single_player_is_exact():
    v = dict_game({(): 0.0, ("a",): 2.5})
    assert sampled_shapley(v, ["a"], 1, seed=0) == {"a": 2.5}


def test_sampled_shapley_seed_deterministic():
    v = dict_game({(): 0.0, ("a",): 1.0, ("b",): 0.5, ("a", "b"): 2.0})
    p1 = sampled_shapley(v, ["a", "b"], 50, seed=42)
    p2 = sampled_shapley(v, ["a", "b"], 50, seed=42)
    assert p1 == p2


def test_sampled_shapley_converges_to_exact():
    rng = np.random.default_rng(23)
    players = ["a", "b", "c"]
    table = {}
    for mask in range(8):
        s = frozenset(p for i, p in enumerate(players) if mask >> i & 1)
        table[s] = 0.0 if not s else float(rng.random())
    v = lambda s: table[frozenset(s)]
    exact = exact_shapley(v, players)
    sampled = sampled_shapley(v, players, 4000, seed=1)
    for p in players:
        assert sampled[p] == pytest.approx(exact[p], abs=0.03)


def test_sampled_shapley_rejects_zero_permutations():
    with pytest.raises(ValueError):
        sampled_shapley(lambda s: 0.0, ["a"], 0, seed=0)


# ---------------------------------------------------------------------------
# mechanism-swap game

def test_game_empty_set_is_zero():
    mech = random_mechanism_set(np.random.default_rng(31), n_nodes=4)
    game = MechanismSwapGame(mech, mech.nodes[-1])
    assert game(frozenset()) == 0.0
    assert MechanismSwapGame(mech, mech.nodes[-1])(frozenset()) == 0.0


def test_game_values_cached_and_deterministic():
    mech = random_mechanism_set(np.random.default_rng(32), n_nodes=4)
    game = MechanismSwapGame(mech, mech.nodes[-1])
    s = frozenset(mech.nodes[:2])
    assert game(s) == game(s)
    assert game(s) == MechanismSwapGame(mech, mech.nodes[-1])(frozenset(s))


def test_identical_windows_give_null_game():
    mech = random_mechanism_set(np.random.default_rng(33), n_nodes=4,
                                changed=set())
    result = attribute(mech, mech.nodes[-1], mode="exact")
    assert result.total == 0.0
    assert all(x == 0.0 for x in result.phi.values())
    assert result.classification.kind == "negligible"


def test_single_changed_mechanism_takes_all_mass():
    rng = np.random.default_rng(34)
    for _ in range(5):
        mech = random_mechanism_set(rng, n_nodes=4, changed={1})
        target = mech.nodes[-1]
        result = attribute(mech, target, mode="exact")
        changed = mech.nodes[1]
        for p in result.players:
            if p == changed:
                assert result.phi[p] == pytest.approx(result.total, abs=1e-9)
            else:
                assert abs(result.phi[p]) <= 1e-9


def test_efficiency_on_mechanism_games():
    rng = np.random.default_rng(35)
    for _ in range(10):
        mech = random_mechanism_set(rng)
        result = attribute(mech, mech.nodes[-1], mode="exact")
        assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-9)
        assert result.mode == "exact"


def test_sampled_entrypoint_and_auto_dispatch():
    mech = random_mechanism_set(np.random.default_rng(36), n_nodes=4)
    target = mech.nodes[-1]
    exact = attribute(mech, target, mode="exact")
    sampled = attribute(mech, target, mode="sampled", permutations=800, seed=7)
    assert sampled.mode == "sampled"
    for p in exact.players:
        assert sampled.phi[p] == pytest.approx(exact.phi[p], abs=0.05)
    auto = attribute(mech, target, mode="auto")
    assert auto.mode == "exact"
    forced = attribute(mech, target, mode="sampled", permutations=10, seed=0)
    assert forced.mode == "sampled"



def test_unknown_mode_is_rejected():
    mech = random_mechanism_set(np.random.default_rng(38), n_nodes=3)
    with pytest.raises(ValueError, match="exat"):
        attribute(mech, mech.nodes[-1], mode="exat")


def test_target_without_fitted_data_is_insufficient():
    mech = random_mechanism_set(np.random.default_rng(39), n_nodes=3)
    with pytest.raises(InsufficientData, match="'system.nope' in view 'system'"):
        attribute(mech, "system.nope")


def chain_of_four():
    return random_mechanism_set(np.random.default_rng(40), n_nodes=4, p_edge=1.0)


def test_state_limit_falls_back_to_sampling(monkeypatch):
    mech = chain_of_four()
    target = mech.nodes[-1]
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 2)
    result = attribute(mech, target, mode="exact")
    assert result.mode == "sampled"
    assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-9)
    again = attribute(mech, target, mode="exact")
    assert again.phi == result.phi
    monkeypatch.undo()
    assert attribute(chain_of_four(), target, mode="exact").mode == "exact"


def test_exact_mode_past_the_state_limit_samples_orders_when_they_cost_less(monkeypatch):
    """Past the limit a table of 2**r values is 2**r samplings, so "exact"
    samples orders where auto mode would: 1 order asks for at most
    r + 1 = 5 coalitions, each one sampling, and the baseline one more.
    Past ``EXACT_PLAYER_LIMIT`` relevant players "exact" still raises."""
    mech = chain_of_four()
    target = mech.nodes[-1]
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 2)
    calls = []

    def counting(*args):
        calls.append(args[3])
        return mechanisms.sample_marginal(*args)

    monkeypatch.setattr(attribution, "sample_marginal", counting)
    result = attribute(mech, target, mode="exact", permutations=1, seed=4)
    assert len(calls) <= 6
    game = MechanismSwapGame(mech, target, seed=4)
    assert game.used_sampling and game.runs == 16
    assert result.phi == sampled_shapley(game, game.players, 1, seed=4)
    assert result.mode == "sampled"
    many = random_mechanism_set(np.random.default_rng(32), n_nodes=18, max_states=2,
                                p_edge=0.2)
    assert MechanismSwapGame(many, "system.n17").used_sampling
    with pytest.raises(TooManyPlayers, match="17 relevant players"):
        attribute(many, "system.n17", mode="exact")


def test_exact_past_the_player_limit_is_refused_before_the_game_is_built(monkeypatch):
    many = random_mechanism_set(np.random.default_rng(32), n_nodes=18, max_states=2,
                                p_edge=0.2)

    def unbuilt(*args, **kwargs):
        raise AssertionError("built the game")

    monkeypatch.setattr(attribution, "MechanismSwapGame", unbuilt)
    with pytest.raises(TooManyPlayers) as exc:
        attribute(many, "system.n17", mode="exact")
    assert str(exc.value) == "17 relevant players exceed exact limit 16"


STATE_MAP = parse_map("""\
map diamond
view system
  data a
  data b
  data c
  data d
  edge a -> b
  edge a -> c
  edge b -> d
  edge c -> d
""")

STATE_CSV = "window,system.a,system.b,system.c,system.d\n" + "".join(
    f"{w},{a},u,u,u\n" for w, cells in (("ref", "pqrs"), ("cur", "ppqs")) for a in cells)


def test_one_state_limit_governs_the_fit_and_inference(monkeypatch):
    """a has 5 states and b, c, d 2 each: the largest table, b given a, has
    10 cells, and eliminating a first multiplies a product of 20 states."""
    ds = load_csv(STATE_MAP, STATE_CSV)
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 9)
    with pytest.raises(StateSpaceTooLarge, match="10 cells"):
        fit_mechanisms(STATE_MAP, ds, View.system())
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 10)
    mech = fit_mechanisms(STATE_MAP, ds, View.system())
    with pytest.raises(StateSpaceTooLarge, match="20 states"):
        mechanisms.target_marginal(mech, {}, "system.d")
    assert attribute(mech, "system.d", mode="exact").mode == "sampled"
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 20)
    mech = fit_mechanisms(STATE_MAP, ds, View.system())
    assert attribute(mech, "system.d", mode="exact").mode == "exact"


def non_ancestors(mech, target):
    return sorted(set(mech.nodes) - ancestors(mech.parents, target) - {target})


def counting_blocks(monkeypatch):
    """Patch the game's batched elimination to record the rows of each call."""
    real = attribution.batched_marginals
    rows = []

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(attribution, "batched_marginals", counting)
    return rows


def test_exact_attribution_evaluates_each_ancestor_coalition_once(monkeypatch):
    monkeypatch.setattr(attribution, "BATCH_STATES", 32)
    rows = counting_blocks(monkeypatch)
    checked = multi_block = 0
    for seed in range(4):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=6)
        for target in mech.nodes:
            outside = non_ancestors(mech, target)
            rows.clear()
            result = attribute(mech, target, mode="exact")
            single = set(rows) == {1}   # one coalition per run: v(∅) is the literal 0.0
            assert sum(rows) == 2 ** (len(mech.nodes) - len(outside)) - single
            assert all(result.phi[p] == 0.0 for p in outside)
            checked += bool(outside)
            multi_block += len(rows) > 1
    assert checked >= 10 and multi_block >= 10


@pytest.mark.parametrize("batch_states", [1 << 18, 64, 8])
def test_blocked_game_values_equal_per_coalition_reference(monkeypatch, batch_states):
    monkeypatch.setattr(attribution, "BATCH_STATES", batch_states)
    rows = counting_blocks(monkeypatch)
    rng = np.random.default_rng(41)
    multi_block = 0
    for _ in range(8):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(2, 7)),
                                    max_states=int(rng.integers(2, 10)))
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            rows.clear()
            for mask in range(1 << len(mech.nodes)):
                s = frozenset(p for i, p in enumerate(mech.nodes) if mask >> i & 1)
                assert game(s) == reference_game_value(mech, target, s)
            multi_block += len(rows) > 1
    assert multi_block >= (0 if batch_states == 1 << 18 else 8)


@pytest.mark.parametrize("batch_states", [1 << 18, 64, 8])
def test_blocked_values_with_many_state_victims_equal_reference(monkeypatch, batch_states):
    """Blocked runs equal one coalition at a time bit for bit also where
    victims have 8 or 9 states, which ``random_mechanism_set``'s default
    of at most 3 never draws."""
    monkeypatch.setattr(attribution, "BATCH_STATES", batch_states)
    rng = np.random.default_rng(8)
    many_state_victims = 0
    for _ in range(6):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(3, 6)), max_states=9)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            many_state_victims += sum(mech.disc[v].n_states >= 8
                                      for v in game._plan.order[:-1])
            for mask in range(1 << len(mech.nodes)):
                s = frozenset(p for i, p in enumerate(mech.nodes) if mask >> i & 1)
                assert game(s) == reference_game_value(mech, target, s)
    assert many_state_victims >= 5


@pytest.mark.parametrize("batch_states", [8, 64, 1 << 18])
def test_batch_width_keeps_each_step_within_batch_states(monkeypatch, batch_states):
    """Every batched step reads and forms arrays of at most ``BATCH_STATES``
    states, the game batches no fewer leaves than ``2**j`` times its
    largest product within ``BATCH_STATES`` would, and its table equals
    per-coalition evaluation bit for bit."""
    monkeypatch.setattr(attribution, "BATCH_STATES", batch_states)
    real_step, sizes = mechanisms._run_step, []

    def step(values, slots, shapes, r):
        out = real_step(values, slots, shapes, r)
        sizes.extend([out.size] + [values[slot].size for slot in slots])
        return out

    monkeypatch.setattr(mechanisms, "_run_step", step)
    rng = np.random.default_rng(23)
    batched = wider = 0
    for _ in range(12):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(3, 8)),
                                    max_states=int(rng.integers(2, 6)), p_edge=0.6)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            r = len(game.relevant)
            j = r - (game.runs.bit_length() - 1)
            largest = max(size for size, _ in game._plan.sizes)
            assert j >= min(r, max(0, (batch_states // largest).bit_length() - 1))
            sizes.clear()
            table = game.table()
            if j:
                assert max(sizes, default=0) <= batch_states
                batched += 1
            wider += j > 0 and largest << j > batch_states
            for key in range(1 << r):
                s = [p for i, p in enumerate(game.relevant) if key >> (r - 1 - i) & 1]
                assert table[key] == reference_game_value(mech, target, s)
    assert batched >= 25 and wider >= (5 if batch_states == 64 else 0)


def test_fallback_sampling_keeps_non_ancestors_dummies(monkeypatch):
    mech = random_mechanism_set(np.random.default_rng(7), n_nodes=6)
    target = "system.n3"
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 4)
    result = attribute(mech, target, mode="exact")
    assert result.mode == "sampled"
    outside = non_ancestors(mech, target)
    assert outside
    assert [result.phi[p] for p in outside] == [0.0] * len(outside)
    assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-9)


@pytest.mark.parametrize("seed, n_nodes, p_edge, target, limit", [
    (7, 6, 0.5, "system.n3", 4), (40, 4, 1.0, "system.n3", 2), (40, 4, 1.0, "system.n3", 8)])
def test_fallback_phi_equals_per_coalition_reference(monkeypatch, seed, n_nodes, p_edge,
                                                     target, limit):
    """Past the VE limit each coalition keeps its own ``[seed, key]``
    sample, so φ is bit for bit that of the per-coalition game solved
    over the relevant players."""
    mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=n_nodes, p_edge=p_edge)
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", limit)
    result = attribute(mech, target, mode="exact", seed=5)
    assert result.mode == "sampled"
    relevant = ancestors(mech.parents, target) | {target}
    reference = dict.fromkeys(mech.nodes, 0.0)
    reference.update(exact_shapley(
        lambda s: reference_game_value(mech, target, s, seed=5), relevant))
    assert result.phi == reference
    assert result.total == reference_game_value(mech, target, mech.nodes, seed=5)


def test_sparse_game_evaluates_each_requested_coalition_alone(monkeypatch):
    """Past ``EXACT_PLAYER_LIMIT`` a miss computes its one coalition, so
    the batched rows equal the distinct coalitions the solver asked for."""
    monkeypatch.setattr(attribution, "EXACT_PLAYER_LIMIT", 3)
    rows = counting_blocks(monkeypatch)
    checked = 0
    for seed in range(6):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=6)
        for target in mech.nodes:
            relevant = ancestors(mech.parents, target) | {target}
            if len(relevant) <= 3:
                continue
            game = MechanismSwapGame(mech, target)
            asked = set()

            def v(s):
                asked.add(frozenset(s) & relevant)
                assert game(s) == reference_game_value(mech, target, s)
                return game(s)

            rows.clear()
            sampled_shapley(v, mech.nodes, permutations=5, seed=seed)
            assert rows == [1] * (len(asked) - 1)     # v(∅) is never computed
            checked += 1
    assert checked >= 8


def test_sparse_game_on_many_relevant_players(monkeypatch):
    """A sampled game with 25 relevant players runs the plan once per
    distinct coalition asked for, as per-coalition evaluation did."""
    rows = counting_blocks(monkeypatch)
    mech = random_mechanism_set(np.random.default_rng(1), n_nodes=28, max_states=2,
                                p_edge=0.15)
    target = mech.nodes[-1]
    relevant = ancestors(mech.parents, target) | {target}
    assert len(relevant) == 25 > attribution.EXACT_PLAYER_LIMIT
    game = MechanismSwapGame(mech, target)
    asked = set()

    def v(s):
        asked.add(frozenset(s) & relevant)
        return game(s)

    phi = sampled_shapley(v, mech.nodes, permutations=4, seed=0)
    assert rows == [1] * (len(asked) - 1)
    for s in (frozenset(mech.nodes[::2]), frozenset(mech.nodes[1::3])):
        assert game(s) == reference_game_value(mech, target, s)
    assert sum(phi.values()) == pytest.approx(game(frozenset(mech.nodes)), abs=1e-12)


def test_auto_is_exact_over_relevant_players_past_the_limit():
    """The exact/sampled choice counts relevant players, not the view's."""
    mech = random_mechanism_set(np.random.default_rng(0), n_nodes=20, max_states=2,
                                p_edge=0.15)
    assert len(mech.nodes) > attribution.EXACT_PLAYER_LIMIT
    target = "system.n17"
    relevant = ancestors(mech.parents, target) | {target}
    assert len(relevant) == 11
    result = attribute(mech, target)
    assert result.mode == "exact"
    reference = reference_exact_shapley(MechanismSwapGame(mech, target), relevant)
    for p in mech.nodes:
        assert result.phi[p] == (pytest.approx(reference[p], abs=1e-12) if p in relevant
                                 else 0.0)


def test_exact_limit_counts_relevant_players():
    mech = random_mechanism_set(np.random.default_rng(32), n_nodes=18, max_states=2,
                                p_edge=0.2)
    sizes = {t: len(ancestors(mech.parents, t) | {t}) for t in mech.nodes}
    assert sizes["system.n16"] == attribution.EXACT_PLAYER_LIMIT
    assert sizes["system.n17"] == attribution.EXACT_PLAYER_LIMIT + 1
    result = attribute(mech, "system.n16")
    assert result.mode == "exact"
    assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-12)
    assert result.phi["system.n17"] == 0.0
    with pytest.raises(TooManyPlayers, match="17 relevant players"):
        attribute(mech, "system.n17", mode="exact")
    assert attribute(mech, "system.n17", permutations=4).mode == "sampled"


def table_phi(game):
    phi = dict.fromkeys(game.players, 0.0)
    phi.update(zip(game.relevant, attribution.shapley_from_table(game.table()).tolist()))
    return phi


def test_auto_is_exact_only_where_the_table_costs_no_more_than_the_orders(monkeypatch):
    """Auto mode fills the table when its runs are at most
    ``permutations * (r + 1)``, and otherwise samples orders; past
    the state limit each run is one sampling."""
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 2)
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(6):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(4, 6)), p_edge=0.8)
        target = mech.nodes[-1]
        game = MechanismSwapGame(mech, target, seed=3)
        r = len(game.relevant)
        if not game.used_sampling or r < 3:
            continue
        assert game.runs == 2 ** r
        few = attribute(mech, target, permutations=1, seed=3)
        assert few.phi == sampled_shapley(game, game.players, 1, seed=3)
        many = attribute(mech, target, permutations=2 ** r, seed=3)
        assert many.phi == table_phi(game)
        assert few.mode == many.mode == "sampled"
        checked += 1
    assert checked >= 3


def test_auto_samples_a_dense_game_whose_table_takes_more_runs(monkeypatch):
    monkeypatch.setattr(attribution, "BATCH_STATES", 1)    # one coalition per run
    mech = random_mechanism_set(np.random.default_rng(45), n_nodes=6, p_edge=0.8)
    target = mech.nodes[-1]
    r = len(ancestors(mech.parents, target) | {target})
    assert MechanismSwapGame(mech, target).runs == 2 ** r > 2 * (r + 1)
    assert attribute(mech, target, permutations=2).mode == "sampled"
    assert attribute(mech, target, permutations=2 ** r).mode == "exact"


def test_sampled_orders_compute_only_the_blocks_they_reach(monkeypatch):
    """The table fills lazily: a few sampled orders run the plan once per
    distinct block asked for, not once per block of the table."""
    monkeypatch.setattr(attribution, "BATCH_STATES", 16)
    rows = counting_blocks(monkeypatch)
    checked = 0
    for seed in range(6):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=7, p_edge=0.6)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            weight = {p: 1 << (len(game.relevant) - 1 - i)
                      for i, p in enumerate(game.relevant)}
            asked = set()

            def v(s):
                asked.add(sum(weight.get(p, 0) for p in s))
                return game(s)

            rows.clear()
            sampled_shapley(v, game.players, permutations=1, seed=seed)
            if game.runs < 4 or not rows:
                continue
            j = rows[0].bit_length() - 1
            assert len(rows) == len({key >> j for key in asked} - ({0} if j == 0 else set()))
            assert len(rows) < game.runs
            assert all(game(s) == reference_game_value(mech, target, s)
                       for s in (frozenset(), frozenset(game.relevant[::2])))
            checked += 1
    assert checked >= 8


def counting_steps(monkeypatch):
    """Patch the plan's one-step executor and the game's batched runs to
    record, per executed step, its slots and the block key of its run."""
    real_step, real_run = mechanisms._run_step, attribution.batched_marginals
    runs, steps = [], []

    def run(batched, block):
        runs.append(block)
        return real_run(batched, block)

    def step(values, slots, *args):
        steps.append((runs[-1] if runs else None, slots))
        return real_step(values, slots, *args)

    monkeypatch.setattr(attribution, "batched_marginals", run)
    monkeypatch.setattr(mechanisms, "_run_step", step)
    return runs, steps


def step_masks(game):
    """Per step slots: its mask over the fixed leaves, and the all-fixed mask."""
    j = len(game.relevant) - (game.runs.bit_length() - 1)
    return {slots: mask >> j for slots, _, _, mask in game._plan.steps}, game.runs - 1


def test_one_sampled_order_runs_only_the_blocks_its_prefix_keys_reach(monkeypatch):
    """``attribute``'s walk over one order runs the plan once per distinct
    block of the order's prefix keys, v(∅) included unless a block holds
    one key, and never once per block of the table."""
    monkeypatch.setattr(attribution, "BATCH_STATES", 16)
    runs, _ = counting_steps(monkeypatch)
    checked = 0
    for seed in range(6):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=7, p_edge=0.6)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target, seed=seed)
            r, players = len(game.relevant), sorted(game.players)
            j = r - (game.runs.bit_length() - 1)
            key, keys = 0, {0}
            for idx in np.random.default_rng(seed).permutation(len(players)):
                if players[idx] in game.relevant:
                    key += 1 << (r - 1 - game.relevant.index(players[idx]))
                keys.add(key)
            runs.clear()
            attribute(mech, target, mode="sampled", permutations=1, seed=seed)
            assert sorted(runs) == sorted({k >> j for k in keys} - ({0} if j == 0 else set()))
            checked += len(runs) < game.runs - 1
    assert checked >= 8


def dummy_game():
    """11 of 20 players relevant: 9 dummies leave the prefix key unchanged."""
    return random_mechanism_set(np.random.default_rng(0), n_nodes=20, max_states=2,
                                p_edge=0.15), "system.n17"


def many_player_game():
    """25 relevant players: every block holds one key."""
    return random_mechanism_set(np.random.default_rng(1), n_nodes=28, max_states=2,
                                p_edge=0.15), "system.n27"


def fallback_game():
    """Past a state limit of 4 every value is an ancestral sampling."""
    return random_mechanism_set(np.random.default_rng(7), n_nodes=6), "system.n3"


@pytest.mark.parametrize("build, state_limit", [
    (many_player_game, None), (dummy_game, None), (fallback_game, 4)])
def test_sampled_phi_equals_the_set_function_solver(monkeypatch, build, state_limit):
    """``attribute``'s sampled φ, walked on the game's keys, equals the
    set-function solver's over the same orders bit for bit: on per-key
    blocks past the player limit, with dummies, and past the state limit."""
    mech, target = build()
    if state_limit is not None:
        monkeypatch.setattr(mechanisms, "STATE_LIMIT", state_limit)
    result = attribute(mech, target, mode="sampled", permutations=4, seed=9)
    game = MechanismSwapGame(mech, target, seed=9)
    assert game.used_sampling == (state_limit is not None)
    assert result.phi == sampled_shapley(game, game.players, 4, seed=9)
    assert result.total == game(frozenset(game.players))
    outside = non_ancestors(mech, target)
    assert [result.phi[p] for p in outside] == [0.0] * len(outside)
    if build is many_player_game:
        assert game.runs == 2 ** len(game.relevant) == 2 ** 25
    else:
        assert outside


@pytest.mark.parametrize("batch_states", [8, 32])
def test_memoized_steps_equal_per_coalition_reference(monkeypatch, batch_states):
    """With the memo full after a few results, every table value and the
    sampled φ, whose blocks arrive out of order, equal per-coalition
    evaluation, and the memo holds at most ``BATCH_STATES`` states."""
    monkeypatch.setattr(attribution, "BATCH_STATES", batch_states)
    runs, steps = counting_steps(monkeypatch)
    rng = np.random.default_rng(46)
    capped = 0
    for _ in range(10):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(4, 7)), p_edge=0.6)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            if game.runs < 4:
                continue
            runs.clear(), steps.clear()
            table = game.table()
            r = len(game.relevant)
            for key in range(1 << r):
                s = [p for i, p in enumerate(game.relevant) if key >> (r - 1 - i) & 1]
                assert table[key] == reference_game_value(mech, target, s)
            assert game._runs.states <= batch_states
            masks, full = step_masks(game)
            seen = [(slots, block & masks[slots]) for block, slots in steps
                    if masks[slots] != full]
            capped += len(seen) > len(set(seen))
            seed = int(rng.integers(100))
            reference = sampled_shapley(lambda s: reference_game_value(mech, target, s),
                                        mech.nodes, 3, seed)
            assert attribute(mech, target, mode="sampled", permutations=3,
                             seed=seed).phi == reference
    assert capped >= 5


def test_each_step_runs_once_per_assignment_of_its_fixed_leaves(monkeypatch):
    """A many-block fill with room in the memo runs a step once per
    distinct ``block & mask``, and a step over every fixed leaf once per
    block; most games run fewer steps than blocks times steps."""
    monkeypatch.setattr(attribution, "BATCH_STATES", 16)
    monkeypatch.setattr(attribution, "BatchedRuns",
                        lambda plan, j, limit: mechanisms.BatchedRuns(plan, j, math.inf))
    runs, steps = counting_steps(monkeypatch)
    checked = saved = 0
    for seed in range(6):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=7, p_edge=0.6)
        for target in mech.nodes:
            game = MechanismSwapGame(mech, target)
            if game.runs < 4:
                continue
            runs.clear(), steps.clear()
            game.table()
            assert len(set(runs)) == len(runs) >= game.runs - 1   # v(∅) may need no run
            masks, full = step_masks(game)
            expected = []
            for block in runs:
                expected += [(slots, block & mask) for slots, mask in masks.items()
                             if mask == full or (slots, block & mask) not in expected]
            executed = [(slots, block & masks[slots]) for block, slots in steps]
            assert sorted(executed) == sorted(expected)
            kept = [game._plan.steps[step][0] for step, _ in game._runs.steps]
            assert full not in [masks[slots] for slots in kept]   # unique per block
            saved += len(executed) < len(masks) * game.runs
            checked += 1
    assert checked >= 10 and saved >= 10


# ---------------------------------------------------------------------------
# classification

def test_classify_negligible_below_epsilon():
    c = classify({"a": 1e-4, "b": 1e-4}, total=1e-3, epsilon=2e-3)
    assert c.kind == "negligible" and c.nodes == () and c.top is None


def test_classify_concentrated():
    c = classify({"a": 0.09, "b": 0.01}, total=0.1)
    assert c.kind == "concentrated" and c.nodes == ("a",)


def test_classify_distributed_keeps_nodes_above_cutoff():
    c = classify({"a": 0.4, "b": 0.35, "c": 0.2, "d": 0.05}, total=1.0)
    assert c.kind == "distributed"
    assert c.nodes == ("a", "b", "c")


def test_classify_uses_absolute_shares():
    c = classify({"a": -0.9, "b": 0.1}, total=0.5)
    assert c.kind == "concentrated" and c.top == "a"


def test_classify_tau_boundary_and_tie_break():
    c = classify({"a": 0.5, "b": 0.5}, total=1.0, tau=0.5)
    assert c.kind == "concentrated" and c.top == "a"   # lexicographic tie


def test_shares_of_zero_vector():
    assert shares_of({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}


def test_result_ordered_shares():
    mech = random_mechanism_set(np.random.default_rng(37), n_nodes=3)
    r = attribute(mech, mech.nodes[-1], mode="exact")
    assert sum(r.shares.values()) in (0.0, pytest.approx(1.0))
