"""Shapley attribution: solver axioms on injected games, the
mechanism-swap game, and the concentrated/distributed/negligible
classification."""

import numpy as np
import pytest

from mlsysmap import attribution
from mlsysmap.attribution import (
    MechanismSwapGame,
    attribute,
    classify,
    exact_shapley,
    sampled_shapley,
    shares_of,
)
from mlsysmap.errors import InsufficientData, TooManyPlayers
from mlsysmap.mapcore import ancestors

from helpers import random_mechanism_set


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
    with pytest.raises(TooManyPlayers):
        exact_shapley(lambda s: 0.0, [f"p{i}" for i in range(13)])


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


def test_state_limit_falls_back_to_sampling():
    mech = random_mechanism_set(np.random.default_rng(40), n_nodes=4, p_edge=1.0)
    target = mech.nodes[-1]
    result = attribute(mech, target, mode="exact", state_limit=2)
    assert result.mode == "sampled"
    assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-9)
    again = attribute(mech, target, mode="exact", state_limit=2)
    assert again.phi == result.phi
    assert attribute(mech, target, mode="exact").mode == "exact"

def non_ancestors(mech, target):
    return sorted(set(mech.nodes) - ancestors(mech.parents, target) - {target})


def test_exact_attribution_evaluates_each_ancestor_coalition_once(monkeypatch):
    real = attribution.target_marginal
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(attribution, "target_marginal", counting)
    checked = 0
    for seed in range(4):
        mech = random_mechanism_set(np.random.default_rng(seed), n_nodes=6)
        for target in mech.nodes:
            outside = non_ancestors(mech, target)
            calls.clear()
            result = attribute(mech, target, mode="exact")
            assert len(calls) == 2 ** (len(mech.nodes) - len(outside))
            assert all(result.phi[p] == 0.0 for p in outside)
            checked += bool(outside)
    assert checked >= 10


def test_fallback_sampling_keeps_non_ancestors_dummies():
    mech = random_mechanism_set(np.random.default_rng(7), n_nodes=6)
    target = "system.n3"
    result = attribute(mech, target, mode="exact", state_limit=4)
    assert result.mode == "sampled"
    outside = non_ancestors(mech, target)
    assert outside
    assert [result.phi[p] for p in outside] == [0.0] * len(outside)
    assert sum(result.phi.values()) == pytest.approx(result.total, abs=1e-9)


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
