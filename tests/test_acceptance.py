"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines inline).
"""

import json
import math
import time

import numpy as np

from mlsysmap.attribution import attribute
from mlsysmap.cli import main
from mlsysmap.errors import MapBuildError, ParseError
from mlsysmap.mechanisms import fit_mechanisms, jsd, target_marginal
from mlsysmap.msmformat import parse_map, serialize_map
from mlsysmap.simulator import EXPECTED_TRACES, churn_map_text
from mlsysmap.traversal import TraceConfig, detect_alerts, trace

from helpers import brute_force_marginal, random_map, random_mechanism_set, simulate
from test_msmformat import INVALID_CORPUS
from test_traversal import first_child_path

SEEDS = range(20)


def _crit(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_shapley_efficiency():
    """Sum of Shapley values equals the full swap shift, 100 random sets."""
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        mech = random_mechanism_set(rng, n_nodes=int(rng.integers(2, 9)))
        target = str(rng.choice(mech.nodes))
        r = attribute(mech, target, mode="exact")
        worst = max(worst, abs(sum(r.phi.values()) - r.total))
    elapsed = time.time() - t0
    _crit("C1 efficiency", worst <= 1e-9 and elapsed < 30.0,
          f"max |sum(phi) - v(N)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_dummy_isolation():
    """Unchanged mechanisms get zero attribution; a single change gets all."""
    rng = np.random.default_rng(1002)
    worst_dummy = worst_iso = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 7))
        changed = {int(i) for i in rng.choice(n, size=int(rng.integers(1, n)),
                                              replace=False)}
        mech = random_mechanism_set(rng, n_nodes=n, changed=changed)
        r = attribute(mech, str(rng.choice(mech.nodes)), mode="exact")
        for i, p in enumerate(mech.nodes):
            if i not in changed:
                worst_dummy = max(worst_dummy, abs(r.phi[p]))
    for _ in range(10):
        n = int(rng.integers(3, 7))
        j = int(rng.integers(0, n))
        mech = random_mechanism_set(rng, n_nodes=n, changed={j})
        r = attribute(mech, mech.nodes[-1], mode="exact")
        worst_iso = max(worst_iso, abs(r.phi[mech.nodes[j]] - r.total))
    ok = worst_dummy <= 1e-9 and worst_iso <= 1e-9
    _crit("C2 dummy/isolation", ok,
          f"max dummy |phi| = {worst_dummy:.2e}, "
          f"max |phi_changed - v(N)| = {worst_iso:.2e}")


def test_criterion_3_inference_oracle():
    """Variable elimination matches brute-force enumeration on 200 DAGs."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(200):
        mech = random_mechanism_set(rng)
        target = str(rng.choice(mech.nodes))
        assignment = {q: ("cur" if rng.random() < 0.5 else "ref")
                      for q in mech.nodes}
        got = target_marginal(mech, assignment, target)
        want = brute_force_marginal(mech, assignment, target)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _crit("C3 inference oracle", worst <= 1e-12,
          f"max abs deviation = {worst:.2e} over 200 random DAGs")


def test_criterion_4_sampled_vs_exact():
    """Sampled Shapley (500 orders) tracks exact on the 6-player system view."""
    hits = 0
    for seed in SEEDS:
        out = simulate("S2", 5000, seed)
        mech = fit_mechanisms(out.system_map, out.dataset,
                              out.system_map.system_view())
        exact = attribute(mech, "system.promo_ranking", mode="exact")
        sampled = attribute(mech, "system.promo_ranking", mode="sampled",
                            permutations=500, seed=seed)
        gap = max(abs(sampled.phi[p] - exact.phi[p]) for p in exact.players)
        tol = 0.05 * max(max(abs(v) for v in exact.phi.values()), 0.01)
        hits += gap <= tol
    _crit("C4 sampled vs exact", hits >= 18, f"{hits}/20 seeds within tolerance")


def test_criterion_5_scenario_traces():
    """Expected pattern path and verdict on >= 18/20 seeds per scenario;
    no alerts on the null scenario; every run under 60 s."""
    slowest = 0.0
    lines = []
    ok = True
    for scenario, (alert, path, kind, node) in sorted(EXPECTED_TRACES.items()):
        hits = 0
        for seed in SEEDS:
            out = simulate(scenario, 5000, seed)
            t0 = time.time()
            report = trace(out.system_map, out.dataset, alert, TraceConfig(seed=seed))
            slowest = max(slowest, time.time() - t0)
            good_path = first_child_path(report) == path
            good_verdict = any(v.kind == kind and v.node == node
                               for v in report.verdicts)
            hits += good_path and good_verdict
        ok = ok and hits >= 18
        lines.append(f"{scenario} {hits}/20")
    null_hits = 0
    for seed in SEEDS:
        out = simulate("S0", 5000, seed)
        t0 = time.time()
        alerts = detect_alerts(out.system_map, out.dataset, alpha=0.01,
                               B=1000, seed=seed)
        slowest = max(slowest, time.time() - t0)
        null_hits += not alerts
    ok = ok and null_hits >= 18 and slowest < 60.0
    _crit("C5 scenario sweep", ok,
          f"{', '.join(lines)}, S0 clean {null_hits}/20, "
          f"slowest run {slowest:.1f}s")


def test_criterion_6_jsd_properties():
    """Symmetry, bounds, identity, and the disjoint-support maximum."""
    rng = np.random.default_rng(1006)
    ln2 = math.log(2.0)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        d = jsd(p, q)
        ok = ok and 0.0 <= d <= ln2 + 1e-12
        ok = ok and d == jsd(q, p)
        ok = ok and jsd(p, p) == 0.0
    disjoint = abs(jsd([1.0, 0.0], [0.0, 1.0]) - ln2)
    ok = ok and disjoint <= 1e-15
    _crit("C6 divergence properties", ok,
          f"1000 random pairs, |jsd(disjoint) - ln 2| = {disjoint:.1e}")


def test_criterion_7_format_round_trip():
    """Canonical serialization round-trips; malformed inputs are rejected."""
    rng = np.random.default_rng(1007)
    ok = True
    bundled = parse_map(churn_map_text())
    ok = ok and parse_map(serialize_map(bundled)) == bundled
    for _ in range(100):
        m = random_map(rng)
        text = serialize_map(m)
        ok = ok and parse_map(text) == m
        ok = ok and serialize_map(parse_map(text)) == text
    rejected = 0
    for text in INVALID_CORPUS:
        try:
            parse_map(text)
        except (ParseError, MapBuildError):
            rejected += 1
    ok = ok and rejected == len(INVALID_CORPUS)
    _crit("C7 format round-trip", ok,
          f"bundled + 100 random maps, {rejected}/{len(INVALID_CORPUS)} "
          "invalid inputs rejected")


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated CLI runs on identical inputs produce identical bytes."""
    map_path = tmp_path / "churn.msm"
    data_a = tmp_path / "a.csv"
    data_b = tmp_path / "b.csv"
    rc1 = main(["simulate", "--scenario", "S2", "--n", "1000", "--seed", "0",
                "--out-data", str(data_a), "--out-map", str(map_path)])
    rc2 = main(["simulate", "--scenario", "S2", "--n", "1000", "--seed", "0",
                "--out-data", str(data_b), "--out-map", str(map_path)])
    same_data = data_a.read_bytes() == data_b.read_bytes()

    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        rc = main(["trace", str(map_path), str(data_a),
                   "--alert", "system.promo_ranking", "--seed", "7",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    same_trace = outs[0] == outs[1]
    doc = json.loads(outs[0])
    ok = (rc1 == rc2 == 0 and same_data and same_trace
          and doc["schema"] == "msm-report/1")
    _crit("C8 CLI determinism", ok,
          f"simulate identical={same_data}, trace identical={same_trace}")
