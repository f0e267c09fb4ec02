"""Scenario generator: determinism, window alignment, scenario knobs."""

import pytest

from mlsysmap.errors import UnknownScenario
from mlsysmap.simulator import (
    EXPECTED_TRACES,
    SCENARIOS,
    ScenarioConfig,
    WindowParams,
    churn_map,
    churn_map_text,
    generate,
    generate_csv,
    scenario_params,
)
from mlsysmap.msmformat import parse_map


def test_generation_is_deterministic():
    cfg = ScenarioConfig("S2", n=120, seed=9)
    assert generate_csv(cfg) == generate_csv(cfg)


def test_reference_window_identical_across_scenarios():
    n = 150
    blocks = {}
    for s in ("S0", "S3", "S6"):
        lines = generate_csv(ScenarioConfig(s, n=n, seed=4)).splitlines()
        blocks[s] = lines[: n + 1]           # header + reference rows
    assert blocks["S0"] == blocks["S3"] == blocks["S6"]


def test_seed_changes_output():
    a = generate_csv(ScenarioConfig("S0", n=50, seed=0))
    b = generate_csv(ScenarioConfig("S0", n=50, seed=1))
    assert a != b


def test_scenario_params():
    assert scenario_params("S0") == WindowParams()
    assert scenario_params("S1").outreach_threshold == 0.4
    assert scenario_params("S2").parse_quality == 0.7
    assert scenario_params("S3").feature_bias == 0.5
    assert scenario_params("S4").quality_mean == 0.6
    assert scenario_params("S5").noise_mean == 0.5
    assert scenario_params("S6").model_version == "v2"
    with pytest.raises(UnknownScenario):
        scenario_params("S7")


def test_config_overrides():
    cfg = ScenarioConfig("S0", overrides={"parse_quality": 0.5})
    assert cfg.current_params().parse_quality == 0.5


def test_row_count_validation():
    with pytest.raises(ValueError):
        generate_csv(ScenarioConfig("S0", n=0))


def test_generate_loads_cleanly():
    out = generate(ScenarioConfig("S1", n=80, seed=2))
    ds = out.dataset
    assert ds.n_rows == 160
    assert int(ds.window_mask("ref").sum()) == 80
    assert int(ds.window_mask("cur").sum()) == 80
    assert ds.warnings == []                  # every column matches the map
    assert out.system_map == churn_map()


def test_bundled_map_parses():
    m = parse_map(churn_map_text())
    assert m.name == "churn"
    assert m == churn_map()


def test_expected_traces_cover_fault_scenarios():
    assert set(EXPECTED_TRACES) == set(SCENARIOS) - {"S0"}
    for alert, path, kind, node in EXPECTED_TRACES.values():
        assert alert.startswith("system.")
        assert kind in {"root-cause", "component", "external", "undetermined"}
        assert len(path) >= 2 or kind == "root-cause"
