"""Scenario generator: determinism, window alignment, scenario knobs."""

import numpy as np
import pytest

from mlsysmap.errors import UnknownScenario
from mlsysmap.simulator import (
    EXPECTED_TRACES,
    SCENARIOS,
    ScenarioConfig,
    WindowParams,
    _DEMO_PROBS,
    _cells,
    _generate_window,
    _truncated_normal,
    churn_map,
    churn_map_text,
    generate,
    generate_csv,
    scenario_params,
)
from mlsysmap.msmformat import parse_map

from helpers import reference_generate_csv


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


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_csv_equals_the_per_cell_writer(scenario):
    for seed in (0, 3):
        for n in (1, 2, 300):
            cfg = ScenarioConfig(scenario, n=n, seed=seed)
            assert generate_csv(cfg) == reference_generate_csv(cfg)


def test_each_cell_is_written_as_repr_writes_it():
    """Distinct numbers are told apart by their bits: a writer that merged
    equal values would write -0.0 as 0.0, or the reverse."""
    neg_nan = np.copysign(np.nan, -1.0)
    floats = np.array([0.0, -0.0, np.nan, neg_nan, np.inf, -np.inf, 5e-324,
                       0.1 + 0.2, 1e16] * 3)
    floats = np.concatenate([floats, floats[::-1]])
    ints = np.array([0, -1, 7, 2**63 - 1, -2**63, 7, 0, -1], dtype=np.int64)
    labels = np.array(["q1", "young", "", "q0.7", "young"])
    for column, write in ((floats, repr), (ints, repr), (labels, str)):
        assert _cells(column) == [write(v) for v in column.tolist()]


@pytest.mark.parametrize("seed", range(5))
def test_demographic_index_draw_is_the_label_draw(seed):
    n, params = 400, WindowParams()
    window = _generate_window(np.random.default_rng(seed), params, n)
    rng = np.random.default_rng(seed)
    demo = rng.choice(("young", "adult", "senior"), p=_DEMO_PROBS, size=n)
    np.testing.assert_array_equal(window["env.user_demographics"], demo)
    # the draw leaves the stream where the label draw left it
    quality = _truncated_normal(rng, params.quality_mean, params.quality_sd, n)
    np.testing.assert_array_equal(window["env.quality_of_service"], quality)


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


def test_row_count_validation():
    with pytest.raises(ValueError):
        generate_csv(ScenarioConfig("S0", n=0))


def test_generate_loads_cleanly():
    out = generate(ScenarioConfig("S1", n=80, seed=2))
    ds = out.dataset
    assert len(ds.window.codes) == 160
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
