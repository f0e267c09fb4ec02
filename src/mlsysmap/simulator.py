"""Structural causal model of the customer-churn example, with fault
injection per scenario.

The generator produces aligned reference and current observation windows
over the bundled churn map. The reference window always uses baseline
parameters; scenarios change exactly one knob in the current window:

    S0  no change
    S1  outreach threshold 0.6 -> 0.4
    S2  parse quality 1.0 -> 0.7
    S3  feature logic bias: activity features shifted by +0.5,
        no modulator recorded
    S4  quality of service mean 1.0 -> 0.6
    S5  hidden activity change: log-noise mean 0 -> 0.5 (no modeled
        parent explains it)
    S6  model version v1 -> v2

Generation is fully deterministic given (scenario, n, seed); the
reference window stream is independent of the scenario, so reference
distributions are identical across scenarios at a fixed seed.
:func:`generate` hands the generated arrays straight to the dataset;
:func:`generate_csv` formats the same arrays as CSV text, column by
column: each distinct number is formatted once, as ``repr`` writes it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import WindowedDataset, build_dataset
from .errors import UnknownScenario
from .mapcore import SystemMap
from .msmformat import parse_map
from .traversal import Pattern

SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6")

_DEMO_LEVELS = np.array(("young", "adult", "senior"))
_BASE_ACTIVITY = np.array((5.0, 3.0, 2.0))          # per demographic level
_DEMO_PROBS = (0.5, 0.3, 0.2)
_MODEL_COEFFS = {"v1": (2.0, -0.8, 0.5), "v2": (1.0, -0.5, 0.9)}
_EVENT_RATE = 7.0


@dataclass(frozen=True)
class WindowParams:
    """Generator knobs for one observation window."""

    quality_mean: float = 1.0
    quality_sd: float = 0.1
    noise_mean: float = 0.0
    noise_sd: float = 0.2
    parse_quality: float = 1.0
    model_version: str = "v1"
    outreach_threshold: float = 0.6
    feature_bias: float = 0.0


def scenario_params(scenario: str) -> WindowParams:
    """Current-window parameters for a scenario (reference is baseline)."""
    base = WindowParams()
    overrides = {
        "S0": {},
        "S1": {"outreach_threshold": 0.4},
        "S2": {"parse_quality": 0.7},
        "S3": {"feature_bias": 0.5},
        "S4": {"quality_mean": 0.6},
        "S5": {"noise_mean": 0.5},
        "S6": {"model_version": "v2"},
    }
    if scenario not in overrides:
        raise UnknownScenario(f"unknown scenario '{scenario}' (expected S0..S6)")
    return replace(base, **overrides[scenario])


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 5000
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def current_params(self) -> WindowParams:
        return replace(scenario_params(self.scenario), **self.overrides)


# scenario -> (alert to trace, expected pattern path, expected verdict kind,
# expected verdict node). The oracle for end-to-end validation.
EXPECTED_TRACES = {
    "S1": ("system.outreach_decision",
           (Pattern.AP1_1, Pattern.AP2_1),
           "root-cause", "application.outreach_policy"),
    "S2": ("system.promo_ranking",
           (Pattern.AP1_2, Pattern.AP2_1),
           "root-cause", "pipeline.parse_quality"),
    "S3": ("system.promo_ranking",
           (Pattern.AP1_2, Pattern.AP2_2),
           "component", "pipeline.activity_features"),
    "S4": ("system.promo_ranking",
           (Pattern.AP1_2, Pattern.AP2_3, Pattern.AP3_1),
           "external", "env.quality_of_service"),
    "S5": ("system.promo_ranking",
           (Pattern.AP1_2, Pattern.AP2_3, Pattern.AP3_2),
           "undetermined", "env.user_activity"),
    "S6": ("system.churn_score",
           (Pattern.AP1_1, Pattern.AP2_1),
           "root-cause", "serving.model_version"),
}


def churn_map_text() -> str:
    return (importlib.resources.files("mlsysmap.data") / "churn.msm").read_text(
        encoding="utf-8"
    )


def churn_map() -> SystemMap:
    """The bundled churn example map."""
    return parse_map(churn_map_text())


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def _truncated_normal(rng, mean, sd, n):
    # truncation at zero; with the defaults used here rejections are rare
    out = rng.normal(mean, sd, n)
    while True:
        bad = out < 0.0
        if not bad.any():
            return out
        out[bad] = rng.normal(mean, sd, int(bad.sum()))


def _generate_window(rng, params: WindowParams, n: int):
    # drawing an index takes the same random stream as drawing the label
    level = rng.choice(len(_DEMO_LEVELS), p=_DEMO_PROBS, size=n)
    demo = _DEMO_LEVELS[level]
    quality = _truncated_normal(rng, params.quality_mean, params.quality_sd, n)
    noise = rng.normal(params.noise_mean, params.noise_sd, n)
    base = _BASE_ACTIVITY[level]
    activity = base * quality * np.exp(noise)
    events = rng.poisson(_EVENT_RATE * activity * params.parse_quality)
    counts = events
    features = np.log1p(counts) + params.feature_bias
    a0, a1, a2 = _MODEL_COEFFS[params.model_version]
    churn = _logistic(a0 + a1 * features + a2 * (demo == "senior"))
    outreach = (churn >= params.outreach_threshold).astype(int)
    ranking = _logistic(-1.0 + 2.0 * churn + 0.3 * features)
    sent = outreach * (ranking >= 0.5).astype(int)
    return {
        "env.user_demographics": demo,
        "env.quality_of_service": quality,
        "system.demographic_features": demo,
        "pipeline.activity_events": events,
        "pipeline.daily_counts": counts,
        "pipeline.activity_features": features,
        "pipeline.parse_quality": np.full(n, f"q{params.parse_quality:g}"),
        "pipeline.data_freshness": np.full(n, "fresh"),
        "serving.churn_score_out": churn,
        "serving.model_version": np.full(n, params.model_version),
        "application.outreach_out": outreach,
        "application.outreach_policy": np.full(n, f"t{params.outreach_threshold:g}"),
        "serving2.promo_out": ranking,
        "application2.sent_out": sent,
    }


def _windows(config: ScenarioConfig):
    """The reference and current windows' arrays, keyed by column name."""
    if config.n < 1:
        raise ValueError(f"rows per window must be >= 1, got {config.n}")
    ref = _generate_window(
        np.random.default_rng([config.seed, 0]), WindowParams(), config.n
    )
    cur = _generate_window(
        np.random.default_rng([config.seed, 1]), config.current_params(), config.n
    )
    return ref, cur


def _columns(config: ScenarioConfig):
    """(name, reference rows then current rows) per column, in name order."""
    ref, cur = _windows(config)
    return [(c, np.concatenate([ref[c], cur[c]])) for c in sorted(ref)]


def _cells(column: np.ndarray) -> list:
    """Each cell of a column as text: a label as it is, a number as ``repr``
    writes it. Numbers are told apart by their bits, so -0.0 and 0.0 stay apart."""
    if column.dtype.kind == "U":
        return column.tolist()
    bits, codes = np.unique(column.view(f"u{column.dtype.itemsize}"),
                            return_inverse=True)
    # repr of a list writes each item as repr does, joined by ", "
    text = repr(bits.view(column.dtype).tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[codes].tolist()


def generate_csv(config: ScenarioConfig) -> str:
    """Deterministic CSV text: n reference rows then n current rows.

    The window label comes first, then the columns in name order. Each
    distinct number in a column is written once, as ``repr`` writes it.
    """
    columns = _columns(config)
    window = ["ref"] * config.n + ["cur"] * config.n
    cells = [_cells(values) for _, values in columns]
    header = ",".join(["window"] + [c for c, _ in columns])
    return "\n".join([header, *map(",".join, zip(window, *cells)), ""])


@dataclass
class SimulationOutput:
    system_map: SystemMap
    dataset: WindowedDataset


def generate(config: ScenarioConfig) -> SimulationOutput:
    """Generate one scenario: the churn map plus its windowed dataset.

    The dataset equals ``load_csv(churn_map(), generate_csv(config))``.
    """
    system_map = churn_map()
    columns = _columns(config)
    window = np.repeat(np.array(["ref", "cur"], dtype=object), config.n)
    return SimulationOutput(
        system_map=system_map,
        dataset=build_dataset(system_map, columns, window),
    )
