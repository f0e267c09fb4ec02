"""Layered causal maps of ML systems for tracing distribution shifts.

Build a map of an ML system (system / subsystem / environment views),
load reference and current observation windows, detect shifted system
variables, and trace each alert from symptom to source with
mechanism-swap Shapley attribution.
"""

from .attribution import (
    AttributionResult,
    Classification,
    attribute,
    classify,
)
from .dataset import WindowedDataset, load_csv, view_matrix
from .mapcore import (
    Node,
    NodeKind,
    Relation,
    RelationKind,
    SystemMap,
    View,
    ViewType,
    build_map,
)
from .mechanisms import (
    MechanismSet,
    fit_discretization,
    fit_mechanisms,
    jsd,
    sample_marginal,
    shift_test,
    target_marginal,
)
from .msmformat import parse_map, serialize_map
from .simulator import ScenarioConfig, churn_map, generate
from .traversal import (
    Pattern,
    TraceConfig,
    TraceReport,
    TraceStep,
    Verdict,
    detect_alerts,
    match_pattern,
    trace,
)

__version__ = "0.1.0"
