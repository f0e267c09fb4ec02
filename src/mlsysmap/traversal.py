"""Symptom-to-source traversal: AQ1 (route) -> AQ2 (localize) -> AQ3
(externalize).

One attribution run per view; the view's type fixes the analysis
question (system AQ1, subsystem AQ2, environment AQ3). Each node that
carries the mass gets its pattern from ``node_pattern``, and the trace
routes on that pattern: it either ends with a verdict or moves to the
next view, from the system view to the implicated subsystem and from a
subsystem boundary to the environment. Distributed mass opens one
branch per node, up to ``TraceConfig.max_branches``, instead of
committing to a single path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .attribution import (DEFAULT_BRANCH_CUTOFF, DEFAULT_EPSILON, DEFAULT_TAU,
                          AttributionResult, attribute)
from .dataset import WindowedDataset, resolve_column
from .errors import InsufficientData, NoRoute, UnknownAlert, ViewMismatch
from .mapcore import NodeKind, SystemMap, View, ViewType, ancestors
from .mechanisms import (DEFAULT_ALPHA, DEFAULT_BINS, DEFAULT_STATE_LIMIT, MechanismSet,
                         ShiftTestResult, fit_mechanisms, shift_test)


class Pattern(enum.Enum):
    AP1_1 = "AP1.1"   # subsystem isolated: conditional system variable
    AP1_2 = "AP1.2"   # isolated at boundary: root system variable (features)
    AP2_1 = "AP2.1"   # root cause localized: modulator
    AP2_2 = "AP2.2"   # component localized: internal data variable
    AP2_3 = "AP2.3"   # localized at input boundary
    AP3_1 = "AP3.1"   # explained externally: upstream random variable
    AP3_2 = "AP3.2"   # cannot determine: mass on the implicated variable
    DISTRIBUTED = "distributed"
    NEGLIGIBLE = "negligible"


@dataclass(frozen=True)
class TraceConfig:
    bins: int = DEFAULT_BINS
    alpha_smoothing: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    epsilon: float = DEFAULT_EPSILON
    branch_cutoff: float = DEFAULT_BRANCH_CUTOFF
    permutations: int = 500          # sampled-Shapley player orders
    test_permutations: int = 1000    # two-sample permutation test re-splits
    seed: int = 0
    mode: str = "auto"               # auto | exact | sampled
    max_branches: int = 3
    eager_environment: bool = False
    divergence: str = "jsd"
    state_limit: int = DEFAULT_STATE_LIMIT


@dataclass(frozen=True)
class Verdict:
    kind: str                        # root-cause | component | external | undetermined | negligible
    node: Optional[str] = None
    view: Optional[str] = None
    detail: str = ""


_AQ = {ViewType.ML_SYSTEM: 1, ViewType.SUBSYSTEM: 2, ViewType.ENVIRONMENT: 3}


@dataclass
class TraceStep:
    view: View
    target: str
    result: AttributionResult
    pattern: Pattern
    note: Optional[str] = None
    verdicts: list = field(default_factory=list)      # verdicts decided at this step
    children: list = field(default_factory=list)      # deeper TraceSteps

    @property
    def aq(self) -> int:
        """Analysis question answered at this step: 1, 2 or 3."""
        return _AQ[self.view.type]


@dataclass
class TraceReport:
    alert: str
    root: TraceStep
    verdicts: tuple
    excluded_environment: tuple
    warnings: tuple


def node_pattern(system_map: SystemMap, view: View, node: str,
                 implicated: str) -> Pattern:
    """Pattern of attribution mass on one node of ``view``.

    ``implicated`` is the step's target; it matters only on the
    environment view, where mass on one of its ancestors explains the
    shift externally and any other mass leaves it undetermined.
    """
    if view.type is ViewType.ML_SYSTEM:
        parents = system_map.view_graph(view).parents[node]
        return Pattern.AP1_1 if parents else Pattern.AP1_2
    if view.type is ViewType.SUBSYSTEM:
        n = system_map.node(node)
        if n.kind is NodeKind.MODULATOR:
            return Pattern.AP2_1
        return Pattern.AP2_3 if n.boundary else Pattern.AP2_2
    if node in ancestors(system_map.view_graph(view).parents, implicated):
        return Pattern.AP3_1
    return Pattern.AP3_2


def match_pattern(view: View, system_map: SystemMap,
                  result: AttributionResult) -> Pattern:
    """Attribution pattern for one result on one view."""
    if result.view != view:
        raise ViewMismatch(
            f"result computed on view '{result.view.name}', not '{view.name}'"
        )
    cls = result.classification
    if cls.kind == "negligible":
        return Pattern.NEGLIGIBLE
    if cls.kind == "distributed":
        return Pattern.DISTRIBUTED
    return node_pattern(system_map, view, cls.top, result.target)


class _Tracer:
    def __init__(self, system_map: SystemMap, ds: WindowedDataset,
                 config: TraceConfig):
        self.map = system_map
        self.ds = ds
        self.config = config
        self.warnings: list[str] = []
        self._mech_cache: dict[str, MechanismSet] = {}

    def mechanisms_for(self, view: View) -> MechanismSet:
        if view.name not in self._mech_cache:
            self._mech_cache[view.name] = fit_mechanisms(
                self.map, self.ds, view,
                k=self.config.bins, alpha=self.config.alpha_smoothing,
            )
        return self._mech_cache[view.name]

    def attribute(self, view: View, target: str) -> AttributionResult:
        cfg = self.config
        return attribute(
            self.mechanisms_for(view), target,
            mode=cfg.mode, permutations=cfg.permutations, seed=cfg.seed,
            div=cfg.divergence, tau=cfg.tau, epsilon=cfg.epsilon,
            branch_cutoff=cfg.branch_cutoff, state_limit=cfg.state_limit,
        )

    # -- one step per view --------------------------------------------

    def step(self, view: View, target: str) -> TraceStep:
        result = self.attribute(view, target)
        pattern = match_pattern(view, self.map, result)
        step = TraceStep(view=view, target=target, result=result, pattern=pattern)
        if pattern is Pattern.NEGLIGIBLE:
            step.verdicts.append(Verdict("negligible", view=view.name,
                                         detail="no attributable shift"))
            return step
        nodes = result.classification.nodes
        kept = nodes[: self.config.max_branches]
        if len(nodes) > len(kept):
            self.warnings.append(
                f"{view.name}: distributed mass, branches not expanded: "
                + ", ".join(nodes[len(kept):])
            )
        for node in kept:
            self.route(step, node)
        return step

    # -- routing on the pattern of each node that carries mass ---------

    def route(self, step: TraceStep, node: str):
        view = step.view
        pattern = node_pattern(self.map, view, node, step.target)
        if pattern in (Pattern.AP1_1, Pattern.AP1_2):
            self._route_system(step, node, root=pattern is Pattern.AP1_2)
        elif pattern is Pattern.AP2_1:
            step.verdicts.append(Verdict("root-cause", node=node, view=view.name,
                                         detail="mechanism change at a modulator"))
        elif pattern is Pattern.AP2_2:
            step.verdicts.append(Verdict(
                "component", node=node, view=view.name,
                detail="internal data variable; manual investigation required",
            ))
        elif pattern is Pattern.AP2_3:
            self._route_boundary(step, node)
        elif pattern is Pattern.AP3_1:
            step.verdicts.append(Verdict(
                "external", node=node, view=view.name,
                detail="shift explained by an upstream environmental change",
            ))
        elif node == step.target:
            step.verdicts.append(Verdict(
                "undetermined", node=node, view=view.name,
                detail="mass on the implicated variable itself; the cause may be "
                       "internal or a hidden environmental confounder",
            ))
        else:
            step.note = "non-ancestral mass"
            step.verdicts.append(Verdict(
                "undetermined", node=node, view=view.name,
                detail="mass on a non-ancestor of the implicated variable; the map "
                       "may lack an edge or a hidden confounder may link them",
            ))

    def _route_system(self, step: TraceStep, node: str, root: bool):
        try:
            subview = self.map.route_subsystem(node)
        except NoRoute:
            step.verdicts.append(Verdict(
                "undetermined", node=node,
                detail=f"no subsystem view produces '{node}'",
            ))
            return
        step.children.append(self.step(subview, self.map.terminal_of(subview).qname))
        if root and self.config.eager_environment:
            env = self.map.environment_view()
            if env is not None:
                for src in self.map.measure_sources(node):
                    step.children.append(self.step(env, src))

    def _route_boundary(self, step: TraceStep, node: str):
        env = self.map.environment_view()
        if env is None:
            step.verdicts.append(Verdict(
                "undetermined", node=node,
                detail="boundary reached but no environment view is modeled",
            ))
            return
        sources = self.map.measure_sources(node)
        if not sources:
            # the boundary variable itself has no proxy link; fall back to
            # the feature through which the trace entered this subsystem
            sources = self.map.measure_sources(step.target)
        if not sources:
            step.verdicts.append(Verdict(
                "undetermined", node=node,
                detail="no measured environment proxy for the boundary",
            ))
            return
        for src in sources[: self.config.max_branches]:
            step.children.append(self.step(env, src))


def trace(system_map: SystemMap, ds: WindowedDataset, alert: str,
          config: TraceConfig = TraceConfig()) -> TraceReport:
    """Trace one alerted system-view variable from symptom to source."""
    if not system_map.has_node(alert):
        raise UnknownAlert(f"unknown alert node '{alert}'")
    node = system_map.node(alert)
    if node.view.type is not ViewType.ML_SYSTEM or node.kind is not NodeKind.DATA:
        raise UnknownAlert(f"'{alert}' is not a data node of the ML-system view")

    tracer = _Tracer(system_map, ds, config)
    root = tracer.step(system_map.system_view(), alert)

    verdicts: list[Verdict] = []

    def collect(step: TraceStep):
        verdicts.extend(step.verdicts)
        for child in step.children:
            collect(child)

    collect(root)

    excluded = []
    env = system_map.environment_view()
    if env is not None:
        for n in system_map.view_nodes(env):
            if resolve_column(ds, system_map, n.qname) is None:
                excluded.append(n.qname)

    return TraceReport(
        alert=alert,
        root=root,
        verdicts=tuple(verdicts),
        excluded_environment=tuple(sorted(excluded)),
        warnings=tuple(tracer.warnings),
    )


def detect_alerts(system_map: SystemMap, ds: WindowedDataset,
                  alpha: float = 0.01, B: int = 1000, seed: int = 0):
    """Shift tests on every ML-system data variable; significant ones only.

    Returns ShiftTestResult entries with p <= alpha, sorted by ascending
    p-value then node name. Variables without enough data are skipped.
    """
    system = system_map.system_view()
    results: list[ShiftTestResult] = []
    nodes = sorted(n.qname for n in system_map.view_nodes(system)
                   if n.kind is NodeKind.DATA)
    for i, qname in enumerate(nodes):
        try:
            results.append(shift_test(ds, system_map, qname, B=B, seed=[seed, i]))
        except InsufficientData:
            continue
    hits = [r for r in results if r.p_value <= alpha]
    return sorted(hits, key=lambda r: (r.p_value, r.node))
