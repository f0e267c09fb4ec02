"""Typed node/relation model for layered causal system maps.

A map is a set of views: one ML-system view (named ``system``), any number
of subsystem views, and an optional environment view (named ``env``).
Nodes carry a kind (data, modulator, random) and live in exactly one view;
relations are causal edges (within a view), mapping edges (the same
quantity shown in two views), and measure/actuate edges crossing the
environment boundary.

Maps are immutable after :func:`build_map`, which performs all structural
validation and canonicalizes ordering so downstream output is
deterministic. It also builds each view's causal DAG (:class:`ViewGraph`)
once with :mod:`graphlib`, rejecting a cyclic view as it does, and merges
the mapping edges into equivalence classes; the map keeps both.
"""

from __future__ import annotations

import enum
import graphlib
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    CycleError,
    DuplicateNode,
    KindViolation,
    MappingViolation,
    NoRoute,
    TerminalViolation,
    UnknownNode,
    UnknownView,
    ViewViolation,
)

SYSTEM_VIEW_NAME = "system"
ENVIRONMENT_VIEW_NAME = "env"


class NodeKind(enum.Enum):
    DATA = "data"
    MODULATOR = "modulator"
    RANDOM = "random"


class RelationKind(enum.Enum):
    CAUSAL = "causal"
    MAPPING = "mapping"
    MEASURE = "measure"
    ACTUATE = "actuate"


class ViewType(enum.Enum):
    ML_SYSTEM = "system"
    SUBSYSTEM = "subsystem"
    ENVIRONMENT = "environment"


@dataclass(frozen=True)
class View:
    type: ViewType
    name: str

    @staticmethod
    def system() -> "View":
        return View(ViewType.ML_SYSTEM, SYSTEM_VIEW_NAME)

    @staticmethod
    def subsystem(name: str) -> "View":
        return View(ViewType.SUBSYSTEM, name)

    @staticmethod
    def environment() -> "View":
        return View(ViewType.ENVIRONMENT, ENVIRONMENT_VIEW_NAME)

    def label(self) -> str:
        if self.type is ViewType.ML_SYSTEM:
            return "MLSystem"
        if self.type is ViewType.ENVIRONMENT:
            return "Environment"
        return f"Subsystem({self.name})"

    def sort_key(self):
        # canonical view order: system first, subsystems by name, env last
        rank = {ViewType.ML_SYSTEM: 0, ViewType.SUBSYSTEM: 1, ViewType.ENVIRONMENT: 2}
        return (rank[self.type], self.name)


@dataclass(frozen=True)
class Node:
    view: View
    name: str
    kind: NodeKind
    boundary: bool = False

    @property
    def qname(self) -> str:
        return f"{self.view.name}.{self.name}"


@dataclass(frozen=True)
class Relation:
    src: str
    dst: str
    kind: RelationKind


# kinds allowed on a causal edge, as (source kind, target kind)
_CAUSAL_KIND_RULES = {
    (NodeKind.DATA, NodeKind.DATA),
    (NodeKind.MODULATOR, NodeKind.DATA),
    (NodeKind.RANDOM, NodeKind.RANDOM),
}


@dataclass(frozen=True)
class ViewGraph:
    """Causal DAG of a single view: nodes plus in-view causal edges."""

    view: View
    nodes: tuple[Node, ...]
    parents: dict = field(hash=False)
    children: dict = field(hash=False)
    topo: tuple[str, ...]


def ancestors(parents: dict, qname: str) -> set:
    """All nodes with a directed path to ``qname`` under a parents mapping."""
    seen = set()
    stack = list(parents[qname])
    while stack:
        p = stack.pop()
        if p not in seen:
            seen.add(p)
            stack.extend(parents[p])
    return seen


class SystemMap:
    """Validated, immutable multi-view causal map.

    Construct through :func:`build_map` or ``msmformat.parse_map``; direct
    instantiation skips validation.
    """

    def __init__(self, name, nodes, relations, views, equiv, graphs):
        self.name = name
        self._nodes = nodes            # qname -> Node, canonical order
        self.relations = relations     # tuple[Relation], canonical order
        self.views = views             # tuple[View], canonical order
        self._equiv = equiv            # qname -> tuple of class members
        self._graphs = graphs          # View -> ViewGraph

    # -- basic access --------------------------------------------------

    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    def node(self, qname: str) -> Node:
        try:
            return self._nodes[qname]
        except KeyError:
            raise UnknownNode(f"unknown node '{qname}'") from None

    def has_node(self, qname: str) -> bool:
        return qname in self._nodes

    def view(self, name: str) -> View:
        for v in self.views:
            if v.name == name:
                return v
        raise UnknownView(f"unknown view '{name}'")

    def system_view(self) -> View:
        return self.view(SYSTEM_VIEW_NAME)

    def environment_view(self) -> Optional[View]:
        for v in self.views:
            if v.type is ViewType.ENVIRONMENT:
                return v
        return None

    def view_nodes(self, view: View) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes.values() if n.view == view)

    # -- operations ----------------------------------------------------

    def view_graph(self, view: View) -> ViewGraph:
        """Causal DAG restricted to one view, as built by :func:`build_map`."""
        try:
            return self._graphs[view]
        except KeyError:
            raise UnknownView(f"view '{view.name}' not in map '{self.name}'") from None

    def equivalence_class(self, qname: str) -> tuple[str, ...]:
        """All nodes representing the same quantity, including ``qname``."""
        self.node(qname)
        return self._equiv[qname]

    def canonical_name(self, qname: str) -> str:
        """Lexicographically smallest member of the equivalence class."""
        return self.equivalence_class(qname)[0]

    def terminal_of(self, view: View) -> Node:
        """The unique data node of a subsystem view with no outgoing edge."""
        graph = self.view_graph(view)
        terminals = [
            n for n in graph.nodes
            if n.kind is NodeKind.DATA and not graph.children[n.qname]
        ]
        if len(terminals) != 1:
            raise TerminalViolation(
                f"view '{view.name}' has {len(terminals)} terminal data nodes",
                at=tuple(n.qname for n in terminals or graph.nodes))
        return terminals[0]

    def route_subsystem(self, system_node: str) -> View:
        """Subsystem view whose terminal is mapping-linked to a system node."""
        node = self.node(system_node)
        if node.view.type is not ViewType.ML_SYSTEM:
            raise NoRoute(f"'{system_node}' is not an ML-system view node")
        for member in self.equivalence_class(system_node):
            other = self._nodes[member]
            if other.view.type is not ViewType.SUBSYSTEM:
                continue
            graph = self.view_graph(other.view)
            if other.kind is NodeKind.DATA and not graph.children[member]:
                return other.view
        raise NoRoute(f"'{system_node}' is not mapping-linked to a subsystem terminal")

    def measure_sources(self, qname: str) -> tuple[str, ...]:
        """Random nodes measured into any member of the node's class."""
        members = set(self.equivalence_class(qname))
        out = sorted(
            r.src for r in self.relations
            if r.kind is RelationKind.MEASURE and r.dst in members
        )
        return tuple(out)

    def measure_target(self, random_qname: str) -> Optional[str]:
        """Data node serving as proxy for a random node, if measured."""
        for r in self.relations:
            if r.kind is RelationKind.MEASURE and r.src == random_qname:
                return r.dst
        return None

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SystemMap):
            return NotImplemented
        return (
            self.name == other.name
            and self.nodes() == other.nodes()
            and self.relations == other.relations
            and self.views == other.views
        )

    def __hash__(self):
        return hash((self.name, self.nodes(), self.relations, self.views))

    def __repr__(self):
        return (
            f"SystemMap({self.name!r}, {len(self._nodes)} nodes, "
            f"{len(self.relations)} relations, {len(self.views)} views)"
        )


def build_map(name: str, nodes: Iterable[Node], relations) -> SystemMap:
    """Validate nodes and relations and assemble a canonical SystemMap.

    ``relations`` may hold Relation objects or (src, dst, kind) triples.
    Raises a MapBuildError subclass describing the first violation found;
    the result is independent of input order.
    """
    node_list = sorted(nodes, key=lambda n: n.qname)
    node_index: dict[str, Node] = {}
    for n in node_list:
        if n.qname in node_index:
            raise DuplicateNode(f"duplicate node '{n.qname}'")
        node_index[n.qname] = n

    rels = []
    for r in relations:
        if not isinstance(r, Relation):
            r = Relation(*r)
        rels.append(r)

    views = sorted({n.view for n in node_index.values()}, key=View.sort_key)
    _check_views(views, node_index)

    norm = set()
    for r in rels:
        for end in (r.src, r.dst):
            if end not in node_index:
                raise UnknownNode(f"unknown node '{end}' in relation")
        if r.kind is RelationKind.MAPPING and r.src > r.dst:
            r = Relation(r.dst, r.src, r.kind)
        _check_relation_kinds(r, node_index)
        norm.add(r)
    relations_t = tuple(sorted(norm, key=lambda r: (r.kind.value, r.src, r.dst)))

    graphs = {view: _view_graph(view, node_index, relations_t) for view in views}
    equiv = _equivalence_classes(node_index, relations_t)
    _check_measure_roots(node_index, relations_t)

    built = SystemMap(name, node_index, relations_t, tuple(views), equiv, graphs)
    _check_terminals(built)
    return built


def _check_views(views, node_index):
    names = [v.name for v in views]
    if len(set(names)) != len(names):
        raise ViewViolation("view name used with two different view types")
    for v in views:
        if v.type is ViewType.SUBSYSTEM and v.name in (SYSTEM_VIEW_NAME, ENVIRONMENT_VIEW_NAME):
            raise ViewViolation(f"subsystem view may not be named '{v.name}'")
    if views and not any(v.type is ViewType.ML_SYSTEM for v in views):
        raise ViewViolation("non-empty map must contain the ML-system view")
    for n in node_index.values():
        if n.kind is NodeKind.RANDOM and n.view.type is not ViewType.ENVIRONMENT:
            raise ViewViolation(f"random node '{n.qname}' outside the environment view", at=(n.qname,))
        if n.kind is not NodeKind.RANDOM and n.view.type is ViewType.ENVIRONMENT:
            raise ViewViolation(f"{n.kind.value} node '{n.qname}' in the environment view", at=(n.qname,))
        if n.kind is NodeKind.MODULATOR and n.view.type is ViewType.ML_SYSTEM:
            raise ViewViolation(f"modulator node '{n.qname}' in the ML-system view", at=(n.qname,))
        if n.boundary and (n.view.type is not ViewType.SUBSYSTEM or n.kind is not NodeKind.DATA):
            raise ViewViolation(
                f"boundary flag on '{n.qname}' (only subsystem data nodes may be boundary inputs)",
                at=(n.qname,),
            )


def _check_relation_kinds(r, node_index):
    src, dst = node_index[r.src], node_index[r.dst]
    edge = (r.src, r.dst)
    if r.kind is RelationKind.CAUSAL:
        if src.view != dst.view:
            raise KindViolation(f"causal edge {r.src} -> {r.dst} crosses views", at=(edge,))
        if (src.kind, dst.kind) not in _CAUSAL_KIND_RULES:
            raise KindViolation(
                f"causal edge {r.src} -> {r.dst} has forbidden kinds "
                f"({src.kind.value} -> {dst.kind.value})",
                at=(edge,),
            )
    elif r.kind is RelationKind.MAPPING:
        if src.kind is not NodeKind.DATA or dst.kind is not NodeKind.DATA:
            raise KindViolation(f"mapping {r.src} = {r.dst} must join data nodes", at=(edge,))
        if src.view == dst.view:
            raise KindViolation(f"mapping {r.src} = {r.dst} within one view", at=(edge,))
    elif r.kind is RelationKind.MEASURE:
        if src.kind is not NodeKind.RANDOM or dst.kind is not NodeKind.DATA:
            raise KindViolation(f"measure edge {r.src} -> {r.dst} must go random -> data", at=(edge,))
    elif r.kind is RelationKind.ACTUATE:
        if src.kind is not NodeKind.DATA or dst.kind is not NodeKind.RANDOM:
            raise KindViolation(f"actuate edge {r.src} -> {r.dst} must go data -> random", at=(edge,))


def _view_graph(view, node_index, relations) -> ViewGraph:
    """The causal DAG of one view, ``topo`` its lexicographically smallest
    topological order; raises CycleError on a causal cycle."""
    nodes = tuple(n for n in node_index.values() if n.view == view)
    names = {n.qname for n in nodes}
    edges = tuple(
        (r.src, r.dst)
        for r in relations
        if r.kind is RelationKind.CAUSAL and r.src in names and r.dst in names
    )
    parents = {n.qname: tuple(sorted(s for s, d in edges if d == n.qname)) for n in nodes}
    children = {n.qname: tuple(sorted(d for s, d in edges if s == n.qname)) for n in nodes}
    sorter = graphlib.TopologicalSorter(parents)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        path = exc.args[1]           # each node a parent of the next, first == last
        cycle = sorted(set(path))
        raise CycleError(f"causal cycle in view '{view.name}': {cycle}",
                         cycle=cycle, at=tuple(zip(path, path[1:]))) from None
    ready, topo = [], []
    while sorter:
        for n in sorter.get_ready():
            heapq.heappush(ready, n)
        topo.append(heapq.heappop(ready))
        sorter.done(topo[-1])
    return ViewGraph(view, nodes, parents, children, tuple(topo))


def _equivalence_classes(node_index, relations):
    """Each node's class under the mapping edges: the sorted tuple of its
    members, itself alone if unmapped. Raises MappingViolation on the first
    class, by smallest member, that holds two nodes of one view."""
    equiv = {q: (q,) for q in node_index}
    for r in relations:
        if r.kind is RelationKind.MAPPING and equiv[r.src] != equiv[r.dst]:
            merged = tuple(sorted(equiv[r.src] + equiv[r.dst]))
            for m in merged:
                equiv[m] = merged

    for members in dict.fromkeys(equiv.values()):     # by smallest member
        per_view: dict[str, str] = {}
        for m in members:
            vname = node_index[m].view.name
            if vname in per_view:
                raise MappingViolation(
                    f"nodes '{per_view[vname]}' and '{m}' of view '{vname}' "
                    "are in one equivalence class",
                    at=(per_view[vname], m),
                )
            per_view[vname] = m
    return equiv


def _check_measure_roots(node_index, relations):
    causal_targets = {
        r.dst for r in relations if r.kind is RelationKind.CAUSAL
    }
    for r in relations:
        if r.kind is RelationKind.MEASURE and r.dst in causal_targets:
            raise KindViolation(
                f"measure edge {r.src} -> {r.dst} targets a non-root data node",
                at=((r.src, r.dst),),
            )


def _check_terminals(built: SystemMap):
    for view in built.views:
        if view.type is not ViewType.SUBSYSTEM:
            continue
        terminal = built.terminal_of(view)  # raises on zero or multiple
        linked = any(
            built._nodes[m].view.type is ViewType.ML_SYSTEM
            for m in built.equivalence_class(terminal.qname)
        )
        if not linked:
            raise TerminalViolation(
                f"terminal '{terminal.qname}' of view '{view.name}' has no "
                "mapping link into the ML-system view",
                at=(terminal.qname,))
