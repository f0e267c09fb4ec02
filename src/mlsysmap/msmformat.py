"""Line-oriented text format for system maps (``.msm`` files).

Grammar (one declaration per line, ``#`` starts a comment, indentation is
insignificant)::

    file        := "map" IDENT NL decl*
    decl        := view_header | node_decl | edge_decl | equiv_decl
                 | measure_decl | actuate_decl
    view_header := "view" ("system" | "subsystem" IDENT | "environment")
    node_decl   := ("data" | "modulator" | "random") IDENT ["boundary"]
    edge_decl   := "edge" QNAME "->" QNAME
    equiv_decl  := "equiv" QNAME "=" QNAME
    measure_decl:= "measure" QNAME "->" QNAME
    actuate_decl:= "actuate" QNAME "->" QNAME

Unqualified names resolve in the current view. Unknown keywords are
errors. Parsing validates through ``build_map``, so a successfully parsed
file always yields a structurally valid map. The keyword tables below,
with each relation's kind and separator, are read by both ``parse_map``
and ``serialize_map``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import mapcore
from .errors import MapBuildError, ParseError
from .mapcore import Node, NodeKind, Relation, RelationKind, SystemMap, View, ViewType

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_QNAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*\.)?[A-Za-z_][A-Za-z0-9_]*\Z")

_NODE_KEYWORDS = {kind.value: kind for kind in NodeKind}
_RELATION_KEYWORDS = {
    "edge": (RelationKind.CAUSAL, "->"),
    "equiv": (RelationKind.MAPPING, "="),
    "measure": (RelationKind.MEASURE, "->"),
    "actuate": (RelationKind.ACTUATE, "->"),
}
_FIXED_VIEWS = {"system": View.system, "environment": View.environment}


class _Line(NamedTuple):
    no: int
    tokens: list
    cols: list


def _tokenize(text):
    lines = []
    for no, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        tokens, cols = [], []
        for m in re.finditer(r"\S+", body):
            tokens.append(m.group(0))
            cols.append(m.start() + 1)
        if tokens:
            lines.append(_Line(no, tokens, cols))
    return lines


def _name_col(line, i):
    """The column to blame where token ``i`` must be an identifier ending the
    line: that token's (the last one's where it is missing), else the next."""
    if len(line.tokens) <= i or not _IDENT.match(line.tokens[i]):
        return line.cols[:i + 1][-1]
    return line.cols[i + 1]


def parse_map(text: str) -> SystemMap:
    """Parse map text into a validated SystemMap.

    One leading UTF-8 byte-order mark is ignored, and lines may end in
    ``\\n``, ``\\r\\n`` or ``\\r``. Raises ParseError (with 1-based line and
    column) for grammar or name resolution problems, and position-enriched
    MapBuildError subclasses for structural violations.
    """
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty map file", 1, 1)

    head = lines[0]
    if head.tokens[0] != "map":
        raise ParseError("expected 'map NAME'", head.no, head.cols[0])
    if len(head.tokens) != 2 or not _IDENT.match(head.tokens[1]):
        raise ParseError("expected a map name identifier", head.no,
                         _name_col(head, 1) if len(head.tokens) > 1 else head.cols[0] + 4)
    map_name = head.tokens[1]

    nodes: dict[str, Node] = {}
    relations: list[Relation] = []
    positions: dict[object, tuple[int, int]] = {}
    current: View | None = None
    seen_views: set[str] = set()

    def err(msg, line, col):
        raise ParseError(msg, line, col)

    def resolve(token, line, col):
        if not _QNAME.match(token):
            err(f"bad name '{token}'", line, col)
        if "." in token:
            qname = token
        else:
            if current is None:
                err(f"unqualified name '{token}' before any view header", line, col)
            qname = f"{current.name}.{token}"
        if qname not in nodes:
            err(f"unknown node '{token}'", line, col)
        return qname

    for line in lines[1:]:
        kw = line.tokens[0]
        if kw == "view":
            if len(line.tokens) < 2:
                err("expected a view kind after 'view'", line.no, line.cols[0])
            vkind = line.tokens[1]
            if vkind in _FIXED_VIEWS:
                if len(line.tokens) != 2:
                    err(f"unexpected token after 'view {vkind}'", line.no, line.cols[2])
                view = _FIXED_VIEWS[vkind]()
            elif vkind == "subsystem":
                if len(line.tokens) != 3 or not _IDENT.match(line.tokens[2]):
                    err("expected 'view subsystem NAME'", line.no, _name_col(line, 2))
                view = View.subsystem(line.tokens[2])
            else:
                err(f"unknown view kind '{vkind}'", line.no, line.cols[1])
            if view.name in seen_views:
                err(f"duplicate view '{view.name}'", line.no, line.cols[1])
            seen_views.add(view.name)
            current = view
        elif kw in _NODE_KEYWORDS:
            if current is None:
                err(f"'{kw}' declaration before any view header", line.no, line.cols[0])
            if len(line.tokens) < 2 or not _IDENT.match(line.tokens[1]):
                err(f"expected an identifier after '{kw}'", line.no, _name_col(line, 1))
            boundary = line.tokens[2:3] == ["boundary"]
            stray = 2 + boundary                 # first token after the accepted ones
            if len(line.tokens) > stray:
                err(f"unexpected token '{line.tokens[stray]}'", line.no, line.cols[stray])
            node = Node(current, line.tokens[1], _NODE_KEYWORDS[kw], boundary=boundary)
            if node.qname in nodes:
                err(f"duplicate node '{node.qname}'", line.no, line.cols[1])
            nodes[node.qname] = node
            positions[node.qname] = (line.no, line.cols[1])
        elif kw in _RELATION_KEYWORDS:
            kind, sep = _RELATION_KEYWORDS[kw]
            if len(line.tokens) != 4 or line.tokens[2] != sep:
                err(f"expected '{kw} NAME {sep} NAME'", line.no, line.cols[0])
            src = resolve(line.tokens[1], line.no, line.cols[1])
            dst = resolve(line.tokens[3], line.no, line.cols[3])
            relations.append(Relation(src, dst, kind))
            positions[(src, dst)] = (line.no, line.cols[0])
            positions[(dst, src)] = (line.no, line.cols[0])
        else:
            err(f"unknown keyword '{kw}'", line.no, line.cols[0])

    try:
        return mapcore.build_map(map_name, nodes.values(), relations)
    except MapBuildError as exc:
        pos = next((positions[key] for key in exc.at if key in positions), None)
        if pos is not None:
            exc.line, exc.col = pos
        raise


def serialize_map(m: SystemMap) -> str:
    """Canonical text for a valid map; round-trips through parse_map.

    Views appear system, subsystems (lexicographic), environment; within a
    view, node declarations then edges, each lexicographic. Cross-view
    declarations (equiv, measure, actuate) follow the last view block.
    """
    out = [f"map {m.name}"]
    for view in m.views:
        out.append("")
        if view.type is ViewType.SUBSYSTEM:
            out.append(f"view subsystem {view.name}")
        else:
            out.append(f"view {view.type.value}")
        graph = m.view_graph(view)
        view_nodes = sorted(graph.nodes, key=lambda n: n.name)
        for n in view_nodes:
            flag = " boundary" if n.boundary else ""
            out.append(f"  {n.kind.value} {n.name}{flag}")
        for n in view_nodes:
            for child in graph.children[n.qname]:
                out.append(f"  edge {n.name} -> {m.node(child).name}")

    cross_keywords = {kind: (kw, sep) for kw, (kind, sep) in _RELATION_KEYWORDS.items()}
    cross = []
    for r in m.relations:
        if r.kind is not RelationKind.CAUSAL:
            kw, sep = cross_keywords[r.kind]
            cross.append(f"{kw} {r.src} {sep} {r.dst}")
    if cross:
        out.append("")
        out.extend(sorted(cross))
    out.append("")
    return "\n".join(out)
