"""Structural map model: construction, validation, canonical operations."""

import numpy as np
import pytest

from mlsysmap.errors import (
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
from mlsysmap.mapcore import (
    Node,
    NodeKind,
    Relation,
    RelationKind,
    View,
    ViewType,
    ancestors,
    build_map,
)

from helpers import random_map

SYS = View.system()
ENV = View.environment()
SUB = View.subsystem("pipe")


def small_map():
    nodes = [
        Node(SYS, "features", NodeKind.DATA),
        Node(SYS, "score", NodeKind.DATA),
        Node(SUB, "raw", NodeKind.DATA, boundary=True),
        Node(SUB, "out", NodeKind.DATA),
        Node(SUB, "knob", NodeKind.MODULATOR),
        Node(ENV, "world", NodeKind.RANDOM),
    ]
    relations = [
        Relation("system.features", "system.score", RelationKind.CAUSAL),
        Relation("pipe.raw", "pipe.out", RelationKind.CAUSAL),
        Relation("pipe.knob", "pipe.out", RelationKind.CAUSAL),
        Relation("pipe.out", "system.features", RelationKind.MAPPING),
        Relation("env.world", "system.features", RelationKind.MEASURE),
        Relation("system.score", "env.world", RelationKind.ACTUATE),
    ]
    return build_map("small", nodes, relations)


# ---------------------------------------------------------------------------
# views and nodes

def test_view_constructors_and_labels():
    assert SYS.name == "system" and SYS.type is ViewType.ML_SYSTEM
    assert ENV.name == "env" and ENV.type is ViewType.ENVIRONMENT
    assert SUB.type is ViewType.SUBSYSTEM
    assert SYS.label() == "MLSystem"
    assert ENV.label() == "Environment"
    assert SUB.label() == "Subsystem(pipe)"


def test_view_sort_order():
    views = sorted([ENV, SUB, SYS, View.subsystem("app")], key=View.sort_key)
    assert [v.name for v in views] == ["system", "app", "pipe", "env"]


def test_node_qname():
    n = Node(SUB, "raw", NodeKind.DATA)
    assert n.qname == "pipe.raw"


def test_basic_access():
    m = small_map()
    assert len(m.nodes()) == 6
    assert m.node("pipe.out").kind is NodeKind.DATA
    assert m.has_node("env.world") and not m.has_node("env.nope")
    assert m.system_view() == SYS
    assert m.environment_view() == ENV
    with pytest.raises(UnknownNode):
        m.node("pipe.nope")
    with pytest.raises(UnknownView):
        m.view("nope")


def test_empty_map_is_allowed():
    m = build_map("empty", [], [])
    assert m.nodes() == () and m.views == ()


# ---------------------------------------------------------------------------
# validation

def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        build_map("m", [Node(SYS, "a", NodeKind.DATA),
                        Node(SYS, "a", NodeKind.DATA)], [])


def test_system_view_required_when_nonempty():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SUB, "a", NodeKind.DATA)], [])


def test_random_node_only_in_environment():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SYS, "a", NodeKind.RANDOM)], [])


def test_environment_holds_only_random_nodes():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SYS, "a", NodeKind.DATA),
                        Node(ENV, "b", NodeKind.DATA)], [])


def test_no_modulator_in_system_view():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SYS, "a", NodeKind.DATA),
                        Node(SYS, "b", NodeKind.MODULATOR)], [])


def test_boundary_flag_restricted_to_subsystem_data():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SYS, "a", NodeKind.DATA, boundary=True)], [])
    with pytest.raises(ViewViolation):
        build_map("m", [Node(SYS, "a", NodeKind.DATA),
                        Node(SUB, "k", NodeKind.MODULATOR, boundary=True)], [])


def test_subsystem_may_not_shadow_reserved_view_names():
    with pytest.raises(ViewViolation):
        build_map("m", [Node(View.subsystem("env"), "a", NodeKind.DATA),
                        Node(SYS, "s", NodeKind.DATA)], [])


def test_unknown_relation_endpoint():
    with pytest.raises(UnknownNode):
        build_map("m", [Node(SYS, "a", NodeKind.DATA)],
                  [("system.a", "system.b", RelationKind.CAUSAL)])


def test_causal_edge_may_not_cross_views():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(SUB, "b", NodeKind.DATA)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("system.a", "pipe.b", RelationKind.CAUSAL)])


@pytest.mark.parametrize("src_kind,dst_kind", [
    (NodeKind.DATA, NodeKind.MODULATOR),
    (NodeKind.MODULATOR, NodeKind.MODULATOR),
])
def test_forbidden_causal_kind_pairs(src_kind, dst_kind):
    nodes = [Node(SYS, "s", NodeKind.DATA),
             Node(SUB, "a", src_kind), Node(SUB, "b", dst_kind)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("pipe.a", "pipe.b", RelationKind.CAUSAL)])


def test_random_to_data_causal_forbidden():
    nodes = [Node(SYS, "s", NodeKind.DATA), Node(ENV, "r", NodeKind.RANDOM)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("env.r", "system.s", RelationKind.CAUSAL)])


def test_mapping_must_join_data_nodes_across_views():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(SYS, "b", NodeKind.DATA),
             Node(SUB, "k", NodeKind.MODULATOR)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("system.a", "system.b", RelationKind.MAPPING)])
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("pipe.k", "system.a", RelationKind.MAPPING)])


def test_measure_and_actuate_kind_rules():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(ENV, "r", NodeKind.RANDOM)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("system.a", "env.r", RelationKind.MEASURE)])
    with pytest.raises(KindViolation):
        build_map("m", nodes, [("env.r", "system.a", RelationKind.ACTUATE)])


def test_measure_target_must_be_causal_root():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(SYS, "b", NodeKind.DATA),
             Node(ENV, "r", NodeKind.RANDOM)]
    rels = [("system.a", "system.b", RelationKind.CAUSAL),
            ("env.r", "system.b", RelationKind.MEASURE)]
    with pytest.raises(KindViolation):
        build_map("m", nodes, rels)


def test_cycle_detected_with_witness():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(SYS, "b", NodeKind.DATA)]
    rels = [("system.a", "system.b", RelationKind.CAUSAL),
            ("system.b", "system.a", RelationKind.CAUSAL)]
    with pytest.raises(CycleError) as exc:
        build_map("m", nodes, rels)
    assert set(exc.value.cycle) == {"system.a", "system.b"}


def test_self_loop_is_a_cycle():
    nodes = [Node(SYS, "a", NodeKind.DATA)]
    with pytest.raises(CycleError):
        build_map("m", nodes, [("system.a", "system.a", RelationKind.CAUSAL)])


def test_mapping_equivalence_single_member_per_view():
    nodes = [Node(SYS, "a", NodeKind.DATA), Node(SYS, "b", NodeKind.DATA),
             Node(SUB, "x", NodeKind.DATA)]
    rels = [("pipe.x", "system.a", RelationKind.MAPPING),
            ("pipe.x", "system.b", RelationKind.MAPPING)]
    with pytest.raises(MappingViolation):
        build_map("m", nodes, rels)


def test_subsystem_needs_exactly_one_terminal():
    # two terminal data nodes
    nodes = [Node(SYS, "s", NodeKind.DATA),
             Node(SUB, "a", NodeKind.DATA), Node(SUB, "b", NodeKind.DATA)]
    with pytest.raises(TerminalViolation):
        build_map("m", nodes, [("pipe.a", "system.s", RelationKind.MAPPING)])


def test_subsystem_terminal_must_link_to_system_view():
    nodes = [Node(SYS, "s", NodeKind.DATA), Node(SUB, "a", NodeKind.DATA)]
    with pytest.raises(TerminalViolation):
        build_map("m", nodes, [])


# ---------------------------------------------------------------------------
# canonical operations

def test_view_graph_topology():
    m = small_map()
    g = m.view_graph(SUB)
    assert g.topo == ("pipe.knob", "pipe.raw", "pipe.out")
    assert g.parents["pipe.out"] == ("pipe.knob", "pipe.raw")
    assert g.children["pipe.raw"] == ("pipe.out",)
    assert ancestors(g.parents, "pipe.out") == {"pipe.knob", "pipe.raw"}
    assert ancestors(g.parents, "pipe.raw") == set()


def test_view_graph_unknown_view():
    with pytest.raises(UnknownView):
        small_map().view_graph(View.subsystem("nope"))


def test_equivalence_and_canonical_name():
    m = small_map()
    assert m.equivalence_class("pipe.out") == ("pipe.out", "system.features")
    assert m.equivalence_class("system.features") == ("pipe.out", "system.features")
    assert m.canonical_name("system.features") == "pipe.out"
    assert m.equivalence_class("system.score") == ("system.score",)


def test_terminal_and_route():
    m = small_map()
    assert m.terminal_of(SUB).qname == "pipe.out"
    assert m.route_subsystem("system.features") == SUB
    with pytest.raises(NoRoute):
        m.route_subsystem("system.score")
    with pytest.raises(NoRoute):
        m.route_subsystem("pipe.out")   # not a system-view node


def test_measure_links():
    m = small_map()
    # the class of the measure target counts, in any member's name
    assert m.measure_sources("system.features") == ("env.world",)
    assert m.measure_sources("pipe.out") == ("env.world",)
    assert m.measure_sources("system.score") == ()
    assert m.measure_target("env.world") == "system.features"


def test_build_is_input_order_insensitive(churn):
    rng = np.random.default_rng(7)
    for _ in range(5):
        nodes = list(churn.nodes())
        rels = list(churn.relations)
        rng.shuffle(nodes)
        rng.shuffle(rels)
        rebuilt = build_map(churn.name, nodes, rels)
        assert rebuilt == churn
        assert hash(rebuilt) == hash(churn)


def test_mapping_direction_normalized():
    nodes = [Node(SYS, "s", NodeKind.DATA), Node(SUB, "out", NodeKind.DATA)]
    a = build_map("m", nodes, [("pipe.out", "system.s", RelationKind.MAPPING)])
    b = build_map("m", nodes, [("system.s", "pipe.out", RelationKind.MAPPING)])
    assert a == b


def test_random_maps_build_and_expose_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_map(rng)
        # every subsystem has a unique terminal linked into the system view
        for v in m.views:
            if v.type is ViewType.SUBSYSTEM:
                t = m.terminal_of(v)
                cls = m.equivalence_class(t.qname)
                assert any(m.node(q).view == View.system() for q in cls)
        # per-view graphs are acyclic with consistent parent/child maps
        for v in m.views:
            g = m.view_graph(v)
            assert len(g.topo) == len(g.nodes)
            for q in g.parents:
                for p in g.parents[q]:
                    assert q in g.children[p]


def test_churn_map_shape(churn):
    assert len(churn.nodes()) == 21
    assert len(churn.relations) == 23
    assert len(churn.views) == 7
    system_nodes = churn.view_nodes(churn.system_view())
    assert len(system_nodes) == 6
    assert all(n.kind is NodeKind.DATA for n in system_nodes)
    assert churn.route_subsystem("system.churn_score").name == "serving"
    assert churn.route_subsystem("system.activity_features").name == "pipeline"
