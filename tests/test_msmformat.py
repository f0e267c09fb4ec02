"""Text format: parsing, diagnostics with positions, canonical round-trips."""

import numpy as np
import pytest

from mlsysmap.errors import (CycleError, KindViolation, MapBuildError, ParseError,
                             TerminalViolation)
from mlsysmap.msmformat import parse_map, serialize_map
from mlsysmap.simulator import churn_map_text

from helpers import random_map

MINI = """\
map mini

view system
  data features
  data score
  edge features -> score

view subsystem pipe
  data raw boundary
  data out
  modulator knob
  edge raw -> out
  edge knob -> out

view environment
  random world

equiv pipe.out = system.features
measure env.world -> system.features
"""


def test_parse_minimal():
    m = parse_map(MINI)
    assert m.name == "mini"
    assert {v.name for v in m.views} == {"system", "pipe", "env"}
    assert m.node("pipe.raw").boundary
    assert m.canonical_name("system.features") == "pipe.out"


def test_comments_and_indentation_insignificant():
    text = MINI.replace("view system", "view system   # the top view")
    text = "# leading comment\n" + text.replace("  data raw", "\t data raw")
    assert parse_map(text) == parse_map(MINI)


def test_unqualified_names_resolve_in_current_view():
    # MINI uses unqualified names inside views; qualify one explicitly
    text = MINI.replace("edge raw -> out", "edge pipe.raw -> pipe.out")
    assert parse_map(text) == parse_map(MINI)


# ---------------------------------------------------------------------------
# diagnostics

@pytest.mark.parametrize("text,line,col", [
    ("", 1, 1),                                      # empty file
    ("# only a comment\n", 1, 1),
    ("graph x\n", 1, 1),                             # missing 'map' header
    ("map\n", 1, 5),                                 # missing name
    ("map m\nview planet\n", 2, 6),                  # unknown view kind
    ("map m\ndata a\n", 2, 1),                       # node before any view
    ("map m\nview system\nwidget a\n", 3, 1),        # unknown keyword
    ("map m\nview system\ndata a\ndata a\n", 4, 6),  # duplicate node
    ("map m\nview system\nview system\n", 3, 6),     # duplicate view
    ("map m\nview system\ndata a\nedge a -> b\n", 4, 11),   # unknown node
    ("map m\nview system\ndata a\nedge a = a\n", 4, 1),     # wrong separator
    ("map m\nview system\ndata 9bad\n", 3, 6),       # bad identifier
])
def test_parse_errors_carry_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert f"line {line}, col {col}" in str(exc.value)


@pytest.mark.parametrize("text,message,line,col", [
    ("map m\nview system\ndata a\nedge a -> 9x\n", "bad name '9x'", 4, 11),
    ("map m\nedge a -> b\n", "unqualified name 'a' before any view header", 2, 6),
    ("map m\nview\n", "expected a view kind after 'view'", 2, 1),
    ("map m\nview system extra\n", "unexpected token after 'view system'", 2, 13),
    ("map m\nview environment extra\n", "unexpected token after 'view environment'", 2, 18),
    ("map m\nview subsystem 9p\n", "expected 'view subsystem NAME'", 2, 16),
    ("map m\nview subsystem p extra\n", "expected 'view subsystem NAME'", 2, 18),
    ("map m\nview subsystem p\ndata x boundary extra\n", "unexpected token 'extra'", 3, 17),
    ("map m\nview subsystem p\ndata x extra\n", "unexpected token 'extra'", 3, 8),
    # a name that is no identifier is blamed, else the first token past it
    ("map 9x extra\n", "expected a map name identifier", 1, 5),
    ("map m extra more\n", "expected a map name identifier", 1, 7),
    ("map m\nview subsystem p\ndata 9x boundary\n", "expected an identifier after 'data'", 3, 6),
    ("map m\nview subsystem p\nmodulator 9x extra\n",
     "expected an identifier after 'modulator'", 3, 11),
    ("map m\nview subsystem 9p extra\n", "expected 'view subsystem NAME'", 2, 16),
    ("map m\nview subsystem\n", "expected 'view subsystem NAME'", 2, 6),
    # each relation keyword names its own separator
    ("map m\nview system\ndata a\nequiv a -> a\n", "expected 'equiv NAME = NAME'", 4, 1),
    ("map m\nview system\ndata a\nmeasure a = a\n", "expected 'measure NAME -> NAME'", 4, 1),
    ("map m\nview system\ndata a\nactuate a -> a extra\n",
     "expected 'actuate NAME -> NAME'", 4, 1),
    ("map m\nview system\ndata a\nedge a ->\n", "expected 'edge NAME -> NAME'", 4, 1),
])
def test_grammar_errors_name_the_problem_and_its_position(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


def test_no_forward_references():
    text = "map m\nview system\nedge a -> b\ndata a\ndata b\n"
    with pytest.raises(ParseError) as exc:
        parse_map(text)
    assert exc.value.line == 3


def test_build_errors_enriched_with_edge_position():
    text = ("map m\nview system\ndata a\n"
            "view subsystem p\ndata out\nmodulator k\n"
            "edge out -> k\n"          # data -> modulator is forbidden
            "equiv p.out = system.a\n")
    with pytest.raises(KindViolation) as exc:
        parse_map(text)
    assert exc.value.line == 7
    assert "line 7" in str(exc.value)


def test_cycle_reported_from_build():
    text = "map m\nview system\ndata a\ndata b\nedge a -> b\nedge b -> a\n"
    with pytest.raises(CycleError):
        parse_map(text)


def test_cycle_error_names_the_line_of_a_cycle_edge():
    text = ("map m\nview system\n  data a\n  data b\n  data c\n"
            "  edge a -> b\n  edge b -> c\n  edge c -> a\n")
    with pytest.raises(CycleError) as exc:
        parse_map(text)
    assert (exc.value.line, exc.value.col) == (6, 3)
    assert exc.value.cycle == ("system.a", "system.b", "system.c")


def test_named_cycle_is_a_closed_walk_over_map_edges():
    # two cycles in one view: whichever is named, its edges exist and close
    text = ("map m\nview system\ndata a\ndata b\ndata c\ndata d\n"
            "edge a -> b\nedge b -> a\nedge c -> d\nedge d -> c\n")
    with pytest.raises(CycleError) as exc:
        parse_map(text)
    edges = {("system.a", "system.b"), ("system.b", "system.a"),
             ("system.c", "system.d"), ("system.d", "system.c")}
    walk = exc.value.at
    assert walk and set(walk) <= edges
    assert all(a[1] == b[0] for a, b in zip(walk, walk[1:] + walk[:1]))
    assert sorted({src for src, _ in walk}) == list(exc.value.cycle)
    assert exc.value.line is not None


@pytest.mark.parametrize("text,message,line,col", [
    ("map m\nview system\n  data s\nview subsystem p\n  data x\n  data y\n"
     "equiv p.x = system.s\n", "view 'p' has 2 terminal data nodes", 5, 8),
    ("map m\nview system\n  data s\nview subsystem p\n  modulator k\n",
     "view 'p' has 0 terminal data nodes", 5, 13),
    ("map m\nview system\n  data s\nview subsystem p\n  data out\n",
     "terminal 'p.out' of view 'p' has no mapping link into the ML-system view", 5, 8),
])
def test_terminal_errors_name_a_line(text, message, line, col):
    with pytest.raises(TerminalViolation) as exc:
        parse_map(text)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


INVALID_CORPUS = [
    "",
    "map m\nview system\nrandom r\n",                     # random outside env
    "map m\nview system\ndata a\nview environment\ndata d\n",
    "map m\nview system\nmodulator k\ndata a\n",          # modulator in system
    "map m\nview system\ndata a boundary\n",              # boundary in system
    "map m\nview system\ndata a\nview subsystem p\ndata out\n",  # unlinked term
    "map m\nview system\ndata a\nview subsystem p\ndata x\ndata y\n"
    "equiv p.x = system.a\n",                             # two terminals
    "map m\nview system\ndata a\ndata b\nedge a -> b\n"
    "view environment\nrandom r\nmeasure env.r -> system.b\n",  # non-root dst
    "map m\nview system\ndata a\ndata b\nequiv a = b\n",  # mapping in one view
    "map m\nview subsystem env\ndata out\n",              # reserved view name
    "map m\nview system\ndata a\nedge a -> a\n",          # self loop
    "map m\nview system\ndata a\n junk\n",                # unknown keyword
]


def test_invalid_corpus_rejected():
    for text in INVALID_CORPUS:
        with pytest.raises((ParseError, MapBuildError)):
            parse_map(text)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_line_ends_read_alike(end):
    text = churn_map_text()
    assert parse_map(text.replace("\n", end)) == parse_map(text)
    with pytest.raises(ParseError, match="line 2, col 6"):
        parse_map(f"map m{end}view planet{end}")


# ---------------------------------------------------------------------------
# round-trips

def test_bundled_map_round_trips():
    m = parse_map(churn_map_text())
    text = serialize_map(m)
    again = parse_map(text)
    assert again == m
    assert serialize_map(again) == text    # canonical form is a fixed point


def test_mini_round_trip_canonicalizes():
    m = parse_map(MINI)
    text = serialize_map(m)
    assert parse_map(text) == m
    # canonical text is stable under node reordering in the source
    reordered = MINI.replace("  data raw boundary\n  data out\n",
                             "  data out\n  data raw boundary\n")
    assert serialize_map(parse_map(reordered)) == text


def test_random_maps_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(30):
        m = random_map(rng)
        text = serialize_map(m)
        assert parse_map(text) == m
        assert serialize_map(parse_map(text)) == text
