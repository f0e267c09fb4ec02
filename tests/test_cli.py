"""CLI: exit codes, output formats, and byte-level determinism."""

import csv
import inspect
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsysmap import mechanisms
from mlsysmap.cli import build_parser, main
from mlsysmap.dataset import load_csv
from mlsysmap.msmformat import parse_map
from mlsysmap.simulator import EXPECTED_TRACES, ScenarioConfig, churn_map_text, generate_csv
from mlsysmap.traversal import TraceConfig, detect_alerts


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A churn map file plus a small simulated S1 dataset."""
    root = tmp_path_factory.mktemp("cli")
    map_path = root / "churn.msm"
    data_path = root / "s1.csv"
    rc = main(["simulate", "--scenario", "S1", "--n", "800", "--seed", "0",
               "--out-data", str(data_path), "--out-map", str(map_path)])
    assert rc == 0
    return root, str(map_path), str(data_path)


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(workspace, capsys):
    _, map_path, _ = workspace
    assert main(["validate", map_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_map(tmp_path, capsys):
    bad = tmp_path / "bad.msm"
    bad.write_text("map m\nview system\ndata a\nedge a -> a\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "cycle" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate"], ["detect"], ["trace", "--alert", "system.a"]])
@pytest.mark.parametrize("data, where", [
    (b"map m\nview system\ndata caf\xe9", "line 3, col 9"),
    ("map m\r\nview system\r\ndata café x".encode() + b"\xff", "line 3, col 12"),
    (b"\xef\xbb\xbfmap m\xff\n", "line 1, col 6"),    # a byte-order mark is no column
])
def test_map_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command, data, where):
    bad = tmp_path / "bad.msm"
    bad.write_bytes(data)
    argv = command[:1] + [str(bad)] + (["d.csv"] if command[0] != "validate" else []) + command[1:]
    assert main(argv) == 1
    prefix = f"{bad}: " if command[0] == "validate" else "error: "
    assert capsys.readouterr().err.startswith(f"{prefix}{where}: not UTF-8 (")


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_map_line_ends_read_as_in_text_mode(tmp_path, capsys, end):
    path = tmp_path / "m.msm"
    path.write_bytes(churn_map_text().replace("\n", end).encode())
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.endswith(": ok\n")


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/x.msm"]) == 2
    assert "error:" in capsys.readouterr().err


TRACE = ["trace", "m.msm", "d.csv", "--alert", "system.churn_score"]


@pytest.mark.parametrize("command", [
    ["detect", "m.msm", "d.csv", "--permutations", "50"],
    ["detect", "m.msm", "d.csv", "--alpha", "2"],
    ["detect", "m.msm", "d.csv", "--seed", "-1"],
    TRACE + ["--bins", "1"],
    TRACE + ["--bins", "eight"],
    TRACE + ["--mode", "sampled", "--permutations", "0"],
    TRACE + ["--permutations", "-3"],
    TRACE + ["--tau", "5"],
    TRACE + ["--epsilon", "-1"],
    TRACE + ["--epsilon", "nan"],
    ["simulate", "--scenario", "S1", "--out-data", "d.csv", "--out-map", "m.msm", "--n", "0"],
])
def test_out_of_range_number_is_usage_error(capsys, command):
    """Numbers are checked as arguments are parsed, before any file is
    read: exit 2 with the argument named and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {command[-2]}" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_is_byte_deterministic(workspace, tmp_path):
    _, map_path, data_path = workspace
    d2 = tmp_path / "again.csv"
    m2 = tmp_path / "again.msm"
    assert main(["simulate", "--scenario", "S1", "--n", "800", "--seed", "0",
                 "--out-data", str(d2), "--out-map", str(m2)]) == 0
    with open(data_path, "rb") as fh:
        first = fh.read()
    assert m2.read_bytes() == churn_map_text().encode()
    assert d2.read_bytes() == first


@pytest.mark.parametrize("spelling", ["d.csv", "./sub/../d.csv", "link.csv"])
@pytest.mark.parametrize("exists", [False, True])
def test_simulate_refuses_one_file_for_both_outputs(tmp_path, capsys, spelling, exists):
    """The map would overwrite the data: exit 2 before anything is written."""
    (tmp_path / "sub").mkdir()
    data = tmp_path / "d.csv"
    if exists:
        data.write_bytes(b"keep")
    (tmp_path / "link.csv").symlink_to(data)
    rc = main(["simulate", "--scenario", "S1", "--n", "5", "--out-data", str(data),
               "--out-map", str(tmp_path / spelling)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--out-data" in err and "--out-map" in err and "Traceback" not in err
    if exists:
        assert data.read_bytes() == b"keep"
    else:
        assert not data.exists()


def test_simulate_refuses_a_hard_link_for_both_outputs(tmp_path, capsys):
    """A hard link resolves to a path of its own, yet is the same file."""
    data = tmp_path / "d.csv"
    data.write_bytes(b"keep")
    (tmp_path / "link.msm").hardlink_to(data)
    rc = main(["simulate", "--scenario", "S1", "--n", "5", "--out-data", str(data),
               "--out-map", str(tmp_path / "link.msm")])
    assert rc == 2
    assert "--out-data" in capsys.readouterr().err
    assert data.read_bytes() == b"keep"


def test_simulate_unknown_scenario(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "S9", "--out-data",
               str(tmp_path / "d.csv"), "--out-map", str(tmp_path / "m.msm")])
    assert rc == 1
    assert "scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect

def test_detect_json(workspace, tmp_path):
    _, map_path, data_path = workspace
    out = tmp_path / "detect.json"
    rc = main(["detect", map_path, data_path, "--permutations", "150",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "msm-report/1"
    assert doc["command"] == "detect"
    names = [a["node"] for a in doc["alerts"]]
    assert "system.outreach_decision" in names
    assert all(a["p_value"] <= 0.01 for a in doc["alerts"])


def test_detect_text(workspace, capsys):
    _, map_path, data_path = workspace
    assert main(["detect", map_path, data_path, "--permutations", "150"]) == 0
    assert "alerts" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# trace

def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["trace", "m.msm", "d.csv", "--alert", "system.x"])
    config = TraceConfig()
    for name in ("bins", "tau", "epsilon", "mode", "permutations", "seed",
                 "eager_environment"):
        assert getattr(args, name) == getattr(config, name), name
    args = parser.parse_args(["detect", "m.msm", "d.csv"])
    detect = inspect.signature(detect_alerts).parameters
    assert (args.alpha, args.permutations, args.seed) == (
        detect["alpha"].default, detect["B"].default, detect["seed"].default)


def test_trace_json_deterministic(workspace, tmp_path):
    _, map_path, data_path = workspace
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["trace", map_path, data_path,
                   "--alert", "system.outreach_decision",
                   "--seed", "5", "--format", "json", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["command"] == "trace"
    assert doc["alert"] == "system.outreach_decision"
    assert doc["trace"]["aq"] == 1
    assert doc["verdicts"]


def test_trace_text_output(workspace, capsys):
    _, map_path, data_path = workspace
    rc = main(["trace", map_path, data_path,
               "--alert", "system.outreach_decision"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "AQ1 [MLSystem]" in text
    assert "verdict:" in text


@pytest.mark.parametrize("bins", [4, 16])
def test_trace_scores_the_alert_at_its_bins(workspace, tmp_path, bins):
    _, map_path, data_path = workspace
    out = tmp_path / "trace.json"
    assert main(["trace", map_path, data_path, "--alert", "system.promo_ranking",
                 "--bins", str(bins), "--format", "json", "--out", str(out)]) == 0
    system_map = parse_map(Path(map_path).read_text(encoding="utf-8"))
    ds = load_csv(system_map, data_path)
    at = {k: mechanisms.shift_test(ds, system_map, "system.promo_ranking",
                                   seed=[0, 10_000], k=k).statistic for k in (8, bins)}
    assert at[bins] != at[8]
    assert json.loads(out.read_text())["alerts"][0]["statistic"] == at[bins]


@pytest.mark.parametrize("command", [["detect"], ["trace", "--alert", "system.outreach_decision"]])
@pytest.mark.parametrize("target", ["map", "data"])
@pytest.mark.parametrize("relative", [False, True])
def test_out_may_not_name_an_input(workspace, monkeypatch, capsys, command, target, relative):
    """The report would overwrite the map or the data: exit 2 before anything
    is read or written, whether --out spells the path as given or as ./name."""
    root, map_path, data_path = workspace
    path = Path(map_path if target == "map" else data_path)
    before = path.read_bytes()
    monkeypatch.chdir(root)
    out = f"./{path.name}" if relative else str(path)
    rc = main(command[:1] + [map_path, data_path] + command[1:] + ["--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert out in err and "--out" in err and "Traceback" not in err
    assert path.read_bytes() == before


@pytest.mark.parametrize("command", [["detect"], ["trace", "--alert", "system.outreach_decision"]])
@pytest.mark.parametrize("target", ["map", "data"])
def test_out_may_not_be_a_hard_link_to_an_input(workspace, tmp_path, capsys, command, target):
    _, map_path, data_path = workspace
    path = Path(map_path if target == "map" else data_path)
    before = path.read_bytes()
    link = tmp_path / f"link{path.suffix}"
    link.hardlink_to(path)
    rc = main(command[:1] + [map_path, data_path] + command[1:] + ["--out", str(link)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(link) in err and "--out" in err
    assert path.read_bytes() == before


def test_trace_unknown_alert(workspace, capsys):
    _, map_path, data_path = workspace
    rc = main(["trace", map_path, data_path, "--alert", "system.nope"])
    assert rc == 1
    assert "alert" in capsys.readouterr().err


def test_dataset_warnings_reach_both_reports(workspace, tmp_path):
    _, map_path, data_path = workspace
    with open(data_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    extra = tmp_path / "extra.csv"
    with open(extra, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0] + ["mystery"]] + [r + ["1"] for r in rows[1:]])
    for argv in (["detect", "--permutations", "150"],
                 ["trace", "--alert", "system.outreach_decision"]):
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv[:1] + [map_path, str(extra)] + argv[1:]
                    + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["warnings"][0] == "column 'mystery' matches no map node", argv[0]


def test_trace_alert_without_data_is_a_domain_error(workspace, tmp_path, capsys):
    _, map_path, data_path = workspace
    with open(data_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("serving2.promo_out")
    no_promo = tmp_path / "no_promo.csv"
    with open(no_promo, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(r[:drop] + r[drop + 1:] for r in rows)
    rc = main(["trace", map_path, str(no_promo), "--alert", "system.promo_ranking"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "system.promo_ranking" in err


def test_table_past_the_state_limit_is_a_domain_error(workspace, monkeypatch, capsys):
    # a view whose table would outgrow the bound stops before any counting
    _, map_path, data_path = workspace
    monkeypatch.setattr(mechanisms, "STATE_LIMIT", 20)
    rc = main(["trace", map_path, data_path, "--alert", "system.outreach_decision"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "cells (limit 20)" in err


def test_csv_that_is_not_utf8_is_a_domain_error(workspace, tmp_path, capsys):
    _, map_path, data_path = workspace
    lines = Path(data_path).read_bytes().split(b"\n")
    lines[4] = b"caf\xe9," + lines[4].split(b",", 1)[1]      # one Latin-1 byte
    latin = tmp_path / "latin1.csv"
    latin.write_bytes(b"\n".join(lines))
    assert main(["detect", map_path, str(latin)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 5, byte ") and "not UTF-8" in err
    assert "Traceback" not in err


def test_csv_cell_past_the_field_limit_is_a_domain_error(workspace, tmp_path, capsys):
    _, map_path, data_path = workspace
    limit = csv.field_size_limit()
    with open(data_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = "x" * (limit + 1)
    long_cell = tmp_path / "long_cell.csv"
    with open(long_cell, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC).writerows(rows)
    assert main(["detect", map_path, str(long_cell)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: field larger than field limit")
    assert "Traceback" not in err
    assert csv.field_size_limit() == limit


def test_map_with_byte_order_mark_reads_like_the_plain_map(workspace, tmp_path, capsys):
    _, map_path, data_path = workspace
    bom_map = tmp_path / "bom.msm"
    bom_map.write_text("\ufeff" + Path(map_path).read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for path in (map_path, str(bom_map)):
        assert main(["validate", path]) == 0
        out = [capsys.readouterr().out.replace(path, "MAP")]
        for argv in (["detect", "--permutations", "150"],
                     ["trace", "--alert", "system.outreach_decision"]):
            assert main(argv[:1] + [path, data_path] + argv[1:] + ["--format", "json"]) == 0
            out.append(capsys.readouterr().out)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == "MAP: ok\n"


def report_bytes(map_path, text, workdir, scenario):
    """``msm detect`` and ``msm trace`` JSON of the scenario's alert on CSV ``text``."""
    data = workdir / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = []
    for argv in (["detect"], ["trace", "--alert", EXPECTED_TRACES[scenario][0]]):
        path = workdir / f"{argv[0]}.json"
        assert main(argv[:1] + [map_path, str(data)] + argv[1:]
                    + ["--format", "json", "--out", str(path)]) == 0
        out.append(path.read_bytes())
    return out


@pytest.fixture(scope="module")
def canonical_runs(workspace, tmp_path_factory):
    """S2 and S6 at n = 1000 under the simulator's header, which names each
    column by its canonical class member, with their reports."""
    _, map_path, _ = workspace
    runs = {}
    for scenario in ("S2", "S6"):
        text = generate_csv(ScenarioConfig(scenario, n=1000, seed=0))
        runs[scenario] = text, report_bytes(map_path, text, tmp_path_factory.mktemp(scenario),
                                            scenario)
    return map_path, runs


@pytest.mark.parametrize("scenario", ["S2", "S6"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_header_may_name_any_class_member(canonical_runs, tmp_path_factory, scenario, data):
    """A column named by another member of its equivalence class loads to
    the same typed column and gives the same reports, byte for byte."""
    map_path, runs = canonical_runs
    text, want = runs[scenario]
    system_map = parse_map(churn_map_text())
    header, body = text.split("\n", 1)
    names = header.split(",")
    others = {n: [m for m in system_map.equivalence_class(n) if m != n]
              for n in names if system_map.has_node(n)}
    renamed = data.draw(st.sets(st.sampled_from(sorted(n for n in others if others[n])),
                                min_size=1), label="renamed columns")
    alias = {n: data.draw(st.sampled_from(others[n]), label=n) for n in sorted(renamed)}
    text_alias = ",".join(alias.get(n, n) for n in names) + "\n" + body
    got, clean = load_csv(system_map, text_alias), load_csv(system_map, text)
    assert list(got.columns) == list(clean.columns) and got.warnings == clean.warnings == []
    for q, col in clean.columns.items():
        assert got.columns[q].dtype == col.dtype
        assert list(got.columns[q]) == list(col) if col.dtype == object else (
            got.columns[q].tobytes() == col.tobytes())
    assert report_bytes(map_path, text_alias, tmp_path_factory.mktemp("alias"), scenario) == want
