"""CLI: exit codes, output formats, and byte-level determinism."""

import csv
import inspect
import json

import pytest

from mlsysmap.cli import build_parser, main
from mlsysmap.simulator import churn_map_text
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
