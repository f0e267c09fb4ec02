"""Machine- and human-readable reports for detection and trace runs.

The JSON document is the single source of truth; the text renderer
derives from the same dictionary. JSON keys are sorted and arrays are in
canonical node order, so byte-level comparisons of repeated runs are
meaningful.
"""

from __future__ import annotations

import dataclasses
import json

from .traversal import TraceConfig, TraceReport, TraceStep

SCHEMA = "msm-report/1"


def step_to_dict(step: TraceStep) -> dict:
    r = step.result
    return {
        "aq": step.aq,
        "view": step.view.name,
        "view_label": step.view.label(),
        "target": step.target,
        "pattern": step.pattern.value,
        "mode": r.mode,
        "total": r.total,
        "phi": {p: r.phi[p] for p in r.players},
        "shares": {p: r.shares[p] for p in r.players},
        "classification": {
            "kind": r.classification.kind,
            "nodes": list(r.classification.nodes),
        },
        "note": step.note,
        "verdicts": [dataclasses.asdict(v) for v in step.verdicts],
        "children": [step_to_dict(c) for c in step.children],
    }


def detect_document(map_name: str, alerts, alpha: float, B: int, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "map": map_name,
        "command": "detect",
        "config": {"alpha": alpha, "test_permutations": B, "seed": seed},
        "alerts": [dataclasses.asdict(a) for a in alerts],
        "warnings": [],
    }


def trace_document(map_name: str, report: TraceReport, config: TraceConfig,
                   alert_test=None) -> dict:
    alerts = [] if alert_test is None else [dataclasses.asdict(alert_test)]
    warnings = list(report.warnings)
    if report.excluded_environment:
        warnings.append(
            "environment nodes without data (potential hidden variables): "
            + ", ".join(report.excluded_environment)
        )
    return {
        "schema": SCHEMA,
        "map": map_name,
        "command": "trace",
        "config": dataclasses.asdict(config),
        "alerts": alerts,
        "alert": report.alert,
        "trace": step_to_dict(report.root),
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
        "excluded_environment": list(report.excluded_environment),
        "warnings": warnings,
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _verdict_text(v) -> str:
    where = f"({v['node']})" if v["node"] else ""
    return f"verdict: {v['kind']}{where} {v['detail']}".rstrip()


def _step_lines(step: dict, depth: int, out: list):
    pad = "  " * depth
    cls = step["classification"]
    head = (
        f"{pad}AQ{step['aq']} [{step['view_label']}] target={step['target']} "
        f"pattern={step['pattern']}"
    )
    if cls["nodes"]:
        top = cls["nodes"][0]
        head += f" top={top} share={step['shares'].get(top, 0.0):.2f}"
    out.append(head)
    if step["note"]:
        out.append(f"{pad}  note: {step['note']}")
    for v in step["verdicts"]:
        out.append(f"{pad}  -> {_verdict_text(v)}")
    for child in step["children"]:
        _step_lines(child, depth + 1, out)


def render_text(doc: dict) -> str:
    out = [f"map: {doc['map']}"]
    if doc.get("alerts"):
        out.append("alerts:")
        for a in doc["alerts"]:
            out.append(
                f"  {a['node']}  statistic={a['statistic']:.6f} "
                f"p={a['p_value']:.6g}"
            )
    elif doc.get("command") == "detect":
        out.append("alerts: none")
    if doc.get("trace"):
        out.append("trace:")
        _step_lines(doc["trace"], 1, out)
    for w in doc.get("warnings", []):
        out.append(f"warning: {w}")
    return "\n".join(out) + "\n"
