"""The benchmark's workloads: inputs made from a seed, operations, oracle.

Each workload writes its inputs into a work directory at set-up and then
offers a fixed list of operations. One pass runs every operation once, in
order, in one thread (a closed loop with a single client). An operation
returns what the program produced; ``check`` compares that with the
oracle below and returns a reason on a miss.

The oracle is kept here, not imported from ``mlsysmap.simulator``, so a
change to the program cannot change its own check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import widegen
from mlsysmap import cli, dataset, msmformat, traversal

SCHEMA = "msm-report/1"
SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6")

# scenario -> (alert, pattern path along first children, verdict kind, node)
ORACLE = {
    "S1": ("system.outreach_decision", ("AP1.1", "AP2.1"),
           "root-cause", "application.outreach_policy"),
    "S2": ("system.promo_ranking", ("AP1.2", "AP2.1"),
           "root-cause", "pipeline.parse_quality"),
    "S3": ("system.promo_ranking", ("AP1.2", "AP2.2"),
           "component", "pipeline.activity_features"),
    "S4": ("system.promo_ranking", ("AP1.2", "AP2.3", "AP3.1"),
           "external", "env.quality_of_service"),
    "S5": ("system.promo_ranking", ("AP1.2", "AP2.3", "AP3.2"),
           "undetermined", "env.user_activity"),
    "S6": ("system.churn_score", ("AP1.1", "AP2.1"),
           "root-cause", "serving.model_version"),
    "wide": (widegen.ALERT, ("AP1.2", "AP2.1"), "root-cause", widegen.MODULATOR),
}

# rows per window: the measured size and the self-test size
SIZES = {
    "incident": {"full": 5000, "tiny": 1000},
    "wide": {"full": 5000, "tiny": 5000},   # its op cost does not scale with rows
}
WARM_UP_ROWS = 200
WARM_UP_ORDERS = 10    # sampled-Shapley orders in the warm-up trace


class OpFailed(Exception):
    """The program reported an error instead of a result."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def run_cli(argv: list) -> None:
    """One in-process ``msm`` command; its own printing is swallowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"msm {argv[0]} exited {code}: {err.getvalue().strip()}")


def simulate(workdir: Path, scenario: str, n: int, seed: int) -> tuple[Path, Path]:
    data, map_path = workdir / f"{scenario}.csv", workdir / "churn.msm"
    run_cli(["simulate", "--scenario", scenario, "--n", n, "--seed", seed,
             "--out-data", data, "--out-map", map_path])
    return data, map_path


def path_miss(patterns: tuple, verdicts: list, expected) -> Optional[str]:
    _, path, kind, node = expected
    if patterns != path:
        return f"pattern path {'->'.join(patterns)}, expected {'->'.join(path)}"
    if (kind, node) not in verdicts:
        return f"verdicts {verdicts}, expected {kind}({node})"
    return None


def doc_miss(doc: dict, expected) -> Optional[str]:
    """Oracle on one ``msm trace`` JSON report."""
    if doc.get("schema") != SCHEMA:
        return f"schema {doc.get('schema')!r}, expected {SCHEMA}"
    patterns, step = [], doc["trace"]
    while True:
        patterns.append(step["pattern"])
        if not step["children"]:
            break
        step = step["children"][0]
    verdicts = [(v["kind"], v["node"]) for v in doc["verdicts"]]
    return path_miss(tuple(patterns), verdicts, expected)


def report_miss(report, expected) -> Optional[str]:
    """Oracle on one library ``TraceReport``."""
    patterns, step = [], report.root
    while True:
        patterns.append(step.pattern.value)
        if not step.children:
            break
        step = step.children[0]
    verdicts = [(v.kind, v.node) for v in report.verdicts]
    return path_miss(tuple(patterns), verdicts, expected)


class Workload:
    """Inputs in ``workdir`` from ``seed``; ``size`` is "full" or "tiny"."""

    name = ""

    def __init__(self, workdir: Path, seed: int, size: str = "full"):
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.n = SIZES[self.name][size]

    def setup(self) -> None:
        """Generate and write the inputs, then warm up the op's code path."""
        self.generate()
        self.warm_up()

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def input_files(self) -> list[Path]:
        raise NotImplementedError

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for path in self.input_files():
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()

    def ops(self) -> list[Op]:
        raise NotImplementedError


class Incident(Workload):
    """The on-call flow: ``msm detect``, then ``msm trace`` per alert."""

    name = "incident"

    def generate(self):
        for s in SCENARIOS:
            simulate(self.workdir, s, self.n, self.seed)

    def warm_up(self):
        warm = self.workdir / "warm"
        warm.mkdir(exist_ok=True)
        data, map_path = simulate(warm, "S2", WARM_UP_ROWS, self.seed)
        run_cli(["detect", map_path, data, "--permutations", 100,
                 "--format", "json", "--out", warm / "detect.json"])
        run_cli(["trace", map_path, data, "--alert", ORACLE["S2"][0],
                 "--permutations", WARM_UP_ORDERS, "--format", "json",
                 "--out", warm / "trace.json"])

    def input_files(self):
        return [self.workdir / "churn.msm"] + [self.workdir / f"{s}.csv" for s in SCENARIOS]

    def ops(self):
        return [Op(s, self._op(s), self._check(s)) for s in SCENARIOS]

    def _op(self, scenario):
        map_path = self.workdir / "churn.msm"
        data = self.workdir / f"{scenario}.csv"
        out = self.workdir / "out"
        out.mkdir(exist_ok=True)

        def run():
            detect_out = out / f"{scenario}.detect.json"
            run_cli(["detect", map_path, data, "--seed", self.seed,
                     "--format", "json", "--out", detect_out])
            alerts = [a["node"] for a in json.loads(detect_out.read_text())["alerts"]]
            docs = {}
            for alert in alerts:
                trace_out = out / f"{scenario}.{alert}.trace.json"
                run_cli(["trace", map_path, data, "--alert", alert, "--seed", self.seed,
                         "--format", "json", "--out", trace_out])
                docs[alert] = json.loads(trace_out.read_text())
            return alerts, docs

        return run

    @staticmethod
    def _check(scenario):
        def check(result):
            alerts, docs = result
            for alert, doc in docs.items():
                if doc.get("schema") != SCHEMA or doc.get("alert") != alert:
                    return f"trace of {alert}: malformed report"
            if scenario == "S0":
                return f"alerts {alerts} on the no-fault scenario" if alerts else None
            alert = ORACLE[scenario][0]
            if alert not in alerts:
                return f"expected alert {alert} not in {alerts}"
            return doc_miss(docs[alert], ORACLE[scenario])

        return check


class Wide(Workload):
    """A synthetic 12-node system view over a 16-node subsystem."""

    name = "wide"

    def _write(self, workdir: Path, n: int):
        (workdir / "wide.msm").write_text(widegen.MAP_TEXT, encoding="utf-8")
        (workdir / "wide.csv").write_text(widegen.generate_csv(n, self.seed),
                                          encoding="utf-8")

    def generate(self):
        self._write(self.workdir, self.n)

    def warm_up(self):
        warm = self.workdir / "warm"
        warm.mkdir(exist_ok=True)
        self._write(warm, WARM_UP_ROWS)
        system_map = msmformat.parse_map(widegen.MAP_TEXT)
        with open(warm / "wide.csv", newline="", encoding="utf-8") as fh:
            ds = dataset.load_csv(system_map, fh)
        traversal.trace(system_map, ds, widegen.ALERT, traversal.TraceConfig(
            seed=self.seed, permutations=WARM_UP_ORDERS))

    def input_files(self):
        return [self.workdir / "wide.msm", self.workdir / "wide.csv"]

    def ops(self):
        system_map = msmformat.parse_map(
            (self.workdir / "wide.msm").read_text(encoding="utf-8"))
        data = self.workdir / "wide.csv"
        config = traversal.TraceConfig(seed=self.seed)

        def run():
            with open(data, newline="", encoding="utf-8") as fh:
                ds = dataset.load_csv(system_map, fh)
            return traversal.trace(system_map, ds, widegen.ALERT, config)

        return [Op("wide", run, lambda r: report_miss(r, ORACLE["wide"]))]


WORKLOADS = {w.name: w for w in (Incident, Wide)}
