"""Tiny-size self-test of every workload, its oracle and its tracing.

    python3 bench/selftest.py

For each workload at the tiny size and seed 0 this sets up, runs two
untraced and two traced passes, and checks that:

- every operation meets the oracle;
- the per-layer counts repeat exactly between the two traced passes;
- every wrapper target was found and every counter could be read;
- the layers the workload is meant to exercise show nonzero self time;
- the inputs hash to the reference recorded in ``input_hashes.json``. A
  different hash means the generator's output changed, so numbers from
  before and after that change were measured on different data.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys

import run

SEED = 0
# layers whose self time must be nonzero on each workload
EXERCISED = {
    "incident": ("mechanisms.shift_test", "traversal.detect_alerts", "traversal.trace",
                 "report.render", "msmformat.parse_map", "cli.main", "dataset.load_csv",
                 "dataset.view_matrix", "mechanisms.fit_mechanisms",
                 "mechanisms.fit_discretization", "attribution.attribute",
                 "mechanisms.target_marginal", "simulator.simulate"),
    "wide": ("attribution.attribute", "mechanisms.target_marginal", "dataset.load_csv",
             "mechanisms.fit_mechanisms", "traversal.trace"),
}


def check_workload(name: str):
    """(run record, [(passed, what was checked)]) for one workload."""
    record, result = run.run(name, SEED, seconds=0, traced=True, size="tiny")
    metrics = result["metrics"]
    idle = [layer for layer in EXERCISED[name] if metrics[f"{layer}.s"]["value"] <= 0]
    return record, [
        (result["failed"] == 0, f"oracle: {result['failed']}/{result['attempted']} "
                                f"ops failed {record['failures']}"),
        (not record["unstable_counts"],
         f"counts repeat between traced passes {record['unstable_counts'] or ''}"),
        (not record["missing_targets"] and not record["hook_errors"],
         f"wrappers found {record['missing_targets']} {record['hook_errors']}"),
        (not idle, f"nonzero self time on exercised layers {idle or ''}"),
        (record["inputs"] == "same as recorded reference",
         f"inputs {record['inputs_sha256'][:16]}: {record['inputs']}"),
        (result["correct"], "run reports correct"),
    ]


def main() -> int:
    ok = True
    for name in run.WORKLOAD_NAMES:
        record, checks = check_workload(name)
        print(f"{name}: python {record['python']}, numpy {record['numpy']}, "
              f"nproc {record['nproc']}, {record['rows_per_window']} rows per window")
        for passed, what in checks:
            ok = ok and passed
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {what}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
