"""Command-line entry points.

Exit codes: 0 success, 1 domain error (invalid map, unknown alert, ...),
2 I/O or usage error. All stochastic commands take an explicit --seed and
default to 0; nothing reads wall-clock entropy.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys

from . import report as report_mod
from .attribution import MODES
from .dataset import load_csv
from .errors import MsmError, ParseError
from .mechanisms import DEFAULT_RESPLITS, shift_test
from .msmformat import parse_map
from .simulator import ScenarioConfig, churn_map_text, generate_csv
from .traversal import TraceConfig, detect_alerts, trace


def _number(kind, ok, rule: str):
    """argparse type: ``kind(text)``, a usage error unless ``ok(value)``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__         # names the type in "invalid int value"
    return parse


def _int_from(low: int):
    return _number(int, lambda x: x >= low, f"an integer >= {low}")


_SHARE = _number(float, lambda x: 0 < x <= 1, "in (0, 1]")


def _read(path: str) -> str:
    """The text of a map file, line ends read as in text mode. A byte that
    is not UTF-8 raises ParseError at its line and column."""
    with open(path, "rb") as fh:     # a line-end byte is never part of a UTF-8 sequence
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8").removeprefix("\ufeff").split("\n")
        raise ParseError(f"not UTF-8 ({exc.reason})", len(before), len(before[-1]) + 1) from None


def _same_file(a: str, b: str) -> bool:
    """One file: one inode where both paths exist (so a hard link too), else one path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _emit(doc: dict, args):
    """Render a report document in the requested format to --out or stdout."""
    render = report_mod.render_json if args.format == "json" else report_mod.render_text
    text = render(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        parse_map(_read(args.map))
    except MsmError as exc:
        print(f"{args.map}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.map}: ok")
    return 0


def cmd_detect(args) -> int:
    system_map = parse_map(_read(args.map))
    ds = load_csv(system_map, args.data)
    alerts = detect_alerts(system_map, ds, alpha=args.alpha,
                           B=args.permutations, seed=args.seed, warnings=ds.warnings)
    _emit(report_mod.detect_document(system_map.name, alerts, args.alpha,
                                     args.permutations, args.seed, ds.warnings), args)
    return 0


def cmd_trace(args) -> int:
    system_map = parse_map(_read(args.map))
    ds = load_csv(system_map, args.data)
    config = TraceConfig(
        bins=args.bins,
        tau=args.tau,
        epsilon=args.epsilon,
        permutations=args.permutations,
        seed=args.seed,
        mode=args.mode,
        eager_environment=args.eager_environment,
    )
    result = trace(system_map, ds, args.alert, config)
    # stream offset keeps this independent of the per-node detect streams
    alert_test = shift_test(ds, system_map, args.alert,
                            B=DEFAULT_RESPLITS, seed=[args.seed, 10_000], k=args.bins)
    _emit(report_mod.trace_document(system_map.name, result, config, alert_test), args)
    return 0


def cmd_simulate(args) -> int:
    if _same_file(args.out_data, args.out_map):
        print(f"error: --out-data and --out-map name one file: {args.out_data}", file=sys.stderr)
        return 2
    config = ScenarioConfig(scenario=args.scenario, n=args.n, seed=args.seed)
    data = generate_csv(config)
    with open(args.out_data, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    with open(args.out_map, "w", encoding="utf-8", newline="") as fh:
        fh.write(churn_map_text())
    print(f"wrote {args.out_data} and {args.out_map}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msm",
        description="Layered causal maps for tracing ML distribution shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a map file")
    p.add_argument("map")
    p.set_defaults(func=cmd_validate)

    detect = {k: v.default for k, v in inspect.signature(detect_alerts).parameters.items()}
    p = sub.add_parser("detect", help="run shift tests on system variables")
    p.add_argument("map")
    p.add_argument("data")
    p.add_argument("--alpha", type=_SHARE, default=detect["alpha"])
    p.add_argument("--permutations", type=_int_from(100),    # shift_test's least B
                   default=detect["B"])
    p.add_argument("--seed", type=_int_from(0), default=detect["seed"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("trace", help="trace an alert from symptom to source")
    p.add_argument("map")
    p.add_argument("data")
    p.add_argument("--alert", required=True)
    config = TraceConfig()
    p.add_argument("--bins", type=_int_from(2), default=config.bins)
    p.add_argument("--tau", type=_SHARE, default=config.tau)
    p.add_argument("--epsilon", default=config.epsilon,
                   type=_number(float, lambda x: 0 <= x < math.inf, "finite and >= 0"))
    p.add_argument("--mode", choices=MODES, default=config.mode)
    p.add_argument("--permutations", type=_int_from(1), default=config.permutations)
    p.add_argument("--seed", type=_int_from(0), default=config.seed)
    p.add_argument("--eager-environment", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("simulate", help="generate a churn-example scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=_int_from(1), default=5000)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-map", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)         # detect and trace: never over an input
    if out and any(_same_file(out, path) for path in (args.map, args.data)):
        print(f"error: --out names an input file: {out}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except MsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
