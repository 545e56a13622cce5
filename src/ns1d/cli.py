"""Command-line entry point: ns1d {run, sweep, mms, validate-h}.

The config is the defaults or a --config file, with the --set overrides on
top; the preset is one more key (--set preset=two-bump).  It is checked once,
after the overrides (a config file also when it is loaded), and a sweep
checks each of its values once, before its first run.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error or
memory exhausted (an input too large to allocate).
A run or mms study that fails numerically writes its summary.json with
exit_status "error" and the error, and prints one `numerical failure:` line.
A refused sweep value, or two that share a directory, exits 2 and nothing runs;
sweep_summary.json holds its runs' summaries, and it exits 3 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import (SWEEP_PARAMETERS, apply_overrides, default_config, load_config,
                      parse_list, run, sweep, validate_h_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_common(parser):
    parser.add_argument("--config", help="path to a flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ns1d",
        description="1D viscous heat-conducting gas in Lagrangian coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="parameter sweep of independent runs")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=tuple(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of parameter values")

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    _add_common(p_mms)

    p_val = sub.add_parser("validate-h", help="empirical admissibility check of h")
    _add_common(p_val)

    return parser


def _load(args):
    config = load_config(args.config) if args.config else default_config()
    # the mms command runs the mms preset, so its keys are the ones checked
    mms = ["preset=mms"] if args.command == "mms" else []
    return apply_overrides(config, args.overrides + mms)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command in ("run", "mms"):
            summary = run(config)
            if summary.exit_status != "ok":
                print(f"numerical failure: {summary.error}", file=sys.stderr)
                return EXIT_NUMERICAL
            if args.command == "mms":
                print(json.dumps(summary.order_report, sort_keys=True, indent=2))
            else:
                print(f"run finished: status=ok steps={summary.steps}")
            return EXIT_OK
        if args.command == "sweep":
            summaries = sweep(config, args.param, parse_list(args.values, float))
            bad = [s for s in summaries if s.exit_status != "ok"]
            print(f"sweep finished: {len(summaries) - len(bad)}/{len(summaries)} runs ok")
            return EXIT_NUMERICAL if bad else EXIT_OK
        if args.command == "validate-h":
            report = validate_h_config(config)
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
